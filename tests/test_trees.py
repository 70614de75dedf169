"""Inverse-tree counts, spread, reachability, and odd preimages."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collatzlab import trees
from collatzlab.maps import EnteredCycle, ReachedTarget, t_map, trajectory
from collatzlab.trees import (
    extremal_spread,
    odd_preimage,
    odd_preimage_family,
    odd_step,
    preimages,
    reach_count,
    tree_counts,
)


def test_preimages_examples():
    assert preimages(5) == {10, 3}
    assert preimages(4) == {8}
    assert preimages(8) == {16, 5}


def test_tree_counts_small():
    t = tree_counts(5, 2, mode="full")
    assert t.counts == [2, 2]
    assert sorted(t.levels[1]) == [6, 20]


def test_tree_multiple_of_3_is_doubling_spine():
    t = tree_counts(3, 12)
    assert t.counts == [1] * 12


def test_tree_counts_match_forward_oracle():
    # independent oracle: iterate T forward k steps on a full block of n
    k, amax = 10, 30
    N = (1 << k) * amax
    v = np.arange(0, N + 1, dtype=np.int64)
    for _ in range(k):
        odd = (v & 1).astype(bool)
        v = np.where(odd, 3 * v + 1, v) >> 1
    counts = np.bincount(v[1:], minlength=amax + 1)
    for a in range(1, amax + 1):
        assert tree_counts(a, k).counts[-1] == counts[a]


def test_tree_count_recurrence_and_level_soundness():
    for a in (1, 2, 7, 25, 100):
        t = tree_counts(a, 12, mode="full")
        assert [len(lv) for lv in t.levels] == t.counts
        for j, level in enumerate(t.levels, start=1):
            for node in level[:50]:
                x = node
                for _ in range(j):
                    x = t_map().step(x)
                assert x == a


def test_counts_mode_equals_full_mode():
    for a in (5, 7, 11):
        assert tree_counts(a, 14).counts == tree_counts(a, 14, mode="full").counts


@pytest.mark.parametrize("mode", ["ful", "Full", ""])
def test_tree_counts_rejects_an_unknown_mode(mode):
    with pytest.raises(ValueError, match="mode"):
        tree_counts(1, 3, mode=mode)


def test_cycle_node_backflow_included():
    # the backward edge through the {1,2} cycle is part of the plain counts
    t = tree_counts(1, 2, mode="full")
    assert 1 in t.levels[1]


def test_edge_list_parents():
    t = tree_counts(5, 3, mode="full")
    for child, parent in t.edge_list():
        assert t_map().step(child) == parent


def test_branching_density_k1():
    # a = 2 (mod 3) has two preimages, otherwise one
    for a in range(1, 200):
        want = 2 if a % 3 == 2 else 1
        assert tree_counts(a, 1).counts == [want]


def test_extremal_spread_mean():
    roots = [a for a in range(2, 200) if a % 3]
    rep = extremal_spread(10, roots)
    assert abs(rep.mean / rep.reference_mean - 1) < 0.15
    assert rep.min_count <= rep.mean <= rep.max_count


def test_extremal_spread_class_estimator():
    roots = [a for a in range(2, 400) if a % 3]
    rep = extremal_spread(8, roots, mod_power_classes=1)
    assert set(rep.class_means) == {1, 2}
    # roots = 2 (mod 3) branch at the first level, so their trees run larger
    assert rep.class_means[2] > rep.class_means[1]


def test_growth_bracket_k30_sample():
    roots = [a for a in range(2, 80) if a % 3][:20]
    for a in roots:
        n30 = tree_counts(a, 30, pruned=True).counts[-1]
        assert 1.29 <= n30 ** (1 / 30) <= 1.37


def reach_count_bfs(a, x, magnitude_factor=64):
    """Oracle: the former reach_count.  Reverse breadth-first search from a
    over all preimages up to a magnitude cap, then a forward trajectory for
    every n with |n| <= x that the search missed."""
    cap = max(4 * abs(a) + 16, magnitude_factor * x)
    frontier = {a}
    seen = {a}
    while frontier:
        nxt = set()
        for v in frontier:
            for c in preimages(v):
                if c not in seen and abs(c) <= cap:
                    seen.add(c)
                    nxt.add(c)
        frontier = nxt
    found = {v for v in seen if abs(v) <= x}
    for n in range(-x, x + 1):
        if n in found:
            continue
        tr = trajectory(t_map(), n, target_set={a}, step_limit=4096, record_iterates=False)
        if isinstance(tr.termination, ReachedTarget):
            found.add(n)
        elif not isinstance(tr.termination, EnteredCycle):
            raise RuntimeError(f"n={n} is unresolved")
    return len(found)


@pytest.mark.parametrize("a", [1, 2, 4, 5, 7, 27, 0, -1, -5, -17])
def test_reach_count_matches_bfs(a):
    for x in (0, 1, 2, 10, 100, 1000, 2000):
        assert reach_count(a, x) == reach_count_bfs(a, x)


@settings(max_examples=150, deadline=None)
@given(st.integers(-300, 300), st.integers(-2, 400))
def test_reach_count_matches_bfs_anywhere(a, x):
    assert reach_count(a, x) == reach_count_bfs(a, x)


def test_reach_count_one():
    assert reach_count(1, 100) == 100
    assert reach_count(1, 1) == 1


def test_reach_count_raises_at_a_limit(monkeypatch):
    # a forward run that stops at its step limit is unresolved, not a "no"
    monkeypatch.setattr(trees, "DEFAULT_STEP_LIMIT", 2)
    with pytest.raises(RuntimeError, match="n=-20 "):
        reach_count(1, 20)


def test_reach_count_negative_cycle():
    got = reach_count(-5, 50)
    # forward oracle over the window
    want = 0
    for n in range(-50, 51):
        x = n
        ok = False
        for _ in range(500):
            if x == -5:
                ok = True
                break
            x = t_map().step(x)
        want += ok
    assert got == want


def test_odd_preimage_examples():
    assert odd_preimage(7) == 9 and odd_step(9) == 7
    assert odd_preimage(11) == 7 and odd_step(7) == 11
    assert odd_preimage(9) is None


def test_odd_preimage_closure():
    # brute-force oracle: every odd t < 10^6, grouped by odd_step(t), ascending
    brute = {}
    for t in range(1, 10**6, 2):
        brute.setdefault(odd_step(t), []).append(t)
    for n in range(1, 400, 2):
        if n % 3 == 0:
            continue
        fam = odd_preimage_family(n, 10**6)
        assert fam == brute.get(n, [])


@pytest.mark.parametrize("n", [-1, -5, -7])
def test_odd_preimage_family_refuses_negative_n(n):
    # the canonical preimage of a negative n is negative, and t -> 4t + 1
    # takes it down without end: the family is infinite below any limit
    with pytest.raises(ValueError, match=">= 0"):
        odd_preimage_family(n, 10)


def test_odd_preimage_canonical_residue():
    for n in range(1, 1000, 2):
        t = odd_preimage(n)
        if t is not None:
            assert t % 8 != 5
            assert odd_step(t) == n


@pytest.mark.parametrize("pruned", [False, True])
def test_edge_list_follows_the_stored_levels(pruned):
    for a in (1, 2, 5, 9, 16, 41):
        t = tree_counts(a, 9, mode="full", pruned=pruned)
        edges = list(t.edge_list())
        assert [c for c, _ in edges] == [c for level in t.levels for c in level]
        # every node above the last level is a parent: 2x is always a child
        assert {p for _, p in edges} == {a, *(c for level in t.levels[:-1] for c in level)}
        assert all(t_map().step(c) == p for c, p in edges)
    assert list(tree_counts(5, 0, mode="full").edge_list()) == []


def test_extremal_spread_counts_each_root_once():
    assert extremal_spread(6, [1, 1]).to_dict() == extremal_spread(6, [1]).to_dict()
    assert extremal_spread(6, [2, 1, 2, 3], 1).to_dict() == extremal_spread(6, [2, 1], 1).to_dict()
