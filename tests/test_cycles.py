"""Cycle values, rational cycles, circuit equation, cycle-length bounds."""

from fractions import Fraction

import pytest

from collatzlab.cycles import (
    circuit_solutions,
    cycle_length_lower_bound,
    cycle_value,
    linear_combination_witness,
    rational_cycles_3xd,
    replay_word,
    word_offset,
)
from collatzlab.maps import CycleRecord, find_cycles, t_map, three_x_plus_d


# ------------------------------------------------------------- cycle_value

def test_cycle_value_examples():
    assert cycle_value("10") == 1
    assert cycle_value("1") == -1
    assert cycle_value("110") == -5


def test_cycle_value_replay_soundness():
    import itertools
    for n in range(1, 10):
        for bits in itertools.product("01", repeat=n):
            w = "".join(bits)
            x = cycle_value(w)
            assert replay_word(w, x) == x


def test_integer_cycle_magnitude_bound():
    # integer cycle elements satisfy |x| < 3^n
    import itertools
    for n in range(1, 12):
        for bits in itertools.product("01", repeat=n):
            w = "".join(bits)
            x = cycle_value(w)
            if x.denominator == 1:
                assert abs(x.numerator) < 3**n


# --------------------------------------------------------- rational cycles

def test_rational_cycles_d1():
    rep = rational_cycles_3xd(1, 12)
    assert [c.elements for c in rep.cycles] == [(1, 2)]


def test_rational_cycles_d5():
    rep = rational_cycles_3xd(5, 10)
    by_min = {c.min_element: c for c in rep.cycles}
    assert set(by_min) == {1, 19, 23}
    assert by_min[1].elements == (1, 4, 2)
    assert by_min[19].period == 5 and by_min[23].period == 5


def test_rational_cycles_agree_with_search():
    for d in (1, 5, 7, 11):
        rep = rational_cycles_3xd(d, 12)
        from_words = {c.elements for c in rep.cycles}
        res = find_cycles(three_x_plus_d(d), (1, 3000))
        from math import gcd
        from_search = {
            c.elements
            for c in res.cycles
            if c.period <= 12 and gcd(c.min_element, d) == 1 and c.min_element > 0
        }
        assert from_words == from_search


def test_rational_cycles_certificate_failure_raises(monkeypatch):
    # the replay check must hold under python -O, so it cannot be an assert
    monkeypatch.setattr(CycleRecord, "verify", lambda self, spec: False)
    with pytest.raises(ArithmeticError):
        rational_cycles_3xd(5, 10)


def test_rational_cycles_validation():
    with pytest.raises(ValueError):
        rational_cycles_3xd(3, 10)
    with pytest.raises(ValueError):
        rational_cycles_3xd(5, 60)


# ------------------------------------------------------- circuit solutions

def test_circuit_positive_only_111():
    sols = [s.to_tuple() for s in circuit_solutions(60, 60, (1, 10**9))]
    assert sols == [(1, 1, 1)]


def test_circuit_negative_h():
    sols = [s.to_tuple() for s in circuit_solutions(10, 10, (-10, 10))]
    assert (1, 1, 1) in sols
    assert (2, 1, -1) in sols
    # the whole family (k, 0, 0)
    for k in range(1, 11):
        assert (k, 0, 0) in sols


# ------------------------------------------------------------ cycle bounds

def test_bound_small_D():
    rep = cycle_length_lower_bound(2, period_cutoff=100)
    assert rep.min_period == 5 and rep.min_odd_terms == 3
    # replays: window (3 log2 3, 3 log2 3.5) contains 5


def test_bound_monotone_in_D():
    last = 0
    for D in (2, 10, 100, 10**4, 10**6):
        rep = cycle_length_lower_bound(D, period_cutoff=10**7, first_only=True)
        assert rep.min_period >= last
        last = rep.min_period


def test_bound_2_40_first():
    rep = cycle_length_lower_bound(2**40, first_only=True)
    assert rep.min_odd_terms == 10781274
    assert rep.min_period == 17087915


def test_bound_halbeisen_value():
    rep = cycle_length_lower_bound(212366032807211, first_only=True)
    assert rep.min_period == 102225496


def test_bound_oliveri_vella_inequality():
    rep = cycle_length_lower_bound(2**40 + 1, first_only=True)
    assert rep.min_odd_terms >= 1078215


def test_linear_combination_witness():
    gens = (301994, 17087915, 85137581)
    ok = [17087915, 17087915 + 301994, 2 * 17087915, 17087915 + 85137581]
    assert linear_combination_witness(ok, gens) == []
    assert linear_combination_witness([301994], gens) == [301994]  # needs B >= 1
    assert linear_combination_witness([17087916], gens) == [17087916]


def test_packed_min_element_brute_force():
    # the balanced packing maximizes the minimal cycle element: check against
    # exhaustive enumeration of all cyclic parity words
    import itertools
    from collatzlab.cycles import best_packed_min_element

    for p in range(2, 11):
        for n in range(1, p):
            if 3**n >= (1 << p):
                continue
            best = None
            seen = set()
            for pos in itertools.combinations(range(p), n):
                w = [0] * p
                for q in pos:
                    w[q] = 1
                key = min(tuple(w[i:] + w[:i]) for i in range(p))
                if key in seen:
                    continue
                seen.add(key)
                vals = []
                for i in range(p):
                    if w[i] != 1:
                        continue
                    rot = w[i:] + w[:i]
                    B = 0
                    for j, bit in enumerate(rot):
                        if bit:
                            B = 3 * B + (1 << j)
                    vals.append(Fraction(B, (1 << p) - 3**n))
                cand = min(vals)
                if best is None or cand > best:
                    best = cand
            assert best == best_packed_min_element(n, p)


def test_packed_bound_interval_matches_exact():
    from collatzlab.cycles import best_packed_min_element, packed_bound_exceeds

    for n, p in ((3, 5), (5, 8), (12, 20), (41, 65), (306, 485), (190537, 301994)):
        m = best_packed_min_element(n, p) if n <= 2000 else None
        for shift in (-1, 0, 1):
            if m is not None:
                D = int(m) + shift
                if D >= 1:
                    assert packed_bound_exceeds(n, p, D) == (m > D)
    # interval path against the exact rational path on a mid-size pair
    m = best_packed_min_element(15601, 24727)
    for D in (int(m) - 1, int(m), int(m) + 1):
        from collatzlab.cycles import _packed_sum_bounds
        lo, hi = _packed_sum_bounds(15601, 24727, 320)
        S = m * ((1 << 24727) - 3**15601)
        assert 3**15600 * lo <= S * (1 << 320) <= 3**15600 * hi
