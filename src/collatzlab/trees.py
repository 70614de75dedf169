"""Inverse iteration of the 3x+1 map: preimage sets, depth-k trees and
counts, extremal spread across roots, reachability counts, and the
odd-to-odd canonical preimage.

Two counting modes exist because two different objects matter: the plain
count of all n with T^k(n) = a (multiples of 3 included; they continue as
pure doubling spines), and the pruned tree in which a multiple of 3 is a
dead end.  Growth-rate statistics traditionally refer to the pruned tree,
whose mean branching factor is 4/3.

Reachability runs forward, not backward: reach_count walks each start with
the orbit walker of maps (maps._walk), under the one limit policy of
trajectory and find_cycles (maps.DEFAULT_STEP_LIMIT and
DEFAULT_MAGNITUDE_LIMIT, and a start stopped at either is unresolved).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .maps import DEFAULT_MAGNITUDE_LIMIT, DEFAULT_STEP_LIMIT, _walk, t_map


def preimages(a: int) -> set[int]:
    """All integers mapping to a in one T step: {2a} plus the odd branch
    (2a-1)/3 when it is an odd integer."""
    return set(_children(a, pruned=False))


def _children(x: int, pruned: bool) -> list[int]:
    kids = [2 * x]
    if x % 3 == 2:
        y = (2 * x - 1) // 3  # automatically odd when x = 2 (mod 3)
        if not pruned or y % 3 != 0:
            kids.append(y)
    return kids


@dataclass
class InverseTree:
    root: int
    depth: int
    counts: list[int]                       # n_j for j = 1..depth
    pruned: bool
    levels: Optional[list[list[int]]] = None  # full mode only

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/tree-v1",
            "root": self.root,
            "depth": self.depth,
            "pruned": self.pruned,
            "counts": self.counts,
        }

    def edge_list(self) -> Iterable[tuple[int, int]]:
        """(child, parent) pairs; requires full mode."""
        if self.levels is None:
            raise ValueError("tree was built in counts-only mode")
        prev = [self.root]
        for level in self.levels:
            parents = {}
            for p in prev:
                for c in _children(p, self.pruned):
                    parents[c] = p
            for c in level:
                yield c, parents[c]
            prev = level


def tree_counts(
    a: int,
    depth: int,
    mode: str = "counts",
    pruned: bool = False,
) -> InverseTree:
    """Breadth-first inverse tree of root a.

    mode "counts" keeps level sizes only (depth <= 40); "full" also stores
    the node lists (depth <= 30).  With pruned=True, multiples of 3 are cut
    (they can never reach an odd branch again), which is the tree whose
    leaf counts grow like (4/3)^depth.
    """
    if mode not in ("counts", "full"):
        raise ValueError("mode must be 'counts' or 'full'")
    cap = 30 if mode == "full" else 40
    if not 0 <= depth <= cap:
        raise ValueError(f"depth must be in 0..{cap} for mode {mode!r}")
    level = [a]
    counts = []
    levels = [] if mode == "full" else None
    for _ in range(depth):
        nxt = []
        for x in level:
            nxt.extend(_children(x, pruned))
        counts.append(len(nxt))
        if levels is not None:
            levels.append(nxt)
        level = nxt
    return InverseTree(a, depth, counts, pruned, levels)


@dataclass
class SpreadReport:
    depth: int
    min_root: int
    min_count: int
    max_root: int
    max_count: int
    mean: float
    reference_mean: float                   # (4/3)^depth
    class_means: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/tree-spread-v1",
            "depth": self.depth,
            "min": [self.min_root, self.min_count],
            "max": [self.max_root, self.max_count],
            "mean": self.mean,
            "reference_mean": self.reference_mean,
            "class_means": {str(k): v for k, v in self.class_means.items()},
        }


def extremal_spread(
    depth: int,
    roots: Iterable[int],
    mod_power_classes: int = 0,
) -> SpreadReport:
    """Extremes and mean of pruned-tree leaf counts over roots not divisible
    by 3, compared with the reference mean (4/3)^depth.

    With mod_power_classes = l > 0, per-class empirical means over roots
    grouped mod 3^l are reported as estimates of the class-dependent limit
    factor (leaf count divided by (4/3)^depth).
    """
    if depth > 30:
        raise ValueError("depth must be <= 30")
    rs = [a for a in roots if a % 3 != 0]
    if not rs:
        raise ValueError("need at least one root not divisible by 3")
    counts = {}
    for a in rs:
        counts[a] = tree_counts(a, depth, pruned=True).counts[-1] if depth else 1
    min_root = min(rs, key=lambda a: (counts[a], a))
    max_root = max(rs, key=lambda a: (counts[a], -a))
    mean = sum(counts.values()) / len(rs)
    ref = (4 / 3) ** depth
    class_means = {}
    if mod_power_classes:
        m = 3**mod_power_classes
        for r in range(m):
            if r % 3 == 0:
                continue
            members = [counts[a] for a in rs if a % m == r]
            if members:
                class_means[r] = (sum(members) / len(members)) / ref
    return SpreadReport(
        depth,
        min_root,
        counts[min_root],
        max_root,
        counts[max_root],
        mean,
        ref,
        class_means,
    )


def reach_count(a: int, x: int) -> int:
    """pi_a(x): how many n with |n| <= x have a in their forward T orbit.

    One forward sweep over n = -x..x with maps._walk, stopped at the memo:
    the fate (reaches a or not) of every point with |n| <= x that an
    earlier walk visited, seeded with a (and with a's whole cycle when a
    lies on one, found by one walk from a).  A walk that enters a cycle
    without meeting a answers no.  Limits are maps.DEFAULT_STEP_LIMIT and
    DEFAULT_MAGNITUDE_LIMIT: a start whose walk stops at either is
    unresolved, and RuntimeError names the first one.
    """
    if x > 10**7:
        raise ValueError("bound capped at 1e7")
    t = t_map()
    path, pos, v = _walk(t, a, (), DEFAULT_STEP_LIMIT, DEFAULT_MAGNITUDE_LIMIT)
    memo = dict.fromkeys(path if pos.get(v) == 0 else [a], True)
    count = 0
    for n in range(-x, x + 1):
        path, pos, v = _walk(t, n, memo, DEFAULT_STEP_LIMIT, DEFAULT_MAGNITUDE_LIMIT)
        if v not in memo and v not in pos:
            raise RuntimeError(f"reach_count: n={n} is unresolved, its forward run stopped "
                               f"at a step or magnitude limit after {len(path)} steps")
        reached = memo.get(v, False)
        for u in path:
            if -x <= u <= x:
                memo[u] = reached
        count += reached
    return count


# ---------------------------------------------------------------------------
# odd-to-odd accelerated map and its canonical preimage


def odd_step(n: int) -> int:
    """The odd-to-odd accelerated map: strip all factors of 2 from 3n+1."""
    if n % 2 == 0:
        raise ValueError("odd_step is defined on odd integers")
    y = 3 * n + 1
    while y % 2 == 0:
        y //= 2
    return y


def odd_preimage(n: int) -> Optional[int]:
    """Canonical odd preimage of the accelerated map: the unique t with
    odd_step(t) = n and t != 5 (mod 8); None when 3 | n (no preimages).

    The full preimage family is the orbit of the canonical one under
    t -> 4t + 1.
    """
    if n % 2 == 0:
        raise ValueError("n must be odd")
    if n % 3 == 0:
        return None
    if n % 6 == 1:
        t = 8 * ((n - 1) // 6) + 1
    else:  # n = 5 (mod 6)
        t = 4 * ((n - 5) // 6) + 3
    return t


def odd_preimage_family(n: int, limit: int) -> list[int]:
    """All odd t <= limit with odd_step(t) = n, ascending."""
    t = odd_preimage(n)
    if t is None:
        return []
    out = []
    while t <= limit:
        out.append(t)
        t = 4 * t + 1
    return out
