"""The benchmark's workloads: seeded job lists with exact oracles.

A job is one timed public call into collatzlab (or one batch of calls to
the same entry point).  Its check compares the result against an oracle
computed by this file, never by the library, and runs outside the timed
region.

Workloads (the reasons are also in BENCHMARK.json):

* ``sweep``  -- the vectorized T-step kernel does most of the work
  (sieved and naive ``verify_range``, ``excursion_records``, the
  coefficient sweep) next to a full cycle-bound window scan.  The sieve
  build and the ``first_only`` exit are a small share here.
* ``bounds`` -- the residue-class sieve build (``stopping_density`` and a
  sieved ``verify_range`` at a high sieve exponent) and the ``first_only``
  window scan of ``cycle_length_lower_bound`` do most of the work.
* ``scalar`` -- only pure-Python exact-integer paths: FRACTRAN, ``maps``,
  ``twoadic`` and ``trees``; no numpy T-kernel and no sieve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import SimpleNamespace
from typing import Any, Callable, Optional

WORKLOADS = ("sweep", "bounds", "scalar")

#: Sizes per scale.  ``full`` is what the benchmark measures; ``smoke`` is a
#: tiny run of the same code paths, used for warm-up during set-up and by
#: smoke_test.py.  Expected values are exact and come from the literature or
#: from the tier-1 tests; None means "not pinned at this size".
SIZES = {
    "full": {
        "vr_sieve": (10**8, 16),
        "vr_naive": 2**21,
        "excursion": 5 * 10**6,
        "coeff": (2000, 238670),
        # (D, period_cutoff, (min odd terms, min period), feasible periods)
        "cycle_full": (2**40, 10**8, (10781274, 17087915), 809),
        "density_k": 21,
        "vr_bounds": (2**22, 21),
        "cycle_first": (
            (2, 2 * 10**6, (3, 5)),
            (2**40, 10**9, (10781274, 17087915)),
        ),
        "primes": 20,
        "cycles_range": 10**5,
        "traj_small": 10**4,
        "traj_big": 500,
        "traj_guard": 200,
        # (n, order, fixed points) of the 2-adic conjugacy permutation
        "perm": (20, 65536, 254),
        "reach": 5000,
    },
    "smoke": {
        "vr_sieve": (10**5, 8),
        "vr_naive": 2**12,
        "excursion": 10**4,
        "coeff": (60, None),
        "cycle_full": (2, 10**4, (3, 5), None),
        "density_k": 12,
        "vr_bounds": (2**14, 10),
        "cycle_first": ((2, 10**4, (3, 5)),),
        "primes": 6,
        "cycles_range": 10**3,
        "traj_small": 100,
        "traj_big": 5,
        "traj_guard": 5,
        "perm": (8, None, None),
        "reach": 100,
    },
}

#: Prefix of the excursion champions (n, t(n)) for n >= 2.
EXCURSION_PREFIX = [(2, 2), (3, 8), (7, 26), (15, 80), (27, 4616)]

#: The five known cycles of T on the integers, from their canonical element.
T_CYCLES = {
    (0,),
    (1, 2),
    (-1,),
    (-5, -7, -10),
    (-17, -25, -37, -55, -82, -41, -61, -91, -136, -68, -34),
}

_GUARD = (1 << 62) // 3  # the library's int64 guard; starts near it take the exact path


@dataclass
class Job:
    label: str            # the call as a user would write it
    metric: str           # the untraced per-entry-point time it adds to
    span: str             # span name in the traced run: "<module>.<entry>"
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]   # None when the result is right
    counts: Callable[[Any], dict] = lambda result: {}


# ---------------------------------------------------------------------------
# independent exact oracles


def t_step(x: int) -> int:
    return (3 * x + 1) // 2 if x & 1 else x // 2


@cache
def total_stopping_time(n: int) -> int:
    steps = 0
    while n != 1:
        n = t_step(n)
        steps += 1
    return steps


@cache
def excursion(n: int) -> int:
    """max T^k(n) over k >= 1; the orbit ends in the cycle (1, 2)."""
    peak = 2
    while n != 1:
        n = t_step(n)
        peak = max(peak, n)
    return peak


@cache
def sieve_survivors(k: int) -> int:
    """Residues mod 2^k whose coefficient 3^a / 2^j stays >= 1 for j <= k.

    Exact lifting: a survivor r mod 2^j lifts to r and r + 2^j, and
    T^j(r + 2^j) = T^j(r) + 3^a, so each level costs one step per lift.
    """
    alive = [(0, 0)]  # (T^j(r), a) for the survivors mod 2^j
    for j in range(k):
        nxt = []
        for t, a in alive:
            for v in (t, t + 3**a):
                b = a + (v & 1)
                if 3**b >= 1 << (j + 1):
                    nxt.append((t_step(v), b))
        alive = nxt
    return len(alive)


@cache
def first_primes(count: int) -> tuple[int, ...]:
    limit = 16
    while True:
        is_p = bytearray([1]) * (limit + 1)
        is_p[0] = is_p[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if is_p[i]:
                is_p[i * i::i] = bytearray(len(is_p[i * i::i]))
        primes = [i for i, p in enumerate(is_p) if p]
        if len(primes) >= count:
            return tuple(primes[:count])
        limit *= 2


# ---------------------------------------------------------------------------
# checks


def _mismatch(what: str, got, want) -> Optional[str]:
    if want is None or got == want:
        return None
    return f"{what}: got {got!r}, expected {want!r}"


def _first(*msgs: Optional[str]) -> Optional[str]:
    return next((m for m in msgs if m), None)


def _verified(r) -> Optional[str]:
    return None if r.verified and not r.failures else f"verify_range failures {r.failures[:5]}"


def _excursions(r, n_max: int) -> Optional[str]:
    champs = [(n, t) for n, t in r.champions]
    prefix = [c for c in EXCURSION_PREFIX if c[0] <= n_max]
    wrong = [(n, t) for n, t in champs if t != excursion(n)]
    increasing = all(a[0] < b[0] and a[1] < b[1] for a, b in zip(champs, champs[1:]))
    return _first(
        _mismatch("champion prefix", champs[:len(prefix)], prefix),
        _mismatch("champion values", wrong, []),
        None if increasing else "champions not strictly increasing",
        _mismatch("bound violations", r.bound_violations, []),
    )


def _cycle_bound(r, min_pair, n_periods) -> Optional[str]:
    return _first(
        _mismatch("minimal (n, p)", (r.min_odd_terms, r.min_period), min_pair),
        _mismatch("feasible periods", len(r.feasible_periods), n_periods),
    )


def _t_cycles(r) -> Optional[str]:
    found = {c.elements for c in r.cycles}
    replay = all(t_step(x) == y for c in found for x, y in zip(c, c[1:] + c[:1]))
    return _first(
        _mismatch("cycles", found, T_CYCLES),
        _mismatch("unresolved", r.unresolved, []),
        None if replay else "a reported cycle does not replay",
    )


def _trajectories(ReachedTarget, starts):
    def check(results) -> Optional[str]:
        want = [total_stopping_time(n) for n in starts]
        got = [t.steps for t in results]
        ends = all(t.termination == ReachedTarget(1) for t in results)
        return _first(_mismatch("steps", got, want), None if ends else "a start did not reach 1")

    return check


def _cycle_counts(r) -> dict:
    return {
        "cycles.exact_checks": r.boundary_exact_checks,
        "cycles.feasible_periods": len(r.feasible_periods),
        "cycles.packing_rejections": len(r.packing_rejections),
    }


# ---------------------------------------------------------------------------
# job lists


def build(workload: str, lab: SimpleNamespace, seed: int, scale: str = "full") -> list[Job]:
    """The job list of a workload; inputs are drawn from ``seed`` alone."""
    return _BUILDERS[workload](lab, random.Random(seed), SIZES[scale])


def _sweep(lab, rng, size) -> list[Job]:
    stats, coeffstop, cycles = lab.stats, lab.coeffstop, lab.cycles
    n_sieve, k = size["vr_sieve"]
    n_sieve += rng.randrange(1 << 16)
    n_naive = size["vr_naive"]
    n_exc = size["excursion"]
    k_coeff, coeff_bound = size["coeff"]
    D, cutoff, min_pair, n_periods = size["cycle_full"]
    return [
        Job(f"verify_range({n_sieve}, sieve_k={k})", "verify_range_s", "stats.verify_range",
            lambda: stats.verify_range(n_sieve, sieve_k=k), _verified,
            lambda r: {"stats.verify.candidates": r.candidates_iterated,
                       "stats.verify.range": n_sieve - 1}),
        Job(f"verify_range({n_naive}, mode='naive')", "verify_range_s", "stats.verify_range",
            lambda: stats.verify_range(n_naive, mode="naive"), _verified,
            lambda r: {"stats.verify.candidates": r.candidates_iterated,
                       "stats.verify.range": n_naive - 1}),
        Job(f"excursion_records({n_exc})", "excursion_records_s", "stats.excursion_records",
            lambda: stats.excursion_records(n_exc), lambda r: _excursions(r, n_exc),
            lambda r: {"stats.excursion.n": n_exc - 1}),
        Job(f"verify_coefficient_conjecture({k_coeff})", "coeff_verify_s", "coeffstop.verify",
            lambda: coeffstop.verify_coefficient_conjecture(k_coeff),
            lambda r: _first(None if r.verified and not r.counterexamples
                             else f"counterexamples {r.counterexamples[:5]}",
                             _mismatch("search_bound", r.search_bound, coeff_bound)),
            lambda r: {"coeffstop.search_bound": r.search_bound, "coeffstop.swept": r.swept}),
        Job(f"cycle_length_lower_bound({D}, period_cutoff={cutoff})", "cycle_bound_s",
            "cycles.full_scan",
            lambda: cycles.cycle_length_lower_bound(D, period_cutoff=cutoff),
            lambda r: _cycle_bound(r, min_pair, n_periods), _cycle_counts),
    ]


def _bounds(lab, rng, size) -> list[Job]:
    stats, cycles = lab.stats, lab.cycles
    k_density = size["density_k"]
    n_vr, k = size["vr_bounds"]
    n_vr += rng.randrange(1 << 16)

    def density_check(r) -> Optional[str]:
        want = Fraction((1 << k_density) - sieve_survivors(k_density), 1 << k_density)
        return _mismatch(f"stopping_density({k_density})", r, want)

    jobs = [
        Job(f"stopping_density({k_density})", "stopping_density_s", "stats.stopping_density",
            lambda: stats.stopping_density(k_density), density_check),
        Job(f"verify_range({n_vr}, sieve_k={k})", "verify_range_s", "stats.verify_range",
            lambda: stats.verify_range(n_vr, sieve_k=k), _verified,
            lambda r: {"stats.verify.candidates": r.candidates_iterated,
                       "stats.verify.range": n_vr - 1}),
    ]
    for D, cutoff, min_pair in size["cycle_first"]:
        jobs.append(Job(
            f"cycle_length_lower_bound({D}, period_cutoff={cutoff}, first_only=True)",
            "cycle_bound_s", f"cycles.first_only.{_d_name(D)}",
            lambda D=D, cutoff=cutoff: cycles.cycle_length_lower_bound(
                D, period_cutoff=cutoff, first_only=True),
            lambda r, min_pair=min_pair: _cycle_bound(r, min_pair, None), _cycle_counts))
    return jobs


def _d_name(D: int) -> str:
    """Span-name form of a verification bound: 2 -> d2, 2**40 -> d2p40."""
    if D > 2 and D & (D - 1) == 0:
        return f"d2p{D.bit_length() - 1}"
    return f"d{D}"


def _scalar(lab, rng, size) -> list[Job]:
    fractran, maps, twoadic, trees = lab.fractran, lab.maps, lab.twoadic, lab.trees
    prog = fractran.FractranProgram(fractran.PRIMEGAME)
    n_primes = size["primes"]
    x = size["cycles_range"]
    tmap = maps.t_map()
    small = list(range(2, size["traj_small"] + 2))
    big = []
    for _ in range(size["traj_big"]):
        bits = rng.randint(40, 200)
        big.append(rng.getrandbits(bits) | (1 << (bits - 1)) | 1)
    guard = [_GUARD + rng.randint(-(1 << 20), 1 << 20) for _ in range(size["traj_guard"])]
    n_perm, order, fixed = size["perm"]
    reach = size["reach"]

    def trajectories(starts):
        return lambda: [maps.trajectory(tmap, n, target_set={1}, record_iterates=False)
                        for n in starts]

    def traj_job(what, starts):
        return Job(f"trajectory(t_map(), n, target_set={{1}}) for {len(starts)} {what}",
                   "trajectory_s", "maps.trajectory", trajectories(starts),
                   _trajectories(maps.ReachedTarget, starts),
                   lambda r: {"maps.trajectory.steps": sum(t.steps for t in r)})

    return [
        Job(f"fractran_run(PRIMEGAME, 2, max_outputs={n_primes}, max_steps=10**7)",
            "primegame_s", "fractran.run",
            lambda: fractran.fractran_run(prog, 2, max_outputs=n_primes, max_steps=10**7),
            lambda r: _first(
                _mismatch("outputs", r.outputs, [1 << p for p in first_primes(n_primes)]),
                "budget exhausted" if r.budget_exhausted else None),
            lambda r: {"fractran.steps": r.steps}),
        Job(f"find_cycles(t_map(), ({-x}, {x}))", "find_cycles_s", "maps.find_cycles",
            lambda: maps.find_cycles(tmap, (-x, x)), _t_cycles,
            lambda r: {"maps.find_cycles.starts": 2 * x + 1,
                       "maps.find_cycles.unresolved": len(r.unresolved)}),
        traj_job(f"starts 2..{small[-1]}", small),
        traj_job("odd starts of 40-200 bits", big),
        traj_job("starts near the int64 guard", guard),
        Job(f"perm_analysis({n_perm})", "twoadic_s", "twoadic.perm_analysis",
            lambda: twoadic.perm_analysis(n_perm),
            lambda r: _first(_mismatch("order", r.order, order),
                             _mismatch("fixed points", r.fixed_point_count, fixed)),
            lambda r: {"twoadic.residues": 1 << n_perm}),
        Job(f"inverse_consistency({n_perm})", "twoadic_s", "twoadic.inverse_consistency",
            lambda: twoadic.inverse_consistency(n_perm),
            lambda r: _mismatch("inverse_consistency", r, True),
            lambda r: {"twoadic.residues": 1 << n_perm}),
        Job(f"reach_count(1, {reach})", "reach_count_s", "trees.reach_count",
            lambda: trees.reach_count(1, reach),
            # every positive n <= reach reaches 1; no negative n or 0 does
            lambda r: _mismatch(f"reach_count(1, {reach})", r, reach)),
    ]


_BUILDERS = {"sweep": _sweep, "bounds": _bounds, "scalar": _scalar}
