"""Trajectory statistics, verification sweeps, densities, and records.

Counting conventions: stopping time and total stopping time are measured in
T-steps ((3x+1)/2 merged form); height is measured in C-steps (3x+1 split
form); gamma = total stopping time / ln n; the excursion t(n) is the
largest iterate T^k(n) over k >= 1.

The sweeps read their ranges through `kernel.descend_range`, the one
range reader, which computes each candidate and its start from the
candidate's index and steps them chunk by chunk on int64 numpy arrays,
with any orbit that crosses the int64 guard run in exact Python ints, so
every reported number is the result of exact arithmetic.  Every range
sweep is one loop over it: the spans of verify_range, naive and sieved,
the blocks of excursion_records, full and pruned, and
below_power_density.  A sieved range reads only the members of the
classes the sieve keeps, and no sweep builds a span-long array of starts.
The per-integer records (stats_record, and height_and_total_stop,
equal_height_tuples and sweep_csv_rows through it) read one `maps._walk`
path each, under the walker's step and magnitude limits.

excursion_records keeps no table of t.  An n >= 3 is an excursion
champion exactly when its path record p(n), the largest iterate before n
first drops below itself, exceeds every t(m) with m < n (Oliveira e Silva
1999), and the least n with t(n) > 8 n^2, if any, has p(n) > 8 n^2.  On a
block lo..hi with (3/2)^16 (hi + 1) at most that running record and at
most 8 lo^2, no member of a class the sieve mod 2^16 eliminates can beat
either, so only the survivors are stepped.  The proofs are in its
docstring.

At n = 1 the two readers count differently: height_and_total_stop counts
the steps to first reach 1, so it gives (0, 0), while stats_record(1) walks
the {1, 2} cycle back to 1 (sigma_inf 2, height 3).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernel
from .maps import DEFAULT_MAGNITUDE_LIMIT, DEFAULT_STEP_LIMIT, _walk, t_map

SIEVE_K_MAX = 26
_EXCURSION_K = 16  # the sieve exponent of excursion_records

#: footer note for verification reports: how far the conjecture has been
#: machine-checked in the published record (desk sweeps substitute for it)
LITERATURE_CONTEXT = (
    "published distributed computations have checked the conjecture beyond "
    "2e16; this sweep is a desk-scale reproduction, not a record attempt"
)


# ---------------------------------------------------------------------------
# per-integer statistics


@dataclass
class StatsRecord:
    n: int
    stopping_time: Optional[int]          # sigma, T-steps; None if unresolved
    total_stopping_time: Optional[int]    # sigma_inf, T-steps; None if unresolved
    odd_count: Optional[int]              # odd iterates before reaching 1
    height: Optional[int]                 # C-steps to 1
    gamma: Optional[float]                # total_stopping_time / ln n
    excursion: Optional[int]              # max T^k(n), k >= 1
    parity_prefix: str
    resolved: bool
    step_limit: int
    magnitude_limit_bits: int

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/stats-record-v1",
            "n": str(self.n),
            "sigma": self.stopping_time,
            "sigma_inf": self.total_stopping_time,
            "odd_count": self.odd_count,
            "height": self.height,
            "gamma": None if self.gamma is None else round(self.gamma, 6),
            "excursion": None if self.excursion is None else str(self.excursion),
            "parity_prefix": self.parity_prefix,
            "resolved": self.resolved,
        }


def stats_record(
    n: int,
    step_limit: int = DEFAULT_STEP_LIMIT,
    magnitude_limit: int = DEFAULT_MAGNITUDE_LIMIT,
    parity_bits: int = 64,
) -> StatsRecord:
    """Exact T-form statistics for one starting value, read from one
    maps._walk path under the walker's limit policy.

    The walk from n > 1 stops at 1; the walk from 1 goes around the {1, 2}
    cycle back to 1.  The record is resolved when the walk ends at 1, which
    it may do at exactly step_limit steps; then sigma_inf is the number of
    steps.  sigma is the first j with T^j(n) < n, and the excursion is the
    largest T^j(n), j >= 1, at least 2.  As in trajectory, only the
    iterates after n are tested against magnitude_limit, so a start above
    it is still walked.
    """
    if n < 1 or step_limit < 1:
        raise ValueError("n and step_limit must be >= 1")
    path, _, v = _walk(t_map(), n, (1,) if n > 1 else (), step_limit, magnitude_limit)
    later = path[1:] + [v]  # T^j(n) for j = 1..len(path)
    sigma = next((j for j, x in enumerate(later, 1) if x < n), None)
    resolved = v == 1
    odd_count = sum(x & 1 for x in path)
    return StatsRecord(
        n=n,
        stopping_time=sigma,
        total_stopping_time=len(path) if resolved else None,
        odd_count=odd_count if resolved else None,
        height=len(path) + odd_count if resolved else None,
        gamma=len(path) / math.log(n) if resolved and n > 1 else None,
        excursion=max(max(later), 2) if resolved else None,
        parity_prefix="".join("1" if x & 1 else "0" for x in path[:parity_bits]),
        resolved=resolved,
        step_limit=step_limit,
        magnitude_limit_bits=magnitude_limit.bit_length(),
    )


def height_and_total_stop(n: int) -> tuple[int, int]:
    """(height in C-steps, total stopping time in T-steps), read from
    stats_record(n) under the default limits; both are 0 at n = 1, where
    every orbit ends.  RuntimeError names an n whose walk is unresolved."""
    if n == 1:
        return 0, 0
    r = stats_record(n)
    if not r.resolved:
        raise RuntimeError(f"n={n} did not reach 1 within the default limits")
    return r.height, r.total_stopping_time


# ---------------------------------------------------------------------------
# stopping-time sieve over residue classes


@dataclass
class ClassSieve:
    k: int
    survivors: np.ndarray          # residues mod 2^k with no coefficient drop, ascending
    survivor_counts: list[int]     # survivors mod 2^k after each step 1..k
    max_threshold: int             # largest exceptional bound of a dropped class
    images: np.ndarray             # T^k(r) of each survivor r
    pow3: np.ndarray               # 3^a(r), a(r) the odd steps among the first k of r

    def survivor_fraction(self, j: int) -> Fraction:
        return Fraction(self.survivor_counts[j - 1], 1 << self.k)


def class_sieve(k: int) -> ClassSieve:
    """Coefficient-drop analysis of all residue classes mod 2^k.

    A class r is eliminated at the first step j where the accumulated
    coefficient 3^a / 2^j falls below 1; members n > B/(2^j - 3^a) of an
    eliminated class are then guaranteed to drop below themselves, and the
    finitely many smaller members are the exceptional set a verifier must
    sweep directly.

    The sieve is `kernel.lift` with only the survivors lifted further, so
    each level takes one T-step per lift of a survivor instead of one per
    residue.  The offset is read on the dropped rows alone, from
    T^j(r) = (3^a r + B) / 2^j as B = 2^j T^j(r) - 3^a r.  int64 cannot
    overflow there: a dropped row has 3^a < 2^j <= 2^26 and
    0 <= B < 3^a 2^(j-a), so 2^j T^j(r) = 3^a r + B < 2 * 3^a 2^j < 2^53.

    The sieve keeps the state each survivor r has at level k: its image
    T^k(r) < 3^k and pow3 = 3^a(r) <= 3^k, both below 2^42.  Every member
    n = 2^k q + r then has T^k(n) = 3^a(r) q + T^k(r), which `verify_range`
    uses to start n at step k.
    """
    if not 1 <= k <= SIEVE_K_MAX:
        raise ValueError(f"sieve exponent must be in 1..{SIEVE_K_MAX}")
    counts, thresholds = [], [0]

    def keep(j, r, v, p):
        gap = (1 << j) - p
        dropped = gap > 0
        B = (v[dropped] << j) - p[dropped] * r[dropped]
        thresholds.append(int((B // gap[dropped]).max(initial=0)))
        counts.append((len(r) - int(dropped.sum())) << (k - j))
        return ~dropped

    survivors, images, pow3, _ = kernel.lift(k, keep)
    return ClassSieve(k, survivors, counts, max(thresholds), images, pow3)


# ---------------------------------------------------------------------------
# verification sweeps


@dataclass
class VerificationReport:
    n_max: int
    mode: str
    verified: bool
    failures: list[int]
    naive_cutoff: int
    survivor_fractions: dict[int, str] = field(default_factory=dict)
    candidates_iterated: int = 0
    context: str = LITERATURE_CONTEXT

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/verify-v1",
            "verified": self.verified,
            "max_n": self.n_max,
            "mode": self.mode,
            "failures": [str(f) for f in self.failures],
            "naive_cutoff": self.naive_cutoff,
            "survivor_fractions": self.survivor_fractions,
            "candidates_iterated": self.candidates_iterated,
            "context": self.context,
        }


def _verify_chunk(args) -> tuple[int, list[int]]:
    """The count of the candidates in lo..hi (every n without a sieve,
    else the n whose residue mod 2^k survives it), and those with no
    iterate below n within step_limit steps, read from
    `kernel.descend_range`."""
    lo, hi, sieve, step_limit = args
    count, failures = 0, []
    for size, n_at, d in kernel.descend_range(lo, hi, step_limit, sieve=sieve):
        count += size
        failures += n_at(d.unresolved).tolist()
    return count, failures


def verify_range(
    n_max: int,
    mode: str = "sieve",
    sieve_k: int = 16,
    step_limit: int = DEFAULT_STEP_LIMIT,
    threads: int = 1,
) -> VerificationReport:
    """Confirm that every 2 <= n <= n_max has some iterate below itself
    (hence, by induction, reaches 1); an n that is stepped and still
    running after step_limit steps is a failure.

    In sieve mode, residues mod 2^sieve_k with a guaranteed early drop are
    skipped: every member above the sieve's max_threshold of an eliminated
    class drops below itself, so only 2..naive_cutoff, with naive_cutoff =
    min(max_threshold, n_max), is swept naively, and above it only members
    of surviving classes are iterated.  The sieve loses no soundness.  The
    members of eliminated classes above the cutoff are certified by the
    sieve, not by the step limit, so with step_limit < sieve_k they are no
    failures: verify_range(10**6, sieve_k=16, step_limit=10) lists 32,256
    failures, where naive mode lists 62,500.  The naive part and each
    sieved span of max(2^22, 2^sieve_k) numbers is one loop over
    `kernel.descend_range`, and threads > 1 runs every span, the naive one
    included, in parallel processes.

    A member n of a surviving class r mod 2^sieve_k has no iterate below n
    in its first k = sieve_k steps: T^j(n) = (3^a_j n + B_j) / 2^j with
    B_j >= 0, and the class survived because 3^a_j > 2^j for every j <= k.
    So n fails exactly when T^k(n) = 3^a(r) q + T^k(r), n = 2^k q + r,
    has no iterate below n within step_limit - k steps, and every such n
    fails when step_limit < k.  The sweep starts there, from the image and
    3^a(r) the sieve keeps.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if mode not in ("naive", "sieve"):
        raise ValueError("mode must be 'naive' or 'sieve'")

    sieve = None if mode == "naive" else class_sieve(sieve_k)
    fractions = {} if sieve is None else {j: str(sieve.survivor_fraction(j))
                                          for j in range(1, sieve_k + 1)}
    cutoff = n_max if sieve is None else min(sieve.max_threshold, n_max)
    span = 1 << max(22, sieve_k)
    spans = [(2, cutoff, None, step_limit)] + [
        (lo, min(lo + span - 1, n_max), sieve, step_limit)
        for lo in range(max(cutoff, 1) + 1, n_max + 1, span)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_verify_chunk, spans))
    else:
        chunks = [_verify_chunk(args) for args in spans]
    iterated, failures = 0, []  # failures ascend: the spans run in range order
    for cnt, res in chunks:
        iterated += cnt
        failures += res
    return VerificationReport(
        n_max=n_max,
        mode=mode if mode == "naive" else f"sieve({sieve_k})",
        verified=not failures,
        failures=failures,
        naive_cutoff=cutoff,
        survivor_fractions=fractions,
        candidates_iterated=iterated,
    )


# ---------------------------------------------------------------------------
# densities


def stopping_density(k: int) -> Fraction:
    """Exact fraction of residues mod 2^k whose stopping time is <= k."""
    if not 1 <= k <= SIEVE_K_MAX:
        raise ValueError(f"k must be in 1..{SIEVE_K_MAX}")
    sieve = class_sieve(k)
    dropped = (1 << k) - len(sieve.survivors)
    return Fraction(dropped, 1 << k)


def below_power_density(
    beta: Fraction | float,
    n_max: int,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> Fraction:
    """Fraction of 2 <= n <= n_max with some iterate T^k(n) < n^beta,
    1 <= k <= step_limit.

    beta is an exact rational p/q in (0,1).  For an integer v, v < n^beta
    holds exactly when v < ceil(n^beta), so the sweep is a descent below the
    exact integer thresholds of `_power_ceiling`.
    """
    beta = Fraction(beta).limit_denominator(10**9) if not isinstance(beta, Fraction) else beta
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    if n_max < 10**3:
        raise ValueError("n_max must be >= 1000")
    ranged = kernel.descend_range(2, n_max, step_limit, lambda n: _power_ceiling(n, beta))
    unresolved = sum(len(d.unresolved) for _, _, d in ranged)
    return Fraction(n_max - 1 - unresolved, n_max - 1)


def _power_ceiling(n: np.ndarray, beta: Fraction) -> np.ndarray:
    """ceil(n^beta) for int64 n >= 2, i.e. the least t with t^q >= n^p for
    beta = p/q in (0, 1), exactly.

    Error bound: let u = 2^-53 and assume numpy's log and exp are within
    64 ulp (they are within a few).  The estimate e = exp(b * log(m)), with
    m = float(n) = n(1 + e0) and b = float(beta) = beta(1 + e1), has log(m)
    = ln(m)(1 + e2) and a rounded product, factor (1 + e3), where |e0|,
    |e1|, |e3| <= u and |e2| <= 128u.  As beta < 1 and ln n < 44, the
    exponent is off from ln y, y = n^beta, by under 44 * 131u + 2u < 5800u,
    and exp adds a relative 128u, so |e/y - 1| < 5930u < 6.6e-13 < 2^-40.
    So y lies in [e(1 - 2^-40), e(1 + 2^-40)], even with both ends rounded,
    and when the ends have one ceiling it is ceil(y).  The few other n
    (exact powers among them) get t by a binary search between the two
    ceilings on the exact test t^q >= n^p.
    """
    p, q = beta.numerator, beta.denominator
    rel = 2.0**-40  # the proven relative error bound of est
    est = np.exp(float(beta) * np.log(n.astype(np.float64)))
    lo = np.ceil(est * (1 - rel)).astype(np.int64)
    t = np.ceil(est * (1 + rel)).astype(np.int64)
    for pos in np.nonzero(lo != t)[0]:
        target = int(n[pos]) ** p
        a, b = int(lo[pos]), int(t[pos])
        while a < b:
            mid = (a + b) // 2
            if mid**q >= target:
                b = mid
            else:
                a = mid + 1
        t[pos] = a
    return t


# ---------------------------------------------------------------------------
# equal-height runs


@dataclass
class HeightRun:
    start: int
    length: int
    height: int
    total_stopping_time: int

    def to_dict(self) -> dict:
        return {
            "start": str(self.start),
            "length": self.length,
            "height": self.height,
            "sigma_inf": self.total_stopping_time,
        }


def equal_height_tuples(
    search_range: tuple[int, int],
    min_len: int = 2,
) -> list[HeightRun]:
    """Maximal runs of consecutive integers with identical height and
    identical total stopping time; runs shorter than min_len are dropped.

    Maximality is decided against the neighbours just outside the range.
    """
    lo, hi = search_range
    if lo < 1 or lo > hi:
        raise ValueError("need 1 <= lo <= hi")
    ext_lo = max(1, lo - 1)
    pairs = {n: height_and_total_stop(n) for n in range(ext_lo, hi + 2)}
    runs: list[HeightRun] = []
    n = lo
    while n <= hi:
        cur = pairs[n]
        m = n
        while m + 1 <= hi and pairs[m + 1] == cur:
            m += 1
        length = m - n + 1
        left_open = n - 1 >= 1 and pairs.get(n - 1) == cur
        right_open = pairs.get(m + 1) == cur
        if length >= min_len and not left_open and not right_open:
            runs.append(HeightRun(n, length, cur[0], cur[1]))
        n = m + 1
    return runs


# ---------------------------------------------------------------------------
# excursion records


@dataclass
class ExcursionReport:
    n_max: int
    champions: list[tuple[int, int]]          # strictly increasing t(n) records
    # (n, p(n)) for the n with p(n) > 8 n^2, p(n) the largest iterate before
    # n first drops below itself; each has t(n) > 8 n^2.  Empty exactly when
    # t(n) <= 8 n^2 on the whole range; otherwise the first entry is the
    # least n where the bound fails, and there p(n) = t(n)
    bound_violations: list[tuple[int, int]]

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/excursions-v1",
            "max_n": self.n_max,
            "champions": [[n, str(t)] for n, t in self.champions],
            "bound_violations": [[n, str(t)] for n, t in self.bound_violations],
        }


def excursion_records(n_max: int) -> ExcursionReport:
    """Champions of the maximum excursion t(n) for 2 <= n <= n_max, and a
    check of the empirical bound t(n) <= 8 n^2 over the range, with no
    table of t.

    Path records (Oliveira e Silva 1999).  For n >= 3 let s be the first
    step with T^s(n) < n, and p(n) the largest T^i(n), 1 <= i <= s.  After
    step s the orbit of n is that of its drop d = T^s(n), so t(n) =
    max(p(n), t(d)), where t(1) = t(2) = 2 and t(d) <= best, the largest
    t(m) over m < n.  So n is a champion, t(n) > best, exactly when p(n) >
    best, and then t(n) = p(n).  Likewise, if t(n) > 8 n^2 but p(n) <=
    8 n^2, then t(d) = t(n) > 8 d^2; so the least n with t(n) > 8 n^2 has
    p(n) > 8 n^2, and there t(n) = p(n).  bound_violations lists the n with
    p(n) > 8 n^2, each a violation, so it is empty exactly when the bound
    holds on the range.

    Pruning.  T(x) + 1 <= 3(x + 1)/2, so T^i(n) < (3/2)^i (n + 1).  Above
    the max_threshold of the sieve mod 2^k, a member n of a class
    eliminated at step j <= k drops by step j, so p(n) < (3/2)^k (n + 1);
    and the first k iterates of a member of a surviving class are below
    the same bound.  On a block lo..hi with 3^k (hi + 1) <= 2^k min(best,
    8 lo^2), neither can make n a champion or a violation.  So there only
    the survivors are stepped.  Each block is one loop over
    `kernel.descend_range`, the one range reader, with two sieves: the
    sieve mod 2^16 on a pruned block, and none on a block stepped in full
    (2^14 numbers, the first block among them).  A survivor started at
    step k has its peak after step k stand for p(n); in a block where some
    T^k(n) could pass the kernel's GUARD every candidate starts at n
    itself, and its peak is p(n).  Only the block's n is built, for the
    checks.

    A bound violation is reported as data, not raised; an n that does not
    drop below itself within DEFAULT_STEP_LIMIT steps raises RuntimeError
    naming it.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > 2 * 10**8:  # keeps 8 n^2 below 2^63
        raise ValueError("excursion sweep capped at 2e8")
    sieve = class_sieve(_EXCURSION_K)
    k = sieve.k
    champs, violations = [(2, 2)], []
    best = 2
    lo = 3
    while lo <= n_max:
        # a pruned block is the largest, up to 2^20 numbers, with 3^k (hi + 1)
        # <= 2^k min(best, 8 lo^2); a block stepped in full holds 2^14
        hi = min(n_max, lo + (1 << 20) - 1, (min(best, 8 * lo * lo) << k) // 3**k - 1)
        pruned = lo > sieve.max_threshold and hi >= lo
        if not pruned:
            hi = min(n_max, lo + (1 << 14) - 1)
        for size, n_at, d in kernel.descend_range(lo, hi, DEFAULT_STEP_LIMIT,
                                                  sieve=sieve if pruned else None, peak=True):
            n = n_at(np.arange(size))
            if len(d.unresolved):
                raise RuntimeError(f"excursion sweep: n={n[d.unresolved[0]]} did not drop "
                                   f"below itself within {DEFAULT_STEP_LIMIT} steps")
            p = d.peak
            over = np.flatnonzero(p > 8 * n * n)
            violations += [(int(n[i]), int(p[i])) for i in over]
            for i in np.flatnonzero(p == np.maximum.accumulate(p)):
                if p[i] > best:
                    best = int(p[i])
                    champs.append((int(n[i]), best))
        lo = hi + 1
    return ExcursionReport(n_max, champs, violations)


def sweep_csv_rows(lo: int, hi: int, step_limit: int = DEFAULT_STEP_LIMIT):
    """Yield (n, sigma, sigma_inf, height, gamma, excursion) rows."""
    for n in range(lo, hi + 1):
        r = stats_record(n, step_limit=step_limit)
        yield (
            r.n,
            r.stopping_time,
            r.total_stopping_time,
            r.height,
            None if r.gamma is None else round(r.gamma, 6),
            r.excursion,
        )
