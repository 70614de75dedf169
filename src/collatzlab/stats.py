"""Trajectory statistics, verification sweeps, densities, and records.

Counting conventions: stopping time and total stopping time are measured in
T-steps ((3x+1)/2 merged form); height is measured in C-steps (3x+1 split
form); gamma = total stopping time / ln n; the excursion t(n) is the
largest iterate T^k(n) over k >= 1.

Sweeps run on int64 numpy arrays with an exact big-integer fallback for any
element that approaches the overflow guard, so every reported number is the
result of exact arithmetic.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

DEFAULT_STEP_LIMIT = 10**5
DEFAULT_MAGNITUDE_LIMIT = 1 << 1024
SIEVE_K_MAX = 26
_OVERFLOW_GUARD = (1 << 62) // 3

#: footer note for verification reports: how far the conjecture has been
#: machine-checked in the published record (desk sweeps substitute for it)
LITERATURE_CONTEXT = (
    "published distributed computations have checked the conjecture beyond "
    "2e16; this sweep is a desk-scale reproduction, not a record attempt"
)


def t_step_int(x: int) -> int:
    return (3 * x + 1) // 2 if x & 1 else x // 2


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
    """Exact T-form statistics for one starting value."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = n
    sigma = None
    sigma_inf = None
    odd_count = 0
    peak = None
    parity = []
    steps = 0
    while steps < step_limit and abs(x) <= magnitude_limit:
        if x == 1 and steps > 0:
            sigma_inf = steps
            break
        if len(parity) < parity_bits:
            parity.append("1" if x & 1 else "0")
        odd_count += x & 1
        x = t_step_int(x)
        steps += 1
        peak = x if peak is None else max(peak, x)
        if sigma is None and x < n:
            sigma = steps
    resolved = sigma_inf is not None
    if resolved:
        # the tail orbit is the {1, 2} cycle, so the excursion includes 2
        peak = max(peak, 2)
    height = sigma_inf + odd_count if resolved else None
    gamma = None
    if resolved and n > 1:
        gamma = sigma_inf / math.log(n)
    return StatsRecord(
        n=n,
        stopping_time=sigma,
        total_stopping_time=sigma_inf,
        odd_count=odd_count if resolved else None,
        height=height,
        gamma=gamma,
        excursion=peak if resolved else None,
        parity_prefix="".join(parity),
        resolved=resolved,
        step_limit=step_limit,
        magnitude_limit_bits=magnitude_limit.bit_length(),
    )


def height_and_total_stop(n: int) -> tuple[int, int]:
    """(height in C-steps, total stopping time in T-steps); exact, no limits."""
    h = s = 0
    x = n
    while x != 1:
        if x & 1:
            x = (3 * x + 1) // 2
            h += 2
        else:
            x //= 2
            h += 1
        s += 1
    return h, s


# ---------------------------------------------------------------------------
# stopping-time sieve over residue classes


@dataclass
class ClassSieve:
    k: int
    survivors: np.ndarray          # residues mod 2^k with no coefficient drop
    survivor_counts: list[int]     # survivors mod 2^k after each step 1..k
    max_threshold: int             # largest exceptional bound of a dropped class

    def survivor_fraction(self, j: int) -> Fraction:
        return Fraction(self.survivor_counts[j - 1], 1 << self.k)


def class_sieve(k: int) -> ClassSieve:
    """Coefficient-drop analysis of all residue classes mod 2^k.

    A class r is eliminated at the first step j where the accumulated
    coefficient 3^a / 2^j falls below 1; members n > B/(2^j - 3^a) of an
    eliminated class are then guaranteed to drop below themselves, and the
    finitely many smaller members are the exceptional set a verifier must
    sweep directly.

    The sieve is built by lifting (Terras 1976; Everett 1977): the first j
    parities of n depend only on n mod 2^j, and a survivor r mod 2^(j-1)
    with a odd steps so far lifts to the classes r and r + 2^(j-1) mod 2^j
    with T^(j-1)(r + 2^(j-1)) = T^(j-1)(r) + 3^a.  Each level therefore
    takes one T-step per lift of a survivor instead of one per residue.
    int64 cannot overflow for k <= 26: T^j(r) < 3^j <= 3^26 < 2^42, and
    the offset B < 3^j < 2^42, so 3v + 1 and 3B + 2^j stay below 2^45.
    """
    if not 1 <= k <= SIEVE_K_MAX:
        raise ValueError(f"sieve exponent must be in 1..{SIEVE_K_MAX}")
    pow3 = 3 ** np.arange(k + 1, dtype=np.int64)
    # the single class mod 2^0: residue, T^j(r), odd count a, offset B
    r = np.zeros(1, dtype=np.int64)
    v = np.zeros(1, dtype=np.int64)
    a = np.zeros(1, dtype=np.int64)
    B = np.zeros(1, dtype=np.int64)
    counts = []
    max_threshold = 0
    for j in range(1, k + 1):
        half = 1 << (j - 1)
        r = np.concatenate((r, r + half))
        v = np.concatenate((v, v + pow3[a]))
        a = np.concatenate((a, a))
        B = np.concatenate((B, B))
        odd = (v & 1).astype(bool)
        B[odd] = 3 * B[odd] + half
        a += odd
        v = np.where(odd, 3 * v + 1, v) >> 1
        gap = (1 << j) - pow3[a]
        dropped = gap > 0
        if dropped.any():
            max_threshold = max(max_threshold, int((B[dropped] // gap[dropped]).max()))
            alive = ~dropped
            r, v, a, B = r[alive], v[alive], a[alive], B[alive]
        counts.append(len(r) << (k - j))
    return ClassSieve(k, r, counts, max_threshold)


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


def _drop_below_start(n: np.ndarray, step_limit: int) -> list[int]:
    """Iterate each n until some iterate is < n; return the failures.

    Elements nearing int64 range continue in exact big-integer arithmetic.
    """
    failures: list[int] = []
    v = n.copy()
    idx = np.arange(len(n))
    steps = 0
    while len(idx):
        odd = (v & 1).astype(bool)
        v = np.where(odd, 3 * v + 1, v) >> 1
        steps += 1
        keep = v >= n[idx]
        if steps >= step_limit:
            failures.extend(int(x) for x in n[idx[keep]])
            break
        big = v > _OVERFLOW_GUARD
        if big.any():
            for start, cur in zip(n[idx[big]].tolist(), v[big].tolist()):
                if not _drop_below_start_exact(start, cur, step_limit - steps):
                    failures.append(start)
            keep &= ~big
        idx = idx[keep]
        v = v[keep]
    return failures


def _drop_below_start_exact(start: int, cur: int, budget: int) -> bool:
    x = cur
    for _ in range(budget):
        if x < start:
            return True
        x = t_step_int(x)
    return False


def _verify_chunk(args) -> tuple[int, list[int]]:
    lo, hi, offs_list, k, step_limit = args
    offs = np.asarray(offs_list, dtype=np.int64)
    base = np.arange(lo >> k, (hi >> k) + 1, dtype=np.int64) << k
    n = (base[:, None] + offs[None, :]).ravel()
    n = n[(n >= lo) & (n <= hi)]
    if len(n) == 0:
        return 0, []
    return len(n), _drop_below_start(n, step_limit)


def verify_range(
    n_max: int,
    mode: str = "sieve",
    sieve_k: int = 16,
    step_limit: int = DEFAULT_STEP_LIMIT,
    threads: int = 1,
) -> VerificationReport:
    """Confirm that every 2 <= n <= n_max has some iterate below itself
    (hence, by induction, reaches 1).

    In sieve mode, residues mod 2^sieve_k with a guaranteed early drop are
    skipped; the exceptional small members of eliminated classes are swept
    naively below an exact cutoff, so the sieve loses no soundness.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if mode not in ("naive", "sieve"):
        raise ValueError("mode must be 'naive' or 'sieve'")

    failures: list[int] = []
    fractions: dict[int, str] = {}
    iterated = 0
    if mode == "naive":
        cutoff = n_max
        for lo in range(2, n_max + 1, 1 << 22):
            hi = min(lo + (1 << 22) - 1, n_max)
            block = np.arange(lo, hi + 1, dtype=np.int64)
            failures.extend(_drop_below_start(block, step_limit))
            iterated += len(block)
    else:
        sieve = class_sieve(sieve_k)
        for j in range(1, sieve_k + 1):
            fractions[j] = str(sieve.survivor_fraction(j))
        cutoff = max(sieve.max_threshold, 1 << sieve_k)
        cutoff = min(cutoff, n_max)
        naive_part = np.arange(2, cutoff + 1, dtype=np.int64)
        failures.extend(_drop_below_start(naive_part, step_limit))
        iterated += len(naive_part)
        if cutoff < n_max:
            offs = sieve.survivors.tolist()
            spans = []
            span = max(1 << 22, 1 << sieve_k)
            lo = cutoff + 1
            while lo <= n_max:
                hi = min(lo + span - 1, n_max)
                spans.append((lo, hi, offs, sieve_k, step_limit))
                lo = hi + 1
            if threads > 1:
                with ProcessPoolExecutor(max_workers=threads) as pool:
                    for cnt, res in pool.map(_verify_chunk, spans):
                        iterated += cnt
                        failures.extend(res)
            else:
                for args in spans:
                    cnt, res = _verify_chunk(args)
                    iterated += cnt
                    failures.extend(res)
    failures = sorted(set(failures))
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
    """Fraction of 2 <= n <= n_max with some iterate T^k(n) < n^beta.

    beta is an exact rational in (0,1); boundary comparisons fall back to
    exact integer power tests, so float rounding cannot flip a verdict.
    """
    beta = Fraction(beta).limit_denominator(10**9) if not isinstance(beta, Fraction) else beta
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    if n_max < 10**3:
        raise ValueError("n_max must be >= 1000")
    p, q = beta.numerator, beta.denominator
    hits = 0
    for lo in range(2, n_max + 1, 1 << 21):
        hi = min(lo + (1 << 21) - 1, n_max)
        n = np.arange(lo, hi + 1, dtype=np.int64)
        thr = np.exp(float(beta) * np.log(n.astype(np.float64)))
        safe_lo = np.floor(thr * (1 - 1e-12)).astype(np.int64) - 1
        safe_hi = np.ceil(thr * (1 + 1e-12)).astype(np.int64) + 1
        v = n.copy()
        idx = np.arange(len(n))
        done = np.zeros(len(n), dtype=bool)
        for _ in range(step_limit):
            odd = (v & 1).astype(bool)
            v = np.where(odd, 3 * v + 1, v) >> 1
            succ = v < safe_lo[idx]
            maybe = ~succ & (v <= safe_hi[idx])
            if maybe.any():
                for pos in np.nonzero(maybe)[0]:
                    nn = int(n[idx[pos]])
                    if int(v[pos]) ** q < nn**p:
                        succ[pos] = True
            if succ.any():
                done[idx[succ]] = True
                keep = ~succ
                idx = idx[keep]
                v = v[keep]
            if len(idx) == 0:
                break
            if v.max() > _OVERFLOW_GUARD:
                for pos in range(len(idx)):
                    nn = int(n[idx[pos]])
                    if _below_power_exact(nn, int(v[pos]), p, q, step_limit):
                        done[idx[pos]] = True
                idx = idx[:0]
                v = v[:0]
                break
        hits += int(done.sum())
    return Fraction(hits, n_max - 1)


def _below_power_exact(n: int, cur: int, p: int, q: int, budget: int) -> bool:
    x = cur
    target = n**p
    for _ in range(budget):
        if x**q < target:
            return True
        x = t_step_int(x)
    return False


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
    bound_violations: list[tuple[int, int]]   # (n, t(n)) with t(n) > 8 n^2

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/excursions-v1",
            "max_n": self.n_max,
            "champions": [[n, str(t)] for n, t in self.champions],
            "bound_violations": [[n, str(t)] for n, t in self.bound_violations],
        }


def excursion_records(n_max: int) -> ExcursionReport:
    """Champions of the maximum excursion t(n) for 2 <= n <= n_max, and a
    check of the empirical bound t(n) <= 8 n^2 over the range.

    Works by dynamic programming over a full table: each n iterates only
    until it drops below itself, then reuses the already-computed record.
    A bound violation is reported as data, not raised.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > 2 * 10**8:
        raise ValueError("table-based excursion sweep capped at 2e8")
    t = np.zeros(n_max + 1, dtype=np.int64)
    t[1] = 2
    block = 1 << 20
    for base in range(2, n_max + 1, block):
        hi = min(base + block - 1, n_max)
        n = np.arange(base, hi + 1, dtype=np.int64)
        v = n.copy()
        pmax = np.zeros(len(n), dtype=np.int64)
        res_pmax = np.zeros(len(n), dtype=np.int64)
        res_drop = np.zeros(len(n), dtype=np.int64)
        idx = np.arange(len(n))
        while len(idx):
            odd = (v & 1).astype(bool)
            v = np.where(odd, 3 * v + 1, v) >> 1
            pmax = np.maximum(pmax, v)
            dropped = v < n[idx]
            if dropped.any():
                di = idx[dropped]
                res_pmax[di] = pmax[dropped]
                res_drop[di] = v[dropped]
                keep = ~dropped
                idx, v, pmax = idx[keep], v[keep], pmax[keep]
            if len(v) and v.max() > _OVERFLOW_GUARD:  # pragma: no cover
                raise OverflowError("excursion sweep exceeded int64 guard")
        t[base:hi + 1] = np.maximum(res_pmax, t[res_drop])
    nn = np.arange(2, n_max + 1, dtype=np.int64)
    viol_idx = np.nonzero(t[2:] > 8 * nn * nn)[0]
    violations = [(int(i + 2), int(t[i + 2])) for i in viol_idx]
    running = np.maximum.accumulate(t[2:])
    champs = []
    best = 0
    for i in np.nonzero(t[2:] == running)[0]:
        val = int(t[i + 2])
        if val > best:
            champs.append((int(i + 2), val))
            best = val
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
