"""Statistics, verification sweeps, densities, runs, and excursions."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collatzlab import kernel, stats
from collatzlab.kernel import t_step_int
from collatzlab.maps import ReachedTarget, t_map, trajectory
from collatzlab.stats import (
    below_power_density,
    class_sieve,
    equal_height_tuples,
    excursion_records,
    height_and_total_stop,
    stats_record,
    stopping_density,
    sweep_csv_rows,
    verify_range,
)

VYSSOTSKY = 37664971860959140595765286740059


def naive_sigma(n):
    x, k = n, 0
    while True:
        x = t_step_int(x)
        k += 1
        if x < n:
            return k


def naive_sigma_inf(n):
    x, k = n, 0
    while x != 1:
        x = t_step_int(x)
        k += 1
    return k


# ------------------------------------------------------------- stats_record

def test_record_27():
    r = stats_record(27)
    assert r.stopping_time == 59
    assert r.total_stopping_time == 70
    assert r.height == 111
    assert r.excursion == 4616
    assert abs(r.gamma - 70 / math.log(27)) < 1e-12
    assert round(r.gamma, 2) == 21.24


def test_record_2():
    r = stats_record(2)
    assert r.stopping_time == 1
    assert r.total_stopping_time == 1
    assert r.height == 1
    assert abs(r.gamma - 1 / math.log(2)) < 1e-12
    assert r.excursion == 2


def test_record_vyssotsky():
    r = stats_record(VYSSOTSKY, step_limit=10**4)
    assert r.total_stopping_time == 2565
    assert abs(r.gamma - 35.2789) < 1e-3


def test_record_consistency_small():
    for n in range(2, 400):
        r = stats_record(n)
        assert r.stopping_time == naive_sigma(n)
        assert r.total_stopping_time == naive_sigma_inf(n)
        assert r.height == r.total_stopping_time + r.odd_count
        assert r.excursion >= max(n and 2, 2)


def test_record_unresolved():
    r = stats_record(27, step_limit=10)
    assert not r.resolved
    assert r.total_stopping_time is None and r.height is None


def test_height_helper_matches_record():
    for n in (2, 12, 13, 27, 97):
        h, s = height_and_total_stop(n)
        r = stats_record(n)
        assert (h, s) == (r.height, r.total_stopping_time)


def stats_record_loop(n, step_limit=stats.DEFAULT_STEP_LIMIT,
                      magnitude_limit=stats.DEFAULT_MAGNITUDE_LIMIT, parity_bits=64):
    """The scalar T loop stats_record used before it read the walker: it
    stops before a step once step_limit steps are taken or the current
    iterate, the start included, passes magnitude_limit (the reference for
    the walker's records)."""
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
        peak = max(peak, 2)
    return stats.StatsRecord(
        n=n,
        stopping_time=sigma,
        total_stopping_time=sigma_inf,
        odd_count=odd_count if resolved else None,
        height=sigma_inf + odd_count if resolved else None,
        gamma=sigma_inf / math.log(n) if resolved and n > 1 else None,
        excursion=peak if resolved else None,
        parity_prefix="".join(parity),
        resolved=resolved,
        step_limit=step_limit,
        magnitude_limit_bits=magnitude_limit.bit_length(),
    )


STARTS = st.integers(1, 3000) | st.integers(40, 200).flatmap(
    lambda b: st.integers(1 << (b - 1), (1 << b) - 1))
STEP_LIMITS = st.sampled_from([1, 2, 5, 10, 59, 60, 70, 71, 100, 10**5]) | st.integers(1, 300)
MAGNITUDE_LIMITS = st.sampled_from([8, 1000, 2**64, 2**1024])


@settings(max_examples=400, deadline=None)
@given(STARTS, STEP_LIMITS, MAGNITUDE_LIMITS)
def test_record_matches_loop(n, step_limit, magnitude_limit):
    got = stats_record(n, step_limit, magnitude_limit)
    want = stats_record_loop(n, step_limit, magnitude_limit)
    if got == want:
        return
    if n > magnitude_limit:
        # (b) a start above the magnitude limit is walked as trajectory
        # walks it, where the loop gave up before its first step
        tr = trajectory(t_map(), n, target_set={1}, step_limit=step_limit,
                        magnitude_limit=magnitude_limit)
        assert got.resolved == isinstance(tr.termination, ReachedTarget)
        assert got.parity_prefix == tr.parity[:64]
        if got.resolved:
            assert got.total_stopping_time == tr.steps
        return
    # (a) the walk reaches 1 at exactly step_limit steps, one step past the
    # loop's last test for 1
    assert got.resolved and not want.resolved
    assert got.total_stopping_time == step_limit
    late = stats_record_loop(n, step_limit + 1, magnitude_limit)
    assert got == dataclasses.replace(late, step_limit=step_limit)


def test_record_reaches_one_at_the_step_limit():
    assert stats_record(27, step_limit=70).total_stopping_time == 70
    assert trajectory(t_map(), 27, target_set={1}, step_limit=70).steps == 70
    assert not stats_record(27, step_limit=69).resolved
    assert stats_record(2, step_limit=1).total_stopping_time == 1
    assert stats_record(1, step_limit=2).total_stopping_time == 2
    assert not stats_record(1, step_limit=1).resolved
    with pytest.raises(ValueError):
        stats_record(2, step_limit=0)  # the walker takes a step at any limit


def test_record_walks_a_start_above_the_magnitude_limit():
    r = stats_record(16, magnitude_limit=8)
    assert r.resolved and r.total_stopping_time == 4 and r.excursion == 8
    assert not stats_record(27, magnitude_limit=8).resolved


@pytest.mark.parametrize("n", [0, -5])
def test_height_helper_rejects_nonpositive_n(n):
    with pytest.raises(ValueError):
        height_and_total_stop(n)


def test_height_helper_raises_when_unresolved():
    # 2^1099 passes the default magnitude limit 2^1024 on the first step
    with pytest.raises(RuntimeError, match="did not reach 1"):
        height_and_total_stop(2**1100)
    assert height_and_total_stop(1) == (0, 0)


# ------------------------------------------------------------ verify_range

def test_verify_small_naive():
    rep = verify_range(10**4, mode="naive")
    assert rep.verified and not rep.failures


def test_verify_sieve_matches_naive():
    for k in (4, 8, 16):
        rep = verify_range(10**5, mode="sieve", sieve_k=k)
        assert rep.verified, rep.failures
    assert verify_range(10**5, mode="naive").verified


@pytest.mark.parametrize("k", [1, 2, 8, 16, 21])
def test_sieve_failures_match_naive_at_step_limits(k):
    # a sieved sweep, which starts survivors at step k, reports exactly the
    # naive failures it iterates: those up to the cutoff and the members of
    # surviving classes
    n_max = 10**5
    survivors = set(class_sieve(k).survivors.tolist())
    for limit in sorted({0, 5, k - 1, k, k + 1, 30, 59}):
        naive = verify_range(n_max, mode="naive", step_limit=limit).failures
        rep = verify_range(n_max, sieve_k=k, step_limit=limit)
        assert rep.failures == [n for n in naive
                                if n <= rep.naive_cutoff or n % (1 << k) in survivors]


def test_sieve_survivor_fraction_k2():
    rep = verify_range(10**3, mode="sieve", sieve_k=2)
    assert rep.survivor_fractions[2] == "1/4"


def test_verify_million():
    rep = verify_range(10**6, mode="sieve", sieve_k=16)
    assert rep.verified and not rep.failures
    assert "2e16" in rep.context


def test_parallel_equals_sequential():
    a = verify_range(3 * 10**5, mode="sieve", sieve_k=8, threads=1)
    b = verify_range(3 * 10**5, mode="sieve", sieve_k=8, threads=2)
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------- densities

def test_stopping_density_basics():
    assert stopping_density(1) == Fraction(1, 2)
    assert stopping_density(2) == Fraction(3, 4)


def test_stopping_density_monotone():
    vals = [stopping_density(k) for k in range(1, 19)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_stopping_density_against_naive_oracle():
    # independent oracle: iterate the representative r + 2^k of every class
    # (the shift avoids the finitely many exceptional small members)
    k = 14
    m = 1 << k
    dropped = 0
    for r in range(m):
        x = n = r + m
        for j in range(1, k + 1):
            x = t_step_int(x)
            if x < n:
                dropped += 1
                break
    assert stopping_density(k) == Fraction(dropped, m)


def test_class_sieve_thresholds_small():
    s = class_sieve(16)
    assert s.max_threshold < 1 << 16  # exceptional members are tiny here
    assert len(s.survivors) == 2114


def naive_class_sieve(k):
    """Per-class oracle: step every residue r < 2^k with its odd count a and
    offset B until the coefficient 3^a / 2^j first falls below 1."""
    survivors = []
    alive_after = [0] * k
    max_threshold = 0
    for r in range(1 << k):
        x, a, B = r, 0, 0
        for j in range(1, k + 1):
            if x & 1:
                B = 3 * B + (1 << (j - 1))
                a += 1
            x = t_step_int(x)
            if 3**a < 1 << j:
                max_threshold = max(max_threshold, B // ((1 << j) - 3**a))
                break
            alive_after[j - 1] += 1
        else:
            survivors.append(r)
    return survivors, alive_after, max_threshold


@pytest.mark.parametrize("k", range(1, 15))
def test_class_sieve_against_naive_oracle(k):
    s = class_sieve(k)
    survivors, counts, max_threshold = naive_class_sieve(k)
    assert s.survivors.dtype == np.int64
    assert s.survivors.tolist() == survivors
    assert s.survivor_counts == counts
    assert s.max_threshold == max_threshold


@pytest.mark.parametrize("k, survivors", [(20, 27328), (21, 46611), (26, 1037374)])
def test_class_sieve_survivor_counts(k, survivors):
    s = class_sieve(k)
    assert len(s.survivors) == s.survivor_counts[-1] == survivors
    assert s.max_threshold == 24


def test_below_power_density_high_beta_recount():
    # beta close to 1: recount against a naive exact oracle
    beta = Fraction(999, 1000)
    frac = below_power_density(beta, 10**3 + 10)
    hits = 0
    for n in range(2, 10**3 + 11):
        x = n
        ok = False
        for _ in range(200):
            x = t_step_int(x)
            if x**1000 < n**999:
                ok = True
                break
        hits += ok
    assert frac == Fraction(hits, 10**3 + 9)


def test_below_power_density_tiny_beta_reaches_one():
    # n^0.05 < 2 for n <= 1e4, so success means literally reaching 1
    frac = below_power_density(Fraction(1, 20), 10**4)
    assert frac == 1


def test_below_power_density_korec_qualitative():
    frac = below_power_density(Fraction(4, 5), 10**5)
    assert frac >= Fraction(99, 100)


# ------------------------------------------------------------- height runs

def test_equal_height_pair_12_13():
    runs = equal_height_tuples((10, 16), min_len=2)
    assert any(r.start == 12 and r.length == 2 and r.height == 9
               and r.total_stopping_time == 7 for r in runs)


def test_wu_176_run():
    start = 722067240
    runs = equal_height_tuples((start - 5, start + 180), min_len=100)
    assert len(runs) == 1
    run = runs[0]
    assert run.start == start and run.length == 176
    assert run.height == 190 and run.total_stopping_time == 128


def test_runs_are_maximal():
    runs = equal_height_tuples((2, 3000), min_len=3)
    for r in runs:
        h0 = height_and_total_stop(r.start)
        assert height_and_total_stop(r.start - 1) != h0
        assert height_and_total_stop(r.start + r.length) != h0
        for i in range(r.length):
            assert height_and_total_stop(r.start + i) == h0


# --------------------------------------------------------------- excursions

def test_excursion_champions_to_100():
    rep = excursion_records(100)
    assert rep.champions == [(2, 2), (3, 8), (7, 26), (15, 80), (27, 4616)]
    assert not rep.bound_violations


def test_excursion_small_range_oracle():
    # brute-force oracle for t(n): full iteration to 1, then the {1,2} tail
    rep = excursion_records(200)
    t = dict()
    for n in range(2, 201):
        x, best = n, 0
        while x != 1:
            x = t_step_int(x)
            best = max(best, x)
        t[n] = max(best, 2)
    champs = []
    best = 0
    for n in range(2, 201):
        if t[n] > best:
            champs.append((n, t[n]))
            best = t[n]
    assert rep.champions == champs


def test_excursion_champions_across_blocks():
    # path records (OEIS A006884) up to 1e6; the last two lie past the
    # first 2^19-entry block of the bound check and champion scan
    rep = excursion_records(10**6)
    assert [n for n, _ in rep.champions] == [
        2, 3, 7, 15, 27, 255, 447, 639, 703, 1819, 4255, 4591, 9663, 20895, 26623,
        31911, 60975, 77671, 113383, 138367, 159487, 270271, 665215, 704511]
    for n, peak in rep.champions[-3:]:
        x, best = n, 2
        while x != 1:
            x = t_step_int(x)
            best = max(best, x)
        assert peak == best
    assert not rep.bound_violations


def test_excursion_bound_violation_is_reported(monkeypatch):
    # no n below 1e7 breaks t(n) <= 8 n^2, so plant a peak that does, at a
    # member of a surviving class mod 2^16 in the second 2^19 numbers, which
    # the sweep streams from T^16(n) with threshold n, read through at(idx)
    n0 = 600_059
    assert n0 % 2**16 in set(class_sieve(16).survivors.tolist())
    real = kernel.descend_at

    def planted(size, at, step_limit, **kwargs):
        d = real(size, at, step_limit, **kwargs)
        d.peak[at(np.arange(size))[1] == n0] = 8 * n0 * n0 + 1
        return d

    monkeypatch.setattr(kernel, "descend_at", planted)
    rep = excursion_records(700_000)
    assert rep.bound_violations == [(n0, 8 * n0 * n0 + 1)]
    assert rep.champions[-1] == (n0, 8 * n0 * n0 + 1)


def test_excursion_step_limit_error_names_the_start(monkeypatch):
    # 270271 is the least n with stopping time above 150 (164), a member of
    # a surviving class mod 2^16 that the sweep starts from its image
    # T^16(n); the error names n, not the image
    n0, k = 270_271, 16
    assert n0 % 2**k in set(class_sieve(k).survivors.tolist())
    assert naive_sigma(n0) == 164
    image = n0
    for _ in range(k):
        image = t_step_int(image)
    monkeypatch.setattr(stats, "DEFAULT_STEP_LIMIT", 150)
    with pytest.raises(RuntimeError, match=f"n={n0} ") as err:
        excursion_records(3 * 10**5)
    assert str(image) not in str(err.value)


def excursion_records_by_table(n_max):
    """The former `excursion_records`: t(n) = max(peak, t(drop)) over a
    full table, in blocks of 2^19.  A block reads t(drop) before writing
    its own entries, so an entry whose drop lies in the same block is its
    peak alone (t(6) reads 3, not 8); the champions, whose t(n) is the
    peak, are still right."""
    t = np.zeros(n_max + 1, dtype=np.int64)
    t[1] = 2
    violations = []
    champs = []
    best = 0
    block = 1 << 19
    for base in range(2, n_max + 1, block):
        hi = min(base + block - 1, n_max)
        n = np.arange(base, hi + 1, dtype=np.int64)
        d = stats.descend(n, stats.DEFAULT_STEP_LIMIT, peak=True)
        if len(d.unresolved):
            raise RuntimeError(f"excursion sweep: n={n[d.unresolved[0]]} did not drop "
                               f"below itself within {stats.DEFAULT_STEP_LIMIT} steps")
        if d.peak.dtype == object:
            t = t.astype(object)
        tb = t[base:hi + 1] = np.maximum(d.peak, t[d.drop])
        violations.extend((int(i + base), int(tb[i])) for i in np.nonzero(tb > 8 * n * n)[0])
        for i in np.nonzero(tb == np.maximum.accumulate(tb))[0]:
            if tb[i] > best:
                best = int(tb[i])
                champs.append((int(i + base), best))
    return stats.ExcursionReport(n_max, champs, violations)


@pytest.mark.parametrize("n_max", [2, 3, 100, 2**16 - 1, 2**16 + 1, 2**19 + 1, 2**19 + 3,
                                   2 * 10**5, 10**6]
                         + np.random.default_rng(8128).integers(2, 3 * 10**5, 6).tolist())
def test_excursion_matches_table(n_max):
    assert excursion_records(n_max).to_dict() == excursion_records_by_table(n_max).to_dict()


def test_excursion_champions_against_memoised_excursions(monkeypatch):
    # t(n) = max(T(n), t(T(n))), t(1) = 2, memoised over every value met;
    # above 2^14 the sweep steps only sieve survivors
    n_max = 5 * 10**4
    t = {1: 2}
    for n in range(2, n_max + 1):
        path, x = [], n
        while x not in t:
            path.append(x)
            x = (3 * x + 1) // 2 if x & 1 else x // 2
        for y in reversed(path):
            t[y] = max(x, t[x])
            x = y
    champs, best = [], 0
    for n in range(2, n_max + 1):
        if t[n] > best:
            best = t[n]
            champs.append((n, best))
    pruned = []
    real = stats._survivor_descent
    monkeypatch.setattr(stats, "_survivor_descent", lambda *a, **kw: pruned.append(a) or real(*a, **kw))
    rep = excursion_records(n_max)
    assert pruned
    assert rep.champions == champs
    assert not rep.bound_violations and all(t[n] <= 8 * n * n for n in range(2, n_max + 1))


def test_excursion_sweep_keeps_no_range_long_array():
    # the traced peak grows far slower than the range, and stays below one
    # int64 array of n_max entries: no n_max-long table
    peaks = []
    for n_max in (10**6, 4 * 10**6):
        tracemalloc.start()
        excursion_records(n_max)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]
    assert peaks[1] < 8 * 4 * 10**6


def test_csv_rows_shape():
    rows = list(sweep_csv_rows(2, 10))
    assert rows[0][0] == 2 and len(rows[0]) == 6


@pytest.mark.parametrize("n_max, k", [(20, 8), (10**3, 1), (10**3, 2), (5000, 8),
                                      (70000, 16), (2**22 + 12345, 21)])
def test_sieve_naive_cutoff_and_candidates(n_max, k):
    # only 2..max_threshold is swept naively; above it, only members of
    # surviving classes are iterated
    rep = verify_range(n_max, sieve_k=k)
    sieve = class_sieve(k)
    cutoff = min(sieve.max_threshold, n_max)
    assert rep.verified and rep.naive_cutoff == cutoff
    survivors = set(sieve.survivors.tolist())
    mask = (1 << k) - 1
    assert rep.candidates_iterated == sum(
        1 for n in range(2, n_max + 1) if n <= cutoff or n & mask in survivors)


@pytest.mark.parametrize("beta", [Fraction(1, 2), Fraction(2, 3), Fraction(4, 5),
                                  Fraction(1, 20), Fraction(999, 1000)])
def test_power_ceiling_is_exact(beta):
    # the least t with t^q >= n^p, over small n, exact q-th powers and their
    # neighbours, and n near 2^62
    from collatzlab.stats import _power_ceiling

    p, q = beta.numerator, beta.denominator
    powers = [m**q for m in range(2, 60) if m**q < 1 << 62]
    ns = sorted(set(range(2, 1500)) | {x + d for x in powers for d in (-1, 0, 1)}
                | {(1 << 62) - d for d in range(40)})
    t = _power_ceiling(np.array(ns, dtype=np.int64), beta).tolist()
    for n, tn in zip(ns, t):
        assert tn**q >= n**p > (tn - 1) ** q
