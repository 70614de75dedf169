"""The T-step kernel: `descend` against the scalar records, and every
sweep with its exact path forced."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collatzlab import coeffstop, kernel, stats
from collatzlab.coeffstop import coeff_stop_record, verify_coefficient_conjecture
from collatzlab.kernel import GUARD, descend, lift, t_step, t_step_int
from collatzlab.maps import t_map, trajectory
from collatzlab.stats import (
    _power_ceiling,
    _verify_chunk,
    below_power_density,
    class_sieve,
    excursion_records,
    stats_record,
    verify_range,
)

K = kernel._K
JUMP_GUARD = (GUARD // 3**K) << K


def _reports():
    return [
        verify_range(2 * 10**4, mode="naive").to_dict(),
        verify_range(2 * 10**4, sieve_k=8).to_dict(),
        excursion_records(2 * 10**4).to_dict(),
        below_power_density(Fraction(4, 5), 2 * 10**4),
        verify_coefficient_conjecture(60).to_dict(),
    ]


def record_exact_starts(monkeypatch):
    """Wrap `kernel._descend_steps` and return the list it fills with the
    (start, threshold) pairs of its exact runs, those on object arrays."""
    calls = []
    steps = kernel._descend_steps

    def wrapped(starts, step_limit, threshold, *flags):
        if starts.dtype == object:
            calls.extend(zip(starts.tolist(), threshold.tolist()))
        return steps(starts, step_limit, threshold, *flags)

    monkeypatch.setattr(kernel, "_descend_steps", wrapped)
    return calls


def test_multi_block_reports_match_one_block(monkeypatch):
    # with 64-number batches the naive sweep, below_power_density and the
    # coefficient sweep (2..281, 5 batches) each run many batches of
    # `descend_range`, and every report is the one a single batch gives
    want = _reports()
    sizes = []
    descend_ = kernel.descend

    def counted(starts, *args, **kwargs):
        sizes.append(len(starts))
        return descend_(starts, *args, **kwargs)

    monkeypatch.setattr(kernel, "_BLOCK", 64)
    monkeypatch.setattr(kernel, "descend", counted)
    assert _reports() == want
    assert max(sizes) == 64 and len(sizes) > 600


@pytest.mark.parametrize("lo, hi", [(10, 9), (27, 27), (2, 300), (63, 193),
                                    (GUARD - 40, GUARD + 40)])
@pytest.mark.parametrize("threshold, flags", [
    (None, {}),
    (lambda n: n // 3, {}),
    (lambda n: _power_ceiling(n, Fraction(1, 2)), {}),
    (None, {"kappa": True}),
    (lambda n: n // 3, {"kappa": True}),
])
def test_descend_range_matches_one_descent(monkeypatch, lo, hi, threshold, flags):
    # 64-number batches, so 63..193 crosses batch edges and 2..300 runs
    # five batches; GUARD - 40..GUARD + 40 takes the exact path
    monkeypatch.setattr(kernel, "_BLOCK", 64)
    got = list(kernel.descend_range(lo, hi, 1000, threshold, **flags))
    if lo > hi:
        assert got == []
        return
    n = np.arange(lo, hi + 1, dtype=np.int64)
    assert np.array_equal(np.concatenate([m for m, _ in got]), n)
    want = descend(n, 1000, None if threshold is None else threshold(n), **flags)
    offsets = np.cumsum([0] + [len(m) for m, _ in got])
    unresolved = np.concatenate([at + d.unresolved for at, (_, d) in zip(offsets, got)])
    assert unresolved.dtype == want.unresolved.dtype
    assert unresolved.tolist() == want.unresolved.tolist()
    for name in ("steps", "drop", "peak", "kappa"):
        col = getattr(want, name)
        if col is None:
            assert all(getattr(d, name) is None for _, d in got)
            continue
        joined = np.concatenate([getattr(d, name) for _, d in got])
        assert joined.dtype == col.dtype
        assert joined.tolist() == col.tolist()


@pytest.mark.parametrize("guard", [10**4, 50])
def test_forced_exact_continuation_matches(monkeypatch, guard):
    # with the guard lowered, starts above it and orbits that cross it go
    # to the exact path; at 50 that is nearly every orbit of every sweep,
    # the coefficient sweep's starts (<= 281) included
    want = _reports()
    monkeypatch.setattr(kernel, "GUARD", guard)
    calls = record_exact_starts(monkeypatch)
    assert _reports() == want
    assert len(calls) > 10**4


@pytest.mark.parametrize("guard, restarts", [(10**7, {True, False}), (50, {True})])
def test_forced_exact_survivor_excursions_match(monkeypatch, guard, restarts):
    # above 2^14 excursion_records steps only the survivors mod 2^16, from
    # T^16(n) with threshold n, or from n itself where T^16(n) could pass
    # the guard (every survivor, at guard 50); with the guard lowered these
    # starts reach the exact path, and the report does not change
    n_max, k = 2 * 10**5, 16
    want = excursion_records(n_max).to_dict()
    monkeypatch.setattr(kernel, "GUARD", guard)
    calls = record_exact_starts(monkeypatch)
    assert excursion_records(n_max).to_dict() == want
    survivors = set(class_sieve(k).survivors.tolist())
    assert {x == thr for x, thr in calls
            if thr > 2**14 and thr % 2**k in survivors} == restarts


starts = st.one_of(
    st.integers(2, 10**6),
    st.integers(GUARD - 2**20, GUARD + 2**20),
    st.integers(GUARD + 1, GUARD + 2**10),
    st.integers(GUARD + 1, 2**63 - 1),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(starts, min_size=1, max_size=6), st.integers(0, 400))
def test_descend_matches_scalar_records(ns, step_limit):
    d = descend(np.array(ns, dtype=np.int64), step_limit, peak=True, kappa=True)
    unresolved = set(d.unresolved.tolist())
    assert unresolved == {i for i, n in enumerate(ns)
                          if stats_record(n).stopping_time > step_limit}
    for i, n in enumerate(ns):
        if i not in unresolved:
            assert (d.steps[i], d.drop[i], d.peak[i], d.kappa[i]) == scalar_descent(n)


def scalar_descent(n):
    """(steps, drop, peak, kappa) of `descend` for n, from the scalar
    records and T-steps in Python ints."""
    sigma = stats_record(n).stopping_time
    x, peak = n, 0
    for _ in range(sigma):
        x = t_step_int(x)
        peak = max(peak, x)
    return sigma, x, peak, coeff_stop_record(n).k


def test_peak_is_object_only_past_int64():
    # GUARD + 1 goes to the exact path, but its peak fits int64; the peak
    # of 2^63 - 1 does not, and only then is the peak column of Python ints
    for ns, dtype in (([27, GUARD + 1], np.int64), ([27, GUARD + 1, 2**63 - 1], object)):
        d = descend(np.array(ns, dtype=np.int64), 10**4, peak=True, kappa=True)
        assert d.peak.dtype == dtype
        assert d.steps.dtype == d.drop.dtype == d.kappa.dtype == np.int64
        assert len(d.unresolved) == 0
        for i, n in enumerate(ns):
            assert (d.steps[i], d.drop[i], d.peak[i], d.kappa[i]) == scalar_descent(n)
    assert d.peak[2] > np.iinfo(np.int64).max


def test_start_below_threshold_steps_alike_past_guard():
    # T^j(n) is compared for j >= 1 only, on both sides of GUARD
    s = np.array([100, GUARD + 1], dtype=np.int64)
    d = descend(s, 50, s + 10, peak=True, kappa=True)
    assert d.steps.tolist() == d.kappa.tolist() == [1, 1]
    assert d.drop.tolist() == d.peak.tolist() == [50, (GUARD + 1) // 2]
    assert descend(s, 0, s + 10, peak=True).unresolved.tolist() == [0, 1]


def test_step_limit_policies(monkeypatch):
    # 27 is the least n whose stopping time (59) exceeds 50
    rep = verify_range(100, mode="naive", step_limit=50)
    assert rep.failures == [n for n in range(2, 101) if stats_record(n).stopping_time > 50]
    monkeypatch.setattr(stats, "DEFAULT_STEP_LIMIT", 50)
    with pytest.raises(RuntimeError, match="n=27 "):
        excursion_records(100)
    monkeypatch.setattr(coeffstop, "DEFAULT_STEP_LIMIT", 50)
    with pytest.raises(RuntimeError, match="n=27 "):
        coeffstop._sweep_for_disagreement(100, 10)


def first_below(n, thr, step_limit):
    """The first j in 1..step_limit with T^j(n) < thr, else None."""
    x = n
    for j in range(1, step_limit + 1):
        x = t_step_int(x)
        if x < thr:
            return j
    return None


bare_starts = st.one_of(
    st.integers(2, 2**K),
    st.integers(2, 10**6),
    st.integers(JUMP_GUARD - 2**20, JUMP_GUARD + 2**20),
    st.integers(GUARD - 2**20, GUARD + 2**20),
)
thresholds = st.sampled_from(["start", "jump", 1, 2, Fraction(1, 2), Fraction(4, 5),
                             Fraction(1, 20)])


def jump_table_by_steps(k):
    """The former `_jump_table`: (3^c(r), T^k(r)) for r < 2^k by k T-steps
    of every residue, c(r) the odd steps among them."""
    v = np.arange(1 << k, dtype=np.int64)
    c = np.zeros(1 << k, dtype=np.int64)
    for _ in range(k):
        v, odd = t_step(v)
        c += odd
    return 3**c, v


def test_jump_table_matches_the_former_code():
    mul, add = jump_table_by_steps(K)
    assert np.array_equal(kernel._JUMP_MUL, mul) and np.array_equal(kernel._JUMP_ADD, add)


@pytest.mark.parametrize("k", range(11))
def test_lift_matches_scalar_steps(k):
    r, v, p, w = lift(k)
    assert r.tolist() == list(range(1 << k))
    for x in range(1 << k):
        y, a, word = x, 0, 0
        for i in range(k):
            a += y & 1
            word |= (y & 1) << i
            y = t_step_int(y)
        assert (int(v[x]), int(p[x]), int(w[x])) == (y, 3**a, word)


def _dropped(j, r):
    """An arbitrary filter that mixes the level and the class."""
    return (7 * r + j) % 5 == 0


def _kept(j):
    return [x for x in range(1 << j) if not any(_dropped(i, x % (1 << i)) for i in range(1, j + 1))]


@pytest.mark.parametrize("k", [1, 2, 6, 10])
def test_lift_keep_drops_exactly_the_masked_classes(k):
    seen = []

    def keep(j, r, v, p):
        seen.append((j, r.tolist(), v.tolist(), p.tolist()))
        return ~_dropped(j, r)

    kept = lift(k, keep)
    assert kept[0].tolist() == _kept(k)
    for got, col in zip(kept, lift(k)):
        assert np.array_equal(got, col[_kept(k)])
    # level j sees both lifts of every class kept at level j - 1, with its T^j and 3^a
    assert [j for j, *_ in seen] == list(range(1, k + 1))
    for j, r, v, p in seen:
        below = _kept(j - 1)
        assert r == sorted(below + [x + (1 << (j - 1)) for x in below])
        full = lift(j)
        assert (v, p) == (full[1][r].tolist(), full[2][r].tolist())


def test_jump_table():
    # T^K(2^K q + r) = 3^c(r) q + T^K(r), in Python ints
    for r in range(1 << K):
        for q in (0, 1, 12345, GUARD >> K):
            x = (q << K) + r
            for _ in range(K):
                x = t_step_int(x)
            assert x == int(kernel._JUMP_MUL[r]) * q + int(kernel._JUMP_ADD[r])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(bare_starts, thresholds), min_size=1, max_size=6),
       st.integers(0, 400))
@example([(3 << K, "jump")], K)  # lands on its threshold 3 at the first boundary
def test_bare_descend_matches_single_steps(cases, step_limit):
    # the jump path against scalar single steps: thresholds <= 2 (n = 2
    # among the starts), exact n^beta ceilings, the start itself and the
    # iterate at the first jump boundary, with starts on both sides of the
    # jump guard and of GUARD
    ns = np.array([n for n, _ in cases], dtype=np.int64)
    thr = []
    for n, kind in cases:
        if isinstance(kind, Fraction):
            kind = int(_power_ceiling(np.array([n], dtype=np.int64), kind)[0])
        elif kind == "jump":
            x = n
            for _ in range(K):
                x = t_step_int(x)
            kind = x if x < 2**63 else n
        thr.append(n if kind == "start" else kind)
    got = set(descend(ns, step_limit, np.array(thr, dtype=np.int64)).unresolved.tolist())
    assert got == {i for i, (n, t) in enumerate(zip(ns.tolist(), thr))
                   if first_below(n, t, step_limit) is None}
    if all(kind == "start" for _, kind in cases):
        assert got == set(descend(ns, step_limit).unresolved.tolist())
    for n, kind in cases:
        if kind == "start":
            rec = stats_record(n)
            assert first_below(n, n, 10**4) == rec.stopping_time
            assert trajectory(t_map(), n, target_set={1}).steps == rec.total_stopping_time


def descend_jumps_unchunked(starts, step_limit, thr):
    """The former `kernel._descend_jumps`: every jump on the whole batch,
    with no chunks and no pool."""
    limit = (GUARD // 3**K) << K  # a jump from v <= limit stays <= GUARD + 3^K
    single = thr <= 2
    idx = np.flatnonzero(~single)
    v, t = starts[idx], thr[idx]
    for _ in range(step_limit // K):
        if not len(idx):
            break
        over = v > limit
        if over.any():
            single[idx[over]] = True
            idx, v, t = idx[~over], v[~over], t[~over]
        low = v & ((1 << K) - 1)
        v >>= K  # in place: v is always a copy made by indexing
        v *= kernel._JUMP_MUL[low]
        v += kernel._JUMP_ADD[low]
        stays = np.flatnonzero(v >= t)  # one index for the three compactions
        idx, v, t = idx[stays], v[stays], t[stays]
    single[idx] = True  # a jump may have passed over the drop of a start still live
    rerun = np.flatnonzero(single)
    return rerun[kernel._descend_steps(starts[rerun], step_limit, thr[rerun]).unresolved]


def grid_batch(size, step_limit, kind):
    """`size` starts drawn near 2, near 10^6, within 2^20 of the jump guard
    and within 2^20 of GUARD, with thresholds n, n // 3, random values in
    {1, 2, 3}, or n with 2 on every fifth start (kind 0 to 3)."""
    rng = np.random.default_rng([size, step_limit, kind])
    family = rng.integers(0, 4, size)
    centre = np.array([2 + 2**11, 10**6, JUMP_GUARD, GUARD], dtype=np.int64)[family]
    spread = np.array([2**11, 2**18, 2**20, 2**20])[family]
    starts = rng.integers(centre - spread, centre + spread + 1)
    every_fifth = np.arange(size) % 5 == 0
    thr = (starts, starts // 3, rng.integers(1, 4, size), np.where(every_fifth, 2, starts))
    return starts, thr[kind]


CHUNK = kernel._CHUNK
GRID_STEP_LIMITS = (0, 7, 8, 31, 32, 33, 40, 1000, 10**5)


@pytest.mark.parametrize("size", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_chunked_jumps_match_the_unchunked_oracle(monkeypatch, size):
    for step_limit in GRID_STEP_LIMITS:
        starts, _ = grid_batch(size, step_limit, 0)
        want = descend_jumps_unchunked(starts, step_limit, starts)
        assert np.array_equal(descend(starts, step_limit).unresolved, want)
    # thresholds 0 and 1 keep the single-step fallback going to the step
    # limit, so it is stubbed to give up on every start it is handed: each
    # side then returns exactly the starts its jumps sent to it, the one
    # input of the shared fallback, and equal inputs give equal outputs
    monkeypatch.setattr(kernel, "_descend_steps",
                        lambda starts, *_: kernel.Descent(np.arange(len(starts))))
    for step_limit in GRID_STEP_LIMITS:
        for kind in range(4):
            starts, thr = grid_batch(size, step_limit, kind)
            want = descend_jumps_unchunked(starts, step_limit, thr)
            assert np.array_equal(descend(starts, step_limit, thr).unresolved, want)


def test_bare_descent_keeps_no_batch_long_column():
    # a bare descent holds one chunk, the pooled survivors and one bool per
    # start: its traced peak stays below one int64 column of the batch
    starts = np.arange(2, 2**21 + 2)
    tracemalloc.start()
    descend(starts, 10**5)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 * 2**21


# the first window holds the n whose T^8(n) = 3^6 q + T^8(r) crosses GUARD,
# the others the n that themselves sit just below and above it
@pytest.mark.parametrize("lo", [((GUARD // 3**6) << 8) - 2**11, GUARD - 2**12, GUARD + 1])
@pytest.mark.parametrize("step_limit", [0, 7, 8, 9, 59, 1000])
def test_survivor_start_chunk_near_guard(lo, step_limit):
    sieve = class_sieve(8)
    hi = lo + 2**12 - 1
    survivors = set(sieve.survivors.tolist())
    members = [n for n in range(lo, hi + 1) if n & 255 in survivors]
    count, fails = _verify_chunk((lo, hi, sieve, step_limit))
    assert count == len(members)
    assert sorted(fails) == [n for n in members if first_below(n, n, step_limit) is None]
