"""The T-step kernel: `descend` against the scalar records, and every
sweep with its exact path forced."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collatzlab import coeffstop, kernel, stats
from collatzlab.coeffstop import coeff_stop_record, verify_coefficient_conjecture
from collatzlab.kernel import GUARD, descend, lift, t_step
from collatzlab.maps import t_map, trajectory
from collatzlab.stats import (
    ClassSieve,
    _power_ceiling,
    _verify_chunk,
    below_power_density,
    class_sieve,
    excursion_records,
    stats_record,
    verify_range,
)

K = kernel._K
OUTPUTS = ("steps", "peak", "kappa")
JUMP_GUARD = (GUARD // 3**K) << K


def _reports():
    return [
        verify_range(2 * 10**4, mode="naive").to_dict(),
        verify_range(2 * 10**4, sieve_k=8).to_dict(),
        verify_range(2 * 10**4, mode="naive", step_limit=20).to_dict(),
        verify_range(2 * 10**4, sieve_k=8, step_limit=20).to_dict(),
        excursion_records(2 * 10**4).to_dict(),
        below_power_density(Fraction(4, 5), 2 * 10**4),
        verify_coefficient_conjecture(60).to_dict(),
    ]


def record_exact_starts(monkeypatch):
    """Wrap `kernel._descend` and return the list it fills with the
    (start, threshold) pairs of its exact runs, those on object arrays."""
    calls = []
    level = kernel._descend

    def wrapped(size, at, step_limit, outputs, stride=None, dtype=np.int64):
        if dtype == object:
            starts, threshold = at(np.arange(size))
            calls.extend(zip(starts.tolist(), threshold.tolist()))
        return level(size, at, step_limit, outputs, stride, dtype)

    monkeypatch.setattr(kernel, "_descend", wrapped)
    return calls


def small_pool(monkeypatch):
    """Cut `kernel._descend` to chunks of 16 starts and a pool flushed at
    64, and return the list that a spy on the tail `_steps` fills with the
    `past` list of each flush: one list object per `_descend` call."""
    monkeypatch.setattr(kernel, "_CHUNK", 16)
    monkeypatch.setattr(kernel, "_POOL", 64)
    flushes = []
    steps = kernel._steps

    def spied(live, out, step, stop, past, stride):
        if step:  # the head of a chunk starts at step 0, the tail at the head's end
            flushes.append(past)
        return steps(live, out, step, stop, past, stride)

    monkeypatch.setattr(kernel, "_steps", spied)
    return flushes


def most_flushes(flushes):
    """The most pool flushes of one `_descend` call."""
    return max(Counter(map(id, flushes)).values(), default=0)


def test_multi_block_reports_match_one_block(monkeypatch):
    # with 16-start chunks and a 64-start pool every sweep (naive and
    # sieved spans, excursion blocks, below_power_density and the
    # coefficient sweep over 2..281) flushes its pool many times, and every
    # report is the one a single flush at the end gives
    want = _reports()
    flushes = small_pool(monkeypatch)
    assert _reports() == want
    assert len(flushes) > 40 and most_flushes(flushes) > 1


# whole rows of q, a partial first row, a partial last row, both, and one
# partial row; the k = 16 spans hold five and three rows of q
SPANS = {8: [(2**20, 2**20 + 2**14 - 1), (10**6 + 37, 10**6 + 2**14),
             (10**6, 10**6 + 2**14 + 101), (10**6 + 37, 10**6 + 2**14 + 101),
             (10**6 + 37, 10**6 + 200)],
         16: [(3 * 2**16 + 1234, 8 * 2**16 - 1), (3 * 2**16, 5 * 2**16 + 4321),
              (10**7 + 77, 10**7 + 3 * 2**16 + 999)]}


# spans where T^8(n) = 3^6 q + T^8(r) crosses GUARD, where n itself does,
# where every n is past it, and k = 16 just below 2^62
GUARD_SPANS = [(8, lo, lo + 2**12 - 1) for lo in
               (((GUARD // 3**6) << 8) - 2**11, GUARD - 2**12, GUARD + 2**12)]
GUARD_SPANS.append((16, 2**62 - 2**14 - 77, 2**62 - 1))
NAIVE_RANGES = [(10, 9), (27, 27), (2, 300), (63, 193), (GUARD - 40, GUARD + 40)]
RANGE_OUTPUTS = [
    (None, ()),
    (lambda n: n // 3, ()),
    (lambda n: _power_ceiling(n, Fraction(1, 2)), ()),
    (None, ("steps", "kappa")),
    (lambda n: n // 3, ("steps", "kappa")),
]
SIEVED_RANGES = [(k, lo, hi) for k, spans in SPANS.items() for lo, hi in spans] + GUARD_SPANS


def starts_from_n(k, hi):
    """Whether `descend_range` starts every candidate of a range up to hi
    sieved mod 2^k at n itself: some T^k(n) could pass the kernel's GUARD."""
    sieve = class_sieve(k)
    return hi >> k > ((kernel.GUARD - sieve.images) // sieve.pow3).min()


RANGE_CASES = [  # the unsieved ids read threshold-flags<i>-lo-hi, i indexing RANGE_OUTPUTS
    pytest.param(None, lo, hi, threshold, outputs,
                 id=f"{'None' if threshold is None else '<lambda>'}-flags{i}-{lo}-{hi}")
    for lo, hi in NAIVE_RANGES for i, (threshold, outputs) in enumerate(RANGE_OUTPUTS)]
RANGE_CASES += [pytest.param(k, lo, hi, None, outputs,
                             id=f"sieve{k}-{'peak' if outputs else 'bare'}-{lo}-{hi}")
                for k, lo, hi in SIEVED_RANGES for outputs in ((), ("peak",))]
RANGE_CASES += [pytest.param(8, 10**6 + 37, 10**6 + 200, None, outputs, id=f"sieve8-{name}-refused")
                for name, outputs in (("kappa", ("steps", "kappa")), ("steps", ("steps",)))]


@pytest.mark.parametrize("k, lo, hi, threshold, outputs", RANGE_CASES)
def test_descend_range_matches_one_descent(monkeypatch, k, lo, hi, threshold, outputs):
    # 16-start chunks and a 64-start pool, so every range of over 1,000
    # candidates flushes its pool more than once; GUARD - 40..GUARD + 40
    # takes the exact path.  The range is returned as (size, n_at,
    # Descent), its Descent indexed like n_at(arange(size)), and the empty
    # range (10, 9) has size 0.  A sieved range gives the candidates and
    # verdicts of `survivor_grid`, and its outputs where no start passes
    # GUARD, else those of a descent from n (peaks over 1 <= j <= steps);
    # steps and kappa count from step 0, so a sieve refuses them.  The
    # oracles run at the full chunk and pool sizes
    sieve = None if k is None else class_sieve(k)
    if sieve is not None and {"steps", "kappa"} & set(outputs):
        with pytest.raises(ValueError, match="from step 0"):
            kernel.descend_range(lo, hi, 1000, sieve=sieve, outputs=outputs)
        return
    with monkeypatch.context() as small:
        flushes = small_pool(small)
        size, n_at, got = kernel.descend_range(lo, hi, 1000, threshold, sieve=sieve,
                                               outputs=outputs)
    if size > 1000:
        assert most_flushes(flushes) > 1
    if lo > hi:
        assert size == 0
    n = n_at(np.arange(size))
    if sieve is None:
        assert n.tolist() == list(range(lo, hi + 1))
        want = descend(n, 1000, None if threshold is None else threshold(n), outputs=outputs)
    else:
        grid_n, grid = survivor_grid(lo, hi, sieve, 1000, outputs)
        assert n.tolist() == grid_n.tolist()
        from_n = (k, lo, hi) in GUARD_SPANS
        assert starts_from_n(k, hi) == from_n
        want = descend(n, 1000, n, outputs=outputs) if from_n else grid
        assert want.unresolved.tolist() == grid.unresolved.tolist()
    assert got.unresolved.dtype == want.unresolved.dtype
    assert got.unresolved.tolist() == want.unresolved.tolist()
    for name in OUTPUTS:
        col, wanted = getattr(got, name), getattr(want, name)
        if wanted is None:
            assert col is None
            continue
        assert len(col) == size
        assert col.dtype == wanted.dtype
        assert col.tolist() == wanted.tolist()


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


@pytest.mark.parametrize("guard, restarts", [(10**7, {True}), (50, {True}),
                                             (10**8, {True, False})])
def test_forced_exact_survivor_excursions_match(monkeypatch, guard, restarts):
    # above 2^14 excursion_records steps only the survivors mod 2^16, from
    # T^16(n) with threshold n, or from n itself in a block where some
    # T^16(n) could pass the guard (every pruned block, at guards 10^7 and
    # 50); with the guard lowered both kinds of start reach the exact path,
    # and the report does not change
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
    d = descend(np.array(ns, dtype=np.int64), step_limit, outputs=OUTPUTS)
    unresolved = set(d.unresolved.tolist())
    assert unresolved == {i for i, n in enumerate(ns)
                          if stats_record(n).stopping_time > step_limit}
    for i, n in enumerate(ns):
        if i not in unresolved:
            assert (d.steps[i], d.peak[i], d.kappa[i]) == scalar_descent(n)


def scalar_descent(n):
    """(steps, peak, kappa) of `descend` for n, from the scalar
    records and T-steps in Python ints."""
    sigma = stats_record(n).stopping_time
    x, peak = n, 0
    for _ in range(sigma):
        x = t_map().step(x)
        peak = max(peak, x)
    return sigma, peak, coeff_stop_record(n).k


def test_peak_is_object_only_past_int64():
    # GUARD + 1 goes to the exact path, but its peak fits int64; the peak
    # of 2^63 - 1 does not, and only then is the peak column of Python ints
    for ns, dtype in (([27, GUARD + 1], np.int64), ([27, GUARD + 1, 2**63 - 1], object)):
        d = descend(np.array(ns, dtype=np.int64), 10**4, outputs=OUTPUTS)
        assert d.peak.dtype == dtype
        assert d.steps.dtype == d.kappa.dtype == np.int64
        assert len(d.unresolved) == 0
        for i, n in enumerate(ns):
            assert (d.steps[i], d.peak[i], d.kappa[i]) == scalar_descent(n)
    assert d.peak[2] > np.iinfo(np.int64).max


@settings(max_examples=60, deadline=None)
@given(st.lists(starts, min_size=1, max_size=6), st.integers(0, 400))
def test_named_outputs_are_those_of_the_full_call(ns, step_limit):
    # each name is tracked for itself: every nonempty subset of the three
    # names fills exactly its columns, as the call naming all three does,
    # on starts on both sides of GUARD
    ns = np.array(ns, dtype=np.int64)
    full = descend(ns, step_limit, outputs=OUTPUTS)
    for size in range(1, len(OUTPUTS) + 1):
        for names in combinations(OUTPUTS, size):
            d = descend(ns, step_limit, outputs=names)
            assert d.unresolved.tolist() == full.unresolved.tolist()
            for name in OUTPUTS:
                col, want = getattr(d, name), getattr(full, name)
                if name not in names:
                    assert col is None
                    continue
                assert col.dtype == want.dtype
                assert col.tolist() == want.tolist()


@pytest.mark.parametrize("outputs", [("odd",), ("drop",), ("peak", "height"), "peak"],
                         ids=["odd", "drop", "peak-height", "bare-string"])
def test_unknown_outputs_are_refused(outputs):
    # a bare string is no tuple of names: its letters are unknown names;
    # "odd" and "drop" wait for a reader
    with pytest.raises(ValueError, match="unknown descent outputs"):
        descend(np.array([27], dtype=np.int64), 100, outputs=outputs)
    with pytest.raises(ValueError, match="unknown descent outputs"):
        kernel.descend_range(2, 100, 100, outputs=outputs)


@pytest.mark.parametrize("starts, threshold", [
    (np.array([2**30 + 3], dtype=np.int32), None),
    (np.array([27], dtype=np.uint64), None),
    (np.array([27.0]), None),
    (np.array([27], dtype=np.int64), np.array([27], dtype=np.int32)),
], ids=["int32", "uint64", "float64", "int32-threshold"])
def test_descend_refuses_starts_and_thresholds_not_int64(starts, threshold):
    # in int32, 3x + 1 wraps: 2^30 + 3 would report peak 0, not 2,415,919,112
    with pytest.raises(TypeError, match="int64"):
        descend(starts, 1000, threshold, outputs=("peak",))


def test_start_below_threshold_steps_alike_past_guard():
    # T^j(n) is compared for j >= 1 only, on both sides of GUARD
    s = np.array([100, GUARD + 1], dtype=np.int64)
    d = descend(s, 50, s + 10, outputs=OUTPUTS)
    assert d.steps.tolist() == d.kappa.tolist() == [1, 1]
    assert d.peak.tolist() == [50, (GUARD + 1) // 2]
    assert descend(s, 0, s + 10, outputs=("peak",)).unresolved.tolist() == [0, 1]


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
        x = t_map().step(x)
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
            y = t_map().step(y)
        assert (int(v[x]), int(p[x]), int(w[x])) == (y, 3**a, word)


def test_lift_refuses_k_past_the_int64_bound():
    # the all-ones class r = 2^k - 1 has T^k(r) = 3^k - 1, exact at k = 38;
    # at k = 40 int64 wrapped (and at 45 the image came back negative)
    def top(j, r, v, p):
        return r == r.max()

    r, v, p, _ = lift(38, top)
    assert (int(r[0]), int(v[0]), int(p[0])) == (2**38 - 1, 3**38 - 1, 3**38)
    for k in (39, 40, 45):
        with pytest.raises(ValueError, match="k <= 38"):
            lift(k, top)


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
                x = t_map().step(x)
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
                x = t_map().step(x)
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
    """The former `kernel._descend_jumps`: every jump on all the starts at
    once, with no chunks and no pool."""
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
    starts, thr = starts[rerun], thr[rerun]
    steps = kernel._descend(len(rerun), lambda i: (starts[i], thr[i]), step_limit, (), 1)
    return rerun[steps.unresolved]


def grid_starts(size, step_limit, kind):
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


@pytest.mark.parametrize("size", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1,
                                  2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 6 * CHUNK + 5])
def test_chunked_jumps_match_the_unchunked_oracle(monkeypatch, size):
    for step_limit in GRID_STEP_LIMITS:
        starts, _ = grid_starts(size, step_limit, 0)
        want = descend_jumps_unchunked(starts, step_limit, starts)
        assert np.array_equal(descend(starts, step_limit).unresolved, want)
    # thresholds 0 and 1 keep the single-step fallback going to the step
    # limit, so it is stubbed to give up on every start it is handed: each
    # side then returns exactly the starts its jumps sent to it, the one
    # input of the shared fallback, and equal inputs give equal outputs
    level = kernel._descend

    def give_up_on_reruns(size, at, step_limit, outputs, stride=None, *dtype):
        if stride == 1:  # a rerun by single steps; the entry call jumps
            return kernel.Descent(np.arange(size))
        return level(size, at, step_limit, outputs, stride, *dtype)

    monkeypatch.setattr(kernel, "_descend", give_up_on_reruns)
    for step_limit in GRID_STEP_LIMITS:
        for kind in range(4):
            starts, thr = grid_starts(size, step_limit, kind)
            want = descend_jumps_unchunked(starts, step_limit, thr)
            assert np.array_equal(descend(starts, step_limit, thr).unresolved, want)


def test_bare_descent_keeps_no_batch_long_column():
    # a bare descent holds one chunk, the pooled survivors and the indices
    # it hands to single steps, with no column per start: its traced peak
    # stays well below one int64 column of its 2^21 starts (16 MiB)
    starts = np.arange(2, 2**21 + 2)
    tracemalloc.start()
    descend(starts, 10**5)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 5 * 2**20


def test_naive_sweep_builds_no_batch_long_array():
    # the starts and thresholds of a `descend_range` call are computed one
    # chunk at a time, so a naive sweep of 2^21 numbers holds no int64
    # column of them (a range-long arange alone is 16 MiB)
    tracemalloc.start()
    verify_range(2**21, mode="naive")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 * 2**20


def test_below_power_density_bounds_its_pool():
    # with thresholds ceil(sqrt n) most of the 999,999 starts outlive the
    # 32-step head; the pool is flushed every 2^18 starts and the rerun
    # reads its starts chunk by chunk, so the traced peak stays far below
    # the 62 MiB of a pool that holds the whole range
    tracemalloc.start()
    below_power_density(Fraction(1, 2), 10**6)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 40 * 2**20


def test_kappa_descent_keeps_only_its_output_columns():
    # a kappa descent runs its first 32 single steps chunk by chunk and
    # pools the survivors, so past its two output columns (steps, kappa)
    # it holds one chunk and the pool, not five live columns per start
    starts = np.arange(2, 2**21 + 2)
    tracemalloc.start()
    descend(starts, 10**5, outputs=("steps", "kappa"))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 3 * 8 * 2**21


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


def survivor_grid(lo: int, hi: int, sieve: ClassSieve, step_limit: int,
                  outputs=()) -> tuple[np.ndarray, kernel.Descent]:
    """The n in lo..hi whose residue mod 2^k survives the sieve, ascending,
    and their `Descent` below n: the unresolved indices into n and, with
    "peak" among the outputs, the largest T^j(n) over k < j <= steps.

    n = 2^k q + r is started at step k, from T^k(n) = 3^a(r) q + T^k(r),
    with step_limit - k steps left; an n whose T^k(n) could pass the
    kernel's GUARD is started at step 0, so its peak runs over 1 <= j <=
    steps.  Every n is unresolved when step_limit < k.

    It builds the span's whole grid of candidates, n and T^k(n), and runs
    each kind of start as its own `descend`, candidate by candidate, so it
    is the oracle of the candidates and verdicts `kernel.descend_range`
    streams, whose start rule is per range, not per candidate."""
    k = sieve.k
    q = np.arange(lo >> k, (hi >> k) + 1, dtype=np.int64)[:, None]
    qmax = (kernel.GUARD - sieve.images) // sieve.pow3  # the largest q with T^k(n) <= GUARD
    n = ((q << k) + sieve.survivors).ravel()  # ascending, as the survivors are
    first, end = np.searchsorted(n, [lo, hi + 1]).tolist()
    n = n[first:end]
    if step_limit < k:  # no survivor drops within its first k steps
        return n, kernel.Descent(np.arange(len(n)))
    x = (np.minimum(q, qmax) * sieve.pow3 + sieve.images).ravel()[first:end]
    big = (q > qmax).ravel()[first:end]
    if not big.any():
        return n, descend(x, step_limit - k, n, outputs=outputs)
    peak = "peak" in outputs
    unresolved, peaks = [], np.zeros(len(n), dtype=np.int64) if peak else None
    for idx, starts, limit in ((np.flatnonzero(~big), x, step_limit - k),
                               (np.flatnonzero(big), n, step_limit)):
        d = descend(starts[idx], limit, n[idx], outputs=outputs)
        unresolved.append(idx[d.unresolved])
        if peak:
            if d.peak.dtype == object:  # a peak past int64, from the exact path
                peaks = peaks.astype(object)
            peaks[idx] = d.peak
    return n, kernel.Descent(np.sort(np.concatenate(unresolved)), peak=peaks)


def survivor_chunk_oracle(lo, hi, sieve, step_limit):
    """(count, failures) of a sieved span from `survivor_grid`, which
    builds the span's whole grid of candidates."""
    n, d = survivor_grid(lo, hi, sieve, step_limit)
    return len(n), n[d.unresolved].tolist()


@pytest.mark.parametrize("k, lo, hi", [(k, lo, hi) for k, spans in SPANS.items()
                                       for lo, hi in spans])
def test_streamed_sieved_span_matches_the_survivor_grid(monkeypatch, k, lo, hi):
    # `_verify_chunk` reads candidate i of a span from divmod(i + first, S);
    # at every step limit it must never build starts for `descend`, and it
    # must give the grid's count and failures
    sieve = class_sieve(k)
    for step_limit in (0, k - 1, k, 60, 1000):
        want = survivor_chunk_oracle(lo, hi, sieve, step_limit)
        monkeypatch.setattr(kernel, "descend", None)  # any call fails
        assert _verify_chunk((lo, hi, sieve, step_limit)) == want
        monkeypatch.undo()


STREAM_CASES = [(k, lo, hi, 0) for k, spans in SPANS.items() for lo, hi in spans]
STREAM_CASES += [(k, lo, hi, 0) for k, lo, hi in GUARD_SPANS]
STREAM_CASES += [(16, lo, hi, 10**7) for lo, hi in SPANS[16]]  # every row past qmax.min()


@pytest.mark.parametrize("k, lo, hi, guard", STREAM_CASES)
@pytest.mark.parametrize("peak", [False, True])
def test_survivor_stream_matches_the_survivor_grid(monkeypatch, k, lo, hi, guard, peak):
    # the candidates and the unresolved indices of the stream are the
    # grid's, with its two kinds of start, and so are the peaks where no
    # T^k(n) could pass GUARD; where one could, every candidate starts at
    # n, and its peaks are those of a descent from n.  With step_limit < k
    # the grid asks for no peak, and every unresolved candidate reads 0.
    # The stream runs with 16-start chunks and a 64-start pool, which a
    # span of over 1,000 candidates flushes more than once at the larger
    # step limits; the oracles run at full size
    if guard:
        monkeypatch.setattr(kernel, "GUARD", guard)
    sieve = class_sieve(k)
    flushed = 0
    outputs = ("peak",) if peak else ()
    for step_limit in (0, k - 1, k, k + 1, 60, 1000):
        n, want = survivor_grid(lo, hi, sieve, step_limit, outputs)
        with monkeypatch.context() as small:
            flushes = small_pool(small)
            size, n_at, got = kernel.descend_range(lo, hi, step_limit, sieve=sieve,
                                                   outputs=outputs)
        flushed = max(flushed, most_flushes(flushes))
        assert n_at(np.arange(size)).tolist() == n.tolist()
        assert got.unresolved.tolist() == want.unresolved.tolist()
        if peak:
            if starts_from_n(k, hi):
                want = descend(n, step_limit, n, outputs=outputs)
            peaks = np.zeros(len(n), dtype=np.int64) if want.peak is None else want.peak
            assert got.peak.dtype == peaks.dtype
            assert got.peak.tolist() == peaks.tolist()
    assert flushed > 1 or len(n) <= 1000


def test_parallel_sieved_spans_match_the_survivor_grid():
    # two 2^22 spans in two processes, with failures at step limit 60
    n_max, k, step_limit = 5 * 10**6 + 7, 8, 60
    sieve = class_sieve(k)
    rep = verify_range(n_max, sieve_k=k, step_limit=step_limit, threads=2)
    cutoff = rep.naive_cutoff
    count, failures = cutoff - 1, [n for n in range(2, cutoff + 1)
                                   if first_below(n, n, step_limit) is None]
    for lo in range(cutoff + 1, n_max + 1, 1 << 22):
        cnt, res = survivor_chunk_oracle(lo, min(lo + (1 << 22) - 1, n_max), sieve, step_limit)
        count, failures = count + cnt, failures + res
    assert rep.candidates_iterated == count
    assert rep.failures == sorted(failures) and len(failures) > 100
