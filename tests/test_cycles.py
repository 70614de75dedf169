"""Cycle values, rational cycles, circuit equation, cycle-length bounds."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzlab.cf import FRAC_BITS, log2_3_fixed, log2_with_reciprocal_fixed
from collatzlab.cycles import (
    _band_hits,
    _first_multiple_hit,
    _packed_exceeds_log2,
    _packed_sum_bounds,
    _window_candidates,
    best_packed_min_element,
    circuit_solutions,
    cycle_length_lower_bound,
    cycle_value,
    linear_combination_witness,
    packed_bound_exceeds,
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

def window_constants(D):
    """theta and d as cycle_length_lower_bound derives them from D."""
    lo3, _ = log2_3_fixed(FRAC_BITS)
    _, hiD = log2_with_reciprocal_fixed(D, FRAC_BITS)
    theta = (lo3 >> (FRAC_BITS - 64)) & ((1 << 64) - 1)
    return theta, ((hiD - lo3) >> (FRAC_BITS - 64)) + 5


def numpy_prefilter(theta, d, lo, hi):
    """The uint64 block scan that the listing replaced; its products wrap
    mod 2^64, so it is a reference only where n*d + 8 < 2^64."""
    n = np.arange(lo, hi + 1, dtype=np.uint64)
    sel = np.invert(n * np.uint64(theta)) < n * np.uint64(d) + np.uint64(8)
    return n[sel].tolist()


def test_first_multiple_hit_brute_force():
    for m in range(1, 25):
        for a in range(m):
            seen = [a * x % m for x in range(m + 1)]
            for l in range(m):
                for r in range(l, m):
                    want = next((x for x, v in enumerate(seen) if l <= v <= r), None)
                    assert _first_multiple_hit(a, m, l, r) == want


@settings(max_examples=200, deadline=None)
@given(
    theta=st.integers(0, 2**63 - 1).map(lambda t: 2 * t + 1),
    shift=st.integers(1, 40),
    jitter=st.integers(-(2**20), 2**20),
    lo=st.integers(1, 2**40),
    span=st.integers(0, 3000),
)
@example(theta=1, shift=1, jitter=0, lo=1, span=3000)  # band of exactly half the circle
@example(theta=2**64 - 1, shift=12, jitter=0, lo=1, span=3000)
# the least backward shift is -(width - 1), taken from the band's top offset
@example(theta=2**64 - 2**24 + 1, shift=40, jitter=0, lo=pow(2**24 - 1, -1, 2**64), span=3000)
def test_band_hits_match_brute_force(theta, shift, jitter, lo, span):
    width = min(max(1, (1 << 64 >> shift) + jitter), 2**63)
    base = 2**64 - width
    want = [(n, n * theta % 2**64 - base) for n in range(lo, lo + span + 1)
            if n * theta % 2**64 >= base]
    assert list(_band_hits(lo, lo + span, theta, width)) == want


@pytest.mark.parametrize("shift", [3, 8, 13])
def test_band_hits_on_case_boundaries(shift):
    # start the walk at hits whose offset sits on either side of the walk's
    # case boundaries: y = beta and y + alpha = width
    theta = 0x95C01A39FBD6879F
    width = 1 << 64 >> shift
    base = 2**64 - width
    t_fwd = next(t for t in itertools.count(1) if t * theta % 2**64 < width)
    t_bwd = next(t for t in itertools.count(1) if t * theta % 2**64 > base)
    alpha, beta = t_fwd * theta % 2**64, 2**64 - t_bwd * theta % 2**64
    inverse = pow(theta, -1, 2**64)
    span = 2 * (t_fwd + t_bwd)
    for y in (beta - 1, beta, width - alpha - 1, width - alpha):
        lo = (base + y) * inverse % 2**64  # the n whose offset is y
        want = [(n, n * theta % 2**64 - base) for n in range(lo, lo + span + 1)
                if n * theta % 2**64 >= base]
        assert want[0] == (lo, y)
        assert list(_band_hits(lo, lo + span, theta, width)) == want


@settings(max_examples=300, deadline=None)
@given(
    theta=st.integers(0, 2**63 - 1).map(lambda t: 2 * t + 1),
    d=st.one_of(st.integers(1, 2**64 - 1), st.integers(1, 2**20)),
    lo=st.one_of(st.integers(1, 2**30), st.integers(1, 64)),
    span=st.integers(0, 2000),
)
# theta = -k mod 2^64 gives gap = k*n - 1, which these put on the edges of
# both tests: gap = 7 in a wide band, gap = n*d + 8 in a narrow one, and
# floor((gap - 8) / d) = n in a wide one
@example(theta=2**64 - 1, d=2**60, lo=1, span=2000)
@example(theta=2**64 - 3, d=2, lo=1, span=2000)
@example(theta=2**64 - 2**60 - 1, d=2**60, lo=1, span=2000)
def test_listing_matches_exact_predicate(theta, d, lo, span):
    # any d, including the widths where n*d + 8 passes 2^64
    want = [n for n in range(lo, lo + span + 1)
            if 2**64 - 1 - n * theta % 2**64 < n * d + 8]
    assert list(_window_candidates(theta, d, lo, lo + span)) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(2**20, 2**62), st.data())
@example(2**20, None)
@example(2**40, None)
def test_listing_matches_numpy_prefilter(D, data):
    theta, d = window_constants(D)
    top = min(2**26, (2**64 - 9) // d)  # below top, n*d + 8 does not wrap
    if data is None:  # the top of the no-wrap range
        lo, hi = top - 2**15, top
    else:
        lo = data.draw(st.integers(1, top), label="lo")
        hi = data.draw(st.integers(lo, min(top, lo + 2**15)), label="hi")
    assert list(_window_candidates(theta, d, lo, hi)) == numpy_prefilter(theta, d, lo, hi)


@pytest.mark.parametrize("D, count", [(2, 6307), (5, 6305), (10, 6299), (100, 6207),
                                      (1000, 5271)])
def test_feasible_periods_against_exact_oracle(D, count):
    # the uint64 scan dropped about half of these once n*d wrapped (n above
    # about 3 D ln 2), listing 3,143 periods at D = 2 and 3,133 at D = 100
    cutoff = 10**4
    rep = cycle_length_lower_bound(D, period_cutoff=cutoff)
    want = set()
    pow3 = powD = powQ = 1
    for n in range(1, rep.scanned_odd_terms + 1):
        pow3, powD, powQ = 3 * pow3, D * powD, (3 * D + 1) * powQ
        p = pow3.bit_length()  # the least p with 2^p > 3^n
        if p <= cutoff and (powD << p) < powQ:  # 2^p < (3 + 1/D)^n
            want.add(p)
    assert rep.feasible_periods == sorted(want)
    assert len(want) == count


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


def test_bound_2_40_full_scan():
    rep = cycle_length_lower_bound(2**40, period_cutoff=10**8)
    assert len(rep.feasible_periods) == 809
    assert (rep.min_odd_terms, rep.min_period) == (10781274, 17087915)
    assert rep.scanned_odd_terms == 63092977
    assert rep.boundary_exact_checks == 0


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


def packed_sum_bounds_blocks(n, p, work_bits):
    """The block Horner that _packed_sum_bounds replaced: the descending
    recursion Q_k = 1 + (2^(d_k)/3) Q_(k+1) in fixed point with directed
    rounding, one exact affine map per distinct 64-step block shape."""
    one = 1 << work_bits
    lo = hi = one  # Q_(n-1) = 1
    ks = np.arange(n, dtype=np.int64)
    steps = np.diff((ks * p) // n)[::-1].astype(np.int8)  # d values, descending
    block = 64
    head = len(steps) % block
    for d in steps[:head].tolist():
        lo = (lo << d) // 3 + one
        hi = -((-(hi << d)) // 3) + one
    body = steps[head:].reshape(-1, block)
    # exact affine composite per distinct block: Q -> (Q << D) / 3^64 + B
    pow3b = 3**block
    comps = {}
    for key in {row.tobytes() for row in body}:
        ds = np.frombuffer(key, dtype=np.int8)
        D = 0
        B = Fraction(0)
        for d in ds.tolist():
            D += int(d)
            B = B * Fraction(1 << int(d), 3) + 1
        scaled = B * one
        b_lo = scaled.numerator // scaled.denominator
        comps[key] = (D, b_lo, b_lo + 1)
    for row in body:
        D, b_lo, b_hi = comps[row.tobytes()]
        lo = (lo << D) // pow3b + b_lo
        hi = -((-(hi << D)) // pow3b) + b_hi
    return lo, hi


def packed_sum(n, p):
    """The exact balanced-packing sum S = sum_i 3^(n-1-i) 2^(floor(i p / n))."""
    return sum(3 ** (n - 1 - i) << (i * p // n) for i in range(n))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 400), data=st.data(), w=st.sampled_from([64, 320]))
@example(n=1, data=None, w=64)
@example(n=400, data=None, w=320)
def test_packed_sum_bounds_contain_the_exact_sum(n, data, w):
    # p from just below 3^n up to 2n + 3, or p < n: then the staircase
    # floor(i p / n) repeats values and the word has empty U runs
    top = (3**n).bit_length()
    if data is None:
        p = max(1, n // 3)
    elif n > 1 and data.draw(st.booleans(), label="p < n"):
        p = data.draw(st.integers(1, n - 1), label="p")
    else:
        p = data.draw(st.integers(top - 1, max(top - 1, 2 * n + 3)), label="p")
    lo, hi = _packed_sum_bounds(n, p, w)
    scaled = packed_sum(n, p) << w
    assert lo * 3 ** (n - 1) <= scaled <= hi * 3 ** (n - 1)
    if 3**n < 1 << p < 4 * 3**n:  # 0 < delta < 2
        assert hi - lo <= 4


@pytest.mark.parametrize("n, p", [(15601, 24727), (63069, 99962), (190537, 301994)])
def test_packed_sum_bounds_overlap_the_block_oracle(n, p):
    lo, hi = _packed_sum_bounds(n, p, 320)
    old_lo, old_hi = packed_sum_bounds_blocks(n, p, 320)
    assert max(lo, old_lo) <= min(hi, old_hi)
    assert hi - lo <= 4 < old_hi - old_lo


def test_packed_sum_bounds_width_at_the_2_40_pair():
    # 0 < delta < 2 here; the block oracle's bracket is 243,032 units wide
    for w in (320, 640, 1280):
        lo, hi = _packed_sum_bounds(10781274, 17087915, w)
        assert 0 <= hi - lo <= 4


def packed_bound_exceeds_exact(n, p, D):
    """The interval/exact tail that packed_bound_exceeds used before its
    log-domain decision: it forms 3^(n-1) and 2^p - 3^n exactly."""
    p3 = 3 ** (n - 1)
    E = (1 << p) - 3 * p3
    if E <= 0:
        return False
    if n <= 50_000:
        return best_packed_min_element(n, p) > Fraction(D)
    work = 320
    target = D * E
    while work <= 1280:
        lo, hi = _packed_sum_bounds(n, p, work)
        t = target << work
        if p3 * lo > t:
            return True
        if p3 * hi < t:
            return False
        work *= 2
    raise ArithmeticError("packed-bound interval failed to separate")


def packed_floor(n, p):
    """floor(best_packed_min_element(n, p)) from a 320-bit bracket of Q."""
    lo, hi = _packed_sum_bounds(n, p, 320)
    den = ((1 << p) - 3**n) << 320
    m, m_hi = 3 ** (n - 1) * lo // den, 3 ** (n - 1) * hi // den
    assert m == m_hi
    return m


def test_packed_bound_interval_matches_exact():
    # the last six pairs have n in 50,001..65,000; 63069 has the least
    # delta > 0 there, 90344 puts delta above 1 (past the n/(6 delta)
    # bracket) and 90342 below 0
    for n, p in ((3, 5), (5, 8), (12, 20), (41, 65), (306, 485), (15601, 24727),
                 (190537, 301994), (50001, 79250), (57000, 90343), (63069, 99962),
                 (64999, 103021), (57000, 90344), (57000, 90342)):
        if 3**n > 1 << p:
            for D in (1, 2, 10**6, 2**40):
                assert not packed_bound_exceeds(n, p, D)
                assert not packed_bound_exceeds_exact(n, p, D)
            continue
        m = best_packed_min_element(n, p) if n <= 2000 else None
        m_floor = int(m) if m is not None else packed_floor(n, p)
        for D in (m_floor - 1, m_floor, m_floor + 1):
            if D < 1:
                continue
            want = m > D if m is not None else packed_bound_exceeds_exact(n, p, D)
            assert want == (D <= m_floor)
            assert packed_bound_exceeds(n, p, D) == want
    # interval path against the exact rational path on a mid-size pair
    n, p = 15601, 24727
    m = best_packed_min_element(n, p)
    lo, hi = _packed_sum_bounds(n, p, 320)
    S = m * ((1 << p) - 3**n)
    assert 3 ** (n - 1) * lo <= S * (1 << 320) <= 3 ** (n - 1) * hi


def test_log2_decision_against_exact_value():
    # the n > 50,000 decision, run at small n where M is exact; M == D has
    # no verdict, e.g. M = 1 for every (k, 2k), the trivial cycle repeated
    ties = 0
    for n in range(1, 31):
        p0 = (3**n).bit_length()
        for p in {p0 - 1, p0, p0 + 1, p0 + 3, 2 * n}:
            if 3**n > 1 << p:
                assert not _packed_exceeds_log2(n, p, 2)
                continue
            m = best_packed_min_element(n, p)
            for D in {1, 2, int(m) - 1, int(m), int(m) + 1, 4 * int(m) + 7} - {0, -1}:
                if m == D:
                    ties += 1
                    with pytest.raises(ArithmeticError):
                        _packed_exceeds_log2(n, p, D)
                else:
                    assert _packed_exceeds_log2(n, p, D) == (m > D)
    assert ties == 30
