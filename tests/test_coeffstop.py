"""Coefficient stopping time and its agreement with the stopping time."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collatzlab import coeffstop
from collatzlab.coeffstop import (
    coeff_stop_record,
    residue_class_structure,
    verify_coefficient_conjecture,
)
from collatzlab.kernel import t_step_int
from collatzlab.maps import (
    DEFAULT_MAGNITUDE_LIMIT,
    MagnitudeLimit,
    t_map,
    three_x_plus_d,
    trajectory,
)


def dominating_offset_maxima_dp(k_max):
    """The big-integer DP over (j, a) that keeps the largest offset B of
    every dominated parity word for each odd count a, harvesting the
    even-step children that would cross (the reference for the one-pass
    construction in coeffstop)."""
    pow3 = [1]
    while len(pow3) < k_max + 4:
        pow3.append(pow3[-1] * 3)
    out = []
    cur = {0: 0}
    for j in range(k_max):
        nxt = {}
        for a, B in cur.items():
            # odd step: coefficient gains a factor 3/2, never crosses
            B2 = 3 * B + (1 << j)
            if B2 > nxt.get(a + 1, -1):
                nxt[a + 1] = B2
            # even step: crossing happens exactly when 3^a < 2^(j+1)
            if pow3[a] < (1 << (j + 1)):
                out.append((a, j + 1, B))
            elif B > nxt.get(a, -1):
                nxt[a] = B
        cur = nxt
    return out


def coeff_stop_record_loop(n, step_limit=coeffstop.DEFAULT_STEP_LIMIT):
    """The scalar T loop coeff_stop_record used before it read the walker,
    with its second loop that replays the orbit to check the affine identity
    (the reference for the walker's records)."""
    x = n
    a = 0
    B = 0
    k = None
    a_at_k = B_at_k = 0
    sigma = None
    for j in range(1, step_limit + 1):
        if x & 1:
            B = 3 * B + (1 << (j - 1))
            a += 1
        x = t_step_int(x)
        if k is None and 3**a < (1 << j):
            k, a_at_k, B_at_k = j, a, B
        if sigma is None and x < n:
            sigma = j
        if k is not None and sigma is not None:
            break
    if k is None:
        return coeffstop.CoeffStopRecord(n, None, None, None, None, sigma)
    coeff = Fraction(3**a_at_k, 1 << k)
    offset = Fraction(B_at_k, 1 << k)
    y = n
    for _ in range(k):
        y = t_step_int(y)
    if coeff * n + offset != y:
        raise ArithmeticError(f"affine identity failed at n={n}, k={k}")
    return coeffstop.CoeffStopRecord(n, k, a_at_k, coeff, offset, sigma)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3000) | st.integers(40, 200).flatmap(
           lambda b: st.integers(1 << (b - 1), (1 << b) - 1)),
       st.sampled_from([1, 2, 5, 10, 59, 10**5]) | st.integers(1, 300))
def test_record_matches_loop(n, step_limit):
    got = coeff_stop_record(n, step_limit)
    if got != coeff_stop_record_loop(n, step_limit):
        # (d) the only allowed difference: the walk stops at the default
        # magnitude limit, which the loop did not have
        tr = trajectory(t_map(), n, step_limit=step_limit, target_predicate=lambda v: v < n,
                        magnitude_limit=DEFAULT_MAGNITUDE_LIMIT)
        assert isinstance(tr.termination, MagnitudeLimit)


def test_record_2():
    r = coeff_stop_record(2)
    assert r.k == 1
    assert r.coeff == Fraction(1, 2)
    assert r.offset == 0


def test_record_rejects_step_limit_below_one():
    with pytest.raises(ValueError):
        coeff_stop_record(2, step_limit=0)  # the walker takes a step at any limit


def test_record_3():
    # parity word 1100 over 3 -> 5 -> 8 -> 4 -> 2
    r = coeff_stop_record(3)
    assert r.k == 4 == r.stopping_time
    assert r.odd_steps == 2
    assert r.coeff == Fraction(9, 16)


def test_record_27():
    r = coeff_stop_record(27)
    assert r.k == r.stopping_time == 59


def test_affine_identity_block():
    for n in range(2, 2000):
        r = coeff_stop_record(n)
        x = n
        for _ in range(r.k):
            x = t_step_int(x)
        assert r.coeff * n + r.offset == x
        assert r.offset >= 0
        assert r.k <= r.stopping_time


def test_verify_trivial():
    rep = verify_coefficient_conjecture(1)
    assert rep.verified
    assert rep.search_bound == 0


def test_verify_300_and_exhaustive_crosscheck():
    rep = verify_coefficient_conjecture(300)
    assert rep.verified and not rep.counterexamples
    # bound magnitudes pinned by the dominating-word maxima
    assert rep.search_bound == 4862
    top = rep.pairs[0]
    assert (top.odd_steps, top.k) == (147, 233)
    # every n <= 1e5 with crossing <= 300 agrees (direct recount)
    for n in range(2, 10**5, 977):
        r = coeff_stop_record(n)
        if r.k is not None and r.k <= 300:
            assert r.k == r.stopping_time


def test_dangerous_pairs_follow_convergents():
    rep = verify_coefficient_conjecture(300)
    top_a = [p.odd_steps for p in rep.pairs[:4]]
    # 41 and 53 are convergent denominators of log2 3; 94, 147, 188 are
    # intermediate-convergent denominators (41+53, 94+53, 147+41...)
    assert set(top_a) <= {41, 53, 94, 135, 147, 176, 188, 229, 241, 282}
    assert any(q in (41, 53) for q in rep.convergent_denominators)


def test_critical_denominators_built_once(monkeypatch):
    real = coeffstop.cf_log2_3
    calls = []
    monkeypatch.setattr(coeffstop, "cf_log2_3", lambda depth: calls.append(depth) or real(depth))
    coeffstop._critical_denominators.cache_clear()
    try:
        reports = [verify_coefficient_conjecture(k) for k in (60, 300, 300)]
    finally:
        coeffstop._critical_denominators.cache_clear()
    assert calls == [20]
    catalogue = [q for _, q in real(20).convergents_with_intermediates()]
    for rep in reports:
        top = max(p.odd_steps for p in rep.pairs[:16])
        assert rep.convergent_denominators == [q for q in catalogue if q <= top]


@pytest.mark.parametrize("k_max", [1, 2, 3, 50, 300, 1200])
def test_crossing_maxima_match_dp(k_max):
    assert coeffstop._crossing_maxima(k_max) == dominating_offset_maxima_dp(k_max)


def test_verify_2000_search_bound():
    rep = verify_coefficient_conjecture(2000)
    assert rep.verified and not rep.counterexamples
    assert rep.search_bound == rep.swept == 238670
    assert len(rep.pairs) == 64


def test_kappa_residue_classes():
    for k in (6, 10):
        assert residue_class_structure(k)


def test_k_cap_usage_error():
    with pytest.raises(ValueError):
        verify_coefficient_conjecture(10**6)


def test_affine_identity_failure_raises(monkeypatch):
    # the affine-identity check must hold under python -O, so it cannot be
    # an assert
    monkeypatch.setattr(coeffstop, "t_map", lambda: three_x_plus_d(3))
    with pytest.raises(ArithmeticError):
        coeff_stop_record(27)
