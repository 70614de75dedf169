"""The T-step kernel: `descend` against the scalar records, and every
sweep with its exact path forced."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collatzlab import coeffstop, kernel, stats
from collatzlab.coeffstop import coeff_stop_record, verify_coefficient_conjecture
from collatzlab.kernel import GUARD, descend, t_step_int
from collatzlab.stats import below_power_density, excursion_records, stats_record, verify_range


def _reports():
    return [
        verify_range(2 * 10**4, mode="naive").to_dict(),
        verify_range(2 * 10**4, sieve_k=8).to_dict(),
        excursion_records(2 * 10**4).to_dict(),
        below_power_density(Fraction(4, 5), 2 * 10**4),
        verify_coefficient_conjecture(60).to_dict(),
    ]


@pytest.mark.parametrize("guard", [10**4, 50])
def test_forced_exact_continuation_matches(monkeypatch, guard):
    # with the guard lowered, starts above it and orbits that cross it go
    # to the exact path; at 50 that is nearly every orbit of every sweep,
    # the coefficient sweep's starts (<= 281) included
    want = _reports()
    calls = []
    exact = kernel._descend_exact
    monkeypatch.setattr(kernel, "GUARD", guard)
    monkeypatch.setattr(kernel, "_descend_exact", lambda *a: calls.append(a) or exact(*a))
    assert _reports() == want
    assert len(calls) > 10**4


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
        if i in unresolved:
            continue
        sigma = stats_record(n).stopping_time
        x, peak = n, 0
        for _ in range(sigma):
            x = t_step_int(x)
            peak = max(peak, x)
        assert (d.steps[i], d.drop[i], d.peak[i]) == (sigma, x, peak)
        assert d.kappa[i] == coeff_stop_record(n).k


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
