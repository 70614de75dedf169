"""Continued-fraction and fixed-point logarithm checks."""

import itertools
from fractions import Fraction
from math import gcd

import pytest

from collatzlab import cf as cf_module
from collatzlab.cf import (
    FRAC_BITS,
    cf_log2_3,
    cf_rational,
    compare_power2_power3,
    convergents,
    log2_3_fixed,
    log2_bounds,
    log2_with_reciprocal_fixed,
)


def test_first_quotients():
    cf = cf_log2_3(6)
    assert cf.quotients == [1, 1, 1, 2, 2, 3]


def test_first_convergents():
    cf = cf_log2_3(5)
    assert convergents(cf) == [(1, 1), (2, 1), (3, 2), (8, 5), (19, 12)]


def test_shanks_denominators():
    # distinct initial convergent denominators: 1, 2, 5, 12, 41
    cf = cf_log2_3(8)
    dens = []
    for _, q in convergents(cf):
        if q not in dens:
            dens.append(q)
    assert dens[:5] == [1, 2, 5, 12, 41]


def test_thirteenth_denominator():
    cf = cf_log2_3(16)
    qs = [q for _, q in convergents(cf)]
    assert qs[13] == 190537


def test_q15_value():
    # exact recurrence value; the often-quoted 10787915 is a misprint of this
    cf = cf_log2_3(17)
    qs = [q for _, q in convergents(cf)]
    assert qs[15] == 10781274
    assert 10781274 in qs


def test_eliahou_numerators_present():
    cf = cf_log2_3(17)
    ps = [p for p, _ in convergents(cf)]
    assert 301994 in ps and 17087915 in ps and 85137581 in ps


def test_rational_cf():
    cf = cf_rational(Fraction(7, 3))
    assert cf.quotients == [2, 3]
    assert convergents(cf) == [(2, 1), (7, 3)]


def test_depth_validation():
    with pytest.raises(ValueError):
        cf_log2_3(0)
    with pytest.raises(ValueError):
        cf_log2_3(65)


def test_power_comparison_alternation():
    # exactly one of 2^p < 3^q, 2^p > 3^q holds and the direction alternates
    cf = cf_log2_3(20)
    signs = []
    for p, q in convergents(cf):
        if q > 10**6:
            break
        s = compare_power2_power3(p, q)
        assert s in (-1, 1)
        signs.append(s)
    assert all(a == -b for a, b in zip(signs, signs[1:]))
    assert cf.power_certified_depth == len(signs)


def test_convergent_quality():
    # |log2 3 - p/q| < 1/q^2, checked against a 256-bit certified bracket:
    # scaled, |q^2 * X - p*q*scale| < scale for X anywhere in [lo, hi]
    lo, hi = log2_bounds(3, 1, 256)
    scale = 1 << 256
    cf = cf_log2_3(18)
    for p, q in convergents(cf):
        worst = max(abs(q * q * hi - p * q * scale), abs(q * q * lo - p * q * scale))
        assert worst < scale


def test_recurrence_holds():
    cf = cf_log2_3(20)
    conv = convergents(cf)
    for k in range(2, len(conv)):
        a = cf.quotients[k]
        assert conv[k][0] == a * conv[k - 1][0] + conv[k - 2][0]
        assert conv[k][1] == a * conv[k - 1][1] + conv[k - 2][1]


def test_intermediate_convergents():
    cf = cf_log2_3(8)
    inter = convergents(cf, include_intermediate=True)
    dens = [q for _, q in inter]
    assert dens == sorted(dens)
    # between q4=12 and q6=53 with a5=3 the intermediates are 41+12=53? no:
    # i*q5 + q4 for i=1,2 with a6=1 -> none; between q3=5 and q5=41, a5=3:
    # i*12 + 5 for i in 1..2 -> 17, 29
    assert 17 in dens and 29 in dens


def test_fixed_point_bounds_tight():
    lo, hi = log2_3_fixed(FRAC_BITS)
    assert hi - lo == 1
    # value is about 1.585 * 2^192
    assert lo >> (FRAC_BITS - 8) == int(1.5849625007 * 256)


def test_log2_with_reciprocal():
    lo3, hi3 = log2_3_fixed()
    lo, hi = log2_with_reciprocal_fixed(2**40)
    assert hi - lo == 1
    assert lo > hi3  # log2(3 + 2^-40) > log2 3
    # the window width is tiny but positive
    assert (lo - hi3) < 1 << (FRAC_BITS - 30)


def test_log2_bounds_exact_for_powers():
    lo, hi = log2_bounds(8, 1, 64)
    assert lo <= 3 * 2**64 < hi or lo == 3 * 2**64
    lo, hi = log2_bounds(1, 2, 64)
    assert lo <= -(2**64) <= hi


def test_log2_bounds_certified_below_one():
    # lo/2^6 <= log2(p/q) < hi/2^6 as 2^lo <= (p/q)^64 < 2^hi, in exact
    # integers; p < q once had the exponent one too high, e.g. (-256, -255)
    # for log2(1/3) 2^8 = -405.75
    assert log2_bounds(1, 3, 8) == (-406, -405)
    for p, q in itertools.product(range(1, 60), repeat=2):
        if gcd(p, q) != 1:
            continue
        lo, hi = log2_bounds(p, q, 6)
        assert hi - lo == 1
        assert p**64 << max(-lo, 0) >= q**64 << max(lo, 0)
        assert p**64 << max(-hi, 0) < q**64 << max(hi, 0)


def test_cf_log2_3_is_the_common_prefix_of_the_bracket_ends():
    lo, hi = log2_3_fixed(256)
    ends = [cf_rational((end, 1 << 256)).quotients for end in (lo, hi)]
    for depth in range(1, 65):
        assert cf_log2_3(depth).quotients == ends[0][:depth] == ends[1][:depth]


def test_cf_log2_3_refuses_a_bracket_that_never_agrees(monkeypatch):
    # a bracket 2^-8 wide at every precision splits the expansion at a_3
    def wide(bits):
        lo = log2_3_fixed(bits)[0]
        return lo, lo + (1 << (bits - 8))

    monkeypatch.setattr(cf_module, "log2_3_fixed", wide)
    assert cf_log2_3(3).quotients == [1, 1, 1]
    with pytest.raises(cf_module.PrecisionExhausted, match="did not stabilize"):
        cf_log2_3(12)


def test_log2_bounds_retries_at_a_larger_guard(monkeypatch):
    real = cf_module._log2_bounds_once
    want = {(p, q, b): log2_bounds(p, q, b)
            for p, q, b in itertools.product(range(1, 40), range(1, 40), (6, 64, 192))}
    guards = set()

    def fail_at_64(p, q, frac_bits, guard):
        guards.add(guard)
        if guard == 64:
            raise cf_module.PrecisionExhausted
        return real(p, q, frac_bits, guard)

    monkeypatch.setattr(cf_module, "_log2_bounds_once", fail_at_64)
    assert {key: log2_bounds(*key) for key in want} == want
    assert guards == {64, 128}
