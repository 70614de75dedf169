"""2-adic conjugacy permutation: parity prefixes, phi, order, conjugacy."""

import pytest

from collatzlab.twoadic import (
    _phi_table,
    conjugacy_check,
    inverse_consistency,
    odd_unit_restriction_is_permutation,
    parity_prefix,
    perm_analysis,
    phi_mod,
)


def test_parity_prefix_examples():
    assert parity_prefix(1, 4) == "1010"
    assert parity_prefix(-1, 4) == "1111"
    assert parity_prefix(7, 3) == "111"


def test_parity_prefix_class_invariance():
    for n in (3, 8, 12):
        for x in (5, 97, 1234):
            assert parity_prefix(x, n) == parity_prefix(x + (1 << n), n)


def test_phi_fixed_points():
    for n in (6, 10, 14):
        m = 1 << n
        inv3 = pow(3, -1, m)
        assert phi_mod(m - 1, n) == m - 1          # -1 is fixed
        assert phi_mod(inv3, n) == inv3            # 1/3 is fixed
        assert phi_mod(1, n) == (-inv3) % m        # {1, -1/3} is a 2-cycle
        assert phi_mod((-inv3) % m, n) == 1


def test_phi_truncation_consistency():
    # higher bits cannot influence phi mod 2^n
    for n in (5, 9):
        for x in (3, 77, 1021):
            assert phi_mod(x, n) == phi_mod(x + (1 << (n + 3)), n)


def test_phi_table_matches_scalar():
    for n in (4, 9):
        tab = _phi_table(n)
        for x in range(1 << n):
            assert tab[x] == phi_mod(x, n)


def test_perm_order_formula():
    for n in range(6, 15):
        rep = perm_analysis(n)
        assert rep.order == 1 << (n - 4)


def test_perm_is_bijection_with_parity_inverse():
    for n in (6, 10, 13):
        assert inverse_consistency(n)


def test_odd_restriction_permutes_units():
    for n in (6, 10, 13):
        assert odd_unit_restriction_is_permutation(n)


def test_fixed_point_band():
    for n in range(6, 15):
        rep = perm_analysis(n)
        assert 0.5 * n <= len(rep.odd_fixed_points) <= 4 * n


def test_conjugacy_small():
    rep = conjugacy_check(8)
    assert rep.ok and rep.checked == 256


def test_conjugacy_16():
    assert conjugacy_check(16).ok


def test_phi_table_restricts_to_the_lower_modulus():
    # conjugacy_check reads phi mod 2^(n-1) off the table mod 2^n
    for n in range(2, 17):
        half = 1 << (n - 1)
        assert (_phi_table(n)[:half] & (half - 1)).tolist() == _phi_table(n - 1).tolist()


def test_validation():
    with pytest.raises(ValueError):
        perm_analysis(3)
    with pytest.raises(ValueError):
        conjugacy_check(30)
    with pytest.raises(ValueError):
        phi_mod(1, 0)
