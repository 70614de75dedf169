"""2-adic conjugacy permutation: parity prefixes, phi, order, conjugacy."""

from math import lcm

import numpy as np
import pytest

from collatzlab import twoadic
from collatzlab.kernel import t_step
from collatzlab.twoadic import (
    _parity_table,
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


def phi_table_by_bits(n):
    """The former `_phi_table`: one pass over all of Z/2^n per bit."""
    m = 1 << n
    inv3 = pow(3, -1, m)
    x = np.arange(m, dtype=np.int64)
    mask = np.int64(m - 1)
    acc = np.zeros(m, dtype=np.int64)
    rank = np.zeros(m, dtype=np.int64)
    inv_pows = np.array([pow(inv3, j + 1, m) for j in range(n + 1)], dtype=np.int64)
    for b in range(n):
        bit = (x >> b) & 1
        term = (inv_pows[rank] << b) & mask
        acc = (acc + np.where(bit == 1, term, 0)) & mask
        rank += bit
    return (-acc) & mask


def parity_table_by_steps(n):
    """The former `_parity_table`: n T-steps of every residue mod 2^n."""
    v = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        v, odd = t_step(v)
        out |= odd << i
    return out


def perm_analysis_by_walk(n):
    """The former `perm_analysis`: walk every cycle of phi, order by lcm."""
    tab = _phi_table(n).tolist()
    seen = [False] * len(tab)
    order, counts, fixed = 1, {}, []
    for s in range(len(tab)):
        length, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = tab[x]
            length += 1
        if length:
            counts[length] = counts.get(length, 0) + 1
            fixed += [s] if length == 1 else []
            order = lcm(order, length)
    return order, counts, fixed


@pytest.mark.parametrize("n", range(4, 17))
def test_tables_and_perm_match_the_former_code(n):
    assert np.array_equal(_phi_table(n), phi_table_by_bits(n))
    assert np.array_equal(_parity_table(n), parity_table_by_steps(n))
    rep = perm_analysis(n)
    order, counts, fixed = perm_analysis_by_walk(n)
    assert (rep.order, rep.cycle_length_counts, rep.fixed_points) == (order, counts, fixed)
    assert rep.odd_fixed_points == [x for x in fixed if x % 2 == 1]
    assert rep.to_dict() == {
        "schema": "collatzlab/twoadic-perm-v1",
        "n": n,
        "order": order,
        "cycle_length_counts": {str(k): v for k, v in sorted(counts.items())},
        "fixed_point_count": len(fixed),
        "odd_fixed_point_count": len(rep.odd_fixed_points),
        "fixed_points": fixed[:64],
    }


def test_perm_analysis_20():
    rep = perm_analysis(20)
    assert rep.order == 65536 and rep.fixed_point_count == 254


def test_perm_analysis_rejects_a_period_that_is_not_a_power_of_two(monkeypatch):
    three_cycle = np.arange(16, dtype=np.int64)
    three_cycle[:3] = [1, 2, 0]
    monkeypatch.setattr(twoadic, "_phi_table", lambda n: three_cycle)
    with pytest.raises(ArithmeticError):
        perm_analysis(4)


def test_validation():
    # every table entry point checks n before it allocates 2^n entries
    for entry in (perm_analysis, conjugacy_check, inverse_consistency,
                  odd_unit_restriction_is_permutation):
        for n in (-1, 0, 3, twoadic.N_MAX + 1, 30, 64):
            with pytest.raises(ValueError):
                entry(n)
    with pytest.raises(ValueError):
        phi_mod(1, 0)
