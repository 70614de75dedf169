"""Truncated 2-adic conjugacy: the parity-vector map, its inverse built
from inverse powers of 3, the induced permutation of Z/2^n, and the
conjugacy identity with the shift map.

Writing x = sum 2^(d_0) + 2^(d_1) + ... with d_0 < d_1 < ..., the
conjugacy inverse is phi(x) = -sum 3^-(j+1) * 2^(d_j).  Mod 2^n only the
bits below n matter (higher terms carry a factor 2^(d_j) = 0 mod 2^n and
3^-(j+1) is a 2-adic unit), so the truncation is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .kernel import t_step, t_step_int

N_MAX = 24


def parity_prefix(x: int, n: int) -> str:
    """First n parity bits of the T orbit of x; bit i is the parity of
    T^i(x).  Depends on x only through x mod 2^n."""
    if not 1 <= n <= 64:
        raise ValueError("n must be in 1..64")
    v = x % (1 << n)  # representative; first n parities agree classwide
    out = []
    for _ in range(n):
        out.append("1" if v & 1 else "0")
        v = t_step_int(v)
    return "".join(out)


def phi_mod(x: int, n: int) -> int:
    """The conjugacy map on residues: phi(x) mod 2^n."""
    if not 1 <= n <= 32:
        raise ValueError("n must be in 1..32")
    m = 1 << n
    inv3 = pow(3, -1, m)
    acc = 0
    coeff = inv3
    v = x % m
    for b in range(n):
        if (v >> b) & 1:
            acc = (acc + coeff * (1 << b)) % m
            coeff = (coeff * inv3) % m
    return (-acc) % m


def _phi_table(n: int) -> np.ndarray:
    """phi on all of Z/2^n as an int64 array, vectorized over bit ranks."""
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


def _parity_table(n: int) -> np.ndarray:
    """Packed parity prefixes of all residues mod 2^n (the inverse map)."""
    m = 1 << n
    v = np.arange(m, dtype=np.int64)
    out = np.zeros(m, dtype=np.int64)
    for i in range(n):
        v, odd = t_step(v)
        out |= odd << i
    return out


@dataclass
class PermutationReport:
    n: int
    order: int
    cycle_length_counts: dict[int, int]
    fixed_points: list[int]
    odd_fixed_points: list[int]

    @property
    def fixed_point_count(self) -> int:
        return len(self.fixed_points)

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/twoadic-perm-v1",
            "n": self.n,
            "order": self.order,
            "cycle_length_counts": {str(k): v for k, v in
                                    sorted(self.cycle_length_counts.items())},
            "fixed_point_count": self.fixed_point_count,
            "odd_fixed_point_count": len(self.odd_fixed_points),
            "fixed_points": self.fixed_points[:64],
        }


def perm_analysis(n: int) -> PermutationReport:
    """Cycle structure of the conjugacy permutation of Z/2^n: exact
    multiplicative order (lcm over cycle lengths) and fixed points."""
    if not 4 <= n <= N_MAX:
        raise ValueError(f"n must be in 4..{N_MAX}")
    tab = _phi_table(n)
    m = 1 << n
    seen = np.zeros(m, dtype=bool)
    order = 1
    counts: dict[int, int] = {}
    fixed: list[int] = []
    tab_list = tab.tolist()
    for s in range(m):
        if seen[s]:
            continue
        length = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = tab_list[x]
            length += 1
        counts[length] = counts.get(length, 0) + 1
        if length == 1:
            fixed.append(s)
        order = lcm(order, length)
    return PermutationReport(
        n=n,
        order=order,
        cycle_length_counts=counts,
        fixed_points=fixed,
        odd_fixed_points=[x for x in fixed if x % 2 == 1],
    )


@dataclass
class ConjugacyReport:
    n: int
    checked: int
    mismatches: list[int]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/twoadic-conjugacy-v1",
            "n": self.n,
            "checked": self.checked,
            "mismatches": self.mismatches[:16],
            "ok": self.ok,
        }


def conjugacy_check(n: int) -> ConjugacyReport:
    """Exhaustive check of T(phi(x)) = phi(S(x)) mod 2^(n-1) over Z/2^n,
    where S is the shift (x-1)/2 on odds, x/2 on evens.

    One bit is lost to the halving inside T and S, hence the modulus drop.
    phi mod 2^(n-1) on y < 2^(n-1) is phi mod 2^n reduced: y has no bit at
    n - 1, and 3^-1 mod 2^n reduces to 3^-1 mod 2^(n-1).  So one table
    serves both sides.
    """
    if not 4 <= n <= N_MAX:
        raise ValueError(f"n must be in 4..{N_MAX}")
    m = 1 << n
    x = np.arange(m, dtype=np.int64)
    tab = _phi_table(n)
    diff = t_step(tab)[0] ^ tab[x >> 1]  # S(x) = x >> 1 for odd and even x alike
    bad = np.nonzero(diff & ((m >> 1) - 1))[0]
    return ConjugacyReport(n, m, [int(b) for b in bad[:100]])


def inverse_consistency(n: int) -> bool:
    """The packed parity map inverts phi on Z/2^n."""
    tab = _phi_table(n)
    q = _parity_table(n)
    x = np.arange(1 << n, dtype=np.int64)
    return bool(np.array_equal(q[tab], x))


def odd_unit_restriction_is_permutation(n: int) -> bool:
    """phi restricted to odd residues permutes the odd residues."""
    tab = _phi_table(n)
    odds = np.arange(1, 1 << n, 2, dtype=np.int64)
    image = tab[odds]
    return bool(np.all(image % 2 == 1) and len(np.unique(image)) == len(odds))
