"""Truncated 2-adic conjugacy: the parity-vector map, its inverse built
from inverse powers of 3, the induced permutation of Z/2^n, and the
conjugacy identity with the shift map.

Writing x = sum 2^(d_0) + 2^(d_1) + ... with d_0 < d_1 < ..., the
conjugacy inverse is phi(x) = -sum 3^-(j+1) * 2^(d_j).  Mod 2^n only the
bits below n matter (higher terms carry a factor 2^(d_j) = 0 mod 2^n and
3^-(j+1) is a 2-adic unit), so the truncation is well defined.

Both tables over Z/2^n are lifted from 2^b to 2^(b+1) residues: the
parity table is the packed word column `kernel.lift(n)[3]`, and
phi(x + 2^b) = phi(x) - 3^-(rank(x)+1) 2^b for x < 2^b with rank(x) one
bits.  A single parity prefix takes n steps of `maps.t_map()`, the map
the walker runs, and goes on through a cycle where the walker would stop
at a repeat.  The cycles of phi are read by doubling, P_(j+1) = P_j o P_j
from P_0 = phi: x has period 2^j at the first j with P_j(x) = x.  Every
period is a power of 2 (Bernstein and Lagarias 1996); a residue with no
such j <= n raises ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import lift, t_step
from .maps import t_map

N_MAX = 24


def _check_n(n: int) -> None:
    if not 4 <= n <= N_MAX:
        raise ValueError(f"n must be in 4..{N_MAX}")


def parity_prefix(x: int, n: int) -> str:
    """First n parity bits of the T orbit of x; bit i is the parity of
    T^i(x).  Depends on x only through x mod 2^n."""
    if not 1 <= n <= 64:
        raise ValueError("n must be in 1..64")
    v = x % (1 << n)  # representative; first n parities agree classwide
    out = []
    for _ in range(n):
        out.append("1" if v & 1 else "0")
        v = t_map().step(v)
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
    """phi on all of Z/2^n as an int64 array, lifted on bit rank."""
    mask = (1 << n) - 1
    inv_pows = np.array([pow(3, -(j + 1), 1 << n) for j in range(n)], dtype=np.int64)
    phi = np.zeros(1, dtype=np.int64)
    rank = np.zeros(1, dtype=np.uint8)
    for b in range(n):
        phi = np.concatenate((phi, (phi - (inv_pows[rank] << b)) & mask))
        rank = np.concatenate((rank, rank + 1))
    return phi


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
    """Cycle structure of the conjugacy permutation of Z/2^n by doubling:
    exact multiplicative order (the largest period) and fixed points."""
    _check_n(n)
    x = np.arange(1 << n, dtype=np.int32)
    p = _phi_table(n).astype(np.int32)
    e = np.zeros(1 << n, dtype=np.int8)  # x has period 2^e(x)
    for _ in range(n + 1):
        moved = p != x
        if not moved.any():
            break
        e += moved
        p = p[p]
    else:
        raise ArithmeticError(f"a residue mod 2^{n} has no period 2^j with j <= {n}")
    sizes = np.bincount(e)  # no sort: e has 2^n entries, all in 0..n
    exps = np.flatnonzero(sizes)
    counts = {1 << int(j): int(sizes[j]) >> int(j) for j in exps}
    fixed = np.flatnonzero(e == 0).tolist()
    return PermutationReport(n, 1 << int(exps[-1]), counts, fixed, [x for x in fixed if x & 1])


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
    _check_n(n)
    m = 1 << n
    x = np.arange(m, dtype=np.int64)
    tab = _phi_table(n)
    diff = t_step(tab)[0] ^ tab[x >> 1]  # S(x) = x >> 1 for odd and even x alike
    bad = np.nonzero(diff & ((m >> 1) - 1))[0]
    return ConjugacyReport(n, m, [int(b) for b in bad[:100]])


def inverse_consistency(n: int) -> bool:
    """The packed parity map inverts phi on Z/2^n."""
    _check_n(n)
    return bool(np.array_equal(lift(n)[3][_phi_table(n)], np.arange(1 << n)))


def odd_unit_restriction_is_permutation(n: int) -> bool:
    """phi restricted to odd residues permutes the odd residues."""
    _check_n(n)
    tab = _phi_table(n)
    odds = np.arange(1, 1 << n, 2, dtype=np.int64)
    image = tab[odds]
    return bool(np.all(image % 2 == 1) and len(np.unique(image)) == len(odds))
