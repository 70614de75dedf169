"""Coefficient stopping time and verification that it equals the stopping time.

After k steps the T iteration acts affinely: T^k(n) = coeff * n + offset
with coeff = 3^a / 2^k (a = odd steps so far).  The coefficient stopping
time of n is the first k with coeff < 1; it never exceeds the stopping
time, and the conjecture that the two always agree is checked here by the
classical route: a disagreement at (a, k) forces n <= B / (2^k - 3^a) for
an additive term B built from a prefix-dominating parity word, so maximal
B values over all dangerous exponent pairs produce a finite search bound
that a direct sweep then clears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Optional

from . import kernel
from .cf import cf_log2_3
from .maps import DEFAULT_MAGNITUDE_LIMIT, DEFAULT_STEP_LIMIT, _walk, t_map

DEFAULT_K_CAP = 4000


@dataclass
class CoeffStopRecord:
    n: int
    k: Optional[int]                  # coefficient stopping time; None if unresolved
    odd_steps: Optional[int]
    coeff: Optional[Fraction]         # 3^a / 2^k at k
    offset: Optional[Fraction]        # exact additive term at k
    stopping_time: Optional[int]      # for comparison

    @property
    def resolved(self) -> bool:
        return self.k is not None

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/coeffstop-v1",
            "n": str(self.n),
            "kappa": self.k,
            "odd_steps": self.odd_steps,
            "alpha": None if self.coeff is None else str(self.coeff),
            "beta": None if self.offset is None else str(self.offset),
            "sigma": self.stopping_time,
        }


def coeff_stop_record(n: int, step_limit: int = DEFAULT_STEP_LIMIT) -> CoeffStopRecord:
    """Exact coefficient stopping time kappa of n, read from one maps._walk
    path stopped at the first iterate below n, under the walker's limit
    policy (step_limit and DEFAULT_MAGNITUDE_LIMIT).

    kappa <= sigma, so that path holds every parity kappa depends on.
    (a, B) are built from its parities, and the affine identity
    T^kappa(n) = coeff * n + offset is checked against the path's own
    iterate; a failure raises ArithmeticError.
    """
    if n < 2 or step_limit < 1:
        raise ValueError("n must be >= 2 and step_limit >= 1")
    path, _, v = _walk(t_map(), n, range(1, n), step_limit, DEFAULT_MAGNITUDE_LIMIT)
    sigma = len(path) if v < n else None
    a = B = 0
    for k, x in enumerate(path, 1):
        if x & 1:
            B = 3 * B + (1 << (k - 1))
            a += 1
        if 3**a < 1 << k:
            break
    else:
        return CoeffStopRecord(n, None, None, None, None, sigma)
    coeff = Fraction(3**a, 1 << k)
    offset = Fraction(B, 1 << k)
    if coeff * n + offset != (path[k] if k < len(path) else v):
        raise ArithmeticError(f"affine identity failed at n={n}, k={k}")
    return CoeffStopRecord(n, k, a, coeff, offset, sigma)


@dataclass
class DangerousPair:
    odd_steps: int            # a
    k: int                    # = ceil(a * log2 3)
    counterexample_bound: int
    inequality_chain: str

    def to_dict(self) -> dict:
        return {
            "a": self.odd_steps,
            "k": self.k,
            "bound": self.counterexample_bound,
            "chain": self.inequality_chain,
        }


@dataclass
class CoeffStopReport:
    k_max: int
    verified: bool
    search_bound: int
    pairs: list[DangerousPair]
    counterexamples: list[int]
    swept: int
    convergent_denominators: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/coeffstop-verify-v1",
            "k_max": self.k_max,
            "verified": self.verified,
            "search_bound": self.search_bound,
            "pairs_examined": [p.to_dict() for p in self.pairs],
            "counterexamples": [str(c) for c in self.counterexamples],
            "swept": self.swept,
            "critical_denominators": self.convergent_denominators,
        }


def _crossing_maxima(k_max: int) -> list[tuple[int, int, int]]:
    """For every first-crossing pair (a, k <= k_max), the exact maximum of
    the additive term B over parity words whose prefixes all keep the
    coefficient at or above 1 (dominated words).

    Returns (a, k, B_max) triples in increasing k from one pass along the
    latest-odd-step word g, which is even at position j while 3^a >=
    2^(j+1) and odd otherwise.  Its odd count over positions 0..j-1 is the
    least a_j with 3^(a_j) >= 2^j, and an odd step at position j maps the
    offset B to 3B + 2^j (Terras 1976; Everett 1977).

    Pairs: a dominated word of length j crosses with an even step exactly
    when its odd count a has 2^j <= 3^a < 2^(j+1).  That a-interval is
    shorter than 1 / log2 3 < 1, so at most one a is dangerous per k, and
    since 3^(a_j + 1) >= 3 * 2^j it is a_j.  So the crossing pairs are the
    j where g would cross, and g records each just before its odd step.

    Maxima (exchange argument): let w be another dominated word of length
    j and write c_t for its odd count over positions 0..t-1, so c_t >= a_t
    with equality at t = j.  Take the largest t with c_t > a_t and the last
    odd position m < t of w.  Since c_(t+1) = a_(t+1) <= a_t + 1, w is even
    at positions m+1..t, and c_(m+1) = c_t > a_t >= a_(m+1).  Turning w's
    "10" at positions m, m+1 into "01" lowers only c_(m+1), by one, so the
    word stays dominated with the same a.  Over those two positions the
    offset goes from 3B + 2^m to 3B + 2^(m+1), and every later position
    maps B to B or to 3B + 2^s, both increasing in B, so the offset grows.
    Each exchange moves an odd step later, so repeating them ends at g,
    whose offset is therefore the maximum.
    """
    out: list[tuple[int, int, int]] = []
    a = B = 0
    p3 = 1  # 3^a
    for j in range(k_max):
        if p3 >= 1 << (j + 1):
            continue  # an even step keeps 3^a >= 2^(j+1)
        out.append((a, j + 1, B))  # an even step would cross here
        B = 3 * B + (1 << j)
        a += 1
        p3 *= 3
    return out


def verify_coefficient_conjecture(
    k_max: int,
    verified_conjecture_bound: Optional[int] = None,
) -> CoeffStopReport:
    """Certify that the coefficient stopping time equals the stopping time
    for every n whose coefficient stopping time is at most k_max.

    Any counterexample with crossing pair (a, k) satisfies
    n * (2^k - 3^a) <= B <= B_max(a, k), so sweeping all n up to the
    largest such bound settles the conjecture below k_max.  The bound for
    every examined pair and the exact inequality chain are reported.
    verified_conjecture_bound, when given, must dominate the search bound
    (it documents how far plain 3x+1 verification is assumed).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > DEFAULT_K_CAP:
        raise ValueError(f"k_max exceeds the cap {DEFAULT_K_CAP}")
    ranked = []
    for a, k, B in _crossing_maxima(k_max):
        den = (1 << k) - 3**a
        ranked.append((B // den, a, k, B, den))
    ranked.sort(key=lambda r: -r[0])  # stable: ties stay in increasing k
    bound = ranked[0][0]  # k_max >= 1 always records (0, 1, 0)
    # only the 64 largest bounds are reported, so only they get decimal strings
    pairs = [
        DangerousPair(
            odd_steps=a,
            k=k,
            counterexample_bound=nb,
            inequality_chain=(
                f"n*(2^{k} - 3^{a}) <= B_max = {B} with 2^{k} - 3^{a} = {den}, "
                f"so n <= {nb}"
            ),
        )
        for nb, a, k, B, den in ranked[:64]
    ]
    if verified_conjecture_bound is not None and bound > verified_conjecture_bound:
        raise ValueError(
            "search bound exceeds the stated verified-conjecture bound; "
            "raise it or lower k_max"
        )
    counterexamples = _sweep_for_disagreement(bound, k_max)
    # dangerous pairs should track convergent/intermediate denominators of
    # the continued fraction of log2 3; record the catalogue for the report
    top = max((p.odd_steps for p in pairs[:16]), default=1)
    dens = [q for q in _critical_denominators() if q <= top]
    return CoeffStopReport(
        k_max=k_max,
        verified=not counterexamples,
        search_bound=bound,
        pairs=pairs,
        counterexamples=counterexamples,
        swept=bound,
        convergent_denominators=dens,
    )


@cache
def _critical_denominators() -> tuple[int, ...]:
    """Convergent and intermediate denominators of log2 3 from 20 partial
    quotients, ascending; built on first use, not at import."""
    return tuple(q for _, q in cf_log2_3(20).convergents_with_intermediates())


def _sweep_for_disagreement(n_max: int, k_max: int) -> list[int]:
    """All n <= n_max whose coefficient stopping time is <= k_max but whose
    stopping time differs (vectorized, exact), by one loop over
    `kernel.descend_range`, which cuts 2..n_max into batches."""
    bad: list[int] = []
    for _, n_at, d in kernel.descend_range(2, n_max, DEFAULT_STEP_LIMIT, kappa=True):
        if len(d.unresolved):
            raise RuntimeError(f"coefficient sweep: n={n_at(d.unresolved[:1])[0]} did not "
                               f"drop below itself within {DEFAULT_STEP_LIMIT} steps")
        # kappa <= sigma always; disagreement iff kappa came strictly earlier
        late = (d.kappa != 0) & (d.kappa < d.steps) & (d.kappa <= k_max)
        bad.extend(n_at(late.nonzero()[0]).tolist())
    return bad


def residue_class_structure(k: int) -> bool:
    """Check that the coefficient stopping time with value j <= k is
    constant on residue classes mod 2^k (tested by shifting by 2^k)."""
    m = 1 << k
    for n in range(2, m + 2):
        r1 = coeff_stop_record(n)
        if r1.k is not None and r1.k <= k:
            r2 = coeff_stop_record(n + m)
            if r2.k != r1.k:
                return False
    return True
