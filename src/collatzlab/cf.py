"""Exact continued fractions and certified fixed-point logarithms.

Everything that feeds the cycle-length machinery goes through this module,
so nothing here is allowed to round silently: partial quotients of log2(3)
are certified by exact integer comparisons (powers of 2 against powers of 3
for the early convergents, directed-rounding integer intervals beyond), and
the shared fixed-point constants carry proven two-sided error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

#: fractional bits of the shared fixed-point constants
FRAC_BITS = 192

#: hard cap on requested partial quotients
DEPTH_CAP = 64

#: certify convergents p/q by comparing 2^p with 3^q while q is below this
POWER_CERT_LIMIT = 10**6


class PrecisionExhausted(RuntimeError):
    """Raised when interval refinement hits its internal working cap."""


def _mantissa_interval(p: int, q: int, work: int) -> tuple[int, int, int]:
    """Return (e, lo, hi) with q*2^e <= p < q*2^(e+1) and
    lo/2^work <= (p/q)/2^e <= hi/2^work, hi - lo <= 1."""
    e = p.bit_length() - q.bit_length()
    if q << max(e, 0) > p << max(-e, 0):  # q 2^e > p, in integers
        e -= 1
    if e >= 0:
        num, den = p << work, q << e
    else:
        num, den = p << (work - e), q
    lo = num // den
    hi = lo if num % den == 0 else lo + 1
    return e, lo, hi


def log2_bounds(p: int, q: int, frac_bits: int = FRAC_BITS) -> tuple[int, int]:
    """Certified integer bounds on log2(p/q) scaled by 2^frac_bits.

    Returns (lo, hi) with lo <= log2(p/q) * 2^frac_bits < hi and
    hi - lo <= 1; p/q must be a positive rational > 0.

    The fractional bits are extracted by repeated interval squaring with
    directed rounding, so every emitted bit is backed by an exact integer
    comparison against a power of two.
    """
    if p <= 0 or q <= 0:
        raise ValueError("log2_bounds requires a positive rational")
    guard = 64
    while guard <= 4096:
        try:
            return _log2_bounds_once(p, q, frac_bits, guard)
        except PrecisionExhausted:
            guard *= 2
    raise PrecisionExhausted("log2 interval failed to separate at max guard")


def _log2_bounds_once(p: int, q: int, frac_bits: int, guard: int) -> tuple[int, int]:
    work = frac_bits + guard
    e, lo, hi = _mantissa_interval(p, q, work)
    one = 1 << work
    two = 2 << work
    frac = 0
    for _ in range(frac_bits):
        lo = (lo * lo) >> work
        hi = ((hi * hi) >> work) + 1
        frac <<= 1
        if lo >= two:
            frac |= 1
            lo >>= 1
            hi = (hi + 1) >> 1
        elif hi >= two:  # the square straddles 2: this bit is undecided
            raise PrecisionExhausted
        if hi - lo > one:  # interval degenerated; cannot certify remaining bits
            raise PrecisionExhausted
    scaled = (e << frac_bits) + frac
    return scaled, scaled + 1


@lru_cache(maxsize=None)
def log2_3_fixed(frac_bits: int = FRAC_BITS) -> tuple[int, int]:
    """Shared certified bounds on log2(3) * 2^frac_bits."""
    return log2_bounds(3, 1, frac_bits)


def log2_with_reciprocal_fixed(d: int, frac_bits: int = FRAC_BITS) -> tuple[int, int]:
    """Certified bounds on log2(3 + 1/d) * 2^frac_bits for integer d >= 1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return log2_bounds(3 * d + 1, d, frac_bits)


def compare_power2_power3(p: int, q: int) -> int:
    """Sign of 2^p - 3^q by exact big-integer comparison (never 0 for q >= 1)."""
    a, b = 1 << p, 3**q
    if a == b:
        return 0
    return 1 if a > b else -1


@dataclass
class ContinuedFraction:
    """A continued-fraction expansion with exact convergents.

    quotients are the partial quotients a_0, a_1, ...; power_certified_depth
    counts the leading convergents that cf_log2_3 checked against powers of
    2 and 3 (0 for cf_rational).
    """

    quotients: list[int]
    power_certified_depth: int = 0

    def convergents(self) -> list[tuple[int, int]]:
        """Exact convergent pairs (p_k, q_k) via the standard recurrence."""
        pm1, pm2, qm1, qm2 = 1, 0, 0, 1
        conv = []
        for a in self.quotients:
            pk = a * pm1 + pm2
            qk = a * qm1 + qm2
            conv.append((pk, qk))
            pm2, pm1, qm2, qm1 = pm1, pk, qm1, qk
        return conv

    def convergents_with_intermediates(self) -> list[tuple[int, int]]:
        """Convergents plus intermediate convergents, ascending denominators.

        Between c_k and c_(k+2) the intermediate fractions are
        (i*p_(k+1) + p_k) / (i*q_(k+1) + q_k) for 1 <= i < a_(k+2).
        """
        conv = self.convergents()
        out = list(conv[:2]) if len(conv) >= 2 else list(conv)
        for k in range(2, len(conv)):
            a = self.quotients[k]
            pk1, qk1 = conv[k - 1]
            pk2, qk2 = conv[k - 2]
            for i in range(1, a):
                out.append((i * pk1 + pk2, i * qk1 + qk2))
            out.append(conv[k])
        out.sort(key=lambda t: t[1])
        return out


def cf_rational(value: Fraction | tuple[int, int]) -> ContinuedFraction:
    """Terminating continued fraction of a rational number."""
    frac = Fraction(*value) if isinstance(value, tuple) else Fraction(value)
    p, q = frac.numerator, frac.denominator
    quotients = []
    while q:
        a, r = divmod(p, q)
        quotients.append(a)
        p, q = q, r
    return ContinuedFraction(quotients)


def cf_log2_3(depth: int) -> ContinuedFraction:
    """First `depth` partial quotients of log2(3), exactly certified.

    The quotients are the common prefix of cf_rational on both ends of the
    certified bracket lo/2^bits < log2(3) < hi/2^bits of log2_3_fixed(bits),
    at bits = 256, 512, ..., 8192: every number in the bracket shares the
    quotients on which the two ends agree.  The first bits at which both
    expansions reach `depth` quotients and agree on them gives the result;
    if none does, PrecisionExhausted.  Every convergent p/q with
    q <= POWER_CERT_LIMIT is additionally certified by the direct
    comparison of 2^p against 3^q (signs must alternate, which pins the
    convergents of an irrational target).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > DEPTH_CAP:
        raise ValueError(f"depth capped at {DEPTH_CAP}")
    for bits in (256, 512, 1024, 2048, 4096, 8192):
        lo, hi = (cf_rational((end, 1 << bits)).quotients[:depth] for end in log2_3_fixed(bits))
        if len(lo) == depth and lo == hi:
            cf = ContinuedFraction(lo)
            cf.power_certified_depth = _power_certify(cf)
            return cf
    raise PrecisionExhausted("continued fraction prefix did not stabilize")


def _power_certify(cf: ContinuedFraction) -> int:
    """Certify convergent directions by exact power comparison.

    For each convergent p/q with q <= POWER_CERT_LIMIT, sign(2^p - 3^q)
    equals sign(p/q - log2 3) and must alternate with index.  Returns the
    number of certified convergents.
    """
    certified = 0
    expected = None
    for p, q in cf.convergents():
        if q > POWER_CERT_LIMIT:
            break
        s = compare_power2_power3(p, q)
        if s == 0:
            raise ArithmeticError("2^p == 3^q is impossible for q >= 1")
        if expected is not None and s != expected:
            raise ArithmeticError(
                f"convergent {p}/{q} fails the power-comparison alternation"
            )
        expected = -s
        certified += 1
    return certified


def convergents(cf: ContinuedFraction, include_intermediate: bool = False) -> list[tuple[int, int]]:
    """Convergent pairs of a populated expansion.

    With include_intermediate, intermediate convergents are interleaved in
    increasing-denominator order.
    """
    if not cf.quotients:
        raise ValueError("continued fraction has no quotients")
    if include_intermediate:
        return cf.convergents_with_intermediates()
    return cf.convergents()
