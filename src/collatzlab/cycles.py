"""Cycle algebra: parity-word cycle values, rational cycles of 3x+d maps,
the circuit-cycle Diophantine equation, and cycle-length lower bounds from
the continued fraction of log2 3.

A parity word w of length n with m ones determines the affine composite
T_w(x) = (3^m x + B) / 2^n, whose unique fixed point
x = B / (2^n - 3^m) is the only candidate cycle value along w.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Optional

import numpy as np

from .cf import FRAC_BITS, log2_3_fixed, log2_bounds, log2_with_reciprocal_fixed
from .maps import CycleRecord, _canonical_rotation, _walk, three_x_plus_d


def word_offset(parity: str) -> tuple[int, int]:
    """(m, B) for the affine composite along the 0/1 word."""
    B = 0
    m = 0
    for j, bit in enumerate(parity):
        if bit == "1":
            B = 3 * B + (1 << j)
            m += 1
        elif bit != "0":
            raise ValueError("parity word must be over {0,1}")
    return m, B


def cycle_value(parity: str) -> Fraction:
    """The unique rational fixed point of the composite along the word."""
    if not parity:
        raise ValueError("parity word must be nonempty")
    n = len(parity)
    m, B = word_offset(parity)
    den = (1 << n) - 3**m
    # den = 0 would need 2^n = 3^m, impossible for n >= 1
    return Fraction(B, den)


def replay_word(parity: str, x: Fraction | int, d: int = 1) -> Fraction:
    """Apply the 3x+d composite along the 0/1 word (d=1 gives plain T)."""
    v = Fraction(x)
    for bit in parity:
        if bit not in "01":
            raise ValueError("parity word must be over {0,1}")
        v = (3 * v + d) / 2 if bit == "1" else v / 2
    return v


def _necklace_words(n: int) -> Iterable[tuple[int, ...]]:
    """Binary necklaces of length n (lexicographically least rotations),
    by the standard FKM generation."""
    w = [0] * (n + 1)

    def gen(t: int, p: int):
        if t > n:
            if n % p == 0:
                yield tuple(w[1:n + 1])
        else:
            w[t] = w[t - p]
            yield from gen(t + 1, p)
            for v in range(w[t - p] + 1, 2):
                w[t] = v
                yield from gen(t + 1, t)

    yield from gen(1, 1)


@dataclass
class RationalCycleReport:
    d: int
    max_period: int
    cycles: list[CycleRecord]

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/rational-cycles-v1",
            "d": self.d,
            "max_period": self.max_period,
            "cycles": [
                {"min": c.min_element, "period": c.period, "elements": list(c.elements)}
                for c in self.cycles
            ],
        }


def rational_cycles_3xd(d: int, max_period: int) -> RationalCycleReport:
    """All positive integer cycles of the (3x+d)/2-or-x/2 map with period at
    most max_period and elements coprime to d, by exact evaluation of the
    cycle value over parity necklaces followed by replay verification.

    A candidate x of a word of length p is replayed by one maps._walk call
    of at most p steps, which stops at the first repeated iterate.  It is a
    cycle only if the walk returns to x after exactly p steps (so the word
    is not a repeat of a shorter cycle's) with the word as its parities.

    These are in bijection with rational cycles x/d of the 3x+1 map.
    """
    if d < 1 or d % 2 == 0 or d % 3 == 0:
        raise ValueError("d must be odd, positive, and coprime to 3 (d = +/-1 mod 6)")
    if max_period > 40:
        raise ValueError("necklace enumeration capped at period 40")
    spec = three_x_plus_d(d)
    found: dict[tuple[int, ...], CycleRecord] = {}
    for period in range(1, max_period + 1):
        for word in _necklace_words(period):
            m, B = word_offset("".join(map(str, word)))
            den = (1 << period) - 3**m
            num = d * B
            if num % den:  # den is odd, so never 0
                continue
            x = num // den
            if x <= 0 or gcd(x, d) != 1:
                continue
            # replay: the walk must close at x along the whole word, so
            # after exactly period steps.  Every element of a cycle is
            # d B' / den for the B' < 6^period of its rotation, so the
            # magnitude limit never trips.
            path, _, v = _walk(spec, x, (), period, d << 3 * period)
            if v != x or tuple(u & 1 for u in path) != word:
                continue
            canon = _canonical_rotation(path)
            found.setdefault(canon, CycleRecord(canon, f"3x+d:{d}"))
    cycles = sorted(found.values(), key=lambda c: (c.period, c.min_element))
    for c in cycles:
        if not c.verify(spec):
            raise ArithmeticError(f"cycle {c.elements} does not replay under 3x+{d}")
    return RationalCycleReport(d, max_period, cycles)


# ---------------------------------------------------------------------------
# circuit-cycle Diophantine equation


@dataclass
class CircuitSolution:
    k: int
    l: int
    h: int

    def to_tuple(self) -> tuple[int, int, int]:
        return (self.k, self.l, self.h)


def circuit_solutions(
    k_max: int,
    l_max: int,
    h_range: tuple[int, int] = (-(10**9), 10**9),
) -> list[CircuitSolution]:
    """Integer solutions of (2^(k+l) - 3^k) * h = 2^l - 1 inside the box.

    k >= 1 counts odd steps, l >= 0 even steps; a solution describes a
    single odd-run/even-run circuit that closes into a cycle.
    """
    if k_max > 200 or l_max > 200:
        raise ValueError("exponent bounds capped at 200")
    out = []
    h_lo, h_hi = h_range
    for k in range(1, k_max + 1):
        for l in range(0, l_max + 1):
            den = (1 << (k + l)) - 3**k
            num = (1 << l) - 1
            if num % den:  # den is odd, so never 0
                continue
            h = num // den
            if h_lo <= h <= h_hi:
                out.append(CircuitSolution(k, l, h))
    return out


# ---------------------------------------------------------------------------
# cycle-length lower bounds


def best_packed_min_element(n: int, p: int) -> Fraction:
    """Largest possible minimal element of a positive cycle with n odd steps
    and period p: the halving schedule c_i = floor(i*p/n) (the balanced
    packing) maximizes the minimal element, whose exact value is
    sum_i 3^(n-1-i) 2^(c_i) / (2^p - 3^n).

    Exact; packed_bound_exceeds reaches it only to settle a tie M == D,
    which no certified bracket can (_packed_sum_bounds scales to n in the
    tens of millions).
    """
    if n < 1 or p < 1:
        raise ValueError("need positive n, p")
    den = (1 << p) - 3**n
    if den <= 0:
        raise ValueError("need 2^p > 3^n")
    S = 0
    pw = 3 ** (n - 1)
    for i in range(n):
        S += pw << ((i * p) // n)
        if i < n - 1:
            pw //= 3
    return Fraction(S, den)


def _packed_sum_bounds(n: int, p: int, work_bits: int) -> tuple[int, int]:
    """Certified integer bounds (lo, hi) with
    lo <= S / 3^(n-1) * 2^work_bits <= hi for the balanced-packing sum S.

    Q = S / 3^(n-1) = sum_i 2^(c_i) / 3^i with c_i = floor(i p / n).  The
    descending Horner recursion Q_(n-1) = 1, Q_k = 1 + 2^(c_(k+1) - c_k)
    Q_(k+1) / 3 ends at Q_0 = Q.  With the letters U: x -> 2x and
    V: x -> 1 + x/3, it applies U^(d_j) and then V for j = 1..n-1, where
    d_j = c_(n-j) - c_(n-j-1).  Since c_(n-j) = p - ceil(j p / n), and
    ceil(j p / n) = q + 1 + f(j - 1) for p - 1 = q n + r, 0 <= r < n and
    f(i) = floor((p i + r) / n), this is d_j = f(j) - f(j - 1): the ceil
    form of the staircase, with f(0) = 0.

    That word is the cutting sequence of the line y = (p x + r) / n, so
    `word` builds its product by the universal Euclidean recursion along
    the continued fraction of p/n.  If P >= N, each v absorbs the
    u^(P // N) in front of it; otherwise, between a head v^k u and a tail
    of v's, the axes swap and the word is one of the same kind in (N, P)
    with u and v exchanged.  That is O(log n) levels and O(log^2 n)
    products, with binary powering.

    An element x -> a x + b is held as (a_lo, a_hi, b_lo, b_hi), bounds on
    a 2^W and b 2^W at W = work_bits + 64.  Composing gives a = a2 a1 and
    b = a2 b1 + b2, which increase in every nonnegative entry, so the floor
    of the lower products and the ceil of the upper ones are again bounds.
    By induction that holds for any number and order of products; only the
    width depends on them, and the 64 guard bits absorb it (at most 2 units
    of 2^-work_bits was seen for 0 < delta < 2 and n up to 1e8).
    """
    W = work_bits + 64
    one = 1 << W

    def mul(f, g):  # f, then g
        return ((g[0] * f[0]) >> W, -(-g[1] * f[1] >> W),
                ((g[0] * f[2]) >> W) + g[2], -(-g[1] * f[3] >> W) + g[3])

    def power(f, k):
        out = (one, one, 0, 0)
        while k:
            if k & 1:
                out = mul(out, f)
            k >>= 1
            if k:
                f = mul(f, f)
        return out

    def word(P, N, R, L, u, v):
        # u^(f(1) - f(0)) v ... u^(f(L) - f(L-1)) v, f(i) = (P i + R) // N, 0 <= R < N
        if P >= N:
            return word(P % N, N, R, L, u, mul(power(u, P // N), v))
        m = (P * L + R) // N
        if m == 0:
            return power(v, L)
        head = mul(power(v, (N - R - 1) // P), u)
        tail = power(v, L - (N * m - R - 1) // P)
        return mul(mul(head, word(N, P, (N - R - 1) % P, m - 1, v, u)), tail)

    a_lo, a_hi, b_lo, b_hi = word(p, n, (p - 1) % n, n - 1, (2 * one, 2 * one, 0, 0),
                                  (one // 3, one // 3 + 1, one, one))
    return (a_lo + b_lo) >> 64, -(-(a_hi + b_hi) >> 64)


def packed_bound_exceeds(n: int, p: int, D: int) -> bool:
    """Certified decision of best_packed_min_element(n, p) > D, for D >= 1.

    (n, p) is first reduced by gcd(n, p): a repeated word has the same
    minimal element.  The decision is _packed_exceeds_log2, which forms no
    power of 3.  It raises only on a tie M == D (the trivial cycle (1, 2) at
    D = 1), or where no precision separates its brackets; only then is M
    formed exactly.
    """
    if n < 1 or p < 1 or D < 1:
        raise ValueError("need positive n, p, D")
    g = gcd(n, p)
    n, p = n // g, p // g
    try:
        return _packed_exceeds_log2(n, p, D)
    except ArithmeticError:
        return 3**n < (1 << p) and best_packed_min_element(n, p) > D


def _packed_exceeds_log2(n: int, p: int, D: int) -> bool:
    """M > D for M = best_packed_min_element(n, p), from fixed-point
    brackets of delta = p - n log2 3 at w = 320, 640 and 1280 bits.

    If delta < 0 then 2^p < 3^n, the cycle denominator 2^p - 3^n is
    negative and no positive cycle exists, so the answer is False.

    For 0 < delta < 1 a bracket on M comes first.  Every term of the packed
    sum is within a factor of two of 3^(n-1) (the halving staircase stays
    within one unit of the line i*p/n, whose slope is at least log2 3), so
    n/(6 delta) <= M < n/delta.  That settles pairs far from the threshold,
    and never a tie: M is rational and n/delta is not, so its False side
    has M < D.

    Otherwise, with Q = S / 3^(n-1) and 2^p - 3^n = 3^n (2^delta - 1),
    M = Q / (3 (2^delta - 1)).  So for delta > 0, M > D holds exactly when
    delta < log2(1 + Q/(3D)) = log2((3D 2^w + Q 2^w) / (3D 2^w)).  Q 2^w is
    bracketed by _packed_sum_bounds, and the right-hand side by log2_bounds,
    which is increasing in Q.  One bracket [L, L + 1) at q_lo serves both
    ends when q_hi - q_lo <= 2D: since t = 3D 2^w and ln(1 + u) <= u, the
    rest of the way to q_hi adds log2((t + q_hi)/(t + q_lo)) 2^w <=
    (q_hi - q_lo)/(3D ln 2) < 1, so the right-hand side at q_hi is below
    L + 2.  If M == D, or no precision separates the brackets,
    ArithmeticError.
    """
    for w in (320, 640, 1280):
        lo3, hi3 = log2_3_fixed(w)
        d_lo, d_hi = (p << w) - n * hi3, (p << w) - n * lo3  # d_lo < delta 2^w <= d_hi
        if d_hi <= 0:
            return False  # delta < 0: no positive cycle value
        if 0 < d_lo and d_hi < 1 << w:  # 0 < delta < 1
            if 6 * D * d_hi < n << w:
                return True  # M >= n/(6 delta) > D
            if D * d_lo >= n << w:
                return False  # M < n/delta <= D
        q_lo, q_hi = _packed_sum_bounds(n, p, w)
        t = (3 * D) << w
        r_lo, r_hi = log2_bounds(t + q_lo, t, w)
        if q_hi - q_lo <= 2 * D:
            r_hi = r_lo + 2  # log2((t + q_hi)/(t + q_lo)) 2^w <= 2/(3 ln 2) < 1
        else:
            r_hi = log2_bounds(t + q_hi, t, w)[1]
        if d_lo >= 0 and d_hi < r_lo:
            return True
        if d_lo >= r_hi:
            return False
    raise ArithmeticError("packed-bound interval failed to separate")


_M64 = 1 << 64


def _first_multiple_hit(a: int, m: int, l: int, r: int) -> Optional[int]:
    """Least x >= 0 with l <= a*x mod m <= r, for 0 <= a < m and
    0 <= l <= r < m, or None when there is none.  Euclid's descent:
    O(log m) calls."""
    if l == 0:
        return 0
    if a == 0:
        return None
    x = -(-l // a)
    if a * x <= r:  # hit on the first lap; a later lap needs a*x >= m > r
        return x
    # [l, r] lies strictly between two multiples of a.  Lap y (a*x - m*y in
    # [l, r]) has a hit iff m*y mod a is in [a - r % a, a - l % a], and x
    # grows with y, so the least such y gives the least x.
    y = _first_multiple_hit(m % a, a, a - r % a, a - l % a)
    return None if y is None else -(-(l + m * y) // a)


def _first_hit(a: int, b: int, lo: int, hi: int) -> Optional[int]:
    """Least k >= 0 with lo <= (a*k + b) mod 2^64 <= hi, or None."""
    l, r = (lo - b) % _M64, (hi - b) % _M64
    if l > r:  # the shifted interval wraps past 0: b itself lies in [lo, hi]
        return 0
    return _first_multiple_hit(a % _M64, _M64, l, r)


def _band_hits(lo: int, hi: int, theta: int, width: int) -> Iterator[tuple[int, int]]:
    """The n in [lo, hi] whose residue n*theta mod 2^64 lies in the top band
    [2^64 - width, 2^64), ascending, as (n, offset of the residue into the
    band), in O(hits + log 2^64) steps, for width <= 2^63.  theta is odd,
    so n -> n*theta is a bijection mod 2^64 and every search below finds
    its residue.

    Successive hits are walked by the three-distance theorem for return
    times (V. T. Sós 1958; Slater 1967).  On the band, with y the offset
    of a hit, a shift by t moves y by the signed residue s(t) of t*theta,
    and a return needs |s(t)| < width.  Let
    t+ be the least t >= 1 with 0 <= s(t) < width (s = alpha) and t- the
    least with -width < s(t) < 0 (s = -beta).  Then alpha + beta >= width,
    or t+ - t- (or t- - t+) would be a shorter shift of the same kind.  The
    next hit after y is:

    * y + alpha after t+, if y + alpha < width.  No t < t+ lands: a
      forward shift is minimal at t+, and a backward one below t+ has
      |s| >= beta > y, since otherwise t - t- < t+ would shift by
      s + beta in (0, beta).
    * else y - beta after t-, if y >= beta; symmetric.
    * else y + alpha - beta after t+ + t-, which lies in [0, width).  A t
      below that landing forward has s(t) < alpha, so t - t+ < t- shifts
      backward by s(t) - alpha in (-width, 0); one landing backward has
      |s(t)| < beta, so t - t- < t+ shifts forward by s(t) + beta in
      (0, width).  Both contradict minimality.
    """
    base = _M64 - width
    t_fwd = 1 + _first_hit(theta, theta, 0, width - 1)
    t_bwd = 1 + _first_hit(theta, theta, base + 1, _M64 - 1)
    alpha = t_fwd * theta % _M64
    beta = _M64 - t_bwd * theta % _M64
    n = lo + _first_hit(theta, lo * theta, base, _M64 - 1)
    y = n * theta % _M64 - base
    while n <= hi:
        yield n, y
        if y + alpha < width:
            n, y = n + t_fwd, y + alpha
        elif y >= beta:
            n, y = n + t_bwd, y - beta
        else:
            n, y = n + t_fwd + t_bwd, y + alpha - beta


def _window_candidates(theta: int, d: int, lo: int, hi: int) -> Iterator[int]:
    """The n in [lo, hi] (lo >= 1), ascending, with 2^64 - 1 -
    (n*theta mod 2^64) < n*d + 8, for d < 2^64, listed per dyadic range
    [2^i, 2^(i+1)) from the band of the range's largest width
    2^(i+1)*d + 8.

    A band wider than half the circle catches about half of the range or
    more, so there each n is tested, in uint64 blocks: the residue wraps
    mod 2^64 exactly, and gap < n*d + 8 is decided as gap < 8 or
    floor((gap - 8) / d) < n, so n*d is never formed."""
    i = lo.bit_length() - 1
    while 1 << i <= hi:
        width = (2 << i) * d + 8
        a, b = max(lo, 1 << i), min((2 << i) - 1, hi)
        if 2 * width > _M64:
            for start in range(a, b + 1, 1 << 16):
                n = np.arange(start, min(start + (1 << 16), b + 1), dtype=np.uint64)
                gap = ~(n * np.uint64(theta))  # 2^64 - 1 - residue
                yield from n[(gap < 8) | ((gap - np.uint64(8)) // np.uint64(d) < n)].tolist()
        else:
            for n, y in _band_hits(a, b, theta, width):
                if width - 1 - y < n * d + 8:  # 2^64 - 1 - residue < n*d + 8
                    yield n
        i += 1


@dataclass
class CycleBoundReport:
    verification_bound: int            # D: conjecture assumed checked below D
    min_odd_terms: Optional[int]
    min_period: Optional[int]
    feasible_periods: list[int]        # window-criterion periods <= cutoff, ascending
    period_cutoff: int
    scanned_odd_terms: int
    window_constants_hex: dict = field(default_factory=dict)
    boundary_exact_checks: int = 0
    packing_rejections: list[tuple[int, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/cycle-bound-v1",
            "verified_below": str(self.verification_bound),
            "min_odd_terms": self.min_odd_terms,
            "min_period": self.min_period,
            "feasible_periods_below_cutoff": self.feasible_periods[:64],
            "feasible_period_count": len(self.feasible_periods),
            "period_cutoff": self.period_cutoff,
            "window_constants": self.window_constants_hex,
            "boundary_exact_checks": self.boundary_exact_checks,
            "packing_rejections": self.packing_rejections,
        }


def cycle_length_lower_bound(
    verification_bound: int,
    period_cutoff: int = 10**9,
    first_only: bool = False,
) -> CycleBoundReport:
    """Feasible periods of a hypothetical positive cycle, given plain
    verification of the conjecture below verification_bound.

    A cycle with n odd terms, all elements above D, and total period p
    forces n*log2(3) < p < n*log2(3 + 1/D), so p is feasible only when that
    window contains an integer, which is then floor(n log2 3) + 1 (this is
    the feasible_periods list, in scan order and so ascending).  For the
    minimum itself the sharper packing criterion applies: a cycle also needs
    best_packed_min_element(n, p) > D, which prunes window-feasible pairs
    whose best possible minimal element is still inside the verified range.

    Window candidates are listed, not scanned.  With theta the top 64
    fractional bits of a lower bound on log2 3 and d a 64-bit ceiling on the
    window width log2(1 + 1/(3D)) (plus slack), a feasible n has
    2^64 - 1 - (n*theta mod 2^64) < n*d + 8, a certified superset.  For n
    in [2^i, 2^(i+1)) those residues lie in a band of width 2^(i+1)*d + 8
    below 2^64, and _band_hits walks the n landing there in O(hits) steps.
    Candidates are settled against 192-bit directed bounds.  Where those
    leave p or either end of the window undecided, the exact tier reads
    p = floor(n log2 3) + 1 off 3^n as its bit length (3^n is never a power
    of 2) and tests 2^p D^n < (3D + 1)^n.

    With first_only the scan stops at the minimal pair, so feasible_periods
    lists only the periods for n <= min_odd_terms and scanned_odd_terms is
    that n; a full scan lists every feasible period up to period_cutoff and
    scans every n up to the cap it implies.
    """
    D = verification_bound
    if D < 2:
        raise ValueError("verification bound must be >= 2")

    lo3, hi3 = log2_3_fixed(FRAC_BITS)
    loD, hiD = log2_with_reciprocal_fixed(D, FRAC_BITS)
    scale = 1 << FRAC_BITS
    # fractional 64-bit limb of log2 3 and a ceiling on the window width
    theta64 = (lo3 >> (FRAC_BITS - 64)) & ((1 << 64) - 1)
    delta = hiD - lo3
    delta64 = (delta >> (FRAC_BITS - 64)) + 2
    n_cap = (period_cutoff * scale) // lo3 + 2

    periods: list[int] = []  # p = floor(n log2 3) + 1 rises with n: ascending
    rejections: list[tuple[int, int]] = []
    min_pair: Optional[tuple[int, int]] = None
    exact_checks = 0

    def window_feasible(nn: int) -> Optional[int]:
        nonlocal exact_checks
        nL, nH = nn * lo3, nn * hi3
        p = nL // scale + 1
        top_lo = nn * loD
        if p * scale > nH and p * scale < top_lo:
            return p
        # either the bracket on n log2 3 straddles an integer, so p may be
        # one too small, or only the top end of the window is undecided
        if nL // scale != nH // scale or (top_lo <= p * scale <= nn * hiD):
            exact_checks += 1
            p = (3**nn).bit_length()
            if (1 << p) * D**nn < (3 * D + 1) ** nn:
                return p
        return None

    for nn in _window_candidates(theta64, delta64 + 3, 1, n_cap):
        p = window_feasible(nn)
        if p is None:
            continue
        if p <= period_cutoff:
            periods.append(p)
        if min_pair is None:
            if packed_bound_exceeds(nn, p, D):
                min_pair = (nn, p)
                if first_only:
                    break
            else:
                rejections.append((nn, p))

    report = CycleBoundReport(
        verification_bound=D,
        min_odd_terms=min_pair[0] if min_pair else None,
        min_period=min_pair[1] if min_pair else None,
        feasible_periods=periods,
        period_cutoff=period_cutoff,
        scanned_odd_terms=min_pair[0] if first_only and min_pair else n_cap,
        window_constants_hex={
            "log2_3": hex(lo3),
            "log2_3_plus_1_over_D": hex(loD),
            "frac_bits": FRAC_BITS,
        },
        boundary_exact_checks=exact_checks,
        packing_rejections=rejections,
    )
    return report


def linear_combination_witness(
    periods: Iterable[int],
    generators: tuple[int, int, int],
    require_middle: bool = True,
) -> list[int]:
    """Periods not expressible as A*g0 + B*g1 + C*g2 with nonnegative A, B,
    C, B >= 1 when require_middle, and A*C = 0, ascending and without
    repeats.  Empty list means all pass.

    Each period p is decided on its own: it is expressible exactly when
    p - B*g1 is divisible by g0 or by g2 for some B from 1 (or 0) to
    p // g1, in at most p // g1 + 1 divisions.
    """
    g0, g1, g2 = generators
    if min(generators) <= 0:
        raise ValueError("generators must be positive")
    b0 = 1 if require_middle else 0
    return [p for p in sorted(set(periods))
            if not any((p - b * g1) % g0 == 0 or (p - b * g1) % g2 == 0
                       for b in range(b0, p // g1 + 1))]
