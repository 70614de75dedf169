"""Iterable integer maps: a residue-affine DSL plus named special forms,
with a trajectory engine and exact cycle detection.

One orbit walker, _walk, steps every orbit that trajectory, find_cycles,
trees.reach_count, stats.stats_record (and so stats.height_and_total_stop),
coeffstop.coeff_stop_record and the replay of cycles.rational_cycles_3xd
follow.  It keeps the path, so a cycle is certified at its first repeated
iterate, and it applies the one limit policy: a step limit and a magnitude
limit, past which the orbit is unresolved.

Residues always use mathematical mod (0 <= r < d), so maps act on negative
integers the way the cycle catalogue expects ({-1}, {-5,-7,-10} and the
-17 cycle of the 3x+1 function are ordinary orbits here).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt
from typing import Callable, Container, Iterable, Optional


class MapError(ValueError):
    pass


class MapSyntaxError(MapError):
    """DSL syntax problem; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MapDomainError(MapError):
    """Raised when a map is applied outside its domain; carries the iterate."""

    def __init__(self, message: str, value: int):
        super().__init__(f"{message}: {value}")
        self.value = value


@dataclass(frozen=True)
class Branch:
    """One residue branch x -> (num*x + add) / den with exact divisibility."""

    num: int
    add: int
    den: int

    def coeffs(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.num, self.den), Fraction(self.add, self.den)


@dataclass(frozen=True)
class ResidueAffineMap:
    """x -> a_i x + b_i on the residue class x = i (mod modulus)."""

    modulus: int
    branches: tuple[Branch, ...]
    label: str = ""
    domain: Optional[tuple[int, int]] = None  # inclusive bounds, None = all of Z

    def __post_init__(self):
        if self.modulus < 2:
            raise MapError("modulus must be >= 2")
        if len(self.branches) != self.modulus:
            raise MapError("need exactly one branch per residue")
        for i, br in enumerate(self.branches):
            if br.den <= 0:
                raise MapError(f"residue {i}: denominator must be positive")
            a, b = br.coeffs()
            if self.modulus % a.denominator != 0:
                raise MapError(
                    f"integrality violation on residue {i}: "
                    f"denominator of {a} does not divide d={self.modulus}"
                )
            if (a * i + b).denominator != 1:
                raise MapError(
                    f"integrality violation on residue {i}: "
                    f"{a}*{i} + {b} is not an integer"
                )

    def in_domain(self, x: int) -> bool:
        return self.domain is None or (self.domain[0] <= x <= self.domain[1])

    def step(self, x: int) -> int:
        if self.domain is not None and not self.domain[0] <= x <= self.domain[1]:
            raise MapDomainError(f"{self.label or 'map'} is undefined here", x)
        br = self.branches[x % self.modulus]
        return (br.num * x + br.add) // br.den


@dataclass(frozen=True)
class CeilingMap:
    """Odd x -> ceil(beta*x), even x -> x/2, on x >= 1.

    beta is exact: a Fraction, sqrt(k) for integer k, or a decimal string
    with explicit precision (the ceiling is certified against the implied
    interval and refusal is an error rather than a silent rounding).
    """

    kind: str  # "rational" | "sqrt" | "decimal"
    num: int = 0
    den: int = 1
    sqrt_of: int = 0
    digits: str = ""
    label: str = ""

    def in_domain(self, x: int) -> bool:
        return x >= 1

    def _ceil_mul(self, x: int) -> int:
        if self.kind == "rational":
            return -((-self.num * x) // self.den)
        if self.kind == "sqrt":
            s = isqrt(self.sqrt_of * x * x)
            return s if s * s == self.sqrt_of * x * x else s + 1
        # decimal string with fixed precision: certified interval ceiling
        digits = self.digits
        point = digits.index(".") if "." in digits else len(digits)
        scale = 10 ** (len(digits) - point - 1) if "." in digits else 1
        mant = int(digits.replace(".", ""))
        lo, hi = mant * x, (mant + 1) * x
        clo, chi = -((-lo) // scale), -((-hi) // scale)
        if clo != chi:
            raise MapDomainError(
                f"beta precision insufficient to certify ceil(beta*x)", x
            )
        return clo

    def step(self, x: int) -> int:
        if x < 1:
            raise MapDomainError("ceiling map defined on x >= 1", x)
        if x % 2 == 0:
            return x // 2
        return self._ceil_mul(x)


@dataclass(frozen=True)
class FloorSqrt3Map:
    """x -> x/3 when 3 | x, else floor(x*sqrt(3)); defined on x >= 1."""

    label: str = "teriele"

    def in_domain(self, x: int) -> bool:
        return x >= 1

    def step(self, x: int) -> int:
        if x < 1:
            raise MapDomainError("floor-sqrt3 map defined on x >= 1", x)
        if x % 3 == 0:
            return x // 3
        return isqrt(3 * x * x)


MapSpec = ResidueAffineMap | CeilingMap | FloorSqrt3Map


# ---------------------------------------------------------------------------
# named map constructors


def _affine(modulus: int, rows: Iterable[tuple[Fraction, Fraction]], label: str,
            domain=None) -> ResidueAffineMap:
    branches = []
    for a, b in rows:
        den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        branches.append(Branch(int(a * den), int(b * den), den))
    return ResidueAffineMap(modulus, tuple(branches), label, domain)


F = Fraction


@cache  # frozen, and built per call by stats_record and coeff_stop_record
def t_map() -> ResidueAffineMap:
    return _affine(2, [(F(1, 2), F(0)), (F(3, 2), F(1, 2))], "T")


def c_map() -> ResidueAffineMap:
    return _affine(2, [(F(1, 2), F(0)), (F(3), F(1))], "C")


def three_x_plus_d(d: int) -> ResidueAffineMap:
    if d < 1 or d % 2 == 0:
        raise MapError("3x+d requires odd d >= 1")
    return _affine(2, [(F(1, 2), F(0)), (F(3, 2), F(d, 2))], f"3x+d:{d}")


def qx_plus_one(q: int) -> ResidueAffineMap:
    if q < 3 or q % 2 == 0:
        raise MapError("qx+1 requires odd q >= 3")
    return _affine(2, [(F(1, 2), F(0)), (F(q, 2), F(1, 2))], f"qx+1:{q}")


def hasse_map(d: int, m: int, rs: list[int]) -> ResidueAffineMap:
    if d < 2:
        raise MapError("hasse map requires d >= 2")
    if gcd(m, d) != 1:
        raise MapError("hasse map requires gcd(m, d) = 1")
    if len(rs) != d - 1:
        raise MapError(f"hasse map needs {d - 1} offsets r_1..r_{d-1}")
    for j, r in enumerate(rs, start=1):
        if (m * j + r) % d != 0:
            raise MapError(f"hasse offset r_{j}={r} must satisfy r_j = -m*j (mod d)")
    rows = [(F(1, d), F(0))]
    rows += [(F(m, d), F(r, d)) for r in rs]
    return _affine(d, rows, f"hasse:{d},{m}")


def wiggin_map(D: int) -> ResidueAffineMap:
    if D < 2:
        raise MapError("wiggin map requires D >= 2")
    rows = [(F(1, D), F(0))]
    rows += [(F(D + 1), F(-j)) for j in range(1, D - 1)]
    rows += [(F(D + 1), F(1))]
    return _affine(D, rows, f"wiggin:{D}")


def collatz_permutation() -> ResidueAffineMap:
    # the original 1932 permutation: 3n -> 2n, 3n-1 -> 4n-1, 3n-2 -> 4n-3
    return _affine(
        3,
        [(F(2, 3), F(0)), (F(4, 3), F(-1, 3)), (F(4, 3), F(1, 3))],
        "collatz-perm",
    )


def atkin_permutation() -> ResidueAffineMap:
    # 3n -> 4n+3, 3n+1 -> 2n, 3n+2 -> 4n+1
    return _affine(
        3,
        [(F(4, 3), F(3)), (F(2, 3), F(-2, 3)), (F(4, 3), F(-5, 3))],
        "atkin-perm",
    )


def feix_mod3_map() -> ResidueAffineMap:
    return _affine(
        3,
        [(F(1, 3), F(0)), (F(2, 3), F(1, 3)), (F(7, 3), F(1, 3))],
        "feix3",
    )


def mahler_map() -> ResidueAffineMap:
    # 3x/2 on evens, (3x+1)/2 on odds; drives the Z-number criterion
    return _affine(2, [(F(3, 2), F(0)), (F(3, 2), F(1, 2))], "mahler")


def queneau_spiral(n: int) -> ResidueAffineMap:
    if n < 1:
        raise MapError("queneau spiral requires n >= 1")
    return _affine(
        2,
        [(F(1, 2), F(0)), (F(-1, 2), F(2 * n + 1, 2))],
        f"queneau:{n}",
        domain=(1, n),
    )


def beta_map(spec: str) -> CeilingMap:
    spec = spec.strip()
    if spec.startswith("sqrt:"):
        k = int(spec[5:])
        if k < 2:
            raise MapError("beta sqrt argument must be >= 2")
        return CeilingMap(kind="sqrt", sqrt_of=k, label=f"beta:sqrt:{k}")
    if "." in spec:
        if not re.fullmatch(r"\d+\.\d+", spec):
            raise MapError(f"bad decimal beta: {spec!r}")
        return CeilingMap(kind="decimal", digits=spec, label=f"beta:{spec}")
    frac = Fraction(spec)
    if frac <= 1:
        raise MapError("beta must exceed 1")
    return CeilingMap(
        kind="rational", num=frac.numerator, den=frac.denominator,
        label=f"beta:{spec}",
    )


# ---------------------------------------------------------------------------
# DSL parser

_BRANCH_RE = re.compile(
    r"""^\s*
    (?:
        \(\s*(?P<pcoef>-?\d+(?:/\d+)?)?\s*\*?\s*x\s*
           (?:(?P<psign>[+-])\s*(?P<pconst>\d+(?:/\d+)?))?\s*\)
        \s*/\s*(?P<pden>\d+)
      |
        (?P<coef>-?\d+(?:/\d+)?)?\s*\*?\s*x\s*
        (?:(?P<sign>[+-])\s*(?P<const>\d+(?:/\d+)?))?\s*
        (?:/\s*(?P<den>\d+))?
    )\s*$""",
    re.VERBOSE,
)


def _parse_expr(text: str, offset: int) -> tuple[Fraction, Fraction]:
    m = _BRANCH_RE.match(text)
    if not m:
        raise MapSyntaxError(f"cannot parse branch expression {text.strip()!r}", offset)
    g = m.groupdict()
    p = "p" if g["pden"] else ""  # the parenthesised form names its groups p*
    try:
        coef = Fraction(g[p + "coef"] or 1)
        const = Fraction(g[p + "const"] or 0) * (-1 if g[p + "sign"] == "-" else 1)
        den = int(g[p + "den"] or 1)
        return coef / den, const / den
    except ZeroDivisionError:  # in den, or in a coefficient or constant such as 1/0
        raise MapSyntaxError("zero denominator", offset) from None


def _parse_dsl(text: str) -> ResidueAffineMap:
    head, _, rest = text.partition(";")
    m = re.fullmatch(r"\s*d\s*=\s*(\d+)\s*", head)
    if not m:
        raise MapSyntaxError("map must start with 'd=<modulus>'", 0)
    d = int(m.group(1))
    if d < 2:
        raise MapError("modulus must be >= 2")
    rows: dict[int, tuple[Fraction, Fraction]] = {}
    offset = len(head) + 1
    for part in rest.split(";"):
        if part.strip() == "":
            offset += len(part) + 1
            continue
        res_txt, colon, expr_txt = part.partition(":")
        if not colon:
            raise MapSyntaxError("branch must look like '<residue>: <expr>'", offset)
        try:
            i = int(res_txt.strip())
        except ValueError:
            raise MapSyntaxError(f"bad residue {res_txt.strip()!r}", offset) from None
        if not 0 <= i < d:
            raise MapSyntaxError(f"residue {i} outside 0..{d - 1}", offset)
        if i in rows:
            raise MapSyntaxError(f"residue {i} defined twice", offset)
        rows[i] = _parse_expr(expr_txt, offset + len(res_txt) + 1)
        offset += len(part) + 1
    missing = [i for i in range(d) if i not in rows]
    if missing:
        raise MapSyntaxError(f"missing branches for residues {missing}", len(text))
    return _affine(d, [rows[i] for i in range(d)], text.strip())


def parse_map(text: str) -> MapSpec:
    """Parse a builtin map name or a residue-affine DSL string."""
    t = text.strip()
    simple = {
        "T": t_map,
        "C": c_map,
        "collatz-perm": collatz_permutation,
        "atkin-perm": atkin_permutation,
        "feix3": feix_mod3_map,
        "mahler": mahler_map,
        "teriele": FloorSqrt3Map,
    }
    if t in simple:
        return simple[t]()
    for prefix, fn in (
        ("3x+d:", lambda s: three_x_plus_d(int(s))),
        ("qx+1:", lambda s: qx_plus_one(int(s))),
        ("wiggin:", lambda s: wiggin_map(int(s))),
        ("queneau:", lambda s: queneau_spiral(int(s))),
        ("beta:", beta_map),
    ):
        if t.startswith(prefix):
            return fn(t[len(prefix):])
    if t.startswith("hasse:"):
        body = t[len("hasse:"):]
        m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*,\s*\[([^\]]*)\]\s*", body)
        if not m:
            raise MapSyntaxError("hasse syntax: hasse:<d>,<m>,[r1,...]", len("hasse:"))
        d, mm = int(m.group(1)), int(m.group(2))
        rs = [int(x) for x in m.group(3).split(",")] if m.group(3).strip() else []
        return hasse_map(d, mm, rs)
    if t.startswith("d"):
        return _parse_dsl(t)
    raise MapSyntaxError(f"unknown map {text!r}", 0)


def step(map_spec: MapSpec, x: int) -> int:
    """One exact application of the map."""
    return map_spec.step(x)


# ---------------------------------------------------------------------------
# trajectories and cycles


@dataclass(frozen=True)
class CycleRecord:
    """A periodic orbit, stored from its canonical element onward.

    The canonical first element minimizes (|x|, x), which makes {1,2} print
    as (1, 2) and the negative cycles print from -1, -5 and -17.
    """

    elements: tuple[int, ...]
    map_label: str = ""

    @property
    def period(self) -> int:
        return len(self.elements)

    @property
    def min_element(self) -> int:
        return self.elements[0]

    @property
    def odd_count(self) -> int:
        return sum(1 for x in self.elements if x % 2 != 0)

    def verify(self, map_spec: MapSpec) -> bool:
        """Replay the map around the orbit with exact arithmetic."""
        for x, y in zip(self.elements, self.elements[1:] + self.elements[:1]):
            if map_spec.step(x) != y:
                return False
        return True


def _canonical_rotation(cycle: list[int]) -> tuple[int, ...]:
    i = min(range(len(cycle)), key=lambda k: (abs(cycle[k]), cycle[k]))
    return tuple(cycle[i:] + cycle[:i])


@dataclass(frozen=True)
class ReachedTarget:
    value: int


@dataclass(frozen=True)
class EnteredCycle:
    cycle: CycleRecord


@dataclass(frozen=True)
class StepLimit:
    pass


@dataclass(frozen=True)
class MagnitudeLimit:
    value: int


Termination = ReachedTarget | EnteredCycle | StepLimit | MagnitudeLimit

DEFAULT_STEP_LIMIT = 10**5
DEFAULT_MAGNITUDE_LIMIT = 1 << 1024


def _walk(map_spec: MapSpec, x: int, stop: Container[int], step_limit: int,
          magnitude_limit: int):
    """The one orbit walker: step map_spec from x until an iterate stops it.

    Returns (path, pos, v).  path holds the iterates before v, pos maps each
    of them to its index, and v is the first iterate that is a stop value
    (v in stop), repeats a path value (the cycle is path[pos[v]:]),
    has |v| > magnitude_limit, or comes step_limit steps after x.  Callers
    tell these apart in that order, so a stop value wins over a limit; a
    repeated value was tested against stop when first seen.  The start is
    tested against stop only, so a walk takes at least one step unless
    x is in stop, and at most step_limit steps.  A cycle is seen at its
    first repeat, after exactly len(path) steps.  A MapDomainError from the
    map propagates.
    """
    path: list[int] = []
    pos: dict[int, int] = {}
    while x not in stop:
        pos[x] = len(path)
        path.append(x)
        x = map_spec.step(x)
        if x in pos or abs(x) > magnitude_limit or len(path) >= step_limit:
            break
    return path, pos, x


@dataclass(frozen=True)
class _Targets:
    """trajectory's targets as one container: members, or a predicate."""

    members: Container[int]
    predicate: Callable[[int], object]

    def __contains__(self, v: int) -> bool:
        return v in self.members or bool(self.predicate(v))


@dataclass
class Trajectory:
    start: int
    steps: int
    termination: Termination
    parity: str
    iterates: Optional[list[int]] = None

    @property
    def final(self) -> int:
        if isinstance(self.termination, ReachedTarget):
            return self.termination.value
        if self.iterates:
            return self.iterates[-1]
        raise ValueError("trajectory recorded no iterates")


def trajectory(
    map_spec: MapSpec,
    x: int,
    *,
    target_set: Optional[set[int]] = None,
    target_predicate=None,
    step_limit: int = DEFAULT_STEP_LIMIT,
    magnitude_limit: int = DEFAULT_MAGNITUDE_LIMIT,
    record_iterates: bool = True,
) -> Trajectory:
    """Iterate until a target is hit, a cycle is entered, or a limit trips.

    One _walk call, stopped at the targets (target_set or target_predicate),
    gives every outcome.  A cycle is certified at its first repeated
    iterate, so steps <= step_limit for every termination, and the iterates
    of an EnteredCycle trajectory end just before that repeat.  The walk
    keeps its path either way (at most step_limit + 1 iterates);
    record_iterates only decides whether it is returned.
    """
    if step_limit <= 0 or magnitude_limit <= 0:
        raise ValueError("limits must be positive")

    targets: Container[int] = target_set if target_set is not None else ()
    if target_predicate is not None:
        targets = _Targets(targets, target_predicate)
    path, pos, v = _walk(map_spec, x, targets, step_limit, magnitude_limit)
    term: Termination
    if v in targets:
        term = ReachedTarget(v)
    elif v in pos:
        cycle = _canonical_rotation(path[pos[v]:])
        term = EnteredCycle(CycleRecord(cycle, getattr(map_spec, "label", "")))
    elif abs(v) > magnitude_limit:
        term = MagnitudeLimit(v)
    else:
        term = StepLimit()
    iterates = None
    if record_iterates:
        iterates = path if isinstance(term, EnteredCycle) else path + [v]
    parity = "".join(["1" if u & 1 else "0" for u in path])
    return Trajectory(x, len(path), term, parity, iterates)


@dataclass
class CycleSearchResult:
    cycles: list[CycleRecord]
    unresolved: list[int]
    searched: tuple[int, int]

    def by_min_element(self) -> dict[int, CycleRecord]:
        return {c.min_element: c for c in self.cycles}


def find_cycles(
    map_spec: MapSpec,
    search_range: tuple[int, int],
    *,
    step_limit: int = DEFAULT_STEP_LIMIT,
    magnitude_limit: int = DEFAULT_MAGNITUDE_LIMIT,
) -> CycleSearchResult:
    """All cycles whose orbit intersects [lo, hi] within the limits.

    Starts are walked by _walk in order of (|s|, s), stopped at any in-range
    point whose fate is already known.  Each walk then records its fate, a
    cycle or None (unresolved), for every in-range point on its path, so the
    sweep is near-linear for contracting maps.  A walk that stops at a step
    or magnitude limit, or raises MapDomainError, leaves its start
    unresolved; unresolved starts are reported, never dropped.  Cycles are
    deduplicated by canonical rotation.
    """
    lo, hi = search_range
    if lo > hi:
        raise MapError("search range must satisfy lo <= hi")
    label = getattr(map_spec, "label", "")
    fate: dict[int, Optional[CycleRecord]] = {}
    cycles: dict[tuple[int, ...], CycleRecord] = {}
    unresolved: list[int] = []
    for s in sorted(range(lo, hi + 1), key=lambda v: (abs(v), v)):
        if s not in fate:
            if not map_spec.in_domain(s):
                continue
            try:
                path, pos, v = _walk(map_spec, s, fate, step_limit, magnitude_limit)
            except MapDomainError:
                path, pos, v = [s], {}, None
            if v in fate:
                outcome = fate[v]
            elif v in pos:
                rec = CycleRecord(_canonical_rotation(path[pos[v]:]), label)
                outcome = cycles.setdefault(rec.elements, rec)
            else:
                outcome = None
            for u in path:
                if lo <= u <= hi:
                    fate[u] = outcome
        if fate[s] is None:
            unresolved.append(s)
    ordered = sorted(cycles.values(), key=lambda c: (abs(c.min_element), c.min_element))
    return CycleSearchResult(ordered, sorted(unresolved), (lo, hi))
