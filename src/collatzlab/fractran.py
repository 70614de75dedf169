"""FRACTRAN interpreter and periodically-linear machine runner.

A program is an ordered list of positive fractions; one step multiplies the
current positive integer by the first fraction that yields an integer, and
a run halts when no fraction applies.  The classic halting convention for
register-machine encodings instead watches for powers of two, which is
available as a halt predicate here, along with an exponent-register view of
the state over the primes of the program.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterator, Optional, Union

from .maps import MapError, ResidueAffineMap, Trajectory, _affine, trajectory

#: Conway's prime-producing program, from his FRACTRAN paper ("FRACTRAN: a
#: simple universal programming language for arithmetic", Open Problems in
#: Communication and Computation, Springer, 1987).  Started at 2, the powers
#: of two it emits are exactly 2^p over the primes p in increasing order.
PRIMEGAME = tuple(
    Fraction(p, q)
    for p, q in (
        (17, 91), (78, 85), (19, 51), (23, 38), (29, 33), (77, 29), (95, 23),
        (77, 19), (1, 17), (11, 13), (13, 11), (15, 14), (15, 2), (55, 1),
    )
)


@dataclass(frozen=True)
class FractranProgram:
    fractions: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.fractions:
            raise ValueError("program must contain at least one fraction")
        for f in self.fractions:
            if f <= 0:
                raise ValueError("fractions must be positive")

    @property
    def primes(self) -> tuple[int, ...]:
        """Primes dividing any numerator or denominator."""
        seen = set()
        for f in self.fractions:
            for v in (f.numerator, f.denominator):
                for p in _factorize(v):
                    seen.add(p)
        return tuple(sorted(seen))

    def registers(self, value: int) -> tuple[dict[int, int], int]:
        """Exponent view of value over the program primes, plus cofactor."""
        if value < 1:
            raise ValueError("machine value must be >= 1")
        regs = {}
        rest = value
        for p in self.primes:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            regs[p] = e
        return regs, rest


def _factorize(v: int) -> Iterator[int]:
    d = 2
    while d * d <= v:
        if v % d == 0:
            yield d
            while v % d == 0:
                v //= d
        d += 1
    if v > 1:
        yield v


def parse_program(text: str) -> FractranProgram:
    """One fraction per line as p/q (or a bare integer); # starts a comment."""
    fracs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "/" in line:
                a, b = line.split("/")
                fracs.append(Fraction(int(a), int(b)))
            else:
                fracs.append(Fraction(int(line)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad fraction on line {lineno}: {raw!r}") from exc
    return FractranProgram(tuple(fracs))


def fractran_step(prog: FractranProgram, m: int) -> Optional[int]:
    """First applicable fraction times m, or None when the program halts."""
    if m < 1:
        raise ValueError("machine value must be >= 1")
    for f in prog.fractions:
        if m % f.denominator == 0:
            return m // f.denominator * f.numerator
    return None


@dataclass
class RunResult:
    start: int
    steps: int
    halted: bool                      # no fraction applied
    budget_exhausted: bool
    outputs: list[int] = field(default_factory=list)   # values hitting the predicate
    final: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "schema": "collatzlab/fractran-run-v1",
            "start": str(self.start),
            "steps": self.steps,
            "halted": self.halted,
            "budget_exhausted": self.budget_exhausted,
            "outputs": [str(v) for v in self.outputs],
            "final": None if self.final is None else str(self.final),
        }


def fractran_iter(prog: FractranProgram, m0: int) -> Iterator[tuple[int, int]]:
    """Stream (step, value) pairs starting from (0, m0) until a halt.

    This is the one run loop; it steps as fractran_step does, over int
    (denominator, numerator) pairs built once per run.  After fraction i
    applies, a fraction j < i whose denominator is coprime to numerator i
    still does not apply: if it divided m / den_i * num_i, it would divide
    m / den_i and hence m.  So the next step tests only the other fractions,
    in program order, and the first that applies is still the first of all.
    """
    if m0 < 1:
        raise ValueError("machine value must be >= 1")
    follow: list[list] = [[] for _ in prog.fractions]  # candidates after fraction i
    for i, g in enumerate(prog.fractions):
        follow[i][:] = [(f.denominator, f.numerator, follow[j])
                        for j, f in enumerate(prog.fractions)
                        if j >= i or gcd(f.denominator, g.numerator) > 1]
    candidates = follow[0]  # every fraction
    m = m0
    step = 0
    yield step, m
    while True:
        for den, num, nxt in candidates:
            if not m % den:
                m = m // den * num
                candidates = nxt
                break
        else:
            return
        step += 1
        yield step, m


def fractran_run(
    prog: FractranProgram,
    m0: int,
    halt: str = "power_of_two",
    halt_value: Optional[int] = None,
    max_steps: int = 10**6,
    max_outputs: Optional[int] = None,
) -> RunResult:
    """Run under a halting predicate.

    halt is one of "power_of_two" (collect every power of two after the
    start; stop at max_outputs of them), "value" (stop when halt_value
    appears; without a halt_value it is refused), or "none" (run to genuine
    halt or budget).  Budget exhaustion is reported separately from a
    genuine halt: the run takes at most max_steps steps, and it is
    exhausted only if a further step applies.
    """
    if halt not in ("power_of_two", "value", "none"):
        raise ValueError("unknown halt predicate")
    if halt == "value" and halt_value is None:
        raise ValueError('halt="value" needs a halt_value')
    if max_outputs is not None and max_outputs < 1:
        raise ValueError("max_outputs must be >= 1")
    outputs: list[int] = []
    steps, final, halted, budget = 0, m0, False, False
    run = islice(fractran_iter(prog, m0), 1, None)  # m0 is not an output
    for steps, final in islice(run, max(max_steps, 0)):
        if halt == "power_of_two" and final.bit_count() == 1:
            outputs.append(final)
            if max_outputs is not None and len(outputs) >= max_outputs:
                break
        elif halt == "value" and final == halt_value:
            outputs.append(final)
            break
    else:  # the budget is spent only if a further step applies
        budget = next(run, None) is not None
        halted = not budget
    return RunResult(m0, steps, halted, budget, outputs, final)


def primegame_exponents(count: int, max_steps: Optional[int] = None) -> list[int]:
    """Exponents of the first `count` powers of two computed by PRIMEGAME.

    This is one `fractran_run` from 2 under the power-of-two predicate with
    max_outputs=count.  By default the run goes on until `count` outputs
    exist.  That always terminates: started at 2, PRIMEGAME never halts
    (its last fraction, 55/1, applies to every integer) and emits 2^p for
    every prime p in increasing order (Conway 1987), so the exponents are
    the first `count` primes.

    `max_steps` is an optional budget on interpreter steps; an output at the
    last allowed step still counts.  If the budget runs out first, a
    RuntimeError names the budget and how many outputs were found.

    The cost grows quickly with `count` on this big-integer interpreter: the
    44th prime, 193, appears at step 9,878,162 and the 50th, 229, at step
    16,429,798.
    """
    if count <= 0:
        return []
    run = fractran_run(FractranProgram(PRIMEGAME), 2, max_outputs=count,
                       max_steps=sys.maxsize if max_steps is None else max_steps)
    if len(run.outputs) < count:
        raise RuntimeError(
            f"step budget {max_steps} exhausted after {len(run.outputs)} of {count} outputs"
        )
    return [m.bit_length() - 1 for m in run.outputs]


def fractran_as_multiplier_map(prog: FractranProgram) -> ResidueAffineMap:
    """The program as a periodically-linear map g(x) = a_j x for x = j
    (mod N), N = lcm of the denominators; only valid when some fraction
    applies to every residue (a total map)."""
    N = lcm(*[f.denominator for f in prog.fractions])
    if N > 10**6:
        raise MapError("modulus too large to tabulate")
    rows = []
    for r in range(N):
        mult = None
        for f in prog.fractions:
            if r % f.denominator == 0:
                mult = f
                break
        if mult is None:
            raise MapError(f"no fraction applies to residue {r}; map is partial")
        rows.append((mult, Fraction(0)))
    return _affine(N, rows, "fractran-linear")


def conway_iterate(
    machine: Union[ResidueAffineMap, FractranProgram],
    n0: int,
    step_limit: int = 10**5,
    magnitude_limit: int = 1 << 4096,
) -> Trajectory:
    """Iterate a pure-multiplier periodically-linear function with built-in
    power-of-two detection; accepts a FRACTRAN program as the machine."""
    if isinstance(machine, FractranProgram):
        mp = fractran_as_multiplier_map(machine)
    else:
        mp = machine
        for i, br in enumerate(mp.branches):
            if br.add != 0:
                raise MapError(f"branch {i} has a nonzero offset; need a_j * x form")
    return trajectory(
        mp,
        n0,
        target_predicate=lambda v: v != n0 and v >= 1 and v.bit_count() == 1,
        step_limit=step_limit,
        magnitude_limit=magnitude_limit,
    )
