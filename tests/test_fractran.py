"""FRACTRAN interpreter and periodically-linear machines."""

from fractions import Fraction
from importlib import resources
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab.fractran import (
    PRIMEGAME,
    FractranProgram,
    conway_iterate,
    fractran_as_multiplier_map,
    fractran_iter,
    fractran_run,
    fractran_step,
    parse_program,
    primegame_exponents,
)
from collatzlab.maps import EnteredCycle, MapError, ReachedTarget, parse_map


def _sieve_primes(count):
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def test_step_basics():
    prog = FractranProgram((Fraction(3, 2),))
    assert fractran_step(prog, 2) == 3
    assert fractran_step(prog, 3) is None


def test_run_from_one_halts_immediately():
    prog = FractranProgram((Fraction(3, 2),))
    res = fractran_run(prog, 1, halt="none")
    assert res.halted and res.steps == 0 and not res.outputs


def test_first_match_rule():
    prog = FractranProgram((Fraction(5, 2), Fraction(7, 2)))
    # both apply to evens; the first must win every time
    assert fractran_step(prog, 2) == 5
    assert fractran_step(prog, 4) == 10


def test_primegame_first_five():
    assert primegame_exponents(5) == [2, 3, 5, 7, 11]


def test_primegame_fifty_against_sieve():
    assert primegame_exponents(50) == _sieve_primes(50)


def test_primegame_budget_edge():
    # the first two outputs, 2^2 and 2^3, appear at steps 19 and 69
    assert primegame_exponents(2, max_steps=69) == [2, 3]
    with pytest.raises(RuntimeError, match="budget 68 exhausted after 1 of 2"):
        primegame_exponents(2, max_steps=68)


def test_iter_matches_fractran_step_on_primegame():
    prog = FractranProgram(PRIMEGAME)
    m = 2
    for step, value in islice(fractran_iter(prog, 2), 10**5 + 1):
        if step:
            m = fractran_step(prog, m)
        assert value == m
    assert step == 10**5


@settings(max_examples=200, deadline=None)
@given(
    fracs=st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=5),
    m0=st.integers(1, 10**4),
)
def test_iter_matches_fractran_step(fracs, m0):
    # small programs, most of them halting: the stream is repeated
    # fractran_step, and it ends exactly where fractran_step returns None
    prog = FractranProgram(tuple(Fraction(a, b) for a, b in fracs))
    want, m = [(0, m0)], m0
    while len(want) < 300 and (m := fractran_step(prog, m)) is not None:
        want.append((len(want), m))
    assert list(islice(fractran_iter(prog, m0), 300)) == want


def test_iter_rejects_a_nonpositive_start():
    with pytest.raises(ValueError):
        next(fractran_iter(FractranProgram(PRIMEGAME), 0))


def test_determinism():
    prog = FractranProgram(PRIMEGAME)
    a = [v for _, v in zip(range(2000), fractran_iter(prog, 2))]
    b = [v for _, v in zip(range(2000), fractran_iter(prog, 2))]
    assert a == b


def test_register_view_consistency():
    prog = FractranProgram(PRIMEGAME)
    for step, value in fractran_iter(prog, 2):
        if step > 300:
            break
        regs, cofactor = prog.registers(value)
        rebuilt = cofactor
        for p, e in regs.items():
            rebuilt *= p**e
        assert rebuilt == value


def test_parse_program_and_bundled_file():
    text = resources.files("collatzlab").joinpath("programs/primegame.frc").read_text()
    prog = parse_program(text)
    assert prog.fractions == PRIMEGAME
    with pytest.raises(ValueError, match="line 1"):
        parse_program("3/0")


def test_run_value_halt_and_budget():
    prog = FractranProgram(PRIMEGAME)
    res = fractran_run(prog, 2, halt="value", halt_value=4)
    assert res.outputs == [4] and not res.budget_exhausted
    res = fractran_run(prog, 2, halt="power_of_two", max_steps=5)
    assert res.budget_exhausted and not res.halted


@pytest.mark.parametrize("budget, final", [(0, 2), (1, 15), (2, 825)])
def test_run_takes_at_most_max_steps(budget, final):
    res = fractran_run(FractranProgram(PRIMEGAME), 2, max_steps=budget)
    assert (res.steps, res.final) == (budget, final)
    assert res.budget_exhausted and not res.halted and not res.outputs


def test_run_budget_edges():
    prog = FractranProgram((Fraction(3, 2),))  # 8 -> 12 -> 18 -> 27, then halts
    res = fractran_run(prog, 3, halt="none", max_steps=0)  # halts at its start
    assert res.halted and not res.budget_exhausted and (res.steps, res.final) == (0, 3)
    res = fractran_run(prog, 8, halt="none", max_steps=3)  # halts at the last allowed step
    assert res.halted and not res.budget_exhausted and (res.steps, res.final) == (3, 27)
    res = fractran_run(prog, 8, halt="none", max_steps=2)
    assert res.budget_exhausted and not res.halted and (res.steps, res.final) == (2, 18)
    # PRIMEGAME's first output, 2^2, appears at step 19
    primegame = FractranProgram(PRIMEGAME)
    res = fractran_run(primegame, 2, max_steps=19)
    assert res.outputs == [4] and res.budget_exhausted and res.steps == 19
    res = fractran_run(primegame, 2, max_steps=19, max_outputs=1)
    assert res.outputs == [4] and not res.budget_exhausted and res.steps == 19
    assert fractran_run(primegame, 2, max_steps=18).outputs == []
    with pytest.raises(RuntimeError, match="budget 0 exhausted after 0 of 1"):
        primegame_exponents(1, max_steps=0)


@pytest.mark.parametrize("max_outputs", [0, -1])
def test_run_rejects_max_outputs_below_one(max_outputs):
    with pytest.raises(ValueError, match="max_outputs"):
        fractran_run(FractranProgram(PRIMEGAME), 2, max_outputs=max_outputs)


def test_conway_identity_map():
    m = parse_map("d=2; 0: x; 1: x")
    tr = conway_iterate(m, 6, step_limit=10)
    # identity trajectory: cycles on itself immediately
    assert isinstance(tr.termination, EnteredCycle)
    assert tr.termination.cycle.elements == (6,)


def test_conway_rejects_offsets():
    with pytest.raises(MapError, match="offset"):
        conway_iterate(parse_map("T"), 5)


def test_conway_power_of_two_detection():
    # doubling map: from 3, the first power of two never comes; from 2 it is 4
    m = parse_map("d=2; 0: 2x; 1: 2x")
    tr = conway_iterate(m, 2, step_limit=10)
    assert isinstance(tr.termination, ReachedTarget)
    assert tr.termination.value == 4


def test_small_program_as_multiplier_map():
    prog = FractranProgram((Fraction(3, 2), Fraction(5, 1)))
    m = fractran_as_multiplier_map(prog)
    assert m.modulus == 2
    assert m.step(4) == 6 and m.step(3) == 15
    # agreement with the interpreter on a stretch of values
    for start in (2, 3, 10):
        x, y = start, start
        for _ in range(12):
            x = fractran_step(prog, x)
            y = m.step(y)
            assert x == y


def test_multiplier_map_partiality_detected():
    with pytest.raises(MapError, match="partial"):
        fractran_as_multiplier_map(FractranProgram((Fraction(1, 2),)))
