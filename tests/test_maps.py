"""Map parsing, stepping, trajectories, and cycle search."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from collatzlab.maps import (
    DEFAULT_MAGNITUDE_LIMIT,
    DEFAULT_STEP_LIMIT,
    CeilingMap,
    CycleRecord,
    EnteredCycle,
    MagnitudeLimit,
    MapDomainError,
    MapError,
    MapSyntaxError,
    ReachedTarget,
    StepLimit,
    Trajectory,
    c_map,
    collatz_permutation,
    atkin_permutation,
    find_cycles,
    parse_map,
    qx_plus_one,
    queneau_spiral,
    step,
    t_map,
    three_x_plus_d,
    trajectory,
)
from collatzlab.maps import _canonical_rotation


def trajectory_brent(map_spec, x, *, target_set=None, target_predicate=None,
                     step_limit=DEFAULT_STEP_LIMIT, magnitude_limit=DEFAULT_MAGNITUDE_LIMIT,
                     record_iterates=True):
    """Oracle: the former trajectory engine.  Brent's tortoise-and-hare
    (Brent 1980) on the iterate stream, interleaved with the target and
    limit checks, then a second pass over the orbit to find the cycle."""
    if step_limit <= 0 or magnitude_limit <= 0:
        raise ValueError("limits must be positive")

    def hit(v):
        if target_set is not None and v in target_set:
            return True
        return target_predicate is not None and bool(target_predicate(v))

    iterates = [x] if record_iterates else None
    parity = []
    if hit(x):
        return Trajectory(x, 0, ReachedTarget(x), "", iterates)
    power = lam = 1
    tortoise = x
    hare = map_spec.step(x)
    parity.append(str(x & 1))
    if record_iterates:
        iterates.append(hare)
    steps = 1
    while True:
        if hit(hare):
            term = ReachedTarget(hare)
            break
        if abs(hare) > magnitude_limit:
            term = MagnitudeLimit(hare)
            break
        if steps >= step_limit:
            term = StepLimit()
            break
        if tortoise == hare:
            # period is lam; rewind to find the cycle start, then extract
            mu = 0
            t2, h2 = x, x
            for _ in range(lam):
                h2 = map_spec.step(h2)
            while t2 != h2:
                t2 = map_spec.step(t2)
                h2 = map_spec.step(h2)
                mu += 1
            cyc = [t2]
            y = map_spec.step(t2)
            while y != t2:
                cyc.append(y)
                y = map_spec.step(y)
            record = CycleRecord(_canonical_rotation(cyc), getattr(map_spec, "label", ""))
            if record_iterates:
                del iterates[mu + len(cyc):]
            term = EnteredCycle(record)
            steps = mu + len(cyc)
            break
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        parity.append(str(hare & 1))
        hare = map_spec.step(hare)
        lam += 1
        steps += 1
        if record_iterates:
            iterates.append(hare)
    return Trajectory(x, steps, term, "".join(parity[:steps]), iterates)


# ---------------------------------------------------------------- parsing

def test_parse_T():
    m = parse_map("T")
    assert m.modulus == 2
    assert step(m, 4) == 2 and step(m, 7) == 11


def test_parse_buttsworth_example():
    m = parse_map("d=2; 0: x/2; 1: (5x-3)/2")
    assert step(m, 1) == 1
    assert step(m, 5) == 11
    assert step(m, 6) == 3


def test_parse_integrality_violation():
    with pytest.raises(MapError, match="residue 0"):
        parse_map("d=2; 0: x/3; 1: x")


def test_parse_small_modulus():
    with pytest.raises(MapError):
        parse_map("d=1; 0: x")


def test_parse_syntax_error_position():
    with pytest.raises(MapSyntaxError):
        parse_map("d=2; 0: x/2; 1: 3y+1")


@pytest.mark.parametrize("branch", ["3x+1/0", "3/0x+1", "(3x+1/0)/2", "1/0x", "x/0", "(x+1)/0"])
def test_parse_zero_denominator_is_a_syntax_error(branch):
    # a zero in the outer denominator, a coefficient or a constant
    with pytest.raises(MapSyntaxError, match="zero denominator") as err:
        parse_map(f"d=2; 0: x/2; 1: {branch}")
    assert err.value.position == len("d=2; 0: x/2; 1:")


def test_parse_variants():
    m = parse_map("d=3; 0: 2/3*x; 1: (4x-1)/3; 2: (4x+1)/3")
    perm = collatz_permutation()
    for x in range(-30, 30):
        assert m.step(x) == perm.step(x)


def test_parse_rejects_duplicate_and_missing():
    with pytest.raises(MapSyntaxError, match="twice"):
        parse_map("d=2; 0: x/2; 0: x/2")
    with pytest.raises(MapSyntaxError, match="missing"):
        parse_map("d=3; 0: x/3; 2: x")


@pytest.mark.parametrize("spec, position", [
    ("3x+d:abc", 5), ("qx+1:3.5", 5), ("wiggin:", 7), ("queneau:-", 8),
    ("beta:sqrt:x", 10), ("hasse:3,2,[x]", 11), ("hasse:3,2,[1, y]", 13),
    ("d=2; x: x/2; 1: x", 4),
])
def test_parse_bad_integer_is_a_syntax_error(spec, position):
    # int() of a map's integer argument raised a bare ValueError; the
    # error now names the bad text and its offset in the spec
    with pytest.raises(MapSyntaxError, match="bad integer") as err:
        parse_map(spec)
    assert err.value.position == position


# ---------------------------------------------------------------- stepping

def test_step_examples():
    assert step(t_map(), 7) == 11
    assert step(c_map(), 7) == 22
    assert step(parse_map("mahler"), 12) == 18


def test_named_maps_match_piecewise_definitions():
    f = parse_map("feix3")
    assert [f.step(x) for x in (3, 4, 5)] == [1, 3, 12]
    w = parse_map("wiggin:2")  # F_2 is the Collatz function
    c = c_map()
    for x in range(1, 200):
        assert w.step(x) == c.step(x)
    a = atkin_permutation()
    assert a.step(0) == 3 and a.step(1) == 0 and a.step(2) == 1


def test_hasse_map_validation():
    m = parse_map("hasse:2,3,[1]")  # (3n+1)/2 on odds: exactly T
    t = t_map()
    for x in range(-50, 50):
        assert m.step(x) == t.step(x)
    with pytest.raises(MapError, match="r_j"):
        parse_map("hasse:2,3,[0]")
    with pytest.raises(MapError, match="gcd"):
        parse_map("hasse:2,4,[1]")


def test_teriele_map():
    m = parse_map("teriele")
    assert m.step(1) == 1
    assert m.step(2) == 3
    assert m.step(9) == 3
    with pytest.raises(MapDomainError):
        m.step(0)


def test_beta_map_rational_is_T():
    m = parse_map("beta:3/2")
    t = t_map()
    for x in range(1, 100):
        assert m.step(x) == t.step(x)


def test_beta_map_sqrt2():
    m = parse_map("beta:sqrt:2")
    # ceil(sqrt(2)*x) on odds
    assert m.step(1) == 2
    assert m.step(3) == 5
    assert m.step(5) == 8
    assert m.step(10) == 5


def test_beta_map_decimal_precision():
    m = parse_map("beta:1.5000")
    assert m.step(3) == 5
    coarse = parse_map("beta:1.4")
    with pytest.raises(MapDomainError, match="precision"):
        coarse.step(5)  # 7.0 vs 7.5: interval ceiling is ambiguous


def ceiling_by_kind(spec, x):
    """Oracle: the former CeilingMap ceiling on odd x, one branch per kind of
    beta, each read from the spec as the former beta_map read it."""
    if spec.startswith("sqrt:"):
        k = int(spec[5:])
        s = isqrt(k * x * x)
        return s if s * s == k * x * x else s + 1
    if "." not in spec:
        frac = Fraction(spec)
        return -((-frac.numerator * x) // frac.denominator)
    point = spec.index(".")
    scale = 10 ** (len(spec) - point - 1)
    mant = int(spec.replace(".", ""))
    lo, hi = mant * x, (mant + 1) * x
    clo, chi = -((-lo) // scale), -((-hi) // scale)
    if clo != chi:
        raise MapDomainError("beta precision insufficient to certify ceil(beta*x)", x)
    return clo


BETA_SPECS = ["3/2", "5/3", "7/4", "11/7", "sqrt:2", "sqrt:3", "sqrt:4", "sqrt:10", "1.4",
              "1.5000", "1.41421356", "2.0", "1.7320508075688772", "3.1"]


@pytest.mark.parametrize("spec", BETA_SPECS)
def test_ceiling_map_matches_the_per_kind_oracle(spec):
    m = parse_map("beta:" + spec)
    assert m.label == "beta:" + spec
    refusals = 0
    for x in range(1, 3001):
        try:
            got = m.step(x)
        except MapDomainError as e:
            got = ("refused", str(e), e.value)
        if x % 2 == 0:
            assert got == x // 2
            continue
        try:
            want = ceiling_by_kind(spec, x)
        except MapDomainError as e:
            want = ("refused", str(e), e.value)
            refusals += 1
        assert got == want, x
    # below 3000 only the one-digit decimals are ever too coarse
    assert (refusals > 0) == (spec in ("1.4", "2.0", "3.1"))


@pytest.mark.parametrize("spec", ["0.5", "1.0", "3/0", "abc", "1", "1.5.0"])
def test_beta_map_refuses_beta_not_above_one_or_unparsable(spec):
    with pytest.raises(MapError):
        parse_map("beta:" + spec)


@pytest.mark.parametrize("args", [
    {}, {"lo": Fraction(1, 2), "hi": Fraction(1, 2)}, {"lo": Fraction(1), "hi": Fraction(1)},
    {"lo": Fraction(3, 2), "hi": Fraction(5, 4)}, {"sqrt_of": 1}, {"sqrt_of": -3},
], ids=["default", "half", "one", "lo-above-hi", "sqrt1", "sqrt-3"])
def test_ceiling_map_refuses_a_direct_construction_out_of_range(args):
    # built directly, not through beta_map: CeilingMap() stepped 1 and 3
    # to 0, and beta = 1/2 gave find_cycles the cycle (1,)
    with pytest.raises(MapError):
        CeilingMap(**args)


def test_ceiling_map_direct_construction_in_range():
    half_up = CeilingMap(Fraction(3, 2), Fraction(3, 2))
    assert [half_up.step(x) for x in (1, 3, 4)] == [2, 5, 2]
    assert [CeilingMap(sqrt_of=2).step(x) for x in (1, 3, 5)] == [2, 5, 8]
    assert CeilingMap(Fraction(7, 5), Fraction(3, 2)).step(1) == 2  # ceil(1.4) = ceil(1.5)


def test_beta_map_accepts_a_decimal_just_above_one():
    m = parse_map("beta:1.0001")
    assert m.step(2) == 1
    assert m.step(1) == 2  # ceil of 1.0001 and of 1.0002


def test_queneau_domain():
    m = queneau_spiral(6)
    assert [m.step(x) for x in range(1, 7)] == [6, 1, 5, 2, 4, 3]
    with pytest.raises(MapDomainError):
        m.step(7)


# ------------------------------------------------------------ trajectories

def test_trajectory_27():
    tr = trajectory(t_map(), 27, target_set={1})
    assert isinstance(tr.termination, ReachedTarget)
    assert tr.steps == 70
    assert max(tr.iterates[1:]) == 4616
    # the C form takes height = 70 + number of odd iterates before 1
    trc = trajectory(c_map(), 27, target_set={1})
    odd = sum(1 for v in tr.iterates[:-1] if v % 2)
    assert trc.steps == tr.steps + odd == 111


def test_trajectory_trivial_cycle():
    tr = trajectory(t_map(), 1)
    assert isinstance(tr.termination, EnteredCycle)
    assert tr.termination.cycle.elements == (1, 2)


def test_trajectory_c35():
    m = parse_map("d=2; 0: x/2; 1: 3x+5")
    tr = trajectory(m, 5)
    assert isinstance(tr.termination, EnteredCycle)
    assert tr.termination.cycle.elements == (5, 20, 10)


def test_trajectory_parity_word():
    tr = trajectory(t_map(), 3, target_set={1})
    # 3 -> 5 -> 8 -> 4 -> 2 -> 1
    assert tr.steps == 5
    assert tr.parity == "11000"


def test_trajectory_final_per_outcome():
    # a target gives its value; a step or magnitude limit the last recorded
    # iterate; a cycle the iterate just before the repeat (3 -> ... -> 1 -> 2)
    cases = [(27, {"target_set": {1}}, ReachedTarget, 1), (27, {"step_limit": 5}, StepLimit, 71),
             (27, {"magnitude_limit": 100}, MagnitudeLimit, 107), (3, {}, EnteredCycle, 1)]
    for x, kw, outcome, final in cases:
        t = trajectory(t_map(), x, **kw)
        assert isinstance(t.termination, outcome)
        assert t.final == t.iterates[-1] == final
        bare = trajectory(t_map(), x, record_iterates=False, **kw)
        if outcome is ReachedTarget:  # the target needs no recorded iterate
            assert bare.final == final
        else:
            with pytest.raises(ValueError, match="no iterates"):
                bare.final


def test_trajectory_domain_error_carries_iterate():
    m = queneau_spiral(3)  # 4 is outside the domain
    with pytest.raises(MapDomainError) as ei:
        trajectory(m, 4)
    assert ei.value.value == 4


# ------------------------------------------------------------ cycle search

def test_five_known_T_cycles():
    res = find_cycles(t_map(), (-10**5, 10**5))
    assert len(res.cycles) == 5
    mins = [c.min_element for c in res.cycles]
    assert mins == [0, -1, 1, -5, -17]
    by_min = res.by_min_element()
    assert by_min[1].elements == (1, 2)
    assert by_min[-5].elements == (-5, -7, -10)
    assert by_min[-17].period == 11
    assert not res.unresolved
    for c in res.cycles:
        assert c.verify(t_map())


def test_qx1_q5_cycle():
    res = find_cycles(qx_plus_one(5), (1, 300))
    by_min = res.by_min_element()
    assert 13 in by_min
    cyc = by_min[13]
    assert 208 in cyc.elements
    # circuit shape: a run of odds then a run of evens
    par = [x % 2 for x in cyc.elements]
    assert par == sorted(par, reverse=True)


def test_collatz_permutation_cycles():
    res = find_cycles(collatz_permutation(), (1, 10**4), step_limit=10**4)
    periods = sorted(c.period for c in res.cycles)
    assert periods == [1, 2, 5, 12]
    by_min = res.by_min_element()
    # the 12-cycle (44 59 79 105 70 93 62 83 111 74 99 66)
    assert by_min[44].period == 12
    assert res.unresolved  # the orbit of 8 has not resolved at these limits
    assert 8 in res.unresolved


def test_atkin_permutation_94_cycle():
    res = find_cycles(atkin_permutation(), (1, 10**4), step_limit=10**4)
    by_min = res.by_min_element()
    assert 140 in by_min
    assert by_min[140].period == 94


def test_three_x_plus_5_cycles_via_search():
    res = find_cycles(three_x_plus_d(5), (1, 500))
    mins = sorted(c.min_element for c in res.cycles)
    assert mins == [1, 5, 19, 23, 187, 347]


# ------------------------------------------------------------- properties

def test_kuttler_identity():
    t = t_map()
    for k in range(1, 21):
        for n in (1, 2, 3, 17, 500, 10**3):
            x = (1 << k) * n - 1
            for _ in range(k):
                x = t.step(x)
            assert x == 3**k * n - 1


def test_cadogan_identity():
    c = c_map()
    for x in range(1, 10**4, 2):
        y = 4 * x + 1
        assert c.step(c.step(c.step(y))) == c.step(x)


def test_terras_parity_congruence():
    t = t_map()

    def word(n, k):
        out = []
        for _ in range(k):
            out.append(n & 1)
            n = t.step(n)
        return out

    for k in (4, 9, 16):
        for n in (1, 5, 77, 1024, 99991):
            assert word(n, k) == word(n + (1 << k), k)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_negative_residue_consistency(n):
    # mathematical mod: T on negatives mirrors the identity 2|x <=> 2|(x mod 2)
    t = t_map()
    x = -n
    y = t.step(x)
    assert y == (x // 2 if x % 2 == 0 else (3 * x + 1) // 2)


def test_permutation_property_small():
    for n in (5, 6, 30, 200, 500):
        m = queneau_spiral(n)
        image = {m.step(x) for x in range(1, n + 1)}
        assert image == set(range(1, n + 1))
    for perm in (collatz_permutation(), atkin_permutation()):
        window = range(1, 10**4 + 1)
        image = {perm.step(x) for x in window}
        # two-sided inverse on a window: every image point has a unique preimage
        assert len(image) == len(window)


def test_trajectory_unresolved_is_first_class():
    tr = trajectory(t_map(), 27, step_limit=5)
    from collatzlab.maps import StepLimit
    assert isinstance(tr.termination, StepLimit)
    tr = trajectory(parse_map("qx+1:7"), 3, magnitude_limit=10**4)
    from collatzlab.maps import MagnitudeLimit
    assert isinstance(tr.termination, (MagnitudeLimit, EnteredCycle))


# ------------------------------------------------- walker against Brent's oracle

WALK_MAPS = ["T", "C", "collatz-perm", "atkin-perm", "feix3", "mahler", "teriele",
             "3x+d:5", "qx+1:5", "qx+1:7", "wiggin:3", "queneau:6", "beta:3/2",
             "beta:sqrt:2", "beta:1.4", "hasse:3,2,[1,2]", "d=2; 0: x/2; 1: (5x-3)/2"]
WALK_LIMITS = [{}, {"step_limit": 1}, {"step_limit": 5}, {"step_limit": 50},
               {"magnitude_limit": 10**4}, {"target_set": {1}},
               {"target_set": {-1}, "target_predicate": lambda v: v % 13 == 0}]


def outcome(engine, map_spec, x, **kw):
    try:
        return engine(map_spec, x, **kw)
    except MapDomainError as e:
        return "MapDomainError", e.value


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(WALK_MAPS), st.integers(-60, 60), st.sampled_from(WALK_LIMITS),
       st.booleans())
def test_trajectory_matches_brent(name, x, limits, record):
    m = parse_map(name)
    kw = {**limits, "record_iterates": record}
    got, want = outcome(trajectory, m, x, **kw), outcome(trajectory_brent, m, x, **kw)
    if got != want:
        # The one allowed difference: the walker sees a cycle at its first
        # repeat, within the step limit, where Brent's detection came later.
        assert isinstance(want.termination, StepLimit)
        assert isinstance(got.termination, EnteredCycle)
        assert got.steps <= want.steps
        # Brent detects a cycle within 3(mu + lambda) steps of the start.
        assert got == trajectory_brent(m, x, **{**kw, "step_limit": 4 * (got.steps + 1)})


def test_trajectory_sees_a_cycle_at_its_first_repeat():
    # -20 -> -10 -> -5 -> -7 -> -10: the repeat comes at step 4 <= 5
    tr = trajectory(t_map(), -20, step_limit=5)
    assert isinstance(tr.termination, EnteredCycle)
    assert tr.termination.cycle.elements == (-5, -7, -10)
    assert tr.steps == 4 and tr.iterates == [-20, -10, -5, -7] and tr.parity == "0011"
    assert isinstance(trajectory_brent(t_map(), -20, step_limit=5).termination, StepLimit)


ROUND_TRIP_SPECS = ["T", "C", "3x+d:5", "qx+1:5", "hasse:3,2,[1,2]", "hasse:3,2,[4,-1]",
                    "hasse:2,3,[1]", "wiggin:3", "collatz-perm", "atkin-perm", "feix3", "mahler",
                    "queneau:7", "teriele", "beta:3/2", "beta:sqrt:2", "beta:1.5",
                    "d=2; 0: x/2; 1: (3x+1)/2", " T "]


def _step_or_refusal(m, x):
    try:
        return m.step(x)
    except MapDomainError as e:
        return "MapDomainError", e.value


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
def test_label_parses_back_to_the_same_map(spec):
    m = parse_map(spec)
    again = parse_map(m.label)
    assert again.label == m.label
    for x in range(-40, 41):
        assert _step_or_refusal(again, x) == _step_or_refusal(m, x), x


def test_hasse_labels_tell_the_offsets_apart():
    a, b = parse_map("hasse:3,2,[1,2]"), parse_map("hasse:3,2,[4,-1]")
    assert (a.step(4), b.step(4)) == (3, 4)
    assert a.label != b.label


def test_find_cycles_reports_a_start_whose_walk_leaves_the_domain():
    # beta:1.5 is bracketed too coarsely at 7 (ceil(1.5*7) = 11, ceil(1.6*7) = 12)
    m = parse_map("beta:1.5")
    with pytest.raises(MapDomainError):
        m.step(7)
    res = find_cycles(m, (1, 30))
    assert [c.elements for c in res.cycles] == [(1, 2)]
    assert res.unresolved == [7, 9, 11, 13, 14, 15, 17, 18, 19, 21, 22, 23, 25, 26, 27, 28, 29, 30]
