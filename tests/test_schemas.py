"""Reports validate against the JSON Schemas shipped in collatzlab/schemas,
one file per schema id stamped into to_dict()."""

import json
import re
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator, ValidationError

from collatzlab.coeffstop import coeff_stop_record, verify_coefficient_conjecture
from collatzlab.cycles import cycle_length_lower_bound, rational_cycles_3xd
from collatzlab.fractran import PRIMEGAME, FractranProgram, fractran_run
from collatzlab.stats import excursion_records, stats_record, verify_range
from collatzlab.trees import extremal_spread, tree_counts
from collatzlab.twoadic import conjugacy_check, perm_analysis

SRC = Path(__file__).resolve().parent.parent / "src" / "collatzlab"
BIG = 3**126 + 2**199  # a 200-bit start


def validator(schema_id):
    name = schema_id.removeprefix("collatzlab/") + ".json"
    schema = json.loads((files("collatzlab") / "schemas" / name).read_text())
    Draft202012Validator.check_schema(schema)
    assert schema["title"] == schema_id
    return Draft202012Validator(schema)


def as_json(report):
    """The report as a consumer reads it: tuples become arrays."""
    return json.loads(json.dumps(report.to_dict()))


@pytest.mark.parametrize("k_max", [1, 2, 60, 300, 2000])
def test_coeffstop_verify_reports(k_max):
    doc = as_json(verify_coefficient_conjecture(k_max))
    validator(doc["schema"]).validate(doc)


@pytest.mark.parametrize("n_max, kwargs", [
    (10**5, {"mode": "naive"}),
    (10**6, {}),                                  # sieve(16)
    (2**22 + 12345, {"sieve_k": 21}),
    (1000, {"mode": "naive", "step_limit": 3}),   # failures
    (1000, {"sieve_k": 8, "step_limit": 5}),      # failures above the naive cutoff
], ids=["naive", "sieve", "sieve21", "naive-failures", "sieve-failures"])
def test_verify_reports(n_max, kwargs):
    doc = as_json(verify_range(n_max, **kwargs))
    assert doc["verified"] == ("step_limit" not in kwargs)
    validator(doc["schema"]).validate(doc)


@pytest.mark.parametrize("n_max", [2, 10**4, 10**5])
def test_excursion_reports(n_max):
    doc = as_json(excursion_records(n_max))
    validator(doc["schema"]).validate(doc)


@pytest.mark.parametrize("D, cutoff, first_only", [
    (2, 2 * 10**6, True),
    (1000, 10**4, False),
    (2**40, 10**8, False),
    (2**40 + 1, 10**8, False),
    (2**40, 10**9, True),
    (2**40, 10**7, False),  # no feasible period: null minimal pair
])
def test_cycle_bound_reports(D, cutoff, first_only):
    doc = as_json(cycle_length_lower_bound(D, period_cutoff=cutoff, first_only=first_only))
    validator(doc["schema"]).validate(doc)


PRIMEGAME_PROG = FractranProgram(PRIMEGAME)
HALTING_PROG = FractranProgram((Fraction(3, 2),))


@pytest.mark.parametrize("prog, m0, kwargs", [
    (PRIMEGAME_PROG, 2, {"max_outputs": 5}),           # PRIMEGAME run
    (HALTING_PROG, 2**20, {"halt": "none"}),            # genuine halt
    (PRIMEGAME_PROG, 2, {"max_steps": 50}),             # budget run
    (PRIMEGAME_PROG, 2, {"halt": "value", "halt_value": 8}),
], ids=["primegame", "halted", "budget", "value"])
def test_fractran_run_reports(prog, m0, kwargs):
    doc = as_json(fractran_run(prog, m0, **kwargs))
    validator(doc["schema"]).validate(doc)


@pytest.mark.parametrize("d", [1, 5, 7])
def test_rational_cycles_reports(d):
    doc = as_json(rational_cycles_3xd(d, 12))
    assert doc["cycles"]
    validator(doc["schema"]).validate(doc)


@pytest.mark.parametrize("a, depth, mode, pruned", [
    (1, 0, "counts", False),
    (5, 12, "counts", False),
    (5, 12, "counts", True),
    (-17, 20, "full", False),
    (7, 30, "full", True),
    (0, 40, "counts", False),
])
def test_tree_reports(a, depth, mode, pruned):
    doc = as_json(tree_counts(a, depth, mode=mode, pruned=pruned))
    assert len(doc["counts"]) == depth
    validator(doc["schema"]).validate(doc)


@pytest.mark.parametrize("depth, roots, classes", [
    (0, [2, 4], 0),
    (10, range(2, 200), 0),
    (8, range(2, 400), 1),
    (6, range(-50, 300), 3),
])
def test_tree_spread_reports(depth, roots, classes):
    doc = as_json(extremal_spread(depth, roots, mod_power_classes=classes))
    assert bool(doc["class_means"]) == bool(classes)
    validator(doc["schema"]).validate(doc)


def stamped_schema_ids(source: str) -> set[str]:
    """The schema ids a module stamps into its reports."""
    return set(re.findall(r'"collatzlab/([a-z0-9-]+)"', source))


def test_every_stamped_schema_id_ships_a_file():
    ids = set().union(*(stamped_schema_ids(p.read_text()) for p in SRC.glob("*.py")))
    assert len(ids) == 12
    assert sorted(i for i in ids if not (SRC / "schemas" / f"{i}.json").is_file()) == []


def test_scan_finds_stamped_schema_ids():
    source = 'x = {"schema": "collatzlab/tree-v1"}\ny = "collatzlab/"\nz = "collatzlab/a-2"\n'
    assert stamped_schema_ids(source) == {"tree-v1", "a-2"}


@pytest.mark.parametrize("n, kwargs, resolved", [
    (27, {}, True),
    (1, {}, True),
    (2, {"step_limit": 1}, True),           # 1 at exactly the step limit
    (27, {"step_limit": 10}, False),
    (27, {"magnitude_limit": 100}, False),
    (1, {"step_limit": 1}, False),
    (BIG, {}, True),
    (BIG, {"parity_bits": 200}, True),
], ids=["27", "1", "2-at-limit", "step-limit", "magnitude-limit", "1-unresolved", "big",
        "big-long-prefix"])
def test_stats_record_reports(n, kwargs, resolved):
    doc = as_json(stats_record(n, **kwargs))
    assert doc["resolved"] == resolved
    validator(doc["schema"]).validate(doc)


@pytest.mark.parametrize("n, step_limit", [
    (2, 10**5), (3, 10**5), (27, 10**5), (27, 5), (27, 58), (BIG, 10**5),
])
def test_coeffstop_record_reports(n, step_limit):
    doc = as_json(coeff_stop_record(n, step_limit))
    assert (doc["kappa"] is None) == (n == 27 and step_limit < 59)
    validator(doc["schema"]).validate(doc)


@pytest.mark.parametrize("n", range(4, 13))
def test_twoadic_reports(n):
    for report in (perm_analysis(n), conjugacy_check(n)):
        doc = as_json(report)
        validator(doc["schema"]).validate(doc)


def test_schemas_reject_a_broken_report():
    doc = as_json(verify_coefficient_conjecture(60))
    check = validator(doc["schema"])
    for broken in ({**doc, "verified": "yes"}, {**doc, "extra": 1},
                   {k: v for k, v in doc.items() if k != "swept"}):
        with pytest.raises(ValidationError):
            check.validate(broken)
    doc = as_json(cycle_length_lower_bound(2, period_cutoff=100))
    with pytest.raises(ValidationError):
        validator(doc["schema"]).validate({**doc, "packing_rejections": [[3]]})
    doc = as_json(fractran_run(HALTING_PROG, 8, halt="none"))
    check = validator(doc["schema"])
    for broken in ({**doc, "budget_exhausted": True}, {**doc, "final": 27},
                   {**doc, "outputs": ["0x10"]}):
        with pytest.raises(ValidationError):
            check.validate(broken)
    doc = as_json(rational_cycles_3xd(5, 10))
    with pytest.raises(ValidationError):
        validator(doc["schema"]).validate({**doc, "cycles": [{"min": 1, "period": 3}]})
    doc = as_json(verify_range(1000, mode="naive", step_limit=3))
    check = validator(doc["schema"])
    for broken in ({**doc, "verified": True}, {**doc, "failures": [3]},
                   {**doc, "mode": "sieve"}, {**doc, "survivor_fractions": {"0": "1/2"}}):
        with pytest.raises(ValidationError):
            check.validate(broken)
    doc = as_json(excursion_records(10**4))
    check = validator(doc["schema"])
    for broken in ({**doc, "champions": [[27, 4616]]}, {**doc, "champions": []},
                   {k: v for k, v in doc.items() if k != "bound_violations"}):
        with pytest.raises(ValidationError):
            check.validate(broken)
    doc = as_json(tree_counts(5, 6, pruned=True))
    check = validator(doc["schema"])
    for broken in ({**doc, "counts": [2, 0]}, {**doc, "pruned": "yes"},
                   {k: v for k, v in doc.items() if k != "root"}):
        with pytest.raises(ValidationError):
            check.validate(broken)
    doc = as_json(extremal_spread(6, range(2, 100), mod_power_classes=1))
    check = validator(doc["schema"])
    for broken in ({**doc, "min": [3, 5]}, {**doc, "max": [4]},
                   {**doc, "class_means": {"one": 1.0}}, {**doc, "mean": "1.5"}):
        with pytest.raises(ValidationError):
            check.validate(broken)
    doc = as_json(stats_record(27))
    check = validator(doc["schema"])
    for broken in ({**doc, "height": None}, {**doc, "n": 27}, {**doc, "parity_prefix": "12"},
                   {**as_json(stats_record(27, step_limit=10)), "sigma_inf": 70}):
        with pytest.raises(ValidationError):
            check.validate(broken)
    doc = as_json(coeff_stop_record(27))
    check = validator(doc["schema"])
    for broken in ({**doc, "alpha": None}, {**doc, "kappa": 0}, {**doc, "beta": "1/-2"},
                   {**as_json(coeff_stop_record(27, 5)), "odd_steps": 3}):
        with pytest.raises(ValidationError):
            check.validate(broken)
    doc = as_json(perm_analysis(6))
    check = validator(doc["schema"])
    for broken in ({**doc, "n": 3}, {**doc, "cycle_length_counts": {"0": 1}},
                   {**doc, "fixed_points": list(range(65))}):
        with pytest.raises(ValidationError):
            check.validate(broken)
    doc = as_json(conjugacy_check(6))
    check = validator(doc["schema"])
    for broken in ({**doc, "mismatches": [5]}, {**doc, "ok": False}, {**doc, "checked": "64"}):
        with pytest.raises(ValidationError):
            check.validate(broken)
