"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q collatzbench/smoke_test.py

Checks that each workload passes its oracles, that the printed metric names
and units match BENCHMARK.json, that a wrong oracle value shows up as a
failed job, and that the benchmark's own oracles agree with known values.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    mapped = set(LAYERS["layer_map"]) - {"about"}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_at_smoke_size(workload, trace):
    record, result = run.measure(workload, seed=7, seconds=0, trace=trace, scale="smoke")
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_PASSES
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(type(v["value"]) in (int, float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["error_rate"]["value"] == 0
    assert set(record["machine"]) == {"python", "numpy", "nproc", "cpu"}


WRONG = {
    "sweep": {"cycle_full": (2, 10**4, (3, 6), None)},
    "bounds": {"cycle_first": ((2, 10**4, (4, 5)),)},
    "scalar": {"perm": (8, 3, None)},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_oracle_value_is_a_failure(workload, monkeypatch):
    monkeypatch.setitem(workloads.SIZES, "smoke", {**workloads.SIZES["smoke"], **WRONG[workload]})
    record, result = run.measure(workload, seed=7, seconds=0, trace=False, scale="smoke")
    assert not result["correct"]
    assert result["failed"] == run.MIN_PASSES
    assert record["error_rate"]["value"] > 0


def test_oracles_agree_with_known_values():
    # residues mod 2^k with stopping time > k (OEIS A076227)
    survivors = [workloads.sieve_survivors(k) for k in range(1, 9)]
    assert survivors == [1, 1, 2, 3, 4, 8, 13, 19]
    assert workloads.sieve_survivors(22) == 93222
    assert workloads.first_primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert workloads.total_stopping_time(27) == 70
    assert workloads.excursion(27) == 4616


def test_inputs_depend_on_the_seed_alone():
    lab = run.load_lab()
    labels = lambda seed: [j.label for j in workloads.build("sweep", lab, seed, "smoke")]
    assert labels(3) == labels(3)
    assert labels(3) != labels(4)


def test_compare_refuses_runs_from_different_machines():
    import compare

    record, _ = run.measure("bounds", seed=7, seconds=0, trace=False, scale="smoke")
    other = {**record, "machine": {**record["machine"], "nproc": record["machine"]["nproc"] + 1}}
    assert compare.summarize([record, record])["machine"] == record["machine"]
    with pytest.raises(SystemExit) as refused:
        compare.summarize([record, other])
    assert refused.value.code == 2
