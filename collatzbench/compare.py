"""Summarize benchmark runs, or compare two sets of them.

    python3 collatzbench/compare.py BASE...                # summary as JSON
    python3 collatzbench/compare.py BASE... --new NEW...   # compare

Each BASE or NEW is the standard output of one run.py run, or a summary
written earlier (such as collatzbench/baseline.json).  Runs are refused
(exit 2) unless every one of them reports the same machine fields: numbers
from different machines are never compared without a fresh baseline.  A
comparison exits 1 when some workload's end-to-end median is worse than
the base median by more than the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read(path: str) -> list[dict]:
    """Records from a run log, or the summary object of a summary file."""
    text = Path(path).read_text()
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:  # a run log holds several JSON lines
        whole = None
    if isinstance(whole, dict) and "summary" in whole:
        return [whole]
    return [json.loads(line)["record"] for line in text.splitlines()
            if line.startswith('{"record"')]


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def summarize(records: list[dict]) -> dict:
    """Median and quartiles per workload and metric over the runs."""
    groups: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    units: dict = {}
    for rec in records:
        g = groups[rec["workload"]]
        kind = "per_layer" if rec["trace"] else "end_to_end"
        for name, m in rec["metrics"].items():
            g[kind][name].append(m["value"])
            units[name] = m["unit"]
        if not rec["trace"]:
            for name, m in rec["entry"].items():
                g["entry"][name].append(m["value"])
                units[name] = m["unit"]
            g["error_rate"]["error_rate"].append(rec["error_rate"]["value"])
        for name, share in rec.get("self_share", {}).items():
            g["self_share"][name].append(share)
    return {
        "summary": "collatzbench",
        "machine": _one_machine(records),
        "git_sha": sorted({r["git_sha"] for r in records}),
        "seeds": sorted({r["seed"] for r in records}),
        "workloads": {
            w: {kind: {name: dict(_quartiles(v), unit=units.get(name, "frac"))
                       for name, v in sorted(metrics.items())}
                for kind, metrics in sorted(kinds.items())}
            for w, kinds in sorted(groups.items())
        },
    }


def _one_machine(records: list[dict]) -> dict:
    machines = {json.dumps(r["machine"], sort_keys=True) for r in records}
    if len(machines) != 1:
        _refuse("runs from different machines:\n  " + "\n  ".join(sorted(machines)))
    return records[0]["machine"]


def _refuse(why: str):
    print(f"compare: refused: {why}", file=sys.stderr)
    raise SystemExit(2)


def _load(paths: list[str]) -> dict:
    items = [item for p in paths for item in read(p)]
    summaries = [i for i in items if "summary" in i]
    runs = [i for i in items if "summary" not in i]
    if summaries and runs or len(summaries) > 1:
        _refuse("give either run logs or one summary per side")
    return summaries[0] if summaries else summarize(runs)


def compare(base: dict, new: dict) -> int:
    if base["machine"] != new["machine"]:
        _refuse(f"machines differ: {base['machine']} and {new['machine']}")
    spec = json.loads(BENCHMARK.read_text())
    worse = 0
    print(f"{'workload':8} {'metric':14} {'base median':>12} {'new median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for w in sorted(base["workloads"]):
        b_e2e = base["workloads"][w].get("end_to_end", {})
        n_e2e = new["workloads"].get(w, {}).get("end_to_end", {})
        for m in spec["end_to_end"]:
            if m["name"] not in b_e2e or m["name"] not in n_e2e:
                continue
            b, n = b_e2e[m["name"]]["median"], n_e2e[m["name"]]["median"]
            change = (n - b) / b if m["better"] == "lower" else (b - n) / b
            verdict = "worse beyond bound" if change > m["bound"] else "within bound"
            worse += change > m["bound"]
            print(f"{w:8} {m['name']:14} {b:12.4f} {n:12.4f} {change:+8.1%} "
                  f"{m['bound']:6.2f}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--new", nargs="+")
    args = parser.parse_args(argv)
    base = _load(args.base)
    if not args.new:
        print(json.dumps(base, indent=1))
        return 0
    return compare(base, _load(args.new))


if __name__ == "__main__":
    sys.exit(main())
