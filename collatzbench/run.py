"""Benchmark of collatzlab: one workload, one seed, one run.

    python3 collatzbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports collatzlab from its
``src`` directory.  Set-up (a fresh import, seeded input generation and a
tiny warm-up pass) is timed several times before the passes and once after
each.  The workload's job list then runs in passes until ``--seconds``
would be exceeded, with at least three passes.  Every result is checked
against an exact oracle outside the timed region.

``--trace 0`` reports the end-to-end metrics: the median pass time, the
median set-up time and the peak resident memory.
``--trace 1`` alternates untraced passes with traced ones, in which spans
wrap each public call the benchmark makes and the inner public calls
listed in ``_inner_spans``, and reports the per-layer metrics.  The layer
probes (a naive ``verify_range`` and raw ``fractran_step`` calls) run only
in the traced run.

Standard output ends with two JSON lines: a ``record`` with the machine,
the seed, every sample, the per-entry-point times and the error rate, then
the result object.  compare.py reads the records.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

import workloads
from tracing import Tracer, spans_around

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("stats", "coeffstop", "cycles", "cf", "fractran", "maps", "twoadic", "trees")
SETUP_REPEATS = 5
MIN_PASSES = 3
PROBE_REPEATS = 3
KERNEL_PROBE_N = 2**20
STEP_PROBE_STEPS = 10**5

#: (name, unit); every workload reports each of them with --trace 0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _span(name):
    return lambda t: t.total(name)


def _count(key):
    return lambda t: t.counts.get(key, 0.0)


def _per(key, *spans):
    """counts[key] per second of the named spans; 0 when none ran."""
    def value(t):
        busy = sum(t.total(s) for s in spans)
        return t.counts.get(key, 0.0) / busy if busy else 0.0
    return value


def _ratio(num, den):
    return lambda t: t.counts.get(num, 0.0) / t.counts[den] if t.counts.get(den) else 0.0


def _skip_frac(t):
    seen = t.counts.get("stats.verify.range")
    return 1 - t.counts["stats.verify.candidates"] / seen if seen else 0.0


#: (name, unit, better, value from one traced pass).  A layer a workload
#: does not call reads 0.  BENCHMARK.json lists the same names.
PER_PASS = (
    ("stats.class_sieve.s", "s", "lower", _span("stats.class_sieve")),
    ("stats.class_sieve.classes_per_s", "1/s", "higher",
     _per("stats.class_sieve.classes", "stats.class_sieve")),
    ("stats.class_sieve.survivor_frac", "frac", "lower",
     _ratio("stats.class_sieve.survivors", "stats.class_sieve.classes")),
    ("stats.verify_range.s", "s", "lower", _span("stats.verify_range")),
    ("stats.verify.candidates", "count", "lower", _count("stats.verify.candidates")),
    ("stats.verify.candidates_per_s", "1/s", "higher",
     _per("stats.verify.candidates", "stats.verify_range")),
    ("stats.verify.skip_frac", "frac", "higher", _skip_frac),
    ("stats.stopping_density.s", "s", "lower", _span("stats.stopping_density")),
    ("stats.excursion_records.s", "s", "lower", _span("stats.excursion_records")),
    ("stats.excursion.n_per_s", "1/s", "higher",
     _per("stats.excursion.n", "stats.excursion_records")),
    ("coeffstop.verify.s", "s", "lower", _span("coeffstop.verify")),
    ("coeffstop.search_bound", "count", "lower", _count("coeffstop.search_bound")),
    ("coeffstop.swept_per_s", "1/s", "higher", _per("coeffstop.swept", "coeffstop.verify")),
    ("cycles.first_only.d2.s", "s", "lower", _span("cycles.first_only.d2")),
    ("cycles.first_only.d2p40.s", "s", "lower", _span("cycles.first_only.d2p40")),
    ("cycles.full_scan.s", "s", "lower", _span("cycles.full_scan")),
    ("cycles.exact_checks", "count", "lower", _count("cycles.exact_checks")),
    ("cycles.feasible_periods", "count", "lower", _count("cycles.feasible_periods")),
    ("cycles.packing_rejections", "count", "lower", _count("cycles.packing_rejections")),
    ("cycles.packed_bound.s", "s", "lower", _span("cycles.packed_bound")),
    ("cf.log2_fixed.s", "s", "lower", _span("cf.log2_fixed")),
    ("cf.cf_log2_3.s", "s", "lower", _span("cf.cf_log2_3")),
    ("fractran.run.s", "s", "lower", _span("fractran.run")),
    ("fractran.steps", "count", "lower", _count("fractran.steps")),
    ("fractran.steps_per_s", "1/s", "higher", _per("fractran.steps", "fractran.run")),
    ("maps.find_cycles.s", "s", "lower", _span("maps.find_cycles")),
    ("maps.find_cycles.starts_per_s", "1/s", "higher",
     _per("maps.find_cycles.starts", "maps.find_cycles")),
    ("maps.find_cycles.unresolved", "count", "lower", _count("maps.find_cycles.unresolved")),
    ("maps.trajectory.s", "s", "lower", _span("maps.trajectory")),
    ("maps.trajectory.steps", "count", "lower", _count("maps.trajectory.steps")),
    ("maps.trajectory.steps_per_s", "1/s", "higher",
     _per("maps.trajectory.steps", "maps.trajectory")),
    ("twoadic.perm_analysis.s", "s", "lower", _span("twoadic.perm_analysis")),
    ("twoadic.inverse_consistency.s", "s", "lower", _span("twoadic.inverse_consistency")),
    ("twoadic.residues_per_s", "1/s", "higher",
     _per("twoadic.residues", "twoadic.perm_analysis", "twoadic.inverse_consistency")),
    ("trees.reach_count.s", "s", "lower", _span("trees.reach_count")),
)

#: per-layer metrics measured once per traced run rather than per pass
PER_RUN = (
    ("stats.kernel.n_per_s", "1/s", "higher"),
    ("fractran.step_oracle.steps_per_s", "1/s", "higher"),
    ("bench.trace_overhead_frac", "frac", "lower"),
)

PER_LAYER = tuple((n, u, b) for n, u, b, _ in PER_PASS) + PER_RUN


class SetupError(RuntimeError):
    pass


def load_lab() -> SimpleNamespace:
    """Import collatzlab afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "collatzlab" / "__init__.py").is_file():
        raise SetupError(f"no collatzlab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "collatzlab" or m.startswith("collatzlab.")]:
        del sys.modules[name]
    lab = SimpleNamespace(**{m: importlib.import_module(f"collatzlab.{m}") for m in MODULES})
    if Path(lab.stats.__file__).resolve().parent.parent != src:
        raise SetupError(f"collatzlab was imported from {lab.stats.__file__}, not {src}")
    return lab


def _inner_spans(lab) -> list:
    """Public functions the library calls internally, wrapped in spans in
    the traced passes so the sieve, packing and log2 layers get their own
    self time.  A name a later version no longer has is skipped."""
    targets = [
        (lab.stats, "class_sieve", "stats.class_sieve",
         lambda args, r: {"stats.class_sieve.classes": 1 << r.k,
                          "stats.class_sieve.survivors": len(r.survivors)}),
        (lab.cycles, "packed_bound_exceeds", "cycles.packed_bound", None),
        (lab.cycles, "log2_3_fixed", "cf.log2_fixed", None),
        (lab.cycles, "log2_with_reciprocal_fixed", "cf.log2_fixed", None),
        (lab.coeffstop, "cf_log2_3", "cf.cf_log2_3", None),
    ]
    return [t for t in targets if hasattr(t[0], t[1])]


@dataclass
class Pass:
    wall: float
    times: list[float]
    failures: list[str] = field(default_factory=list)
    tracer: Optional[Tracer] = None


def run_pass(jobs: list[workloads.Job], lab=None) -> Pass:
    """Run every job once; with ``lab`` given, the pass is traced."""
    tracer = Tracer() if lab is not None else None
    span = tracer.span if tracer else lambda name: nullcontext()
    results, times = [], []
    start = perf_counter()
    with span("bench.pass"), (spans_around(tracer, _inner_spans(lab)) if tracer else nullcontext()):
        for job in jobs:
            t0 = perf_counter()
            with span(job.span):
                results.append(_call(job))
            times.append(perf_counter() - t0)
    done = Pass(perf_counter() - start, times, tracer=tracer)
    for job, (result, error) in zip(jobs, results):
        error = error or job.check(result)
        if error:
            done.failures.append(f"{job.label}: {error}")
        elif tracer:
            tracer.add(job.counts(result))
    return done


def _call(job: workloads.Job):
    try:
        return job.call(), None
    except Exception as exc:  # a raising job is a failed job, not a crashed run
        return None, f"raised {exc!r}"


def _probes(lab) -> tuple[dict, list[str]]:
    """Layer probes, timed outside the passes: the naive sweep kernel in
    integers per second and the big-integer FRACTRAN step in steps per
    second (the oracle a compiled FRACTRAN engine is checked against)."""
    failures = []
    kernel, step = [], []
    prog = lab.fractran.FractranProgram(lab.fractran.PRIMEGAME)
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        r = lab.stats.verify_range(KERNEL_PROBE_N, mode="naive")
        kernel.append((KERNEL_PROBE_N - 1) / (perf_counter() - t0))
        if not r.verified:
            failures.append("kernel probe: verify_range failed")
        m = 2
        t0 = perf_counter()
        for _ in range(STEP_PROBE_STEPS):
            m = lab.fractran.fractran_step(prog, m)
        step.append(STEP_PROBE_STEPS / (perf_counter() - t0))
        if m is None:
            failures.append("step probe: PRIMEGAME halted")
    return {
        "stats.kernel.n_per_s": statistics.median(kernel),
        "fractran.step_oracle.steps_per_s": statistics.median(step),
    }, failures


def machine() -> dict:
    """Fields that must match before two runs may be compared."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        return (git / head[5:]).read_text().strip()
    except OSError:
        pass
    return "unknown"


def set_up(workload: str, seed: int, scale: str):
    """Fresh import, seeded inputs and a warm-up pass at smoke size;
    returns (seconds taken, library, job list)."""
    t0 = perf_counter()
    lab = load_lab()
    jobs = workloads.build(workload, lab, seed, scale)
    for job in workloads.build(workload, lab, seed, "smoke"):
        job.call()
    return perf_counter() - t0, lab, jobs


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full") -> tuple[dict, dict]:
    """One benchmark run; returns (record, result)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t, lab, jobs = set_up(workload, seed, scale)
        setups.append(t)

    probes, probe_failures = {}, []
    deadline = perf_counter() + seconds
    if trace:
        probes, probe_failures = _probes(lab)
    plain, traced = [], []
    while True:
        t0 = perf_counter()
        plain.append(run_pass(jobs))
        if trace:
            traced.append(run_pass(jobs, lab))
        # one more set-up sample per pass, so that set-up is sampled across
        # the whole run; the passes keep the library loaded first
        setups.append(set_up(workload, seed, scale)[0])
        cost = perf_counter() - t0
        if len(plain) >= MIN_PASSES and perf_counter() + cost > deadline:
            break

    passes = plain + traced
    failures = probe_failures + [f for p in passes for f in p.failures]
    # the probes of a traced run count as one more attempt
    attempted = len(passes) * len(jobs) + int(trace)
    failed = sum(len(p.failures) for p in passes) + int(bool(probe_failures))
    wall = statistics.median(p.wall for p in plain)

    if trace:
        values = {name: statistics.median(fn(p.tracer) for p in traced)
                  for name, _, _, fn in PER_PASS}
        values.update(probes)
        traced_wall = statistics.median(p.wall for p in traced)
        values["bench.trace_overhead_frac"] = (traced_wall - wall) / wall
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    entry: dict[str, list[float]] = {}
    for p in plain:
        sums: dict[str, float] = {}
        for job, t in zip(jobs, p.times):
            sums[job.metric] = sums.get(job.metric, 0.0) + t
        for name, t in sums.items():
            entry.setdefault(name, []).append(t)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "scale": scale,
        "machine": machine(),
        "git_sha": git_sha(),
        "jobs": [job.label for job in jobs],
        "passes": len(plain),
        "setup_samples": setups,
        "wall_samples": [p.wall for p in plain],
        # time to a certified result per entry point, untraced, median over passes
        "entry": {name: {"value": statistics.median(ts), "unit": "s"}
                  for name, ts in entry.items()},
        "error_rate": {"value": failed / attempted, "unit": "frac"},
        "failures": failures[:20],
        "metrics": metrics,
    }
    if trace:
        shares: dict[str, list[float]] = {}
        for p in traced:
            root = p.tracer.total("bench.pass")
            for name, t in p.tracer.self_times().items():
                shares.setdefault(name, []).append(t / root)
        record["self_share"] = {n: statistics.median(v) for n, v in sorted(shares.items())}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError) as exc:
        print(f"collatzbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
