#!/usr/bin/env python3
"""The repository benchmark: simulator cost per LinkBench / YCSB-F op.

Run from the repository root::

    python3 perfbench/run.py --workload linkbench --seed 1 --seconds 30
    python3 perfbench/run.py --workload ycsb-f-compact --trace 1
    python3 perfbench/run.py              # every workload, one process each

One run of a workload repeats *rounds* until ``--seconds`` have passed
(at least three, so set-up is timed several times).  A round builds a
fresh stack from the seed, loads and warms it (``setup_s``), then runs
the measured operations.  Every round of a run uses the same seed, so
the simulated (``model.*``) results must repeat exactly across rounds;
the last round's outputs are then checked (FTL invariants, and the
committed rows surviving a clean shutdown, a power cut and a restart).

``--trace 0`` reports the end-to-end metrics, medians over rounds.
``--trace 1`` runs untraced rounds for a baseline, then one round with
every layer's public functions wrapped (:mod:`perfbench.trace`), and
reports the per-layer metrics of that round; its spans are written to
``.perfbench-out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("linkbench", "linkbench-cached", "ycsb-f-compact")
MIN_ROUNDS = 3

#: End-to-end metric -> unit (``BENCHMARK.json`` lists the same names;
#: ``op_fail_ratio`` is reported here and in the artifact, and travels
#: as ``attempted``/``failed`` in the result line).
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "cpu_us_per_op": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def peak_rss_mib() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on
    Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if platform.system() == "Darwin" else peak / 1024


def fingerprint() -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


def spread(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, n=4) of a sample."""
    if len(values) < 2:
        value = values[0]
        return {"median": value, "q1": value, "q3": value, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# --------------------------------------------------------------------------
# One workload in this process
# --------------------------------------------------------------------------

def one_round(spec, seed: int, tracer=None):
    """Set up and measure one round; returns (run, timings)."""
    from perfbench import workloads

    gc.collect()
    started = perf_counter()
    run = workloads.start(spec, seed, tracer)
    setup_s = perf_counter() - started
    cpu_start, wall_start = process_time(), perf_counter()
    run.measure()
    wall_s = perf_counter() - wall_start
    cpu_s = process_time() - cpu_start
    ops = spec.measured_ops
    return run, {"setup_s": setup_s, "wall_s": wall_s,
                 "ops_per_s": ops / wall_s,
                 "cpu_us_per_op": cpu_s * 1e6 / ops}


def run_workload(name: str, seed: int, seconds: float, trace: bool
                 ) -> Dict[str, object]:
    """All rounds of one workload run, its checks and its metrics."""
    from perfbench import layers, workloads
    from perfbench.trace import Tracer

    spec = workloads.WORKLOADS[name]
    deadline = perf_counter() + seconds
    # A traced run spends about half its time on the one traced round.
    untraced_deadline = deadline - seconds / 2 if trace else deadline
    rounds: List[Dict[str, float]] = []
    models: List[Dict[str, float]] = []
    attempted = failed = 0
    run = None
    while (len(rounds) < (1 if trace else MIN_ROUNDS)
           or perf_counter() < untraced_deadline):
        run = None   # release the previous round's stack first
        run, timing = one_round(spec, seed)
        rounds.append(timing)
        models.append(run.model)
        attempted += run.attempted
        failed += run.failed
    peak_rss = peak_rss_mib()
    layer: Dict[str, float] = {}
    spans_path = None
    if trace:
        run = None
        tracer = Tracer(layers.sites())
        with tracer:
            run, timing = one_round(spec, seed, tracer)
            models.append(run.model)
            attempted += run.attempted
            failed += run.failed
            layer = layers.layer_metrics(tracer, timing["wall_s"],
                                         run.stack_counters())
            untraced = statistics.median(r["wall_s"] for r in rounds)
            layer["trace.overhead_pct"] = (
                (timing["wall_s"] / untraced - 1.0) * 100.0)
            problems = run.check()
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.bin")
        tracer.write_spans(spans_path)
    else:
        problems = run.check()
    if any(model != models[0] for model in models):
        problems.append("model.* results differ between rounds of one "
                        "seed: " + json.dumps(models))
    summary = {metric: spread([r[metric] for r in rounds])
               for metric in ("ops_per_s", "cpu_us_per_op", "setup_s")}
    summary["peak_rss_mib"] = spread([peak_rss])
    summary["op_fail_ratio"] = spread([failed / attempted])
    if trace:
        layer["op_fail_ratio"] = failed / attempted
        layer.update(models[-1])
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "sizes": run.sizes(),
            "machine": fingerprint(), "rounds": rounds,
            "summary": summary, "model": models[0], "layer": layer,
            "spans_path": spans_path, "attempted": attempted,
            "failed": failed, "checks": problems,
            "correct": not problems}


def result_line(report: Dict[str, object]) -> Dict[str, object]:
    """The contract's last line: end-to-end medians, or per-layer values
    of the traced round."""
    from perfbench.layers import PER_LAYER_UNITS

    if report["trace"]:
        metrics = {name: {"value": report["layer"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": report["summary"][name]["median"],
                          "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report: Dict[str, object]) -> None:
    name = report["workload"]
    print(f"# {name} seed={report['seed']} trace={report['trace']} "
          f"rounds={len(report['rounds'])} sizes={report['sizes']}")
    units = dict(END_TO_END_UNITS, op_fail_ratio="ratio")
    for metric, unit in units.items():
        s = report["summary"][metric]
        print(f"{name} {metric} = {s['median']:.6g} {unit} "
              f"(median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    for metric, value in report["model"].items():
        print(f"{name} {metric} = {value!r}")
    if report["trace"]:
        from perfbench.layers import PER_LAYER_UNITS
        for metric, unit in PER_LAYER_UNITS.items():
            if not metric.startswith("model."):
                print(f"{name} {metric} = {report['layer'][metric]:.6g} "
                      f"{unit}")
    for problem in report["checks"]:
        print(f"{name} CHECK FAILED: {problem}")
    print(f"{name} correct = {report['correct']}")


def write_artifact(report: Dict[str, object], filename: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, filename)
    with open(path, "w") as out:
        json.dump(report, out, indent=2, sort_keys=True)
    return path


# --------------------------------------------------------------------------
# Every workload, one child process each
# --------------------------------------------------------------------------

def run_all(args) -> int:
    reports = {}
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name} FAILED with exit code {child.returncode}")
            status = 1
            continue
        reports[name] = json.loads(lines[-1])
        status |= 0 if reports[name]["correct"] else 1
    print("\nworkload           metric                   value")
    for name, line in reports.items():
        for metric, entry in line["metrics"].items():
            print(f"{name:<18} {metric:<24} {entry['value']:.6g} "
                  f"{entry['unit']}")
        print(f"{name:<18} {'correct':<24} {line['correct']}")
    path = write_artifact({"machine": fingerprint(), "seed": args.seed,
                           "results": reports},
                          f"all-seed{args.seed}-trace{args.trace}.json")
    print(f"artifact: {os.path.relpath(path, ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no simulator sources under {src}")
    sys.path[:0] = [ROOT, src]
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_report(report)
    write_artifact(report, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json")
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
