"""Simulator speed benchmark and per-PR regression gate.

Measures the *wall-clock* cost of the simulator itself (how fast it
produces virtual seconds), not the modeled device performance — the
numbers the paper-facing experiments never show but every PR can
silently regress.  One invocation runs a fixed matrix:

* **linkbench.share** under three telemetry modes — ``off`` (the gate
  numbers), ``full`` (with a :class:`~repro.obs.PhaseProfiler` and span
  capture, from which ``trace.json`` is exported), and ``sampled`` —
  so the telemetry overhead and the sampled-mode saving are measured,
  not guessed;
* **ycsb.a** / **ycsb.f** with telemetry off;
* the ``repro.tools.microbench`` patterns.

Results land in a ``BENCH_<tag>.json`` artifact (wall seconds,
simulated ops/s, scheduler events/s, peak RSS, telemetry overhead %).
When a committed baseline ``BENCH_pr<N>.json`` exists next to the
output (or ``--baseline`` names one), the total gate wall time is
compared and the process exits 3 on a regression beyond
``--threshold`` (default 20 %) — the CI hook.

``--cluster`` runs a separate matrix instead: the sharded-tier
LinkBench cell healthy, again through a mid-run shard kill
(breaker-driven failover, tail replay), and once more with R=2 groups
acking at a write quorum of two, with the router's failover stats in a
``cluster`` section.  The cluster matrix has its own enforced baseline
family — ``BENCH_cluster_pr<N>.json`` — gated exactly like the main
matrix (exit 3 beyond ``--threshold``).

Usage::

    PYTHONPATH=src python -m repro.tools.benchspeed \\
        --out results/BENCH_pr6.json --trace-out results/trace.json
    REPRO_BENCH_SCALE=tiny python -m repro.tools.benchspeed --out /tmp/b.json
    python -m repro.tools.benchspeed --cluster --out results/BENCH_cluster.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.experiments import LINKBENCH_CLIENTS, _estimate_db_pages
from repro.bench.harness import (SCALES, Scale, buffer_pages_for,
                                 build_cluster_stack, build_couch_stack,
                                 build_innodb_stack)
from repro.couchstore.engine import CommitMode
from repro.innodb.engine import FlushMode
from repro.obs import (DEFAULT_SAMPLE_EVERY, PhaseProfiler, Telemetry,
                       chrome_trace, export_chrome_trace, run_with_cprofile)
from repro.obs.sinks import MemorySink
from repro.sim.faults import FaultPlan, ShardKill
from repro.tools.microbench import run_microbench
from repro.workloads.linkbench import (ClusterLinkBenchDriver,
                                       LinkBenchConfig, LinkBenchDriver)
from repro.workloads.ycsb import YcsbConfig, YcsbDriver, YcsbWorkload

SCHEMA_VERSION = 1
PAGE_SIZE = 4096
PAPER_BUFFER_MIB = 100
QUEUE_DEPTH = 4
CHANNEL_COUNT = 2
YCSB_BATCH = 16
#: Bounds on the exported trace.json sample: keep it a committable,
#: loadable artifact (the in-memory capture is unbounded; raise these
#: when a deeper timeline is wanted).
TRACE_CAPACITY = 1024
TRACE_SPAN_LIMIT = 2048
CLUSTER_SHARDS = 3
CLUSTER_CLIENTS = 4
MICRO_PATTERNS = ("seqwrite", "randwrite", "randread", "share")
MICRO_OPS = {Scale.TINY: 2_000, Scale.QUICK: 10_000, Scale.FULL: 30_000}
_BASELINE_RE = re.compile(r"^BENCH_pr(\d+)\.json$")
_CLUSTER_BASELINE_RE = re.compile(r"^BENCH_cluster_pr(\d+)\.json$")


def bench_scale(default: Scale = Scale.TINY) -> Scale:
    """The matrix scale, from ``REPRO_BENCH_SCALE`` (tiny/quick/full)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "").strip().lower()
    return Scale(raw) if raw else default


def peak_rss_mib() -> float:
    """Peak resident set size of this process in MiB (ru_maxrss is KiB
    on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":
        return peak / 2**20
    return peak / 1024


# --------------------------------------------------------------------------
# Workload cells
# --------------------------------------------------------------------------

def _bench_record(name: str, operations: int, wall_s: float,
                  virtual_tps: float, events_fired: int) -> Dict[str, Any]:
    return {
        "name": name,
        "operations": operations,
        "wall_s": wall_s,
        "sim_ops_per_s": operations / wall_s if wall_s > 0 else 0.0,
        "virtual_tps": virtual_tps,
        "events_fired": events_fired,
        "events_per_s": events_fired / wall_s if wall_s > 0 else 0.0,
    }


def run_linkbench_cell(scale: Scale, name: str, telemetry=None,
                       trace_capacity: int = 0,
                       interval_capacity: int = 0
                       ) -> Tuple[Dict[str, Any], Any]:
    """One SHARE-mode LinkBench run; mirrors the experiment driver's
    warm-up/reset/measure protocol so the gate times the same code the
    figures exercise.  Returns ``(record, stack)`` — the stack so the
    caller can pull trace/interval buffers for the Chrome exporter."""
    params = SCALES[scale]
    leaf_capacity = max(8, 32 * (PAGE_SIZE // 4096))
    db_pages = _estimate_db_pages(params.linkbench_nodes, leaf_capacity)
    buffer_pages = buffer_pages_for(PAPER_BUFFER_MIB, db_pages, PAGE_SIZE)
    stack = build_innodb_stack(
        FlushMode.SHARE, PAGE_SIZE, buffer_pages, db_pages,
        telemetry=telemetry, queue_depth=QUEUE_DEPTH,
        channel_count=CHANNEL_COUNT, trace_capacity=trace_capacity,
        trace_keep="newest", interval_capacity=interval_capacity)
    tel = stack.data_ssd.telemetry
    driver = LinkBenchDriver(stack.engine, stack.clock,
                             LinkBenchConfig(node_count=params.
                                             linkbench_nodes))
    tel.pause()
    driver.load()
    driver.run(max(500, params.linkbench_transactions // 8))
    stack.data_ssd.reset_measurement()
    stack.log_ssd.reset_measurement()
    stack.clock.reset()
    tel.resume()
    tel.reset_measurement()
    sampler = getattr(tel, "sampler", None) if getattr(
        tel, "mode", "off") == "sampled" else None
    fired_before = stack.data_ssd.events.fired
    wall_start = perf_counter()
    result = driver.run(params.linkbench_transactions,
                        concurrency=LINKBENCH_CLIENTS, sampler=sampler)
    wall_s = perf_counter() - wall_start
    events_fired = stack.data_ssd.events.fired - fired_before
    return _bench_record(name, result.transactions, wall_s,
                         result.throughput_tps, events_fired), stack


def run_ycsb_cell(scale: Scale, workload: YcsbWorkload,
                  name: str) -> Dict[str, Any]:
    """One SHARE-mode YCSB run with telemetry off (gate numbers)."""
    params = SCALES[scale]
    stack = build_couch_stack(CommitMode.SHARE, params.ycsb_records,
                              params.ycsb_operations)
    driver = YcsbDriver(stack.store, stack.clock,
                        YcsbConfig(record_count=params.ycsb_records))
    driver.load()
    stack.ssd.reset_measurement()
    fired_before = stack.ssd.events.fired
    wall_start = perf_counter()
    result = driver.run(workload, params.ycsb_operations,
                        batch_size=YCSB_BATCH)
    wall_s = perf_counter() - wall_start
    events_fired = stack.ssd.events.fired - fired_before
    return _bench_record(name, result.operations, wall_s,
                         result.throughput_ops, events_fired)


def run_cluster_cell(scale: Scale, name: str, kill: bool = False,
                     replicas: int = 1,
                     write_quorum: int = 1) -> Tuple[Dict[str, Any], Any]:
    """One sharded-tier LinkBench run over ``CLUSTER_SHARDS`` replicated
    groups, telemetry off.  With ``kill=True`` a :class:`ShardKill` is
    armed after warm-up so one primary dies about a third of the way
    into the measured run and the cell times the run *through* the
    breaker-driven failover (promotion, tail replay, re-replication).
    ``replicas``/``write_quorum`` shape the groups (the quorum cell pays
    for synchronous replica applies on every ack).  Returns
    ``(record, stack)`` — the stack so the caller can read the router's
    failover stats."""
    params = SCALES[scale]
    nodes = max(300, params.linkbench_nodes // 4)
    operations = max(500, params.linkbench_transactions // 2)
    faults = FaultPlan() if kill else None
    stack = build_cluster_stack(shards=CLUSTER_SHARDS,
                                keys_estimate=nodes * 6,
                                queue_depth=QUEUE_DEPTH,
                                channel_count=CHANNEL_COUNT,
                                faults=faults, replicas=replicas,
                                write_quorum=write_quorum)
    driver = ClusterLinkBenchDriver(stack.router, stack.clock,
                                    LinkBenchConfig(node_count=nodes,
                                                    links_per_node=2))
    driver.load()
    driver.run(max(200, operations // 8), concurrency=CLUSTER_CLIENTS)
    for device in stack.router.devices:
        device.reset_measurement()
    if kill:
        # Ack counting starts when the plan arms, so nth is relative to
        # the measured run; a third of the way in leaves replication lag
        # for the promotion to replay (pumps are every 16 driver ops).
        faults.arm_cluster(ShardKill(nth=max(8, operations // 3)))
    fired_before = stack.events.fired
    wall_start = perf_counter()
    result = driver.run(operations, concurrency=CLUSTER_CLIENTS)
    wall_s = perf_counter() - wall_start
    events_fired = stack.events.fired - fired_before
    return _bench_record(name, result.transactions, wall_s,
                         result.throughput_tps, events_fired), stack


def run_cluster_matrix(scale: Scale) -> Dict[str, Any]:
    """The ``--cluster`` document: healthy, failover, and R=2 quorum
    cells, gated against the ``BENCH_cluster_pr<N>.json`` baseline
    family (the cluster hot path — replication append, quorum sync,
    replica routing — regresses independently of the single-device
    matrix, so it gets its own enforced numbers)."""
    benchmarks: List[Dict[str, Any]] = []

    warm_record, __ = run_cluster_cell(Scale.TINY, "warmup.discarded")
    print(f"  warmup (discarded): {warm_record['wall_s']:.3f}s wall")

    healthy_record, healthy_stack = run_cluster_cell(
        scale, "cluster.linkbench.off")
    benchmarks.append(healthy_record)
    print(f"  {healthy_record['name']}: {healthy_record['wall_s']:.3f}s "
          f"wall, {healthy_record['events_per_s']:,.0f} events/s")

    failover_record, failover_stack = run_cluster_cell(
        scale, "cluster.failover", kill=True)
    benchmarks.append(failover_record)
    stats = failover_stack.router.stats
    print(f"  {failover_record['name']}: "
          f"{failover_record['wall_s']:.3f}s wall, "
          f"{stats.failovers} failover(s), "
          f"{stats.replayed_records} record(s) replayed")

    quorum_record, quorum_stack = run_cluster_cell(
        scale, "cluster.quorum2", replicas=2, write_quorum=2)
    benchmarks.append(quorum_record)
    quorum_stats = quorum_stack.router.stats
    print(f"  {quorum_record['name']}: {quorum_record['wall_s']:.3f}s "
          f"wall, {quorum_stats.acked_writes} quorum-acked writes")

    cluster_section = {
        "shards": CLUSTER_SHARDS,
        "clients": CLUSTER_CLIENTS,
        "healthy": {
            "acked_writes": healthy_stack.router.stats.acked_writes,
            "repl_applied": healthy_stack.router.stats.repl_applied,
            "backpressure_waits": sum(pair.backpressure_waits
                                      for pair in healthy_stack.pairs),
            "cross_shard_copies":
                healthy_stack.router.stats.cross_shard_copies,
        },
        "failover": {
            "kills": stats.kills,
            "failovers": stats.failovers,
            "failover_duration_us": stats.failover_duration_us,
            "replayed_records": stats.replayed_records,
            "repl_applied": stats.repl_applied,
            "acked_writes": stats.acked_writes,
            "epochs": {pair.name: pair.log.epoch
                       for pair in failover_stack.pairs},
        },
        "quorum2": {
            "replicas": 2,
            "write_quorum": 2,
            "acked_writes": quorum_stats.acked_writes,
            "repl_applied": quorum_stats.repl_applied,
            "quorum_syncs": sum(pair.quorum_syncs
                                for pair in quorum_stack.pairs),
            "quorum_degraded": sum(pair.quorum_degraded
                                   for pair in quorum_stack.pairs),
            "replica_reads": quorum_stats.replica_reads,
        },
    }

    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "repro.tools.benchspeed --cluster",
        "scale": scale.value,
        "warmup": {"cell": "cluster tiny x1 (discarded)",
                   "wall_s": warm_record["wall_s"]},
        "python": platform.python_version(),
        "total_wall_s": sum(b["wall_s"] for b in benchmarks),
        "peak_rss_mib": round(peak_rss_mib(), 1),
        "benchmarks": benchmarks,
        "cluster": cluster_section,
    }


# --------------------------------------------------------------------------
# Regression gate
# --------------------------------------------------------------------------

def find_baseline(out_path: str, results_dir: Optional[str] = None,
                  pattern: "re.Pattern" = _BASELINE_RE) -> Optional[str]:
    """The committed baseline to compare against: the highest-numbered
    ``BENCH_pr<N>.json`` (or, for the cluster matrix,
    ``BENCH_cluster_pr<N>.json``) in the output directory that is not
    the output file itself (so a re-run never gates against its own
    artifact)."""
    directory = results_dir or os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(directory):
        return None
    out_abs = os.path.abspath(out_path)
    best: Optional[Tuple[int, str]] = None
    for entry in os.listdir(directory):
        match = pattern.match(entry)
        if not match:
            continue
        path = os.path.join(directory, entry)
        if os.path.abspath(path) == out_abs:
            continue
        number = int(match.group(1))
        if best is None or number > best[0]:
            best = (number, path)
    return best[1] if best else None


def compare_to_baseline(current: Dict[str, Any],
                        baseline: Optional[Dict[str, Any]],
                        threshold: float) -> Tuple[bool, List[str]]:
    """Gate decision: ``(ok, notes)``.  Wall-clock numbers only compare
    when the scales match; otherwise (or with no baseline) the gate
    passes with an explanatory note."""
    if baseline is None:
        return True, ["no baseline BENCH_*.json found; gate passes "
                      "(first run records the baseline)"]
    if baseline.get("scale") != current.get("scale"):
        return True, [f"baseline scale {baseline.get('scale')!r} != "
                      f"current {current.get('scale')!r}; wall-clock "
                      "comparison skipped"]
    notes: List[str] = []
    ok = True
    base_total = baseline.get("total_wall_s") or 0.0
    cur_total = current.get("total_wall_s") or 0.0
    if base_total > 0 and cur_total > 0:
        ratio = cur_total / base_total
        note = (f"gate wall {cur_total:.3f}s vs baseline "
                f"{base_total:.3f}s ({ratio:.2f}x)")
        if ratio > 1.0 + threshold:
            ok = False
            note += f" — REGRESSION beyond {threshold:.0%}"
        notes.append(note)
    else:
        notes.append("baseline lacks total_wall_s; comparison skipped")
    base_by_name = {b.get("name"): b
                    for b in baseline.get("benchmarks", [])}
    for bench in current.get("benchmarks", []):
        base = base_by_name.get(bench["name"])
        if base and base.get("wall_s"):
            notes.append(f"  {bench['name']}: {bench['wall_s']:.3f}s "
                         f"vs {base['wall_s']:.3f}s "
                         f"({bench['wall_s'] / base['wall_s']:.2f}x)")
    return ok, notes


# --------------------------------------------------------------------------
# Matrix
# --------------------------------------------------------------------------

def run_matrix(scale: Scale, trace_out: Optional[str] = None,
               cprofile_out: Optional[str] = None) -> Dict[str, Any]:
    """Run the full benchmark matrix and return the BENCH document."""
    benchmarks: List[Dict[str, Any]] = []

    # Steady-state warm-up: one discarded tiny cell before anything is
    # timed.  The first cell in a fresh process otherwise pays the
    # interpreter's adaptive-specialization and allocator warm-up, which
    # lands entirely on the off cell (it runs first) and skews the gate
    # ratio between PRs; a throwaway run moves every measured cell to
    # steady state.  Tiny regardless of --scale: the warm-up only has to
    # touch the hot code paths, not the measured working set.
    warm_record, __ = run_linkbench_cell(Scale.TINY, "warmup.discarded")
    print(f"  warmup (discarded): {warm_record['wall_s']:.3f}s wall")

    # Gate runs: telemetry fully off, the configuration CI must protect.
    off_record, __ = run_linkbench_cell(scale, "linkbench.share.off")
    benchmarks.append(off_record)
    print(f"  {off_record['name']}: {off_record['wall_s']:.3f}s wall, "
          f"{off_record['events_per_s']:,.0f} events/s")
    for workload, name in ((YcsbWorkload.A, "ycsb.a.off"),
                           (YcsbWorkload.F, "ycsb.f.off")):
        record = run_ycsb_cell(scale, workload, name)
        benchmarks.append(record)
        print(f"  {record['name']}: {record['wall_s']:.3f}s wall, "
              f"{record['sim_ops_per_s']:,.0f} ops/s simulated")

    # Overhead runs: the same linkbench cell with telemetry full (span
    # capture + profiler, feeding trace.json) and sampled.
    profiler = PhaseProfiler()
    sink = MemorySink()
    telemetry_full = Telemetry(sink=sink, mode="full", profiler=profiler)

    def full_run():
        return run_linkbench_cell(scale, "linkbench.share.full",
                                  telemetry=telemetry_full,
                                  trace_capacity=TRACE_CAPACITY,
                                  interval_capacity=TRACE_CAPACITY)

    if cprofile_out:
        full_record, full_stack = run_with_cprofile(full_run, cprofile_out)
        print(f"  wrote {cprofile_out} (pstats)")
    else:
        full_record, full_stack = full_run()
    print(f"  {full_record['name']}: {full_record['wall_s']:.3f}s wall")

    sampled_record, __ = run_linkbench_cell(
        scale, "linkbench.share.sampled", telemetry=Telemetry(mode="sampled"))
    print(f"  {sampled_record['name']}: {sampled_record['wall_s']:.3f}s wall")

    wall_off = off_record["wall_s"]
    wall_full = full_record["wall_s"]
    wall_sampled = sampled_record["wall_s"]
    overhead_full = wall_full - wall_off
    overhead_sampled = wall_sampled - wall_off
    telemetry_section = {
        "wall_off_s": wall_off,
        "wall_full_s": wall_full,
        "wall_sampled_s": wall_sampled,
        "overhead_full_pct": (100.0 * overhead_full / wall_off
                              if wall_off > 0 else 0.0),
        "overhead_sampled_pct": (100.0 * overhead_sampled / wall_off
                                 if wall_off > 0 else 0.0),
        "sampled_vs_full_overhead_ratio": (overhead_sampled / overhead_full
                                           if overhead_full > 0 else 0.0),
        "sample_every": DEFAULT_SAMPLE_EVERY,
        "note": ("full mode carries a MemorySink (span capture for "
                 "trace.json) and a PhaseProfiler; sampled mode uses the "
                 "default NullSink — the gate numbers come from the off "
                 "run only"),
    }

    if trace_out:
        # Tail of the span stream only: spans close children-first, so a
        # suffix never contains a child whose parent record is missing.
        trace = chrome_trace(
            span_records=sink.records[-TRACE_SPAN_LIMIT:],
            devices=[("data", full_stack.data_ssd.trace,
                      full_stack.data_ssd.intervals),
                     ("log", full_stack.log_ssd.trace,
                      full_stack.log_ssd.intervals)])
        export_chrome_trace(trace_out, trace)
        print(f"  wrote {trace_out} "
              f"({len(trace['traceEvents'])} trace events)")

    micro = []
    for pattern in MICRO_PATTERNS:
        result = run_microbench(pattern, ops=MICRO_OPS[scale],
                                block_count=128)
        micro.append(result.to_bench_record())
        print(f"  micro.{pattern}: {result.wall_seconds:.3f}s wall, "
              f"{result.sim_ops_per_s:,.0f} ops/s simulated")

    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "repro.tools.benchspeed",
        "scale": scale.value,
        "warmup": {"cell": "linkbench tiny x1 (discarded)",
                   "wall_s": warm_record["wall_s"]},
        "python": platform.python_version(),
        "total_wall_s": sum(b["wall_s"] for b in benchmarks),
        "peak_rss_mib": round(peak_rss_mib(), 1),
        "benchmarks": benchmarks,
        "micro": micro,
        "telemetry": telemetry_section,
        "profile": profiler.report(total_wall_s=wall_full),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/BENCH_local.json",
                        help="output BENCH JSON path (the default is "
                             "deliberately *not* a BENCH_pr<N>.json name: "
                             "ad-hoc runs must never collide with — or be "
                             "picked up as — a committed per-PR baseline)")
    parser.add_argument("--baseline", default=None,
                        help="baseline BENCH JSON to gate against "
                             "(default: highest BENCH_pr<N>.json next to "
                             "--out)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional wall-clock regression "
                             "(default 0.20)")
    parser.add_argument("--trace-out", default=None,
                        help="also export a Chrome trace.json from the "
                             "telemetry-full run")
    parser.add_argument("--cprofile", default=None, metavar="PATH",
                        help="dump a pstats profile of the telemetry-full "
                             "run")
    parser.add_argument("--scale", choices=[s.value for s in Scale],
                        default=None,
                        help="override REPRO_BENCH_SCALE")
    parser.add_argument("--cluster", action="store_true",
                        help="run the sharded-tier matrix instead "
                             "(healthy + failover + quorum cells), gated "
                             "against the BENCH_cluster_pr<N>.json "
                             "baseline family")
    args = parser.parse_args(argv)

    scale = Scale(args.scale) if args.scale else bench_scale()
    if args.cluster:
        print(f"benchspeed: scale={scale.value} (cluster matrix)")
        document = run_cluster_matrix(scale)
        baseline_path = args.baseline or find_baseline(
            args.out, pattern=_CLUSTER_BASELINE_RE)
        baseline = None
        if baseline_path and os.path.exists(baseline_path):
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
        ok, notes = compare_to_baseline(document, baseline, args.threshold)
        document["gate"] = {
            "baseline": (os.path.basename(baseline_path)
                         if baseline else None),
            "threshold": args.threshold,
            "ok": ok,
            "notes": notes,
        }
        print(f"  total cluster wall: {document['total_wall_s']:.3f}s, "
              f"peak RSS {document['peak_rss_mib']:.1f} MiB")
        for note in notes:
            print(f"  {note}")
        out_dir = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
        return 0 if ok else 3

    print(f"benchspeed: scale={scale.value}")
    document = run_matrix(scale, trace_out=args.trace_out,
                          cprofile_out=args.cprofile)
    print(f"  total gate wall: {document['total_wall_s']:.3f}s, "
          f"peak RSS {document['peak_rss_mib']:.1f} MiB, "
          f"telemetry overhead full "
          f"{document['telemetry']['overhead_full_pct']:.1f}% / sampled "
          f"{document['telemetry']['overhead_sampled_pct']:.1f}%")

    baseline_path = args.baseline or find_baseline(args.out)
    baseline = None
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    ok, notes = compare_to_baseline(document, baseline, args.threshold)
    document["gate"] = {
        "baseline": os.path.basename(baseline_path) if baseline else None,
        "threshold": args.threshold,
        "ok": ok,
        "notes": notes,
    }
    for note in notes:
        print(f"  {note}")

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 3


if __name__ == "__main__":
    raise SystemExit(main())
