"""Render a telemetry JSONL artifact as paper-shaped text reports.

Usage::

    python -m repro.tools.report results/linkbench_telemetry.jsonl
    python -m repro.tools.report out.jsonl --section activities

Sections:

* ``activities`` — Figure-6-style breakdown of I/O activity inside the
  device (host writes vs GC copybacks vs mapping traffic), drawn from the
  final metrics snapshot,
* ``latency``    — Table-1-style percentile rows for every latency
  histogram in the final snapshot,
* ``spans``      — per-span-name count / total / mean virtual duration,
* ``gc``         — GC attribution: each ``ftl.gc`` span walked up its
  parent chain to the host-level operation that triggered it,
* ``queue``      — the event-driven device's queueing picture: per-device
  queue-wait percentiles (time a command sat admitted-but-behind-others
  versus being serviced) and per-channel busy time / utilisation,
* ``cluster``    — the sharded tier: per-shard client latency percentiles
  with epoch and replication lag, plus tier-wide kill / failover /
  replication counters,
* ``mapping``    — the L2P models: per-layout footprint, fragment and
  SHARE remap-split rows from the ``mapping_lab`` records of the
  committed ``results/mapping_lab.jsonl`` grid,
* ``sweep``      — crash sweeps: one row per (kind, workload) from the
  ``sweep-summary`` records ``python -m repro.tools.crashexplore``
  writes (any number, any kind; repeated sweeps of one pair add up).

The artifact is whatever a :class:`repro.obs.JsonlSink` captured — metric
snapshots (``type: "metrics"``), finished spans (``type: "span"``), or
crash-sweep records.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.text_plots import ascii_bars
from repro.bench.report import format_table
from repro.obs.sinks import read_jsonl

#: Final-snapshot counters that make up the Figure-6-style breakdown,
#: as (label, dotted-name-suffix-or-name) pairs.  Device counters are
#: summed across device scopes (``device.<name>.<suffix>``).
ACTIVITY_DEVICE_COUNTERS = (
    ("host writes (pages)", "host_write_pages"),
    ("host reads (pages)", "host_read_pages"),
    ("flushes", "flush_commands"),
    ("share pairs", "share_pairs"),
    ("trims", "trim_commands"),
)
ACTIVITY_FTL_COUNTERS = (
    ("GC events", "ftl.gc.events"),
    ("GC copybacks (pages)", "ftl.gc.copyback_pages"),
    ("block erases", "ftl.gc.block_erases"),
    ("map page writes", "ftl.maplog.page_writes"),
    ("wear-level moves", "ftl.wear.level_moves"),
)


def load(path: str) -> List[Dict]:
    """Read every record of a telemetry JSONL artifact."""
    return read_jsonl(path)


def last_metrics(records: Sequence[Dict]) -> Dict:
    """The final metrics snapshot's name -> value mapping ({} if none)."""
    out: Dict = {}
    for record in records:
        if record.get("type") == "metrics":
            out = record.get("metrics", {})
    return out


def _sum_device_counter(metrics: Dict, suffix: str) -> float:
    total = 0.0
    for name, value in metrics.items():
        if name.startswith("device.") and name.endswith(f".{suffix}"):
            total += value
    return total


def activity_breakdown(metrics: Dict) -> Tuple[List[str], List[float]]:
    """Figure-6-style labels and values from a metrics snapshot."""
    labels: List[str] = []
    values: List[float] = []
    for label, suffix in ACTIVITY_DEVICE_COUNTERS:
        labels.append(label)
        values.append(_sum_device_counter(metrics, suffix))
    for label, name in ACTIVITY_FTL_COUNTERS:
        labels.append(label)
        values.append(float(metrics.get(name, 0)))
    return labels, values


def render_activities(metrics: Dict, width: int = 50) -> str:
    if not metrics:
        return "no metrics snapshots in artifact"
    labels, values = activity_breakdown(metrics)
    return ascii_bars(labels, values, width=width,
                      title="I/O activities (Figure 6 shape)")


def latency_table(metrics: Dict) -> str:
    """Table-1-shaped rows for every histogram summary in the snapshot."""
    rows = []
    for name in sorted(metrics):
        value = metrics[name]
        if not isinstance(value, dict) or not value.get("count"):
            continue
        if not all(f"p{p}" in value for p in (25, 50, 75, 99)):
            continue
        rows.append([name, value["count"], value["mean"], value["p25"],
                     value["p50"], value["p75"], value["p99"], value["max"]])
    if not rows:
        return "no latency histograms in artifact"
    return format_table(
        ["histogram", "count", "mean", "P25", "P50", "P75", "P99", "max"],
        rows, title="Latency distributions (Table 1 shape)")


def span_summary(records: Sequence[Dict]) -> str:
    """Count / total / mean virtual duration per span name."""
    agg: Dict[str, List[float]] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        entry = agg.setdefault(record["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += record.get("duration_us", 0)
    if not agg:
        return "no spans in artifact"
    rows = [[name, int(count), total_us, total_us / count]
            for name, (count, total_us) in sorted(agg.items())]
    return format_table(
        ["span", "count", "total_us", "mean_us"], rows,
        title="Spans by name (virtual time)")


def gc_attribution(records: Sequence[Dict]) -> Dict[str, int]:
    """For every ``ftl.gc`` span, walk the parent chain to its root span
    and count GC events per root name — answering 'which host operation
    triggered the garbage collection?'."""
    by_id = {record["span_id"]: record for record in records
             if record.get("type") == "span"}
    out: Dict[str, int] = {}
    for record in by_id.values():
        if record["name"] != "ftl.gc":
            continue
        root = record
        while root.get("parent_id") is not None:
            parent = by_id.get(root["parent_id"])
            if parent is None:
                break  # parent fell outside the capture window
            root = parent
        out[root["name"]] = out.get(root["name"], 0) + 1
    return out


def render_gc_attribution(records: Sequence[Dict]) -> str:
    counts = gc_attribution(records)
    if not counts:
        return "no ftl.gc spans in artifact"
    rows = [[name, count] for name, count in
            sorted(counts.items(), key=lambda item: -item[1])]
    return format_table(["root span", "gc events"], rows,
                        title="GC attribution (root operation -> GC runs)")


def queue_summary(metrics: Dict) -> Tuple[List[List], List[List]]:
    """Queue-wait percentile rows and per-channel utilisation rows from
    a metrics snapshot.

    Returns ``(wait_rows, channel_rows)`` where wait rows are
    ``[device, count, mean, p50, p75, p99, max]`` (microseconds) and
    channel rows are ``[device, channel, busy_us, utilisation]``.
    """
    wait_rows: List[List] = []
    channel_rows: List[List] = []
    for name in sorted(metrics):
        if name.startswith("device.") and name.endswith(".queue.wait_us"):
            value = metrics[name]
            if isinstance(value, dict) and value.get("count"):
                device = name.split(".")[1]
                wait_rows.append([device, value["count"], value["mean"],
                                  value["p50"], value["p75"], value["p99"],
                                  value["max"]])
        if name.startswith("device.") and ".chan." in name \
                and name.endswith(".busy_us"):
            parts = name.split(".")
            device, channel = parts[1], int(parts[3])
            util = metrics.get(
                f"device.{device}.chan.{channel}.util", 0.0)
            channel_rows.append([device, channel, metrics[name], util])
    channel_rows.sort()
    return wait_rows, channel_rows


def render_queueing(metrics: Dict) -> str:
    wait_rows, channel_rows = queue_summary(metrics)
    parts = []
    if wait_rows:
        parts.append(format_table(
            ["device", "count", "mean", "P50", "P75", "P99", "max"],
            wait_rows, title="Queue wait (us, admitted -> service start)"))
    if channel_rows:
        parts.append(format_table(
            ["device", "channel", "busy_us", "utilisation"],
            channel_rows, title="Channel occupancy"))
    if not parts:
        return ("no queueing telemetry in artifact "
                "(single-channel QD1 runs stay on the serial fast path)")
    return "\n\n".join(parts)


#: Scalar ``cluster.*`` counters shown in the tier health table, as
#: (label, name-suffix) pairs.
CLUSTER_COUNTERS = (
    ("operations", "ops"),
    ("acked writes", "acked_writes"),
    ("reads", "reads"),
    ("shard kills", "shard_kills"),
    ("failovers", "failovers"),
    ("failover duration (us)", "failover_duration_us"),
    ("records replayed at promotion", "replayed_records"),
    ("replication records applied", "repl_applied"),
    ("backpressure waits", "backpressure_waits"),
    ("cross-shard copies", "cross_shard_copies"),
    ("replica reads", "replica_reads"),
    ("replica read fallbacks", "replica_read_fallbacks"),
    ("media health trips", "media_trips"),
    ("media storms injected", "media_storms"),
    ("proactive promotions", "proactive_promotions"),
    ("rebalances", "rebalances"),
    ("keys migrated", "migrated_keys"),
    ("migrations via SHARE remap", "shared_migrations"),
)

#: Tier-wide ``cluster.*`` histograms shown as distribution rows, as
#: (label, name-suffix) pairs.  ``replica_lag`` is sampled once per
#: ``pump_replication`` round per group; ``convergence_us`` records the
#: wall time from a replica rejoin/lag event to full catch-up.
CLUSTER_DISTRIBUTIONS = (
    ("replica lag at pump (records)", "replica_lag"),
    ("replica convergence time (us)", "convergence_us"),
)


def cluster_summary(metrics: Dict) -> Tuple[List[List], List[List],
                                            List[List]]:
    """Per-shard rows, tier-wide counter rows, and distribution rows
    from a snapshot.

    Shard rows are ``[shard, epoch, repl_lag, count, p50, p99, max]``
    (client-visible latency, microseconds); counter rows are
    ``[label, value]`` for every nonzero ``cluster.*`` scalar;
    distribution rows are ``[label, count, mean, p50, p99, max]`` for
    each populated histogram in :data:`CLUSTER_DISTRIBUTIONS`.
    """
    shard_rows: List[List] = []
    for name in sorted(metrics):
        if not name.startswith("cluster.latency_us."):
            continue
        value = metrics[name]
        if not isinstance(value, dict) or not value.get("count"):
            continue
        shard = name[len("cluster.latency_us."):]
        epoch = metrics.get(f"cluster.epoch.{shard}", 0)
        lag = metrics.get(f"cluster.repl_lag.{shard}", 0)
        shard_rows.append([shard, epoch, lag, value["count"], value["p50"],
                           value["p99"], value["max"]])
    counter_rows: List[List] = []
    for label, suffix in CLUSTER_COUNTERS:
        value = metrics.get(f"cluster.{suffix}")
        if value:
            counter_rows.append([label, value])
    dist_rows: List[List] = []
    for label, suffix in CLUSTER_DISTRIBUTIONS:
        value = metrics.get(f"cluster.{suffix}")
        if isinstance(value, dict) and value.get("count"):
            dist_rows.append([label, value["count"], value["mean"],
                              value["p50"], value["p99"], value["max"]])
    return shard_rows, counter_rows, dist_rows


def render_cluster(metrics: Dict) -> str:
    shard_rows, counter_rows, dist_rows = cluster_summary(metrics)
    parts = []
    if shard_rows:
        parts.append(format_table(
            ["shard", "epoch", "repl_lag", "count", "P50", "P99", "max"],
            shard_rows, title="Cluster shards (client latency, us)"))
    if counter_rows:
        parts.append(format_table(
            ["counter", "value"], counter_rows,
            title="Cluster tier (kills, failovers, replication)"))
    if dist_rows:
        parts.append(format_table(
            ["distribution", "count", "mean", "P50", "P99", "max"],
            dist_rows, title="Replica lag / convergence"))
    if not parts:
        return "no cluster telemetry in artifact"
    return "\n\n".join(parts)


def mapping_summary(records: Sequence[Dict]) -> List[List]:
    """Per-model rows from the ``mapping_lab`` records in the artifact:
    ``[strategy, workload, footprint, fragments, splits, splits/pair,
    waf]`` — the shape of ``results/mapping_lab.jsonl``."""
    rows = [[record.get("strategy", "?"),
             record.get("workload", "?"),
             record.get("footprint_bytes", 0),
             record.get("fragments", 0),
             record.get("remap_splits", 0),
             record.get("splits_per_pair", 0.0),
             record.get("waf", 0.0)]
            for record in records if record.get("type") == "mapping_lab"]
    rows.sort(key=lambda row: (row[1], row[0]))
    return rows


def render_mapping(records: Sequence[Dict]) -> str:
    rows = mapping_summary(records)
    if not rows:
        return ("no mapping_lab records in artifact (see "
                "results/mapping_lab.jsonl)")
    return format_table(
        ["model", "workload", "footprint_B", "fragments",
         "remap_splits", "splits/pair", "WAF"],
        rows, title="L2P mapping models (footprint vs WAF vs SHARE "
                    "fragmentation)")


#: Summary fields of a sweep row, then the counters shown.
SWEEP_FIELDS = ("sites", "explored", "fired", "crashed", "aborted")
SWEEP_COUNTERS = ("retries", "fallbacks", "failovers")


def sweep_summary(records: Sequence[Dict]) -> List[List]:
    """``[kind, workload, sites, explored, fired, crashed, aborted,
    retries, fallbacks, failovers, violations]`` per (kind, workload),
    summed over that pair's ``sweep-summary`` records."""
    totals: Dict[Tuple[str, str], List[int]] = {}
    for record in records:
        if record.get("type") != "sweep-summary":
            continue
        counters = record.get("counters", {})
        values = ([record.get(name, 0) for name in SWEEP_FIELDS]
                  + [counters.get(name, 0) for name in SWEEP_COUNTERS]
                  + [record.get("violations", 0)])
        key = (record.get("kind", "?"), record.get("workload", "?"))
        previous = totals.get(key, [0] * len(values))
        totals[key] = [a + b for a, b in zip(previous, values)]
    return [list(key) + values for key, values in sorted(totals.items())]


def render_sweeps(records: Sequence[Dict]) -> str:
    rows = sweep_summary(records)
    if not rows:
        return ("no sweep-summary records in artifact (see "
                "python -m repro.tools.crashexplore)")
    return format_table(
        ["kind", "workload"] + list(SWEEP_FIELDS) + list(SWEEP_COUNTERS)
        + ["violations"], rows,
        title="Crash sweeps (one row per kind and workload)")


SECTIONS = ("activities", "latency", "spans", "gc", "queue", "cluster",
            "mapping", "sweep")


def render(records: Sequence[Dict], section: str = "all") -> str:
    metrics = last_metrics(records)
    parts = []
    if section in ("all", "activities"):
        parts.append(render_activities(metrics))
    if section in ("all", "latency"):
        parts.append(latency_table(metrics))
    if section in ("all", "spans"):
        parts.append(span_summary(records))
    if section in ("all", "gc"):
        parts.append(render_gc_attribution(records))
    if section in ("all", "queue"):
        parts.append(render_queueing(metrics))
    if section in ("all", "cluster"):
        parts.append(render_cluster(metrics))
    if section in ("all", "mapping"):
        parts.append(render_mapping(records))
    if section in ("all", "sweep"):
        parts.append(render_sweeps(records))
    return "\n\n".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="Render a telemetry JSONL artifact")
    parser.add_argument("path", help="JSONL artifact written by JsonlSink")
    parser.add_argument("--section", choices=("all",) + SECTIONS,
                        default="all")
    args = parser.parse_args(argv)
    try:
        records = load(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(records, args.section))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
