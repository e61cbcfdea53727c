"""Exhaustive crash-consistency sweeps from the command line.

Usage::

    python -m repro.tools.crashexplore --workload linkbench-small
    python -m repro.tools.crashexplore --workload ftl-basic \\
        --out report.jsonl --max-points 150
    python -m repro.tools.crashexplore --faults media \\
        --workload linkbench-small
    python -m repro.tools.crashexplore --faults chaos \\
        --workload sqlite-share --modes share-outage,chaos+power
    python -m repro.tools.crashexplore --faults shard-kill
    python -m repro.tools.crashexplore --faults shard-storm
    python -m repro.tools.crashexplore --faults cluster-chaos --seeds 20
    python -m repro.tools.crashexplore --list

``--faults`` picks one fault kind of the sweep engine
(:mod:`repro.crashcheck.sweep`).  One fault-free run of the harness
enumerates the kind's sites; the workload is then re-run once per site
with that fault injected, recovered from the persisted media, and
checked against the full invariant set:

* ``power`` (default) — a power failure at every checkpoint occurrence
  (see ``docs/crash-consistency.md``).
* ``media`` — a NAND fault at every read / program / erase: transient
  read errors healed by read-retry, program and erase failures forcing
  block retirement, sticky dead pages (ftl-basic only), and sampled
  power+read-fault pairs (see ``docs/fault-injection.md``).
* ``chaos`` — a host-boundary command fault at every SHARE command:
  timeouts healed by retry, busy bursts, sticky outages every engine
  must survive through its classic fallback, and outage+power-failure
  pairs checking ``no_lost_fallback`` (see ``docs/resilience.md``).
  Only workloads that route SHARE through the resilience layer.
* ``shard-kill`` — the sharded tier's own harness (``--workload`` is
  ignored) with the acking shard's primary killed at every ack boundary;
  ``no_lost_acked_write`` must hold through failover.
* ``shard-storm`` — a NAND storm instead of a kill at every ack
  boundary; the health monitor must promote proactively at least once.
* ``cluster-chaos`` — ``--seeds`` seeded randomized schedules of kills,
  storms, busy faults and a mid-rebalance kill, checking
  ``no_lost_acked_write``, ``read_your_writes`` and
  ``replica_convergence``.

``--modes`` narrows a kind to some of its modes; ``--max-points`` caps
any sweep by sampling sites evenly across the whole list.  Each site is
appended to the JSONL report as a ``{"type": "sweep", "kind": ...}``
record — the sink format the telemetry subsystem uses — followed by one
``{"type": "sweep-summary", ...}`` record (render it with
``python -m repro.tools.report --section sweep``).  Exit status is 1
when any invariant was violated, 2 for an invalid request.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.crashcheck.sweep import KINDS, ClusterChaosKind, Sweep
from repro.crashcheck.workloads import WORKLOADS
from repro.obs.sinks import JsonlSink


def _site_label(result) -> str:
    site = result.site
    label = f"{site.mode} #{site.nth}"
    if site.flavor is not None:
        label += f" ({site.flavor})"
    if site.point is not None:
        label += f" power at {site.point} #{site.point_nth}"
    if result.victim is not None:
        label += f" [{result.victim}]"
    return label


def _sweep(args, sweep: Sweep, sink) -> int:
    """Run one sweep and print it from its summary record."""
    enumerated = ", ".join(f"{count} {name}" for name, count
                           in sweep.enumerated.items() if count)
    print(f"[crashexplore] {sweep.kind.name} sweep of {sweep.workload}: "
          f"{len(sweep.sites)} sites across modes {', '.join(sweep.modes)}"
          + (f" (probe: {enumerated})" if enumerated else ""))
    if args.max_points is not None and len(sweep.sites) > args.max_points:
        print(f"[crashexplore] budget cap: sampling {args.max_points} "
              f"sites evenly across the sweep")
    report = sweep.explore(max_points=args.max_points, sink=sink)
    summary = report.summary()
    counters = "".join(f"{value} {name}, " for name, value
                       in summary["counters"].items())
    print(f"[crashexplore] explored {summary['explored']} sites: "
          f"{summary['fired']} fired, {summary['crashed']} crashed, "
          f"{summary['aborted']} typed aborts, {counters}"
          f"{summary['violations']} invariant violations")
    print(f"[crashexplore] report written to {args.out}")
    for violation in summary["sweep_violations"]:
        print(f"[crashexplore] FAIL: {violation}", file=sys.stderr)
    if not report.ok:
        if not args.quiet:
            for result in report.failures:
                for violation in result.violations:
                    print(f"[crashexplore] FAIL {_site_label(result)}: "
                          f"{violation}", file=sys.stderr)
        return 1
    print("[crashexplore] all invariants held at every explored site")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.crashexplore",
        description="Exhaustive fault sweeps: power failures, media "
                    "faults, SHARE command faults and sharded-tier "
                    "faults, each injected at every site a workload "
                    "reaches.")
    parser.add_argument("--faults", default="power", choices=list(KINDS),
                        help="fault kind to sweep (default: power)")
    parser.add_argument("--workload", default="linkbench-small",
                        choices=sorted(WORKLOADS),
                        help="workload harness for the power, media and "
                             "chaos kinds; the cluster kinds run their "
                             "own (default: linkbench-small)")
    parser.add_argument("--modes", default=None, metavar="M1,M2",
                        help="comma-separated modes of the kind (default: "
                             "all; media adds 'uncorrectable' only on "
                             "ftl-basic); --list shows them")
    parser.add_argument("--out", default="crashexplore-report.jsonl",
                        help="JSONL report path "
                             "(default: crashexplore-report.jsonl)")
    parser.add_argument("--max-points", type=int, default=None,
                        metavar="N",
                        help="explore only N sites, sampled evenly across "
                             "the whole sweep (budget cap)")
    parser.add_argument("--seeds", type=int, default=3, metavar="N",
                        help="number of schedules for --faults "
                             "cluster-chaos (default: 3)")
    parser.add_argument("--list", action="store_true",
                        help="list workloads and each kind's modes, "
                             "then exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-violation output")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(WORKLOADS):
            print(name)
        for kind in KINDS.values():
            print(f"--faults {kind.name}: {', '.join(kind.modes)}")
        return 0

    kind = KINDS[args.faults]
    if isinstance(kind, ClusterChaosKind):
        kind = ClusterChaosKind(seeds=args.seeds)
    modes = None if args.modes is None else tuple(args.modes.split(","))
    try:
        sweep = Sweep(kind, workload=kind.workload or args.workload,
                      modes=modes)
    except (ValueError, TypeError) as exc:
        print(f"[crashexplore] {exc}", file=sys.stderr)
        return 2
    sink = JsonlSink(args.out)
    try:
        return _sweep(args, sweep, sink)
    finally:
        sink.close()


if __name__ == "__main__":
    raise SystemExit(main())
