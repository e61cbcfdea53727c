"""Exhaustive crash-consistency sweeps from the command line.

Usage::

    python -m repro.tools.crashexplore --workload linkbench-small
    python -m repro.tools.crashexplore --workload ftl-basic \\
        --out report.jsonl --max-points 150
    python -m repro.tools.crashexplore --workload linkbench-small \\
        --media-faults
    python -m repro.tools.crashexplore --workload linkbench-small \\
        --chaos
    python -m repro.tools.crashexplore --cluster --max-points 40
    python -m repro.tools.crashexplore --cluster-media --max-points 12
    python -m repro.tools.crashexplore --cluster-chaos --seeds 3
    python -m repro.tools.crashexplore --list

The default sweep enumerates every power-failure point the chosen
workload reaches, then re-runs it once per occurrence with a power
failure injected exactly there, recovers from the persisted media, and
checks the full invariant set (see ``docs/crash-consistency.md``).

``--media-faults`` selects the second sweep dimension instead: every
read / program / erase operation the workload issues is targeted in turn
with a media fault — transient read errors healed by read-retry, program
failures forcing block retirement, erase failures, sticky dead pages,
and sampled power+read-fault combinations (see
``docs/fault-injection.md``).  ``--media-modes`` narrows the mode list.

``--chaos`` selects the third sweep dimension: every SHARE command the
workload issues is targeted in turn with a host-boundary command fault
— timeouts healed by retry, device-busy backpressure, sticky SHARE
outages every engine must survive through its classic two-phase
fallback, and outage+power-failure combinations checking the
``no_lost_fallback`` invariant at the fallback boundary (see
``docs/resilience.md``).  ``--chaos-modes`` narrows the mode list.
Only workloads whose harnesses route SHARE through the resilience
layer can be swept.

``--cluster`` selects the fourth sweep dimension: the sharded tier's
own harness (three replicated shard pairs under a linkbench-small KV
mix — ``--workload`` is ignored) with a single-shard kill injected at
every ack boundary in turn.  Each kill power-cycles the victim primary
and latches its breaker; the router must promote the replica, replay
the delta-log tail, and satisfy ``no_lost_acked_write`` — every
acknowledged write readable after recovery (see ``docs/resilience.md``).

``--cluster-media`` storms instead of kills: at each ack boundary the
victim primary's NAND starts failing (program/erase faults the FTL
absorbs onto spare blocks), and the media-health monitor must trip a
*proactive* promotion before the device gives out.  ``--cluster-chaos``
runs the seeded chaos scheduler: per seed, one deterministic randomized
interleaving of kills, storms, transient device-busy faults and a
mid-run ring resize (with a kill mid-migration) under multi-client
traffic, checking ``no_lost_acked_write``, ``read_your_writes`` and
``replica_convergence``.

Each verdict is appended to the JSONL report as a ``{"type":
"crashcheck", ...}``, ``{"type": "mediacheck", ...}``, ``{"type":
"chaoscheck", ...}`` or ``{"type": "clustercheck", ...}`` record — the same sink format the telemetry
subsystem uses — followed by one summary record.  Exit status is 1
when any invariant was violated.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.crashcheck.chaosfaults import (ALL_CHAOS_MODES,
                                          enumerate_chaos_occurrences,
                                          enumerate_share_commands,
                                          explore_chaos)
from repro.crashcheck.cluster import (ClusterChaosHarness, ClusterHarness,
                                      enumerate_acked_writes,
                                      explore_cluster, explore_cluster_chaos,
                                      explore_cluster_media,
                                      media_cluster_harness)
from repro.crashcheck.explorer import enumerate_occurrences, explore
from repro.crashcheck.mediafaults import (ALL_MODES, GENERIC_MODES,
                                          MODE_UNCORRECTABLE,
                                          enumerate_media_ops,
                                          enumerate_media_occurrences,
                                          explore_media)
from repro.crashcheck.workloads import WORKLOADS
from repro.obs.sinks import JsonlSink


def _power_sweep(args, factory, sink) -> int:
    occurrences = enumerate_occurrences(factory)
    distinct = sorted({occ.point for occ in occurrences})
    print(f"[crashexplore] workload {args.workload}: "
          f"{len(occurrences)} fault-point occurrences across "
          f"{len(distinct)} distinct points")
    if args.max_points is not None:
        print(f"[crashexplore] budget cap: exploring first "
              f"{min(args.max_points, len(occurrences))} occurrences")
    report = explore(factory, args.workload, occurrences=occurrences,
                     max_points=args.max_points, sink=sink)
    summary = report.summary()
    print(f"[crashexplore] explored {summary['explored']} sites: "
          f"{summary['crashed']} crashed, "
          f"{summary['violations']} invariant violations")
    print(f"[crashexplore] report written to {args.out}")
    if not report.ok:
        if not args.quiet:
            for result in report.failures:
                for violation in result.violations:
                    print(f"[crashexplore] FAIL at {result.point} "
                          f"#{result.nth}: {violation}", file=sys.stderr)
        return 1
    print("[crashexplore] all invariants held at every explored point")
    return 0


def _media_sweep(args, factory, sink) -> int:
    if args.media_modes:
        modes = tuple(args.media_modes.split(","))
        unknown = [mode for mode in modes if mode not in ALL_MODES]
        if unknown:
            print(f"[crashexplore] unknown media mode(s): "
                  f"{', '.join(unknown)} (choose from "
                  f"{', '.join(ALL_MODES)})", file=sys.stderr)
            return 2
    elif args.workload == "ftl-basic":
        modes = ALL_MODES   # the raw harness supports the dead-page mode
    else:
        modes = GENERIC_MODES
    if MODE_UNCORRECTABLE in modes and args.workload != "ftl-basic":
        print(f"[crashexplore] mode {MODE_UNCORRECTABLE!r} needs the "
              f"ftl-basic workload (its oracle tolerates typed read "
              f"errors)", file=sys.stderr)
        return 2
    op_counts = enumerate_media_ops(factory)
    occurrences = enumerate_media_occurrences(factory, modes,
                                              op_counts=op_counts)
    print(f"[crashexplore] workload {args.workload}: "
          f"{op_counts['read']} reads, {op_counts['program']} programs, "
          f"{op_counts['erase']} erases -> {len(occurrences)} media "
          f"injections across modes {', '.join(modes)}")
    if args.max_points is not None and len(occurrences) > args.max_points:
        print(f"[crashexplore] budget cap: sampling {args.max_points} "
              f"injections evenly across the sweep")
    report = explore_media(factory, args.workload, modes=modes,
                           occurrences=occurrences,
                           max_points=args.max_points, sink=sink)
    summary = report.summary()
    print(f"[crashexplore] explored {summary['explored']} injections: "
          f"{summary['fired']} fired, {summary['aborted']} typed aborts, "
          f"{summary['crashed']} crashed, "
          f"{summary['violations']} invariant violations")
    print(f"[crashexplore] report written to {args.out}")
    if not report.ok:
        if not args.quiet:
            for result in report.failures:
                for violation in result.violations:
                    print(f"[crashexplore] FAIL {result.mode} "
                          f"{result.op} #{result.nth}: {violation}",
                          file=sys.stderr)
        return 1
    print("[crashexplore] all invariants held at every explored injection")
    return 0


def _chaos_sweep(args, factory, sink) -> int:
    if not hasattr(factory, "guards"):
        print(f"[crashexplore] workload {args.workload!r} does not route "
              f"SHARE through the resilience layer (no guards()); the "
              f"chaos sweep has nothing to verify there", file=sys.stderr)
        return 2
    modes = ALL_CHAOS_MODES
    if args.chaos_modes:
        modes = tuple(args.chaos_modes.split(","))
        unknown = [mode for mode in modes if mode not in ALL_CHAOS_MODES]
        if unknown:
            print(f"[crashexplore] unknown chaos mode(s): "
                  f"{', '.join(unknown)} (choose from "
                  f"{', '.join(ALL_CHAOS_MODES)})", file=sys.stderr)
            return 2
    share_commands = enumerate_share_commands(factory)
    occurrences = enumerate_chaos_occurrences(
        factory, modes, share_commands=share_commands)
    print(f"[crashexplore] workload {args.workload}: "
          f"{share_commands} SHARE commands -> {len(occurrences)} chaos "
          f"injections across modes {', '.join(modes)}")
    if args.max_points is not None and len(occurrences) > args.max_points:
        print(f"[crashexplore] budget cap: sampling {args.max_points} "
              f"injections evenly across the sweep")
    report = explore_chaos(factory, args.workload, modes=modes,
                           occurrences=occurrences,
                           max_points=args.max_points, sink=sink)
    summary = report.summary()
    print(f"[crashexplore] explored {summary['explored']} injections: "
          f"{summary['fired']} fired, {summary['crashed']} crashed, "
          f"{summary['retries']} retries, {summary['fallbacks']} "
          f"fallbacks, {summary['violations']} invariant violations")
    print(f"[crashexplore] report written to {args.out}")
    if not report.ok:
        if not args.quiet:
            for result in report.failures:
                for violation in result.violations:
                    print(f"[crashexplore] FAIL {result.mode} "
                          f"#{result.nth}: {violation}", file=sys.stderr)
        return 1
    print("[crashexplore] all invariants held at every explored injection")
    return 0


def _cluster_sweep(args, sink) -> int:
    acked = enumerate_acked_writes(ClusterHarness)
    print(f"[crashexplore] workload {ClusterHarness.name}: "
          f"{acked} acked writes -> {acked} shard-kill boundaries")
    if args.max_points is not None and acked > args.max_points:
        print(f"[crashexplore] budget cap: sampling {args.max_points} "
              f"boundaries evenly across the sweep")
    report = explore_cluster(ClusterHarness, ClusterHarness.name,
                             max_points=args.max_points, sink=sink)
    summary = report.summary()
    print(f"[crashexplore] explored {summary['explored']} kills: "
          f"{summary['fired']} fired, {summary['failovers']} failovers, "
          f"{summary['replayed']} records replayed, "
          f"{summary['violations']} invariant violations")
    print(f"[crashexplore] report written to {args.out}")
    if not report.ok:
        if not args.quiet:
            for result in report.failures:
                for violation in result.violations:
                    print(f"[crashexplore] FAIL kill #{result.nth} "
                          f"({result.victim}): {violation}",
                          file=sys.stderr)
        return 1
    print("[crashexplore] no acked write was lost at any explored boundary")
    return 0


def _cluster_media_sweep(args, sink) -> int:
    acked = enumerate_acked_writes(media_cluster_harness)
    print(f"[crashexplore] workload cluster-media: {acked} acked writes "
          f"-> {acked} media-storm boundaries")
    if args.max_points is not None and acked > args.max_points:
        print(f"[crashexplore] budget cap: sampling {args.max_points} "
              f"boundaries evenly across the sweep")
    report = explore_cluster_media(media_cluster_harness,
                                   max_points=args.max_points, sink=sink)
    summary = report.summary()
    print(f"[crashexplore] explored {summary['explored']} storms: "
          f"{summary['fired']} fired, {summary['media_trips']} health "
          f"trips, {summary['proactive_promotions']} proactive "
          f"promotions, {summary['violations']} invariant violations")
    print(f"[crashexplore] report written to {args.out}")
    if not report.ok:
        if not args.quiet:
            for result in report.failures:
                for violation in result.violations:
                    print(f"[crashexplore] FAIL storm #{result.nth} "
                          f"({result.victim}): {violation}",
                          file=sys.stderr)
        return 1
    if report.proactive_promotions < 1:
        print("[crashexplore] FAIL: no storm tripped a proactive "
              "promotion — the health monitor never noticed the media "
              "degrading", file=sys.stderr)
        return 1
    print("[crashexplore] every storm was absorbed; health trips promoted "
          "proactively")
    return 0


def _cluster_chaos_sweep(args, sink) -> int:
    seeds = list(range(1, args.seeds + 1))
    print(f"[crashexplore] workload {ClusterChaosHarness.name}: "
          f"{len(seeds)} seeded randomized schedules "
          f"(kills + storms + busy faults + mid-rebalance kill)")
    report = explore_cluster_chaos(seeds=seeds, sink=sink)
    summary = report.summary()
    print(f"[crashexplore] ran {summary['seeds']} seeds: "
          f"{summary['kills']} kills ({summary['mid_rebalance_kills']} "
          f"mid-rebalance), {summary['storms']} storms, "
          f"{summary['busy_faults']} busy faults, "
          f"{summary['failovers']} failovers, "
          f"{summary['migrated_keys']} keys migrated, "
          f"{summary['ryw_checks']} read-your-writes checks, "
          f"{summary['violations']} invariant violations")
    print(f"[crashexplore] report written to {args.out}")
    if not report.ok:
        if not args.quiet:
            for result in report.failures:
                for violation in result.violations:
                    print(f"[crashexplore] FAIL seed {result.seed}: "
                          f"{violation}", file=sys.stderr)
        return 1
    print("[crashexplore] all three cluster invariants held on every seed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.crashexplore",
        description="Systematic power-failure and media-fault sweeps "
                    "over a workload's fault points.")
    parser.add_argument("--workload", default="linkbench-small",
                        choices=sorted(WORKLOADS),
                        help="workload harness to sweep "
                             "(default: linkbench-small)")
    parser.add_argument("--out", default="crashexplore-report.jsonl",
                        help="JSONL report path "
                             "(default: crashexplore-report.jsonl)")
    parser.add_argument("--max-points", type=int, default=None,
                        metavar="N",
                        help="explore only N occurrences (budget cap for "
                             "CI smoke runs; the media sweep samples "
                             "evenly, the power sweep takes the first N)")
    parser.add_argument("--media-faults", action="store_true",
                        help="sweep media faults (read/program/erase "
                             "failures) instead of power failures")
    parser.add_argument("--media-modes", default=None, metavar="M1,M2",
                        help="comma-separated media modes "
                             f"({', '.join(ALL_MODES)}; default: all "
                             f"generic modes, plus 'uncorrectable' on "
                             f"ftl-basic)")
    parser.add_argument("--chaos", action="store_true",
                        help="sweep host-boundary command faults (SHARE "
                             "timeouts, busy bursts, sticky outages, "
                             "outage+power) instead of power failures")
    parser.add_argument("--chaos-modes", default=None, metavar="M1,M2",
                        help="comma-separated chaos modes "
                             f"({', '.join(ALL_CHAOS_MODES)}; "
                             f"default: all)")
    parser.add_argument("--cluster", action="store_true",
                        help="sweep single-shard kills at every ack "
                             "boundary of the sharded-tier harness "
                             "(ignores --workload)")
    parser.add_argument("--cluster-media", action="store_true",
                        help="sweep NAND media storms (not kills) at every "
                             "ack boundary; the health monitor must trip "
                             "proactive promotions (ignores --workload)")
    parser.add_argument("--cluster-chaos", action="store_true",
                        help="run the seeded cluster chaos scheduler: "
                             "randomized kills, storms, busy faults and a "
                             "mid-run rebalance per seed "
                             "(ignores --workload)")
    parser.add_argument("--seeds", type=int, default=3, metavar="N",
                        help="number of chaos seeds for --cluster-chaos "
                             "(default: 3)")
    parser.add_argument("--list", action="store_true",
                        help="list available workloads and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-violation output")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(WORKLOADS):
            print(name)
        return 0

    if sum((args.media_faults, args.chaos, args.cluster,
            args.cluster_media, args.cluster_chaos)) > 1:
        print("[crashexplore] --media-faults, --chaos, --cluster, "
              "--cluster-media and --cluster-chaos are separate sweep "
              "dimensions; pick one per run", file=sys.stderr)
        return 2
    factory = WORKLOADS[args.workload]
    sink = JsonlSink(args.out)
    try:
        if args.media_faults:
            return _media_sweep(args, factory, sink)
        if args.chaos:
            return _chaos_sweep(args, factory, sink)
        if args.cluster:
            return _cluster_sweep(args, sink)
        if args.cluster_media:
            return _cluster_media_sweep(args, sink)
        if args.cluster_chaos:
            return _cluster_chaos_sweep(args, sink)
        return _power_sweep(args, factory, sink)
    finally:
        sink.close()


if __name__ == "__main__":
    raise SystemExit(main())
