"""The crash-sweep engine: enumerate fault sites, inject, recover, verify.

Every sweep in this package has the same deterministic two-phase shape:

1. **Probe** — build the harness on a fresh :class:`FaultPlan`, turn on
   the checkpoint trace and the media, command and cluster-ack counters,
   and run the workload once with nothing armed.  That one fault-free
   run yields every checkpoint occurrence ``(point, nth)`` (the nth
   firing of a named point) and the number of chip operations, SHARE
   commands and acknowledged writes the run issues.  Counting starts
   after setup, exactly where injection arms.
2. **Injection** — a fault *kind* turns the probe into a list of
   :class:`Site` s.  For each one :func:`explore_site` builds a fresh
   harness on a fresh plan, arms the kind's fault (plus a power failure
   when the site names a checkpoint), runs, disarms, recovers from the
   persisted media, and checks the media invariants of
   :func:`~repro.crashcheck.invariants.check_media` on every recovered
   device, the harness's engine contract and the kind's own rules.

Determinism of the harness is what makes a sweep exhaustive rather than
probabilistic: ``nth`` in phase 2 counts exactly what the probe saw.

The six kinds (:data:`KINDS`) differ only in their sites, the fault
they arm and a few extra verdict rules:

* ``power`` — a power failure at every checkpoint occurrence.
* ``media`` — a NAND fault at every chip operation (see
  :class:`MediaKind`).
* ``chaos`` — a host-boundary command fault at every SHARE command (see
  :class:`ChaosKind`).
* ``shard-kill`` / ``shard-storm`` — kill, or storm the NAND of, the
  acking shard's primary at every ack boundary of the sharded tier.
* ``cluster-chaos`` — one seeded randomized fault schedule per site.

Each explored site is emitted as one ``{"type": "sweep", "kind": ...}``
record and each sweep ends with one ``{"type": "sweep-summary",
"kind": ...}`` record, whatever the kind; ``python -m repro.tools.report
--section sweep`` renders the summaries.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.crashcheck.cluster import (ClusterChaosHarness, ClusterHarness,
                                      media_cluster_harness)
from repro.crashcheck.invariants import check_media
from repro.crashcheck.workloads import WORKLOADS
from repro.errors import DeviceError, MediaError, PowerFailure
from repro.sim.faults import (CommandTimeout, DeviceBusy, EraseFault,
                              FaultPlan, PowerFailAfter, ProgramFault,
                              ReadFault, ShardKill, ShardMediaStorm,
                              ShareOutage)


def sample_evenly(items: List, limit: int) -> List:
    """At most ``limit`` items, spread evenly across ``items``.

    A naive ``items[::len(items) // limit][:limit]`` degenerates to head
    truncation whenever ``limit <= len(items) < 2 * limit`` (integer
    stride 1), silently dropping the tail — and with it whole sweep
    modes.  Index selection ``i * n // limit`` keeps the spread exact
    for any ratio.
    """
    total = len(items)
    if limit <= 0:
        return []
    if total <= limit:
        return list(items)
    return [items[i * total // limit] for i in range(limit)]


class Site(NamedTuple):
    """One injection site.

    ``nth`` is 1-based in the mode's own count space: the nth checkpoint
    the run reaches (power), the nth chip operation of the mode's kind
    (media), the nth SHARE command (chaos), the nth acknowledged write
    (shard kinds) or the seed (cluster-chaos).  ``point`` and
    ``point_nth`` name a power failure at the ``point_nth``-th firing of
    checkpoint ``point``: the whole fault of a power site, the paired
    failure of a ``power+read`` or ``chaos+power`` site.
    """

    mode: str
    nth: int
    flavor: Optional[str] = None     # chaos: timeout phase / outage error
    point: Optional[str] = None
    point_nth: int = 0


class SiteResult(NamedTuple):
    """Verdict for one injected site."""

    site: Site
    fired: bool                      # did the armed fault trigger?
    crashed: bool                    # did power fail mid-run?
    aborted: Optional[str]           # typed error class that ended run()
    counters: Dict[str, int]         # the kind's evidence (retries, ...)
    violations: Tuple[str, ...]
    recovery_trace: Tuple[str, ...] = ()
    victim: Optional[str] = None     # the shard a cluster fault hit

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_record(self, kind: str, workload: str) -> Dict:
        """The JSONL report row."""
        site = self.site
        return {
            "type": "sweep",
            "kind": kind,
            "workload": workload,
            "mode": site.mode,
            "nth": site.nth,
            "flavor": site.flavor,
            "point": site.point,
            "point_nth": site.point_nth,
            "fired": self.fired,
            "crashed": self.crashed,
            "aborted": self.aborted,
            "victim": self.victim,
            "counters": dict(self.counters),
            "ok": self.ok,
            "violations": list(self.violations),
            "recovery_trace": list(self.recovery_trace[:24]),
            "recovery_trace_len": len(self.recovery_trace),
        }


class Report(NamedTuple):
    """Aggregate of one sweep."""

    kind: str
    workload: str
    modes: Tuple[str, ...]
    enumerated: Dict[str, int]       # what the fault-free probe counted
    sites: Tuple[Site, ...]
    results: Tuple[SiteResult, ...]
    #: Verdicts on the sweep as a whole (e.g. no storm ever promoted).
    sweep_violations: Tuple[str, ...] = ()

    @property
    def points(self) -> List[str]:
        """The distinct checkpoint names the sites fail power at."""
        return sorted({site.point for site in self.sites
                       if site.point is not None})

    @property
    def failures(self) -> List[SiteResult]:
        return [res for res in self.results if not res.ok]

    @property
    def counters(self) -> Dict[str, int]:
        """Every per-site counter, summed over the explored sites."""
        totals: Dict[str, int] = {}
        for res in self.results:
            for name, value in res.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    @property
    def ok(self) -> bool:
        return not self.failures and not self.sweep_violations

    def summary(self) -> Dict:
        results = self.results
        return {
            "type": "sweep-summary",
            "kind": self.kind,
            "workload": self.workload,
            "modes": list(self.modes),
            "enumerated": dict(self.enumerated),
            "sites": len(self.sites),
            "distinct_points": len(self.points),
            "explored": len(results),
            "fired": sum(1 for res in results if res.fired),
            "crashed": sum(1 for res in results if res.crashed),
            "aborted": sum(1 for res in results if res.aborted),
            "counters": self.counters,
            "violations": (sum(len(res.violations) for res in results)
                           + len(self.sweep_violations)),
            "sweep_violations": list(self.sweep_violations),
            "ok": self.ok,
        }


def checkpoints(trace: List[str]) -> List[Tuple[str, int]]:
    """``(point, nth)`` for each trace entry: the nth firing of point."""
    counts: Dict[str, int] = {}
    out: List[Tuple[str, int]] = []
    for point in trace:
        counts[point] = counts.get(point, 0) + 1
        out.append((point, counts[point]))
    return out


# ------------------------------------------------------------------ kinds


class Kind:
    """One fault kind: how to enumerate its sites, arm one, and judge it.

    The base class is the power kind's behaviour; the others override
    only what differs."""

    name = ""
    #: Every mode, in the order a full sweep executes them.
    modes: Tuple[str, ...] = ()
    #: Typed errors that may end ``run()``: recorded as an abort, not
    #: condemned (the contract is "fail typed, lose nothing acked").
    aborts: Tuple[type, ...] = ()
    #: The kind's own harness factory and workload name (cluster kinds);
    #: ``None`` means the caller picks a workload from :data:`WORKLOADS`.
    factory: Optional[Callable] = None
    workload: Optional[str] = None

    def default_modes(self, workload: str) -> Tuple[str, ...]:
        return self.modes

    def validate(self, workload: str, modes: Tuple[str, ...]) -> None:
        unknown = [mode for mode in modes if mode not in self.modes]
        if unknown:
            raise ValueError(
                f"unknown {self.name} mode(s): {', '.join(unknown)} "
                f"(choose from {', '.join(self.modes)})")

    def enumerate(self, factory: Callable, modes: Tuple[str, ...]
                  ) -> Tuple[Dict[str, int], List[Site]]:
        """Phase 1: the one fault-free probe run, turned into sites."""
        faults = FaultPlan()
        harness = self.build(factory, faults, None)
        faults.enable_trace()
        faults.media.enable_counting()
        faults.commands.enable_counting()
        faults.cluster.enable_counting()
        harness.run()
        trace = faults.trace
        counts = dict(faults.media.op_counts,
                      share=faults.commands.op_counts["share"],
                      acked_writes=faults.cluster.acked_writes,
                      checkpoints=len(trace))
        return counts, self.sites(factory, modes, counts,
                                  checkpoints(trace))

    def sites(self, factory: Callable, modes: Tuple[str, ...],
              counts: Dict[str, int],
              points: List[Tuple[str, int]]) -> List[Site]:
        return [Site("power", index, point=point, point_nth=nth)
                for index, (point, nth) in enumerate(points, 1)]

    def build(self, factory: Callable, faults: FaultPlan,
              site: Optional[Site]):
        """A fresh harness (``site`` is ``None`` for enumeration runs)."""
        return factory(faults)

    def arm(self, faults: FaultPlan, site: Site) -> None:
        """Arm the kind's fault; a site's power failure is armed by the
        loop itself."""

    def fired(self, faults: FaultPlan, crashed: bool) -> bool:
        return crashed

    def victim(self, faults: FaultPlan) -> Optional[str]:
        return None

    def observe(self, harness, result: SiteResult) -> List[str]:
        """Before recovery: violations and counters the run leaves."""
        return []

    def disarm(self, faults: FaultPlan, site: Site) -> None:
        """Drop the kind's fault before recovery (power fuses are
        dropped by the loop)."""

    def verdict(self, harness, result: SiteResult) -> List[str]:
        """After recovery and the media checks: the engine contract plus
        the kind's own rules; may add post-recovery counters."""
        return harness.check_engine()

    def sweep_verdict(self, counters: Dict[str, int]) -> List[str]:
        return []


def _fired(fault_set) -> bool:
    """Did the fault armed into ``fault_set`` trigger?  Transient and
    one-shot faults remove themselves when they do, so an emptied set
    also means it fired."""
    return bool(fault_set.fired_faults()) or not fault_set.armed()


class PowerKind(Kind):
    """A power failure at every checkpoint occurrence the run reaches."""

    name = "power"
    modes = ("power",)


MODE_READ_RETRY = "read-retry"
MODE_PROGRAM_FAIL = "program-fail"
MODE_ERASE_FAIL = "erase-fail"
MODE_UNCORRECTABLE = "uncorrectable"
MODE_POWER_READ = "power+read"

#: Modes applicable to any workload harness (``uncorrectable`` needs the
#: raw ftl-basic oracle).
GENERIC_MODES = (MODE_READ_RETRY, MODE_PROGRAM_FAIL, MODE_ERASE_FAIL,
                 MODE_POWER_READ)

#: The chip operation each single-fault media mode targets.
MEDIA_OPS = {MODE_READ_RETRY: "read", MODE_PROGRAM_FAIL: "program",
             MODE_ERASE_FAIL: "erase", MODE_UNCORRECTABLE: "read"}

#: How many power occurrences ``power+read`` samples (evenly over the
#: checkpoint trace, each paired with a distinct read op).
POWER_READ_SAMPLES = 24

#: Co-prime stride used to spread the paired read-fault targets across
#: the read-operation space deterministically.
_READ_STRIDE = 37


class MediaKind(Kind):
    """How the chips fail: one media fault per chip operation.

    * ``read-retry`` — a transient :class:`ReadFault` (one failed
      attempt, then clears) at every read.  Firmware read-retry must
      heal it: an abort is a violation.
    * ``program-fail`` — a one-shot :class:`ProgramFault` at every
      program.  The FTL must re-program elsewhere and retire the block.
    * ``erase-fail`` — a sticky :class:`EraseFault` at every erase.  GC
      must retire the block instead of retrying forever.
    * ``uncorrectable`` — a sticky dead page at every read, *kept armed
      through recovery*.  Every acked LPN must then read its exact value
      or a typed :class:`MediaError` — never silently wrong data.  Only
      on ``ftl-basic``, whose oracle the check reads directly.
    * ``power+read`` — a transient read fault paired with a power
      failure at a sampled checkpoint occurrence.

    A typed device-error abort (e.g. ``OutOfSpaceError`` after retiring
    a block on a device without spares) is recorded, not condemned.
    """

    name = "media"
    modes = (MODE_READ_RETRY, MODE_PROGRAM_FAIL, MODE_ERASE_FAIL,
             MODE_UNCORRECTABLE, MODE_POWER_READ)
    aborts = (DeviceError,)

    def default_modes(self, workload: str) -> Tuple[str, ...]:
        return self.modes if workload == "ftl-basic" else GENERIC_MODES

    def validate(self, workload: str, modes: Tuple[str, ...]) -> None:
        super().validate(workload, modes)
        if MODE_UNCORRECTABLE in modes and workload != "ftl-basic":
            raise ValueError(
                f"mode {MODE_UNCORRECTABLE!r} needs the ftl-basic "
                f"workload (its oracle tolerates typed read errors)")

    def sites(self, factory, modes, counts, points):
        sites: List[Site] = []
        for mode in modes:
            if mode != MODE_POWER_READ:
                sites += [Site(mode, nth)
                          for nth in range(1, counts[MEDIA_OPS[mode]] + 1)]
            elif counts["read"]:
                # Power points strided evenly, read targets strided by a
                # co-prime so the pairs cover both spaces.
                sites += [
                    Site(mode, (index * _READ_STRIDE) % counts["read"] + 1,
                         point=point, point_nth=nth)
                    for index, (point, nth)
                    in enumerate(sample_evenly(points, POWER_READ_SAMPLES))]
        return sites

    def arm(self, faults, site):
        if site.mode == MODE_PROGRAM_FAIL:
            fault = ProgramFault(nth=site.nth)
        elif site.mode == MODE_ERASE_FAIL:
            fault = EraseFault(nth=site.nth)
        elif site.mode == MODE_UNCORRECTABLE:
            fault = ReadFault(nth=site.nth)   # sticky dead page
        else:
            fault = ReadFault(nth=site.nth, retries_to_clear=1)
        faults.arm_media(fault)

    def fired(self, faults, crashed):
        return _fired(faults.media)

    def disarm(self, faults, site):
        if site.mode != MODE_UNCORRECTABLE:
            faults.disarm_media()

    def verdict(self, harness, result):
        mode = result.site.mode
        if mode == MODE_UNCORRECTABLE:
            return _typed_or_correct(harness)
        violations: List[str] = []
        if result.aborted is not None and mode == MODE_READ_RETRY:
            violations.append(
                f"{mode}: run aborted with {result.aborted} — a transient "
                f"read fault must be healed by read-retry")
        return violations + harness.check_engine()


def _typed_or_correct(harness) -> List[str]:
    """The degraded-device contract for the raw ftl-basic harness: every
    acked LPN outside the interrupted operation must read its exact
    value or raise a typed :class:`MediaError` — never wrong data."""
    violations: List[str] = []
    ftl = harness.ssd.ftl
    unacked = harness.faults.unacked_op()
    ambiguous = set(unacked.lpns) if unacked is not None else set()
    for lpn, expected in sorted(harness.durable.items()):
        if lpn in ambiguous:
            continue
        if not ftl.is_mapped(lpn):
            violations.append(
                f"ftl: acked LPN {lpn} lost under media fault "
                f"(expected {expected!r})")
            continue
        try:
            value = ftl.read(lpn)
        except MediaError:
            continue   # a typed error IS the contract for a dead page
        if value != expected:
            violations.append(
                f"ftl: acked LPN {lpn} silently corrupted under media "
                f"fault: reads {value!r}, expected {expected!r}")
    return violations


MODE_SHARE_TIMEOUT = "share-timeout"
MODE_SHARE_BUSY = "share-busy"
MODE_SHARE_OUTAGE = "share-outage"
MODE_CHAOS_POWER = "chaos+power"

#: The flavour of each single-fault chaos mode's site, as (even nth,
#: odd nth): half the timeouts exercise the ambiguous
#: applied-but-completion-lost retry, half the outages hang.
CHAOS_FLAVORS = {MODE_SHARE_TIMEOUT: ("complete", "submit"),
                 MODE_SHARE_BUSY: (None, None),
                 MODE_SHARE_OUTAGE: ("timeout", "unsupported")}

#: How many power points ``chaos+power`` explores beyond the
#: always-included fallback-boundary occurrences.
CHAOS_POWER_SAMPLES = 24

#: How many busy rejections a share-busy site injects (must stay under
#: the default retry budget so the run can complete).
BUSY_REJECTIONS = 2


class ChaosKind(Kind):
    """How the host→device command boundary fails, at every SHARE.

    * ``share-timeout`` — a one-shot :class:`CommandTimeout`, alternating
      submission-rejected and applied-but-completion-lost.  Retry must
      heal it: the guards must report a retry.
    * ``share-busy`` — a :class:`DeviceBusy` burst (two rejections, then
      clears).  Backoff-and-retry must ride it out.
    * ``share-outage`` — a sticky :class:`ShareOutage` from that SHARE
      on, alternating unsupported/hung.  Every engine must finish through
      its classic two-phase fallback: the guards must report one.
    * ``chaos+power`` — a sticky outage from the first SHARE plus a
      power failure at a checkpoint of that degraded run: every
      fallback-boundary occurrence, plus an even sample of the rest.
      Engine violations there are ``no_lost_fallback`` violations.

    Command faults never reach the media, so any typed abort outside
    ``chaos+power`` is a violation.  The harness must expose
    ``guards()``: their local stats prove retries and fallbacks ran.
    """

    name = "chaos"
    modes = (MODE_SHARE_TIMEOUT, MODE_SHARE_BUSY, MODE_SHARE_OUTAGE,
             MODE_CHAOS_POWER)
    aborts = (DeviceError,)

    def build(self, factory, faults, site):
        harness = factory(faults)
        if not hasattr(harness, "guards"):
            raise TypeError(
                f"harness {type(harness).__name__} exposes no guards(); "
                f"the chaos sweep needs the resilience layer to verify")
        return harness

    def sites(self, factory, modes, counts, points):
        sites: List[Site] = []
        for mode in modes:
            if mode == MODE_CHAOS_POWER:
                sites += self._fallback_power_sites(factory)
                continue
            flavors = CHAOS_FLAVORS[mode]
            sites += [Site(mode, nth, flavors[nth % 2])
                      for nth in range(1, counts["share"] + 1)]
        return sites

    def _fallback_power_sites(self, factory) -> List[Site]:
        """The power-failure sites of the degraded run (sticky outage
        from the first SHARE): every fallback-boundary occurrence plus
        an even stride over the rest of its trace."""
        faults = FaultPlan()
        harness = self.build(factory, faults, None)
        faults.arm_command(ShareOutage(nth=1, error="unsupported"))
        faults.enable_trace()
        harness.run()
        boundary: List[Tuple[str, int]] = []
        rest: List[Tuple[str, int]] = []
        for point, nth in checkpoints(faults.trace):
            (boundary if "fallback" in point else rest).append((point, nth))
        chosen = boundary + sample_evenly(rest, CHAOS_POWER_SAMPLES)
        return [Site(MODE_CHAOS_POWER, 1, "unsupported", point, nth)
                for point, nth in chosen]

    def arm(self, faults, site):
        if site.mode == MODE_SHARE_TIMEOUT:
            fault = CommandTimeout("share", nth=site.nth,
                                   after_apply=site.flavor == "complete")
        elif site.mode == MODE_SHARE_BUSY:
            fault = DeviceBusy("share", nth=site.nth,
                               clears_after=BUSY_REJECTIONS)
        else:   # share-outage, and chaos+power's outage from SHARE #1
            fault = ShareOutage(nth=site.nth, error=site.flavor)
        faults.arm_command(fault)

    def fired(self, faults, crashed):
        return _fired(faults.commands)

    def observe(self, harness, result):
        guards = harness.guards()
        result.counters["retries"] = sum(g.stats.retries for g in guards)
        result.counters["fallbacks"] = sum(g.stats.fallbacks
                                           for g in guards)
        return []

    def disarm(self, faults, site):
        faults.disarm_commands()   # recovery sees a healthy device

    def verdict(self, harness, result):
        site = result.site
        violations = harness.check_engine()
        if site.point is not None and "fallback" in site.point:
            # Dying at the fallback boundary must lose nothing acked.
            violations = [f"no_lost_fallback: {violation}"
                          for violation in violations]
        if site.mode == MODE_CHAOS_POWER:
            return violations
        if result.aborted is not None:
            violations.append(
                f"{site.mode}: run aborted with {result.aborted} — the "
                f"resilience layer must absorb command faults")
        if (result.fired and site.mode in (MODE_SHARE_TIMEOUT,
                                           MODE_SHARE_BUSY)
                and not result.counters["retries"]):
            violations.append(
                f"{site.mode}: fault fired but no guard reported a "
                f"retry — the transient was not healed by the retry path")
        if (result.fired and site.mode == MODE_SHARE_OUTAGE
                and not result.counters["fallbacks"]):
            violations.append(
                f"{site.mode}: sticky outage fired but no guard "
                f"reported a fallback — who served the workload?")
        return violations


class ShardKillKind(Kind):
    """Kill the acking shard's primary after every acknowledged write.

    Each kill power-cycles the victim primary and latches its breaker;
    the router must promote the replica, replay the delta-log tail and
    satisfy ``no_lost_acked_write``.  One synchronous client means an
    ack boundary has nothing in flight: any violation is a real bug in
    replication, promotion replay or epoch fencing."""

    name = "shard-kill"
    modes = ("shard-kill",)
    factory = ClusterHarness
    workload = ClusterHarness.name
    fault = ShardKill

    def sites(self, factory, modes, counts, points):
        return [Site(self.name, nth)
                for nth in range(1, counts["acked_writes"] + 1)]

    def arm(self, faults, site):
        faults.arm_cluster(self.fault(nth=site.nth))

    def fired(self, faults, crashed):
        return _fired(faults.cluster)

    def victim(self, faults):
        fired = faults.cluster.fired_faults()
        return fired[0].victim if fired else None

    def disarm(self, faults, site):
        faults.disarm_cluster()

    def verdict(self, harness, result):
        violations = harness.check_engine()
        stats = harness.router.stats
        result.counters.update(failovers=stats.failovers,
                               replayed=stats.replayed_records,
                               repl_applied=stats.repl_applied)
        return violations


class ShardStormKind(ShardKillKind):
    """A NAND media storm, not a kill, at every ack boundary.

    The victim primary's programs start failing; the FTL absorbs each
    failure onto a spare block so no client sees an error, and the
    media-health monitor must trip a *proactive* promotion.  Storms late
    in the run may end before the health score trips, so the promotion
    rule is checked over the whole sweep, not per site."""

    name = "shard-storm"
    modes = ("shard-storm",)
    factory = staticmethod(media_cluster_harness)
    workload = "cluster-media"
    fault = ShardMediaStorm

    def verdict(self, harness, result):
        violations = harness.check_engine()
        stats = harness.router.stats
        if result.fired and stats.media_storms == 0:
            violations.append(
                "cluster-media: storm fired but the router never "
                "injected it")
        result.counters.update(
            media_trips=stats.media_trips,
            proactive_promotions=stats.proactive_promotions,
            failovers=stats.failovers)
        return violations

    def sweep_verdict(self, counters):
        if counters.get("proactive_promotions", 0) >= 1:
            return []
        return ["shard-storm: no storm tripped a proactive promotion — "
                "the health monitor never noticed the media degrading"]


class ClusterChaosKind(Kind):
    """One seeded randomized schedule per site (``nth`` is the seed).

    The harness interleaves multi-client traffic with shard kills, media
    storms, transient device-busy faults and a mid-run ring resize (with
    a kill during the migration) and checks ``read_your_writes`` inline,
    ``replica_convergence`` at quiescence and ``no_lost_acked_write``
    after every device is power-cycled.  Its faults are injected by the
    schedule itself, so nothing is armed and nothing is enumerated."""

    name = "cluster-chaos"
    modes = ("seed",)
    factory = ClusterChaosHarness
    workload = ClusterChaosHarness.name

    def __init__(self, seeds: int = 3) -> None:
        self.seeds = seeds

    def enumerate(self, factory, modes):
        return {}, [Site("seed", seed) for seed in range(1, self.seeds + 1)]

    def build(self, factory, faults, site):
        return factory(site.nth)

    def fired(self, faults, crashed):
        return True   # every schedule injects (at least its mid-resize kill)

    def observe(self, harness, result):
        return list(harness.violations) + harness.check_convergence()

    def verdict(self, harness, result):
        violations = harness.check_engine()
        stats = harness.router.stats
        result.counters.update(
            acked_writes=stats.acked_writes, kills=harness.kills,
            storms=harness.storms, busy_faults=harness.busy_faults,
            failovers=stats.failovers,
            proactive_promotions=stats.proactive_promotions,
            media_trips=stats.media_trips,
            migrated_keys=stats.migrated_keys,
            replica_reads=stats.replica_reads,
            ryw_checks=harness.ryw_checks,
            mid_rebalance_kills=int(harness.mid_rebalance_kill))
        return violations


#: Every fault kind by name, in the order the CLI lists them.
KINDS: Dict[str, Kind] = {kind.name: kind for kind in (
    PowerKind(), MediaKind(), ChaosKind(), ShardKillKind(),
    ShardStormKind(), ClusterChaosKind())}


# ------------------------------------------------------------------ engine


def explore_site(kind: Kind, factory: Callable, site: Site) -> SiteResult:
    """Phase 2 for one site: fresh harness, arm, run, disarm, recover,
    verify."""
    faults = FaultPlan()
    harness = kind.build(factory, faults, site)
    kind.arm(faults, site)
    if site.point is not None:
        faults.arm(PowerFailAfter(site.point, site.point_nth))
    crashed = False
    aborted: Optional[str] = None
    try:
        harness.run()
    except PowerFailure:
        crashed = True
    except kind.aborts as exc:
        aborted = type(exc).__name__
    result = SiteResult(site, kind.fired(faults, crashed), crashed, aborted,
                        {}, (), victim=kind.victim(faults))
    violations = kind.observe(harness, result)
    faults.disarm()          # power fuses never fire during recovery
    kind.disarm(faults, site)
    faults.enable_trace()    # ... but do record the recovery path
    devices = harness.recover()
    recovery_trace = tuple(faults.trace)
    for device in devices:
        violations += check_media(device.name, device.ssd, device.max_refs)
    violations += kind.verdict(harness, result)
    return result._replace(violations=tuple(violations),
                           recovery_trace=recovery_trace)


class Sweep:
    """One fault kind over one workload harness.

    Construction validates the modes and runs the fault-free enumeration
    once; :meth:`explore` injects every site, or ``max_points`` of them
    sampled evenly across the whole list, whatever the kind.
    """

    def __init__(self, kind: Kind, workload: Optional[str] = None,
                 factory: Optional[Callable] = None,
                 modes: Optional[Tuple[str, ...]] = None) -> None:
        self.kind = kind
        self.workload = workload or kind.workload
        self.factory = factory or kind.factory or WORKLOADS[self.workload]
        self.modes = (kind.default_modes(self.workload) if modes is None
                      else tuple(modes))
        kind.validate(self.workload, self.modes)
        self.enumerated, self.sites = kind.enumerate(self.factory,
                                                     self.modes)

    def explore(self, max_points: Optional[int] = None,
                sink=None) -> Report:
        """Inject each site; ``sink`` is any telemetry sink
        (``emit(dict)``) and receives each site's record as it completes,
        then the summary."""
        explored = (self.sites if max_points is None
                    else sample_evenly(self.sites, max_points))
        results: List[SiteResult] = []
        for site in explored:
            result = explore_site(self.kind, self.factory, site)
            results.append(result)
            if sink is not None:
                sink.emit(result.as_record(self.kind.name, self.workload))
        report = Report(self.kind.name, self.workload, self.modes,
                        self.enumerated, tuple(self.sites), tuple(results))
        report = report._replace(sweep_violations=tuple(
            self.kind.sweep_verdict(report.counters)))
        if sink is not None:
            sink.emit(report.summary())
        return report
