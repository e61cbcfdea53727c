"""The SSD block device.

``Ssd`` is what the host stack talks to: a page-addressed block device with
``read``/``write``/``trim``/``flush`` plus the paper's vendor-unique
``share`` command.  It wraps a :class:`PageMappingFtl`, prices every
command's latency (including GC work the command triggered), and maintains
the :class:`DeviceStats` counters Figure 6 reports.

Timing is event-driven.  Each command is *submitted*: it is admitted
through a bounded :class:`NativeCommandQueue`, spends a DRAM/firmware
phase, occupies the NAND channels its pages live on (per-channel busy
resources, so work on different channels overlaps), and *completes* at a
scheduled :class:`~repro.sim.events.EventScheduler` event which delivers
telemetry, the I/O trace record, completion-phase command faults and the
deferred ack-boundary journal entry — in global completion order across
every device sharing the scheduler.

With no session attached (the default), each command method submits and
immediately waits for its own completion, which at ``queue_depth=1`` and
one channel reproduces the old caller-advances-the-clock model
bit-for-bit.  When nothing else is pending on the scheduler, that wait
delivers the completion inline rather than through a scheduled event;
the clock, the fired-event count and the delivery order are the same
either way (see :meth:`Ssd._wait`).  Attaching a :class:`DeviceSession`
turns the same methods into non-blocking submissions whose arrival time
is the session cursor — that is how N closed-loop benchmark clients
drive one device concurrently.

A second, plain :class:`Ssd` without SHARE enabled stands in for the
Samsung PM853T log device of the experimental setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DeviceError, ShareError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.timing import MLC_TIMING, ChannelSet, FlashTiming
from repro.ftl.config import FtlConfig
from repro.ftl.pagemap import PageMappingFtl
from repro.ftl.share_ext import SharePair
from repro.obs import NULL_TELEMETRY, hot_timer
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.faults import NO_FAULTS, FaultPlan
from repro.ssd.ncq import CommandTicket, DeviceSession, NativeCommandQueue
from repro.ssd.stats import DeviceStats
from repro.ssd.trace import IntervalTrace, IoTrace


@dataclass(frozen=True)
class SsdConfig:
    """Device assembly options.

    ``dram_cache_pages`` models the controller's I/O read cache — the
    DRAM that Section 4.2.1 says the reverse-mapping share table is
    traded against ("we trade a portion of cache space for the reverse
    mapping").  0 disables it.

    ``queue_depth`` bounds the native command queue: how many commands
    may be outstanding between admission and completion.  1 (the
    default) serialises commands exactly like the old synchronous
    model.  ``plane_ways`` is the number of interleave units per NAND
    channel (plane pairs); operations on different ways of one channel
    overlap.

    ``interval_capacity`` bounds the per-channel busy-interval ring
    (:class:`~repro.ssd.trace.IntervalTrace`) the Chrome-trace exporter
    draws channel lanes from.  0 (default) disables capture.
    """

    geometry: FlashGeometry = FlashGeometry()
    timing: FlashTiming = MLC_TIMING
    ftl: FtlConfig = FtlConfig()
    share_enabled: bool = True
    trace_capacity: int = 0
    trace_keep: str = "oldest"
    dram_cache_pages: int = 0
    queue_depth: int = 1
    plane_ways: int = 1
    interval_capacity: int = 0


class Ssd:
    """Page-addressed block device with the SHARE extension."""

    def __init__(self, clock: SimClock, config: Optional[SsdConfig] = None,
                 faults: FaultPlan = NO_FAULTS, telemetry=None,
                 name: str = "ssd",
                 events: Optional[EventScheduler] = None,
                 ncq: Optional[NativeCommandQueue] = None) -> None:
        self.config = config or SsdConfig()
        self.clock = clock
        self.faults = faults
        self.name = name
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.telemetry.bind_clock(clock)
        self.nand = NandArray(self.config.geometry, faults=faults)
        self.ftl = PageMappingFtl(self.nand, self.config.ftl, faults,
                                  telemetry=self.telemetry)
        self.timing = self.config.timing
        self.stats = DeviceStats(page_size=self.config.geometry.page_size)
        self.trace = IoTrace(self.config.trace_capacity,
                             keep=self.config.trace_keep)
        self.intervals = IntervalTrace(self.config.interval_capacity)
        from repro.ssd.cache import DramReadCache
        self.cache = DramReadCache(self.config.dram_cache_pages)
        # Event-driven execution core.  Devices of one stack (data + log
        # SSD) share a scheduler so completions fire in global order.
        self.events = events if events is not None else EventScheduler(
            clock, profiler=getattr(self.telemetry, "profiler", None))
        self.channels = ChannelSet(self.config.geometry.channel_count,
                                   ways=self.config.plane_ways)
        # A stack may pass one shared NCQ to several devices: at depth 1
        # that models a host doing synchronous I/O (one outstanding
        # command across the whole stack), which is what the serial
        # model's equivalence requires.
        self.ncq = ncq if ncq is not None \
            else NativeCommandQueue(self.config.queue_depth)
        self._session: Optional[DeviceSession] = None
        # In-flight commands as a min-heap of (completion_us, cmd_seq,
        # ticket).  One scheduler event per *timestamp frame* (the
        # earliest pending completion) drains every due ticket in
        # (completion_us, cmd_seq) order — a burst of N same-time
        # completions costs one heap pop and one dispatched callback in
        # the scheduler instead of N scheduled closures.  ``cmd_seq``
        # is the per-device submission order, so same-timestamp
        # completions fire in the order the host issued them.
        self._inflight: List[Tuple[int, int, CommandTicket]] = []
        self._cmd_seq = 0
        self._drain_event = None
        self._drain_label = f"{name}.drain"
        # Media cost per work-ledger kind, resolved once (replaces a
        # per-entry if-chain on the pricing path).
        timing = self.timing
        page_size = self.config.geometry.page_size
        self._work_cost: Dict[str, float] = {
            "host_read": timing.read_latency(page_size),
            "host_program": timing.program_latency(page_size),
            "copyback": timing.copyback_us,
            "erase": timing.erase_us,
            "map_write": timing.program_us,
            "spill": timing.read_us + timing.program_us,
            "spill_lookup": timing.read_us,
        }
        # Host command base latencies, resolved once for the read/write
        # fast paths (same values as the host_read/host_program entries).
        self._read_latency_us = self._work_cost["host_read"]
        self._program_latency_us = self._work_cost["host_program"]
        # Integer channel occupancy of a lone host_read/host_program
        # ledger entry — the media piece _price_media would compute for
        # it, before the clamp to the command total.
        self._host_media_us: Dict[str, int] = {
            kind: max(0, int(round(self._work_cost[kind])))
            for kind in ("host_read", "host_program")}
        self._overhead_us = timing.command_overhead_us
        self._measure_start_us = clock.now_us
        clock.on_reset(self._on_clock_reset)
        # Telemetry handles, resolved once (no-op singletons when the
        # telemetry is NULL_TELEMETRY, so the hot path stays free).
        metrics = self.telemetry.metrics.scope(f"device.{name}")
        self._m_commands = {kind: metrics.counter(f"{kind}_commands")
                            for kind in ("read", "write", "trim", "share",
                                         "flush")}
        self._m_pages = {"read": metrics.counter("host_read_pages"),
                         "write": metrics.counter("host_write_pages"),
                         "trim": metrics.counter("trim_pages"),
                         "share": metrics.counter("share_pairs"),
                         "flush": metrics.counter("flush_pages")}
        self._m_latency = {kind: metrics.histogram(f"latency_us.{kind}")
                           for kind in ("read", "write", "trim", "share",
                                        "flush")}
        self._m_busy_us = metrics.counter("busy_us")
        self._m_queue_wait = metrics.histogram("queue.wait_us")
        self._m_queue_depth = metrics.gauge("queue.depth")
        channel_count = self.config.geometry.channel_count
        self._m_chan_busy = [metrics.counter(f"chan.{ch}.busy_us")
                             for ch in range(channel_count)]
        self._m_chan_util = [metrics.gauge(f"chan.{ch}.util")
                             for ch in range(channel_count)]
        # Sampled-mode gate for per-completion histogram/gauge recording
        # (always-hit in full mode, never-hit when telemetry is off).
        self._sampler = getattr(self.telemetry, "sampler", None)
        # Wall-clock phase timers (None when no profiler is attached, so
        # the hot path pays one load + branch).
        profiler = getattr(self.telemetry, "profiler", None)
        self._pt_issue = hot_timer(profiler, "ncq.admit")
        self._pt_complete = hot_timer(profiler, "device.complete")
        self._pt_emit = hot_timer(profiler, "obs.emit")

    # ---------------------------------------------------------- properties

    @property
    def page_size(self) -> int:
        return self.config.geometry.page_size

    @property
    def logical_pages(self) -> int:
        return self.ftl.logical_pages

    @property
    def capacity_bytes(self) -> int:
        return self.logical_pages * self.page_size

    @property
    def max_share_batch(self) -> int:
        return self.ftl.max_share_batch

    @property
    def supports_share(self) -> bool:
        return self.config.share_enabled

    # ----------------------------------------------------- submission API

    def attach_session(self, session: DeviceSession) -> None:
        """Issue the following commands from ``session``: they arrive at
        the session cursor and return without waiting for completion."""
        if self._session is not None and self._session is not session:
            raise DeviceError(
                f"device {self.name!r} already has a session attached")
        self._session = session

    def detach_session(self) -> None:
        """Return to synchronous (submit-and-wait) issue."""
        self._session = None

    _SUBMITTABLE = ("read", "write", "write_multi", "write_atomic", "trim",
                    "flush", "share", "share_batch", "idle_gc")

    def submit(self, kind: str, *args, **kwargs):
        """Submit one command by kind.  With a session attached this
        queues the command and returns immediately; without one it
        degenerates to the synchronous call."""
        if kind not in self._SUBMITTABLE:
            raise DeviceError(f"unknown command kind {kind!r} "
                              f"(choose from {', '.join(self._SUBMITTABLE)})")
        return getattr(self, kind)(*args, **kwargs)

    def poll(self, now_us: Optional[int] = None) -> int:
        """Fire every completion due at or before ``now_us`` (default:
        the session cursor, else the clock); returns how many commands
        are still in flight."""
        if now_us is None:
            now_us = (self._session.now_us if self._session is not None
                      else self.clock.now_us)
        self.events.run_until(now_us)
        return len(self._inflight)

    def drain(self) -> None:
        """Complete every in-flight command, advancing the clock to the
        device's completion horizon."""
        while self._inflight:
            horizon = max(item[0] for item in self._inflight)
            self.events.run_until(horizon)

    # ------------------------------------------------------------ commands

    def _gate(self, kind: str, lpns: Sequence[int],
              phase: str = "submit") -> None:
        """Command-fault gate at the host→device boundary.

        Consulted at submission (before any media work) and completion
        (after the work, modelling a lost completion).  Latency-spike
        delays are charged to the issuing session's cursor (or the
        clock, when synchronous); error faults raise typed
        :class:`DeviceError` subclasses the host resilience layer
        handles.  Disarmed cost: one attribute check."""
        commands = self.faults.commands
        if not commands.active:
            return
        delay_us = commands.on_command(kind, lpns, phase)
        if delay_us:
            self.stats.busy_us += delay_us
            if self._session is not None:
                self._session.now_us += delay_us
            else:
                self.clock.advance(delay_us)

    def read(self, lpn: int) -> Any:
        """Read one page (through the controller DRAM cache if enabled)."""
        if self.faults.commands.active:
            self._gate("read", (lpn,))
        tracer = self.telemetry.tracer
        if tracer.enabled:
            with tracer.span("device.read"):
                return self._read_cmd(lpn)
        return self._read_cmd(lpn)

    def _read_cmd(self, lpn: int) -> Any:
        self.ftl.take_work()   # discard stale work from direct FTL use
        cache = self.cache
        cached = cache.lookup(lpn) if cache.enabled else None
        if cached is not None:
            self.stats.host_read_pages += 1
            data = cached[0]
            ticket = self._issue("read", lpn, 1,
                                 0.0)   # DRAM-speed hit
        else:
            data = self.ftl.read(lpn)
            if cache.enabled:
                cache.insert(lpn, data)
            self.stats.host_read_pages += 1
            ticket = self._issue("read", lpn, 1,
                                 self._read_latency_us)
        self._wait(ticket)
        return data

    def write(self, lpn: int, data: Any) -> None:
        """Write one page (out-of-place inside the device)."""
        if self.faults.commands.active:
            self._gate("write", (lpn,))
        tracer = self.telemetry.tracer
        if tracer.enabled:
            with self.faults.operation("device.write", (lpn,),
                                       deferred=True) as op, \
                    tracer.span("device.write"):
                ticket = self._write_cmd(lpn, data, op)
        else:
            with self.faults.operation("device.write", (lpn,),
                                       deferred=True) as op:
                ticket = self._write_cmd(lpn, data, op)
        self._wait(ticket)

    def _write_cmd(self, lpn: int, data: Any, op: Any) -> "CommandTicket":
        self.ftl.take_work()   # discard stale work from direct FTL use
        self.ftl.write(lpn, data)
        if self.cache.enabled:
            self.cache.insert(lpn, data)
        self.stats.host_write_pages += 1
        return self._issue(
            "write", lpn, 1,
            self._program_latency_us,
            op_kind="device.write", op_record=op)

    def write_multi(self, lpn: int, pages: Sequence[Any]) -> None:
        """Write consecutive pages in one host command (one command
        overhead, per-page programs)."""
        if not pages:
            raise DeviceError("write_multi with no pages")
        if self.faults.commands.active:
            self._gate("write", tuple(range(lpn, lpn + len(pages))))
        with self.faults.operation("device.write_multi",
                                   tuple(range(lpn, lpn + len(pages))),
                                   deferred=True) as op, \
                self.telemetry.tracer.span("device.write"):
            self.ftl.take_work()   # discard stale work from direct FTL use
            cache = self.cache
            for index, page in enumerate(pages):
                self.ftl.write(lpn + index, page)
                if cache.enabled:
                    cache.insert(lpn + index, page)
            self.stats.host_write_pages += len(pages)
            ticket = self._issue(
                "write", lpn, len(pages),
                len(pages) * self.timing.program_latency(self.page_size),
                op_kind="device.write_multi", op_record=op)
        self._wait(ticket)

    def write_atomic(self, items: Sequence) -> None:
        """Atomic multi-page write (the Section 6.1 baseline command:
        Park et al. / FusionIO-style).  All pages land or none do."""
        if not items:
            raise DeviceError("write_atomic with no pages")
        lpns = tuple(lpn for lpn, __ in items)
        if self.faults.commands.active:
            self._gate("awrite", lpns)
        with self.faults.operation("device.awrite", lpns,
                                   deferred=True) as op, \
                self.telemetry.tracer.span("device.write", atomic=True):
            self.ftl.take_work()   # discard stale work from direct FTL use
            self.ftl.write_atomic(items)
            if self.cache.enabled:
                for item_lpn, data in items:
                    self.cache.insert(item_lpn, data)
            self.stats.host_write_pages += len(items)
            self.stats.extra["atomic_write_commands"] = (
                self.stats.extra.get("atomic_write_commands", 0) + 1)
            ticket = self._issue(
                "write", items[0][0], len(items),
                len(items) * self.timing.program_latency(self.page_size),
                op_kind="device.awrite", op_record=op,
                gate_kind="awrite", gate_lpns=lpns)
        self._wait(ticket)

    # X-FTL transactional interface (Section 6.2 baseline) --------------

    def begin_txn(self) -> int:
        """Open an X-FTL transaction."""
        return self.ftl.begin_txn()

    def write_txn(self, txn_id: int, lpn: int, data: Any) -> None:
        """Stage one in-place page write under a transaction."""
        with self.telemetry.tracer.span("device.write", txn=txn_id):
            self.ftl.take_work()   # discard stale work from direct FTL use
            self.ftl.write_txn(txn_id, lpn, data)
            self.stats.host_write_pages += 1
            ticket = self._issue(
                "write", lpn, 1,
                self.timing.program_latency(self.page_size))
        self._wait(ticket)

    def commit_txn(self, txn_id: int) -> None:
        """Atomically publish a transaction's staged pages."""
        with self.faults.operation(
                "device.xcommit", tuple(self.ftl._txn_shadow.get(txn_id, ())),
                deferred=True) as op, \
                self.telemetry.tracer.span("device.flush", txn=txn_id):
            self.ftl.take_work()   # discard stale work from direct FTL use
            staged_lpns = list(self.ftl._txn_shadow.get(txn_id, ()))
            self.ftl.commit_txn(txn_id)
            if self.cache.enabled:
                for lpn in staged_lpns:
                    self.cache.invalidate(lpn)
            ticket = self._issue("flush", 0, 0, 0.0,
                                 op_kind="device.xcommit", op_record=op)
        self._wait(ticket)

    def abort_txn(self, txn_id: int) -> None:
        """Discard a transaction's staged pages."""
        with self.telemetry.tracer.span("device.trim", txn=txn_id):
            self.ftl.take_work()   # discard stale work from direct FTL use
            self.ftl.abort_txn(txn_id)
            ticket = self._issue("trim", 0, 0, 0.0)
        self._wait(ticket)

    def trim(self, lpn: int, count: int = 1) -> None:
        """Invalidate a logical range."""
        if self.faults.commands.active:
            self._gate("trim", tuple(range(lpn, lpn + max(count, 1))))
        with self.faults.operation("device.trim",
                                   tuple(range(lpn, lpn + max(count, 1))),
                                   deferred=True) as op, \
                self.telemetry.tracer.span("device.trim"):
            self.ftl.take_work()   # discard stale work from direct FTL use
            self.ftl.trim(lpn, count)
            if self.cache.enabled:
                self.cache.invalidate(lpn, count)
            self.stats.trim_commands += 1
            ticket = self._issue("trim", lpn, count,
                                 count * self.timing.map_update_us,
                                 op_kind="device.trim", op_record=op)
        self._wait(ticket)

    def idle_gc(self, max_blocks: int = 1,
                min_invalid_fraction: float = 0.5) -> int:
        """Host-initiated background GC (run during think time).  The
        reclaim work is charged like any other command, but it happens
        when no foreground request is waiting — trading idle time for
        smaller foreground stalls."""
        with self.telemetry.tracer.span("device.idle_gc"):
            self.ftl.take_work()   # discard stale work from direct FTL use
            reclaimed = self.ftl.idle_gc(max_blocks, min_invalid_fraction)
            ticket = self._issue("trim", 0, reclaimed, 0.0)
        self._wait(ticket)
        return reclaimed

    def flush(self) -> None:
        """Barrier: persist pending mapping changes.  Data-page writes are
        durable at command completion already (no volatile write cache is
        modelled), matching the paper's O_DIRECT setup."""
        if self.faults.commands.active:
            self._gate("flush", ())
        tracer = self.telemetry.tracer
        if tracer.enabled:
            with self.faults.operation("device.flush", deferred=True) as op, \
                    tracer.span("device.flush"):
                ticket = self._flush_cmd(op)
        else:
            with self.faults.operation("device.flush", deferred=True) as op:
                ticket = self._flush_cmd(op)
        self._wait(ticket)

    def _flush_cmd(self, op: Any) -> "CommandTicket":
        self.ftl.take_work()   # discard stale work from direct FTL use
        self.ftl.flush()
        self.stats.flush_commands += 1
        return self._issue("flush", 0, 0, 0.0,
                           op_kind="device.flush", op_record=op)

    def share(self, dst_lpn: int, src_lpn: int, length: int = 1) -> None:
        """Vendor-unique SHARE command (ranged form).

        SHARE is a mapping-only command: it occupies no NAND channel,
        only the firmware/DRAM phase — the heart of the paper's claim
        that remapping replaces page writes."""
        if not self.config.share_enabled:
            raise ShareError("device does not support the SHARE command")
        lpns = tuple(range(dst_lpn, dst_lpn + length))
        if self.faults.commands.active:
            self._gate("share", lpns)
        with self.faults.operation("device.share", lpns,
                                   deferred=True) as op, \
                self.telemetry.tracer.span("device.share"):
            self.ftl.take_work()   # discard stale work from direct FTL use
            self.ftl.share(dst_lpn, src_lpn, length)
            if self.cache.enabled:
                self.cache.invalidate(dst_lpn, length)
            self.stats.share_commands += 1
            self.stats.share_pairs += length
            ticket = self._issue("share", dst_lpn, length,
                                 length * self.timing.map_update_us,
                                 op_kind="device.share", op_record=op,
                                 gate_kind="share", gate_lpns=lpns)
        self._wait(ticket)

    def share_batch(self, pairs: Sequence[SharePair]) -> None:
        """Vendor-unique SHARE command (batched pair form)."""
        if not self.config.share_enabled:
            raise ShareError("device does not support the SHARE command")
        lpns = tuple(pair.dst_lpn for pair in pairs)
        if self.faults.commands.active:
            self._gate("share", lpns)
        with self.faults.operation("device.share", lpns,
                                   deferred=True) as op, \
                self.telemetry.tracer.span("device.share"):
            self.ftl.take_work()   # discard stale work from direct FTL use
            self.ftl.share_batch(pairs)
            if self.cache.enabled:
                for pair in pairs:
                    self.cache.invalidate(pair.dst_lpn)
            self.stats.share_commands += 1
            self.stats.share_pairs += len(pairs)
            ticket = self._issue(
                "share", pairs[0].dst_lpn, len(pairs),
                len(pairs) * self.timing.map_update_us,
                op_kind="device.share", op_record=op,
                gate_kind="share", gate_lpns=lpns)
        self._wait(ticket)

    # ----------------------------------------------------------- internals

    def _work_cost_us(self, kind: str) -> float:
        """Media time of one work-ledger entry (used for *placement* of
        busy time onto channels; the authoritative command total is the
        analytic formula in :meth:`_issue`)."""
        return self._work_cost.get(kind, 0.0)

    def _price_media(self, latency_us: float,
                     work: Sequence[Tuple[str, int]]) -> Tuple[int, Dict[int, int]]:
        """Split one command's total latency into a front DRAM/firmware
        part and integer per-channel media occupancies.

        Conservation rule: the pieces always sum to
        ``int(round(latency_us))`` — the same rounding the serial model
        applied per command — so the work ledger only decides *where*
        busy time lands, never how much there is.  At one channel the
        split is exact and the completion time equals the serial model's.
        """
        total_int = int(round(latency_us))
        if not work:
            return total_int, {}
        work_cost = self._work_cost
        if len(work) == 1:
            # One ledger entry (a lone mapping-page program is the most
            # common internal work): skip the per-channel dict entirely.
            kind, channel = work[0]
            cost = work_cost.get(kind, 0.0)
            if cost <= 0.0:
                return total_int, {}
            dur = int(round(cost))
            if dur > total_int:
                dur = total_int
            if dur <= 0:
                return total_int, {}
            return total_int - dur, {channel: dur}
        per_channel: Dict[int, float] = {}
        for kind, channel in work:
            cost = work_cost.get(kind, 0.0)
            if cost > 0.0:
                if channel in per_channel:
                    per_channel[channel] += cost
                else:
                    per_channel[channel] = cost
        if not per_channel:
            return total_int, {}
        if len(per_channel) == 1:
            # Single-channel fast path (every 1ch stack, and most
            # commands on wider stacks): exactly the general algorithm
            # below with the shave step folded into a clamp.
            (channel, us), = per_channel.items()
            dur = int(round(us))
            if dur > total_int:
                dur = total_int
            if dur <= 0:
                return total_int, {}
            return total_int - dur, {channel: dur}
        pieces = {channel: int(round(us))
                  for channel, us in per_channel.items()}
        pieces = {channel: dur for channel, dur in pieces.items() if dur > 0}
        dram_us = total_int - sum(pieces.values())
        if dram_us < 0:
            # Per-channel rounding overshot the authoritative total
            # (only possible with 2+ channels): shave the largest piece.
            largest = max(pieces, key=lambda channel: pieces[channel])
            pieces[largest] = max(0, pieces[largest] + dram_us)
            if pieces[largest] == 0:
                del pieces[largest]
            dram_us = total_int - sum(pieces.values())
            if dram_us < 0:
                # Pathological: collapse to a pure firmware phase.
                pieces = {}
                dram_us = total_int
        return dram_us, pieces

    def _issue(self, kind: str, lpn: int, count: int,
               base_latency_us: float,
               op_kind: Optional[str] = None, op_record: Any = None,
               gate_kind: Optional[str] = None,
               gate_lpns: Optional[Tuple[int, ...]] = None) -> CommandTicket:
        """Price the command (base latency plus the internal work — GC
        copybacks, erases, mapping-page programs, spills — it
        triggered), admit it through the NCQ and occupy its channels.
        With a session attached the completion is queued for the device
        drain event here; a synchronous command completes in
        :meth:`_wait`.

        Per-command work deltas come from the FTL's work ledger: every
        internal-work counter increment leaves a ledger entry (some,
        like ``gc_event``, at zero media cost), so counting entries
        reproduces the old before/after counter diff exactly — and the
        common no-internal-work command skips the accounting entirely.
        The caller drains stale ledger entries (direct FTL use between
        commands: aging, recovery) before mutating the FTL."""
        pt_issue = self._pt_issue
        t0 = perf_counter_ns() if pt_issue is not None else 0
        stats = self.stats
        work = self.ftl.take_work()
        gc_events = 0
        copybacks = 0
        pieces = None
        if not work:
            latency = base_latency_us + self._overhead_us
            dram_us = int(round(latency))
        elif len(work) == 1 and work[0][0] in self._host_media_us:
            # A lone host page read/program (the common command): every
            # internal-work delta of the expression below is zero, so the
            # latency is its first two terms, and the one media piece is
            # the entry's resolved duration clamped to the total — what
            # _price_media computes for a single entry.
            (work_kind, channel), = work
            latency = base_latency_us + self._overhead_us
            dram_us = int(round(latency))
            media_us = self._host_media_us[work_kind]
            if media_us > dram_us:
                media_us = dram_us
            if media_us > 0:
                dram_us -= media_us
                pieces = ((channel, media_us),)
        else:
            timing = self.timing
            erases = map_writes = spills = 0
            log_spills = spill_lookups = wear_moves = 0
            for work_kind, __ in work:
                if work_kind == "map_write":
                    map_writes += 1
                elif work_kind == "copyback":
                    copybacks += 1
                elif work_kind == "erase":
                    erases += 1
                elif work_kind == "gc_event":
                    gc_events += 1
                elif work_kind == "spill":
                    spills += 1
                elif work_kind == "spill_lookup":
                    spill_lookups += 1
                elif work_kind == "log_spill":
                    log_spills += 1
                elif work_kind == "wear_move":
                    wear_moves += 1
            # NOTE: this expression (terms and their order) is the
            # authoritative command latency the serial oracle reproduces
            # — the two branches above are its exact value when every
            # delta is zero (x + 0.0*c == x for these non-negative
            # latencies).
            latency = (base_latency_us
                       + timing.command_overhead_us
                       + copybacks * timing.copyback_us
                       + erases * timing.erase_us
                       + map_writes * timing.program_us
                       + spills * (timing.read_us + timing.program_us)
                       + spill_lookups * timing.read_us)
            stats.copyback_pages += copybacks
            stats.block_erases += erases
            stats.map_page_writes += map_writes
            stats.share_spill_pages += spills
            stats.share_log_spills += log_spills
            stats.spill_lookups += spill_lookups
            stats.gc_events += gc_events
            stats.wear_level_moves += wear_moves
            dram_us, per_channel = self._price_media(latency, work)
            if per_channel:
                pieces = per_channel.items()
        stats.busy_us += latency

        # Timing: admission through the bounded queue, a DRAM/firmware
        # phase, then per-channel media occupancy.
        service_us = dram_us
        session = self._session
        arrival = (session.now_us if session is not None
                   else self.clock.now_us)
        admit = self.ncq.admit(arrival)
        dram_end = admit + dram_us
        completion = dram_end
        telemetry = self.telemetry
        if pieces is not None:
            intervals = self.intervals
            emit = telemetry.enabled
            for channel, duration in pieces:
                service_us += duration
                start, end = self.channels.acquire(channel, dram_end,
                                                   duration)
                if emit:
                    self._m_chan_busy[channel].inc(duration)
                if intervals.capacity:
                    intervals.record(channel, start, end)
                if end > completion:
                    completion = end
        self.ncq.commit(completion)
        if pt_issue is not None:
            pt_issue.add(perf_counter_ns() - t0)

        ticket = CommandTicket(
            kind, lpn, count, latency, service_us, arrival, completion,
            gc_events, copybacks, op_kind, op_record, gate_kind, gate_lpns)

        if telemetry.enabled:
            telemetry.tracer.current.set(
                kind=kind, lpn=lpn, count=count, latency_us=latency,
                gc_events=gc_events, copyback_pages=copybacks)
            self._m_queue_depth.set(self.ncq.inflight)

        if session is not None:
            self._enqueue(ticket)
            session.now_us = completion
        return ticket

    def _enqueue(self, ticket: CommandTicket) -> None:
        """Queue a ticket's completion for the device drain event."""
        completion = ticket.completion_us
        self._cmd_seq += 1
        heappush(self._inflight, (completion, self._cmd_seq, ticket))
        # One drain event covers every queued completion: (re)schedule
        # only when this command completes before the current head.
        drain = self._drain_event
        if drain is None:
            self._drain_event = self.events.at(
                completion, self._drain_due, label=self._drain_label)
        elif completion < drain.time_us:
            self.events.cancel(drain)
            self._drain_event = self.events.at(
                completion, self._drain_due, label=self._drain_label)

    def _wait(self, ticket: CommandTicket) -> None:
        """Synchronous issue (no session attached): complete the command,
        advancing the clock to its completion.  Runs *after* the
        command's fault-operation scope has exited, so the deferred ack
        is registered before it is delivered.

        When the scheduler has nothing pending, the command's completion
        would be the only event :meth:`EventScheduler.run_until` fires,
        so it completes inline (same clock advance, ``fired`` count and
        :meth:`_on_complete`).  Otherwise — other devices' or sessions'
        completions outstanding — it is queued and the scheduler fires
        everything due up to it, in global completion order."""
        if self._session is None and not self.events.fire_if_idle(
                ticket.completion_us, self._on_complete, ticket):
            self._enqueue(ticket)
            self.events.run_until(ticket.completion_us)

    def _drain_due(self) -> None:
        """The device's single completion event: pop and complete every
        ticket due at the current timestamp frame, then re-arm at the
        next pending completion.

        A completion callback may raise (completion-phase command
        faults, journal-delivered power failures) — the ``finally``
        re-arm keeps the remaining queued completions reachable in that
        case, exactly as they were when each held its own event."""
        self._drain_event = None
        inflight = self._inflight
        try:
            now = self.clock.now_us
            while inflight and inflight[0][0] <= now:
                ticket = heappop(inflight)[2]
                self._on_complete(ticket)
        finally:
            # power_cycle/_on_clock_reset may have run re-entrantly:
            # re-read the (possibly replaced) heap and only re-arm when
            # nothing else armed it meanwhile.
            inflight = self._inflight
            if inflight and self._drain_event is None:
                self._drain_event = self.events.at(
                    inflight[0][0], self._drain_due,
                    label=self._drain_label)

    def _on_complete(self, ticket: CommandTicket) -> None:
        """Complete one ticket (already popped from the in-flight heap):
        deliver telemetry, the trace record, the completion-phase fault
        gate and the deferred ack — in the order the device finishes
        work, not the order the host submitted it.

        Delivery cost is tiered by telemetry mode: counters are always
        exact, but histogram/gauge recording (and the per-channel
        utilisation sweep) pass the 1-in-N sampler gate, which is where
        sampled mode saves its per-op wall-clock time."""
        pt_complete = self._pt_complete
        t0 = perf_counter_ns() if pt_complete is not None else 0
        now = self.clock.now_us
        telemetry = self.telemetry
        pt_emit = self._pt_emit
        t1 = perf_counter_ns() if pt_emit is not None else 0
        if telemetry.enabled:
            self._m_commands[ticket.kind].inc()
            self._m_pages[ticket.kind].inc(ticket.count)
            self._m_busy_us.inc(ticket.latency_us)
            sampler = self._sampler
            if sampler is None or sampler.hit():
                self._m_latency[ticket.kind].record(ticket.latency_us)
                self._m_queue_wait.record(ticket.wait_us)
                elapsed = now - self._measure_start_us
                for channel, util in enumerate(
                        self.channels.utilization(elapsed)):
                    self._m_chan_util[channel].set(util)
            telemetry.maybe_snapshot(now)
        trace = self.trace
        if trace is not None and trace.capacity:
            trace.record_fields(
                now, ticket.kind, ticket.lpn, ticket.count,
                ticket.latency_us, ticket.gc_events, ticket.copyback_pages,
                ticket.arrival_us, ticket.wait_us)
        if pt_emit is not None:
            pt_emit.add(perf_counter_ns() - t1)
        if pt_complete is not None:
            pt_complete.add(perf_counter_ns() - t0)
        if ticket.gate_kind is not None:
            try:
                self._gate(ticket.gate_kind, ticket.gate_lpns, "complete")
            except DeviceError:
                if ticket.op_kind is not None:
                    self.faults.fail_operation(ticket.op_kind,
                                               ticket.op_record)
                raise
        if ticket.op_kind is not None:
            self.faults.complete_operation(ticket.op_kind, ticket.op_record)

    def media_report(self) -> dict:
        """The FTL's ``media.*`` degradation counters plus the raw chip
        failure counts — how hard the medium fought and how the firmware
        coped."""
        report = self.ftl.media_report()
        report["nand_failed_reads"] = self.nand.failed_reads
        report["nand_failed_programs"] = self.nand.failed_programs
        report["nand_failed_erases"] = self.nand.failed_erases
        return report

    def queue_report(self) -> dict:
        """Queue and channel state for reports: per-channel busy time and
        utilisation over the measured interval, plus depth/inflight."""
        elapsed = self.clock.now_us - self._measure_start_us
        return {
            "queue_depth": self.ncq.depth,
            "inflight": len(self._inflight),
            "channel_count": self.channels.channel_count,
            "channel_busy_us": list(self.channels.busy_us),
            "channel_utilization": self.channels.utilization(elapsed),
        }

    def _on_clock_reset(self) -> None:
        """The harness rewound the clock between experiment runs: every
        absolute timestamp the device caches (queue completion times,
        channel busy horizons, pending completion events) belongs to a
        timeline that no longer exists.  Drop them all."""
        if self._drain_event is not None:
            self.events.cancel(self._drain_event)
            self._drain_event = None
        self._inflight.clear()
        self.ncq.reset()
        self.channels.reset()
        self._measure_start_us = 0

    # ------------------------------------------------------------ recovery

    def power_cycle(self) -> None:
        """Simulate power loss + reboot: cancel every in-flight
        completion (those commands never acknowledge — their records
        become unacked in the fault journal), drop all volatile state
        and run the FTL recovery scan over the surviving media."""
        if self._drain_event is not None:
            self.events.cancel(self._drain_event)
            self._drain_event = None
        for __, __, ticket in self._inflight:
            if ticket.op_kind is not None:
                self.faults.abandon_operation(ticket.op_kind,
                                              ticket.op_record)
        self._inflight.clear()
        self.ncq.reset()
        self.channels.reset()
        self.ftl = PageMappingFtl.recover(self.nand, self.config.ftl,
                                          self.faults,
                                          telemetry=self.telemetry)
        self.ftl.take_work()   # recovery-scan work is not billed
        self.cache.clear()

    # --------------------------------------------------------------- aging

    def age(self, fill_fraction: float, rewrite_fraction: float,
            seed: int = 17) -> None:
        """Pre-condition the device as in Section 5.1's aging pre-run.

        Fills ``fill_fraction`` of the logical space sequentially, then
        rewrites ``rewrite_fraction`` of it at random so blocks hold a mix
        of valid and stale pages and GC is active during measurement.
        Aging I/O is excluded from stats and virtual time.
        """
        if not 0.0 <= fill_fraction <= 1.0:
            raise ValueError(f"fill_fraction must be in [0, 1]: {fill_fraction}")
        if not 0.0 <= rewrite_fraction <= 1.0:
            raise ValueError(
                f"rewrite_fraction must be in [0, 1]: {rewrite_fraction}")
        import random
        rng = random.Random(seed)
        pages = int(self.logical_pages * fill_fraction)
        for lpn in range(pages):
            self.ftl.write(lpn, ("age", lpn))
        for _ in range(int(pages * rewrite_fraction)):
            lpn = rng.randrange(pages)
            self.ftl.write(lpn, ("age2", lpn))
        self.reset_measurement()

    def reset_measurement(self) -> None:
        """Zero the host-visible counters (keep media state) so the
        measured interval starts clean, as after the paper's warm-up."""
        self.drain()
        self.stats = DeviceStats(page_size=self.page_size)
        ftl_stats = self.ftl.stats
        for name in list(ftl_stats.__dict__):
            setattr(ftl_stats, name, 0)
        self.ftl.take_work()   # drop unbilled ledger entries (aging I/O)
        self.channels.reset_accounting()
        self._measure_start_us = self.clock.now_us
        self.trace.clear()
        self.intervals.clear()
        self.telemetry.reset_measurement()
