"""Page-mapping FTL with the SHARE extension.

This is the firmware of the reproduction's OpenSSD stand-in.  It owns:

* the forward L2P table — a pluggable :class:`~repro.ftl.mapping.MappingStrategy`
  selected by ``config.l2p_strategy`` (:mod:`repro.ftl.mapping`),
* the reverse-reference tracking with the bounded share table
  (:mod:`repro.ftl.reverse`),
* greedy garbage collection over the data blocks,
* the mapping delta log and its checkpointing
  (:mod:`repro.ftl.deltalog`),
* crash recovery that merges spare-area stamps with logged deltas by
  sequence number.

Layout: the last ``config.map_block_count`` blocks of the array hold the
mapping log; every other block is a data block.  The logical address space
is sized off the data blocks with the geometry's over-provisioning ratio
held back for GC headroom.

Media faults degrade the device gracefully instead of killing it:

* an uncorrectable read is retried up to ``config.read_retries`` times;
  a page that needed retries is *scrubbed* — relocated to a fresh PPN
  (copy-safe for shared pages: every referencing LPN is stamped on the
  copy) — before it decays further;
* a program failure retires the active block (grown bad): its live pages
  are evacuated, a ``badblk`` delta record persists the retirement, a
  spare block backfills the free pool, and the host program retries at a
  fresh PPN;
* an erase failure at GC time retires the victim the same way, without
  returning it to the free pool;
* a page that stays unreadable keeps its mapping pinned into the retired
  block so host reads surface the typed :class:`UncorrectableReadError`
  — the device never returns wrong data silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    EraseFailError,
    FtlError,
    MediaError,
    OutOfSpaceError,
    ProgramFailError,
    ShareError,
    UncorrectableReadError,
    UnmappedPageError,
)
from repro.flash.nand import NandArray
from repro.ftl.config import FtlConfig
from repro.ftl.deltalog import (
    KIND_AWRITE,
    KIND_BADBLK,
    KIND_SHARE,
    KIND_SNAP,
    KIND_TRIM,
    KIND_XCOMMIT,
    DeltaRecord,
    MapLog,
)
from repro.ftl.mapping import UNMAPPED, create_strategy
from repro.ftl.reverse import ReverseMap
from repro.ftl.share_ext import (
    SharePair,
    expand_range,
    observe_batch,
    validate_batch,
)
from repro.obs import NULL_TELEMETRY, hot_timer
from repro.sim.faults import NO_FAULTS, FaultPlan


@dataclass
class FtlStats:
    """Cumulative firmware counters (Figure 6's metrics and more)."""

    host_page_writes: int = 0
    host_page_reads: int = 0
    gc_events: int = 0
    copyback_pages: int = 0
    block_erases: int = 0
    share_commands: int = 0
    share_pairs: int = 0
    share_spills: int = 0          # 'copy' policy: private copies made
    share_log_spills: int = 0      # 'log' policy: entries spilled to flash
    spill_lookups: int = 0         # GC reads of spilled reverse mappings
    trim_commands: int = 0
    trim_pages: int = 0
    wear_level_moves: int = 0
    read_retries: int = 0          # extra read attempts that were needed
    read_relocations: int = 0      # pages scrubbed after a retried read
    uncorrectable_reads: int = 0   # reads that failed even after retries
    program_fails: int = 0
    erase_fails: int = 0
    grown_bad_blocks: int = 0
    corrupt_map_pages: int = 0     # mapping-log pages skipped at recovery

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _RecoveredState:
    """Intermediate result of the media scan during recovery."""

    winners: Dict[int, Tuple[int, Optional[int], str]] = field(default_factory=dict)
    max_seq: int = 0
    grown_bad: Dict[int, int] = field(default_factory=dict)  # block -> seq


class PageMappingFtl:
    """The firmware: read/write/trim/share/flush over a :class:`NandArray`.

    All mapping state is volatile; only the NAND array persists.  Tests
    simulate power failure by abandoning the FTL instance and calling
    :meth:`recover` on the same array.
    """

    def __init__(self, nand: NandArray, config: Optional[FtlConfig] = None,
                 faults: FaultPlan = NO_FAULTS, telemetry=None) -> None:
        self.nand = nand
        self.geometry = nand.geometry
        self.config = config or FtlConfig()
        self.faults = faults
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        geometry = self.geometry
        if self.config.map_block_count >= geometry.block_count - 4:
            raise ValueError("map region leaves too few data blocks")
        self._map_blocks = list(range(
            geometry.block_count - self.config.map_block_count,
            geometry.block_count))
        self._data_blocks = list(range(
            geometry.block_count - self.config.map_block_count))
        data_pages = len(self._data_blocks) * geometry.pages_per_block
        self._logical_pages = int(data_pages * (1.0 - geometry.overprovision_ratio))
        self.fwd = create_strategy(self.config.l2p_strategy,
                                   self._logical_pages,
                                   self.config.l2p_group_pages)
        # Hot-path fast lane: the raw LPN-indexed list on the flat
        # backing, None otherwise (strategies answer through get()).
        self._fwd_table = self.fwd.table
        self.rev = ReverseMap(self.config.share_table_entries)
        self._records_per_page = self.config.deltas_per_page(geometry.page_size)
        self.maplog = MapLog(nand, geometry, self._map_blocks,
                             self._records_per_page, faults,
                             telemetry=self.telemetry)
        self.maplog.set_snapshot_provider(self._snapshot_records)
        self.stats = FtlStats()
        # Telemetry handles (shared no-ops when telemetry is disabled).
        metrics = self.telemetry.metrics
        self._m_gc_events = metrics.counter("ftl.gc.events")
        self._m_copybacks = metrics.counter("ftl.gc.copyback_pages")
        self._m_erases = metrics.counter("ftl.gc.block_erases")
        self._m_spill_lookups = metrics.counter("ftl.gc.spill_lookups")
        self._m_wear_moves = metrics.counter("ftl.wear.level_moves")
        self._m_share_spills = metrics.counter("ftl.share.spills")
        self._m_share_log_spills = metrics.counter("ftl.share.log_spills")
        self._m_share_spill_hwm = metrics.gauge("ftl.share.spill_hwm")
        self._m_free_blocks = metrics.gauge("ftl.free_blocks")
        self._m_read_retries = metrics.counter("media.read_retries")
        self._m_relocations = metrics.counter("media.read_relocations")
        self._m_uncorrectable = metrics.counter("media.uncorrectable_reads")
        self._m_program_fails = metrics.counter("media.program_fails")
        self._m_erase_fails = metrics.counter("media.erase_fails")
        self._m_grown_bad = metrics.counter("media.grown_bad_blocks")
        self._m_corrupt_map = metrics.counter("media.corrupt_map_pages")
        self._m_spare_pool = metrics.gauge("media.spare_pool")
        self._m_l2p_footprint = metrics.gauge("ftl.l2p.footprint_bytes")
        self._m_l2p_runs = metrics.gauge("ftl.l2p.runs")
        self._m_l2p_splits = metrics.gauge("ftl.l2p.remap_splits")
        # Sampled-mode gate and wall-clock phase timers (None unless a
        # profiler is attached — one load + branch on the hot path).
        self._sampler = getattr(self.telemetry, "sampler", None)
        profiler = getattr(self.telemetry, "profiler", None)
        self._pt_l2p = hot_timer(profiler, "ftl.l2p")
        self._pt_gc = (profiler.timer("ftl.gc")
                       if profiler is not None
                       and getattr(profiler, "enabled", False) else None)
        self._valid_count: Dict[int, int] = {b: 0 for b in self._data_blocks}
        self._free_blocks: List[int] = list(self._data_blocks)
        # Bad-block management: spare blocks held back from the free pool
        # as replacements, and the persisted grown-bad set (block -> the
        # seq of its badblk record).
        if self.config.spare_block_count >= len(self._data_blocks) - 4:
            raise ValueError("spare_block_count leaves too few data blocks")
        self._spare_blocks: List[int] = [
            self._free_blocks.pop()
            for __ in range(self.config.spare_block_count)]
        self._grown_bad: Dict[int, int] = {}
        self._m_spare_pool.set(len(self._spare_blocks))
        self._m_free_blocks.set(len(self._free_blocks))
        # Channel-striped host allocation: one active block per channel,
        # filled round-robin so sequential writes spread across channels.
        # At channel_count == 1 this degenerates to the single active
        # block + FIFO free-list behaviour of the serial model.
        self._active_host: Dict[int, Optional[int]] = {
            ch: None for ch in range(geometry.channel_count)}
        self._host_cursor = 0
        self._active_gc: Optional[int] = None
        # Charged-work ledger: (kind, channel) entries appended at the
        # exact sites where the latency-formula counters increment, so
        # the device can place each command's internal work on the right
        # channel.  Drained by the device per command via take_work().
        self._work: List[Tuple[str, int]] = []
        self._seq = 1
        self._share_backed: Dict[int, Tuple[int, int]] = {}
        self._trim_tombstones: Dict[int, int] = {}
        self._pending_trims: List[DeltaRecord] = []
        self._pending_atomic: set = set()
        # X-FTL shadow state: per-transaction staged pages, and a reverse
        # view so GC can move (without stamping) pages that belong to an
        # uncommitted transaction.
        self._txn_shadow: Dict[int, Dict[int, int]] = {}
        self._shadow_owner: Dict[int, Tuple[int, int]] = {}
        self._in_gc = False
        self._publish_l2p_gauges()

    def _publish_l2p_gauges(self) -> None:
        """Refresh the ``ftl.l2p.*`` gauges from the strategy's O(1)
        accounting.  Called off the per-page hot path: at init, after a
        SHARE batch (telemetry-gated), at flush, and after recovery."""
        fwd = self.fwd
        self._m_l2p_footprint.set(fwd.footprint_bytes())
        self._m_l2p_runs.set(fwd.fragment_count())
        self._m_l2p_splits.set(fwd.remap_splits)

    # ------------------------------------------------------------ geometry

    @property
    def logical_pages(self) -> int:
        """Size of the LPN address space exposed to the host."""
        return self._logical_pages

    @property
    def page_size(self) -> int:
        return self.geometry.page_size

    @property
    def max_share_batch(self) -> int:
        """Largest atomic SHARE batch (one mapping page of deltas)."""
        return self._records_per_page

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks)

    @property
    def map_page_writes(self) -> int:
        return self.maplog.page_writes

    # --------------------------------------------------- charged-work ledger

    def _note_work(self, kind: str, ppn: int) -> None:
        self._work.append(
            (kind, (ppn // self.geometry.pages_per_block)
             % self.geometry.channel_count))

    def take_work(self) -> List[Tuple[str, int]]:
        """Drain the ``(kind, channel)`` ledger of charged work since the
        last drain (including the map log's page programs).  The device
        calls this once per command to attribute the command's internal
        work to channels; totals are always derived from the stats
        counters, so a drained ledger only ever affects *placement*.

        When both ledgers are empty (the common no-internal-work
        command) the *live* empty list is returned without allocating a
        replacement; callers only read the result."""
        work = self._work
        if work:
            self._work = []
        map_channels = self.maplog.take_work()
        if map_channels:
            if not work:
                # Never extend the live (still-installed) empty ledger.
                work = []
            work.extend(("map_write", ch) for ch in map_channels)
        return work

    def _check_lpn_range(self, lpn: int, count: int = 1) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1: {count}")
        if lpn < 0 or lpn + count > self._logical_pages:
            raise ValueError(
                f"LPN range [{lpn}, {lpn + count}) outside logical space "
                f"[0, {self._logical_pages})")

    # ------------------------------------------------------------- host IO

    def read(self, lpn: int) -> Any:
        """Return the page image of ``lpn``.

        Raises :class:`UncorrectableReadError` when the backing page is
        unreadable even after firmware read-retry — the typed error is the
        contract: the host never receives wrong data silently."""
        self._check_lpn_range(lpn)
        # Range checked above: index the raw L2P table directly on the
        # flat backing (the fast lane — one None-compare of indirection),
        # ask the strategy on the compact backings.
        table = self._fwd_table
        pt_l2p = self._pt_l2p
        if pt_l2p is not None:
            t0 = perf_counter_ns()
            ppn = table[lpn] if table is not None else self.fwd.get(lpn)
            pt_l2p.add(perf_counter_ns() - t0)
        else:
            ppn = table[lpn] if table is not None else self.fwd.get(lpn)
        if ppn == UNMAPPED:
            raise UnmappedPageError(f"LPN {lpn} is unmapped")
        self.stats.host_page_reads += 1
        self._note_work("host_read", ppn)
        return self._read_page(ppn, scrub_ok=True)

    def is_mapped(self, lpn: int) -> bool:
        self._check_lpn_range(lpn)
        return self.fwd.is_mapped(lpn)

    def write(self, lpn: int, data: Any) -> None:
        """Program ``data`` for ``lpn`` out of place and remap."""
        with self.faults.operation("ftl.write", (lpn,)):
            self._check_lpn_range(lpn)
            self._ensure_free_space()
            seq = self._next_seq()
            self.faults.checkpoint("ftl.before_program")
            ppn = self._program_data(data, ((lpn, seq),), for_gc=False)
            self._note_work("host_program", ppn)
            self.faults.checkpoint("ftl.after_program")
            self._remap_after_program(lpn, ppn)
            self.stats.host_page_writes += 1

    def _remap_after_program(self, lpn: int, ppn: int) -> None:
        pt_l2p = self._pt_l2p
        t0 = perf_counter_ns() if pt_l2p is not None else 0
        old = self.fwd.update(lpn, ppn)
        self.rev.set_primary(ppn, lpn)
        self._valid_count[self.geometry.block_of(ppn)] += 1
        if old is not None and old != ppn:
            self._drop_ref(old, lpn)
        self._share_backed.pop(lpn, None)
        self._trim_tombstones.pop(lpn, None)
        if pt_l2p is not None:
            pt_l2p.add(perf_counter_ns() - t0)

    def _drop_ref(self, ppn: int, lpn: int) -> None:
        if self.rev.drop_ref(ppn, lpn):
            self._valid_count[self.geometry.block_of(ppn)] -= 1

    # ------------------------------------------------------- media handling

    def _read_page(self, ppn: int, scrub_ok: bool = False) -> Any:
        """NAND read with firmware read-retry.

        Retries up to ``config.read_retries`` extra attempts; when a read
        only succeeded after retries and ``scrub_ok`` is set, the page is
        scrubbed (relocated) so the decaying cell is healed before it dies
        outright.  A read that stays uncorrectable raises the typed error.
        """
        retries = self.config.read_retries
        attempt = 0
        while True:
            try:
                data = self.nand.read(ppn)
            except UncorrectableReadError:
                if attempt >= retries:
                    self.stats.uncorrectable_reads += 1
                    self._m_uncorrectable.inc()
                    raise
                attempt += 1
                self.stats.read_retries += 1
                self._m_read_retries.inc()
                continue
            if attempt and scrub_ok and self.config.scrub_after_retry:
                self._scrub(ppn, data)
            return data

    def _scrub(self, ppn: int, data: Any) -> None:
        """Best-effort relocation of a page that needed read-retry.

        Copy-safe for shared pages: the fresh copy is stamped with *every*
        referencing LPN, so all of them survive recovery.  Skipped when the
        page cannot be moved safely right now (mid-GC, shadow page, LPNs of
        an in-flight atomic write, or no space) — the next retried read
        gets another chance."""
        if self._in_gc or ppn in self._shadow_owner or not self.rev.is_valid(ppn):
            return
        refs = sorted(self.rev.refs(ppn))
        if any(lpn in self._pending_atomic for lpn in refs):
            return
        stamps = tuple((lpn, self._next_seq()) for lpn in refs)
        try:
            new_ppn = self._program_data(data, stamps, for_gc=False)
        except (MediaError, OutOfSpaceError):
            return
        self.rev.move_page(ppn, new_ppn, refs[0])
        self._valid_count[self.geometry.block_of(ppn)] -= 1
        self._valid_count[self.geometry.block_of(new_ppn)] += 1
        for lpn in refs:
            self.fwd.update(lpn, new_ppn)
            self._share_backed.pop(lpn, None)
        self.stats.read_relocations += 1
        self._m_relocations.inc()

    def _program_data(self, data: Any, spare, for_gc: bool) -> int:
        """Program a data page, surviving program failures.

        On a failure the consumed page's block grows bad — live pages are
        evacuated, the retirement is persisted, a spare backfills the free
        pool — and the program retries at a fresh PPN, up to
        ``config.program_retry_limit`` blocks before surfacing the typed
        error."""
        last_error: Optional[ProgramFailError] = None
        for __ in range(self.config.program_retry_limit):
            ppn = self._alloc_page(for_gc=for_gc)
            try:
                self.nand.program(ppn, data, spare=spare)
            except ProgramFailError as exc:
                last_error = exc
                self.stats.program_fails += 1
                self._m_program_fails.inc()
                # The LPNs being programmed: retirement must not re-stamp
                # their old copies (built here, off the success path).
                self._retire_block(self.geometry.block_of(ppn),
                                   frozenset(lpn for lpn, __ in spare))
                continue
            return ppn
        raise ProgramFailError(
            f"program failed on {self.config.program_retry_limit} "
            f"consecutive blocks: {last_error}")

    def _retire_block(self, block: int,
                      inflight: frozenset = frozenset()) -> None:
        """Grow ``block`` bad (idempotent): evacuate its live pages,
        persist a ``badblk`` record, and backfill the free pool from the
        spare pool.  The block is never erased or reused again; any page
        that cannot be evacuated keeps its mapping pinned here so host
        reads surface the typed error instead of wrong data.

        ``inflight`` names LPNs whose *new* version is mid-program with an
        already-assigned sequence number: evacuation must not re-stamp
        their old copies, or the fresh (higher) stamp would beat the
        in-flight write at recovery and resurrect stale data."""
        if block in self._grown_bad:
            return
        for channel, active in self._active_host.items():
            if active == block:
                self._active_host[channel] = None
        if block == self._active_gc:
            self._active_gc = None
        if block in self._free_blocks:
            self._free_blocks.remove(block)
        seq = self._next_seq()
        self._grown_bad[block] = seq
        self.stats.grown_bad_blocks = len(self._grown_bad)
        self._m_grown_bad.inc()
        # Release a spare first: the evacuation below may need the space.
        if self._spare_blocks:
            self._free_blocks.append(self._spare_blocks.pop())
        self._m_spare_pool.set(len(self._spare_blocks))
        self._m_free_blocks.set(len(self._free_blocks))
        self._evacuate_for_retirement(block, inflight)
        self.maplog.append_atomic(
            [DeltaRecord(KIND_BADBLK, block, None, None, seq)])

    def _evacuate_for_retirement(self, block: int,
                                 inflight: frozenset = frozenset()) -> None:
        """Move every live page out of a block being retired, best effort.

        Unlike GC evacuation this tolerates further media errors per page:
        an unreadable page stays pinned in the retired block (its payload
        is gone; the typed error is all the host can get), and a page that
        cannot be re-programmed keeps its old mapping too."""
        geometry = self.geometry
        start = geometry.first_ppn(block)
        for offset in range(self.nand.programmed_pages_in_block(block)):
            ppn = start + offset
            if ppn in self._shadow_owner:
                try:
                    self._move_shadow_page(ppn)
                except (MediaError, OutOfSpaceError):
                    pass   # shadow copy lost; its txn fails at read time
                continue
            if not self.rev.is_valid(ppn):
                continue
            refs = sorted(self.rev.refs(ppn))
            try:
                data = self._read_page(ppn)
            except UncorrectableReadError:
                continue
            stamps = tuple((lpn, self._next_seq()) for lpn in refs
                           if lpn not in self._pending_atomic
                           and lpn not in inflight)
            try:
                new_ppn = self._program_data(data, stamps, for_gc=True)
            except (MediaError, OutOfSpaceError):
                continue
            self.rev.move_page(ppn, new_ppn, refs[0])
            self._valid_count[block] -= 1
            self._valid_count[geometry.block_of(new_ppn)] += 1
            stamped = {lpn for lpn, __ in stamps}
            fwd_update = self.fwd.update
            for lpn in refs:
                fwd_update(lpn, new_ppn)
                if lpn in stamped:
                    self._share_backed.pop(lpn, None)
            self.stats.copyback_pages += 1
            self._note_work("copyback", new_ppn)
            self._m_copybacks.inc()

    @property
    def grown_bad_blocks(self) -> Set[int]:
        """Blocks retired for media failures (never erased or reused)."""
        return set(self._grown_bad)

    @property
    def spare_pool_level(self) -> int:
        return len(self._spare_blocks)

    def media_report(self) -> Dict[str, int]:
        """The ``media.*`` degradation counters as one snapshot."""
        return {
            "read_retries": self.stats.read_retries,
            "read_relocations": self.stats.read_relocations,
            "uncorrectable_reads": self.stats.uncorrectable_reads,
            "program_fails": self.stats.program_fails,
            "erase_fails": self.stats.erase_fails,
            "grown_bad_blocks": len(self._grown_bad),
            "corrupt_map_pages": self.stats.corrupt_map_pages,
            "spare_pool": len(self._spare_blocks),
        }

    # ---------------------------------------------------------------- X-FTL

    def begin_txn(self) -> int:
        """Open an X-FTL transaction (Section 6.2's baseline): subsequent
        :meth:`write_txn` pages stay invisible until :meth:`commit_txn`."""
        txn_id = self._next_seq()
        self._txn_shadow[txn_id] = {}
        return txn_id

    def write_txn(self, txn_id: int, lpn: int, data: Any) -> None:
        """Stage an update-in-place write under a transaction.

        The page is programmed immediately (unstamped, so a crash leaves
        it invisible) but the forward map keeps pointing at the old
        version until commit — X-FTL's shadow-paging-in-the-FTL."""
        shadow = self._txn_shadow.get(txn_id)
        if shadow is None:
            raise FtlError(f"unknown transaction: {txn_id}")
        self._check_lpn_range(lpn)
        if len(shadow) >= self._records_per_page and lpn not in shadow:
            raise FtlError(
                f"transaction exceeds the atomic commit capacity of "
                f"{self._records_per_page} pages")
        self._ensure_free_space()
        ppn = self._program_data(data, (), for_gc=False)
        self._note_work("host_program", ppn)
        old_shadow_ppn = shadow.get(lpn)
        if old_shadow_ppn is not None:
            # Restaged within the txn: the earlier shadow copy dies.
            self._shadow_owner.pop(old_shadow_ppn, None)
            self._valid_count[self.geometry.block_of(old_shadow_ppn)] -= 1
        shadow[lpn] = ppn
        self._shadow_owner[ppn] = (txn_id, lpn)
        self._valid_count[self.geometry.block_of(ppn)] += 1
        self.stats.host_page_writes += 1

    def commit_txn(self, txn_id: int) -> None:
        """Atomically publish every page of the transaction: one
        mapping-page program is the commit point, as in SHARE."""
        with self.faults.operation(
                "ftl.xcommit", tuple(self._txn_shadow.get(txn_id, ()))):
            self._commit_txn(txn_id)

    def _commit_txn(self, txn_id: int) -> None:
        shadow = self._txn_shadow.pop(txn_id, None)
        if shadow is None:
            raise FtlError(f"unknown transaction: {txn_id}")
        if not shadow:
            return
        self._flush_pending_trims()
        deltas: List[DeltaRecord] = []
        for lpn, ppn in sorted(shadow.items()):
            seq = self._next_seq()
            old = self.fwd.update(lpn, ppn)
            self._shadow_owner.pop(ppn, None)
            self.rev.set_primary(ppn, lpn)
            if old is not None and old != ppn:
                self._drop_ref(old, lpn)
            self._share_backed[lpn] = (ppn, seq)
            self._trim_tombstones.pop(lpn, None)
            deltas.append(DeltaRecord(KIND_XCOMMIT, lpn, old, ppn, seq))
        self.maplog.append_atomic(deltas)

    def abort_txn(self, txn_id: int) -> None:
        """Discard the transaction's shadow pages; old versions remain."""
        shadow = self._txn_shadow.pop(txn_id, None)
        if shadow is None:
            raise FtlError(f"unknown transaction: {txn_id}")
        for __, ppn in shadow.items():
            self._shadow_owner.pop(ppn, None)
            self._valid_count[self.geometry.block_of(ppn)] -= 1

    def txn_read(self, txn_id: int, lpn: int) -> Any:
        """Writer's view: the shadow copy when staged, else committed."""
        shadow = self._txn_shadow.get(txn_id)
        if shadow is None:
            raise FtlError(f"unknown transaction: {txn_id}")
        ppn = shadow.get(lpn)
        if ppn is not None:
            return self._read_page(ppn)
        return self.read(lpn)

    # --------------------------------------------------------- atomic write

    def write_atomic(self, items: Sequence[Tuple[int, Any]]) -> None:
        """Atomic multi-page write — the Section 6.1 baseline command.

        Programs every page *without* a spare-area stamp, then commits all
        the new mappings with one mapping-page program (the commit
        record).  A crash before the commit leaves every LPN at its old
        mapping, because the unstamped pages are invisible to recovery;
        after it, at the new mapping.  Unlike SHARE the page set is fixed
        at write time, and compaction-style remapping is impossible —
        exactly the flexibility gap the paper describes.
        """
        with self.faults.operation("ftl.awrite",
                                   tuple(lpn for lpn, __ in items)):
            self._write_atomic(items)

    def _write_atomic(self, items: Sequence[Tuple[int, Any]]) -> None:
        if not items:
            raise ValueError("empty atomic write")
        if len(items) > self._records_per_page:
            raise FtlError(
                f"atomic write of {len(items)} pages exceeds the commit "
                f"record capacity of {self._records_per_page}")
        lpns = [lpn for lpn, __ in items]
        if len(set(lpns)) != len(lpns):
            raise FtlError("duplicate LPN in atomic write")
        for lpn in lpns:
            self._check_lpn_range(lpn)
        self._pending_atomic.update(lpns)
        staged: List[Tuple[int, Optional[int]]] = []
        try:
            for lpn, data in items:
                self._ensure_free_space()
                self.faults.checkpoint("ftl.awrite_program")
                ppn = self._program_data(data, (), for_gc=False)
                self._note_work("host_program", ppn)
                old = self.fwd.update(lpn, ppn)
                self.rev.set_primary(ppn, lpn)
                self._valid_count[self.geometry.block_of(ppn)] += 1
                if old is not None and old != ppn:
                    self._drop_ref(old, lpn)
                staged.append((lpn, old))
                self.stats.host_page_writes += 1
            self._flush_pending_trims()
            deltas = []
            for lpn, old in staged:
                seq = self._next_seq()
                new_ppn = self.fwd.lookup(lpn)
                self._share_backed[lpn] = (new_ppn, seq)
                self._trim_tombstones.pop(lpn, None)
                deltas.append(DeltaRecord(KIND_AWRITE, lpn, old, new_ppn, seq))
            self.maplog.append_atomic(deltas)
        finally:
            self._pending_atomic.difference_update(lpns)

    # ---------------------------------------------------------------- trim

    def trim(self, lpn: int, count: int = 1) -> None:
        """Invalidate ``count`` LPNs starting at ``lpn`` (the TRIM command
        the paper contrasts SHARE with)."""
        with self.faults.operation("ftl.trim",
                                   tuple(range(lpn, lpn + max(count, 1)))):
            self._trim(lpn, count)

    def _trim(self, lpn: int, count: int) -> None:
        self._check_lpn_range(lpn, count)
        self.stats.trim_commands += 1
        for current in range(lpn, lpn + count):
            old = self.fwd.clear(current)
            if old is None:
                continue
            self._drop_ref(old, current)
            seq = self._next_seq()
            self._trim_tombstones[current] = seq
            self._share_backed.pop(current, None)
            self._pending_trims.append(
                DeltaRecord(KIND_TRIM, current, old, None, seq))
            self.stats.trim_pages += 1
        if len(self._pending_trims) >= self._records_per_page:
            self._flush_pending_trims()

    def flush(self) -> None:
        """Persist pending mapping changes (trim deltas).  Host writes and
        SHAREs are already durable when their call returns."""
        with self.faults.operation("ftl.flush"):
            self._flush_pending_trims()
        if self.telemetry.enabled:
            self._publish_l2p_gauges()

    def _flush_pending_trims(self) -> None:
        if not self._pending_trims:
            return
        pending, self._pending_trims = self._pending_trims, []
        self.maplog.append(pending)

    # --------------------------------------------------------------- share

    def share(self, dst_lpn: int, src_lpn: int, length: int = 1) -> None:
        """The paper's ``share(LPN1, LPN2, length)`` command."""
        self.share_batch(expand_range(dst_lpn, src_lpn, length))

    def share_batch(self, pairs: Sequence[SharePair]) -> None:
        """Atomically remap a batch of (destination, source) LPN pairs.

        Applies Section 4.2.2's protocol: update the DRAM mapping entries,
        then commit the whole batch's deltas with a single mapping-page
        program.  A power failure before that program leaves every
        destination at its old mapping; after it, at the new mapping.
        """
        with self.faults.operation(
                "ftl.share", tuple(pair.dst_lpn for pair in pairs)):
            self._share_batch(pairs)

    def _share_batch(self, pairs: Sequence[SharePair]) -> None:
        validate_batch(pairs, self._logical_pages, self.max_share_batch)
        # validate_batch bounds-checked every LPN: resolve both sides of
        # each pair through the strategy's bulk API (this loop is the
        # paper's "mapping-only" cost and the simulator's SHARE hot
        # path; on the flat backing resolve_pairs indexes the raw list).
        fwd = self.fwd
        resolved: List[Tuple[int, Optional[int], int]] = []
        for pair, (dst_lpn, old_ppn, src_ppn) in zip(
                pairs, fwd.resolve_pairs(pairs)):
            if src_ppn == UNMAPPED:
                raise ShareError(
                    f"source LPN {pair.src_lpn} is unmapped; nothing to share")
            resolved.append((dst_lpn,
                             None if old_ppn == UNMAPPED else old_ppn,
                             src_ppn))
        if self.config.share_overflow_policy == "copy":
            # Reserve DRAM share-table capacity up front; reconciliation
            # materialises a private copy (a real page program) per entry.
            for _ in range(len(resolved)):
                if self.rev.is_full:
                    self._reconcile_oldest_share()
        # Persist any pending trims first so the atomic batch page carries
        # only this command's deltas.
        self._flush_pending_trims()
        deltas: List[DeltaRecord] = []
        rev = self.rev
        share_backed = self._share_backed
        trim_tombstones = self._trim_tombstones
        splits_before = fwd.remap_splits
        for dst_lpn, old_ppn, src_ppn in resolved:
            seq = self._next_seq()
            fit_in_dram = rev.add_extra(src_ppn, dst_lpn)
            if not fit_in_dram:
                # 'log' policy: the entry is resolvable from the mapping
                # log this very batch persists; only GC pays a lookup.
                self.stats.share_log_spills += 1
                # Zero-cost ledger note: lets the device derive the
                # per-command spill delta from the work ledger alone.
                self._work.append(("log_spill", 0))
                self._m_share_log_spills.inc()
                self._m_share_spill_hwm.set(rev.spilled_peak)
            fwd.remap(dst_lpn, src_ppn)
            if old_ppn is not None and old_ppn != src_ppn:
                self._drop_ref(old_ppn, dst_lpn)
            share_backed[dst_lpn] = (src_ppn, seq)
            trim_tombstones.pop(dst_lpn, None)
            deltas.append(DeltaRecord(KIND_SHARE, dst_lpn, old_ppn, src_ppn, seq))
        self.maplog.append_atomic(deltas)
        self.stats.share_commands += 1
        self.stats.share_pairs += len(pairs)
        if self.telemetry.enabled:
            sampler = self._sampler
            if sampler is None or sampler.hit():
                observe_batch(self.telemetry.metrics, pairs,
                              remap_splits=fwd.remap_splits - splits_before)
                self._publish_l2p_gauges()

    def _reconcile_oldest_share(self) -> None:
        """Share table full: materialise a private copy for the oldest
        extra reference, freeing one table entry."""
        entry = self.rev.oldest_extra()
        if entry is None:
            raise FtlError("share table reported full but holds no extras")
        ppn, lpn = entry
        data = self._read_page(ppn)
        self._ensure_free_space()
        seq = self._next_seq()
        new_ppn = self._program_data(data, ((lpn, seq),), for_gc=False)
        self.fwd.update(lpn, new_ppn)
        self.rev.set_primary(new_ppn, lpn)
        self._valid_count[self.geometry.block_of(new_ppn)] += 1
        self._drop_ref(ppn, lpn)
        self._share_backed.pop(lpn, None)
        self.stats.share_spills += 1
        self._note_work("spill", new_ppn)
        self._m_share_spills.inc()

    # ------------------------------------------------------------- allocate

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _alloc_page(self, for_gc: bool) -> int:
        """Next free page of the GC active block, or of the next
        channel's host active block (channel-striped round-robin).

        Host allocation rotates one page at a time over the channels so
        sequential writes spread across all of them; a channel whose
        active block is full takes the first free block *of that
        channel*.  When a channel has no free block left the rotation
        skips it — allocation only fails when every channel is dry.  At
        ``channel_count == 1`` this is exactly the serial model's single
        active block with FIFO free-list replacement."""
        geometry = self.geometry
        if for_gc:
            active = self._active_gc
            if active is not None:
                used = self.nand.programmed_pages_in_block(active)
                if used < geometry.pages_per_block:
                    return geometry.first_ppn(active) + used
            if not self._free_blocks:
                raise OutOfSpaceError("no free blocks available for allocation")
            block = self._free_blocks.pop(0)
            self._m_free_blocks.set(len(self._free_blocks))
            self._active_gc = block
            return geometry.first_ppn(block)
        channels = geometry.channel_count
        for __ in range(channels):
            channel = self._host_cursor
            self._host_cursor = (self._host_cursor + 1) % channels
            active = self._active_host.get(channel)
            if active is not None:
                used = self.nand.programmed_pages_in_block(active)
                if used < geometry.pages_per_block:
                    return geometry.first_ppn(active) + used
            block = next((b for b in self._free_blocks
                          if b % channels == channel), None)
            if block is None:
                continue
            self._free_blocks.remove(block)
            self._m_free_blocks.set(len(self._free_blocks))
            self._active_host[channel] = block
            return geometry.first_ppn(block)
        raise OutOfSpaceError("no free blocks available for allocation")

    def _ensure_free_space(self) -> None:
        """Greedy GC trigger: collect victims while the free pool is at or
        below the low-water mark."""
        if self._in_gc:
            return
        while len(self._free_blocks) <= self.config.gc_low_water:
            made_progress = self._collect_victim()
            if not made_progress:
                break
            if len(self._free_blocks) >= self.config.gc_high_water:
                break

    # ------------------------------------------------------------------ GC

    def idle_gc(self, max_blocks: int = 1,
                min_invalid_fraction: float = 0.5) -> int:
        """Background garbage collection, run by the host during idle
        time: reclaim up to ``max_blocks`` blocks whose invalid fraction
        is at least ``min_invalid_fraction``, replenishing the free pool
        before foreground writes would have to stall for it.  Returns the
        number of blocks reclaimed."""
        if max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1: {max_blocks}")
        if not 0.0 < min_invalid_fraction <= 1.0:
            raise ValueError(
                f"min_invalid_fraction must be in (0, 1]: "
                f"{min_invalid_fraction}")
        reclaimed = 0
        pages_per_block = self.geometry.pages_per_block
        for __ in range(max_blocks):
            candidates = self._gc_candidates()
            if not candidates:
                break
            victim = min(candidates, key=lambda b: (self._valid_count[b], b))
            programmed = self.nand.programmed_pages_in_block(victim)
            invalid = programmed - self._valid_count[victim]
            if programmed < pages_per_block or \
                    invalid < programmed * min_invalid_fraction:
                break
            self._reclaim_block(victim, is_gc_event=True)
            reclaimed += 1
        return reclaimed

    def _gc_candidates(self) -> List[int]:
        active = set(self._active_host.values())
        active.add(self._active_gc)
        free = set(self._free_blocks)
        return [b for b in self._data_blocks
                if b not in active and b not in free
                and b not in self._grown_bad
                and self.nand.programmed_pages_in_block(b) > 0]

    def _collect_victim(self) -> bool:
        """Collect the block with the fewest valid pages.  Returns False
        when no reclaimable victim exists.

        With wear leveling on, when the erase-count spread across
        candidates exceeds the configured threshold, the least-worn block
        (typically cold, mostly-valid data parked forever under pure
        greedy GC) is evacuated first so it rejoins the hot rotation —
        classic static wear leveling, spreading the lifespan benefit
        Section 5.3.1 attributes to SHARE across all blocks."""
        candidates = self._gc_candidates()
        if not candidates:
            return False
        if self.config.wear_leveling and len(candidates) > 1:
            erase_counts = self.nand.erase_counts
            coldest = min(candidates, key=lambda b: (erase_counts[b], b))
            spread = max(erase_counts[b] for b in candidates) \
                - erase_counts[coldest]
            if spread >= self.config.wear_delta_threshold:
                self._reclaim_block(coldest, is_gc_event=False)
                self.stats.wear_level_moves += 1
                self._work.append(("wear_move", 0))   # zero-cost note
                self._m_wear_moves.inc()
                candidates = self._gc_candidates()
                if not candidates:
                    return True
        victim = min(candidates, key=lambda b: (self._valid_count[b], b))
        programmed = self.nand.programmed_pages_in_block(victim)
        if self._valid_count[victim] >= programmed and \
                programmed >= self.geometry.pages_per_block:
            raise OutOfSpaceError(
                "all candidate blocks are fully valid — logical space "
                "overcommitted; write less or raise over-provisioning")
        self._reclaim_block(victim, is_gc_event=True)
        return True

    def _reclaim_block(self, block: int, is_gc_event: bool) -> None:
        """Evacuate valid pages, erase, and return ``block`` to the free
        pool.  The whole pass runs inside an ``ftl.gc`` span, so the
        copyback/erase work is attributed to whichever host command (and
        engine operation above it) triggered the collection.  With a
        profiler attached the pass is also charged to the ``ftl.gc``
        wall-clock phase (re-entrant: a reclaim cascading into another
        reclaim is timed once)."""
        pt_gc = self._pt_gc
        if pt_gc is None:
            self._do_reclaim_block(block, is_gc_event)
            return
        with pt_gc:
            self._do_reclaim_block(block, is_gc_event)

    def _do_reclaim_block(self, block: int, is_gc_event: bool) -> None:
        copybacks_before = self.stats.copyback_pages
        with self.telemetry.tracer.span(
                "ftl.gc", block=block,
                wear_leveling=not is_gc_event) as span:
            self._in_gc = True
            try:
                self._evacuate(block)
            except UncorrectableReadError:
                # A victim page died mid-evacuation: stop, retire the
                # block without erasing it.  Pages already moved are fine;
                # the dead page's mapping stays pinned here so host reads
                # surface the typed error, never wrong data.
                self._in_gc = False
                self._retire_block(block)
                span.set(retired=True,
                         copyback_pages=self.stats.copyback_pages
                         - copybacks_before)
                self._m_free_blocks.set(len(self._free_blocks))
                return
            finally:
                self._in_gc = False
            try:
                self.nand.erase(block)
            except EraseFailError:
                # The block has grown bad; every live page is already out
                # (evacuation succeeded), so retirement is bookkeeping.
                self.stats.erase_fails += 1
                self._m_erase_fails.inc()
                self._retire_block(block)
                span.set(retired=True,
                         copyback_pages=self.stats.copyback_pages
                         - copybacks_before)
                self._m_free_blocks.set(len(self._free_blocks))
                return
            self.stats.block_erases += 1
            self._note_work("erase", self.geometry.first_ppn(block))
            self._m_erases.inc()
            if is_gc_event:
                self.stats.gc_events += 1
                self._work.append(("gc_event", 0))   # zero-cost note
                self._m_gc_events.inc()
            self._valid_count[block] = 0
            for channel, active in self._active_host.items():
                if active == block:
                    self._active_host[channel] = None
            if block == self._active_gc:
                self._active_gc = None
            self._free_blocks.append(block)
            span.set(copyback_pages=self.stats.copyback_pages
                     - copybacks_before)
            self._m_free_blocks.set(len(self._free_blocks))

    def _evacuate(self, victim: int) -> None:
        geometry = self.geometry
        start = geometry.first_ppn(victim)
        for offset in range(self.nand.programmed_pages_in_block(victim)):
            ppn = start + offset
            if ppn in self._shadow_owner:
                self._move_shadow_page(ppn)
                continue
            if not self.rev.is_valid(ppn):
                continue
            if self.rev.spilled_refs_of(ppn):
                # Firmware must re-read the mapping log to learn the
                # overflowed reverse mappings of this page.
                self.stats.spill_lookups += 1
                self._note_work("spill_lookup", ppn)
                self._m_spill_lookups.inc()
            refs = sorted(self.rev.refs(ppn))
            data = self._read_page(ppn)
            # Pages of an in-flight atomic write stay unstamped so a crash
            # before their commit record keeps them invisible to recovery.
            stamps = tuple((lpn, self._next_seq()) for lpn in refs
                           if lpn not in self._pending_atomic)
            new_ppn = self._program_data(data, stamps, for_gc=True)
            self.rev.move_page(ppn, new_ppn, refs[0])
            self._m_share_spill_hwm.set(self.rev.spilled_peak)
            self._valid_count[victim] -= 1
            self._valid_count[geometry.block_of(new_ppn)] += 1
            stamped = {lpn for lpn, __ in stamps}
            fwd_update = self.fwd.update
            for lpn in refs:
                fwd_update(lpn, new_ppn)
                if lpn in stamped:
                    # The copy's spare stamps the LPN, so the mapping is
                    # recoverable from OOB again; drop the log backing.
                    self._share_backed.pop(lpn, None)
            self.stats.copyback_pages += 1
            self._note_work("copyback", new_ppn)
            self._m_copybacks.inc()

    def _move_shadow_page(self, ppn: int) -> None:
        """GC move of an uncommitted X-FTL shadow page: the copy stays
        unstamped (crash must keep it invisible) and the transaction's
        table follows the move."""
        txn_id, lpn = self._shadow_owner[ppn]
        data = self._read_page(ppn)
        new_ppn = self._program_data(data, (), for_gc=True)
        self._shadow_owner.pop(ppn)
        self._txn_shadow[txn_id][lpn] = new_ppn
        self._shadow_owner[new_ppn] = (txn_id, lpn)
        self._valid_count[self.geometry.block_of(ppn)] -= 1
        self._valid_count[self.geometry.block_of(new_ppn)] += 1
        self.stats.copyback_pages += 1
        self._note_work("copyback", new_ppn)
        self._m_copybacks.inc()

    # ------------------------------------------------------------ snapshot

    def _snapshot_records(self) -> List[DeltaRecord]:
        """Live log-backed assertions for map-log checkpointing.

        ``badblk`` records for grown-bad data blocks ride in every
        snapshot — retirement must survive the log compaction that erases
        the original record."""
        records = [DeltaRecord(KIND_BADBLK, block, None, None, seq)
                   for block, seq in sorted(self._grown_bad.items())]
        records.extend(DeltaRecord(KIND_SNAP, lpn, None, ppn, seq)
                       for lpn, (ppn, seq) in self._share_backed.items())
        records.extend(DeltaRecord(KIND_SNAP, lpn, None, None, seq)
                       for lpn, seq in self._trim_tombstones.items())
        records.sort(key=lambda record: record.seq)
        return records

    # ------------------------------------------------------------ recovery

    @classmethod
    def recover(cls, nand: NandArray, config: Optional[FtlConfig] = None,
                faults: FaultPlan = NO_FAULTS,
                telemetry=None) -> "PageMappingFtl":
        """Rebuild the full mapping state from the media after a crash.

        The newest assertion per LPN wins, where assertions come from data
        pages' spare stamps (normal writes and GC copies) and the mapping
        log (SHARE, TRIM, checkpoint snapshots).
        """
        ftl = cls(nand, config, faults, telemetry=telemetry)
        state = ftl._scan_media()
        ftl._apply_recovered(state)
        ftl.maplog.bind_to_end_of_log()
        return ftl

    def _scan_media(self) -> _RecoveredState:
        state = _RecoveredState()

        def assert_mapping(lpn: int, seq: int, ppn: Optional[int], source: str) -> None:
            current = state.winners.get(lpn)
            if current is None or seq > current[0]:
                state.winners[lpn] = (seq, ppn, source)
            state.max_seq = max(state.max_seq, seq)

        for block in self._data_blocks:
            for ppn, spare in self.nand.scan_block(block):
                if not isinstance(spare, tuple):
                    raise FtlError(f"malformed spare at PPN {ppn}: {spare!r}")
                for lpn, seq in spare:
                    assert_mapping(lpn, seq, ppn, "oob")
        records, bad_pages = MapLog.scan(self.nand, self.geometry,
                                         self._map_blocks,
                                         self.config.read_retries)
        if bad_pages:
            # Corrupt or unreadable log pages are skipped, not replayed;
            # the OOB scan above already covers stamped mappings, so the
            # loss degrades to the stamps' view of the affected LPNs.
            self.stats.corrupt_map_pages += bad_pages
            self._m_corrupt_map.inc(bad_pages)
        for record in records:
            if record.kind == KIND_BADBLK:
                # lpn carries the retired block number, not a mapping.
                current = state.grown_bad.get(record.lpn, -1)
                state.grown_bad[record.lpn] = max(current, record.seq)
                state.max_seq = max(state.max_seq, record.seq)
                continue
            source = record.kind
            assert_mapping(record.lpn, record.seq, record.new_ppn, source)
        return state

    def _apply_recovered(self, state: _RecoveredState) -> None:
        rev_entries: List[Tuple[int, int, bool]] = []
        by_ppn: Dict[int, List[int]] = {}
        for lpn, (seq, ppn, source) in sorted(state.winners.items()):
            if ppn is None:
                self._trim_tombstones[lpn] = seq
                continue
            if not self.nand.is_programmed(ppn):
                # Defensive: a stale assertion into an erased block loses.
                self._trim_tombstones[lpn] = seq
                continue
            if lpn >= self._logical_pages:
                raise FtlError(f"recovered LPN {lpn} outside logical space")
            self.fwd.update(lpn, ppn)
            by_ppn.setdefault(ppn, []).append(lpn)
            if source in (KIND_SHARE, KIND_SNAP, KIND_AWRITE, KIND_XCOMMIT):
                self._share_backed[lpn] = (ppn, seq)
        for ppn, lpns in by_ppn.items():
            stamped = set()
            spare = self.nand.read_spare(ppn)
            if isinstance(spare, tuple):
                stamped = {entry[0] for entry in spare}
            primary_candidates = [lpn for lpn in lpns if lpn in stamped]
            primary = primary_candidates[0] if primary_candidates else lpns[0]
            for lpn in lpns:
                rev_entries.append((ppn, lpn, lpn == primary))
        self.rev.rebuild(rev_entries)
        for ppn, lpns in by_ppn.items():
            self._valid_count[self.geometry.block_of(ppn)] += 1
        # Re-establish bad-block state from the persisted badblk records:
        # retired data blocks never rejoin the free pool or the actives,
        # retired map blocks leave the log rotation before appends resume.
        for block, seq in sorted(state.grown_bad.items()):
            if block in self._map_blocks:
                self.maplog.retire_map_block(block)
            else:
                self._grown_bad[block] = seq
        self.stats.grown_bad_blocks = len(self._grown_bad)
        self._free_blocks = [
            block for block in self._data_blocks
            if block not in self._grown_bad
            and self.nand.programmed_pages_in_block(block) == 0]
        partial = [block for block in self._data_blocks
                   if block not in self._grown_bad
                   and 0 < self.nand.programmed_pages_in_block(block)
                   < self.geometry.pages_per_block]
        # Reinstate partially-programmed blocks as actives: each joins
        # its channel's host slot when that slot is empty, the first
        # leftover becomes the GC active (at one channel this is exactly
        # the serial model's partial[0]/partial[1] assignment).  Further
        # partial blocks stay parked until GC reclaims them.
        channels = self.geometry.channel_count
        self._active_host = {ch: None for ch in range(channels)}
        self._host_cursor = 0
        self._active_gc = None
        for block in partial:
            channel = block % channels
            if self._active_host[channel] is None:
                self._active_host[channel] = block
            elif self._active_gc is None:
                self._active_gc = block
        # Rebuild the spare pool: one spare is consumed per grown-bad
        # block, so reserve whatever entitlement remains.
        self._spare_blocks = []
        spare_target = max(0, self.config.spare_block_count
                           - len(self._grown_bad))
        while len(self._spare_blocks) < spare_target and self._free_blocks:
            self._spare_blocks.append(self._free_blocks.pop())
        self._m_spare_pool.set(len(self._spare_blocks))
        self._m_free_blocks.set(len(self._free_blocks))
        self._seq = state.max_seq + 1
        self._publish_l2p_gauges()

    # --------------------------------------------------------------- debug

    def check_invariants(self) -> None:
        """Expensive consistency check used by tests: the reverse map must
        mirror the forward map exactly and valid counts must agree."""
        expected_refs: Dict[int, set] = {}
        for lpn, ppn in self.fwd.mapped_lpns():
            expected_refs.setdefault(ppn, set()).add(lpn)
        for ppn, lpns in expected_refs.items():
            if self.rev.refs(ppn) != lpns:
                raise AssertionError(
                    f"reverse map mismatch at PPN {ppn}: "
                    f"{self.rev.refs(ppn)} != {lpns}")
        valid_by_block: Dict[int, int] = {b: 0 for b in self._data_blocks}
        for ppn in expected_refs:
            valid_by_block[self.geometry.block_of(ppn)] += 1
        for block in self._data_blocks:
            if self._valid_count[block] != valid_by_block[block]:
                raise AssertionError(
                    f"valid count mismatch at block {block}: "
                    f"{self._valid_count[block]} != {valid_by_block[block]}")
