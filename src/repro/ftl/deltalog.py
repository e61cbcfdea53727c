"""Mapping delta log (Section 4.2.2, Figure 4).

Normal host writes need no log record: the LPN stamped in the spare area at
program time already persists their mapping.  Two operations change the
mapping *without* programming a data page and therefore must be logged:

* ``SHARE`` — records ``(LPN, old PPN, new PPN)``; the single mapping-page
  program holding a batch's records is the atomic commit point ("the
  maximum size of Deltas cannot exceed the mapping page size because only a
  page is written atomically to flash"),
* ``TRIM`` — records ``(LPN, old PPN, unmapped)``.

The log lives in a small reserved region of map blocks at the top of the
array.  When the region fills up, the log checkpoints itself: the still-live
log-backed mappings (provided by the FTL) are rewritten as ``snap`` records
into the last free map block, the exhausted blocks are erased, and logging
continues.  Recovery merges log records with the spare-area stamps by
sequence number — the newest assertion per LPN wins.

Media faults make the log defend itself:

* every mapping page is sealed with a CRC32 over its records, so a page
  returned corrupted (or torn by a failed program) is *detected* during
  :meth:`MapLog.scan` and skipped rather than replayed — recovery already
  always merges the log with the full OOB scan by sequence number, so a
  lost log page degrades to the stamps' view instead of silently replaying
  garbage;
* a program failure while appending simply retries the next mapping page
  (the failed page consumed its slot and the OOB scan skips it);
* an erase failure during a checkpoint retires the map block from the
  rotation; a ``badblk`` record naming it rides in every later snapshot so
  the retirement survives recovery, and the stale records left in the dead
  block are harmless — they always lose the seq merge.

The log is strategy-agnostic with respect to the in-DRAM forward map:
records and spare stamps speak plain ``(LPN, PPN)``, and recovery replays
the merged view through :class:`repro.ftl.mapping.MappingStrategy.update`,
so the same media rebuilds identically under the flat, grouped,
run-length, or delta-compressed backing (pinned by the parity tests in
``tests/test_ftl_strategy_recovery.py``).
"""

from __future__ import annotations

import zlib
from time import perf_counter_ns
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    EraseFailError,
    FtlError,
    ProgramFailError,
    UncorrectableReadError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.obs import NULL_TELEMETRY, hot_timer
from repro.sim.faults import NO_FAULTS, FaultPlan

#: Spare-area tag marking a mapping page (vs a data page).
MAP_PAGE_TAG = "map"

#: Magic leading every sealed mapping-page payload.
MAP_MAGIC = "maplog-v2"

KIND_SHARE = "share"
KIND_TRIM = "trim"
KIND_SNAP = "snap"
#: Commit record of the atomic-write baseline command (Section 6.1's
#: related-work FTLs, implemented for comparison).
KIND_AWRITE = "awrite"
#: Commit record of the X-FTL transactional baseline (Section 6.2).
KIND_XCOMMIT = "xcommit"
#: Grown-bad-block announcement: ``lpn`` holds the *block* number, both
#: PPN fields are None.  Data-block records are emitted by the FTL at
#: retirement time; map-block records are emitted by the log itself.
KIND_BADBLK = "badblk"
_KINDS = frozenset({KIND_SHARE, KIND_TRIM, KIND_SNAP, KIND_AWRITE,
                    KIND_XCOMMIT, KIND_BADBLK})

#: How many fresh mapping pages one append tries when programs keep
#: failing before surfacing the error.
_PROGRAM_ATTEMPTS = 4


class DeltaRecord:
    """One mapping-change assertion.

    ``new_ppn`` is None for trims.  ``seq`` totally orders this assertion
    against spare-area stamps and other records.  ``badblk`` records reuse
    ``lpn`` for the retired block number and carry no PPNs.

    A value object: equal (and equally hashed) when all five fields are,
    and never mutated after construction.  Hand-slotted rather than a
    frozen dataclass because every SHARE pair, trim and snapshot entry
    builds one, and the frozen-dataclass ``__init__`` costs several
    times a plain slotted one.
    """

    __slots__ = ("kind", "lpn", "old_ppn", "new_ppn", "seq")

    def __init__(self, kind: str, lpn: int, old_ppn: Optional[int],
                 new_ppn: Optional[int], seq: int) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown delta kind: {kind!r}")
        if lpn < 0:
            raise ValueError(f"negative LPN: {lpn}")
        if seq < 0:
            raise ValueError(f"negative seq: {seq}")
        if kind == KIND_TRIM and new_ppn is not None:
            raise ValueError("trim records must have new_ppn=None")
        if kind == KIND_BADBLK and (old_ppn is not None
                                    or new_ppn is not None):
            raise ValueError("badblk records carry no PPNs")
        self.kind = kind
        self.lpn = lpn
        self.old_ppn = old_ppn
        self.new_ppn = new_ppn
        self.seq = seq

    def _key(self) -> Tuple:
        return (self.kind, self.lpn, self.old_ppn, self.new_ppn, self.seq)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()   # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"DeltaRecord(kind={self.kind!r}, lpn={self.lpn!r}, "
                f"old_ppn={self.old_ppn!r}, new_ppn={self.new_ppn!r}, "
                f"seq={self.seq!r})")


def _encode(records: Sequence[DeltaRecord]) -> bytes:
    """Canonical byte encoding of a mapping page's records: every field
    of every record, in order.  Built from plain tuples, whose ``repr``
    is native code — the per-record Python ``__repr__`` is the cost this
    avoids on the commit path."""
    return repr([(record.kind, record.lpn, record.old_ppn, record.new_ppn,
                  record.seq) for record in records]).encode("utf-8")


def _seal(records: Tuple[DeltaRecord, ...]):
    """Wrap a mapping page's records with a CRC so corruption is detected."""
    crc = zlib.crc32(_encode(records)) & 0xFFFFFFFF
    return (MAP_MAGIC, records, crc)


def _unseal(payload) -> Optional[List[DeltaRecord]]:
    """Records from a sealed mapping page, or None when the page is
    corrupt (bad magic, torn shape, or checksum mismatch)."""
    if (not isinstance(payload, tuple) or len(payload) != 3
            or payload[0] != MAP_MAGIC):
        return None
    _, records, crc = payload
    if not isinstance(records, tuple) or not all(
            record.__class__ is DeltaRecord for record in records):
        return None
    if zlib.crc32(_encode(records)) & 0xFFFFFFFF != crc:
        return None
    return list(records)


class MapLog:
    """Append-only delta log over the reserved map blocks.

    The log programs whole mapping pages; each page carries a sealed list
    of :class:`DeltaRecord`.  Fault checkpoints bracket the commit program
    so tests can kill power on either side of the atomic point.
    """

    def __init__(self, nand: NandArray, geometry: FlashGeometry,
                 map_blocks: Sequence[int], records_per_page: int,
                 faults: FaultPlan = NO_FAULTS, telemetry=None) -> None:
        if not map_blocks:
            raise ValueError("need at least one map block")
        self._nand = nand
        self._geometry = geometry
        self._blocks = list(map_blocks)
        self._bad_blocks: Set[int] = set()
        self._records_per_page = records_per_page
        self._faults = faults
        self._cursor = 0          # index into self._blocks
        self._page_writes = 0
        # Channels of mapping-page programs since the last take_work()
        # drain — the FTL merges these into its charged-work ledger.
        self._work: List[int] = []
        self._checkpoints = 0
        self._snapshot_provider: Optional[Callable[[], List[DeltaRecord]]] = None
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = self.telemetry.metrics
        self._m_page_writes = metrics.counter("ftl.maplog.page_writes")
        self._m_checkpoints = metrics.counter("ftl.maplog.checkpoints")
        self._m_records = metrics.histogram("ftl.maplog.records_per_commit")
        self._pt_apply = hot_timer(getattr(self.telemetry, "profiler", None),
                                   "ftl.deltalog")

    # --------------------------------------------------------------- setup

    def set_snapshot_provider(self, provider: Callable[[], List[DeltaRecord]]) -> None:
        """Register the FTL callback that lists still-live log-backed
        mappings for checkpointing."""
        self._snapshot_provider = provider

    def bind_to_end_of_log(self) -> None:
        """After recovery, resume appending after the last programmed page."""
        self._cursor = 0
        for index, block in enumerate(self._blocks):
            if self._nand.programmed_pages_in_block(block) > 0:
                self._cursor = index
        # If the cursor block is full, advance handled lazily by _target().

    def retire_map_block(self, block: int) -> None:
        """Drop a grown-bad map block from the rotation (idempotent).

        Called when an erase of the block fails, and during recovery when
        a scanned ``badblk`` record names a map block."""
        if block in self._bad_blocks:
            return
        self._bad_blocks.add(block)
        if block in self._blocks:
            index = self._blocks.index(block)
            self._blocks.remove(block)
            if self._cursor > index:
                self._cursor -= 1
            if self._cursor >= len(self._blocks) and self._blocks:
                self._cursor = len(self._blocks) - 1
        if not self._blocks:
            raise FtlError(
                "every map block has grown bad; the mapping log cannot "
                "persist further deltas")

    @property
    def bad_blocks(self) -> Set[int]:
        return set(self._bad_blocks)

    @property
    def records_per_page(self) -> int:
        return self._records_per_page

    @property
    def page_writes(self) -> int:
        """Mapping pages programmed so far (internal write traffic)."""
        return self._page_writes

    @property
    def checkpoints(self) -> int:
        return self._checkpoints

    def take_work(self) -> List[int]:
        """Drain the channels of mapping pages programmed since the
        last drain.

        When the ledger is empty the *live* (empty) list is returned
        without allocating a replacement — most commands program no
        mapping pages, and the caller only reads the result."""
        work = self._work
        if work:
            self._work = []
        return work

    def _note_work(self, ppn: int) -> None:
        self._work.append(
            (ppn // self._geometry.pages_per_block)
            % self._geometry.channel_count)

    # -------------------------------------------------------------- append

    def append_atomic(self, records: Sequence[DeltaRecord]) -> None:
        """Persist ``records`` in one mapping-page program.

        This is the SHARE commit point: a crash before the program leaves
        the old mapping, a crash after it leaves the new mapping; there is
        no in-between because the page program is atomic.  A program
        failure moves on to the next mapping page — the failed page
        consumed its slot and the OOB scan skips it, so atomicity holds:
        either one intact sealed page carries the batch, or none does.
        """
        if not records:
            raise ValueError("cannot commit an empty delta batch")
        if len(records) > self._records_per_page:
            raise FtlError(
                f"delta batch of {len(records)} records exceeds the mapping "
                f"page capacity of {self._records_per_page} — the batch "
                "would not commit atomically (Section 4.2.2)")
        self._faults.checkpoint("maplog.before_commit")
        pt_apply = self._pt_apply
        t0 = perf_counter_ns() if pt_apply is not None else 0
        payload = _seal(tuple(records))
        for attempt in range(_PROGRAM_ATTEMPTS):
            ppn = self._next_map_ppn()
            try:
                self._nand.program(ppn, payload, spare=(MAP_PAGE_TAG,))
            except ProgramFailError:
                if attempt + 1 == _PROGRAM_ATTEMPTS:
                    raise
                continue
            break
        self._page_writes += 1
        self._note_work(ppn)
        self._m_page_writes.inc()
        self._m_records.record(len(records))
        if pt_apply is not None:
            pt_apply.add(perf_counter_ns() - t0)
        self._faults.checkpoint("maplog.after_commit")

    def append(self, records: Sequence[DeltaRecord]) -> None:
        """Persist records that do not need single-page atomicity (trim
        batches), splitting across pages as needed."""
        for start in range(0, len(records), self._records_per_page):
            self.append_atomic(records[start:start + self._records_per_page])

    # ------------------------------------------------------------ internal

    def _next_map_ppn(self) -> int:
        """PPN of the next free mapping page, checkpointing when needed."""
        for _ in range(2):
            block = self._blocks[self._cursor]
            used = self._nand.programmed_pages_in_block(block)
            if used < self._geometry.pages_per_block:
                return self._geometry.first_ppn(block) + used
            if self._cursor + 1 < len(self._blocks):
                self._cursor += 1
                continue
            self._checkpoint()
        raise FtlError("map log has no space even after checkpoint")

    def _badblk_records(self) -> List[DeltaRecord]:
        """``badblk`` announcements for the log's own retired blocks; they
        ride in every snapshot so retirement survives recovery."""
        return [DeltaRecord(KIND_BADBLK, block, None, None, 0)
                for block in sorted(self._bad_blocks)]

    def _checkpoint(self) -> None:
        """Compact the log: rewrite live records, erase exhausted blocks.

        The snapshot may span several map blocks (a busy SHARE workload —
        e.g. a compaction of a large store — can keep hundreds of
        thousands of log-backed mappings live).  The crash window between
        the erases and the snapshot programs is covered by the
        controller's power capacitor on the OpenSSD, and the reproduction
        documents the same assumption.
        """
        if self._snapshot_provider is None:
            raise FtlError("map log full and no snapshot provider registered")
        with self.telemetry.tracer.span("ftl.maplog.checkpoint") as span:
            self._do_checkpoint(span)

    def _do_checkpoint(self, span) -> None:
        self._faults.checkpoint("maplog.checkpoint_start")
        pages_per_block = self._geometry.pages_per_block
        page_capacity = self._records_per_page
        # Erase the whole rotation first, retiring any block whose erase
        # fails.  A retired block keeps its stale pages; they always lose
        # the seq merge, and the badblk record below marks it dead.
        usable: List[int] = []
        for block in list(self._blocks):
            try:
                self._nand.erase(block)
            except EraseFailError:
                self.retire_map_block(block)
            else:
                usable.append(block)
        self._blocks = usable
        if not self._blocks:
            raise FtlError(
                "every map block has grown bad; the mapping log cannot "
                "persist further deltas")
        live = self._badblk_records() + list(self._snapshot_provider())
        span.set(live_records=len(live))
        needed_pages = -(-len(live) // page_capacity) if live else 0
        needed_blocks = -(-needed_pages // pages_per_block) if needed_pages else 0
        if needed_blocks >= len(self._blocks):
            raise FtlError(
                f"snapshot of {len(live)} live records needs {needed_blocks} "
                f"map blocks but only {len(self._blocks)} remain (and one "
                "must stay free for new deltas); increase map_block_count")
        block_index = 0
        offset = 0
        cursor = 0
        while cursor < len(live):
            if offset >= pages_per_block:
                block_index += 1
                offset = 0
                if block_index >= len(self._blocks):
                    raise FtlError(
                        "map-log snapshot overflowed the surviving blocks "
                        "(program failures consumed too many pages)")
            chunk = tuple(live[cursor:cursor + page_capacity])
            ppn = self._geometry.first_ppn(self._blocks[block_index]) + offset
            offset += 1
            try:
                self._nand.program(ppn, _seal(chunk), spare=(MAP_PAGE_TAG,))
            except ProgramFailError:
                continue   # the failed page consumed its slot; use the next
            self._page_writes += 1
            self._note_work(ppn)
            cursor += page_capacity
        self._cursor = min(block_index, len(self._blocks) - 1)
        self._checkpoints += 1
        self._m_checkpoints.inc()
        self._faults.checkpoint("maplog.checkpoint_end")

    # ------------------------------------------------------------ recovery

    @staticmethod
    def scan(nand: NandArray, geometry: FlashGeometry,
             map_blocks: Sequence[int],
             read_retries: int = 2) -> Tuple[List[DeltaRecord], int]:
        """Collect every readable, intact delta record in the map region.

        Returns ``(records, bad_pages)``.  A mapping page that stays
        unreadable after ``read_retries`` extra attempts, or whose seal
        fails verification, is counted in ``bad_pages`` and skipped —
        recovery merges the log with the full OOB scan by sequence number,
        so a lost log page degrades to the stamps' view of those LPNs
        instead of replaying garbage.
        """
        records: List[DeltaRecord] = []
        bad_pages = 0
        for block in map_blocks:
            for ppn, spare in nand.scan_block(block):
                if not (isinstance(spare, tuple) and spare and spare[0] == MAP_PAGE_TAG):
                    raise FtlError(
                        f"non-map page found in map block {block} (PPN {ppn})")
                payload = None
                readable = False
                for _ in range(read_retries + 1):
                    try:
                        payload = nand.read(ppn)
                    except UncorrectableReadError:
                        continue
                    readable = True
                    break
                unsealed = _unseal(payload) if readable else None
                if unsealed is None:
                    bad_pages += 1
                    continue
                records.extend(unsealed)
        return records, bad_pages
