"""Offline models of compact L2P layouts, fed by the live map's mutations.

The FTL keeps one flat forward map (:class:`repro.ftl.mapping.FlatListMap`).
What SHARE would cost on a *compact* mapping layout depends only on the
ordered stream of ``update`` / ``remap`` / ``clear`` calls that map
receives, so the layouts are modeled here, off the device path:

1. :meth:`RecordingMap.attach` swaps a recorder in for a fresh FTL's map.
   It shares the FTL's table list, so the device behaves exactly as
   before, and appends ``(op, lpn, ppn)`` per mutation.
2. :func:`replay` feeds that stream into any model below.

Three layouts are modeled:

* :class:`GroupMap` — GFTL-style two-level mapping: fixed-size per-group
  page tables allocated on first touch and freed when their last entry
  clears.  SHARE remaps into untouched groups force group allocations
  (counted as remap splits).
* :class:`RunLengthMap` — CCFTL-style extent compression: maximal runs of
  ``(lpn, ppn)`` pairs advancing in lockstep collapse to one
  ``(start, length, ppn)`` record.  Random writes and SHARE remaps split
  runs (split-on-write).
* :class:`DeltaCompressedMap` — hybrid delta encoding per
  *Page-Differential Logging*: each group stores one base anchor plus a
  sparse exception table for entries that diverge from the prediction.
  SHARE remaps, which by construction point elsewhere, each cost an
  exception record.

:class:`FlatModel` is the live array's own accounting, so all four rows
of a comparison come from one replay.  Footprints are *modeled* bytes
(4-byte PPN entries as on the 32-bit Barefoot controller), not Python
object sizes: they are what the layouts would cost in device DRAM.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.ftl.mapping import UNMAPPED, FlatListMap

#: Modeled bytes per mapping entry (32-bit PPN).
ENTRY_BYTES = 4
#: Modeled bytes per run record: (start LPN, length, start PPN).
RUN_BYTES = 12
#: Modeled bytes per delta exception record: (LPN, PPN).
DELTA_ENTRY_BYTES = 8

OP_UPDATE = "update"
OP_REMAP = "remap"
OP_CLEAR = "clear"

#: One recorded forward-map mutation: (op, lpn, ppn); ``ppn`` is
#: ``UNMAPPED`` for a clear.
Mutation = Tuple[str, int, int]


class RecordingMap(FlatListMap):
    """A flat map that records every mutation it applies.

    It shares the table list of the map it replaces, so the FTL's direct
    table reads keep seeing live state.  Calls that raise are not
    recorded."""

    __slots__ = ("stream",)

    def __init__(self, live: FlatListMap) -> None:
        if live.mapped_count:
            raise ValueError(
                "record from an empty map: a replay starts from nothing")
        self.table = live.table
        self._mapped_count = 0
        self.stream: List[Mutation] = []

    @classmethod
    def attach(cls, ftl) -> "RecordingMap":
        """Install a recorder as ``ftl.fwd`` and return it."""
        recorder = cls(ftl.fwd)
        ftl.fwd = recorder
        return recorder

    def update(self, lpn: int, ppn: int) -> Optional[int]:
        old = FlatListMap.update(self, lpn, ppn)
        self.stream.append((OP_UPDATE, lpn, ppn))
        return old

    def remap(self, lpn: int, ppn: int) -> Optional[int]:
        old = FlatListMap.update(self, lpn, ppn)
        self.stream.append((OP_REMAP, lpn, ppn))
        return old

    def clear(self, lpn: int) -> Optional[int]:
        old = FlatListMap.clear(self, lpn)
        self.stream.append((OP_CLEAR, lpn, UNMAPPED))
        return old


def replay(stream: Iterable[Mutation], model):
    """Apply a recorded mutation stream to ``model``; returns it."""
    for op, lpn, ppn in stream:
        if op == OP_UPDATE:
            model.update(lpn, ppn)
        elif op == OP_REMAP:
            model.remap(lpn, ppn)
        elif op == OP_CLEAR:
            model.clear(lpn)
        else:
            raise ValueError(f"unknown mapping op: {op!r}")
    return model


def fresh_models(logical_pages: int, group_pages: int = 64) -> Dict[str, object]:
    """One empty instance of every model, keyed by layout name."""
    return {
        "flat": FlatModel(logical_pages),
        "group": GroupMap(logical_pages, group_pages),
        "runlength": RunLengthMap(logical_pages),
        "delta": DeltaCompressedMap(logical_pages, group_pages),
    }


class FlatModel(FlatListMap):
    """The live flat array's accounting: fixed footprint, one fragment,
    and no continuity for a remap to break."""

    __slots__ = ()

    remap_splits = 0

    def footprint_bytes(self) -> int:
        return len(self.table) * ENTRY_BYTES

    def fragment_count(self) -> int:
        return 1


class _CompactModel:
    """Bounds-checked lookups shared by the compact models.

    Accounting every model provides: ``remap_splits`` (cumulative
    continuity breaks caused by remaps), :meth:`footprint_bytes`
    (modeled DRAM cost now) and :meth:`fragment_count` (allocated
    groups, runs, or exception entries now)."""

    __slots__ = ()

    _logical_pages: int

    def check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self._logical_pages:
            raise ValueError(
                f"LPN out of range [0, {self._logical_pages}): {lpn}")

    def lookup(self, lpn: int) -> Optional[int]:
        self.check_lpn(lpn)
        ppn = self.get(lpn)
        return None if ppn == UNMAPPED else ppn

    def is_mapped(self, lpn: int) -> bool:
        self.check_lpn(lpn)
        return self.get(lpn) != UNMAPPED

    def _check_update(self, lpn: int, ppn: int) -> None:
        self.check_lpn(lpn)
        if ppn < 0:
            raise ValueError(f"PPN must be non-negative: {ppn}")


def _check_size(logical_pages: int, group_pages: int = 1) -> None:
    if logical_pages <= 0:
        raise ValueError(f"logical_pages must be positive: {logical_pages}")
    if group_pages < 1:
        raise ValueError(f"group_pages must be >= 1: {group_pages}")


class GroupMap(_CompactModel):
    """GFTL-style two-level map: per-group page tables on first touch.

    The directory holds one slot per group; a group's table
    (``group_pages`` entries) is allocated the first time any LPN inside
    it maps and freed when its last entry clears.  Footprint follows the
    *touched* address space instead of the whole logical space."""

    __slots__ = ("_logical_pages", "_group_pages", "_groups", "_live",
                 "_allocated", "_mapped_count", "remap_splits")

    def __init__(self, logical_pages: int, group_pages: int = 64) -> None:
        _check_size(logical_pages, group_pages)
        self._logical_pages = logical_pages
        self._group_pages = group_pages
        group_count = -(-logical_pages // group_pages)
        self._groups: List[Optional[List[int]]] = [None] * group_count
        self._live = [0] * group_count       # mapped entries per group
        self._allocated = 0
        self._mapped_count = 0
        self.remap_splits = 0

    @property
    def mapped_count(self) -> int:
        return self._mapped_count

    def get(self, lpn: int) -> int:
        group = self._groups[lpn // self._group_pages]
        if group is None:
            return UNMAPPED
        return group[lpn % self._group_pages]

    def _set(self, lpn: int, ppn: int) -> Tuple[Optional[int], bool]:
        """Write one entry; returns (old-or-None, allocated-a-group)."""
        index = lpn // self._group_pages
        group = self._groups[index]
        fresh = group is None
        if fresh:
            group = [UNMAPPED] * self._group_pages
            self._groups[index] = group
            self._allocated += 1
        offset = lpn % self._group_pages
        old = group[offset]
        group[offset] = ppn
        if old == UNMAPPED:
            self._live[index] += 1
            self._mapped_count += 1
            return None, fresh
        return old, fresh

    def update(self, lpn: int, ppn: int) -> Optional[int]:
        self._check_update(lpn, ppn)
        return self._set(lpn, ppn)[0]

    def remap(self, lpn: int, ppn: int) -> Optional[int]:
        self._check_update(lpn, ppn)
        old, fresh = self._set(lpn, ppn)
        if fresh:
            # A remap forced a whole group table into existence for one
            # entry — the group layout's SHARE fragmentation cost.
            self.remap_splits += 1
        return old

    def clear(self, lpn: int) -> Optional[int]:
        self.check_lpn(lpn)
        index = lpn // self._group_pages
        group = self._groups[index]
        if group is None:
            return None
        offset = lpn % self._group_pages
        old = group[offset]
        if old == UNMAPPED:
            return None
        group[offset] = UNMAPPED
        self._live[index] -= 1
        self._mapped_count -= 1
        if self._live[index] == 0:
            self._groups[index] = None   # return the table to the pool
            self._allocated -= 1
        return old

    def mapped_lpns(self) -> Iterator[Tuple[int, int]]:
        group_pages = self._group_pages
        logical = self._logical_pages
        for index, group in enumerate(self._groups):
            if group is None:
                continue
            base = index * group_pages
            for offset, ppn in enumerate(group):
                if ppn != UNMAPPED and base + offset < logical:
                    yield base + offset, ppn

    def footprint_bytes(self) -> int:
        return (len(self._groups) * ENTRY_BYTES
                + self._allocated * self._group_pages * ENTRY_BYTES)

    def fragment_count(self) -> int:
        return self._allocated


class RunLengthMap(_CompactModel):
    """CCFTL-style extent runs with split-on-write.

    Runs are ``[start_lpn, length, start_ppn]`` records, kept sorted by
    ``start_lpn`` with a parallel key list for bisection.  A write that
    extends a neighbouring run in lockstep merges into it; a write into
    the middle of a run carves it apart.  SHARE remaps almost never
    extend a run (the source page lives elsewhere), so heavy remapping
    shreds extents — ``remap_splits`` counts every run boundary a remap
    manufactures."""

    __slots__ = ("_logical_pages", "_starts", "_runs", "_mapped_count",
                 "remap_splits", "write_splits")

    def __init__(self, logical_pages: int) -> None:
        _check_size(logical_pages)
        self._logical_pages = logical_pages
        self._starts: List[int] = []
        self._runs: List[List[int]] = []
        self._mapped_count = 0
        self.remap_splits = 0
        #: Run carve-ups caused by ordinary (non-remap) updates.
        self.write_splits = 0

    @property
    def mapped_count(self) -> int:
        return self._mapped_count

    def get(self, lpn: int) -> int:
        index = bisect_right(self._starts, lpn) - 1
        if index < 0:
            return UNMAPPED
        start, length, ppn = self._runs[index]
        if lpn < start + length:
            return ppn + (lpn - start)
        return UNMAPPED

    def _insert_run(self, index: int, start: int, length: int, ppn: int) -> None:
        self._starts.insert(index, start)
        self._runs.insert(index, [start, length, ppn])

    def _delete_run(self, index: int) -> None:
        del self._starts[index]
        del self._runs[index]

    def _carve(self, lpn: int) -> Tuple[Optional[int], int]:
        """Remove ``lpn`` from whatever run holds it.

        Returns ``(old_ppn_or_None, runs_added)`` where ``runs_added``
        is how many extra run records the carve created (an interior
        split adds one; trimming an edge adds none; removing a
        single-page run removes one, reported as -1)."""
        index = bisect_right(self._starts, lpn) - 1
        if index < 0:
            return None, 0
        run = self._runs[index]
        start, length, ppn = run
        if lpn >= start + length:
            return None, 0
        old = ppn + (lpn - start)
        self._mapped_count -= 1
        if length == 1:
            self._delete_run(index)
            return old, -1
        if lpn == start:                      # trim the head
            run[0] = start + 1
            run[1] = length - 1
            run[2] = ppn + 1
            self._starts[index] = start + 1
            return old, 0
        if lpn == start + length - 1:         # trim the tail
            run[1] = length - 1
            return old, 0
        # Interior: split into [start, lpn) and (lpn, start+length).
        left_len = lpn - start
        run[1] = left_len
        right_start = lpn + 1
        self._insert_run(index + 1, right_start,
                         start + length - right_start,
                         ppn + (right_start - start))
        return old, 1

    def _place(self, lpn: int, ppn: int) -> None:
        """Insert the single mapping ``lpn -> ppn`` (the LPN is known
        unmapped), merging with lockstep neighbours."""
        index = bisect_right(self._starts, lpn) - 1
        merged = False
        if index >= 0:
            run = self._runs[index]
            if run[0] + run[1] == lpn and run[2] + run[1] == ppn:
                run[1] += 1                   # extend predecessor
                merged = True
        if not merged:
            self._insert_run(index + 1, lpn, 1, ppn)
            index += 1
        # Try to absorb the successor run.
        run = self._runs[index]
        if index + 1 < len(self._runs):
            nxt = self._runs[index + 1]
            if run[0] + run[1] == nxt[0] and run[2] + run[1] == nxt[2]:
                run[1] += nxt[1]
                self._delete_run(index + 1)
        self._mapped_count += 1

    def update(self, lpn: int, ppn: int) -> Optional[int]:
        self._check_update(lpn, ppn)
        if self.get(lpn) == ppn:
            return ppn                        # already exactly mapped
        old, added = self._carve(lpn)
        if added > 0:
            # Only genuine interior carve-ups count as write splits —
            # placing a fresh run in open space is normal growth.
            self.write_splits += added
        self._place(lpn, ppn)
        return old

    def remap(self, lpn: int, ppn: int) -> Optional[int]:
        self._check_update(lpn, ppn)
        if self.get(lpn) == ppn:
            return ppn
        before = len(self._runs)
        old, _added = self._carve(lpn)
        self._place(lpn, ppn)
        grew = len(self._runs) - before
        if grew > 0:
            # Remaps are charged their *net* fragmentation: an interior
            # carve and the non-mergeable run the aliased PPN forces are
            # both continuity SHARE destroyed relative to a flat layout.
            self.remap_splits += grew
        return old

    def clear(self, lpn: int) -> Optional[int]:
        self.check_lpn(lpn)
        return self._carve(lpn)[0]

    def mapped_lpns(self) -> Iterator[Tuple[int, int]]:
        for start, length, ppn in self._runs:
            for offset in range(length):
                yield start + offset, ppn + offset

    def footprint_bytes(self) -> int:
        return len(self._runs) * RUN_BYTES

    def fragment_count(self) -> int:
        return len(self._runs)


class DeltaCompressedMap(_CompactModel):
    """Hybrid delta encoding per *Page-Differential Logging*.

    Each ``group_pages``-sized region stores one *anchor*: the PPN its
    first mapping predicts for offset 0.  An entry whose PPN equals
    ``anchor + offset`` is free — only a presence bit; an entry that
    diverges pays an exception record in the sparse delta table.
    Sequential fills (the common couchstore/InnoDB flush shape) cost one
    anchor per group; SHARE remaps, whose whole point is to alias a page
    that lives elsewhere, each cost an exception — counted as remap
    splits."""

    __slots__ = ("_logical_pages", "_group_pages", "_mapped", "_anchors",
                 "_live", "_deltas", "_mapped_count", "remap_splits")

    def __init__(self, logical_pages: int, group_pages: int = 64) -> None:
        _check_size(logical_pages, group_pages)
        self._logical_pages = logical_pages
        self._group_pages = group_pages
        group_count = -(-logical_pages // group_pages)
        self._mapped = bytearray(logical_pages)
        self._anchors: List[Optional[int]] = [None] * group_count
        self._live = [0] * group_count
        self._deltas: Dict[int, int] = {}
        self._mapped_count = 0
        self.remap_splits = 0

    @property
    def mapped_count(self) -> int:
        return self._mapped_count

    @property
    def delta_entries(self) -> int:
        """Exception records currently held (divergent mappings)."""
        return len(self._deltas)

    def get(self, lpn: int) -> int:
        if not self._mapped[lpn]:
            return UNMAPPED
        ppn = self._deltas.get(lpn)
        if ppn is not None:
            return ppn
        group_pages = self._group_pages
        return (self._anchors[lpn // group_pages]   # type: ignore[operator]
                + lpn % group_pages)

    def _set(self, lpn: int, ppn: int) -> Tuple[Optional[int], bool]:
        """Write one entry; returns (old-or-None, created-exception)."""
        group_pages = self._group_pages
        index = lpn // group_pages
        offset = lpn % group_pages
        was_mapped = bool(self._mapped[lpn])
        old: Optional[int] = self.get(lpn) if was_mapped else None
        anchor = self._anchors[index]
        created = False
        if anchor is None:
            # First live entry of the group sets the prediction base.
            self._anchors[index] = ppn - offset
            self._deltas.pop(lpn, None)
        elif anchor + offset == ppn:
            self._deltas.pop(lpn, None)
        else:
            created = lpn not in self._deltas
            self._deltas[lpn] = ppn
        if not was_mapped:
            self._mapped[lpn] = 1
            self._live[index] += 1
            self._mapped_count += 1
        return old, created

    def update(self, lpn: int, ppn: int) -> Optional[int]:
        self._check_update(lpn, ppn)
        return self._set(lpn, ppn)[0]

    def remap(self, lpn: int, ppn: int) -> Optional[int]:
        self._check_update(lpn, ppn)
        old, created = self._set(lpn, ppn)
        if created:
            # The remap diverges from the group's prediction — the
            # delta layout's SHARE fragmentation cost.
            self.remap_splits += 1
        return old

    def clear(self, lpn: int) -> Optional[int]:
        self.check_lpn(lpn)
        if not self._mapped[lpn]:
            return None
        old = self.get(lpn)
        self._mapped[lpn] = 0
        self._deltas.pop(lpn, None)
        index = lpn // self._group_pages
        self._live[index] -= 1
        self._mapped_count -= 1
        if self._live[index] == 0:
            self._anchors[index] = None   # group empty: drop the anchor
        return old

    def mapped_lpns(self) -> Iterator[Tuple[int, int]]:
        mapped = self._mapped
        get = self.get
        for lpn in range(self._logical_pages):
            if mapped[lpn]:
                yield lpn, get(lpn)

    def footprint_bytes(self) -> int:
        return (len(self._mapped) // 8 + 1          # presence bitmap
                + len(self._anchors) * ENTRY_BYTES  # group anchors
                + len(self._deltas) * DELTA_ENTRY_BYTES)

    def fragment_count(self) -> int:
        return len(self._deltas)
