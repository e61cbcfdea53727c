"""Forward (L2P) mapping table.

SHARE's whole value proposition lives in this table — a remap is a pure
L2P mutation instead of a data copy.  The FTL keeps it as one plain
array of PPNs indexed by LPN, matching the page-mapping scheme of the
OpenSSD firmware ("the entire forward mapping table is kept in DRAM",
Section 4.2.1).

The pagemap's pre-validated hot loops index :attr:`FlatListMap.table`
directly; every *mutation* goes through :meth:`~FlatListMap.update`,
:meth:`~FlatListMap.remap` or :meth:`~FlatListMap.clear`, so the ordered
stream of those calls is the complete history of the map.  The compact
GFTL / CCFTL / page-differential layouts are modeled offline from that
stream (:mod:`repro.bench.l2p_models`).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

UNMAPPED = -1


class FlatListMap:
    """LPN -> PPN as one plain DRAM array: O(1) lookup and update.

    The host-facing methods (:meth:`lookup`, :meth:`is_mapped`,
    :meth:`update`, :meth:`clear`) raise ``ValueError`` outside
    ``[0, logical_pages)``.  Direct readers of :attr:`table` see the
    ``UNMAPPED`` sentinel for holes.

    (An ``array('q')`` backing was measured and rejected: C-long boxing
    on every read made the hot loops slower than the plain list.)
    """

    __slots__ = ("table", "_mapped_count")

    def __init__(self, logical_pages: int) -> None:
        if logical_pages <= 0:
            raise ValueError(f"logical_pages must be positive: {logical_pages}")
        self.table: List[int] = [UNMAPPED] * logical_pages
        self._mapped_count = 0

    @property
    def mapped_count(self) -> int:
        """Number of LPNs currently holding a mapping."""
        return self._mapped_count

    def lookup(self, lpn: int) -> Optional[int]:
        """Current PPN of ``lpn``, or None when unmapped."""
        if not 0 <= lpn < len(self.table):
            raise ValueError(
                f"LPN out of range [0, {len(self.table)}): {lpn}")
        ppn = self.table[lpn]
        return None if ppn == UNMAPPED else ppn

    def is_mapped(self, lpn: int) -> bool:
        if not 0 <= lpn < len(self.table):
            raise ValueError(
                f"LPN out of range [0, {len(self.table)}): {lpn}")
        return self.table[lpn] != UNMAPPED

    def update(self, lpn: int, ppn: int) -> Optional[int]:
        """Point ``lpn`` at ``ppn``; returns the previous PPN (or None)."""
        if not 0 <= lpn < len(self.table):
            raise ValueError(
                f"LPN out of range [0, {len(self.table)}): {lpn}")
        if ppn < 0:
            raise ValueError(f"PPN must be non-negative: {ppn}")
        old = self.table[lpn]
        if old == UNMAPPED:
            self._mapped_count += 1
            self.table[lpn] = ppn
            return None
        self.table[lpn] = ppn
        return old

    def remap(self, lpn: int, ppn: int) -> Optional[int]:
        """SHARE-flavoured :meth:`update`: same semantics, kept distinct
        so a recorded mutation stream marks which updates alias an
        existing physical page."""
        return self.update(lpn, ppn)

    def clear(self, lpn: int) -> Optional[int]:
        """Drop the mapping of ``lpn`` (TRIM); returns the previous PPN."""
        if not 0 <= lpn < len(self.table):
            raise ValueError(
                f"LPN out of range [0, {len(self.table)}): {lpn}")
        old = self.table[lpn]
        if old != UNMAPPED:
            self._mapped_count -= 1
            self.table[lpn] = UNMAPPED
            return old
        return None

    def mapped_lpns(self) -> Iterator[Tuple[int, int]]:
        """Iterate (lpn, ppn) over every live mapping in ascending LPN
        order — recovery, invariants, and debug use."""
        for lpn, ppn in enumerate(self.table):
            if ppn != UNMAPPED:
                yield lpn, ppn
