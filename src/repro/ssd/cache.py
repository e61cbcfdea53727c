"""Controller DRAM read cache.

Section 4.2.1: most of the SSD's DRAM holds the forward mapping table;
"the remaining space is used for I/O buffers and cache", and the SHARE
prototype trades a portion of that cache for the reverse-mapping table.
This module is that cache: an LRU of recently read/written logical pages
served at DRAM speed instead of a NAND read.

The DRAM-budget ablation benchmark splits a fixed byte budget between
this cache and the share table to quantify the paper's trade.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

#: Unique miss sentinel so a cached ``None`` payload stays a hit.
_MISS = object()


class DramReadCache:
    """LRU cache of LPN -> page image."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError(
                f"capacity must be non-negative: {capacity_pages}")
        self.capacity_pages = capacity_pages
        # Plain attribute, not a property: the device reads it before
        # every cache call and skips the call when the cache is off, so
        # a disabled cache costs one attribute load per host command.
        # The methods keep their own guard for direct callers.
        self.enabled = capacity_pages > 0
        self._entries: "OrderedDict[int, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, lpn: int) -> Optional[tuple]:
        """Return (data,) on a hit, None on a miss.  The tuple wrapper
        distinguishes a cached None payload from a miss."""
        if not self.enabled:
            return None
        entries = self._entries
        data = entries.get(lpn, _MISS)
        if data is not _MISS:
            entries.move_to_end(lpn)
            self.hits += 1
            return (data,)
        self.misses += 1
        return None

    def insert(self, lpn: int, data: Any) -> None:
        """Install or refresh an entry, evicting LRU on overflow."""
        if not self.enabled:
            return
        self._entries[lpn] = data
        self._entries.move_to_end(lpn)
        while len(self._entries) > self.capacity_pages:
            self._entries.popitem(last=False)

    def invalidate(self, lpn: int, count: int = 1) -> None:
        """Drop entries for a logical range (on write/trim/share)."""
        if not self.enabled:
            return
        if count == 1:
            self._entries.pop(lpn, None)
            return
        for current in range(lpn, lpn + count):
            self._entries.pop(current, None)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
