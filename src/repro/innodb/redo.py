"""Redo log (WAL) on a dedicated log device.

Mirrors the experimental setup: the paper put the MySQL log on a separate
Samsung PM853T SSD, so redo traffic never competes with tablespace I/O on
the OpenSSD.  The log is identical across the three flush modes — it is
the *page* flush pipeline that SHARE changes — but it must exist so
transaction commits charge realistic log I/O and so recovery tests can
replay committed work.

Records are opaque tuples; the log packs them into device pages and
fsyncs at commit (group commit: one fsync may cover several transactions'
records when the engine batches)."""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.ssd.device import Ssd


class RedoLog:
    """Append-only log of (lsn, record) entries over a plain SSD."""

    def __init__(self, device: Ssd, records_per_page: int = 32,
                 region_pages: int = 0) -> None:
        if records_per_page < 1:
            raise ValueError(
                f"records_per_page must be >= 1: {records_per_page}")
        self.device = device
        self.records_per_page = records_per_page
        # The log file is a fixed-size region (ib_logfile*), recycled
        # circularly; it must not consume the whole device or the log
        # device's own GC has no headroom.
        self.region_pages = region_pages or max(1, device.logical_pages // 2)
        self._next_lsn = 1
        self._pending: List[Tuple[int, Any]] = []
        self._cursor_lpn = 0
        self._committed_through = 0
        self.commits = 0

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_committed_lsn(self) -> int:
        return self._committed_through

    def append(self, record: Any) -> int:
        """Buffer a record; returns its LSN.  Not durable until commit."""
        lsn = self._next_lsn
        self._next_lsn += 1
        self._pending.append((lsn, record))
        return lsn

    def commit(self) -> int:
        """Force the buffered records to the log device (group commit).

        Returns the highest durable LSN.
        """
        pending = self._pending
        if len(pending) <= self.records_per_page:
            # Common case (one group commit fits one log page): a single
            # write, no slice/del churn.
            if pending:
                self.device.write(self._cursor_lpn, tuple(pending))
                pending.clear()
                self._cursor_lpn = (self._cursor_lpn + 1) % self.region_pages
        else:
            while pending:
                chunk = pending[:self.records_per_page]
                del pending[:self.records_per_page]
                self.device.write(self._cursor_lpn, tuple(chunk))
                self._cursor_lpn = (self._cursor_lpn + 1) % self.region_pages
        self.device.flush()
        self._committed_through = self._next_lsn - 1
        self.commits += 1
        return self._committed_through

    def replay_records(self) -> List[Tuple[int, Any]]:
        """Read back every durable record in LSN order (recovery path).

        A linear scan of the log region from LPN 0 to the first unmapped
        page, sorted by LSN.  That is the whole durable log only while
        the circular region has not wrapped.  Once :meth:`commit` has
        recycled it, earlier pages have been overwritten: the scan
        returns just the records on the surviving pages (the newest
        region's worth), and everything the wrap overwrote is gone.
        Long runs wrap it many times — a LinkBench load and run of tens
        of thousands of commits does — so recovery that replays only
        this log loses committed work there.  Recovering a wrapped log
        needs a checkpointed tablespace plus the log tail, which this
        method does not provide.
        """
        records: List[Tuple[int, Any]] = []
        lpn = 0
        while lpn < self.region_pages and self.device.ftl.is_mapped(lpn):
            records.extend(self.device.read(lpn))
            lpn += 1
        records.sort(key=lambda item: item[0])
        return records
