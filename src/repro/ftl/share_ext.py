"""SHARE command semantics: pairs, ranged expansion, batch validation.

``share(LPN1, LPN2, length)`` (Section 3.2): LPN1 is the *destination* —
after the command it maps to the physical page currently backing LPN2, the
*source*.  ``length`` expands the command over consecutive LPNs and must
not make the two ranges overlap.  A batch of pairs commits atomically as
long as its delta records fit one mapping page (Section 4.2.2).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ShareError

#: Sentinel for validate_batch callers that do not enforce a batch limit.
MAX_BATCH_UNLIMITED = -1


class SharePair:
    """One remap: ``dst_lpn`` will point at the physical page of
    ``src_lpn``.

    A value object (equal and equally hashed when both fields are,
    never mutated after construction), hand-slotted because the host
    builds one per page of every SHARE command."""

    __slots__ = ("dst_lpn", "src_lpn")

    def __init__(self, dst_lpn: int, src_lpn: int) -> None:
        if dst_lpn < 0:
            raise ShareError(f"negative destination LPN: {dst_lpn}")
        if src_lpn < 0:
            raise ShareError(f"negative source LPN: {src_lpn}")
        if dst_lpn == src_lpn:
            raise ShareError(
                f"destination and source LPN are identical: {dst_lpn}")
        self.dst_lpn = dst_lpn
        self.src_lpn = src_lpn

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dst_lpn == other.dst_lpn   # type: ignore[attr-defined]
                and self.src_lpn == other.src_lpn)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.dst_lpn, self.src_lpn))

    def __repr__(self) -> str:
        return f"SharePair(dst_lpn={self.dst_lpn!r}, src_lpn={self.src_lpn!r})"


def expand_range(dst_lpn: int, src_lpn: int, length: int) -> List[SharePair]:
    """Expand ``share(dst, src, length)`` into per-page pairs.

    Enforces the paper's rule: "the range between LPN1 and LPN1+length
    cannot be overlapped with the range between LPN2 and LPN2+length".
    """
    if length < 1:
        raise ShareError(f"length must be >= 1: {length}")
    dst_end = dst_lpn + length
    src_end = src_lpn + length
    if dst_lpn < src_end and src_lpn < dst_end:
        raise ShareError(
            f"ranges overlap: dst [{dst_lpn}, {dst_end}) vs "
            f"src [{src_lpn}, {src_end})")
    return [SharePair(dst_lpn + i, src_lpn + i) for i in range(length)]


def validate_batch(pairs: Sequence[SharePair], logical_pages: int,
                   max_batch: int) -> None:
    """Reject malformed batches before any state changes.

    Rules:
    * non-empty, within the logical address space,
    * no duplicate destination (two remaps of one LPN in one atomic batch
      are ambiguous),
    * no destination that is also a source (the batch applies as a snapshot
      of the pre-command mapping, so chaining inside one batch is
      ill-defined and rejected, mirroring the ranged-overlap rule),
    * at most ``max_batch`` pairs so the delta fits one mapping page.
    """
    if not pairs:
        raise ShareError("empty SHARE batch")
    if max_batch != MAX_BATCH_UNLIMITED and len(pairs) > max_batch:
        raise ShareError(
            f"SHARE batch of {len(pairs)} pairs exceeds the atomic limit of "
            f"{max_batch} (one mapping page of deltas)")
    destinations = set()
    sources = set()
    for pair in pairs:
        for lpn in (pair.dst_lpn, pair.src_lpn):
            if lpn >= logical_pages:
                raise ShareError(
                    f"LPN {lpn} outside logical space [0, {logical_pages})")
        if pair.dst_lpn in destinations:
            raise ShareError(f"duplicate destination LPN in batch: {pair.dst_lpn}")
        destinations.add(pair.dst_lpn)
        sources.add(pair.src_lpn)
    chained = destinations & sources
    if chained:
        raise ShareError(
            f"LPNs appear as both destination and source in one batch: "
            f"{sorted(chained)[:8]}")


def observe_batch(metrics, pairs: Sequence[SharePair]) -> None:
    """Record the shape of one committed SHARE batch.

    Batch size drives how often the delta log spills past a single mapping
    page, and contiguity shows whether callers exploit the ranged form of
    the command — both feed the ``ftl.share.*`` namespace:

    * ``ftl.share.pairs`` — total pairs committed,
    * ``ftl.share.batch_pairs`` — per-batch size distribution,
    * ``ftl.share.contiguous_runs`` — per-batch count of maximal runs of
      consecutive ``(dst, src)`` pairs (1 == fully ranged batch).
    """
    metrics.counter("ftl.share.pairs").inc(len(pairs))
    metrics.histogram("ftl.share.batch_pairs").record(len(pairs))
    runs = 0
    prev: SharePair = None  # type: ignore[assignment]
    for pair in pairs:
        if (prev is None or pair.dst_lpn != prev.dst_lpn + 1
                or pair.src_lpn != prev.src_lpn + 1):
            runs += 1
        prev = pair
    metrics.histogram("ftl.share.contiguous_runs").record(runs)
