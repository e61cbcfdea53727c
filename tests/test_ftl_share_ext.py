"""Unit tests for SHARE command validation (pairs, ranges, batches)."""

import pytest

from repro.bench.l2p_models import RecordingMap, fresh_models, replay
from repro.errors import ShareError, UnmappedPageError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl.config import FtlConfig
from repro.ftl.pagemap import PageMappingFtl
from repro.ftl.share_ext import (
    MAX_BATCH_UNLIMITED,
    SharePair,
    expand_range,
    validate_batch,
)


def _make_ftl() -> PageMappingFtl:
    """Small pages keep ``max_share_batch`` (one mapping page of deltas)
    tiny, so the atomic-limit boundary is cheap to cross."""
    geo = FlashGeometry(page_size=512, pages_per_block=16, block_count=40,
                        overprovision_ratio=0.2)
    return PageMappingFtl(NandArray(geo),
                          FtlConfig(map_block_count=4,
                                    share_table_entries=64))


@pytest.fixture
def small_ftl():
    return _make_ftl()


class _RecordedFtl:
    """The small FTL with a recorder on its forward map, plus one empty
    offline model of an L2P layout that the recorded stream feeds."""

    def __init__(self, layout: str) -> None:
        self.layout = layout
        self.ftl = _make_ftl()
        self.recorder = RecordingMap.attach(self.ftl)
        self.model = fresh_models(self.ftl.logical_pages,
                                  group_pages=8)[layout]
        self._replayed = 0

    def replay(self):
        """Feed the model the mutations recorded since the last call; it
        must then hold exactly the live map.  Returns the model."""
        stream = self.recorder.stream
        replay(stream[self._replayed:], self.model)
        self._replayed = len(stream)
        assert (list(self.model.mapped_lpns())
                == list(self.ftl.fwd.mapped_lpns()))
        return self.model


@pytest.fixture(params=("flat", "group", "runlength", "delta"))
def recorded(request):
    return _RecordedFtl(request.param)


class TestSharePair:
    def test_valid_pair(self):
        pair = SharePair(10, 20)
        assert pair.dst_lpn == 10
        assert pair.src_lpn == 20

    def test_identical_lpns_rejected(self):
        with pytest.raises(ShareError):
            SharePair(5, 5)

    def test_negative_rejected(self):
        with pytest.raises(ShareError):
            SharePair(-1, 5)
        with pytest.raises(ShareError):
            SharePair(5, -1)


class TestExpandRange:
    def test_single(self):
        assert expand_range(0, 10, 1) == [SharePair(0, 10)]

    def test_multi(self):
        pairs = expand_range(100, 200, 3)
        assert pairs == [SharePair(100, 200), SharePair(101, 201),
                         SharePair(102, 202)]

    def test_overlap_rejected(self):
        with pytest.raises(ShareError):
            expand_range(10, 12, 4)  # [10,14) overlaps [12,16)
        with pytest.raises(ShareError):
            expand_range(12, 10, 4)

    def test_adjacent_ranges_allowed(self):
        pairs = expand_range(10, 14, 4)  # [10,14) and [14,18) touch only
        assert len(pairs) == 4

    def test_zero_length_rejected(self):
        with pytest.raises(ShareError):
            expand_range(0, 10, 0)


class TestValidateBatch:
    def test_ok(self):
        validate_batch([SharePair(0, 10), SharePair(1, 11)], 100, 16)

    def test_empty_rejected(self):
        with pytest.raises(ShareError):
            validate_batch([], 100, 16)

    def test_too_large_rejected(self):
        pairs = [SharePair(i, 50 + i) for i in range(5)]
        with pytest.raises(ShareError):
            validate_batch(pairs, 100, 4)

    def test_unlimited_sentinel(self):
        pairs = [SharePair(i, 500 + i) for i in range(300)]
        validate_batch(pairs, 1000, MAX_BATCH_UNLIMITED)

    def test_out_of_space_rejected(self):
        with pytest.raises(ShareError):
            validate_batch([SharePair(99, 100)], 100, 16)

    def test_duplicate_destination_rejected(self):
        with pytest.raises(ShareError):
            validate_batch([SharePair(0, 10), SharePair(0, 11)], 100, 16)

    def test_chained_lpn_rejected(self):
        # 5 is a destination in one pair and a source in another.
        with pytest.raises(ShareError):
            validate_batch([SharePair(5, 10), SharePair(6, 5)], 100, 16)

    def test_shared_source_allowed(self):
        validate_batch([SharePair(0, 10), SharePair(1, 10)], 100, 16)


class TestBatchBoundaryRegressions:
    """Off-by-one and cross-pair-overlap regressions at the atomic batch
    limit (audited: ``len(pairs) > max_batch`` is the correct strict
    inequality — exactly ``max_batch`` deltas still fit one mapping
    page).  These tests pin that behaviour."""

    def test_exactly_max_batch_allowed(self):
        pairs = [SharePair(i, 100 + i) for i in range(16)]
        validate_batch(pairs, 1000, 16)

    def test_one_past_max_batch_rejected(self):
        pairs = [SharePair(i, 100 + i) for i in range(17)]
        with pytest.raises(ShareError, match="exceeds the atomic limit"):
            validate_batch(pairs, 1000, 16)

    def test_max_batch_of_one(self):
        validate_batch([SharePair(0, 10)], 100, 1)
        with pytest.raises(ShareError):
            validate_batch([SharePair(0, 10), SharePair(1, 11)], 100, 1)

    def test_last_valid_lpn_allowed(self):
        # logical_pages - 1 is in space; logical_pages is the first out.
        validate_batch([SharePair(98, 99)], 100, 16)
        with pytest.raises(ShareError, match="outside logical space"):
            validate_batch([SharePair(98, 100)], 100, 16)

    def test_chain_detected_regardless_of_pair_order(self):
        # Overlap check must be order-independent: the chained LPN may
        # appear as a source before OR after the pair that writes it.
        with pytest.raises(ShareError):
            validate_batch([SharePair(6, 5), SharePair(5, 10)], 100, 16)
        with pytest.raises(ShareError):
            validate_batch([SharePair(5, 10), SharePair(6, 5)], 100, 16)

    def test_self_chain_via_distinct_pairs_rejected(self):
        # a->b and b->a in one batch: both LPNs are dst and src at once.
        with pytest.raises(ShareError):
            validate_batch([SharePair(3, 4), SharePair(4, 3)], 100, 16)

    def test_ftl_accepts_exactly_max_share_batch(self, small_ftl):
        limit = small_ftl.max_share_batch
        span = 2 * limit + 2
        assert small_ftl.logical_pages >= span
        for lpn in range(limit):
            small_ftl.write(lpn, ("src", lpn))
        pairs = [SharePair(limit + i, i) for i in range(limit)]
        small_ftl.share_batch(pairs)
        for lpn in range(limit):
            assert small_ftl.read(limit + lpn) == ("src", lpn)

    def test_ftl_rejects_max_share_batch_plus_one(self, small_ftl):
        limit = small_ftl.max_share_batch
        for lpn in range(limit + 1):
            small_ftl.write(lpn, ("src", lpn))
        pairs = [SharePair(limit + 1 + i, i) for i in range(limit + 1)]
        before = {lpn: small_ftl.read(lpn) for lpn in range(limit + 1)}
        with pytest.raises(ShareError):
            small_ftl.share_batch(pairs)
        # Rejection happens before any state change.
        for lpn, value in before.items():
            assert small_ftl.read(lpn) == value
        for i in range(limit + 1):
            assert not small_ftl.is_mapped(limit + 1 + i)


class TestSharePerStrategy:
    """Batch-boundary, overlap and rejected-batch regressions through the
    FTL, plus remaps into unmapped space and into the interior of a
    sequentially written run — each replayed into every offline L2P
    layout (flat, grouped, run-length, delta), whose rebuilt map must
    match the live one.  A rejected batch must record no mutation."""

    def test_share_resolves_and_reads_back(self, recorded):
        ftl = recorded.ftl
        for lpn in range(8):
            ftl.write(lpn, ("src", lpn))
        ftl.share_batch([SharePair(20 + i, i) for i in range(8)])
        for i in range(8):
            assert ftl.read(20 + i) == ("src", i)
            assert ftl.read(i) == ("src", i)
        assert recorded.replay().lookup(20) == ftl.fwd.lookup(0)
        ftl.check_invariants()

    def test_cross_pair_overlap_rejected_without_state_change(
            self, recorded):
        ftl = recorded.ftl
        for lpn in range(4):
            ftl.write(lpn, ("v", lpn))
        recorded.replay()
        mutations = len(recorded.recorder.stream)
        # Pair 2's destination is pair 1's source: chained batch.
        with pytest.raises(ShareError):
            ftl.share_batch([SharePair(10, 2), SharePair(2, 3)])
        for lpn in range(4):
            assert ftl.read(lpn) == ("v", lpn)
        assert not ftl.is_mapped(10)
        assert len(recorded.recorder.stream) == mutations
        assert not recorded.replay().is_mapped(10)
        ftl.check_invariants()

    def test_exactly_max_batch_commits_atomically(self, recorded):
        ftl = recorded.ftl
        limit = ftl.max_share_batch
        for lpn in range(limit):
            ftl.write(lpn, ("s", lpn))
        ftl.share_batch([SharePair(limit + i, i) for i in range(limit)])
        for i in range(limit):
            assert ftl.read(limit + i) == ("s", i)
        assert recorded.replay().mapped_count == 2 * limit
        ftl.check_invariants()

    def test_one_past_max_batch_rejected_without_state_change(
            self, recorded):
        ftl = recorded.ftl
        limit = ftl.max_share_batch
        for lpn in range(limit + 1):
            ftl.write(lpn, ("s", lpn))
        snapshot = list(ftl.fwd.mapped_lpns())
        mutations = len(recorded.recorder.stream)
        with pytest.raises(ShareError):
            ftl.share_batch(
                [SharePair(limit + 1 + i, i) for i in range(limit + 1)])
        assert list(ftl.fwd.mapped_lpns()) == snapshot
        assert len(recorded.recorder.stream) == mutations
        assert list(recorded.replay().mapped_lpns()) == snapshot
        ftl.check_invariants()

    def test_unmapped_source_rejected_without_state_change(
            self, recorded):
        ftl = recorded.ftl
        ftl.write(0, ("v", 0))
        snapshot = list(ftl.fwd.mapped_lpns())
        mutations = len(recorded.recorder.stream)
        # Second pair's source was never written; the whole batch fails.
        with pytest.raises(ShareError):
            ftl.share_batch([SharePair(10, 0), SharePair(11, 5)])
        assert list(ftl.fwd.mapped_lpns()) == snapshot
        assert len(recorded.recorder.stream) == mutations
        with pytest.raises(UnmappedPageError):
            ftl.read(10)
        assert list(recorded.replay().mapped_lpns()) == snapshot
        ftl.check_invariants()

    def test_remap_into_unmapped_destination_run(self, recorded):
        # Regression mirrored from the RunLengthMap model tests: a SHARE
        # whose destination sits in untouched address space must create
        # the mapping without disturbing its (unmapped) neighbours.
        ftl = recorded.ftl
        for lpn in range(4):
            ftl.write(lpn, ("v", lpn))
        ftl.share(30, 1, 1)
        assert ftl.read(30) == ("v", 1)
        assert not ftl.is_mapped(29)
        assert not ftl.is_mapped(31)
        model = recorded.replay()
        assert model.lookup(30) == ftl.fwd.lookup(1)
        assert not model.is_mapped(29)
        assert not model.is_mapped(31)
        ftl.check_invariants()

    def test_remap_interior_of_sequential_run(self, recorded):
        # A remap landing mid-run splits extents / diverges anchors in
        # the compact layouts but must stay read-correct on both sides
        # of the split.
        ftl = recorded.ftl
        for lpn in range(10, 18):
            ftl.write(lpn, ("seq", lpn))
        ftl.write(40, ("other", 40))
        ftl.share(14, 40, 1)
        assert ftl.read(14) == ("other", 40)
        assert ftl.read(13) == ("seq", 13)
        assert ftl.read(15) == ("seq", 15)
        model = recorded.replay()
        assert model.lookup(14) == ftl.fwd.lookup(40)
        ftl.check_invariants()

    def test_remap_splits_accounting_per_strategy(self, recorded):
        ftl = recorded.ftl
        for lpn in range(8):
            ftl.write(lpn, ("seq", lpn))
        before = recorded.replay().remap_splits
        ftl.share(3, 7, 1)                # interior remap of the run
        after = recorded.replay().remap_splits
        if recorded.layout == "flat":
            assert after == before == 0   # nothing to fragment
        else:
            assert after >= before        # compact layouts may pay

    def test_overwrite_after_share_keeps_source_intact(self, recorded):
        ftl = recorded.ftl
        ftl.write(0, ("v", 0))
        ftl.share(5, 0, 1)
        ftl.write(5, ("new", 5))          # break the share by rewriting
        assert ftl.read(5) == ("new", 5)
        assert ftl.read(0) == ("v", 0)
        model = recorded.replay()
        assert model.lookup(5) == ftl.fwd.lookup(5) != ftl.fwd.lookup(0)
        ftl.check_invariants()
