"""Recording the live forward map's mutations and replaying them offline.

The compact L2P models (:mod:`repro.bench.l2p_models`) see the FTL only
through the ordered ``update`` / ``remap`` / ``clear`` stream of its flat
map.  If any FTL path changed the table without one of those calls, a
replayed model would silently drift from the device — so the
completeness test drives every path that moves a mapping and demands
that each replay rebuilds the live map exactly.
"""

import random

import pytest

from repro.bench.l2p_models import (
    OP_CLEAR,
    OP_REMAP,
    OP_UPDATE,
    RecordingMap,
    fresh_models,
    replay,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl.config import FtlConfig
from repro.ftl.mapping import UNMAPPED, FlatListMap
from repro.ftl.pagemap import PageMappingFtl
from repro.ftl.share_ext import SharePair
from repro.sim.faults import FaultPlan, ProgramFault, ReadFault


def _small_ftl(faults: FaultPlan) -> PageMappingFtl:
    geometry = FlashGeometry(page_size=512, pages_per_block=8,
                             block_count=24, overprovision_ratio=0.25)
    return PageMappingFtl(NandArray(geometry, faults), FtlConfig(
        map_block_count=2, spare_block_count=1, share_table_entries=6,
        share_overflow_policy="copy"), faults=faults)


def _mapping_phases(ftl: PageMappingFtl, faults: FaultPlan):
    """Host writes with GC, TRIM + flush, SHARE batches (with share-table
    reconciliation copies), an atomic write, a committed transaction, a
    read-retry scrub and a program-failure block retirement; yields the
    name of each phase once it is done."""
    span = ftl.logical_pages // 2
    for lpn in range(span):
        ftl.write(lpn, ("base", lpn))
    yield "fill"
    rng = random.Random(7)
    for i in range(4 * span):                 # overwrite churn forces GC
        lpn = 14 + rng.randrange(span - 14)
        ftl.write(lpn, ("churn", i))
    yield "churn"
    ftl.trim(3, 4)
    ftl.flush()
    yield "trim"
    for start in range(0, 24, 4):             # more extras than the table
        ftl.share_batch([SharePair(span + start + i, 8 + start + i)
                         for i in range(4)])
    yield "share"
    ftl.write_atomic([(span + 40, "a0"), (span + 41, "a1"), (1, "a2")])
    yield "atomic"
    txn = ftl.begin_txn()
    ftl.write_txn(txn, 9, "t9")
    ftl.write_txn(txn, span + 50, "t50")
    ftl.commit_txn(txn)
    yield "txn"
    ppn = ftl.fwd.lookup(11)
    faults.arm_media(ReadFault(ppn=ppn, retries_to_clear=1))
    assert ftl.read(11) == ("base", 11)
    yield "scrub"
    faults.arm_media(ProgramFault(nth=faults.media.op_counts["program"] + 1))
    ftl.write(13, "after-program-fail")
    yield "program-fail"
    ftl.trim(span + 1, 2)
    ftl.flush()
    yield "trim-shared"


def test_replay_rebuilds_the_live_map_after_every_mapping_path():
    faults = FaultPlan()
    ftl = _small_ftl(faults)
    recorder = RecordingMap.attach(ftl)
    assert ftl.fwd is recorder
    models = {"plain": FlatListMap(ftl.logical_pages),
              **fresh_models(ftl.logical_pages, 8)}
    replayed = 0
    for phase in _mapping_phases(ftl, faults):
        # Replay only the new tail, so a mutation that bypassed the
        # recorder shows up in the phase that made it, before a later
        # update of the same LPN can paper over it.
        tail = recorder.stream[replayed:]
        replayed = len(recorder.stream)
        live = list(ftl.fwd.mapped_lpns())
        assert len(live) == ftl.fwd.mapped_count, phase
        for name, model in models.items():
            replay(tail, model)
            assert list(model.mapped_lpns()) == live, (phase, name)
            assert model.mapped_count == len(live), (phase, name)
    ftl.check_invariants()

    # The scenario really reached each mutation site.
    stats = ftl.stats
    assert stats.gc_events > 0
    assert stats.copyback_pages > 0
    assert stats.trim_pages > 0
    assert stats.share_pairs > 0
    assert stats.share_spills > 0
    assert stats.read_relocations == 1
    assert stats.program_fails == 1
    assert {op for op, __, __ in recorder.stream} == {
        OP_UPDATE, OP_REMAP, OP_CLEAR}


def test_recorder_shares_the_table_and_logs_in_call_order():
    live = FlatListMap(8)
    recorder = RecordingMap(live)
    assert recorder.table is live.table
    assert recorder.update(2, 20) is None
    assert recorder.remap(5, 20) is None
    assert recorder.clear(2) == 20
    assert recorder.clear(2) is None
    assert live.table[5] == 20 and live.table[2] == UNMAPPED
    assert recorder.mapped_count == 1
    assert recorder.stream == [(OP_UPDATE, 2, 20), (OP_REMAP, 5, 20),
                               (OP_CLEAR, 2, UNMAPPED),
                               (OP_CLEAR, 2, UNMAPPED)]


def test_recorder_skips_rejected_calls():
    recorder = RecordingMap(FlatListMap(8))
    with pytest.raises(ValueError):
        recorder.update(8, 1)
    with pytest.raises(ValueError):
        recorder.remap(0, -3)
    with pytest.raises(ValueError):
        recorder.clear(-1)
    assert recorder.stream == []


def test_recorder_refuses_a_populated_map():
    live = FlatListMap(8)
    live.update(0, 1)
    with pytest.raises(ValueError):
        RecordingMap(live)


def test_replay_rejects_unknown_ops():
    with pytest.raises(ValueError):
        replay([("swap", 0, 1)], FlatListMap(4))


def test_flat_model_accounting_is_constant():
    flat = fresh_models(16)["flat"]
    assert flat.footprint_bytes() == 16 * 4
    for lpn in range(8):
        flat.update(lpn, 100 + lpn)
    flat.remap(12, 100)
    assert flat.footprint_bytes() == 16 * 4
    assert flat.fragment_count() == 1
    assert flat.remap_splits == 0
