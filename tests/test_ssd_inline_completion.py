"""Inline completion of synchronous device commands.

With no session attached and nothing else pending on the scheduler, a
command completes at its wait site instead of through a scheduled drain
event.  These tests pin that the two paths are indistinguishable: one
scripted command sequence runs on an idle scheduler (every command
completes inline) and again with a far-future sentinel event pending
(every command is queued and drained by ``run_until``), and the clock,
the device counters, the I/O trace, the fired-event count and the ack
journal must come out identical.
"""

import pytest

from repro.errors import CommandTimeoutError
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.ftl.share_ext import SharePair
from repro.sim.clock import SimClock
from repro.sim.faults import CommandTimeout, FaultPlan
from repro.ssd.device import Ssd, SsdConfig

#: Far beyond any completion the script reaches: the sentinel never fires.
SENTINEL_US = 10 ** 12


class AckJournal(FaultPlan):
    """A real :class:`FaultPlan` that also lists every delivered ack (or
    failed completion) in delivery order, with the clock at delivery."""

    def __init__(self, clock: SimClock) -> None:
        super().__init__()
        self.clock = clock
        self.deliveries = []

    def complete_operation(self, kind, record) -> None:
        super().complete_operation(kind, record)
        self.deliveries.append(("ack", kind, record.op_id,
                                self.clock.now_us))

    def fail_operation(self, kind, record) -> None:
        super().fail_operation(kind, record)
        self.deliveries.append(("fail", kind, record.op_id,
                                self.clock.now_us))


def run_script(with_sentinel: bool):
    clock = SimClock()
    plan = AckJournal(clock)
    plan.enable_trace()
    ssd = Ssd(clock, SsdConfig(
        geometry=FlashGeometry(page_size=4096, pages_per_block=8,
                               block_count=24, channel_count=2),
        timing=FAST_TIMING, ftl=FtlConfig(map_block_count=4),
        trace_capacity=10_000), faults=plan)
    if with_sentinel:
        ssd.events.at(SENTINEL_US, lambda: None, label="sentinel")
    # The second SHARE command loses its completion after the remap
    # applied (a completion-phase command fault).
    plan.arm_command(CommandTimeout("share", nth=2, after_apply=True))
    timeouts = 0
    for round_no in range(10):
        for lpn in range(40):
            ssd.write(lpn, ("w", round_no, lpn))
        ssd.write_multi(40, [("m", round_no, i) for i in range(4)])
        for lpn in range(0, 44, 3):
            assert ssd.read(lpn) is not None
        try:
            ssd.share_batch([SharePair(100 + i, i) for i in range(8)])
        except CommandTimeoutError:
            timeouts += 1
        ssd.trim(44 + round_no, 2)
        ssd.flush()
    return ssd, clock, plan, timeouts


def test_inline_and_scheduled_completion_are_identical():
    inline_ssd, inline_clock, inline_plan, inline_timeouts = run_script(False)
    queued_ssd, queued_clock, queued_plan, queued_timeouts = run_script(True)

    # The two runs really took different paths: the idle run never armed
    # the drain event, the sentinel run queued every command.
    assert inline_ssd._cmd_seq == 0
    assert queued_ssd._cmd_seq > 0
    assert queued_ssd.events.pending == 1   # only the sentinel remains
    assert not queued_ssd._inflight

    # The script exercised GC, mapping-page programs and both channels,
    # and the completion fault fired once in each run.
    assert inline_ssd.stats.gc_events > 0
    assert inline_ssd.stats.map_page_writes > 0
    assert all(inline_ssd.channels.busy_us)
    assert inline_timeouts == queued_timeouts == 1

    assert inline_clock.now_us == queued_clock.now_us
    assert inline_ssd.stats == queued_ssd.stats
    assert list(inline_ssd.trace) == list(queued_ssd.trace)
    assert len(inline_ssd.trace) > 0
    assert inline_ssd.events.fired == queued_ssd.events.fired
    assert inline_plan.deliveries == queued_plan.deliveries
    assert [entry[:2] for entry in inline_plan.deliveries
            if entry[0] == "fail"] == [("fail", "device.share")]
    assert inline_plan.trace == queued_plan.trace
    assert inline_plan.unacked_ops() == queued_plan.unacked_ops() == []


@pytest.mark.parametrize("with_sentinel", [False, True])
def test_completion_fault_surfaces_after_the_ack_is_registered(
        with_sentinel):
    # The completion-phase fault fails the operation whose deferred ack
    # was registered when its scope exited, on either path — the record
    # ends "failed", never stranded in the pending-ack list.
    clock = SimClock()
    plan = AckJournal(clock)
    ssd = Ssd(clock, SsdConfig(
        geometry=FlashGeometry(page_size=4096, pages_per_block=8,
                               block_count=32),
        timing=FAST_TIMING, ftl=FtlConfig(map_block_count=4)), faults=plan)
    if with_sentinel:
        ssd.events.at(SENTINEL_US, lambda: None)
    ssd.write(1, "x")
    plan.arm_command(CommandTimeout("share", nth=1, after_apply=True))
    with pytest.raises(CommandTimeoutError):
        ssd.share_batch([SharePair(2, 1)])
    assert [entry[:2] for entry in plan.deliveries] == [
        ("ack", "device.write"), ("fail", "device.share")]
    assert plan.unacked_ops() == []
    assert ssd.read(2) == "x"   # the remap applied before the lost ack


@pytest.mark.parametrize("channel_count", [1, 2])
def test_single_entry_pricing_matches_price_media(channel_count):
    # A lone host read/program is priced without _price_media; the split
    # it lands on the channels must be the one _price_media computes.
    clock = SimClock()
    ssd = Ssd(clock, SsdConfig(
        geometry=FlashGeometry(page_size=4096, pages_per_block=8,
                               block_count=32, channel_count=channel_count),
        ftl=FtlConfig(map_block_count=4), trace_capacity=100))
    for lpn in range(3):
        ssd.write(lpn, ("v", lpn))
    for lpn in range(3):
        ssd.read(lpn)
    work_kinds = ["host_program"] * 3 + ["host_read"] * 3
    busy = [0] * channel_count
    for event, work_kind in zip(ssd.trace, work_kinds):
        ppn = ssd.ftl.fwd.lookup(event.lpn)
        channel = (ppn // 8) % channel_count
        dram_us, pieces = ssd._price_media(event.latency_us,
                                           [(work_kind, channel)])
        assert pieces and set(pieces) == {channel}
        busy[channel] += pieces[channel]
        assert event.wait_us == 0
        assert event.timestamp_us - event.arrival_us == (
            dram_us + pieces[channel])
    assert ssd.channels.busy_us == busy
