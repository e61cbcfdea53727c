"""The fault sets' ``active`` flag is a plain attribute the hot paths read
once per chip operation, host command or cluster ack.  Every change to a
set's armed faults, decay model or counting must keep it equal to the
state it summarises — a stale True costs speed, a stale False silently
disarms injection."""

import pytest

from repro.errors import (
    CommandTimeoutError,
    CommandUnsupportedError,
    DeviceBusyError,
    ProgramFailError,
    UncorrectableReadError,
)
from repro.sim.faults import (
    CommandTimeout,
    DeviceBusy,
    FaultPlan,
    LatencySpike,
    ProgramFault,
    ReadDecay,
    ReadFault,
    ShardKill,
    ShareOutage,
)


def call(fn, *args, raises=None):
    if raises is None:
        fn(*args)
        return
    with pytest.raises(raises):
        fn(*args)


def media_arm(plan):
    plan.arm_media(ProgramFault(nth=5))


def media_arm_decay(plan):
    plan.arm_media(ReadDecay(erase_threshold=3))


def media_disarm(plan):
    plan.arm_media(ProgramFault(nth=5))
    plan.arm_media(ReadDecay(erase_threshold=3))
    plan.disarm_media()


def media_count(plan):
    plan.media.enable_counting()


def media_count_then_disarm(plan):
    plan.media.enable_counting()
    plan.arm_media(ProgramFault(nth=5))
    plan.disarm_media()


def media_program_one_shot(plan):
    plan.arm_media(ProgramFault(nth=1))
    call(plan.media.on_program, 7, raises=ProgramFailError)


def media_read_cleared_by_retry(plan):
    plan.arm_media(ReadFault(nth=1, retries_to_clear=1))
    call(plan.media.on_read, 7, 0, raises=UncorrectableReadError)
    assert plan.media.active
    plan.media.on_read(7, 0)   # the retry succeeds and clears the fault


def media_sticky_read_stays(plan):
    plan.arm_media(ReadFault(nth=1))
    call(plan.media.on_read, 7, 0, raises=UncorrectableReadError)


def command_arm(plan):
    plan.arm_command(CommandTimeout("write", nth=3))


def command_disarm(plan):
    plan.arm_command(CommandTimeout("write", nth=3))
    plan.arm_command(ShareOutage(nth=1))
    plan.disarm_commands()


def command_count(plan):
    plan.commands.enable_counting()


def command_count_then_disarm(plan):
    plan.commands.enable_counting()
    plan.arm_command(CommandTimeout("write", nth=3))
    plan.disarm_commands()


def command_spike_one_shot(plan):
    plan.arm_command(LatencySpike("read", nth=1, delay_us=50))
    assert plan.commands.on_command("read", (0,)) == 50


def command_timeout_one_shot(plan):
    plan.arm_command(CommandTimeout("read", nth=1))
    call(plan.commands.on_command, "read", (0,), raises=CommandTimeoutError)


def command_completion_timeout_one_shot(plan):
    plan.arm_command(CommandTimeout("share", nth=1, after_apply=True))
    plan.commands.on_command("share", (0,))
    call(plan.commands.on_command, "share", (0,), "complete",
         raises=CommandTimeoutError)


def command_busy_drained(plan):
    plan.arm_command(DeviceBusy("write", nth=1, clears_after=1))
    call(plan.commands.on_command, "write", (0,), raises=DeviceBusyError)
    assert plan.commands.active
    plan.commands.on_command("write", (0,))   # the burst has drained


def command_sticky_outage_stays(plan):
    plan.arm_command(ShareOutage(nth=1))
    call(plan.commands.on_command, "share", (0,),
         raises=CommandUnsupportedError)


def cluster_arm(plan):
    plan.arm_cluster(ShardKill(nth=2))


def cluster_disarm(plan):
    plan.arm_cluster(ShardKill(nth=2))
    plan.disarm_cluster()


def cluster_count(plan):
    plan.cluster.enable_counting()


def cluster_count_then_disarm(plan):
    plan.cluster.enable_counting()
    plan.arm_cluster(ShardKill(nth=2))
    plan.disarm_cluster()


def cluster_fired_kill_stays(plan):
    plan.arm_cluster(ShardKill(nth=1))
    assert plan.cluster.on_ack("s0") is not None


CASES = [
    ("media", media_arm, True),
    ("media", media_arm_decay, True),
    ("media", media_disarm, False),
    ("media", media_count, True),
    ("media", media_count_then_disarm, True),
    ("media", media_program_one_shot, False),
    ("media", media_read_cleared_by_retry, False),
    ("media", media_sticky_read_stays, True),
    ("commands", command_arm, True),
    ("commands", command_disarm, False),
    ("commands", command_count, True),
    ("commands", command_count_then_disarm, True),
    ("commands", command_spike_one_shot, False),
    ("commands", command_timeout_one_shot, False),
    ("commands", command_completion_timeout_one_shot, False),
    ("commands", command_busy_drained, False),
    ("commands", command_sticky_outage_stays, True),
    ("cluster", cluster_arm, True),
    ("cluster", cluster_disarm, False),
    ("cluster", cluster_count, True),
    ("cluster", cluster_count_then_disarm, True),
    ("cluster", cluster_fired_kill_stays, True),
]


def test_fresh_sets_are_inactive():
    plan = FaultPlan()
    assert (plan.media.active, plan.commands.active,
            plan.cluster.active) == (False, False, False)


@pytest.mark.parametrize("set_name, change, expected", CASES,
                         ids=[case[1].__name__ for case in CASES])
def test_active_tracks_every_change(set_name, change, expected):
    plan = FaultPlan()
    change(plan)
    fault_set = getattr(plan, set_name)
    assert fault_set.active is expected
    # The flag agrees with the state it summarises.
    summary = bool(fault_set.armed()) or fault_set._counting
    assert fault_set.active == summary
