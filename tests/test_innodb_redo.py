"""Unit tests for the redo log."""

import pytest

from repro.innodb.redo import RedoLog
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd

from conftest import small_ssd_config


@pytest.fixture
def log(clock):
    device = Ssd(clock, small_ssd_config())
    return RedoLog(device, records_per_page=4)


def test_append_assigns_lsns(log):
    assert log.append("a") == 1
    assert log.append("b") == 2
    assert log.next_lsn() == 3


def test_records_not_durable_until_commit(log):
    log.append("a")
    assert log.last_committed_lsn == 0
    log.commit()
    assert log.last_committed_lsn == 1


def test_commit_packs_pages(log):
    for i in range(10):
        log.append(("rec", i))
    writes_before = log.device.stats.host_write_pages
    log.commit()
    assert log.device.stats.host_write_pages - writes_before == 3  # 4+4+2


def test_replay_returns_all_committed(log):
    for i in range(10):
        log.append(("rec", i))
    log.commit()
    records = log.replay_records()
    assert [r for __, r in records] == [("rec", i) for i in range(10)]
    assert [lsn for lsn, __ in records] == list(range(1, 11))


def test_replay_across_commits(log):
    log.append("a")
    log.commit()
    log.append("b")
    log.commit()
    assert [r for __, r in log.replay_records()] == ["a", "b"]


def test_empty_commit_is_cheap(log):
    writes_before = log.device.stats.host_write_pages
    log.commit()
    assert log.device.stats.host_write_pages == writes_before


def test_region_wraps(clock):
    device = Ssd(clock, small_ssd_config())
    log = RedoLog(device, records_per_page=1, region_pages=4)
    for i in range(10):
        log.append(i)
        log.commit()
    # The cursor stayed inside the region.
    assert not device.ftl.is_mapped(5)


def test_bad_records_per_page():
    with pytest.raises(ValueError):
        RedoLog(None, records_per_page=0)
