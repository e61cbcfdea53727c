"""Unit tests for the media kind of the sweep engine.

The exhaustive sweeps run in CI via ``repro.tools.crashexplore --faults
media``; this file checks the mechanics — deterministic operation
counting, per-injection verdicts, budget-capped sampling, the bad-block
accounting invariant, and the CLI entry point.
"""

import json

from repro.crashcheck.invariants import media_accounting
from repro.crashcheck.sweep import (KINDS, MODE_ERASE_FAIL, MODE_POWER_READ,
                                    MODE_PROGRAM_FAIL, MODE_READ_RETRY,
                                    MODE_UNCORRECTABLE, Report, Site,
                                    SiteResult, Sweep, explore_site)
from repro.crashcheck.workloads import WORKLOADS
from repro.sim.faults import FaultPlan, ProgramFault
from repro.tools.crashexplore import main as crashexplore_main

MEDIA = KINDS["media"]
FACTORY = WORKLOADS["ftl-basic"]

_CACHE = {}


def sweep():
    if "sweep" not in _CACHE:
        _CACHE["sweep"] = Sweep(MEDIA, "ftl-basic")
    return _CACHE["sweep"]


def op_counts():
    return sweep().enumerated


class ListSink:
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(dict(record))


def test_op_enumeration_is_deterministic_and_covers_all_kinds():
    counts = op_counts()
    assert counts == Sweep(MEDIA, "ftl-basic").enumerated
    # The harness must expose every operation kind as sweep targets.
    assert counts["read"] > 0
    assert counts["program"] > 0
    assert counts["erase"] > 0


def test_ftl_basic_defaults_to_every_mode():
    assert sweep().modes == MEDIA.modes
    assert MODE_UNCORRECTABLE not in Sweep(MEDIA, "sqlite-share").modes


def test_occurrence_list_spans_modes_and_ops():
    counts = op_counts()
    per_mode = {}
    for site in sweep().sites:
        per_mode.setdefault(site.mode, []).append(site)
    assert len(per_mode[MODE_READ_RETRY]) == counts["read"]
    assert len(per_mode[MODE_PROGRAM_FAIL]) == counts["program"]
    assert len(per_mode[MODE_ERASE_FAIL]) == counts["erase"]
    assert len(per_mode[MODE_UNCORRECTABLE]) == counts["read"]
    # nth runs 1..N per mode, in order.
    assert [s.nth for s in per_mode[MODE_ERASE_FAIL]] == \
        list(range(1, counts["erase"] + 1))


def test_power_read_pairs_are_deterministic_and_in_range():
    counts = op_counts()
    first = Sweep(MEDIA, "ftl-basic", modes=(MODE_POWER_READ,)).sites
    second = Sweep(MEDIA, "ftl-basic", modes=(MODE_POWER_READ,)).sites
    assert first == second
    assert first, "combined mode must produce injection pairs"
    for site in first:
        assert site.point is not None
        assert site.point_nth >= 1
        assert 1 <= site.nth <= counts["read"]


def test_read_retry_injection_verdict():
    result = explore_site(MEDIA, FACTORY, Site(MODE_READ_RETRY, 1))
    assert isinstance(result, SiteResult)
    assert result.fired
    assert not result.crashed
    assert result.aborted is None   # read-retry heals transient faults
    assert result.ok, result.violations


def test_program_fail_injection_verdict():
    result = explore_site(MEDIA, FACTORY, Site(MODE_PROGRAM_FAIL, 1))
    assert result.fired
    assert result.ok, result.violations


def test_uncorrectable_injection_typed_or_correct():
    result = explore_site(MEDIA, FACTORY, Site(MODE_UNCORRECTABLE, 1))
    assert result.fired
    assert result.ok, result.violations


def test_explore_media_caps_by_even_sampling():
    sink = ListSink()
    report = Sweep(MEDIA, "ftl-basic", modes=(MODE_PROGRAM_FAIL,)).explore(
        max_points=4, sink=sink)
    assert isinstance(report, Report)
    assert len(report.results) == 4
    # The cap samples across the occurrence space, not just its head.
    assert max(res.site.nth for res in report.results) > 4
    assert report.ok
    site_records = [r for r in sink.records if r["type"] == "sweep"]
    assert len(site_records) == 4
    for record in site_records:
        assert record["kind"] == "media"
        assert record["workload"] == "ftl-basic"
        assert record["mode"] == MODE_PROGRAM_FAIL
        assert record["ok"] is True
        json.dumps(record)   # must be serialisable as-is
    summaries = [r for r in sink.records if r["type"] == "sweep-summary"]
    assert len(summaries) == 1
    assert summaries[0]["explored"] == 4
    assert summaries[0]["ok"] is True
    assert summaries[0]["enumerated"]["program"] == op_counts()["program"]


def test_media_accounting_flags_bad_bookkeeping():
    faults = FaultPlan()
    harness = FACTORY(faults)
    ssd = harness.ssd
    for lpn in range(8):
        ssd.write(lpn, ("v", lpn))
    # Fail the next data program so a block is retired.
    faults.arm_media(ProgramFault(nth=faults.media.op_counts["program"] + 1))
    ssd.write(4, "rewritten")
    ftl = ssd.ftl
    bad = sorted(ftl.grown_bad_blocks)
    assert bad, "the injected program failure must retire a block"
    assert media_accounting("ftl", ssd) == []
    # Tamper: resurrect the retired block into the free pool.
    ftl._free_blocks.append(bad[0])
    violations = media_accounting("ftl", ssd)
    assert any("free pool" in v for v in violations)


def test_report_failures_and_summary_shape():
    good = SiteResult(Site(MODE_READ_RETRY, 1), True, False, None, {}, ())
    bad = SiteResult(Site(MODE_PROGRAM_FAIL, 2), True, False,
                     "OutOfSpaceError", {}, ("lost data",))
    report = Report("media", "w", (MODE_READ_RETRY, MODE_PROGRAM_FAIL),
                    {"read": 1, "program": 2, "erase": 0}, (), (good, bad))
    assert not report.ok
    assert report.failures == [bad]
    summary = report.summary()
    assert summary["violations"] == 1
    assert summary["aborted"] == 1
    assert summary["ok"] is False


def test_cli_media_smoke(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = crashexplore_main(
        ["--workload", "ftl-basic", "--faults", "media",
         "--modes", "program-fail,erase-fail",
         "--max-points", "5", "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(1 for r in records if r["type"] == "sweep") == 5
    assert records[-1]["type"] == "sweep-summary"
    assert records[-1]["kind"] == "media"
    assert records[-1]["ok"] is True
    captured = capsys.readouterr()
    assert "media sweep of ftl-basic" in captured.out
    assert "all invariants held" in captured.out


def test_cli_rejects_unknown_mode(tmp_path):
    code = crashexplore_main(
        ["--workload", "ftl-basic", "--faults", "media",
         "--modes", "bogus", "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_cli_uncorrectable_needs_ftl_basic(tmp_path):
    code = crashexplore_main(
        ["--workload", "couch-small", "--faults", "media",
         "--modes", MODE_UNCORRECTABLE,
         "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_all_modes_constant_is_closed():
    assert set(MEDIA.modes) == {MODE_READ_RETRY, MODE_PROGRAM_FAIL,
                                MODE_ERASE_FAIL, MODE_UNCORRECTABLE,
                                MODE_POWER_READ}
