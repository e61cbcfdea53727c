"""Unit tests for the chaos (command-fault) kind of the sweep engine.

The exhaustive sweeps run in CI via ``repro.tools.crashexplore --faults
chaos``; this file checks the mechanics — deterministic SHARE-command
counting, per-injection verdicts with guard-stats evidence, the
fallback-boundary power pairing, budget-capped sampling, and the CLI
entry point.
"""

import json

import pytest

from repro.crashcheck.sweep import (KINDS, MODE_CHAOS_POWER, MODE_SHARE_BUSY,
                                    MODE_SHARE_OUTAGE, MODE_SHARE_TIMEOUT,
                                    Report, Site, SiteResult, Sweep,
                                    explore_site)
from repro.crashcheck.workloads import WORKLOADS
from repro.tools.crashexplore import main as crashexplore_main

CHAOS = KINDS["chaos"]
FACTORY = WORKLOADS["sqlite-share"]
SINGLE_FAULT_MODES = (MODE_SHARE_TIMEOUT, MODE_SHARE_BUSY, MODE_SHARE_OUTAGE)

_CACHE = {}


def share_count():
    if "shares" not in _CACHE:
        _CACHE["shares"] = Sweep(CHAOS, "sqlite-share",
                                 modes=SINGLE_FAULT_MODES)
    return _CACHE["shares"].enumerated["share"]


def power_sites():
    return Sweep(CHAOS, "sqlite-share", modes=(MODE_CHAOS_POWER,)).sites


class ListSink:
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(dict(record))


def test_share_enumeration_is_deterministic_and_nonzero():
    count = share_count()
    assert count == Sweep(CHAOS, "sqlite-share",
                          modes=(MODE_SHARE_BUSY,)).enumerated["share"]
    assert count > 0


def test_occurrence_list_covers_every_share_command():
    count = share_count()
    per_mode = {}
    for site in _CACHE["shares"].sites:
        per_mode.setdefault(site.mode, []).append(site)
    for mode in SINGLE_FAULT_MODES:
        assert [s.nth for s in per_mode[mode]] == list(range(1, count + 1))
    # Both timeout phases and both outage flavours are exercised.
    assert {s.flavor for s in per_mode[MODE_SHARE_TIMEOUT]} == \
        {"submit", "complete"}
    assert {s.flavor for s in per_mode[MODE_SHARE_OUTAGE]} == \
        {"unsupported", "timeout"}


def test_chaos_power_pairs_include_every_fallback_boundary():
    sites = power_sites()
    assert sites == power_sites()
    assert sites, "the degraded run must reach checkpoints"
    boundary = [site for site in sites if "fallback" in site.point]
    assert boundary, ("a sticky outage must drive the workload through "
                      "fallback checkpoints")
    for site in sites:
        assert site.point is not None
        assert site.point_nth >= 1


def test_timeout_injection_healed_by_retry():
    result = explore_site(CHAOS, FACTORY,
                          Site(MODE_SHARE_TIMEOUT, 1, "submit"))
    assert isinstance(result, SiteResult)
    assert result.fired
    assert not result.crashed
    assert result.aborted is None
    assert result.counters["retries"] > 0
    assert result.ok, result.violations


def test_applied_but_lost_timeout_is_safe_to_retry():
    result = explore_site(CHAOS, FACTORY,
                          Site(MODE_SHARE_TIMEOUT, 2, "complete"))
    assert result.fired
    assert result.counters["retries"] > 0
    assert result.ok, result.violations


def test_busy_burst_healed_by_backoff():
    result = explore_site(CHAOS, FACTORY, Site(MODE_SHARE_BUSY, 1))
    assert result.fired
    assert result.counters["retries"] > 0
    assert result.ok, result.violations


def test_outage_served_by_fallback():
    result = explore_site(CHAOS, FACTORY,
                          Site(MODE_SHARE_OUTAGE, 1, "unsupported"))
    assert result.fired
    assert result.counters["fallbacks"] > 0
    assert result.ok, result.violations


def test_chaos_power_at_fallback_boundary():
    boundary = next(site for site in power_sites()
                    if "fallback" in site.point)
    result = explore_site(CHAOS, FACTORY, boundary)
    assert result.crashed
    assert result.ok, result.violations


def test_harness_without_guards_is_rejected():
    with pytest.raises(TypeError):
        explore_site(CHAOS, WORKLOADS["ftl-basic"],
                     Site(MODE_SHARE_OUTAGE, 1, "unsupported"))
    with pytest.raises(TypeError):
        Sweep(CHAOS, "ftl-basic")


def test_explore_chaos_caps_by_even_sampling():
    sink = ListSink()
    report = Sweep(CHAOS, "sqlite-share", modes=(MODE_SHARE_OUTAGE,)).explore(
        max_points=4, sink=sink)
    assert isinstance(report, Report)
    assert len(report.results) == 4
    # The cap samples across the occurrence space, not just its head.
    assert max(res.site.nth for res in report.results) > 4 \
        or share_count() <= 4
    assert report.ok
    site_records = [r for r in sink.records if r["type"] == "sweep"]
    assert len(site_records) == 4
    for record in site_records:
        assert record["kind"] == "chaos"
        assert record["workload"] == "sqlite-share"
        assert record["mode"] == MODE_SHARE_OUTAGE
        assert record["ok"] is True
        json.dumps(record)   # must be serialisable as-is
    summaries = [r for r in sink.records if r["type"] == "sweep-summary"]
    assert len(summaries) == 1
    assert summaries[0]["explored"] == 4
    assert summaries[0]["counters"]["fallbacks"] > 0
    assert summaries[0]["ok"] is True


def test_report_failures_and_summary_shape():
    good = SiteResult(Site(MODE_SHARE_TIMEOUT, 1, "submit"), True, False,
                      None, {"retries": 1, "fallbacks": 0}, ())
    bad = SiteResult(Site(MODE_SHARE_OUTAGE, 2, "timeout"), True, False,
                     "OutOfSpaceError", {"retries": 3, "fallbacks": 0},
                     ("lost data",))
    report = Report("chaos", "w", (MODE_SHARE_TIMEOUT, MODE_SHARE_OUTAGE),
                    {"share": 2}, (), (good, bad))
    assert not report.ok
    assert report.failures == [bad]
    summary = report.summary()
    assert summary["violations"] == 1
    assert summary["aborted"] == 1
    assert summary["counters"]["retries"] == 4
    assert summary["ok"] is False


def test_cli_chaos_smoke(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = crashexplore_main(
        ["--workload", "sqlite-share", "--faults", "chaos",
         "--modes", "share-outage",
         "--max-points", "3", "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(1 for r in records if r["type"] == "sweep") == 3
    assert records[-1]["type"] == "sweep-summary"
    assert records[-1]["kind"] == "chaos"
    assert records[-1]["ok"] is True
    captured = capsys.readouterr()
    assert "chaos sweep of sqlite-share" in captured.out
    assert "fallbacks" in captured.out
    assert "all invariants held" in captured.out


def test_cli_rejects_unknown_chaos_mode(tmp_path):
    code = crashexplore_main(
        ["--workload", "sqlite-share", "--faults", "chaos",
         "--modes", "bogus", "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_cli_rejects_guardless_workload(tmp_path):
    code = crashexplore_main(
        ["--workload", "ftl-basic", "--faults", "chaos",
         "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_cli_rejects_combined_dimensions(tmp_path):
    # One kind per run: two kinds are not a choice, and a media mode is
    # not a chaos mode.
    with pytest.raises(SystemExit) as exc:
        crashexplore_main(["--workload", "sqlite-share",
                           "--faults", "chaos", "--faults", "media,chaos",
                           "--out", str(tmp_path / "r.jsonl")])
    assert exc.value.code == 2
    code = crashexplore_main(
        ["--workload", "sqlite-share", "--faults", "chaos",
         "--modes", "share-outage,read-retry",
         "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_all_chaos_modes_constant_is_closed():
    assert set(CHAOS.modes) == {MODE_SHARE_TIMEOUT, MODE_SHARE_BUSY,
                                MODE_SHARE_OUTAGE, MODE_CHAOS_POWER}
