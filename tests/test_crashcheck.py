"""Unit tests for the sweep engine itself.

The exhaustive sweeps live in ``test_property_crashcheck.py`` and CI;
this file checks the machinery — deterministic enumeration, per-site
verdicts, JSONL report shape, even sampling under a cap, one
enumeration run per sweep, and the CLI entry point.
"""

import json
from functools import partial

import pytest

from repro.crashcheck.cluster import ClusterChaosHarness, ClusterHarness
from repro.crashcheck.sweep import (KINDS, ClusterChaosKind, Report, Site,
                                    SiteResult, Sweep, explore_site)
from repro.crashcheck.workloads import (WORKLOADS, FtlBasicHarness,
                                        SqliteHarness)
from repro.tools.crashexplore import main as crashexplore_main

POWER = KINDS["power"]


class ListSink:
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(dict(record))


def test_enumeration_is_deterministic():
    first = Sweep(POWER, "ftl-basic").sites
    second = Sweep(POWER, "ftl-basic").sites
    assert first == second
    assert len(first) > 50


def test_enumeration_counts_per_point():
    sweep = Sweep(POWER, "ftl-basic")
    seen = {}
    for index, site in enumerate(sweep.sites, 1):
        seen[site.point] = seen.get(site.point, 0) + 1
        # point_nth is the running 1-based count of that point; nth is
        # the site's position in the whole checkpoint trace.
        assert site.point_nth == seen[site.point]
        assert site.nth == index
    assert sweep.enumerated["checkpoints"] == len(sweep.sites)


def test_explore_occurrence_verdict_shape():
    sites = Sweep(POWER, "ftl-basic").sites
    result = explore_site(POWER, WORKLOADS["ftl-basic"], sites[0])
    assert isinstance(result, SiteResult)
    assert result.site == sites[0]
    assert result.site.point_nth == 1
    assert result.crashed
    assert result.fired
    assert result.ok
    assert result.violations == ()
    assert isinstance(result.recovery_trace, tuple)


def test_explore_emits_jsonl_records():
    sink = ListSink()
    sweep = Sweep(POWER, "ftl-basic")
    report = sweep.explore(max_points=12, sink=sink)
    assert isinstance(report, Report)
    assert len(report.results) == 12
    assert report.ok
    # The cap samples the whole trace, not its head: some explored site
    # lies in the last tenth of the occurrence list.
    assert max(res.site.nth for res in report.results) \
        > 0.9 * len(sweep.sites)
    site_records = [r for r in sink.records if r["type"] == "sweep"]
    assert len(site_records) == 12
    for record in site_records:
        assert record["kind"] == "power"
        assert record["workload"] == "ftl-basic"
        assert record["ok"] is True
        assert record["violations"] == []
        assert isinstance(record["nth"], int)
        json.dumps(record)  # must be serialisable as-is
    summaries = [r for r in sink.records if r["type"] == "sweep-summary"]
    assert len(summaries) == 1
    assert summaries[0]["kind"] == "power"
    assert summaries[0]["explored"] == 12
    assert summaries[0]["sites"] == len(sweep.sites)
    assert summaries[0]["ok"] is True


def test_report_distinct_points_and_failures():
    sites = (Site("power", 1, point="a", point_nth=1),
             Site("power", 2, point="b", point_nth=1),
             Site("power", 3, point="a", point_nth=2))
    report = Report(
        "power", "w", ("power",), {}, sites,
        (SiteResult(sites[0], True, True, None, {}, ()),
         SiteResult(sites[1], True, True, None, {}, ("broken",))))
    assert report.points == ["a", "b"]
    assert not report.ok
    assert [res.site.point for res in report.failures] == ["b"]
    assert report.summary()["violations"] == 1
    assert report.summary()["distinct_points"] == 2


def test_summary_sums_counters_and_sweep_violations():
    site = Site("shard-storm", 1)
    results = (SiteResult(site, True, False, None,
                          {"failovers": 2, "proactive_promotions": 0}, ()),
               SiteResult(site, True, False, "OutOfSpaceError",
                          {"failovers": 1, "proactive_promotions": 0}, ()))
    report = Report("shard-storm", "w", ("shard-storm",), {}, (site,),
                    results, ("no promotion",))
    summary = report.summary()
    assert summary["counters"] == {"failovers": 3, "proactive_promotions": 0}
    assert summary["aborted"] == 1
    assert summary["violations"] == 1
    assert summary["sweep_violations"] == ["no promotion"]
    assert summary["ok"] is False
    # The storm kind's sweep rule: a sweep without a single proactive
    # promotion is a violation of the sweep as a whole.
    assert KINDS["shard-storm"].sweep_verdict(report.counters)
    assert not KINDS["shard-storm"].sweep_verdict({"proactive_promotions": 1})


@pytest.mark.parametrize("kind, factory, modes, needed", [
    ("power", None, None, 1),
    ("media", None, None, 1),            # power+read shares the probe
    ("chaos", None, None, 2),            # + the degraded (outage) run
    ("chaos", None, ("share-busy",), 1),
    ("shard-kill", None, None, 1),
    ("shard-storm", None, None, 1),
    ("cluster-chaos", partial(ClusterChaosHarness, steps=60), None, 0),
], ids=["power", "media", "chaos", "chaos-busy-only", "shard-kill",
        "shard-storm", "cluster-chaos"])
def test_each_enumeration_runs_once(monkeypatch, kind, factory, modes,
                                    needed):
    runs = []
    for cls in (FtlBasicHarness, SqliteHarness, ClusterHarness,
                ClusterChaosHarness):
        def counted(self, _run=cls.run):
            runs.append(type(self).__name__)
            _run(self)
        monkeypatch.setattr(cls, "run", counted)
    workload = "sqlite-share" if kind == "chaos" else "ftl-basic"
    sweep = Sweep(KINDS[kind], workload=KINDS[kind].workload or workload,
                  factory=factory, modes=modes)
    assert len(runs) == needed
    report = sweep.explore(max_points=2)
    assert len(report.results) == 2
    assert len(runs) == needed + 2


def test_cli_list(capsys):
    assert crashexplore_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "ftl-basic" in out
    assert "--faults media: read-retry" in out


def test_cli_smoke(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = crashexplore_main(["--workload", "ftl-basic",
                              "--max-points", "8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert sum(1 for r in records if r["type"] == "sweep") == 8
    assert records[-1]["type"] == "sweep-summary"
    assert records[-1]["kind"] == "power"
    assert records[-1]["ok"] is True
    captured = capsys.readouterr()
    assert "power sweep of ftl-basic" in captured.out
    assert "checkpoints" in captured.out
    assert "all invariants held" in captured.out


def test_cli_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit) as exc:
        crashexplore_main(["--faults", "chaos,media",
                           "--out", str(tmp_path / "r.jsonl")])
    assert exc.value.code == 2


def test_cli_rejects_modes_of_another_kind(tmp_path):
    # One kind per run: a mode of another kind is an unknown mode.
    code = crashexplore_main(
        ["--faults", "media", "--workload", "sqlite-share",
         "--modes", "share-outage", "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_cluster_chaos_kind_takes_its_seed_count():
    assert ClusterChaosKind(seeds=5).enumerate(None, ("seed",)) == (
        {}, [Site("seed", seed) for seed in range(1, 6)])
