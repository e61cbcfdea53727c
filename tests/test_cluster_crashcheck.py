"""Tests for the sharded-tier kinds of the sweep engine: enumeration
counts real ack boundaries, a capped shard-kill sweep fires a failover
at every explored boundary with zero ``no_lost_acked_write``
violations, and the harness's oracle actually catches a lost write when
one is manufactured.  Plus the shard-storm kind (NAND faults instead of
kills at ack boundaries, proactive promotions expected), the seeded
cluster-chaos kind (randomized kills + storms + busy faults + a
mid-rebalance kill, three invariants checked), and the CLI entry points
for both."""

import json
from functools import partial

from repro.crashcheck import ClusterChaosHarness, ClusterHarness
from repro.crashcheck.sweep import KINDS, Site, Sweep, explore_site
from repro.obs.sinks import MemorySink
from repro.sim.faults import FaultPlan
from repro.tools.crashexplore import main as crashexplore_main

SHARD_KILL = KINDS["shard-kill"]
CLUSTER_CHAOS = KINDS["cluster-chaos"]
SWEEP_POINTS = 8
CHAOS_TEST_STEPS = 80


def run_chaos_seed(seed):
    factory = partial(ClusterChaosHarness, steps=CHAOS_TEST_STEPS)
    return explore_site(CLUSTER_CHAOS, factory, Site("seed", seed))


def test_enumeration_counts_acked_writes():
    acked = Sweep(SHARD_KILL).enumerated["acked_writes"]
    assert acked > 50    # the 150-step mix is write-heavy
    # Deterministic workload: a second enumeration agrees.
    assert Sweep(SHARD_KILL).enumerated["acked_writes"] == acked


def test_capped_sweep_is_clean():
    sink = MemorySink()
    sweep = Sweep(SHARD_KILL)
    report = sweep.explore(max_points=SWEEP_POINTS, sink=sink)
    assert report.ok, report.failures
    assert len(report.results) == SWEEP_POINTS
    assert all(result.fired for result in report.results)
    assert all(result.counters["failovers"] >= 1
               for result in report.results)
    rows = [r for r in sink.records if r["type"] == "sweep"]
    assert len(rows) == SWEEP_POINTS
    assert {r["kind"] for r in rows} == {"shard-kill"}
    summary = sink.records[-1]
    assert summary["type"] == "sweep-summary"
    assert summary["kind"] == "shard-kill"
    assert summary["violations"] == 0
    assert summary["enumerated"]["acked_writes"] == \
        sweep.enumerated["acked_writes"]
    assert summary["sites"] == sweep.enumerated["acked_writes"]


def test_single_occurrence_detail():
    result = explore_site(SHARD_KILL, ClusterHarness, Site("shard-kill", 5))
    assert result.fired
    assert result.victim is not None
    assert result.ok, result.violations
    record = result.as_record("shard-kill", "cluster-small")
    assert record["type"] == "sweep"
    assert record["nth"] == 5
    assert record["ok"] is True


def test_oracle_catches_a_lost_write():
    """Sanity-check the checker itself: silently dropping an acked key
    from the tier must surface as a no_lost_acked_write violation."""
    harness = ClusterHarness(FaultPlan())
    harness.run()
    key = next(k for k, v in harness.durable.items() if v is not None)
    pair = harness.router.pair_for(key)
    del pair.directory[key]    # the tier "forgets" an acked write
    harness.recover()
    violations = harness.check_engine()
    assert any("no_lost_acked_write" in v and repr(key) in v
               for v in violations)


# ------------------------------------------------------- media sweep


def test_media_sweep_trips_proactive_promotions():
    sink = MemorySink()
    report = Sweep(KINDS["shard-storm"]).explore(max_points=6, sink=sink)
    assert report.ok, report.failures
    assert len(report.results) == 6
    assert all(result.fired for result in report.results)
    # The whole point of the dimension: storms promote *proactively*,
    # without a single kill, at least somewhere in the sweep.
    assert report.counters["proactive_promotions"] >= 1
    rows = [r for r in sink.records if r["type"] == "sweep"]
    assert len(rows) == 6
    summary = sink.records[-1]
    assert summary["type"] == "sweep-summary"
    assert summary["kind"] == "shard-storm"
    assert summary["violations"] == 0


def test_storm_sweep_without_promotion_fails():
    # One storm at the very last ack boundary: the run ends before the
    # health score can trip, so the sweep as a whole must fail.
    sweep = Sweep(KINDS["shard-storm"])
    sweep.sites = sweep.sites[-1:]
    report = sweep.explore()
    assert not report.failures
    assert report.counters["proactive_promotions"] == 0
    assert report.sweep_violations
    assert not report.ok
    assert report.summary()["ok"] is False


# ------------------------------------------------------ chaos scheduler


def test_chaos_seed_is_clean_and_deterministic():
    first = run_chaos_seed(1)
    assert first.violations == (), first.violations
    assert first.counters["acked_writes"] > 0
    assert first.counters["ryw_checks"] > 0
    second = run_chaos_seed(1)
    # Same seed, same universe: every counter agrees.
    assert second == first


def test_chaos_seeds_differ():
    a = run_chaos_seed(1)
    b = run_chaos_seed(2)
    assert a.violations == b.violations == ()
    keys = ("kills", "storms", "busy_faults", "acked_writes")
    assert [a.counters[k] for k in keys] != [b.counters[k] for k in keys]


def test_chaos_record_shape():
    result = run_chaos_seed(3)
    record = result.as_record("cluster-chaos", "cluster-chaos")
    assert record["type"] == "sweep"
    assert record["kind"] == "cluster-chaos"
    assert record["nth"] == 3
    assert record["ok"] is True


# ----------------------------------------------------------------- CLI


def test_cli_cluster_media_smoke(tmp_path, capsys):
    out = tmp_path / "media.jsonl"
    rc = crashexplore_main(["--faults", "shard-storm", "--max-points", "6",
                            "--out", str(out), "--quiet"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "proactive" in captured
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[-1]["type"] == "sweep-summary"
    assert rows[-1]["kind"] == "shard-storm"
    assert rows[-1]["ok"] is True


def test_cli_cluster_chaos_smoke(tmp_path, capsys):
    out = tmp_path / "chaos.jsonl"
    rc = crashexplore_main(["--faults", "cluster-chaos", "--seeds", "1",
                            "--out", str(out), "--quiet"])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    summary = rows[-1]
    assert summary["type"] == "sweep-summary"
    assert summary["kind"] == "cluster-chaos"
    assert summary["ok"] is True
    assert summary["explored"] == 1
    assert summary["violations"] == 0


def test_cli_rejects_combined_cluster_dimensions(tmp_path):
    rc = crashexplore_main(["--faults", "shard-storm", "--modes",
                            "shard-storm,seed",
                            "--out", str(tmp_path / "x.jsonl")])
    assert rc == 2
