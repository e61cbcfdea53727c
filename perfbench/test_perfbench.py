"""The benchmark's own tests, at reduced sizes.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import layers, workloads
from perfbench.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = {
    "linkbench": dataclasses.replace(
        workloads.WORKLOADS["linkbench"], nodes=1_500, warmup_ops=200,
        measured_ops=1_500),
    "linkbench-cached": dataclasses.replace(
        workloads.WORKLOADS["linkbench-cached"], nodes=1_500,
        warmup_ops=200, measured_ops=1_500),
    "ycsb-f-compact": dataclasses.replace(
        workloads.WORKLOADS["ycsb-f-compact"], records=600,
        measured_ops=4_000),
}


def measured(name: str, seed: int, tracer=None, spec=None
             ) -> workloads.WorkloadRun:
    run = workloads.start(spec or SMALL[name], seed, tracer)
    run.measure()
    return run


@pytest.mark.parametrize("name", sorted(SMALL))
def test_model_repeats_at_one_seed_and_moves_with_the_seed(name):
    # At the reduced size every YCSB-F op costs the same simulated time
    # whatever the keys, so the seed only shows at the real size.
    spec = (workloads.WORKLOADS[name] if name == "ycsb-f-compact"
            else SMALL[name])
    first = measured(name, 5, spec=spec).model
    assert measured(name, 5, spec=spec).model == first
    assert measured(name, 6, spec=spec).model != first


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_round_keeps_the_model_and_accounts_for_all_time(name):
    untraced = measured(name, 3).model
    tracer = Tracer(layers.sites())
    with tracer:
        start = time.perf_counter()
        run = measured(name, 3, tracer)
        wall = time.perf_counter() - start
        metrics = layers.layer_metrics(tracer, wall, run.stack_counters())
    assert run.model == untraced
    expected = set(layers.PER_LAYER_UNITS) - {
        "op_fail_ratio", "trace.overhead_pct", *run.model}
    assert set(metrics) == expected
    self_times = sum(value for key, value in metrics.items()
                     if key.endswith(".self_s"))
    assert self_times + metrics["unattributed_s"] == pytest.approx(wall)
    assert metrics["unattributed_s"] >= 0
    assert metrics["ssd.cmds"] > 0 and metrics["flash.program"] > 0
    if name.startswith("linkbench"):
        assert metrics["innodb.btree.calls"] > 0
        assert metrics["couch.calls"] == 0
    else:
        assert metrics["couch.compaction.count"] > 0
        assert metrics["couch.share_pairs"] > 0
        assert metrics["innodb.btree.calls"] == 0


def test_cached_linkbench_never_misses_the_pool():
    tracer = Tracer(layers.sites())
    with tracer:
        run = measured("linkbench-cached", 2, tracer)
        metrics = layers.layer_metrics(tracer, 1.0, run.stack_counters())
    assert metrics["innodb.bufpool.hit_ratio"] == 1.0
    assert metrics["innodb.dwb.batches"] == 0


class _Layered:
    """Synthetic two-layer call tree for the self-time arithmetic."""

    def outer(self):
        self.inner()
        time.sleep(0.02)

    def inner(self):
        time.sleep(0.03)

    def items(self):
        time.sleep(0.01)
        yield from range(3)


def test_self_time_is_duration_minus_children():
    tracer = Tracer([(_Layered, "outer", "a", None, False),
                     (_Layered, "inner", "b", None, False),
                     (_Layered, "items", "b", None, True)])
    original = _Layered.outer
    with tracer:
        tracer.recording = True
        _Layered().outer()
        assert list(_Layered().items()) == [0, 1, 2]
        tracer.recording = False
    assert _Layered.outer is original
    assert tracer.self_s("a") == pytest.approx(0.02, abs=0.01)
    assert tracer.self_s("b") == pytest.approx(0.04, abs=0.01)
    assert tracer.inclusive_s("a") == pytest.approx(0.05, abs=0.01)
    assert list(tracer.span_parent) == [-1, 0, -1]
    assert all(end > start for start, end in zip(tracer.span_start,
                                                 tracer.span_end))


def test_spans_are_written_with_a_header(tmp_path):
    tracer = Tracer([(_Layered, "inner", "b", None, False)])
    with tracer:
        tracer.recording = True
        _Layered().inner()
    path = tmp_path / "spans.bin"
    tracer.write_spans(str(path))
    header, __, body = path.read_bytes().partition(b"\n")
    assert json.loads(header)["spans"] == 1
    assert len(body) == 4 + 8 + 8 + 4 + 4


def test_checks_pass_on_a_clean_ycsb_run():
    assert measured("ycsb-f-compact", 4).check() == []


@pytest.mark.parametrize("name", ["linkbench", "linkbench-cached"])
def test_linkbench_checks_pass_after_the_redo_log_wraps(name):
    # The check reopens the tables from the checkpoint, so it holds
    # however often the circular redo log has been recycled.
    run = measured(name, 4)
    redo = run.stack.engine.redo
    assert redo.commits > redo.region_pages
    assert run.check() == []


def _damage_after_shutdown(monkeypatch, run, damage):
    """Make the check's clean shutdown end with ``damage(engine,
    root_page)`` applied durably to table ``node`` on the device."""
    engine = run.stack.engine
    clean_shutdown = engine.shutdown

    def shutdown_then_damage():
        clean_shutdown()
        root = engine.tables["node"].root_page_id
        damage(engine, engine.tablespace.pread_block(root))
        engine.tablespace.fsync()

    monkeypatch.setattr(engine, "shutdown", shutdown_then_damage)


def test_linkbench_check_catches_a_torn_page(monkeypatch):
    from repro.innodb.page import torn_copy

    run = measured("linkbench", 4)
    _damage_after_shutdown(monkeypatch, run, lambda engine, root:
                           engine.tablespace.pwrite_block(
                               root.page_id, torn_copy(root)))
    problems = run.check()
    assert len(problems) == 1
    assert "reopen after power cut failed" in problems[0]


def test_linkbench_check_catches_lost_rows(monkeypatch):
    from repro.innodb.page import Page

    def cut_the_leaf_chain(engine, page):
        # Replace the leftmost leaf by an empty last leaf.
        while page.payload[0] != "leaf":
            page = engine.tablespace.pread_block(page.payload[2][0])
        engine.tablespace.pwrite_block(
            page.page_id, Page(page.page_id, page.lsn + 1,
                               ("leaf", (), (), None)))

    run = measured("linkbench", 4)
    _damage_after_shutdown(monkeypatch, run, cut_the_leaf_chain)
    problems = run.check()
    assert len(problems) == 1
    assert problems[0].startswith("innodb table node: recovered 0 rows")


def test_compare_rows_reports_lost_and_changed_rows():
    committed = [(1, "a"), (2, "b"), (3, "c")]
    assert workloads.compare_rows("t", committed, committed) == []
    problems = workloads.compare_rows("t", committed, [(1, "a"), (2, "x")])
    assert problems == ["t: recovered 2 rows, committed 3 "
                        "(1 missing, 0 extra, 1 changed)"]


def test_raising_ops_are_counted_not_fatal(monkeypatch):
    from repro.couchstore.engine import CouchStore
    from repro.errors import EngineError

    run = workloads.start(SMALL["ycsb-f-compact"], 1)
    real_get, calls = CouchStore.get, [0]

    def flaky_get(self, key):
        calls[0] += 1
        if calls[0] % 100 == 0:
            raise EngineError("injected")
        return real_get(self, key)

    monkeypatch.setattr(CouchStore, "get", flaky_get)
    run.measure()
    assert run.attempted == SMALL["ycsb-f-compact"].measured_ops
    assert run.failed == run.attempted // 100


def test_cli_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linkbench",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
