"""The benchmark's workloads: stack build, load, measured phase, checks.

Stacks come from :mod:`repro.bench.harness` and are driven through
:mod:`repro.workloads`.  One :class:`WorkloadRun` is one *round*: its
constructor is the set-up (stack build, device aging, load, warm-up),
:meth:`WorkloadRun.measure` the measured phase, :meth:`WorkloadRun.check`
the output checks, which run after the timed phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.errors import ReproError

PAGE_SIZE = 4096
#: The paper's buffer pool (Fig. 5) against its 1.5 GiB database.
PAPER_BUFFER_MIB = 100


@dataclass(frozen=True)
class LinkBenchSpec:
    """InnoDB + LinkBench, SHARE flush mode, aged data device.

    ``pool_ratio`` ``None`` sizes the buffer pool at the paper's
    100 MiB : 1.5 GiB ratio; a number sizes it as that multiple of the
    estimated database pages.
    """

    name: str
    nodes: int = 12_000
    pool_ratio: Optional[float] = None
    warmup_ops: int = 2_000
    measured_ops: int = 40_000
    clients: int = 16
    queue_depth: int = 4
    channels: int = 2


@dataclass(frozen=True)
class YcsbSpec:
    """Couchstore + YCSB-F, SHARE commits and SHARE compaction, one
    closed-loop client at queue depth 1."""

    name: str
    records: int = 4_000
    measured_ops: int = 30_000
    batch: int = 16


Spec = Union[LinkBenchSpec, YcsbSpec]

WORKLOADS: Dict[str, Spec] = {
    spec.name: spec for spec in (
        LinkBenchSpec("linkbench"),
        LinkBenchSpec("linkbench-cached", pool_ratio=1.5),
        YcsbSpec("ycsb-f-compact"),
    )
}


def start(spec: Spec, seed: int, tracer=None) -> "WorkloadRun":
    """Set up one round of ``spec`` (the timed set-up phase)."""
    if isinstance(spec, LinkBenchSpec):
        return LinkBenchRun(spec, seed, tracer)
    return YcsbRun(spec, seed, tracer)


def _ftl_violations(label: str, ssd) -> List[str]:
    try:
        ssd.ftl.check_invariants()
    except AssertionError as exc:
        return [f"{label}: FTL invariant broken: {exc}"]
    return []


def compare_rows(label: str, expected: list, actual: list) -> List[str]:
    """Row-for-row comparison of two ``(key, row)`` lists."""
    if expected == actual:
        return []
    want, got = dict(expected), dict(actual)
    missing = sum(1 for key in want if key not in got)
    extra = sum(1 for key in got if key not in want)
    changed = sum(1 for key, row in want.items()
                  if key in got and got[key] != row)
    return [f"{label}: recovered {len(actual)} rows, committed "
            f"{len(expected)} ({missing} missing, {extra} extra, "
            f"{changed} changed)"]


def reopen_tables(mode, data_ssd, log_ssd, config) -> Dict[str, object]:
    """Restart InnoDB after a clean shutdown and a power cut: a fresh
    engine over the surviving devices, each table opened read-only at
    the root page that the checkpoint's catalog page records.

    ``repro.innodb.recovery.recover`` is not used here: it rebuilds the
    tables from the redo log alone, and the log is a circular region
    that these runs wrap many times, so it would replay only the newest
    records.
    """
    from repro.errors import EngineError
    from repro.innodb.btree import BTree
    from repro.innodb.engine import CATALOG_PAGE_ID, InnoDBEngine
    from repro.innodb.page import Page

    def read_only(*__):
        raise EngineError("tables reopened for the check are read-only")

    engine = InnoDBEngine(mode, data_ssd, log_ssd, config)
    catalog = engine.tablespace.pread_block(CATALOG_PAGE_ID)
    if (not isinstance(catalog, Page) or catalog.is_torn()
            or catalog.payload[0] != "catalog"):
        raise EngineError(f"no checkpoint catalog page: {catalog!r}")
    __, roots, next_page_id = catalog.payload
    engine.tablespace.fallocate(next_page_id)
    return {name: BTree(name, fetch=engine.pool.fetch, write=read_only,
                        allocate=read_only, next_lsn=read_only,
                        leaf_capacity=config.leaf_capacity,
                        internal_fanout=config.internal_fanout,
                        root_page_id=root)
            for name, root in roots}


class WorkloadRun:
    """One round: set-up in the constructor, then measure, then check."""

    spec: Spec

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.model: Dict[str, float] = {}

    def _guard(self, op, on_failure=None):
        """Wrap one operation so an op that raises a simulator error is
        counted as failed instead of aborting the measured phase."""
        def guarded(*args):
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op_id = self.attempted - 1
            try:
                return op(*args)
            except ReproError:
                self.failed += 1
                return on_failure
        return guarded

    def measure(self) -> None:
        raise NotImplementedError

    def stack_counters(self) -> Dict[str, float]:
        """Measured-phase counters read from the stack itself."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Output checks; returns one message per violation."""
        raise NotImplementedError

    def _device_counters(self, devices) -> Dict[str, float]:
        # Device statistics were zeroed when the measured phase began.
        stats = [device.stats for device in devices]
        schedulers = []
        for device in devices:
            if all(device.events is not seen for seen in schedulers):
                schedulers.append(device.events)
        return {
            "gc_events": sum(s.gc_events for s in stats),
            "copyback_pages": sum(s.copyback_pages for s in stats),
            "share_pairs": sum(s.share_pairs for s in stats),
            "map_page_writes": sum(s.map_page_writes for s in stats),
            "nand_programs": sum(s.total_nand_programs for s in stats),
            "host_write_pages": sum(s.host_write_pages for s in stats),
            "events_fired": (sum(ev.fired for ev in schedulers)
                             - self._fired_before),
        }


class LinkBenchRun(WorkloadRun):

    def __init__(self, spec: LinkBenchSpec, seed: int, tracer=None) -> None:
        from repro.bench.experiments import _estimate_db_pages
        from repro.bench.harness import buffer_pages_for, build_innodb_stack
        from repro.innodb.engine import FlushMode
        from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDriver

        super().__init__(tracer)
        self.spec = spec
        leaf_capacity = max(8, 32 * (PAGE_SIZE // 4096))
        self.db_pages = _estimate_db_pages(spec.nodes, leaf_capacity)
        if spec.pool_ratio is None:
            pool = buffer_pages_for(PAPER_BUFFER_MIB, self.db_pages,
                                    PAGE_SIZE)
        else:
            pool = int(self.db_pages * spec.pool_ratio)
        self.pool_pages = pool
        self.stack = build_innodb_stack(
            FlushMode.SHARE, PAGE_SIZE, pool, self.db_pages,
            queue_depth=spec.queue_depth, channel_count=spec.channels)
        self.driver = LinkBenchDriver(
            self.stack.engine, self.stack.clock,
            LinkBenchConfig(node_count=spec.nodes, seed=seed))
        self.driver.load()
        # Warm-up, then measure from zero (the experiments' protocol).
        self.driver.run(spec.warmup_ops)
        self.stack.data_ssd.reset_measurement()
        self.stack.log_ssd.reset_measurement()
        self.stack.clock.reset()

    def measure(self) -> None:
        spec, driver, pool = self.spec, self.driver, self.stack.engine.pool
        # The driver dispatches through its handler table; guard each
        # handler so failures are counted per operation.
        driver._handlers = {name: self._guard(handler)
                            for name, handler in driver._handlers.items()}
        self._pool_before = (pool.hits, pool.misses, pool.evictions)
        self._fired_before = self.stack.data_ssd.events.fired
        if self.tracer is not None:
            self.tracer.recording = True
        try:
            result = driver.run(spec.measured_ops, concurrency=spec.clients)
        finally:
            if self.tracer is not None:
                self.tracer.recording = False
        latencies = result.latencies.merged()
        self.model = {
            "model.virtual_ops_per_s": result.throughput_tps,
            "model.virtual_p50_ms": latencies.pct(50),
            "model.virtual_p99_ms": latencies.pct(99),
            "model.waf": self.stack.data_ssd.stats.write_amplification,
        }

    def stack_counters(self) -> Dict[str, float]:
        pool = self.stack.engine.pool
        hits = pool.hits - self._pool_before[0]
        misses = pool.misses - self._pool_before[1]
        counters = self._device_counters(
            (self.stack.data_ssd, self.stack.log_ssd))
        counters.update(pool_hits=hits, pool_fetches=hits + misses,
                        pool_evictions=pool.evictions - self._pool_before[2])
        return counters

    def check(self) -> List[str]:
        """FTL invariants on both devices; then snapshot every table,
        shut down cleanly, cut power, reopen every table from the
        checkpoint, and compare row for row."""
        stack = self.stack
        devices = (("data", stack.data_ssd), ("log", stack.log_ssd))
        problems = [p for label, ssd in devices
                    for p in _ftl_violations(label, ssd)]
        engine = stack.engine
        committed = {name: list(tree.items())
                     for name, tree in engine.tables.items()}
        engine.shutdown()
        for __, ssd in devices:
            ssd.power_cycle()
        problems += [p for label, ssd in devices
                     for p in _ftl_violations(label + " after power cut",
                                              ssd)]
        try:
            tables = reopen_tables(engine.mode, stack.data_ssd,
                                   stack.log_ssd, engine.config)
            for name, rows in committed.items():
                tree = tables.get(name)
                problems += compare_rows(f"innodb table {name}", rows,
                                         list(tree.items()) if tree else [])
        except ReproError as exc:
            problems.append(f"innodb: reopen after power cut failed: "
                            f"{exc!r}")
        return problems

    def sizes(self) -> Dict[str, object]:
        spec = self.spec
        return {"nodes": spec.nodes, "db_pages_estimate": self.db_pages,
                "buffer_pool_pages": self.pool_pages,
                "warmup_ops": spec.warmup_ops,
                "measured_ops": spec.measured_ops,
                "clients": spec.clients, "queue_depth": spec.queue_depth,
                "channels": spec.channels, "flush_mode": "share"}


class YcsbRun(WorkloadRun):

    def __init__(self, spec: YcsbSpec, seed: int, tracer=None) -> None:
        from repro.bench.harness import build_couch_stack
        from repro.couchstore.engine import CommitMode
        from repro.workloads.ycsb import YcsbConfig, YcsbDriver

        super().__init__(tracer)
        self.spec = spec
        self.stack = build_couch_stack(CommitMode.SHARE, spec.records,
                                       spec.measured_ops)
        self.driver = YcsbDriver(
            self.stack.store, self.stack.clock,
            YcsbConfig(record_count=spec.records, seed=seed))
        self.driver.load()
        self.stack.ssd.reset_measurement()

    def measure(self) -> None:
        from repro.workloads.ycsb import YcsbWorkload

        driver = self.driver
        # One YCSB operation is one _one_op call; a failed op reports no
        # reads or writes.
        driver._one_op = self._guard(driver._one_op, on_failure=(0, 0))
        self._fired_before = self.stack.ssd.events.fired
        if self.tracer is not None:
            self.tracer.recording = True
        try:
            result = driver.run(YcsbWorkload.F, self.spec.measured_ops,
                                batch_size=self.spec.batch,
                                auto_compact=True)
        finally:
            if self.tracer is not None:
                self.tracer.recording = False
        self.compactions = len(result.compactions)
        self.model = {
            "model.virtual_ops_per_s": result.throughput_ops,
            "model.virtual_p50_ms": result.latency_ms.pct(50),
            "model.virtual_p99_ms": result.latency_ms.pct(99),
            "model.waf": self.stack.ssd.stats.write_amplification,
        }

    def stack_counters(self) -> Dict[str, float]:
        counters = self._device_counters((self.stack.ssd,))
        counters.update(pool_hits=0, pool_fetches=0, pool_evictions=0)
        return counters

    def check(self) -> List[str]:
        """FTL invariants; then snapshot the store, cut power, reopen
        from the newest header, and compare row for row."""
        from repro.couchstore.compaction import abandon_partial
        from repro.couchstore.engine import CouchStore

        ssd, store = self.stack.ssd, self.driver.store
        problems = _ftl_violations("data", ssd)
        if self.compactions == 0:
            problems.append("couch: the run never compacted")
        committed = list(store.items())
        ssd.power_cycle()
        try:
            reopened = CouchStore.reopen(self.stack.fs, store.path,
                                         store.mode, store.config)
            abandon_partial(reopened)
        except ReproError as exc:
            return problems + [f"couch: reopen failed: {exc!r}"]
        problems += _ftl_violations("data after power cut", ssd)
        problems += compare_rows("couch store", committed,
                                 list(reopened.items()))
        return problems

    def sizes(self) -> Dict[str, object]:
        spec = self.spec
        return {"records": spec.records, "measured_ops": spec.measured_ops,
                "commit_batch": spec.batch, "workload": "F",
                "auto_compact": True, "clients": 1, "queue_depth": 1,
                "commit_mode": "share"}
