"""Which public functions the traced run wraps, and the per-layer metrics
built from the spans and the stack's own counters.

Each group below is one layer, named by its module.  The layer -> metric
-> workload map (which end-to-end number each layer should move, where)
is in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Dict, List

from perfbench.trace import Site, Tracer

#: Groups whose spans count as "inside the couch layer" for
#: ``couch.share_pairs``.
_COUCH_GROUPS = ("couch", "couch.commit", "couch.compaction")


def _dwb_pages(tracer: Tracer, args) -> None:
    tracer.add("innodb.dwb.pages", len(args[1]))


def _share_batch_pairs(tracer: Tracer, args) -> None:
    if any(tracer.inside(group) for group in _COUCH_GROUPS):
        tracer.add("couch.share_pairs", len(args[1]))


def sites() -> List[Site]:
    """The wrapped functions, grouped by layer."""
    from repro.couchstore import compaction
    from repro.couchstore.engine import CouchStore
    from repro.flash.nand import NandArray
    from repro.ftl.pagemap import PageMappingFtl
    from repro.host import ioctl
    from repro.host.file import File
    from repro.innodb.btree import BTree
    from repro.innodb.buffer_pool import BufferPool
    from repro.innodb.doublewrite import DoublewriteBuffer
    from repro.innodb.engine import Transaction
    from repro.innodb.redo import RedoLog
    from repro.sim.events import EventScheduler
    from repro.ssd.device import Ssd
    from repro.workloads.linkbench import LinkBenchDriver
    from repro.workloads.ycsb import YcsbDriver

    table: List[Site] = [
        (LinkBenchDriver, "run", "workloads", None, False),
        (YcsbDriver, "run", "workloads", None, False),
    ]
    table += [(Transaction, name, "innodb.txn", None, False)
              for name in ("get", "range", "put", "delete")]
    table += [(BTree, name, "innodb.btree", None, name == "range")
              for name in ("get", "range", "upsert", "pop")]
    table += [(BufferPool, name, "innodb.bufpool", None, False)
              for name in ("fetch", "put", "flush_some")]
    table += [(RedoLog, "commit", "innodb.redo", None, False),
              (DoublewriteBuffer, "flush_share", "innodb.dwb", _dwb_pages,
               False)]
    table += [(CouchStore, name, "couch", None, False)
              for name in ("get", "set")]
    table += [(CouchStore, "commit", "couch.commit", None, False),
              (compaction, "compact", "couch.compaction", None, False)]
    table += [(File, name, "host.file", None, False)
              for name in ("pread_block", "pwrite_block", "pwrite_blocks",
                           "append_block", "fsync", "fallocate")]
    table += [(ioctl, name, "host.ioctl", None, False)
              for name in ("share_ioctl", "share_file_ranges")]
    table += [(Ssd, name, "ssd.cmd",
               _share_batch_pairs if name == "share_batch" else None, False)
              for name in ("read", "write", "write_multi", "share",
                           "share_batch", "flush", "trim")]
    table += [(Ssd, name, "ssd.poll", None, False)
              for name in ("poll", "drain")]
    table += [(EventScheduler, "run_until", "sim.run_until", None, False)]
    table += [(PageMappingFtl, name, "ftl", None, False)
              for name in ("read", "write", "share_batch", "flush", "trim")]
    table += [(NandArray, name, "flash", None, False)
              for name in ("program", "read", "erase")]
    return table


#: Per-layer metric name -> unit, in report order.  ``BENCHMARK.json``
#: lists the same names.
PER_LAYER_UNITS: Dict[str, str] = {
    "workloads.self_s": "s",
    "op_fail_ratio": "ratio",
    "innodb.txn.calls": "count",
    "innodb.txn.self_s": "s",
    "innodb.btree.calls": "count",
    "innodb.btree.self_s": "s",
    "innodb.bufpool.fetches": "count",
    "innodb.bufpool.hit_ratio": "ratio",
    "innodb.bufpool.evictions": "count",
    "innodb.bufpool.self_s": "s",
    "innodb.redo.commits": "count",
    "innodb.redo.self_s": "s",
    "innodb.dwb.batches": "count",
    "innodb.dwb.pages": "count",
    "innodb.dwb.self_s": "s",
    "couch.calls": "count",
    "couch.self_s": "s",
    "couch.commit.calls": "count",
    "couch.commit.self_s": "s",
    "couch.compaction.count": "count",
    "couch.compaction.s": "s",
    "couch.compaction.self_s": "s",
    "couch.share_pairs": "count",
    "host.file.calls": "count",
    "host.file.self_s": "s",
    "host.ioctl.calls": "count",
    "host.ioctl.self_s": "s",
    "ssd.cmds": "count",
    "ssd.cmd.self_s": "s",
    "ssd.poll.self_s": "s",
    "sim.events.fired": "count",
    "sim.run_until.self_s": "s",
    "ftl.calls": "count",
    "ftl.self_s": "s",
    "ftl.gc_events": "count",
    "ftl.copyback_pages": "count",
    "ftl.share_pairs": "count",
    "ftl.map_page_writes": "count",
    "ftl.waf": "ratio",
    "flash.program": "count",
    "flash.read": "count",
    "flash.erase": "count",
    "flash.self_s": "s",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "model.virtual_ops_per_s": "1/s",
    "model.virtual_p50_ms": "ms",
    "model.virtual_p99_ms": "ms",
    "model.waf": "ratio",
}


def layer_metrics(tracer: Tracer, wall_s: float, stack: Dict[str, float]
                  ) -> Dict[str, float]:
    """Per-layer numbers of one traced measured phase.

    ``wall_s`` is the phase's wall time; ``stack`` holds the counters the
    workload read from the stack itself (pool hits, device statistics,
    events fired).  Self times plus ``unattributed_s`` sum to ``wall_s``
    by construction.
    """
    calls = tracer.calls
    self_s = tracer.self_s
    ratio = (stack["pool_hits"] / stack["pool_fetches"]
             if stack["pool_fetches"] else 0.0)
    counters = tracer.counters
    return {
        "workloads.self_s": self_s("workloads"),
        "innodb.txn.calls": calls("innodb.txn"),
        "innodb.txn.self_s": self_s("innodb.txn"),
        "innodb.btree.calls": calls("innodb.btree"),
        "innodb.btree.self_s": self_s("innodb.btree"),
        "innodb.bufpool.fetches": calls("innodb.bufpool", ("fetch",)),
        "innodb.bufpool.hit_ratio": ratio,
        "innodb.bufpool.evictions": stack["pool_evictions"],
        "innodb.bufpool.self_s": self_s("innodb.bufpool"),
        "innodb.redo.commits": calls("innodb.redo"),
        "innodb.redo.self_s": self_s("innodb.redo"),
        "innodb.dwb.batches": calls("innodb.dwb"),
        "innodb.dwb.pages": counters.get("innodb.dwb.pages", 0),
        "innodb.dwb.self_s": self_s("innodb.dwb"),
        "couch.calls": calls("couch"),
        "couch.self_s": self_s("couch"),
        "couch.commit.calls": calls("couch.commit"),
        "couch.commit.self_s": self_s("couch.commit"),
        "couch.compaction.count": calls("couch.compaction"),
        "couch.compaction.s": tracer.inclusive_s("couch.compaction"),
        "couch.compaction.self_s": self_s("couch.compaction"),
        "couch.share_pairs": counters.get("couch.share_pairs", 0),
        "host.file.calls": calls("host.file"),
        "host.file.self_s": self_s("host.file"),
        "host.ioctl.calls": calls("host.ioctl"),
        "host.ioctl.self_s": self_s("host.ioctl"),
        "ssd.cmds": calls("ssd.cmd"),
        "ssd.cmd.self_s": self_s("ssd.cmd"),
        "ssd.poll.self_s": self_s("ssd.poll"),
        "sim.events.fired": stack["events_fired"],
        "sim.run_until.self_s": self_s("sim.run_until"),
        "ftl.calls": calls("ftl"),
        "ftl.self_s": self_s("ftl"),
        "ftl.gc_events": stack["gc_events"],
        "ftl.copyback_pages": stack["copyback_pages"],
        "ftl.share_pairs": stack["share_pairs"],
        "ftl.map_page_writes": stack["map_page_writes"],
        "ftl.waf": (stack["nand_programs"] / stack["host_write_pages"]
                    if stack["host_write_pages"] else 0.0),
        "flash.program": calls("flash", ("program",)),
        "flash.read": calls("flash", ("read",)),
        "flash.erase": calls("flash", ("erase",)),
        "flash.self_s": self_s("flash"),
        "unattributed_s": wall_s - tracer.total_self_s(),
        "traced_wall_s": wall_s,
        "trace.spans": tracer.span_count,
    }
