"""Systematic crash-consistency exploration.

The paper's durability arguments (Sections 4.2.2 and 4.3) are stated per
mechanism: the SHARE batch commits through a single mapping-page program,
the doublewrite buffer repairs torn pages, the couchstore header is the
commit point.  This package checks the *composition* with one sweep
engine (:mod:`repro.crashcheck.sweep`): a fault-free probe run
enumerates every site a fault kind can hit, then the workload is re-run
once per site with that fault injected, recovered from the persisted
media, and checked against a set of pluggable invariants —
mapping-table agreement, recovery idempotence, bounded physical sharing,
bad-block accounting, and each engine's read-your-acknowledged-writes
contract.

The fault kinds are ``power`` (a power failure at every checkpoint),
``media`` (a NAND fault at every chip operation), ``chaos`` (a SHARE
command fault at every SHARE), ``shard-kill`` and ``shard-storm`` (a
shard kill or NAND storm at every ack boundary of the sharded tier) and
``cluster-chaos`` (one seeded randomized schedule per site).  Every kind
reports through the same ``sweep`` / ``sweep-summary`` records, and a
budget cap samples evenly across the whole site list of any kind.

Entry points:

* :class:`repro.crashcheck.sweep.Sweep` — enumerate once, then
  :meth:`~repro.crashcheck.sweep.Sweep.explore`.
* :func:`repro.crashcheck.sweep.explore_site` — one site.
* ``python -m repro.tools.crashexplore --faults KIND`` — the CLI.
"""

from repro.crashcheck.cluster import (ClusterChaosHarness, ClusterHarness,
                                      media_cluster_harness)
from repro.crashcheck.invariants import check_media, media_accounting
from repro.crashcheck.sweep import (KINDS, ChaosKind, ClusterChaosKind, Kind,
                                    MediaKind, PowerKind, Report,
                                    ShardKillKind, ShardStormKind, Site,
                                    SiteResult, Sweep, explore_site,
                                    sample_evenly)
from repro.crashcheck.workloads import WORKLOADS, DeviceState

__all__ = [
    "KINDS",
    "Kind",
    "PowerKind",
    "MediaKind",
    "ChaosKind",
    "ShardKillKind",
    "ShardStormKind",
    "ClusterChaosKind",
    "Site",
    "SiteResult",
    "Report",
    "Sweep",
    "explore_site",
    "sample_evenly",
    "check_media",
    "media_accounting",
    "WORKLOADS",
    "DeviceState",
    "ClusterHarness",
    "ClusterChaosHarness",
    "media_cluster_harness",
]
