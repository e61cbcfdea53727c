"""Extension: L2P mapping lab (footprint vs fragmentation).

The FTL keeps one flat forward map; what SHARE would cost on a compact
layout depends only on the ordered stream of ``update`` / ``remap`` /
``clear`` calls that map receives.  This lab runs three device
workloads once each with that stream recorded —

* ``seq``    — one sequential fill of 60% of the address space,
* ``rand``   — the fill plus random overwrites of a hot span,
* ``share``  — the fill plus a SHARE-heavy phase remapping scattered
  sources into fresh destinations (the paper's checkpoint pattern),

replays it into the flat array's own accounting and into the
GFTL-style grouped, CCFTL-style run-length and page-differential delta
models (:mod:`repro.bench.l2p_models`), and records the modeled
device-DRAM footprint, fragment count, SHARE remap splits,
splits-per-pair and WAF to ``results/mapping_lab.jsonl`` (read back by
``python -m repro.tools.report --section mapping``).

Shape asserted: every model rebuilds exactly the live mapping (equal
mapped counts and snapshots); the compact models beat the flat array's
footprint on the sequential fill; run-length extents pay measurable
SHARE fragmentation (splits per pair) that the flat array never does;
and the flat footprint is workload-independent.
"""

import json
import random
from pathlib import Path

from conftest import run_once

from repro.bench.l2p_models import RecordingMap, fresh_models, replay
from repro.flash.geometry import FlashGeometry
from repro.ftl.config import FtlConfig
from repro.ssd.device import Ssd, SsdConfig
from repro.sim.clock import SimClock

WORKLOADS = ("seq", "rand", "share")
MODELS = ("delta", "flat", "group", "runlength")
FILL_FRACTION = 0.6
GROUP_PAGES = 64
SEED = 0x10AB


def _build() -> Ssd:
    geometry = FlashGeometry(page_size=4096, pages_per_block=64,
                             block_count=64, overprovision_ratio=0.12)
    return Ssd(SimClock(), SsdConfig(
        geometry=geometry, ftl=FtlConfig(map_block_count=5)))


def _drive(ssd: Ssd, workload: str):
    """Run one workload; returns (ops, share_pairs) executed."""
    rng = random.Random(SEED)
    span = int(ssd.logical_pages * FILL_FRACTION)
    ops = 0
    pairs = 0
    for lpn in range(span):
        ssd.write(lpn, ("base", lpn))
        ops += 1
    if workload == "rand":
        hot = max(64, span // 4)
        for i in range(span):
            ssd.write(rng.randrange(hot), ("hot", i))
            ops += 1
    elif workload == "share":
        free_span = ssd.logical_pages - span
        for i in range(span):
            dst = span + (i % free_span)
            src = rng.randrange(span)
            if dst == src:
                continue
            ssd.share(dst, src)
            ops += 1
            pairs += 1
    return ops, pairs


def _run_workload(workload: str):
    """One flat-map run, replayed into every model: one row per model,
    plus each model's final snapshot and the live map's."""
    ssd = _build()
    recorder = RecordingMap.attach(ssd.ftl)
    ops, pairs = _drive(ssd, workload)
    ssd.ftl.check_invariants()
    live = list(ssd.ftl.fwd.mapped_lpns())
    models = fresh_models(ssd.logical_pages, GROUP_PAGES)
    rows = []
    for name in MODELS:
        model = replay(recorder.stream, models[name])
        rows.append({
            "type": "mapping_lab",
            "strategy": name,
            "workload": workload,
            "ops": ops,
            "share_pairs": pairs,
            "mapped_lpns": model.mapped_count,
            "footprint_bytes": model.footprint_bytes(),
            "fragments": model.fragment_count(),
            "remap_splits": model.remap_splits,
            "splits_per_pair": (model.remap_splits / pairs) if pairs else 0.0,
            "waf": ssd.stats.write_amplification,
            "snapshot": list(model.mapped_lpns()),
            "live": live,
        })
    return rows


def test_mapping_model_lab(benchmark):
    def sweep():
        return [row for workload in WORKLOADS
                for row in _run_workload(workload)]

    rows = run_once(benchmark, sweep)

    out = Path(__file__).resolve().parent.parent / "results" \
        / "mapping_lab.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(
                {k: v for k, v in row.items()
                 if k not in ("snapshot", "live")}) + "\n")

    cells = {(row["workload"], row["strategy"]): row for row in rows}
    print()
    for workload in WORKLOADS:
        for name in MODELS:
            row = cells[(workload, name)]
            print(f"{workload:>5} / {name:>9}: "
                  f"{row['footprint_bytes']:>8} B, "
                  f"{row['fragments']:>5} frags, "
                  f"{row['remap_splits']:>5} remap splits "
                  f"({row['splits_per_pair']:.3f}/pair), "
                  f"WAF {row['waf']:.3f}")

    for workload in WORKLOADS:
        flat = cells[(workload, "flat")]
        for name in MODELS:
            row = cells[(workload, name)]
            # Every model rebuilds the live map exactly from its
            # mutation stream.
            assert row["snapshot"] == row["live"], (workload, name)
            assert row["mapped_lpns"] == flat["mapped_lpns"], (
                workload, name)

    # The flat array is workload-oblivious: fixed footprint, no splits.
    flat_footprints = {cells[(w, "flat")]["footprint_bytes"]
                       for w in WORKLOADS}
    assert len(flat_footprints) == 1
    assert all(cells[(w, "flat")]["remap_splits"] == 0 for w in WORKLOADS)

    # Compact models win the sequential fill on footprint.
    flat_seq = cells[("seq", "flat")]["footprint_bytes"]
    for name in ("group", "runlength", "delta"):
        assert cells[("seq", name)]["footprint_bytes"] < flat_seq, (
            name, cells[("seq", name)]["footprint_bytes"], flat_seq)

    # SHARE fragments the compact layouts: run-length pays splits per
    # pair, and random sources cost it more footprint than the clean
    # sequential fill.
    share_rl = cells[("share", "runlength")]
    assert share_rl["remap_splits"] > 0
    assert share_rl["splits_per_pair"] > 0.5
    assert (share_rl["footprint_bytes"]
            > cells[("seq", "runlength")]["footprint_bytes"])
    assert cells[("share", "delta")]["remap_splits"] > 0
