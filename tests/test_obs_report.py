"""Tests for the report CLI (repro.tools.report): section rendering and
GC attribution from synthetic telemetry records, plus the end-to-end
JSONL path through main()."""

import json
from pathlib import Path

import pytest

from repro.tools.report import (
    activity_breakdown,
    gc_attribution,
    last_metrics,
    latency_table,
    load,
    main,
    render,
    span_summary,
)

MAPPING_LAB = (Path(__file__).resolve().parent.parent / "results"
               / "mapping_lab.jsonl")


def span(name, span_id, parent_id=None, duration_us=10, **attrs):
    return {"type": "span", "name": name, "span_id": span_id,
            "parent_id": parent_id,
            "trace_id": span_id if parent_id is None else 1,
            "start_us": 0, "end_us": duration_us,
            "duration_us": duration_us, "attrs": attrs}


def metrics_record(t_us, metrics):
    return {"type": "metrics", "t_us": t_us, "metrics": metrics}


SYNTHETIC = [
    span("innodb.flush_batch", 1, duration_us=100),
    span("host.pwrite", 2, parent_id=1, duration_us=80),
    span("device.write", 3, parent_id=2, duration_us=60),
    span("ftl.gc", 4, parent_id=3, duration_us=0, copyback_pages=12),
    span("device.write", 5, duration_us=40),
    span("ftl.gc", 6, parent_id=5, duration_us=0, copyback_pages=3),
    metrics_record(1_000, {"device.data.host_write_pages": 10}),
    metrics_record(2_000, {
        "device.data.host_write_pages": 500,
        "device.log.host_write_pages": 100,
        "device.data.host_read_pages": 50,
        "ftl.gc.events": 2,
        "ftl.gc.copyback_pages": 15,
        "device.data.latency_us.write": {
            "count": 500, "total": 50_000.0, "mean": 100.0,
            "p25": 80.0, "p50": 95.0, "p75": 120.0, "p99": 400.0,
            "max": 900.0},
    }),
]


class TestSnapshotSelection:
    def test_last_metrics_wins(self):
        assert last_metrics(SYNTHETIC)["device.data.host_write_pages"] == 500

    def test_no_metrics_gives_empty(self):
        assert last_metrics([span("device.write", 1)]) == {}


class TestActivityBreakdown:
    def test_device_counters_summed_across_scopes(self):
        labels, values = activity_breakdown(last_metrics(SYNTHETIC))
        table = dict(zip(labels, values))
        assert table["host writes (pages)"] == 600  # data 500 + log 100
        assert table["host reads (pages)"] == 50
        assert table["GC events"] == 2
        assert table["GC copybacks (pages)"] == 15
        assert table["wear-level moves"] == 0


class TestLatencyTable:
    def test_histograms_render_as_rows(self):
        text = latency_table(last_metrics(SYNTHETIC))
        assert "device.data.latency_us.write" in text
        assert "P99" in text

    def test_empty_snapshot(self):
        assert "no latency histograms" in latency_table({})

    def test_scalars_and_partial_dicts_skipped(self):
        text = latency_table({"a.counter": 5,
                              "a.partial": {"count": 1, "p50": 2.0}})
        assert "no latency histograms" in text


class TestSpanSummary:
    def test_counts_and_mean(self):
        text = span_summary(SYNTHETIC)
        assert "device.write" in text
        assert "ftl.gc" in text

    def test_no_spans(self):
        assert "no spans" in span_summary([metrics_record(0, {})])


class TestGcAttribution:
    def test_walks_to_root(self):
        counts = gc_attribution(SYNTHETIC)
        assert counts == {"innodb.flush_batch": 1, "device.write": 1}

    def test_orphan_parent_stops_gracefully(self):
        records = [span("ftl.gc", 9, parent_id=999)]
        assert gc_attribution(records) == {"ftl.gc": 1}

    def test_no_gc_spans(self):
        assert gc_attribution([span("device.write", 1)]) == {}


class TestRender:
    def test_all_sections_joined(self):
        text = render(SYNTHETIC)
        assert "I/O activities" in text
        assert "Latency distributions" in text
        assert "Spans by name" in text
        assert "GC attribution" in text

    @pytest.mark.parametrize("section,marker", [
        ("activities", "I/O activities"),
        ("latency", "Latency distributions"),
        ("spans", "Spans by name"),
        ("gc", "GC attribution"),
    ])
    def test_single_section(self, section, marker):
        text = render(SYNTHETIC, section)
        assert marker in text
        others = {"I/O activities", "Latency distributions",
                  "Spans by name", "GC attribution"} - {marker}
        for other in others:
            assert other not in text


class TestMain:
    def test_cli_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in SYNTHETIC))
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "GC attribution" in out
        assert "innodb.flush_batch" in out

    def test_cli_section_flag(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in SYNTHETIC))
        assert main([str(path), "--section", "gc"]) == 0
        assert "Latency" not in capsys.readouterr().out


class TestQueueSection:
    METRICS = [metrics_record(1_000, {
        "device.data.queue.wait_us": {
            "count": 40, "total": 4000.0, "mean": 100.0,
            "p25": 10.0, "p50": 60.0, "p75": 150.0, "p99": 800.0,
            "max": 1200.0},
        "device.data.chan.0.busy_us": 5000,
        "device.data.chan.0.util": 0.71,
        "device.data.chan.1.busy_us": 4500,
        "device.data.chan.1.util": 0.64,
    })]

    def test_queue_section_renders_waits_and_channels(self):
        from repro.tools.report import queue_summary, render_queueing
        metrics = last_metrics(self.METRICS)
        wait_rows, channel_rows = queue_summary(metrics)
        assert wait_rows == [["data", 40, 100.0, 60.0, 150.0, 800.0,
                              1200.0]]
        assert channel_rows == [["data", 0, 5000, 0.71],
                                ["data", 1, 4500, 0.64]]
        text = render_queueing(metrics)
        assert "Queue wait" in text
        assert "Channel occupancy" in text

    def test_queue_section_in_full_render(self):
        text = render(self.METRICS, "queue")
        assert "Channel occupancy" in text
        assert "I/O activities" not in text

    def test_serial_artifact_explains_absence(self):
        from repro.tools.report import render_queueing
        assert "no queueing telemetry" in render_queueing(
            {"device.data.host_write_pages": 5})


class TestMappingSection:
    MODELS = ("delta", "flat", "group", "runlength")

    def _rows(self, text):
        return [line.split() for line in text.splitlines()
                if line.split()[:1] and line.split()[0] in self.MODELS]

    def test_renders_every_committed_lab_row(self):
        records = load(str(MAPPING_LAB))
        assert len(records) == 12
        rows = self._rows(render(records, "mapping"))
        assert len(rows) == len(records)
        by_cell = {(row[0], row[1]): row for row in rows}
        assert len(by_cell) == len(records)
        for record in records:
            row = by_cell[(record["strategy"], record["workload"])]
            assert row[2:5] == [str(record["footprint_bytes"]),
                                str(record["fragments"]),
                                str(record["remap_splits"])]
            # Floats print with two or three decimals.
            assert float(row[5]) == pytest.approx(
                record["splits_per_pair"], abs=0.005)
            assert float(row[6]) == pytest.approx(record["waf"], abs=0.005)

    def test_cli_mapping_section(self, capsys):
        assert main([str(MAPPING_LAB), "--section", "mapping"]) == 0
        out = capsys.readouterr().out
        assert len(self._rows(out)) == 12
        assert "I/O activities" not in out

    def test_artifact_without_lab_rows_explains_absence(self):
        assert "no mapping_lab records" in render(SYNTHETIC, "mapping")


class TestSweepSection:
    """``--section sweep`` over a file mixing a power and a media sweep,
    written through the sweep engine's own record types."""

    @staticmethod
    def records():
        from repro.crashcheck.sweep import Report, Site, SiteResult
        power_sites = (Site("power", 1, point="a", point_nth=1),
                       Site("power", 2, point="b", point_nth=1))
        power = Report("power", "ftl-basic", ("power",), {}, power_sites,
                       tuple(SiteResult(site, True, True, None, {}, ())
                             for site in power_sites))
        media_site = Site("program-fail", 3)
        media = Report("media", "ftl-basic", ("program-fail",),
                       {"program": 9}, (media_site,) * 4,
                       (SiteResult(media_site, True, False,
                                   "OutOfSpaceError", {}, ("lost",)),))
        out = [result.as_record("power", "ftl-basic")
               for result in power.results]
        out.append(power.summary())
        out.append(media.results[0].as_record("media", "ftl-basic"))
        out.append(media.summary())
        return out

    def _rows(self, text):
        return [line.split() for line in text.splitlines()
                if line.split()[:1] and line.split()[0] in ("power",
                                                            "media")]

    def test_render_one_row_per_kind_and_workload(self):
        rows = self._rows(render(self.records(), "sweep"))
        assert rows == [
            ["media", "ftl-basic", "4", "1", "1", "0", "1", "0", "0", "0",
             "1"],
            ["power", "ftl-basic", "2", "2", "2", "2", "0", "0", "0", "0",
             "0"],
        ]

    def test_repeated_sweeps_of_one_pair_add_up(self):
        from repro.tools.report import sweep_summary
        records = self.records()
        rows = sweep_summary(records + records)
        assert [row[:4] for row in rows] == [["media", "ftl-basic", 8, 2],
                                             ["power", "ftl-basic", 4, 4]]

    def test_cli_sweep_section(self, tmp_path, capsys):
        path = tmp_path / "sweeps.jsonl"
        path.write_text("".join(json.dumps(record) + "\n"
                                for record in self.records()))
        assert main([str(path), "--section", "sweep"]) == 0
        out = capsys.readouterr().out
        assert "Crash sweeps" in out
        assert len(self._rows(out)) == 2
        assert "I/O activities" not in out

    def test_artifact_without_sweeps_explains_absence(self):
        assert "no sweep-summary records" in render(SYNTHETIC, "sweep")
