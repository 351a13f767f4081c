"""Unit tests of the benchmark's arithmetic on hand-built numbers and spans."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, stats
from perfbench.instrument import Instrumentation, lane_keys
from perfbench.run import END_TO_END

ROOT = Path(__file__).resolve().parents[2]


def span(span_id, start, end, parent=None, name="x", trace="t1", **attrs):
    return {"trace_id": trace, "span_id": span_id, "parent_id": parent, "name": name,
            "start_us": start, "duration_us": end - start, "attrs": attrs}


class TestPercentile:
    def test_linear_interpolation_matches_numpy(self):
        values = [7.0, 1.0, 3.0, 10.0, 4.0]
        for q in (0, 10, 50, 90, 100):
            assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_small_samples(self):
        assert stats.percentile([5.0], 90) == 5.0
        assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert stats.percentile([1.0, 2.0, 3.0, 4.0], 90) == pytest.approx(3.7)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)
        with pytest.raises(ValueError):
            stats.percentile([1.0], 101)


class TestSelfTime:
    def test_union_of_overlapping_children_is_subtracted_once(self):
        assert stats.covered_us(0, 100, [(10, 40), (30, 60), (90, 120)]) == 60
        assert stats.covered_us(0, 100, [(-5, 5), (200, 300)]) == 5
        assert stats.covered_us(0, 100, []) == 0

    def test_nested_and_parallel_children(self):
        spans = [
            span("root", 0, 100),
            span("a", 10, 40, parent="root"),
            span("b", 30, 60, parent="root"),   # runs in parallel with a
            span("g", 15, 20, parent="a"),
        ]
        own = stats.self_times(spans)
        assert own == {"root": 50, "a": 25, "b": 30, "g": 5}

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("p", 10, 20), span("c", 5, 15, parent="p")]
        assert stats.self_times(spans) == {"p": 5, "c": 10}

    def test_link_roots_parents_server_trees_under_the_client_span(self):
        client = span("c", 0, 100, trace="req")
        server = span("s", 5, 95, trace="req", name="server.request")
        other = span("o", 5, 95, trace="else")
        linked = stats.link_roots([client, server, other], {"req": "c"})
        assert [s["parent_id"] for s in linked] == [None, "c", None]
        assert server["parent_id"] is None  # inputs are not mutated


class TestKeyReuse:
    def test_distinct_keys_and_reuse_ratio(self):
        assert stats.key_reuse([{1, 2}, {2, 3}, {3}], lanes=10) == (3, pytest.approx(0.7))
        assert stats.key_reuse([], lanes=0) == (0, 0.0)

    def test_lane_keys_count_distinct_context_rows_per_candidate_set(self):
        contexts = np.array([[1, 2], [1, 2], [3, 4]])
        lengths = np.array([2, 2, 2])
        keys = lane_keys(contexts, lengths, [[5], [6, 7]])
        assert len(keys) == 2
        assert set(lane_keys(contexts[::-1], lengths, [[5], [6, 7]])) == set(keys)
        assert set(lane_keys(contexts, lengths, [[5], [6]])).isdisjoint(keys)
        # the same context row at another length is another key
        assert len(lane_keys(contexts, np.array([2, 1, 2]), [[5], [6, 7]])) == 3


class TestPerLayer:
    def test_per_request_self_times_and_counts(self):
        roots = {"r1": "c1", "r2": "c2"}
        spans = [
            span("c1", 0, 1000, trace="r1", name="bench.request"),
            span("s1", 100, 900, trace="r1", name="server.request"),
            span("t1", 200, 800, parent="s1", trace="r1", name="worker.task"),
            span("e1", 300, 500, parent="t1", trace="r1", name="engine.choose",
                 lanes=4, keys=[1, 2]),
            span("w1", 600, 700, parent="t1", trace="r1", name="wire.encode",
                 bytes=300, rows=3),
            span("c2", 2000, 2500, trace="r2", name="bench.request"),
            span("s2", 2000, 2500, trace="r2", name="server.request"),
            span("e2", 2100, 2200, parent="s2", trace="r2", name="engine.choose",
                 lanes=4, keys=[2, 3]),
            span("x", 0, 5000, trace="warmup", name="engine.choose", lanes=99),
        ]
        out = layers.per_layer(spans, roots, samples=2, busy_wall_s=0.001, workers=2)
        assert out["engine.choose_ms"] == pytest.approx((0.2 + 0.1) / 2)
        assert out["worker.task_ms"] == pytest.approx(0.3 / 2)
        assert out["server.request_self_ms"] == pytest.approx((0.2 + 0.4) / 2)
        assert out["engine.choose_calls"] == 1.0
        assert out["engine.lanes_scored"] == 4.0
        assert out["engine.distinct_keys"] == 3.0
        assert out["engine.key_reuse_ratio"] == pytest.approx(1 - 3 / 8)
        assert out["blocks_per_request"] == 0.5
        assert out["worker.busy_ratio"] == pytest.approx(0.0006 / 0.002)
        assert out["wire.bytes_per_row"] == 100.0
        assert out["unattributed_share"] == pytest.approx(200 / 1500)
        assert out["trace.samples"] == 2.0

    def test_overhead_is_the_median_pair_and_its_range(self):
        assert layers.overhead([0.9, 1.0, 0.8]) == {
            "trace.overhead_ratio": 0.9,
            "trace.overhead_spread": pytest.approx(0.2 / 0.9)}

    def test_setup_layers_average_the_cold_starts(self):
        spans = [span("a", 0, 3000, name="store.load_bundle"),
                 span("b", 0, 5000, name="store.load_bundle"),
                 span("c", 0, 8000, name="setup.worker_ready")]
        assert layers.setup_layers(spans) == {"setup.load_ms": 4.0,
                                              "setup.worker_ready_ms": 8.0}


def test_instrumentation_restores_every_original():
    from repro.frame.table import Table
    from repro.llm.engine import GuidedBatchSession
    from repro.serving import server, workers

    before = (vars(Table)["from_records"], Table.__init__, GuidedBatchSession.choose,
              workers.encode_table, server.json)
    instrumentation = Instrumentation().install()
    try:
        assert Table.__init__ is not before[1]
        assert server.json is not before[4]
    finally:
        instrumentation.uninstall()
    after = (vars(Table)["from_records"], Table.__init__, GuidedBatchSession.choose,
             workers.encode_table, server.json)
    assert after == before


def test_wrappers_emit_spans_only_while_tracing():
    from repro.frame.table import Table
    from repro.obs import trace as obs

    instrumentation = Instrumentation().install()
    try:
        Table.from_records([{"a": 1}])  # tracer off: no span, same result
        obs.configure("ring:100")
        try:
            with obs.span("root"):
                table = Table.from_records([{"a": 1}, {"a": 2}])
            names = [s["name"] for s in obs.ring_snapshot()["spans"]]
        finally:
            obs.disable()
    finally:
        instrumentation.uninstall()
    assert table.num_rows == 2
    assert names.count("frame.table_build") == 2  # from_records and its __init__
    assert names[-1] == "root"


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.UNITS
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert [w["name"] for w in doc["workloads"]] == [
        "table_http", "database_http", "fit_registry"]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
