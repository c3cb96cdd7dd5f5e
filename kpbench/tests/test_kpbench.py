"""The benchmark's own tests: metric coverage, correctness checks, seeding.

Run from the repository root with ``python -m pytest kpbench/tests``.
"""

from __future__ import annotations

import json

import pytest

from kpbench import build, catalog, common, harness, read, write
from kpbench.common import Config, Outcome, stream_rng
from kpbench.spans import by_trace
from repro.core.index import KPIndex
from repro.graph.fingerprint import graph_fingerprint
from repro.obs.trace import TraceEvent

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
TINY = Config(seconds=0.2, graph="facebook", setup_reps=1, min_singles=3)


def _metric_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_mirrors_the_catalog():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(catalog.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    ] == list(catalog.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [entry[:3] for entry in catalog.PER_LAYER]


def test_benchmark_json_pins_every_graph():
    why = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    for workload, module in (("build", build), ("read", read), ("write", write)):
        n, m, edge_hash = common.PINNED[module.GRAPH]
        assert f"n={n} m={m} fp={edge_hash}" in why[workload]


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(workload, traced):
    out = harness.measure(workload, 1, TINY, traced)
    result = harness.result_line(out, traced)
    section = "per_layer" if traced else "end_to_end"
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == _metric_units(section)
    assert result["correct"], out.errors
    assert result["attempted"] >= 1 and result["failed"] == 0
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not traced:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert not common.SCRATCH.exists()


def _drop_one_vertex(index: KPIndex, k: int) -> None:
    """Corrupt A_k by forgetting its first vertex."""
    array = index.array(k)
    array.vertices = array.vertices[1:]
    array.p_numbers = array.p_numbers[1:]
    array._rebuild_levels()


def test_build_check_fails_on_a_corrupted_index():
    graph = common.relabel_to_ints(common.load_pinned("facebook"))
    index = KPIndex.build(graph)
    out = Outcome()
    build._check_answers(index, graph, 1, out)
    assert out.failed == 0
    _drop_one_vertex(index, 1)
    out = Outcome()
    build._check_answers(index, graph, 1, out)
    assert out.failed >= 1


def test_read_check_fails_when_one_answer_is_corrupted(monkeypatch):
    graph = common.relabel_to_ints(common.load_pinned("facebook"))
    server, _, _ = common.bootstrap_median(graph, 1, "test-", {})
    try:
        keys = common.zipf_keys(
            stream_rng(1, "read-keys"), server.index.degeneracy, 500
        )
        out = Outcome()
        read._verify(server, keys, out)
        assert out.failed == 0 and out.attempted > 0
        # Corrupt exactly one answer: the first non-empty distinct key.
        bad = next(key for key in sorted(set(keys)) if server.query(*key))
        honest = server.query
        monkeypatch.setattr(
            server, "query",
            lambda k, p: honest(k, p)[1:] if (k, p) == bad else honest(k, p),
        )
        out = Outcome()
        read._verify(server, keys, out)
        assert out.failed == 1
    finally:
        server.close()
        common.remove_scratch()


def test_write_check_fails_on_a_corrupted_index():
    graph = common.relabel_to_ints(common.load_pinned("facebook"))
    server, _, _ = common.bootstrap_median(graph, 1, "test-", {})
    try:
        stream = common.UpdateStream(stream_rng(1, "write-updates"), graph)
        out = Outcome()
        write._verify(server, stream, 1, out)
        assert out.failed == 0
        _drop_one_vertex(server.index, 1)
        out = Outcome()
        write._verify(server, stream, 1, out)
        assert out.failed >= 1
    finally:
        server.close()
        common.remove_scratch()


def test_seed_changes_the_streams_not_the_graphs():
    graph = common.relabel_to_ints(common.load_pinned("facebook"))
    before = graph_fingerprint(graph)

    def streams(seed):
        keys = common.zipf_keys(stream_rng(seed, "read-keys"), 38, 200)
        updates = common.UpdateStream(stream_rng(seed, "write-updates"), graph)
        return keys, [updates.next_op() for _ in range(50)]

    assert streams(1) == streams(1)
    (keys1, ops1), (keys2, ops2) = streams(1), streams(2)
    assert keys1 != keys2 and ops1 != ops2
    assert graph_fingerprint(graph) == before
    assert graph_fingerprint(
        common.relabel_to_ints(common.load_pinned("facebook"))
    ) == before


def test_a_changed_stand_in_fails_the_run(monkeypatch):
    n, m, _ = common.PINNED["facebook"]
    monkeypatch.setitem(common.PINNED, "facebook", (n, m, "0" * 32))
    with pytest.raises(common.InputMismatch):
        common.load_pinned("facebook")


def test_update_stream_deletes_live_edges_and_inserts_absent_pairs():
    graph = common.relabel_to_ints(common.load_pinned("facebook"))
    live = {(min(u, v), max(u, v)) for u, v in graph.edges()}
    stream = common.UpdateStream(stream_rng(3, "write-updates"), graph)
    ops = [stream.next_op() for _ in range(400)]
    for op, u, v in ops:
        if op == "delete":
            assert (u, v) in live
            live.remove((u, v))
        else:
            assert u != v and (u, v) not in live
            live.add((u, v))
    assert stream.edge_set() == live
    assert [op for op, _, _ in ops] == ["delete", "insert"] * 200


def _single_update_trace(fsync_parent: str) -> list[TraceEvent]:
    """One traced single-edge insert whose journal commit fsyncs below
    ``fsync_parent``; times in ms, span ids are the names."""
    spans = [  # (name, parent, duration)
        ("server.insert_edge", None, 10.0),
        ("durable.insert_edge", "server.insert_edge", 9.0),
        ("maintainer.insert_edge", "durable.insert_edge", 6.0),
        ("journal.append", "maintainer.insert_edge", 1.0),
        ("os.fsync", fsync_parent, 2.0),
    ]
    if fsync_parent != "durable.insert_edge":
        spans.append((fsync_parent, "durable.insert_edge", 2.0))
    return [
        TraceEvent(name, "t1", name, parent, 0.0, dur / 1e3, 1, 1, "main", {})
        for name, parent, dur in spans
    ]


def test_write_books_self_times_by_layer():
    out, layers = Outcome(), {}
    phase = write.Phase(reader=None, single_s=[0.010])
    traces = by_trace(_single_update_trace("durable.insert_edge"))
    write._single_self_times(traces, phase, layers, out)
    assert out.failed == 0
    assert layers["trace.write.accounted_share"] == pytest.approx(1.0)
    assert layers["service.journal.fsync_ms"] == pytest.approx(2.0)
    assert layers["service.journal.fsyncs_per_update"] == 1
    assert layers["core.maintenance.insert_ms"] == pytest.approx(5.0)
    assert layers["service.durable.update_self_ms"] == pytest.approx(1.0)


def test_write_books_checkpoint_fsyncs_to_the_checkpoint():
    out, layers = Outcome(), {}
    phase = write.Phase(reader=None, single_s=[0.010])
    traces = by_trace(_single_update_trace("durable.checkpoint"))
    write._single_self_times(traces, phase, layers, out)
    assert layers["service.journal.fsyncs_per_update"] == 0
    assert layers["service.journal.fsync_ms"] == 0
    assert layers["service.durable.update_checkpoint_ms"] == pytest.approx(2.0)
    assert layers["trace.write.accounted_share"] == pytest.approx(1.0)
    assert out.failed == 0


def test_write_accounting_fails_when_time_is_left_out():
    out, layers = Outcome(), {}
    phase = write.Phase(reader=None, single_s=[0.010])
    traces = by_trace(_single_update_trace("durable.compact"))
    write._single_self_times(traces, phase, layers, out)
    assert layers["trace.write.accounted_share"] == pytest.approx(0.8)
    assert out.failed == 1


def test_build_trace_fails_when_the_stages_miss_the_build(monkeypatch):
    graph = common.relabel_to_ints(common.load_pinned("facebook"))
    reference = KPIndex.build(graph)
    out = Outcome()
    layers, _ = build._traced_builds(graph, 0.1, reference, out)
    assert out.failed == 0
    assert layers["trace.build.staged_share"] == pytest.approx(1.0, abs=0.2)
    monkeypatch.setitem(build.SPAN_STAGES, "core.peel.drain_ms", "no/such/span")
    out = Outcome()
    build._traced_builds(graph, 0.1, reference, out)
    assert out.failed == 1


def test_write_end_to_end_is_at_the_reference_host_speed():
    ref = common.REFERENCE_PROBE_S
    assert common.host_corrected([0.010, 0.010], [ref, 2 * ref]) == (
        pytest.approx([0.010, 0.005])
    )
    # the same updates on a host twice as slow read the same
    fast = write.Phase(reader=None, single_s=[0.010] * 10, batch_s=[0.040],
                       batch_edges=8, single_probe=[ref] * 10,
                       batch_probe=[ref])
    slow = write.Phase(reader=None, single_s=[0.020] * 10, batch_s=[0.080],
                       batch_edges=8, single_probe=[2 * ref] * 10,
                       batch_probe=[2 * ref])
    assert fast.end_to_end() == pytest.approx((10.0, 18 / 0.14))
    assert slow.end_to_end() == pytest.approx(fast.end_to_end())
