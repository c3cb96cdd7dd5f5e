"""``write``: seeded edge churn through a durable server (Fig. 15).

The writer applies a 50/50 stream of deletes of live edges and inserts
of absent pairs: first one edge at a time (``insert_edge`` /
``delete_edge``), then through ``apply_batch`` in groups of 8, with the
shipped ``checkpoint_every``.  The writer runs closed loop: each request
goes out as soon as the last one returns.  A second thread reads at a
fixed rate (open loop), so write-lock holds, and reads starved behind
the writer, show up as read latency.

The gated latency and throughput are host-corrected: a ~1 ms host-speed
probe runs just before each update or batch (outside its timing), and
each time is rescaled to the reference speed at which the probe takes
1 ms.  The raw figures are printed beside them.
"""

from __future__ import annotations

import os
import shutil
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.index import KPIndex
from repro.core.kpcore import kp_core_vertices
from repro.graph.fingerprint import graph_fingerprint
from repro.kcore.maintenance import CoreMaintainer
from repro.obs import collecting
from repro.obs import names as obs_names
from repro.obs.trace import Tracer
from repro.service.durable import DurableMaintainer

from kpbench.common import (
    Config,
    Outcome,
    UpdateStream,
    bootstrap_median,
    host_corrected,
    host_probe,
    load_pinned,
    mean,
    median,
    quantile,
    relabel_to_ints,
    stream_rng,
    zipf_keys,
)
from kpbench.spans import Wrappers, by_trace

GRAPH = "facebook"
SETUP_REPS = 5
BATCH = 8
SINGLE_SHARE = 0.6
SAMPLE_KEYS = 40
REBUILDS = 3
#: Paced reads per second, spread evenly over the run.
READER_RATE = 100.0
#: Spans kept by the traced run: a few per update and per paced read.
SPAN_BUFFER = 200_000

#: Root spans of single-edge updates, and the layer each wrapped span
#: inside them is booked to (``os.fsync`` is booked by its parent).
SINGLE_ROOTS = ("server.insert_edge", "server.delete_edge")
SINGLE_LAYERS = {
    "server.insert_edge": "server",
    "server.delete_edge": "server",
    "durable.insert_edge": "durable",
    "durable.delete_edge": "durable",
    "durable.checkpoint": "checkpoint",
    "journal.append": "append",
    "maintainer.insert_edge": "maintenance",
    "maintainer.delete_edge": "maintenance",
}
JOURNAL_FSYNC_PARENTS = (
    "journal.append",
    "durable.insert_edge",
    "durable.delete_edge",
    "durable.apply_batch",
)
#: The booked layers must account for at least this share of the
#: single-update time measured around the same calls.
MIN_ACCOUNTED_SHARE = 0.9

#: repro.obs window counters reported per traced run, under a
#: ``core.``-prefixed name.
THEOREM_COUNTERS = (
    obs_names.MAINT_THM2_SKIPS,
    obs_names.MAINT_THM3_WINDOWS,
    obs_names.MAINT_THM4_WINDOWS,
    obs_names.MAINT_THM5_WINDOWS,
    obs_names.MAINT_THM6_SKIPS,
    obs_names.MAINT_THM7_SKIPS,
    obs_names.MAINT_THM8_WINDOWS,
    obs_names.MAINT_THM9_WINDOWS,
)


class PacedReader(threading.Thread):
    """Open-loop reader: request ``i`` is due at ``start + i / rate``;
    latency runs from the due time, so stalls count against later
    requests too."""

    def __init__(self, server, keys, rate: float) -> None:
        super().__init__(name="paced-reader", daemon=True)
        self._server, self._keys, self._period = server, keys, 1.0 / rate
        self._halt = threading.Event()
        self.latencies: list[float] = []
        self.lags: list[float] = []
        self.errors: list[str] = []

    def run(self) -> None:
        query, keys = self._server.query, self._keys
        start, i = perf_counter(), 0
        while not self._halt.is_set():
            due = start + i * self._period
            delay = due - perf_counter()
            if delay > 0 and self._halt.wait(delay):
                break
            sent = perf_counter()
            k, p = keys[i % len(keys)]
            try:
                query(k, p)
            except Exception as error:  # count the failure, keep reading
                self.errors.append(f"query({k}, {p}) raised {error!r}")
            self.latencies.append(perf_counter() - due)
            self.lags.append(sent - due)
            i += 1

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=30)
        if self.is_alive():
            raise RuntimeError("paced reader did not stop")


@dataclass
class Phase:
    """What one writer pass measured."""

    reader: PacedReader
    singles: list[tuple[str, int, int]] = field(default_factory=list)
    single_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    batch_edges: int = 0
    #: ``host_probe()`` taken just before each single update and batch.
    single_probe: list[float] = field(default_factory=list)
    batch_probe: list[float] = field(default_factory=list)

    def end_to_end(self) -> tuple[float, float]:
        """``(op_ms_p90, throughput_per_s)`` at the reference host speed:
        each update's time is corrected by its own probe."""
        single = host_corrected(self.single_s, self.single_probe)
        batch = host_corrected(self.batch_s, self.batch_probe)
        throughput = (len(single) + self.batch_edges) / (sum(single) + sum(batch))
        return quantile(single, 0.9) * 1e3, throughput


def run(seed: int, config: Config, traced: bool) -> Outcome:
    out = Outcome()
    graph = relabel_to_ints(load_pinned(config.graph or GRAPH))
    boot: dict[str, list[float]] = {}
    server, out.e2e["setup_s"], setup_raw = bootstrap_median(
        graph, config.setup_reps or SETUP_REPS, "write-", boot
    )
    out.report.append(("bootstrap_s", setup_raw, "s"))
    directory = server.durable.directory
    stream = UpdateStream(stream_rng(seed, "write-updates"), graph)
    keys = zipf_keys(
        stream_rng(seed, "write-reads"), server.index.degeneracy, 50_000
    )
    try:
        checkpoints = server.durable.stats.checkpoints
        phase = _phase(server, stream, keys, config, out)
        # Per-batch rates swing with checkpoints and full re-peels, and a
        # run holds only ~30 batches; the whole stream is steadier.
        out.e2e["op_ms_p90"], out.e2e["throughput_per_s"] = phase.end_to_end()
        reads = phase.reader.latencies
        probes = phase.single_probe + phase.batch_probe
        out.report += [
            ("update_ms_p50", median(phase.single_s) * 1e3, "ms"),
            ("update_ms_p90", quantile(phase.single_s, 0.9) * 1e3, "ms"),
            ("batch_edges_per_s", phase.batch_edges / sum(phase.batch_s), "1/s"),
            ("host_probe_ms_p50", median(probes) * 1e3, "ms"),
            ("host_probe_ms_p90", quantile(probes, 0.9) * 1e3, "ms"),
            ("mixed_read_ms_p50", median(reads) * 1e3, "ms"),
            ("mixed_read_ms_p99", quantile(reads, 0.99) * 1e3, "ms"),
            ("single_updates", len(phase.single_s), "count"),
            ("checkpoints_in_run",
             server.durable.stats.checkpoints - checkpoints, "count"),
        ]
        if traced:
            _traced(server, stream, keys, config, boot, out)
        reference, rebuild_s = _verify(server, stream, seed, out)
        final = graph_fingerprint(server.durable.graph)
    finally:
        server.close()
    try:
        recover_s = _verify_recovery(directory, reference, final, out)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    out.report += [("rebuild_ms", rebuild_s * 1e3, "ms"),
                   ("recover_s", recover_s, "s")]
    if traced:
        out.layers["core.index.rebuild_ms"] = rebuild_s * 1e3
        out.layers["core.maintenance.update_vs_rebuild"] = (
            median(phase.single_s) / rebuild_s
        )
        out.layers["service.durable.recover_ms"] = recover_s * 1e3
    return out


def _phase(server, stream: UpdateStream, keys, config: Config, out: Outcome):
    """Single-edge updates, then batches of 8, with the paced reader on."""
    phase = Phase(PacedReader(server, keys, READER_RATE))
    phase.reader.start()
    try:
        start = perf_counter()
        single_until = start + SINGLE_SHARE * config.seconds
        while (
            len(phase.single_s) < config.min_singles
            or perf_counter() < single_until
        ):
            op, u, v = stream.next_op()
            apply = server.insert_edge if op == "insert" else server.delete_edge
            phase.single_probe.append(host_probe())
            t = perf_counter()
            try:
                apply(u, v)
            except Exception as error:  # count the failure, keep writing
                out.fail(f"{op}({u}, {v}) raised {error!r}")
            phase.single_s.append(perf_counter() - t)
            phase.singles.append((op, u, v))
        while not phase.batch_s or perf_counter() < start + config.seconds:
            ops = [stream.next_op() for _ in range(BATCH)]
            phase.batch_probe.append(host_probe())
            t = perf_counter()
            try:
                server.apply_batch(ops)
            except Exception as error:  # count the failure, keep writing
                out.fail(f"apply_batch raised {error!r}")
            phase.batch_s.append(perf_counter() - t)
            phase.batch_edges += len(ops)
    finally:
        phase.reader.stop()
    out.attempted += len(phase.single_s) + len(phase.batch_s)
    out.attempted += len(phase.reader.latencies)
    out.failed += len(phase.reader.errors)
    out.errors += phase.reader.errors[:5]
    return phase


def _traced(server, stream, keys, config: Config, boot, out: Outcome) -> None:
    """Re-run the phase with spans around every layer boundary."""
    durable = server.durable
    maintainer = durable.maintainer
    mirror = durable.graph.copy()
    tracer = Tracer(buffer_size=SPAN_BUFFER)
    wrappers = Wrappers(tracer)
    for name in ("insert_edge", "delete_edge", "apply_batch", "query"):
        wrappers.install(server, name, f"server.{name}")
    for name in ("insert_edge", "delete_edge", "apply_batch", "checkpoint"):
        wrappers.install(durable, name, f"durable.{name}")
    for name in ("insert_edge", "delete_edge", "apply_batch"):
        wrappers.install(maintainer, name, f"maintainer.{name}")
    wrappers.install_hooks(maintainer.update_hooks, "journal.append")
    wrappers.install_hooks(maintainer.batch_hooks, "journal.append")
    wrappers.install(os, "fsync", "os.fsync")
    stats_before = maintainer.stats.snapshot()
    invalidations = server.cache_stats().invalidations
    try:
        with collecting() as obs:
            phase = _phase(server, stream, keys, config, out)
    finally:
        wrappers.uninstall()
    counters = obs.snapshot().counters
    stats = {
        key: value - stats_before[key]
        for key, value in maintainer.stats.snapshot().items()
    }
    events = tracer.events()
    traces = by_trace(events)
    layers = out.layers
    _single_self_times(traces, phase, layers, out)
    layers["core.maintenance.batch_ms"] = mean(
        sum(self_s for event, self_s, _ in trace
            if event.name == "maintainer.apply_batch") * 1e3
        for trace in traces.values()
        if _root_name(trace) == "server.apply_batch"
    )
    layers["service.durable.checkpoint_ms"] = mean(
        event.dur * 1e3 for event in events if event.name == "durable.checkpoint"
    )
    for key in ("arrays_examined", "arrays_updated", "vertices_repeeled",
                "early_stops", "fallback_rebuilds"):
        layers[f"core.maintenance.{key}"] = stats[key]
    layers["core.maintenance.arrays_skipped"] = stats["arrays_skipped_theorem6"]
    updates = len(phase.single_s) + phase.batch_edges
    entries = server.index.space_stats().vertex_entries
    layers["core.maintenance.repeel_share"] = (
        stats["vertices_repeeled"] / (updates * entries)
    )
    for name in THEOREM_COUNTERS:
        layers[f"core.{name}"] = counters.get(name, 0)
    layers["core.maintenance.windowed_repeels"] = counters.get(
        obs_names.MAINT_BATCH_WINDOW_UNIONS, 0
    )
    layers["core.maintenance.full_repeels"] = counters.get(
        obs_names.MAINT_BATCH_FULL_REPEELS, 0
    )
    layers["service.cache.invalidations"] = (
        server.cache_stats().invalidations - invalidations
    )
    reads = phase.reader.latencies
    layers["mixed_read.ms_p50"] = median(reads) * 1e3
    layers["mixed_read.ms_p99"] = quantile(reads, 0.99) * 1e3
    layers["mixed_read.generator_lag_ms"] = quantile(phase.reader.lags, 0.99) * 1e3
    layers["kcore.maintenance.update_ms"] = _core_replay(mirror, phase.singles)
    layers["service.bootstrap.apply_batch_s"] = median(boot["apply_batch_s"])
    layers["service.bootstrap.checkpoint_ms"] = median(boot["checkpoint_ms"])
    overhead = phase.end_to_end()[0] - out.e2e["op_ms_p90"]
    layers["trace.overhead_ms_p90"] = overhead
    layers["trace.overhead_share"] = overhead / out.e2e["op_ms_p90"]
    out.spans = events


def _root_name(trace) -> str | None:
    """The root span's name of one trace (``None`` if the buffer dropped it)."""
    return next(
        (event.name for event, _, _ in trace if event.parent_id is None), None
    )


def _layer_of(name: str, parent: str | None) -> str | None:
    """The layer a span of a single-edge update is booked to.

    An ``os.fsync`` is a journal fsync when the journal hook or the
    durable update issued it, and part of the checkpoint when the
    checkpoint did; any other span is left unbooked.
    """
    if name == "os.fsync":
        if parent == "durable.checkpoint":
            return "checkpoint"
        return "fsync" if parent in JOURNAL_FSYNC_PARENTS else None
    return SINGLE_LAYERS.get(name)


def _single_self_times(traces, phase: Phase, layers: dict, out: Outcome) -> None:
    """Mean time per single-edge update, by layer, from self times.

    Checks that the booked layers account for the update time the
    benchmark measured around the same calls.
    """
    totals: dict[str, float] = defaultdict(float)
    kinds: dict[str, list[float]] = {"insert": [], "delete": []}
    roots = fsyncs = 0
    for trace in traces.values():
        root = _root_name(trace)
        if root not in SINGLE_ROOTS:
            continue
        roots += 1
        booked: dict[str, float] = defaultdict(float)
        for event, self_s, parent in trace:
            layer = _layer_of(event.name, parent)
            if layer is not None:
                booked[layer] += self_s
                fsyncs += layer == "fsync"
        for layer, seconds in booked.items():
            totals[layer] += seconds
        kind = "insert" if root == "server.insert_edge" else "delete"
        kinds[kind].append(booked["maintenance"])
    n = max(1, roots)
    layers["service.server.update_self_ms"] = totals["server"] * 1e3 / n
    layers["service.durable.update_self_ms"] = totals["durable"] * 1e3 / n
    layers["service.durable.update_checkpoint_ms"] = (
        totals["checkpoint"] * 1e3 / n
    )
    layers["service.journal.append_ms"] = totals["append"] * 1e3 / n
    layers["service.journal.fsync_ms"] = totals["fsync"] * 1e3 / n
    layers["service.journal.fsyncs_per_update"] = fsyncs / n
    layers["core.maintenance.insert_ms"] = mean(x * 1e3 for x in kinds["insert"])
    layers["core.maintenance.delete_ms"] = mean(x * 1e3 for x in kinds["delete"])
    share = sum(totals.values()) / sum(phase.single_s)
    layers["trace.write.accounted_share"] = share
    out.check(
        share >= MIN_ACCOUNTED_SHARE,
        f"layer self times account for only {share:.3f} of the update time",
    )


def _core_replay(graph, singles) -> float:
    """Median ms of CoreMaintainer alone over the same single-edge ops."""
    cores = CoreMaintainer(graph)
    times = []
    for op, u, v in singles:
        t = perf_counter()
        if op == "insert":
            cores.insert_edge(u, v)
        else:
            cores.delete_edge(u, v)
        times.append(perf_counter() - t)
    return median(times) * 1e3


def _verify(server, stream: UpdateStream, seed: int, out: Outcome):
    """Final index == KPIndex.build(final graph); sampled answers ==
    Algorithm 1; the graph holds exactly the stream's edge set.

    Returns the rebuilt index and the median rebuild time in s.
    """
    graph = server.durable.graph
    out.check(
        {(min(u, v), max(u, v)) for u, v in graph.edges()} == stream.edge_set(),
        "graph edges differ from the applied stream",
    )
    rebuilds, reference = [], None
    for _ in range(REBUILDS):
        t = perf_counter()
        reference = KPIndex.build(graph)
        rebuilds.append(perf_counter() - t)
    out.check(
        server.index.semantically_equal(reference),
        "maintained index differs from a rebuild",
    )
    rng = stream_rng(seed, "write-sample")
    for _ in range(SAMPLE_KEYS):
        k = rng.randint(1, max(1, reference.degeneracy))
        p = rng.random()
        out.check(
            set(server.query(k, p)) == kp_core_vertices(graph, k, p),
            f"answer ({k}, {p}) differs from Algorithm 1",
        )
    return reference, median(rebuilds)


def _verify_recovery(directory: str, reference: KPIndex, final, out) -> float:
    """Reopen the state directory: the same graph and index must come back.

    Returns the reopen time in s.
    """
    t = perf_counter()
    recovered = DurableMaintainer(directory, must_exist=True)
    seconds = perf_counter() - t
    try:
        out.check(
            graph_fingerprint(recovered.graph) == final,
            "recovered graph differs from the final graph",
        )
        out.check(
            recovered.index.semantically_equal(reference),
            "recovered index differs from a rebuild",
        )
    finally:
        recovered.close()
    return seconds
