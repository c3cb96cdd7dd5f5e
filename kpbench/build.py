"""``build``: edge list -> ``read_edge_list`` -> ``KPIndex.build`` (Fig. 13).

Exercises graph I/O, the CSR snapshot, core numbers, the Algorithm 2
drain and index assembly; no service, maintenance or cache code runs.

The gated build time and rate are host-corrected: a host-speed probe
runs just before each build, outside its timing, and each build time is
rescaled to the reference speed at which the probe takes 1 ms.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

from repro.core.decomposition import kp_core_decomposition
from repro.core.index import KPIndex
from repro.core.kpcore import kp_core_vertices
from repro.core.peel_engines import DEFAULT_ENGINE, make_scratch
from repro.errors import IndexStateError
from repro.graph.compact import CompactAdjacency
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.io import read_edge_list, write_edge_list
from repro.kcore.decomposition import core_numbers_compact
from repro.obs import collecting, tracing
from repro.obs import names as obs_names

from kpbench.common import (
    Config,
    Outcome,
    host_corrected,
    host_probe,
    load_pinned,
    median,
    quantile,
    relabel_to_ints,
    scratch_dir,
    stream_rng,
)

GRAPH = "orkut"
SETUP_REPS = 45
SAMPLE_KEYS = 40

#: Build stages taken from the program's own ``repro.obs`` spans.
SPAN_STAGES = {
    "kcore.core_numbers_ms": (
        f"{obs_names.DECOMP_SPAN}/{obs_names.DECOMP_SPAN_CORE_NUMBERS}"
    ),
    "graph.compact.sort_ms": (
        f"{obs_names.DECOMP_SPAN}/{obs_names.DECOMP_SPAN_SORT}"
    ),
    "core.peel.drain_ms": f"{obs_names.DECOMP_SPAN}/{obs_names.DECOMP_SPAN_PEEL}",
}
#: The stages that together make one build (the drain includes
#: ``make_scratch`` and the slowest k).
ADDITIVE_STAGES = (
    "graph.compact.build_ms",
    "kcore.core_numbers_ms",
    "graph.compact.sort_ms",
    "core.peel.drain_ms",
    "core.index.assemble_ms",
)
#: How far the staged sum may drift from the real build time before the
#: run fails: beyond it the stages no longer describe the build.
MAX_STAGED_DRIFT = 0.2


def run(seed: int, config: Config, traced: bool) -> Outcome:
    out = Outcome()
    graph = relabel_to_ints(load_pinned(config.graph or GRAPH))
    path = os.path.join(scratch_dir("build-"), "graph.txt")
    write_edge_list(graph, path)

    reads, probes = [], []
    for _ in range(config.setup_reps or SETUP_REPS):
        probes.append(host_probe())
        start = perf_counter()
        loaded = read_edge_list(path)
        reads.append(perf_counter() - start)
    out.check(
        graph_fingerprint(loaded) == graph_fingerprint(graph),
        "edge-list round trip changed the graph",
    )
    out.e2e["setup_s"] = median(host_corrected(reads, probes))
    out.report.append(("read_edge_list_s", median(reads), "s"))

    times, corrected, first = _timed_builds(loaded, config.seconds, out)
    _check_answers(first, loaded, seed, out)
    _record_e2e(out, corrected, loaded.num_edges)
    if traced:
        layers, traced_times = _traced_builds(loaded, config.seconds, first, out)
        layers["graph.io.read_ms"] = median(reads) * 1e3
        overhead = quantile(traced_times, 0.9) * 1e3 - out.e2e["op_ms_p90"]
        layers["trace.overhead_ms_p90"] = overhead
        layers["trace.overhead_share"] = overhead / out.e2e["op_ms_p90"]
        out.layers.update(layers)
    out.report += [("build_s", median(times), "s"),
                   ("build_ms_p90", quantile(times, 0.9) * 1e3, "ms")]
    return out


def _timed_builds(graph, seconds: float, out: Outcome):
    """Build until ``seconds`` have passed; every index must match the first.

    Returns the build times as measured and host-corrected, and the
    first index.
    """
    times, probes, first, signature = [], [], None, None
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        probes.append(host_probe())
        start = perf_counter()
        index = KPIndex.build(graph)
        times.append(perf_counter() - start)
        stats = index.space_stats()
        shape = (index.degeneracy, stats.vertex_entries, stats.p_number_entries)
        if first is None:
            first, signature = index, shape
        out.check(shape == signature, f"build {len(times)} differs: {shape}")
    return times, host_corrected(times, probes), first


def _check_answers(index: KPIndex, graph, seed: int, out: Outcome) -> None:
    """index.validate() plus seeded answers against Algorithm 1."""
    try:
        index.validate()
        out.check(True, "")
    except IndexStateError as error:
        out.check(False, f"validate: {error}")
    rng = stream_rng(seed, "build-sample")
    for _ in range(SAMPLE_KEYS):
        k = rng.randint(1, index.degeneracy)
        p = rng.random()
        out.check(
            set(index.query(k, p)) == kp_core_vertices(graph, k, p),
            f"answer ({k}, {p}) differs from Algorithm 1",
        )


def _record_e2e(out: Outcome, times: list[float], edges: int) -> None:
    out.e2e["op_ms_p90"] = quantile(times, 0.9) * 1e3
    out.e2e["throughput_per_s"] = quantile([edges / t for t in times], 0.1)


def _traced_builds(graph, seconds: float, reference: KPIndex, out: Outcome):
    """``KPIndex.build`` with ``repro.obs`` collection and tracing on.

    Core numbers, the neighbour sort and the drain come from the spans
    the program emits inside each build, the slowest k from its per-k
    peel events.  What has no span of its own (the CSR snapshot,
    ``make_scratch`` and index assembly) is timed here, in the same
    loop.  The staged times must add up to the real build time.

    Returns the median stage metrics and the traced builds' host-corrected
    times in s.
    """
    stages: dict[str, list[float]] = defaultdict(list)
    builds: list[float] = []
    probes: list[float] = []
    decomposition = kp_core_decomposition(graph)
    deadline = perf_counter() + seconds
    while not builds or perf_counter() < deadline:
        probes.append(host_probe())
        with collecting() as obs, tracing() as tracer:
            start = perf_counter()
            index = KPIndex.build(graph)
            builds.append(perf_counter() - start)
        spans = obs.snapshot().spans
        for name, path in SPAN_STAGES.items():
            summary = spans.get(path)
            stages[name].append(summary.seconds * 1e3 if summary else 0.0)
        per_k = [
            event.dur for event in tracer.events()
            if event.name == obs_names.TRACE_PEEL_FIXED_K
        ]
        stages["core.peel.slowest_k_ms"].append(max(per_k, default=0.0) * 1e3)
        _time_unspanned(graph, decomposition, stages)
        out.check(
            index.semantically_equal(reference),
            "traced build differs from the untraced one",
        )
    layers = {name: median(values) for name, values in stages.items()}
    staged = sum(layers[name] for name in ADDITIVE_STAGES)
    share = staged / (median(builds) * 1e3)
    layers["trace.build.staged_share"] = share
    out.check(
        abs(share - 1.0) <= MAX_STAGED_DRIFT,
        f"staged times account for {share:.3f} of KPIndex.build",
    )
    stats = index.space_stats()
    layers["core.index.vertex_entries"] = stats.vertex_entries
    layers["core.index.entries_per_2m"] = stats.vertex_entries / stats.two_m
    layers["core.index.levels"] = stats.p_number_entries
    return layers, host_corrected(builds, probes)


def _time_unspanned(graph, decomposition, stages: dict) -> None:
    """Time the build stages the program has no span for."""
    start = perf_counter()
    snapshot = CompactAdjacency(graph)
    stages["graph.compact.build_ms"].append((perf_counter() - start) * 1e3)
    core, _ = core_numbers_compact(snapshot)
    snapshot.sort_neighbors_by_rank_desc(core)
    start = perf_counter()
    make_scratch(DEFAULT_ENGINE, snapshot, core)
    stages["core.peel.ladder_ms"].append((perf_counter() - start) * 1e3)
    start = perf_counter()
    KPIndex.from_decomposition(decomposition, graph.num_edges)
    stages["core.index.assemble_ms"].append((perf_counter() - start) * 1e3)
