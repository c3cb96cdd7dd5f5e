"""Inputs, streams, statistics and result plumbing shared by the workloads.

The graphs are the repository's pinned dataset stand-ins; the seed drives
only the query and update streams generated here.
"""

from __future__ import annotations

import bisect
import random
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.datasets import load
from repro.graph.adjacency import Graph
from repro.graph.fingerprint import graph_fingerprint
from repro.obs.quantiles import quantile as sorted_quantile
from repro.service.durable import DurableMaintainer
from repro.service.server import KPCoreServer

#: Checkout root: the benchmark writes only below it.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch area for state directories and edge-list files; removed on exit.
SCRATCH = ROOT / ".kpbench_tmp"

#: ``repro.datasets.load(name)`` must reproduce these exactly; the same
#: values are recorded in BENCHMARK.json next to the workload using them.
PINNED = {
    "orkut": (3937, 39483, "ca82e3b8db3809825b206c842d07340a"),
    "gowalla": (3000, 15488, "d4de63a582d5e2d2bb777da3f77d95c0"),
    "facebook": (806, 7121, "101d04ce4cb68a74043c85f8ff524de3"),
}

P_LEVELS = 101
ZIPF_S = 1.2


class InputMismatch(RuntimeError):
    """A dataset stand-in no longer matches its pinned fingerprint."""


def load_pinned(name: str) -> Graph:
    """The stand-in ``name``, checked against its pinned (n, m, hash)."""
    graph = load(name)
    fp = graph_fingerprint(graph)
    got = (fp.num_vertices, fp.num_edges, fp.edge_hash)
    if got != PINNED[name]:
        raise InputMismatch(f"{name}: expected {PINNED[name]}, got {got}")
    return graph


def relabel_to_ints(graph: Graph) -> Graph:
    """An isomorphic copy with vertices ``0..n-1`` (ints first, then strs).

    The facebook and orkut stand-ins mix int and str labels, which the
    edge-list text format cannot round-trip; the durable layer refuses to
    checkpoint such graphs.
    """
    order = sorted(graph.vertices(), key=lambda v: (isinstance(v, str), v))
    label = {v: i for i, v in enumerate(order)}
    relabelled = Graph()
    for v in order:
        relabelled.add_vertex(label[v])
    for u, v in graph.edges():
        relabelled.add_edge(label[u], label[v])
    return relabelled


def zipf_keys(
    rng: random.Random, degeneracy: int, count: int
) -> list[tuple[int, float]]:
    """``count`` Zipf(s=1.2)-skewed (k, p) queries over k in [1, d].

    The key space is ``d x 101`` p-levels; each key gets one arbitrary
    float inside its level band, so repeats of a key are repeats of the
    exact (k, p) pair.  Popularity order is a seeded shuffle.
    """
    keys = [
        (k, rng.uniform(j / P_LEVELS, (j + 1) / P_LEVELS))
        for k in range(1, degeneracy + 1)
        for j in range(P_LEVELS)
    ]
    rng.shuffle(keys)
    cumulative, total = [], 0.0
    for rank in range(len(keys)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cumulative.append(total)
    return [keys[i] for i in _draw(rng, cumulative, count)]


def _draw(rng: random.Random, cumulative: list[float], count: int) -> list[int]:
    top = cumulative[-1]
    return [bisect.bisect_left(cumulative, rng.random() * top) for _ in range(count)]


class UpdateStream:
    """Seeded 50/50 stream of deletes of live edges and inserts of absent
    pairs, tracked against a mirror of the graph's edge set.

    Deletes and inserts alternate, so every stretch of the stream holds
    the same mix; the seed picks the edges.  (A delete costs the
    maintainer about twice an insert, so a coin-flipped mix moves the
    per-run latency and throughput with the coin.)
    """

    def __init__(self, rng: random.Random, graph: Graph) -> None:
        self._rng = rng
        self._vertices = sorted(graph.vertices())
        self._edges = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
        self._slot = {e: i for i, e in enumerate(self._edges)}
        self._delete_next = True

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self._edges)

    def next_op(self) -> tuple[str, int, int]:
        rng = self._rng
        delete, self._delete_next = self._delete_next, not self._delete_next
        if delete and self._edges:
            edge = self._edges[rng.randrange(len(self._edges))]
            self._remove(edge)
            return ("delete", *edge)
        while True:
            u, v = rng.sample(self._vertices, 2)
            edge = (min(u, v), max(u, v))
            if edge not in self._slot:
                self._slot[edge] = len(self._edges)
                self._edges.append(edge)
                return ("insert", *edge)

    def _remove(self, edge: tuple[int, int]) -> None:
        slot = self._slot.pop(edge)
        last = self._edges.pop()
        if last != edge:
            self._edges[slot] = last
            self._slot[last] = slot


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (need not be sorted)."""
    return sorted_quantile(sorted(values), q)


def count_quantile(counts: dict[int, int], q: float) -> int:
    """Nearest-rank quantile of a ``{value: count}`` histogram."""
    rank = q * (sum(counts.values()) - 1)
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen > rank:
            return value
    raise ValueError("quantile of no values")


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def mean(values) -> float:
    """Arithmetic mean; 0.0 for no values (a layer that never ran)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


#: Iterations of the host-speed probe: 0.9-1.7 ms on the 2-CPU host the
#: benchmark was written on.  That is well under CPython's 5 ms thread
#: switch interval, so a probe between two writes opens no gap in which
#: a reader thread waiting for the lock could run.
PROBE_ITERATIONS = 8000
#: The reference host speed corrected times are reported at: the speed
#: at which one probe takes exactly 1 ms.
REFERENCE_PROBE_S = 1e-3


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    On a shared host the speed of identical work moves by tens of
    percent, in bursts of a few seconds and from minute to minute.  The
    probe, taken just before an operation, measures the speed that
    operation ran at.
    """
    table: dict[int, int] = {}
    start = perf_counter()
    for i in range(PROBE_ITERATIONS):
        table[i % 500] = table.get(i % 500, 0) + i
    return perf_counter() - start


def host_corrected(times: list[float], probes: list[float]) -> list[float]:
    """``times[i]`` at the reference host speed: scaled by
    ``REFERENCE_PROBE_S / probes[i]``, where ``probes[i]`` was taken just
    before operation ``i``."""
    return [t * REFERENCE_PROBE_S / p for t, p in zip(times, probes)]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``e2e`` holds the end-to-end metrics of BENCHMARK.json, ``layers``
    the per-layer metrics of the traced run, and ``report`` the
    workload's numbers under their operation-specific names (printed for
    people, not parsed).
    """

    attempted: int = 0
    failed: int = 0
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: list[tuple[str, float, str]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)  # TraceEvents, dumped at exit

    def check(self, ok: bool, what: str) -> None:
        """Count one verification; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        """Count a failure of an operation already counted as attempted."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


@dataclass(frozen=True)
class Config:
    """Sizes of one run; the defaults are the benchmark, smaller ones
    are for the smoke tests."""

    seconds: float
    graph: str | None = None  # overrides the workload's stand-in
    setup_reps: int | None = None
    min_singles: int = 100


def scratch_dir(prefix: str) -> str:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def remove_scratch() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)


def bootstrap(graph: Graph, directory: str, layers: dict[str, list[float]]):
    """Fresh durable state holding ``graph``, served by a new server.

    Returns ``(server, seconds)``; appends the apply_batch and
    checkpoint times to ``layers``.
    """
    ops = [("insert", u, v) for u, v in graph.edges()]
    start = perf_counter()
    durable = DurableMaintainer(directory)
    durable.apply_batch(ops)
    applied = perf_counter()
    durable.checkpoint()
    checkpointed = perf_counter()
    server = KPCoreServer(durable)
    end = perf_counter()
    layers.setdefault("apply_batch_s", []).append(applied - start)
    layers.setdefault("checkpoint_ms", []).append((checkpointed - applied) * 1e3)
    return server, end - start


def bootstrap_median(graph: Graph, reps: int, prefix: str, layers: dict):
    """Bootstrap ``reps`` times; keep the last server.

    Returns ``(server, host-corrected median s, measured median s)``.
    """
    times, probes, server = [], [], None
    for _ in range(reps):
        if server is not None:
            server.close()
            shutil.rmtree(server.durable.directory, ignore_errors=True)
        probes.append(host_probe())
        server, seconds = bootstrap(graph, scratch_dir(prefix), layers)
        times.append(seconds)
    return server, median(host_corrected(times, probes)), median(times)


def stream_rng(seed: int, purpose: str) -> random.Random:
    """Independent seeded stream per purpose (str seeds hash stably)."""
    return random.Random(f"{seed}:{purpose}")
