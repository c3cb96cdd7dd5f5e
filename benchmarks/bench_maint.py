"""Record per-edge KP-Index maintenance against rebuild (``BENCH_maint.json``).

Standalone script (not a pytest-benchmark case).  For each dataset it
samples ``--edges`` existing edges with a fixed seed, and each repeat
times, on a fresh :class:`~repro.core.maintenance.KPIndexMaintainer`:

* ``delete`` — deleting the sampled edges one at a time (mean s per edge),
* ``insert`` — inserting them back one at a time (mean s per edge),
* ``rebuild`` — one from-scratch ``KPIndex.build`` of the graph.

Repeats are interleaved round-robin across datasets and rows, so one
slow scheduling window cannot land on a single row.  Each row records
``min_s`` and ``median_s`` over the repeats plus a stage breakdown of
the maintenance rows (self time per edge of the ``trace.maintenance.*``
spans, the kernel's ``trace.peel.fixed_k`` counted as ``peel``, from one
extra traced pass that is not part of the timings).  Run from the
repository root::

    PYTHONPATH=src python benchmarks/bench_maint.py            # writes BENCH_maint.json
    PYTHONPATH=src python benchmarks/bench_maint.py --out /tmp/maint-new.json
    python -m repro bench diff BENCH_maint.json /tmp/maint-new.json --tolerance 2.0

The script also prints each maintenance row's speedup over rebuild
(``rebuild min_s / row min_s``, the best of the interleaved repeats on
both sides) — the paper's Fig. 15 claim (Sec. VII).  It reports the
ratios without failing on them: with per-edge maintenance at roughly
0.6-0.9 of a rebuild, a few repeats on a noisy host can land either
side of 1.0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import time
from collections import defaultdict
from statistics import median
from typing import Sequence

from repro.bench.provenance import run_provenance
from repro.core.index import KPIndex
from repro.core.maintenance import KPIndexMaintainer
from repro.datasets import load
from repro.graph.adjacency import Graph
from repro.obs import names, tracing
from repro.obs.trace_export import _self_times

__all__ = ["main", "record", "speedups"]

DATASETS = ("facebook", "gowalla", "orkut")
ROWS = ("delete", "insert", "rebuild")
STAGE_PREFIX = "trace.maintenance."


def _sample_edges(graph: Graph, count: int, seed: int) -> list[tuple]:
    """``count`` existing edges, independent of set iteration order."""
    edges = sorted(
        (tuple(sorted(edge, key=repr)) for edge in graph.edges()), key=repr
    )
    return random.Random(seed).sample(edges, count)


def _churn(graph: Graph, edges: Sequence[tuple]) -> dict[str, float]:
    """Delete then re-insert ``edges``; mean seconds per edge of each."""
    maintainer = KPIndexMaintainer(graph.copy())
    seconds: dict[str, float] = {}
    for row, apply in (
        ("delete", maintainer.delete_edge),
        ("insert", maintainer.insert_edge),
    ):
        start = time.perf_counter()
        for u, v in edges:
            apply(u, v)
        seconds[row] = (time.perf_counter() - start) / len(edges)
    return seconds


def _stages(graph: Graph, edges: Sequence[tuple]) -> dict[str, dict[str, float]]:
    """Per-edge self time (ms) of each maintenance stage, by row."""
    maintainer = KPIndexMaintainer(graph.copy())
    stages: dict[str, dict[str, float]] = {}
    for row, apply in (
        ("delete", maintainer.delete_edge),
        ("insert", maintainer.insert_edge),
    ):
        with tracing() as tracer:
            for u, v in edges:
                apply(u, v)
        events = tracer.events()
        self_time = _self_times(events)
        totals: dict[str, float] = defaultdict(float)
        for event in events:
            if event.name.startswith(STAGE_PREFIX):
                stage = event.name[len(STAGE_PREFIX) :]
            elif event.name == names.TRACE_PEEL_FIXED_K:
                stage = "peel"  # the kernel's own span, inside the peel stage
            else:
                continue
            totals[stage] += self_time[event.span_id]
        stages[row] = {
            stage: round(total * 1e3 / len(edges), 3)
            for stage, total in sorted(totals.items())
        }
    return stages


def record(
    datasets: Sequence[str] = DATASETS,
    repeat: int = 5,
    edges: int = 10,
    seed: int = 3,
) -> dict[str, object]:
    """Time every (dataset, row) pair ``repeat`` times, interleaved."""
    graphs = {name: load(name) for name in datasets}
    sampled = {
        name: _sample_edges(graph, edges, seed) for name, graph in graphs.items()
    }
    samples: dict[tuple[str, str], list[float]] = defaultdict(list)
    for _ in range(repeat):
        for name, graph in graphs.items():
            for row, seconds in _churn(graph, sampled[name]).items():
                samples[name, row].append(seconds)
            start = time.perf_counter()
            KPIndex.build(graph)
            samples[name, "rebuild"].append(time.perf_counter() - start)
    entries: list[dict[str, object]] = []
    for name, graph in graphs.items():
        stages = _stages(graph, sampled[name])
        for row in ROWS:
            values = samples[name, row]
            entry: dict[str, object] = {
                "dataset": name,
                "spec": row,
                "n": graph.num_vertices,
                "m": graph.num_edges,
                "min_s": round(min(values), 5),
                "median_s": round(median(values), 5),
            }
            if row in stages:
                entry["stages_ms_per_edge"] = stages[row]
            entries.append(entry)
    return {
        "benchmark": "per-edge maintenance vs rebuild (Fig. 15)",
        "edges": edges,
        "seed": seed,
        "repeat": repeat,
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
        "provenance": run_provenance(),
        "entries": entries,
    }


def speedups(payload: dict[str, object]) -> dict[tuple[str, str], float]:
    """``rebuild min_s / per-edge min_s`` for every maintenance row."""
    best = {
        (entry["dataset"], entry["spec"]): entry["min_s"]
        for entry in payload["entries"]  # type: ignore[union-attr]
    }
    return {
        (dataset, row): best[dataset, "rebuild"] / best[dataset, row]
        for dataset, row in best
        if row != "rebuild"
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", nargs="+", default=list(DATASETS))
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--edges", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", default="BENCH_maint.json")
    args = parser.parse_args(argv)
    payload = record(args.datasets, args.repeat, args.edges, args.seed)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    for entry in payload["entries"]:  # type: ignore[union-attr]
        print(
            f"{entry['dataset']:>9} {entry['spec']:>7}: "
            f"min={entry['min_s'] * 1e3:.1f} ms "
            f"median={entry['median_s'] * 1e3:.1f} ms"
        )
    for (dataset, row), ratio in sorted(speedups(payload).items()):
        verdict = "beats" if ratio > 1.0 else "LOSES TO"
        print(f"{dataset} {row} per edge {verdict} rebuild: {ratio:.2f}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
