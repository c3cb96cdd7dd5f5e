"""Process-parallel driver for the per-``k`` peels of Algorithm 2.

After core numbers are computed and neighbour lists sorted, the fixed-``k``
peels of the decomposition are mutually independent: each reads the frozen
:class:`~repro.graph.compact.CompactAdjacency` and the core-number array
and writes only its own ``(order, p_numbers)`` pair.  This module fans the
``k`` values of ``1..degeneracy`` out over a :mod:`multiprocessing` pool:

* the snapshot and core numbers are shipped **once per worker** through
  the pool initializer (the snapshot's typed-array CSR pickles compactly,
  see :meth:`CompactAdjacency.__reduce__`), not once per task;
* scheduling is work-stealing over **cost-balanced chunks**: the ``k``
  values — ordered largest ``|V_k|`` first, which for the non-increasing
  core-size profile is ascending ``k`` — are packed into chunks of
  roughly equal total cost (:func:`_chunk_ks`), and idle workers pull the
  next chunk from the pool's shared queue.  The expensive low-``k``
  arrays go out first as singleton chunks, while the long tail of tiny
  arrays travels in batches, so neither stragglers (static
  pre-assignment) nor per-task dispatch overhead (``chunksize=1`` over
  hundreds of sub-millisecond peels) dominate the makespan;
* each worker builds its :class:`~repro.core.peel_flat.FlatScratch`
  lazily on its first chunk and reuses it for every subsequent one —
  chunks reach a worker in ascending-``k`` order, so the scratch's
  incremental prefix-length sweep applies just as it does serially;
* results are merged keyed by ``k``, so the output is deterministic and
  identical to the serial run regardless of worker count or completion
  order.

Observability crosses the process boundary explicitly: when the parent
has a collector (``REPRO_OBS``) each chunk runs under a fresh
:class:`~repro.obs.instrumentation.Instrumentation`, ships its snapshot
back with the result, and the parent folds it in with
:meth:`~repro.obs.instrumentation.Instrumentation.merge` — so counters of
a parallel run equal the serial run's exactly (plus the scheduling
counters only parallel runs have).  When the parent is tracing
(``REPRO_TRACE``) the pool initializer carries the parent's
``(trace_id, span_id)`` context, each chunk records its spans under a
worker-local :class:`~repro.obs.trace.Tracer` parented to that context,
and the events ride home with the result to be
:meth:`~repro.obs.trace.Tracer.absorb`-ed into the parent buffer — one
coherent trace across processes.
"""

from __future__ import annotations

import os
from multiprocessing.pool import Pool
from typing import Any, Sequence

from repro.errors import ParameterError
from repro.graph.compact import CompactAdjacency
from repro.core.peel_flat import FlatScratch, peel_fixed_k_flat
from repro.obs import names
from repro.obs.instrumentation import Instrumentation, get_collector, set_collector
from repro.obs.snapshot import MetricsSnapshot
from repro.obs.trace import Tracer, get_tracer, set_tracer

__all__ = ["default_workers", "k_core_sizes", "peel_all_k"]

#: Chunk-count multiplier: aim for ~this many chunks per worker so the
#: shared queue still has slack to rebalance when one chunk runs long.
_CHUNKS_PER_WORKER = 4

#: Worker-process state, installed once by :func:`_init_worker`.  Module
#: globals (not closure state) so the initializer round-trips under every
#: multiprocessing start method, including ``spawn``.
_snapshot: CompactAdjacency | None = None
_core: list[int] | None = None
_obs_on: bool = False
#: Peel scratch, built lazily on the worker's first chunk and shared by
#: all of its chunks (the whole point of a per-worker cache).
_scratch: FlatScratch | None = None
#: One tracer per worker *process*, drained after every chunk — its
#: span-id counter keeps advancing across chunks, so ids stay unique per
#: pid even though each chunk ships its events separately.
_worker_tracer: Tracer | None = None


def default_workers() -> int:
    """A sensible pool size: the machine's CPU count (at least 1)."""
    return os.cpu_count() or 1


def k_core_sizes(core: Sequence[int], degeneracy: int) -> list[int]:
    """``sizes[k] = |V_k|`` for ``k`` in ``0..degeneracy`` (suffix counts)."""
    counts = [0] * (degeneracy + 2)
    for c in core:
        counts[c] += 1
    sizes = [0] * (degeneracy + 1)
    running = 0
    for k in range(degeneracy, -1, -1):
        running += counts[k]
        sizes[k] = running
    return sizes


def _chunk_ks(
    ks: Sequence[int], sizes: Sequence[int], pool_size: int
) -> list[list[int]]:
    """Pack ``ks`` (largest ``|V_k|`` first) into cost-balanced chunks.

    Peel cost is O(m_k), for which ``|V_k|`` is the available proxy.  The
    target chunk cost is ``total / (pool_size * _CHUNKS_PER_WORKER)``; a
    ``k`` whose own cost exceeds it becomes a singleton chunk (the big
    arrays must not queue behind each other), while consecutive small
    ``k`` values accumulate until the target is reached.  Order within
    and across chunks follows ``ks``, so workers pulling chunks from the
    shared queue each see an ascending-``k`` subsequence.
    """
    total = sum(sizes[k] for k in ks)
    target = max(1, -(-total // (max(1, pool_size) * _CHUNKS_PER_WORKER)))
    chunks: list[list[int]] = []
    current: list[int] = []
    current_cost = 0
    for k in ks:
        cost = max(1, sizes[k])
        if current and current_cost + cost > target:
            chunks.append(current)
            current = []
            current_cost = 0
        current.append(k)
        current_cost += cost
    if current:
        chunks.append(current)
    return chunks


def _init_worker(
    snapshot: CompactAdjacency,
    core: list[int],
    obs_on: bool,
    trace_ctx: tuple[str, str | None] | None,
) -> None:
    """Pool initializer: pin the shared read-only inputs in this process."""
    global _snapshot, _core, _obs_on, _scratch, _worker_tracer
    _snapshot = snapshot
    _core = core
    _obs_on = obs_on
    _scratch = None
    _worker_tracer = Tracer(context=trace_ctx) if trace_ctx is not None else None


def _worker_scratch() -> FlatScratch:
    """This worker's peel scratch, built on first use."""
    global _scratch
    if _scratch is None:
        assert _snapshot is not None and _core is not None
        _scratch = FlatScratch(_snapshot, _core)
    return _scratch


def _peel_chunk(
    chunk: Sequence[int],
) -> tuple[
    list[tuple[int, list[int], list[float]]],
    int,
    dict[str, Any] | None,
    list[dict[str, Any]] | None,
]:
    """One chunk of fixed-``k`` peels in a worker.

    Returns ``(peeled, pid, metrics_payload, events_payload)`` where
    ``peeled`` is one ``(k, order, p_numbers)`` triple per ``k`` in the
    chunk; the payloads are ``None`` unless the parent asked for them
    through the initializer flags.
    """
    assert _snapshot is not None and _core is not None
    scratch = _worker_scratch()
    task_obs = Instrumentation() if _obs_on else None
    task_tracer = _worker_tracer
    previous_obs = set_collector(task_obs) if task_obs is not None else None
    previous_tracer = (
        set_tracer(task_tracer) if task_tracer is not None else None
    )
    try:
        peeled = [
            (k, *peel_fixed_k_flat(_snapshot, _core, k, scratch=scratch))
            for k in chunk
        ]
    finally:
        if task_obs is not None:
            set_collector(previous_obs)
        if task_tracer is not None:
            set_tracer(previous_tracer)
    metrics_payload = (
        task_obs.snapshot().to_dict() if task_obs is not None else None
    )
    if task_tracer is not None:
        events_payload = [event.to_dict() for event in task_tracer.events()]
        task_tracer.clear()
    else:
        events_payload = None
    return peeled, os.getpid(), metrics_payload, events_payload


def peel_all_k(
    snapshot: CompactAdjacency,
    core: Sequence[int],
    degeneracy: int,
    *,
    workers: int,
    ks: Sequence[int] | None = None,
) -> dict[int, tuple[list[int], list[float]]]:
    """Peel every requested ``k`` across a process pool.

    By default peels all of ``1..degeneracy`` (Algorithm 2's parallel
    phase); pass ``ks`` to repair an arbitrary subset — the batched
    maintenance path (:meth:`KPIndexMaintainer.apply_batch`) fans its
    membership-churned arrays through here.  Returns
    ``{k: (order, p_numbers)}`` — byte-identical to running
    :func:`~repro.core.peel_flat.peel_fixed_k_flat` serially for each
    ``k``.  ``workers`` is clamped to the number of tasks; callers
    guarantee ``workers >= 1`` and that the snapshot's neighbour lists
    are already rank-sorted.
    """
    obs = get_collector()
    tracer = get_tracer()
    trace_ctx = tracer.context() if tracer is not None else None
    sizes = k_core_sizes(core, degeneracy)
    selected = range(1, degeneracy + 1) if ks is None else ks
    for k in selected:
        if not 1 <= k <= degeneracy:
            raise ParameterError(
                f"requested k={k} outside 1..{degeneracy}"
            )
    ordered = sorted(selected, key=lambda k: (-sizes[k], k))
    if not ordered:
        return {}
    pool_size = min(workers, len(ordered))
    chunks = _chunk_ks(ordered, sizes, pool_size)
    results: dict[int, tuple[list[int], list[float]]] = {}
    tasks_per_pid: dict[int, int] = {}
    with Pool(
        processes=pool_size,
        initializer=_init_worker,
        initargs=(snapshot, list(core), obs is not None, trace_ctx),
    ) as pool:
        for peeled, pid, metrics_payload, events_payload in (
            pool.imap_unordered(_peel_chunk, chunks, chunksize=1)
        ):
            for k, order, p_numbers in peeled:
                results[k] = (order, p_numbers)
            tasks_per_pid[pid] = tasks_per_pid.get(pid, 0) + len(peeled)
            if obs is not None and metrics_payload is not None:
                # Fold the worker's per-chunk counters in verbatim: the
                # peel records the same metrics it does serially, so
                # parallel profiles match serial ones exactly.
                obs.merge(MetricsSnapshot.from_dict(metrics_payload))
            if tracer is not None and events_payload is not None:
                tracer.absorb(events_payload)
    if obs is not None:
        obs.add(names.DECOMP_PARALLEL_TASKS, len(ordered))
        obs.add(names.DECOMP_PARALLEL_CHUNKS, len(chunks))
        for count in tasks_per_pid.values():
            obs.observe(names.DECOMP_PARALLEL_WORKERS, count)
    return results
