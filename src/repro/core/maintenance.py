"""KP-Index maintenance under edge insertion/deletion (Sec. VI, Algs. 4-5).

:class:`KPIndexMaintainer` owns a graph, a :class:`~repro.kcore.
maintenance.CoreMaintainer` (incremental core numbers) and a
:class:`~repro.core.index.KPIndex`, and keeps the index exact under single
edge updates.  Per update it:

1. applies the edge to the graph and incrementally repairs core numbers,
2. skips every ``A_k`` with ``k`` above ``max(cn(u), cn(v))``
   (Theorem 2 for insertion, Theorem 7 for deletion),
3. skips an array of insertion case 1.2 (only the larger-core endpoint is
   in the k-core) when the Theorem 5 support bound certifies that its
   p-number cannot drop (Theorem 6),
4. re-peels every other affected ``A_k`` whole.

Algorithms 4/5 would re-peel only the ``[p_-, p_+]`` window of a
membership-stable array and stop once the peel level passes ``p_+``
(Theorems 3-5, 8, 9).  On the flat kernel that does not pay: the two-hop
``p̃`` bound behind ``p_+`` costs about as much as re-peeling the whole
array, and a window small enough to win is rare on the stand-in datasets
(docs/performance.md, "Maintenance re-peels").  Under a metrics collector
the cheap ``p_-`` bounds are still derived and recorded, so the window
metrics show how much of each array a window could have skipped.

Every re-peel runs the one fixed-k kernel of :mod:`repro.core.peel_flat`
on one :class:`~repro.graph.compact.CompactAdjacency` +
:class:`~repro.core.peel_flat.FlatScratch` of the live graph, built
lazily at most once per update (``_LiveView``).

Two modes support the ablation benchmark: ``RANGE`` (the Theorem 2/6/7
skip rules) and ``FULL_K`` (Theorem 2/7 skips only).  Both are
property-tested for exact agreement with from-scratch decomposition.

:meth:`KPIndexMaintainer.apply_batch` amortizes a *burst* of updates: the
batch is coalesced (insert+delete pairs of one edge cancel), and each
affected ``A_k`` re-peels exactly **once** per batch on one shared
snapshot of the post-batch graph (optionally fanned across the
``repro.core.parallel`` worker pool).  Version counters consequently
bump once per touched array per batch, which is what lets the serving
cache invalidate once instead of once per edge (see docs/algorithms.md,
"Batched maintenance").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.devtools.contracts import (
    verify_batch_state,
    verify_maintainer_query,
    verify_maintainer_update,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.kcore.order_maintenance import OrderBasedCoreMaintainer
from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    ParameterError,
    SelfLoopError,
)
from repro.graph.adjacency import Graph, Vertex
from repro.graph.compact import CompactAdjacency
from repro.kcore.maintenance import CoreMaintainer
from repro.obs import names as metric
from repro.obs.instrumentation import Instrumentation, get_collector, maybe_span
from repro.obs.trace import maybe_trace_span
from repro.core.bounds import deletion_pair_bound, insertion_support_bound
from repro.core.index import KArray, KPIndex
from repro.core.parallel import peel_all_k
from repro.core.peel_flat import FlatScratch, peel_fixed_k_flat

__all__ = [
    "MaintenanceMode",
    "MaintenanceStats",
    "BatchReport",
    "coalesce_updates",
    "KPIndexMaintainer",
]


class MaintenanceMode(enum.Enum):
    """Which skip rules an update applies before re-peeling."""

    #: Theorems 2/7 skip rules only; affected arrays re-peel in full.
    FULL_K = "full-k"
    #: Additionally skip insertion case 1.2 arrays via Theorem 6 — what
    #: Algorithms 4/5 keep once every re-peel is whole.
    RANGE = "range"


@dataclass
class MaintenanceStats:
    """Work counters for the efficiency/ablation benchmarks.

    ``early_stops`` (window re-peels stopped at ``p_+``) and
    ``fallback_rebuilds`` (window splices that fell back to a whole
    re-peel) stay 0 now that every re-peel is whole; the fields remain
    because the benchmark tables report them.
    """

    insertions: int = 0
    deletions: int = 0
    arrays_examined: int = 0
    arrays_skipped_theorem6: int = 0
    arrays_updated: int = 0
    vertices_repeeled: int = 0
    early_stops: int = 0
    fallback_rebuilds: int = 0
    batches: int = 0
    batch_cancelled_pairs: int = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class BatchReport:
    """What one :meth:`KPIndexMaintainer.apply_batch` call did.

    Every affected array re-peels whole; ``windowed_repeels`` counts the
    membership-stable ones (Algorithm 4/5's window case) and
    ``full_repeels`` those whose k-core membership churned or that ran
    under ``FULL_K``.  Both are 0 for a coalesced batch of one update,
    which delegates to the single-edge algorithms verbatim.
    """

    applied: int
    cancelled_pairs: int
    arrays_repeeled: int
    windowed_repeels: int = 0
    full_repeels: int = 0


def coalesce_updates(
    graph: Graph, updates: Iterable[tuple[str, Vertex, Vertex]]
) -> tuple[list[tuple[str, Vertex, Vertex]], int]:
    """Validate a mixed batch and reduce it to net per-edge operations.

    Each edge keeps at most one net op: an insert+delete pair on the same
    edge (in either order) cancels outright, and the whole op sequence is
    validated against the *simulated* edge presence before anything
    mutates — a self-loop, a double insert, or a delete of an absent edge
    raises with no state change, which is what makes
    :meth:`KPIndexMaintainer.apply_batch` all-or-nothing in memory.
    Returns the net ops in first-touch order (first-seen endpoint
    orientation) plus the number of cancelled insert+delete pairs.
    """
    initial: dict[frozenset[Vertex], bool] = {}
    current: dict[frozenset[Vertex], bool] = {}
    orientation: dict[frozenset[Vertex], tuple[Vertex, Vertex]] = {}
    op_counts: dict[frozenset[Vertex], int] = {}
    order: list[frozenset[Vertex]] = []
    for op, u, v in updates:
        if op not in ("insert", "delete"):
            raise ParameterError(
                f"unknown update op {op!r} (expected 'insert' or 'delete')"
            )
        if u == v:
            raise SelfLoopError(u)
        edge = frozenset((u, v))
        if edge not in current:
            present = graph.has_edge(u, v)
            initial[edge] = present
            current[edge] = present
            orientation[edge] = (u, v)
            op_counts[edge] = 0
            order.append(edge)
        op_counts[edge] += 1
        if op == "insert":
            if current[edge]:
                raise EdgeExistsError(u, v)
            current[edge] = True
        else:
            if not current[edge]:
                raise EdgeNotFoundError(u, v)
            current[edge] = False
    net: list[tuple[str, Vertex, Vertex]] = []
    cancelled = 0
    for edge in order:
        u, v = orientation[edge]
        surviving = 0 if current[edge] == initial[edge] else 1
        cancelled += (op_counts[edge] - surviving) // 2
        if surviving:
            net.append(("insert" if current[edge] else "delete", u, v))
    return net, cancelled


class _LiveView:
    """The flat kernel's view of the live graph, built at most once.

    One :class:`CompactAdjacency` (neighbours sorted by descending core
    number) and one :class:`FlatScratch` serve every array an update or
    batch re-peels.  Both are built lazily, after the graph mutation, so
    an update whose arrays are all skipped builds nothing.
    """

    __slots__ = ("_graph", "_cores", "_snapshot", "_core", "_scratch")

    def __init__(
        self,
        graph: Graph,
        cores: CoreMaintainer | OrderBasedCoreMaintainer,
    ) -> None:
        self._graph = graph
        self._cores = cores
        self._snapshot: CompactAdjacency | None = None
        self._core: list[int] = []
        self._scratch: FlatScratch | None = None

    def snapshot(self) -> tuple[CompactAdjacency, list[int]]:
        """The CSR snapshot and its core numbers (by internal id)."""
        if self._snapshot is None:
            with maybe_trace_span(metric.TRACE_MAINT_SNAPSHOT):
                self._snapshot, self._core = self._build_snapshot()
        return self._snapshot, self._core

    def scratch(self) -> FlatScratch:
        """The flat scratch over :meth:`snapshot` (shared by every peel)."""
        if self._scratch is None:
            with maybe_trace_span(metric.TRACE_MAINT_SNAPSHOT):
                if self._snapshot is None:
                    self._snapshot, self._core = self._build_snapshot()
                self._scratch = FlatScratch(self._snapshot, self._core)
        return self._scratch

    def _build_snapshot(self) -> tuple[CompactAdjacency, list[int]]:
        snapshot = CompactAdjacency(self._graph)
        cn = self._cores.core_numbers()
        core = [cn.get(label, 0) for label in snapshot.labels]
        snapshot.sort_neighbors_by_rank_desc(core)
        return snapshot, core


class KPIndexMaintainer:
    """Keeps a :class:`KPIndex` exact while its graph receives edge updates.

    Parameters
    ----------
    graph:
        The graph to index; the maintainer takes ownership — mutate it only
        through :meth:`insert_edge` / :meth:`delete_edge`.
    mode:
        See :class:`MaintenanceMode`.
    strict:
        Accepted for compatibility and ignored: it guarded the window
        splice (raise instead of falling back to a whole re-peel), and
        every re-peel is now whole.
    core_backend:
        Which incremental core-number algorithm repairs ``cn`` values:
        ``"traversal"`` (the subcore algorithm of [18], default) or
        ``"order"`` (the k-order candidate walks of [30], see
        :mod:`repro.kcore.order_maintenance`).  Both are exact; the knob
        exists for the ablation benches.
    index:
        An already-built :class:`KPIndex` of exactly ``graph`` — a loaded
        checkpoint in the durability layer (:mod:`repro.service`) — to
        resume from instead of rebuilding with Algorithm 2.  The caller
        is responsible for the graph/index pairing (the service layer
        verifies it via graph fingerprints); the index is structurally
        :meth:`~KPIndex.validate`-d here.
    """

    def __init__(
        self,
        graph: Graph,
        mode: MaintenanceMode = MaintenanceMode.RANGE,
        strict: bool = False,
        core_backend: str = "traversal",
        index: KPIndex | None = None,
    ) -> None:
        self.graph = graph
        self.mode = mode
        self.strict = strict
        #: Write-ahead hooks: each callable receives ``(op, u, v)`` with
        #: ``op`` in ``{"insert", "delete"}`` *before* the update is
        #: applied — the journaling point of :mod:`repro.service`.  A hook
        #: that raises aborts the update before any state changes.
        self.update_hooks: list[Callable[[str, Vertex, Vertex], None]] = []
        #: Batch write-ahead hooks: each callable receives the *coalesced*
        #: net op list once per :meth:`apply_batch`, after validation and
        #: before any mutation — the atomic-group journaling point of
        #: :class:`repro.service.durable.DurableMaintainer`.  ``apply_batch``
        #: deliberately does **not** fire the per-edge ``update_hooks``
        #: (a batch must journal as one record, not be double-logged).
        self.batch_hooks: list[
            Callable[[Sequence[tuple[str, Vertex, Vertex]]], None]
        ] = []
        self._cores: CoreMaintainer | OrderBasedCoreMaintainer
        if core_backend == "traversal":
            self._cores = CoreMaintainer(graph)
        elif core_backend == "order":
            from repro.kcore.order_maintenance import OrderBasedCoreMaintainer

            self._cores = OrderBasedCoreMaintainer(graph)
        else:
            raise ParameterError(
                f"unknown core_backend {core_backend!r} "
                "(expected 'traversal' or 'order')"
            )
        if index is None:
            self.index = KPIndex.build(graph)
        else:
            index.validate()
            self.index = index
        self.stats = MaintenanceStats()

    def _fire_update_hooks(self, op: str, u: Vertex, v: Vertex) -> None:
        for hook in self.update_hooks:
            hook(op, u, v)

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------
    def core_number(self, v: Vertex) -> int:
        return self._cores.core_number(v)

    @verify_maintainer_query
    def query(self, k: int, p: float) -> list[Vertex]:
        """Answer a (k,p)-core query on the current graph.

        Under ``REPRO_VERIFY=1`` the answer is compared against a
        from-scratch :func:`repro.core.kpcore.kp_core_vertices` run.
        """
        return self.index.query(k, p)

    @verify_maintainer_query
    def query_slice(self, k: int, p: float) -> tuple[Vertex, ...]:
        """The (k,p)-core answer as the index's stored tuple (shared).

        The serving hot path: no per-query list build.  Verified against
        from-scratch kpCore under ``REPRO_VERIFY=1`` like :meth:`query`.
        """
        return self.index.query_slice(k, p)

    # ------------------------------------------------------------------
    # vertex dynamics (Sec. VI preamble): reduce to edge updates
    # ------------------------------------------------------------------
    def insert_vertex(self, v: Vertex, neighbors: Iterable[Vertex] = ()) -> None:
        """Insert a vertex and then each of its incident edges.

        Following the paper, a fresh vertex starts with ``cn = 0`` and
        ``pn = 0`` everywhere; every incident edge is handled by
        :meth:`insert_edge`.
        """
        self.graph.add_vertex(v)
        self._cores.insert_vertex(v)
        for w in neighbors:
            self.insert_edge(v, w)

    def delete_vertex(self, v: Vertex) -> None:
        """Delete ``v`` by removing its incident edges one at a time."""
        for w in list(self.graph.neighbors(v)):
            self.delete_edge(v, w)
        self._cores.delete_vertex(v)
        array = self.index.arrays().get(1)
        if array is not None and array.contains(v):
            array.vertices = [w for w in array.vertices if w != v]
            array.p_numbers = [1.0] * len(array.vertices)
            array._rebuild_levels()
            self.index.bump_version(1)

    def apply_updates(
        self,
        insertions: Iterable[tuple[Vertex, Vertex]] = (),
        deletions: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        """Apply a batch of edge updates (deletions first, then insertions).

        Convenience wrapper over the single-edge algorithms; the index is
        exact after every intermediate step, so a failure mid-batch leaves
        a consistent (partially updated) state.
        """
        for u, v in deletions:
            self.delete_edge(u, v)
        for u, v in insertions:
            self.insert_edge(u, v)

    # ------------------------------------------------------------------
    # batched maintenance: one re-peel per affected A_k
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        updates: Iterable[tuple[str, Vertex, Vertex]],
        *,
        workers: int = 1,
    ) -> BatchReport:
        """Apply a mixed batch of ``(op, u, v)`` updates, coalesced.

        The batch is validated and coalesced first
        (:func:`coalesce_updates`) — an invalid op sequence raises before
        anything mutates, and insert+delete pairs of the same edge cancel
        without touching the index at all.  Every surviving update is then
        applied to the graph/core numbers, and each affected ``A_k`` (the
        Theorem 2/7 k-range of some update) re-peels whole exactly
        **once**, on one :class:`CompactAdjacency` snapshot and one
        scratch of the post-batch graph; ``workers > 1`` fans the
        re-peels across the process pool.

        Each touched array bumps its version once per batch, so serving
        caches invalidate once instead of once per edge.  A coalesced
        batch of exactly one update delegates to the single-edge
        Algorithm 4/5 code path verbatim (same Theorem 6 skips, same
        version bumps).
        """
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        ops, cancelled = coalesce_updates(self.graph, updates)
        self.stats.batches += 1
        self.stats.batch_cancelled_pairs += cancelled
        obs = get_collector()
        if obs is not None:
            obs.inc(metric.MAINT_BATCH_BATCHES)
            obs.add(metric.MAINT_BATCH_UPDATES, len(ops))
            obs.add(metric.MAINT_BATCH_CANCELLED, cancelled)
        if not ops:
            return BatchReport(0, cancelled, 0)
        for hook in self.batch_hooks:
            hook(ops)
        before_updated = self.stats.arrays_updated
        if len(ops) == 1:
            op, u, v = ops[0]
            if op == "insert":
                with maybe_span(metric.MAINT_SPAN_INSERT):
                    self._insert_edge_impl(u, v)
            else:
                with maybe_span(metric.MAINT_SPAN_DELETE):
                    self._delete_edge_impl(u, v)
            verify_batch_state(self, (u, v))
            return BatchReport(
                1, cancelled, self.stats.arrays_updated - before_updated
            )
        with maybe_span(metric.MAINT_SPAN_BATCH):
            windowed, full = self._apply_batch_impl(ops, workers)
        verify_batch_state(
            self, tuple({w for _, u, v in ops for w in (u, v)})
        )
        return BatchReport(
            applied=len(ops),
            cancelled_pairs=cancelled,
            arrays_repeeled=self.stats.arrays_updated - before_updated,
            windowed_repeels=windowed,
            full_repeels=full,
        )

    def _apply_batch_impl(
        self,
        ops: Sequence[tuple[str, Vertex, Vertex]],
        workers: int,
    ) -> tuple[int, int]:
        """Apply coalesced ``ops``; returns (stable, churned) re-peel counts."""
        obs = get_collector()
        # k -> whether the k-core's membership changed at any point of the
        # batch (a promote/demote event fired at k, even if a later
        # opposite event cancelled it).
        churned: dict[int, bool] = {}
        for op, u, v in ops:
            if op == "insert":
                cn_old_u = self._cores.core_number_or(u)
                cn_old_v = self._cores.core_number_or(v)
                promoted = self._cores.insert_edge(u, v)
                self.stats.insertions += 1
                self.index.adjust_num_edges(+1)
                low = min(cn_old_u, cn_old_v)
                k_changed = low + 1 if promoted else None
                k_max = max(
                    self._cores.core_number(u), self._cores.core_number(v)
                )  # Theorem 2
            else:
                cn_old_u = self._cores.core_number(u)
                cn_old_v = self._cores.core_number(v)
                demoted = self._cores.delete_edge(u, v)
                self.stats.deletions += 1
                self.index.adjust_num_edges(-1)
                low = min(cn_old_u, cn_old_v)
                k_changed = low if demoted else None
                k_max = max(cn_old_u, cn_old_v)  # Theorem 7
            for k in range(2, k_max + 1):
                churned.setdefault(k, False)
            if k_changed is not None and k_changed >= 2:
                churned[k_changed] = True

        self._update_a1_after_batch(ops)

        stable = 0
        for k in sorted(churned):
            self.stats.arrays_examined += 1
            if obs is not None:
                obs.inc(metric.MAINT_ARRAYS_EXAMINED)
            self._ensure_array(k)
            if self.mode is MaintenanceMode.RANGE and not churned[k]:
                stable += 1
        full = len(churned) - stable
        self._repeel_all(sorted(churned), workers)
        if obs is not None:
            obs.add(metric.MAINT_BATCH_WINDOW_UNIONS, stable)
            obs.add(metric.MAINT_BATCH_FULL_REPEELS, full)
            obs.add(metric.MAINT_BATCH_ARRAYS, len(churned))
        return stable, full

    def _repeel_all(self, ks: Sequence[int], workers: int) -> None:
        """Re-peel every ``A_k`` of ``ks`` (ascending) on one snapshot.

        With ``workers > 1`` the peels fan out across the
        ``repro.core.parallel`` pool (the snapshot ships once per worker).
        """
        if not ks:
            return
        live = _LiveView(self.graph, self._cores)
        pooled: dict[int, tuple[list[int], list[float]]] = {}
        if workers > 1 and len(ks) > 1:
            snapshot, core = live.snapshot()
            with maybe_trace_span(metric.TRACE_MAINT_PEEL, arrays=len(ks)):
                pooled = peel_all_k(
                    snapshot, core, max(ks), workers=workers, ks=list(ks)
                )
        arrays = self.index.arrays()
        for k in ks:
            self._repeel(arrays[k], live, pooled.get(k))

    def _update_a1_after_batch(
        self, ops: Sequence[tuple[str, Vertex, Vertex]]
    ) -> None:
        """One-shot A_1 bookkeeping for a whole batch (single bump).

        Runs after every graph mutation of the batch: A_1 membership is
        purely degree-based (every non-isolated vertex, pn 1.0), so the
        final graph decides the adds and drops in one pass.
        """
        endpoints = {w for _, u, v in ops for w in (u, v)}
        if not endpoints:
            return
        array = self._ensure_array(1)
        graph = self.graph
        drop = {w for w in endpoints if graph.degree(w) == 0}
        added: set[Vertex] = set()
        add: list[Vertex] = []
        for _, u, v in ops:
            for w in (u, v):
                if w in drop or w in added or array.contains(w):
                    continue
                added.add(w)
                add.append(w)
        if not drop.intersection(array.members_view()) and not add:
            return
        if drop:
            array.vertices = [w for w in array.vertices if w not in drop]
        array.vertices.extend(add)
        array.p_numbers = [1.0] * len(array.vertices)
        array._rebuild_levels()
        self.index.bump_version(1)

    # ------------------------------------------------------------------
    # edge insertion — Algorithm 4 (kpIndexInsert)
    # ------------------------------------------------------------------
    @verify_maintainer_update
    def insert_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert ``(u, v)`` and repair the index.

        Under ``REPRO_OBS`` the update records one counter per theorem it
        fires (Thms. 2, 3, 5, 6) plus the ``p_-`` bound of each
        membership-stable array it re-peels.
        """
        self._fire_update_hooks("insert", u, v)
        with maybe_span(metric.MAINT_SPAN_INSERT):
            self._insert_edge_impl(u, v)

    def _insert_edge_impl(self, u: Vertex, v: Vertex) -> None:
        obs = get_collector()
        cn_old_u = self._cores.core_number_or(u)
        cn_old_v = self._cores.core_number_or(v)
        promoted = self._cores.insert_edge(u, v)  # graph is now G+
        self.stats.insertions += 1
        self.index.adjust_num_edges(+1)
        self._update_a1_after_insert(u, v)

        low, high = sorted((cn_old_u, cn_old_v))
        small, large = (u, v) if cn_old_u <= cn_old_v else (v, u)
        k_changed = low + 1 if promoted else None
        k_max = max(self._cores.core_number(u), self._cores.core_number(v))
        if obs is not None:
            # Theorem 2: every A_k with k > max(cn(u), cn(v)) is provably
            # untouched — count how many the k-range cut skips outright.
            obs.add(
                metric.MAINT_THM2_SKIPS,
                max(0, self.index.degeneracy - max(k_max, 1)),
            )

        live = _LiveView(self.graph, self._cores)
        for k in range(2, k_max + 1):
            self.stats.arrays_examined += 1
            if obs is not None:
                obs.inc(metric.MAINT_ARRAYS_EXAMINED)
            array = self._ensure_array(k)
            if self.mode is MaintenanceMode.RANGE:
                if k == k_changed:
                    # Minor case: `promoted` just joined this k-core.
                    if obs is not None:
                        obs.inc(metric.MAINT_MINOR_CASES)
                elif self._insert_unchanged(array, u, v, low, large):
                    continue
            self._repeel(array, live)

    def _insert_unchanged(
        self, array: KArray, u: Vertex, v: Vertex, low: int, large: Vertex
    ) -> bool:
        """Theorem 6 for one membership-stable array (insertion).

        True when the array provably cannot change; otherwise the caller
        re-peels it whole.
        """
        obs = get_collector()
        if array.k <= low:
            # Case 1.1: both endpoints are in the (unchanged) k-core.  No
            # skip applies; Theorem 3's p_- is recorded for the metrics.
            if obs is not None:
                with maybe_trace_span(metric.TRACE_MAINT_BOUNDS, k=array.k):
                    p_minus = min(
                        array.p_number_or(u, 0.0), array.p_number_or(v, 0.0)
                    )
                obs.inc(metric.MAINT_THM3_WINDOWS)
                self._record_window(obs, p_minus)
            return False
        # Case 1.2: cn(small) < k <= cn(large); only `large` is in the
        # k-core and its p-number can only decrease.
        with maybe_trace_span(metric.TRACE_MAINT_BOUNDS, k=array.k):
            p1 = array.p_number_or(large, 0.0)
            core_at_p1 = set(array.query(p1))
            p_star = insertion_support_bound(self.graph, core_at_p1, large, p1)
        if p_star >= p1:  # Theorem 6: A_k provably unchanged
            self.stats.arrays_skipped_theorem6 += 1
            if obs is not None:
                obs.inc(metric.MAINT_THM6_SKIPS)
            return True
        if obs is not None:
            obs.inc(metric.MAINT_THM5_WINDOWS)
            self._record_window(obs, p_star)
        return False

    # ------------------------------------------------------------------
    # edge deletion — Algorithm 5 (kpIndexDelete)
    # ------------------------------------------------------------------
    @verify_maintainer_update
    def delete_edge(self, u: Vertex, v: Vertex) -> None:
        """Delete ``(u, v)`` and repair the index.

        Under ``REPRO_OBS`` the update records one counter per theorem it
        fires (Thms. 7, 8) plus the ``p_-`` bound of each membership-stable
        array it re-peels.
        """
        self._fire_update_hooks("delete", u, v)
        with maybe_span(metric.MAINT_SPAN_DELETE):
            self._delete_edge_impl(u, v)

    def _delete_edge_impl(self, u: Vertex, v: Vertex) -> None:
        obs = get_collector()
        if not self.graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        cn_old_u = self._cores.core_number(u)
        cn_old_v = self._cores.core_number(v)
        demoted = self._cores.delete_edge(u, v)  # graph is now G-
        self.stats.deletions += 1
        self.index.adjust_num_edges(-1)
        self._update_a1_after_delete(u, v)

        low, high = sorted((cn_old_u, cn_old_v))
        large = v if cn_old_v >= cn_old_u else u
        k_changed = low if demoted else None
        k_max = high  # Theorem 7
        if obs is not None:
            # Theorem 7: arrays above both old core numbers are untouched.
            obs.add(
                metric.MAINT_THM7_SKIPS,
                max(0, self.index.degeneracy - max(k_max, 1)),
            )

        live = _LiveView(self.graph, self._cores)
        for k in range(2, k_max + 1):
            self.stats.arrays_examined += 1
            if obs is not None:
                obs.inc(metric.MAINT_ARRAYS_EXAMINED)
            array = self._ensure_array(k)
            if self.mode is MaintenanceMode.RANGE and obs is not None:
                if k == k_changed:
                    # Minor case: `demoted` just left this k-core.
                    obs.inc(metric.MAINT_MINOR_CASES)
                else:
                    self._record_delete_bound(obs, array, u, v, low, large)
            self._repeel(array, live)

    def _record_delete_bound(
        self,
        obs: Instrumentation,
        array: KArray,
        u: Vertex,
        v: Vertex,
        low: int,
        large: Vertex,
    ) -> None:
        """Record Theorem 8's ``p_-`` of one membership-stable array.

        Deletion has no skip rule below ``k_max``; the bound only feeds
        the window metrics, so it is derived only under a collector.
        """
        with maybe_trace_span(metric.TRACE_MAINT_BOUNDS, k=array.k):
            if array.k <= low:
                # Both endpoints in the k-core: Thm. 8 / Def. 7 via the
                # sound pair bound.
                p1 = min(array.p_number(u), array.p_number(v))
                p_minus = deletion_pair_bound(
                    self.graph, set(array.query(p1)), u, v, array.k, p1
                )
            else:
                # Only `large` in the k-core; its p-number can only rise.
                p_minus = array.p_number(large)
        obs.inc(metric.MAINT_THM8_WINDOWS)
        self._record_window(obs, p_minus)

    # ------------------------------------------------------------------
    # A_1 bookkeeping: every 1-core vertex has p-number exactly 1.0
    # ------------------------------------------------------------------
    # For k = 1 the (1,p)-core is the whole graph minus isolated vertices,
    # for *every* p in [0, 1]: each vertex keeps all of its neighbours, so
    # every fraction is 1.  A_1 therefore only tracks membership.
    def _update_a1_after_insert(self, u: Vertex, v: Vertex) -> None:
        array = self._ensure_array(1)
        changed = False
        for w in (u, v):
            if not array.contains(w):
                array.vertices.append(w)
                array.p_numbers.append(1.0)
                changed = True
        if changed:
            array._rebuild_levels()
            self.index.bump_version(1)

    def _update_a1_after_delete(self, u: Vertex, v: Vertex) -> None:
        isolated = [w for w in (u, v) if self.graph.degree(w) == 0]
        if not isolated:
            return
        array = self._ensure_array(1)
        drop = set(isolated)
        before = len(array.vertices)
        array.vertices = [w for w in array.vertices if w not in drop]
        array.p_numbers = [1.0] * len(array.vertices)
        array._rebuild_levels()
        if len(array.vertices) != before:
            self.index.bump_version(1)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _record_window(obs: Instrumentation, p_minus: float) -> None:
        """Record the ``p_-`` bound of one re-peeled membership-stable array.

        No ``p_+`` is evaluated, so the window's upper end is the trivial
        1.0 and its width ``1 - p_-`` is the span of p-numbers a window
        re-peel could not have skipped.  A negative width would expose a
        bound outside ``[0, 1]``; the pruning tests assert there is none.
        """
        obs.observe(metric.MAINT_WINDOW_P_MINUS, p_minus)
        obs.observe(metric.MAINT_WINDOW_P_PLUS, 1.0)
        obs.observe(metric.MAINT_WINDOW_WIDTH, 1.0 - p_minus)

    def _ensure_array(self, k: int) -> KArray:
        arrays = self.index.arrays()
        array = arrays.get(k)
        if array is None:
            array = KArray(k=k, vertices=[], p_numbers=[])
            arrays[k] = array
            # Creation is a mutation: a cached "no A_k" answer may now be
            # wrong, so the version oracle must move past it.
            self.index.bump_version(k)
        return array

    def _repeel(
        self,
        array: KArray,
        live: _LiveView,
        peeled: tuple[list[int], list[float]] | None = None,
    ) -> None:
        """Replace ``A_k`` by Algorithm 2's peel of the live k-core.

        ``peeled`` may carry that peel from the worker pool.
        """
        k = array.k
        # Bump before touching the array: even an exceptional exit below
        # may leave A_k mutated, and a conservative bump only costs cache
        # entries — it can never let a stale answer survive.
        self.index.bump_version(k)
        if peeled is None:
            scratch = live.scratch()
            with maybe_trace_span(metric.TRACE_MAINT_PEEL, k=k):
                peeled = peel_fixed_k_flat(
                    scratch.snapshot, scratch.core, k, scratch=scratch
                )
        order, p_numbers = peeled
        labels = live.snapshot()[0].labels
        with maybe_trace_span(metric.TRACE_MAINT_SPLICE, k=k):
            array.vertices = [labels[i] for i in order]
            array.p_numbers = list(p_numbers)
            array._rebuild_levels()
        self.stats.arrays_updated += 1
        self.stats.vertices_repeeled += len(order)
        obs = get_collector()
        if obs is not None:
            obs.inc(metric.MAINT_ARRAYS_REPEELED)
            obs.add(metric.MAINT_VERTICES_REPEELED, len(order))
