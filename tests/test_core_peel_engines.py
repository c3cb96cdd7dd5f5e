"""Tests for Algorithm 2's fixed-k peel (:mod:`repro.core.peel_flat`).

The contract under test, for every graph and every ``k``: the peel's
p-numbers equal the definition-literal oracle
:func:`repro.core.naive.naive_p_numbers_fixed_k` vertex by vertex, the
deletion order is canonical (ids sorted within each equal-p run, p
strictly increasing between runs), and a shared :class:`FlatScratch`
changes nothing.  The graph families include ties at the minimum
fraction and degree-violation cascades, where a peel is easiest to get
wrong.  A golden digest pins the full decomposition of two builtin
stand-ins byte for byte — the oracle checks sets and values, not order.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.graph.adjacency import Graph
from repro.graph.compact import CompactAdjacency
from repro.graph.fingerprint import graph_fingerprint
from repro.graph.generators import erdos_renyi_gnm
from repro.datasets import load
from repro.kcore.decomposition import core_numbers_compact
from repro.core.decomposition import kp_core_decomposition
from repro.core.naive import naive_p_numbers_fixed_k
from repro.core.peel_engines import DEFAULT_ENGINE, make_scratch
from repro.core.peel_flat import (
    FlatScratch,
    composite_key,
    key_scale,
    peel_fixed_k_flat,
)


def _prepared(graph: Graph):
    """(snapshot, core numbers) ready for the peel."""
    snapshot = CompactAdjacency(graph)
    core, _ = core_numbers_compact(snapshot)
    snapshot.sort_neighbors_by_rank_desc(core)
    return snapshot, core


def _assert_canonical(order: list[int], p_numbers: list[float]) -> None:
    """Ids sorted within each equal-p run; p strictly increases between runs."""
    assert len(order) == len(p_numbers) == len(set(order))
    levels = []
    for level, run in groupby(zip(p_numbers, order), key=lambda pair: pair[0]):
        ids = [v for _, v in run]
        assert ids == sorted(ids), (level, ids)
        levels.append(level)
    assert all(a < b for a, b in zip(levels, levels[1:])), levels


def _assert_matches_oracle(graph: Graph) -> None:
    """For every k (one past the degeneracy too): oracle, canonical, scratch."""
    snapshot, core = _prepared(graph)
    labels = snapshot.labels
    scratch = FlatScratch(snapshot, core)
    for k in range(1, max(core, default=0) + 2):
        order, p_numbers = peel_fixed_k_flat(snapshot, core, k)
        by_label = {labels[v]: pn for v, pn in zip(order, p_numbers)}
        assert len(by_label) == len(order), k
        assert by_label == naive_p_numbers_fixed_k(graph, k), k
        _assert_canonical(order, p_numbers)
        shared = peel_fixed_k_flat(snapshot, core, k, scratch=scratch)
        assert shared == (order, p_numbers), (k, "scratch")


class TestEngineBasics:
    def test_empty_k_core(self, triangle):
        snapshot, core = _prepared(triangle)
        assert peel_fixed_k_flat(snapshot, core, 3) == ([], [])

    def test_triangle_all_peel_at_one(self, triangle):
        snapshot, core = _prepared(triangle)
        order, p_numbers = peel_fixed_k_flat(snapshot, core, 2)
        assert order == [0, 1, 2]
        assert p_numbers == [1.0, 1.0, 1.0]  # noqa: KP002 exact-double oracle

    def test_k_below_one_rejected(self, triangle):
        snapshot, core = _prepared(triangle)
        with pytest.raises(ParameterError, match="k must be >= 1"):
            peel_fixed_k_flat(snapshot, core, 0)

    def test_canonical_order_within_rounds(self):
        # K4 peels in a single round at level 1.0: canonical order is by
        # internal id.
        g = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        snapshot, core = _prepared(g)
        order, p_numbers = peel_fixed_k_flat(snapshot, core, 3)
        assert order == sorted(order)
        assert len(set(p_numbers)) == 1


class TestEngineEquivalence:
    """The peel against the naive oracle, family by family."""

    def test_tie_at_minimum_fraction(self):
        # Two components whose minimum fractions tie exactly at 1/2:
        # a K4 whose vertex 0 carries three pendants (3/6 = 0.5) and a K5
        # whose vertex 10 carries four pendants (4/8 = 0.5).  Both seeds
        # must start the same round.
        edges = [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (0, 4), (0, 5), (0, 6),
            (10, 11), (10, 12), (10, 13), (10, 14),
            (11, 12), (11, 13), (11, 14), (12, 13), (12, 14), (13, 14),
            (10, 15), (10, 16), (10, 17), (10, 18),
        ]
        _assert_matches_oracle(Graph(edges))

    def test_degree_violation_cascade(self):
        # At k=3 the K5's satellites die immediately; deleting the K4-ring
        # bridge drags vertices below degree 3 mid-round, so the cascade
        # must kill them within the same round.
        edges = [
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (5, 0), (5, 1), (5, 2),
            (6, 5), (6, 0), (6, 1),
            (7, 6), (7, 5), (7, 0),
        ]
        _assert_matches_oracle(Graph(edges))

    def test_inherited_p_number_cascade(self, cascade_graph):
        _assert_matches_oracle(cascade_graph)

    def test_figure1_like(self, figure1_like_graph):
        _assert_matches_oracle(figure1_like_graph)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graph_sweep(self, random_graph_factory, seed):
        _assert_matches_oracle(random_graph_factory(seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_denser_random_graphs(self, seed):
        _assert_matches_oracle(erdos_renyi_gnm(40, 300, seed=seed))

    def test_single_vertex_graph(self):
        g = Graph()
        g.add_vertex("lonely")
        # Degeneracy 0: the oracle sweep still peels k=1, whose core is empty.
        _assert_matches_oracle(g)

    def test_star_max_degree_graph(self):
        # A hub of maximum degree stresses the composite-key scale: the
        # ladder of the hub holds d_max distinct fractions a/d_max.
        hub_edges = [("hub", i) for i in range(25)]
        _assert_matches_oracle(Graph(hub_edges))

    def test_max_degree_clique_with_pendants(self):
        edges = [(u, w) for u in range(8) for w in range(u + 1, 8)]
        edges += [(0, f"p{i}") for i in range(12)]
        _assert_matches_oracle(Graph(edges))

    @given(
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_oracle(self, edges):
        _assert_matches_oracle(Graph(edges))


class TestCompositeKeys:
    """The peel's integer keys must order exactly like rationals."""

    def test_key_ordering_equals_fraction_ordering_exhaustive(self):
        for d_max in (1, 2, 3, 7, 16, 31):
            scale = key_scale(d_max)
            pairs = [
                (a, b) for b in range(1, d_max + 1) for a in range(0, b + 1)
            ]
            for a1, b1 in pairs:
                for a2, b2 in pairs:
                    k1 = composite_key(a1, b1, scale)
                    k2 = composite_key(a2, b2, scale)
                    f1, f2 = Fraction(a1, b1), Fraction(a2, b2)
                    assert (k1 < k2) == (f1 < f2), (a1, b1, a2, b2, d_max)
                    assert (k1 == k2) == (f1 == f2), (a1, b1, a2, b2, d_max)

    @given(
        st.integers(1, 10_000),
        st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
        st.tuples(st.integers(1, 10_000), st.integers(1, 10_000)),
    )
    @settings(max_examples=300, deadline=None)
    def test_key_ordering_property(self, d_max, numerators, denominators):
        b1 = 1 + (denominators[0] - 1) % d_max
        b2 = 1 + (denominators[1] - 1) % d_max
        a1 = numerators[0] % (b1 + 1)
        a2 = numerators[1] % (b2 + 1)
        scale = key_scale(d_max)
        k1 = composite_key(a1, b1, scale)
        k2 = composite_key(a2, b2, scale)
        f1, f2 = Fraction(a1, b1), Fraction(a2, b2)
        assert (k1 < k2) == (f1 < f2)
        assert (k1 == k2) == (f1 == f2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParameterError, match="denominator"):
            composite_key(1, 0, key_scale(4))


class TestEngineScratch:
    """Scratch semantics: reuse, validation, out-of-order k."""

    def test_make_scratch_types(self, figure1_like_graph):
        snapshot, core = _prepared(figure1_like_graph)
        assert isinstance(
            make_scratch(DEFAULT_ENGINE, snapshot, core), FlatScratch
        )

    def test_make_scratch_rejects_unknown_engine(self, triangle):
        snapshot, core = _prepared(triangle)
        with pytest.raises(ParameterError, match="unknown peel engine"):
            make_scratch("heap", snapshot, core)

    def test_wrong_snapshot_rejected(self):
        snapshot_a, core_a = _prepared(erdos_renyi_gnm(20, 60, seed=1))
        snapshot_b, _ = _prepared(erdos_renyi_gnm(20, 60, seed=2))
        scratch = FlatScratch(snapshot_a, core_a)
        with pytest.raises(ParameterError, match="different snapshot"):
            peel_fixed_k_flat(snapshot_b, core_a, 1, scratch=scratch)

    def test_wrong_scratch_type_rejected(self, triangle):
        snapshot, core = _prepared(triangle)
        with pytest.raises(ParameterError, match="Scratch"):
            peel_fixed_k_flat(snapshot, core, 1, scratch=object())

    def test_out_of_order_k_rebuilds_prefixes(self):
        # Descending and repeated k exercise FlatScratch's backward
        # prefix-length rebuild — results must match fresh calls exactly.
        g = erdos_renyi_gnm(40, 200, seed=7)
        snapshot, core = _prepared(g)
        degeneracy = max(core, default=0)
        fresh = {
            k: peel_fixed_k_flat(snapshot, core, k)
            for k in range(1, degeneracy + 1)
        }
        scratch = FlatScratch(snapshot, core)
        sequence = (
            list(range(degeneracy, 0, -1))
            + [1, degeneracy]
            + list(range(1, degeneracy + 1))
        )
        for k in sequence:
            assert (
                peel_fixed_k_flat(snapshot, core, k, scratch=scratch)
                == fresh[k]
            ), k


#: sha256 of the canonical JSON of every ``(k, order, p_numbers)`` of
#: ``kp_core_decomposition`` on two builtin stand-ins, keyed by name and
#: guarded by the stand-in's (n, m, edge hash) fingerprint.
GOLDEN_DECOMPOSITIONS = {
    "facebook": (
        (806, 7121, "101d04ce4cb68a74043c85f8ff524de3"),
        "518b8292231edf673e3435b0a2792984246581ee622716d93944e741516c3cbe",
    ),
    "gowalla": (
        (3000, 15488, "d4de63a582d5e2d2bb777da3f77d95c0"),
        "83567b62d4576ed40aff31249a7854754aa11263aa359d10bc3ebeebb27cde9f",
    ),
}


class TestGoldenDecomposition:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DECOMPOSITIONS))
    def test_decomposition_digest_is_pinned(self, name):
        fingerprint, digest = GOLDEN_DECOMPOSITIONS[name]
        graph = load(name)
        fp = graph_fingerprint(graph)
        assert (fp.num_vertices, fp.num_edges, fp.edge_hash) == fingerprint
        decomposition = kp_core_decomposition(graph)
        payload = [
            [k, list(fixed.order), list(fixed.p_numbers)]
            for k, fixed in sorted(decomposition.arrays.items())
        ]
        blob = json.dumps(payload, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == digest
