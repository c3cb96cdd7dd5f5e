"""Compatibility names for the benchmark harness.

Algorithm 2 has one fixed-k peel, :func:`repro.core.peel_flat.
peel_fixed_k_flat`.  The ``kpbench`` harness times its ladder build
through the two names below, and kpbench is their only reason to exist:
nothing under ``src/`` calls them.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ParameterError
from repro.graph.compact import CompactAdjacency
from repro.core.peel_flat import FlatScratch

__all__ = ["DEFAULT_ENGINE", "make_scratch"]

#: The name of the one peel kernel.
DEFAULT_ENGINE = "flat"


def make_scratch(
    engine: str, snapshot: CompactAdjacency, core: Sequence[int]
) -> FlatScratch:
    """The :class:`FlatScratch` for one ``(snapshot, core)`` pair.

    ``engine`` must be :data:`DEFAULT_ENGINE`; any other name raises
    :class:`ParameterError`.
    """
    if engine != DEFAULT_ENGINE:
        raise ParameterError(
            f"unknown peel engine {engine!r} (known: {DEFAULT_ENGINE})"
        )
    return FlatScratch(snapshot, core)
