"""Measurement runner: execute TopRR methods on workloads and aggregate statistics.

Workloads are served through a per-dataset :class:`repro.engine.TopRREngine`
so that the dataset's affine score form is bound once per dataset rather
than recomputed per query.  Both LRU caches are disabled — the runner's job
is to *measure* solving, and serving a repeated workload from cache would
report the lookup, not the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine import TopRREngine
from repro.experiments.workloads import Workload
from repro.utils.timer import Timer

#: Method labels in the order the paper's figures list them.
METHOD_ORDER = ["PAC", "TAS", "TAS*"]

_METHOD_KEYS = {"PAC": "pac", "TAS": "tas", "TAS*": "tas*"}


@dataclass
class Measurement:
    """Aggregated outcome of running one method on a set of workloads."""

    method: str
    seconds: float
    n_vertices: float
    n_filtered: float
    n_splits: float
    per_query: List[dict] = field(default_factory=list)


def _measurement_engine(dataset, engines: Dict[int, TopRREngine]) -> TopRREngine:
    """One cache-less engine per distinct workload dataset (affine form bound once)."""
    engine = engines.get(id(dataset))
    if engine is None:
        engine = TopRREngine(dataset, skyband_cache_size=0, result_cache_size=0)
        engines[id(dataset)] = engine
    return engine


def run_method(
    method: str,
    workloads: Sequence[Workload],
    solver=None,
) -> Measurement:
    """Run ``method`` (or an explicit solver) on every workload and average the results."""
    rows = []
    engines: Dict[int, TopRREngine] = {}
    for workload in workloads:
        engine = _measurement_engine(workload.dataset, engines)
        timer = Timer().start()
        result = engine.query(
            workload.k,
            workload.region,
            method=solver if solver is not None else _METHOD_KEYS.get(method, method),
        )
        seconds = timer.stop()
        rows.append(
            {
                "seconds": seconds,
                "n_vertices": result.n_vertices,
                "n_filtered": result.filtered.n_options,
                "n_splits": result.stats.n_splits,
            }
        )
    return Measurement(
        method=method,
        seconds=float(np.mean([r["seconds"] for r in rows])),
        n_vertices=float(np.mean([r["n_vertices"] for r in rows])),
        n_filtered=float(np.mean([r["n_filtered"] for r in rows])),
        n_splits=float(np.mean([r["n_splits"] for r in rows])),
        per_query=rows,
    )


def run_methods(
    methods: Sequence[str],
    workloads: Sequence[Workload],
    solvers: Optional[Dict[str, object]] = None,
) -> Dict[str, Measurement]:
    """Run several methods on the same workloads (the per-figure comparison primitive)."""
    solvers = solvers or {}
    return {
        method: run_method(method, workloads, solver=solvers.get(method)) for method in methods
    }
