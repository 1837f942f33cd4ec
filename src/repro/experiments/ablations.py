"""Ablation and extension experiments beyond the paper's figures.

The paper's evaluation isolates its three algorithmic optimizations
(Figures 12-14).  The runners here extend that analysis to the design
decisions the paper argues for in prose but does not plot, and to the
parallel-solving direction its conclusion names:

* :func:`ablation_sampling` — the exact methods versus the sampled baseline
  of Section 2.1 (how often an "answer" computed from sampled weight vectors
  endorses a placement that is *not* top-ranking throughout ``wR``);
* :func:`ablation_parallel` — speed-up and answer-equivalence of the
  chop-``wR``-and-merge parallel solver.

Each runner follows the same conventions as :mod:`repro.experiments.figures`:
it returns a list of flat row dictionaries ready for
:func:`repro.experiments.reporting.format_table`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.core.parallel import RegionParallelSolver
from repro.core.sampled import evaluate_sampled_exactness, sampled_toprr
from repro.core.toprr import solve_toprr
from repro.experiments.config import Scale, defaults
from repro.experiments.workloads import make_dataset, make_queries
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer


# --------------------------------------------------------------------------- #
# Exactness of the sampled baseline (Section 2.1 discussion)
# --------------------------------------------------------------------------- #
def ablation_sampling(
    scale: Scale = Scale.SCALED,
    sample_counts: List[int] = (4, 16, 64, 256),
) -> List[dict]:
    """Exact TopRR versus the sampled baseline for increasing sample counts.

    One row per sample count: the share of placements the sampled region
    endorses that are not actually top-ranking for all of ``wR``, the worst
    observed fraction of ``wR`` such a placement fails to cover, and the
    runtimes of both approaches.
    """
    scale = Scale.parse(scale)
    base = defaults(scale)
    dataset = make_dataset(scale)
    workloads = make_queries(scale, dataset=dataset, n_queries=1)
    k, region = workloads[0].k, workloads[0].region

    exact_timer = Timer().start()
    exact = solve_toprr(dataset, k, region)
    exact_seconds = exact_timer.stop()

    rows = []
    for n_samples in sample_counts:
        sampled_timer = Timer().start()
        sampled = sampled_toprr(
            dataset, k, region, n_samples=n_samples, include_vertices=False, rng=base.seed
        )
        sampled_seconds = sampled_timer.stop()
        report = evaluate_sampled_exactness(
            exact, sampled, n_probes=512, rng=base.seed + 1
        )
        rows.append(
            {
                "n_samples": int(n_samples),
                "false_accept_rate": round(report.false_accept_rate, 4),
                "n_false_accepts": report.n_false_accepts,
                "worst_uncovered_pct": round(100 * report.worst_uncovered_fraction, 2),
                "sampled_seconds": round(sampled_seconds, 4),
                "exact_seconds": round(exact_seconds, 4),
                "exact_is_guaranteed": True,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Parallel solving (Section 7 future work)
# --------------------------------------------------------------------------- #
def ablation_parallel(
    scale: Scale = Scale.SCALED,
    worker_counts: List[int] = (1, 2, 4),
    executor: str = "process",
) -> List[dict]:
    """Sequential TAS* versus the chopped-region parallel solver.

    One row per worker count, reporting wall-clock seconds, the speed-up over
    the sequential run, and whether the parallel answer is identical to the
    sequential one on a probe set (it must be — the chop only adds redundant
    vertices to ``V_all``).
    """
    scale = Scale.parse(scale)
    base = defaults(scale)
    dataset = make_dataset(scale)
    workloads = make_queries(scale, dataset=dataset, n_queries=1)
    k, region = workloads[0].k, workloads[0].region
    probes = ensure_rng(base.seed).random((512, dataset.n_attributes))

    sequential_timer = Timer().start()
    sequential = solve_toprr(dataset, k, region)
    sequential_seconds = sequential_timer.stop()
    reference = sequential.contains_many(probes)

    rows = [
        {
            "configuration": "sequential TAS*",
            "n_workers": 1,
            "seconds": round(sequential_seconds, 4),
            "speedup": 1.0,
            "answers_match": True,
        }
    ]
    for n_workers in worker_counts:
        if n_workers <= 1:
            continue
        timer = Timer().start()
        solver = RegionParallelSolver(n_workers=n_workers, executor=executor)
        parallel = solve_toprr(dataset, k, region, method=solver)
        seconds = timer.stop()
        rows.append(
            {
                "configuration": f"parallel x{n_workers} ({executor})",
                "n_workers": int(n_workers),
                "seconds": round(seconds, 4),
                "speedup": round(sequential_seconds / seconds, 3) if seconds > 0 else float("inf"),
                "answers_match": bool(np.array_equal(parallel.contains_many(probes), reference)),
            }
        )
    return rows


#: Registry of the extension experiments, mirroring ``EXPERIMENTS`` in
#: :mod:`repro.experiments.figures`.
ABLATIONS: Dict[str, Callable[..., List[dict]]] = {
    "ablation_sampling": ablation_sampling,
    "ablation_parallel": ablation_parallel,
}


def run_ablation(name: str, scale: Scale = Scale.SCALED, **kwargs) -> List[dict]:
    """Run one of the registered ablation experiments by name."""
    if name not in ABLATIONS:
        raise KeyError(f"unknown ablation {name!r}; expected one of {sorted(ABLATIONS)}")
    return ABLATIONS[name](scale=scale, **kwargs)
