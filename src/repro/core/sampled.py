"""The sampling-based (inexact) alternative to TopRR (Section 2.1).

The paper argues that the natural adaptation of prior work — apply a
finite-set method such as the why-not reverse top-k query [26] to a set of
weight vectors *sampled* from ``wR`` — cannot give the guarantee TopRR
provides: "there is no guarantee that the modified option would be among the
top-k for every possible vector in wR, i.e., the solution would be inexact".

This module implements exactly that baseline so the claim can be quantified:

* :func:`sampled_toprr` builds the intersection of the impact halfspaces of
  ``m`` sampled weight vectors (instead of the vertices ``V_all`` of a kIPR
  partitioning) and returns it as a regular :class:`TopRRResult`;
* :func:`evaluate_sampled_exactness` measures how wrong that answer is — the
  fraction of candidate placements the sampled region accepts even though
  they are *not* top-ranking for all of ``wR``, and the worst-case fraction
  of ``wR`` actually covered by such a falsely accepted placement.

The ablation benchmark built on top of this
(``benchmarks/bench_ablation_sampling.py``) shows the trade-off the paper
describes: the error shrinks as ``m`` grows but never reaches the exact
guarantee, while the exact methods get it at comparable cost.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.impact import build_impact_region
from repro.core.stats import SolverStats
from repro.core.toprr import TopRRResult
from repro.data.dataset import Dataset
from repro.exceptions import InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.pruning.rskyband import r_skyband
from repro.topk.query import rank_of
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.timer import Timer
from repro.utils.tolerance import DEFAULT_TOL, Tolerance


def sampled_toprr(
    dataset: Dataset,
    k: int,
    region: PreferenceRegion,
    n_samples: int = 64,
    include_vertices: bool = True,
    rng: RngLike = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> TopRRResult:
    """Inexact TopRR answer from ``n_samples`` weight vectors sampled inside ``wR``.

    Parameters
    ----------
    dataset, k, region:
        The TopRR instance.
    n_samples:
        Number of weight vectors drawn uniformly inside ``region``.
    include_vertices:
        Also include the defining vertices of ``region`` among the samples
        (the strongest variant of the baseline; without them even the
        region's corners are unguarded).
    rng:
        Seed or generator for the sampling.

    Returns
    -------
    :class:`TopRRResult`
        A result whose region is a *superset* of the exact ``oR`` (fewer
        halfspaces are intersected), i.e. it may accept placements that are
        not actually top-ranking throughout ``wR``.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    if n_samples <= 0:
        raise InvalidParameterError(f"n_samples must be positive, got {n_samples}")
    if region.n_attributes != dataset.n_attributes:
        raise InvalidParameterError("region and dataset disagree on the number of attributes")

    rng = ensure_rng(rng)
    stats = SolverStats()
    stats.n_input_options = dataset.n_options

    timer = Timer().start()
    # The baseline runs the same r-skyband pre-filter as the exact methods.
    kept = r_skyband(dataset, k, region, tol=tol)
    filtered = dataset.subset(kept, name=f"{dataset.name}[r-skyband]")
    stats.n_filtered_options = filtered.n_options

    sampled = region.sample_weights(n_samples, rng)
    if include_vertices:
        sampled = np.vstack([sampled, region.vertices])
    polytope, full_weights, thresholds = build_impact_region(filtered, sampled, k, tol=tol)
    stats.seconds = timer.stop()
    stats.n_vertices = int(sampled.shape[0])
    stats.extra["n_samples"] = int(n_samples)

    return TopRRResult(
        dataset=dataset,
        filtered=filtered,
        k=k,
        region=region,
        vertices_reduced=sampled,
        full_weights=full_weights,
        thresholds=thresholds,
        polytope=polytope,
        stats=stats,
        method=f"sampled({n_samples})",
        tol=tol,
    )


@dataclass(frozen=True)
class SampledExactnessReport:
    """How far a sampled TopRR answer is from the exact one.

    Attributes
    ----------
    n_samples:
        Number of weight samples the baseline used.
    n_probes:
        Number of candidate placements probed.
    n_false_accepts:
        Probes accepted by the sampled region but rejected by the exact one.
    false_accept_rate:
        ``n_false_accepts`` over the number of probes the sampled region
        accepts (0 when it accepts none).
    worst_uncovered_fraction:
        For the falsely accepted probes, the largest fraction of test weight
        vectors in ``wR`` for which the probe misses the top-k — i.e. how
        badly the "guarantee" can fail for a placement the baseline endorses.
    """

    n_samples: int
    n_probes: int
    n_false_accepts: int
    false_accept_rate: float
    worst_uncovered_fraction: float


def evaluate_sampled_exactness(
    exact: TopRRResult,
    sampled: TopRRResult,
    n_probes: int = 512,
    n_weight_checks: int = 128,
    rng: RngLike = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> SampledExactnessReport:
    """Quantify the inexactness of a sampled answer against the exact one.

    Probes are drawn inside the *sampled* region (biased towards its boundary
    by projecting random options onto the accepted set when possible), which
    is where false accepts live.
    """
    if exact.k != sampled.k or exact.dataset is not sampled.dataset:
        raise InvalidParameterError("exact and sampled results must describe the same instance")
    rng = ensure_rng(rng)
    d = exact.dataset.n_attributes

    probes = rng.random((n_probes, d))
    accepted_by_sampled = sampled.contains_many(probes)
    accepted_probes = probes[accepted_by_sampled]
    accepted_by_exact = exact.contains_many(accepted_probes) if accepted_probes.size else np.empty(0, dtype=bool)
    false_mask = ~accepted_by_exact
    n_false = int(np.count_nonzero(false_mask))

    worst_uncovered = 0.0
    if n_false:
        weights_reduced = exact.region.sample_weights(n_weight_checks, rng)
        weights_full = exact.region.space.to_full_many(weights_reduced)
        for probe in accepted_probes[false_mask][: min(n_false, 32)]:
            misses = sum(
                1 for weight in weights_full if rank_of(exact.dataset, weight, probe) > exact.k
            )
            worst_uncovered = max(worst_uncovered, misses / weights_full.shape[0])

    n_accepted = int(np.count_nonzero(accepted_by_sampled))
    return SampledExactnessReport(
        n_samples=int(sampled.stats.extra.get("n_samples", sampled.n_vertices)),
        n_probes=int(n_probes),
        n_false_accepts=n_false,
        false_accept_rate=(n_false / n_accepted) if n_accepted else 0.0,
        worst_uncovered_fraction=float(worst_uncovered),
    )
