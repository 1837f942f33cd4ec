"""The r-skyband decomposes over disjoint option shards (serial reference).

The r-skyband — the pre-filter every solver runs first, and the stage whose
cost grows with the catalogue size ``n`` — is *decomposable over disjoint
option shards*:

    For any partition of ``D`` into shards ``D_1, ..., D_s``, the global
    r-skyband of ``D`` equals the r-skyband of the union of the per-shard
    r-skybands (dominator counts taken within the union).

*Proof sketch.*  An option in the global r-skyband has fewer than ``k``
r-dominators in ``D``, hence fewer than ``k`` within its own shard, so it
survives its shard's filter: the candidate union covers the global skyband.
Conversely, take ``p`` with at least ``k`` dominators in ``D`` and consider
the set ``S`` of its dominators.  Any *maximal* element of ``S`` that was
dropped by its shard has at least ``k`` same-shard dominators, which
r-dominate ``p`` transitively and dominate the dropped element —
contradicting maximality — so every maximal dominator survives, and either
way at least ``k`` members of ``S`` are in the union.  Counting within the
union therefore reproduces every keep/drop decision of the global filter.
(The skyband scan in :mod:`repro.topk.skyband` relies on the same
transitivity argument.)

:func:`sharded_r_skyband` runs the decomposition in one process: plan the
shards (:func:`plan_shards`), filter each shard's rows of the query's
vertex-score matrix (:func:`shard_skyband`), then re-run the skyband on the
merged candidates' rows of the *same* matrix (:func:`reconcile_candidates`).
It returns exactly the indices :func:`repro.pruning.rskyband.r_skyband`
returns; ``tests/test_sharded_differential.py`` and the sharded schedules
of ``tests/test_mutation_differential.py`` check that byte for byte.  It is
a test of the theorem, not a query path: every query runs the one
in-process r-skyband.  A process-parallel form of it was measured on a
2-core host and deleted (ARCHITECTURE.md, "Option sharding, measured and
deleted").
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.pruning.rskyband import vertex_score_matrix
from repro.topk.skyband import skyband_of_values
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

#: Shard assignment strategies accepted by :func:`plan_shards`.
SHARD_STRATEGIES = ("contiguous", "hash")


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser (uint64 in, well-mixed uint64 out)."""
    x = values.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash_assignments(n_options: int, n_shards: int) -> np.ndarray:
    """Shard id of every row under the ``"hash"`` strategy (stable, seedless).

    Rows are assigned by ``splitmix64(position) % n_shards``, a pure function
    of ``(n_options, n_shards)`` that decorrelates shard membership from the
    row order of the file the dataset was loaded from.
    """
    return (_splitmix64(np.arange(n_options, dtype=np.uint64)) % np.uint64(n_shards)).astype(int)


def plan_shards(n_options: int, n_shards: int, strategy: str = "contiguous") -> List[np.ndarray]:
    """Partition ``range(n_options)`` into ``n_shards`` ascending index arrays.

    ``"contiguous"`` gives balanced row ranges ``[i*n//s, (i+1)*n//s)``;
    ``"hash"`` assigns rows by :func:`hash_assignments`.  The arrays are
    pairwise disjoint and cover every row; some are empty when
    ``n_shards > n_options``.
    """
    if n_shards <= 0:
        raise InvalidParameterError(f"n_shards must be positive, got {n_shards}")
    if strategy not in SHARD_STRATEGIES:
        raise InvalidParameterError(
            f"unknown shard strategy {strategy!r}; expected one of {SHARD_STRATEGIES}"
        )
    if strategy == "contiguous":
        bounds = [(i * n_options) // n_shards for i in range(n_shards + 1)]
        return [np.arange(bounds[i], bounds[i + 1]) for i in range(n_shards)]
    assignment = hash_assignments(n_options, n_shards)
    return [np.flatnonzero(assignment == i) for i in range(n_shards)]


def shard_skyband(
    scores: np.ndarray, positions: np.ndarray, k: int, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """The r-skyband of one shard's rows of the full vertex-score matrix.

    ``positions`` are the shard's rows (one array of :func:`plan_shards`);
    the survivors come back as ascending *parent* positions.  An empty
    shard returns an empty array.
    """
    return positions[skyband_of_values(scores[positions], k, tol=tol)]


def reconcile_candidates(
    scores: np.ndarray,
    shard_candidates: Sequence[np.ndarray],
    k: int,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Merge per-shard survivors into the exact global r-skyband.

    Re-runs the skyband on the candidates' rows of the *same* score matrix
    the shards filtered against; by the theorem above this returns exactly
    the indices :func:`repro.pruning.rskyband.r_skyband` returns for the
    whole dataset.
    """
    candidates = np.sort(np.concatenate(shard_candidates))
    return candidates[skyband_of_values(scores[candidates], k, tol=tol)]


def sharded_r_skyband(
    dataset: Dataset,
    k: int,
    region: PreferenceRegion,
    n_shards: int,
    strategy: str = "contiguous",
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """The r-skyband of ``dataset``, filtered per shard and then reconciled.

    Returns indices identical to :func:`repro.pruning.rskyband.r_skyband`.
    """
    scores = vertex_score_matrix(dataset, region)
    plan = plan_shards(dataset.n_options, n_shards, strategy)
    candidates = [shard_skyband(scores, positions, k, tol=tol) for positions in plan]
    return reconcile_candidates(scores, candidates, k, tol=tol)
