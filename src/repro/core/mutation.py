"""Incremental cache maintenance for mutable datasets.

Real catalogues churn: options are inserted and deleted between queries.
Before this module the only correct response was
:meth:`~repro.engine.engine.TopRREngine.clear_caches` — discarding every
r-skyband entry, result LRU entry and
:class:`~repro.core.scorecache.VertexScoreMemo` row, most of which are still
valid.  This module provides the machinery to keep the valid ones:

* :class:`MutationDelta` — the record of one
  :meth:`~repro.data.dataset.Dataset.insert_options` /
  :meth:`~repro.data.dataset.Dataset.delete_options` step, linking a parent
  dataset version to its child;
* :func:`entry_survival` — the *eviction-soundness* test deciding whether a
  cached ``(k, region)`` intermediate is provably unaffected by the delta;
* :class:`MutationReport` — the survivor/eviction accounting the engines
  return from their ``apply_delta`` hooks.

Eviction-soundness lemma
------------------------
Cached entries are byte-level artefacts of
:func:`~repro.pruning.rskyband.r_skyband`, which runs the sort-based
k-skyband algorithm (:func:`~repro.topk.skyband.skyband_of_values`) on the
vertex-score matrix ``S = D.values @ V_region^T``.  That algorithm processes
rows in decreasing row-sum order (stable ties by position) and admits a row
into the band iff fewer than ``k`` *already-admitted band rows* dominate it;
rows refused admission never influence any later decision.  Two consequences,
both exact at the byte level and independent of the dominance tolerance:

1. **Delete.**  Removing rows that are not in the band leaves every
   admission decision — and therefore the band, as a set of surviving rows —
   unchanged: the removed rows never entered the band, so no decision ever
   consulted them, and a stable sort of the surviving rows preserves their
   relative processing order.

2. **Insert.**  Appending rows at the end of the dataset leaves the
   processing order of the existing rows unchanged (appended rows sort after
   all existing rows with equal sums).  An appended row ``x`` is refused iff,
   at its processing position, at least ``k`` of the band rows processed
   before it dominate it.  If *every* appended row is refused against the
   old band restricted to ``sum >= sum(x)`` — the exact set of band rows
   processed before ``x`` when no appended row is admitted, by induction over
   the processing order — then no appended row is admitted and the band is
   exactly unchanged.

A cached entry whose band is unchanged is bit-for-bit the entry a fresh
engine would rebuild on the mutated dataset: option ids are stable across
mutations, the affine score form is row-wise
(:meth:`~repro.preference.space.PreferenceSpace.affine_score_form`), and the
solve consumes nothing but the filtered dataset, the working set sliced from
those rows, and ``(k, region)``.  Entries failing the test are *evicted* —
eviction is always sound — and rebuilt lazily on the next query (optionally
salvaging their memo's score rows, see
:meth:`~repro.core.scorecache.VertexScoreMemo.remapped`).

The insert test scores the mutated dataset against the region's defining
vertices with the *same* matrix product :func:`vertex score computation
<repro.pruning.rskyband.vertex_score_matrix>` a fresh filter would perform,
and slices rows out of that one product — so every comparison the test makes
uses the identical floating-point values the from-scratch rebuild would
compare, and a "survive" verdict can never diverge from the oracle.  The
differential harness ``tests/test_mutation_differential.py`` fuzzes exactly
this contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.dataset import Dataset


@dataclass(frozen=True)
class MutationDelta:
    """The record of one dataset mutation step (insert *or* delete).

    Produced by :meth:`~repro.data.dataset.Dataset.insert_options` and
    :meth:`~repro.data.dataset.Dataset.delete_options` alongside the mutated
    dataset.  A delta is pure data — engines consume it through their
    ``apply_delta`` hooks to maintain caches incrementally.

    Attributes
    ----------
    parent_version, version:
        Version tags of the dataset the mutation was applied to and of the
        dataset it produced (``version == parent_version + 1``).
    n_before, n_after:
        Option counts on either side of the mutation.
    inserted_values:
        ``(m, d)`` values of the appended options (empty for deletes).
        Inserted options always occupy the *last* ``m`` positions of the
        mutated dataset, which is what keeps every surviving option's
        position stable.
    inserted_ids:
        Their option ids in the mutated dataset.
    deleted_ids:
        Option ids removed by the mutation (empty for inserts).
    deleted_positions:
        Their positional indices *in the parent dataset* (ascending).
    """

    parent_version: int
    version: int
    n_before: int
    n_after: int
    inserted_values: np.ndarray
    inserted_ids: tuple
    deleted_ids: tuple
    deleted_positions: np.ndarray

    @property
    def n_inserted(self) -> int:
        """Number of options this delta appended."""
        return int(self.inserted_values.shape[0])

    @property
    def n_deleted(self) -> int:
        """Number of options this delta removed."""
        return len(self.deleted_ids)

    def check_applies_to(self, parent: "Dataset", mutated: "Dataset") -> None:
        """Raise unless this delta maps ``parent`` onto ``mutated``.

        Engines call this before touching any cache: applying a delta out of
        order (or to the wrong dataset) would silently corrupt every
        maintained entry, so the version chain is enforced, not assumed.
        """
        if parent.version != self.parent_version:
            raise InvalidParameterError(
                f"delta was produced from dataset version {self.parent_version}, "
                f"but the engine is bound to version {parent.version}"
            )
        if mutated.version != self.version:
            raise InvalidParameterError(
                f"delta produces dataset version {self.version}, "
                f"got a dataset at version {mutated.version}"
            )
        if parent.n_options != self.n_before or mutated.n_options != self.n_after:
            raise InvalidParameterError(
                "delta option counts do not match the datasets "
                f"({self.n_before}->{self.n_after} vs "
                f"{parent.n_options}->{mutated.n_options})"
            )


@dataclass
class MutationReport:
    """Survivor/eviction accounting of one ``apply_delta`` call.

    Attributes
    ----------
    n_entries_survived, n_entries_evicted:
        Cached r-skyband entries kept / dropped by the survival test.
    n_results_survived, n_results_evicted:
        Result-LRU entries kept / dropped.
    n_dominance_tests:
        Inserted options put through the point-vs-band dominance test
        (one batched test per inserted option per examined entry).
    n_memos_salvaged:
        Vertex-score memos whose rows were column-remapped onto the mutated
        option set instead of being discarded.
    """

    n_entries_survived: int = 0
    n_entries_evicted: int = 0
    n_results_survived: int = 0
    n_results_evicted: int = 0
    n_dominance_tests: int = 0
    n_memos_salvaged: int = 0

    def merge(self, other: "MutationReport") -> "MutationReport":
        """Accumulate another report into this one (returns ``self``)."""
        self.n_entries_survived += other.n_entries_survived
        self.n_entries_evicted += other.n_entries_evicted
        self.n_results_survived += other.n_results_survived
        self.n_results_evicted += other.n_results_evicted
        self.n_dominance_tests += other.n_dominance_tests
        self.n_memos_salvaged += other.n_memos_salvaged
        return self

    @property
    def survivor_rate(self) -> float:
        """Fraction of examined cache entries (skyband + result) that survived.

        ``1.0`` when no entries were examined (nothing cached is trivially
        all-survived).
        """
        survived = self.n_entries_survived + self.n_results_survived
        total = survived + self.n_entries_evicted + self.n_results_evicted
        return survived / total if total else 1.0

    def as_dict(self) -> dict:
        """Plain-dict view for reports and ``cache_info``."""
        return {
            "n_entries_survived": self.n_entries_survived,
            "n_entries_evicted": self.n_entries_evicted,
            "n_results_survived": self.n_results_survived,
            "n_results_evicted": self.n_results_evicted,
            "n_dominance_tests": self.n_dominance_tests,
            "n_memos_salvaged": self.n_memos_salvaged,
            "survivor_rate": self.survivor_rate,
        }


def refused_admission(
    scores: np.ndarray,
    band_rows: np.ndarray,
    inserted_rows: np.ndarray,
    k: int,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Which inserted rows are provably refused admission to the k-band.

    Parameters
    ----------
    scores:
        The ``(n_after, n_vertices)`` vertex-score matrix of the *mutated*
        dataset — computed with the same matrix product a fresh filter uses,
        so the comparisons below replicate the rebuild's arithmetic exactly.
    band_rows:
        Row indices (into ``scores``) of the cached band members.
    inserted_rows:
        Row indices of the appended options.
    k:
        The band parameter of the cached entry.
    tol:
        The tolerance bundle the filter ran with (dominance uses
        ``tol.geometry``, as :func:`~repro.topk.skyband.skyband_of_values`
        does).

    Returns
    -------
    A boolean array over ``inserted_rows``: ``True`` where the inserted
    option has at least ``k`` dominators among the band members processed
    before it (band rows with row-sum ``>=`` its own — see the
    eviction-soundness lemma in the module docstring), so the band — and
    every cached artefact derived from it — is unchanged by that insert.
    """
    if inserted_rows.size == 0:
        return np.zeros(0, dtype=bool)
    eps = tol.geometry
    sums = scores.sum(axis=1)
    band_scores = scores[band_rows]
    band_sums = sums[band_rows]
    refused = np.zeros(inserted_rows.size, dtype=bool)
    for i, row in enumerate(inserted_rows):
        eligible = band_sums >= sums[row]
        if np.count_nonzero(eligible) < k:
            continue
        candidates = band_scores[eligible]
        geq = np.all(candidates >= scores[row] - eps, axis=1)
        gt = np.any(candidates > scores[row] + eps, axis=1)
        refused[i] = int(np.count_nonzero(geq & gt)) >= k
    return refused


def entry_survival(
    dataset: "Dataset",
    delta: MutationDelta,
    k: int,
    full_vertices: np.ndarray,
    band_ids: Sequence,
    tol: Tolerance = DEFAULT_TOL,
    scores: Optional[np.ndarray] = None,
) -> Tuple[bool, int]:
    """Decide whether one cached ``(k, region)`` band survives ``delta``.

    Parameters
    ----------
    dataset:
        The *mutated* dataset (the delta's child version).
    delta:
        The mutation being applied.
    k:
        The entry's band parameter.
    full_vertices:
        The region's defining vertices as full weight vectors — the exact
        array the entry's filter scored against (stored alongside the cache
        entry in the filter's row order, *not* rebuilt from the sorted
        fingerprint).
    band_ids:
        Option ids of the cached band members (``filtered.option_ids``).
    tol:
        Tolerance bundle of the entry's filter run.
    scores:
        Optional precomputed ``dataset.values @ full_vertices.T`` — callers
        examining several entries that share one region (the skyband entry
        and the per-method results under the same fingerprint) pass it to
        pay the matrix product once.

    Returns
    -------
    ``(survives, n_dominance_tests)``.  ``survives`` is ``True`` only when
    the mutated dataset's band is provably byte-identical to the cached one:
    no deleted option was a band member, and every inserted option is
    refused admission (see the module docstring for why both conditions are
    exact).  Deciding costs one ``(n, d) @ (d, m)`` product plus one pass of
    array comparisons per inserted option — no Python-loop skyband rerun.
    """
    if delta.n_deleted:
        deleted = set(delta.deleted_ids)
        if any(option_id in deleted for option_id in band_ids):
            return False, 0
    if delta.n_inserted == 0:
        return True, 0
    # Score the mutated dataset exactly as vertex_score_matrix would: the
    # full (n_after, d) @ (d, m) product, then row slices — never a
    # re-derivation that could round differently near the eps boundaries.
    if scores is None:
        scores = dataset.values @ full_vertices.T
    band_rows = np.array([dataset.index_of(option_id) for option_id in band_ids], dtype=int)
    inserted_rows = np.arange(dataset.n_options - delta.n_inserted, dataset.n_options)
    refused = refused_admission(scores, band_rows, inserted_rows, k, tol=tol)
    return bool(np.all(refused)), int(inserted_rows.size)


def position_column_map(
    new_ids: Sequence,
    old_ids: Sequence,
) -> np.ndarray:
    """Map new column positions onto old ones by option id (``-1`` = new).

    Used to salvage :class:`~repro.core.scorecache.VertexScoreMemo` rows when
    a band *did* change: column ``j`` of the rebuilt memo equals column
    ``position_column_map(new, old)[j]`` of the old memo when the option was
    already a band member, and must be scored fresh (``-1``) otherwise.
    """
    old_index = {}
    for column, option_id in enumerate(old_ids):
        old_index.setdefault(option_id, column)
    return np.array([old_index.get(option_id, -1) for option_id in new_ids], dtype=int)
