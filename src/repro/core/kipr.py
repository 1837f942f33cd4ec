"""Vertex score profiles and the region tests of the TAS algorithms.

The recursive test-and-split procedure repeatedly asks three questions about
a preference region ``wR_i`` (always answered by looking only at the region's
defining vertices, which Lemma 1 makes sufficient):

* **kIPR test** (Lemma 3): do all vertices share the same top-k set *and*
  the same k-th option?
* **Optimized test** (Lemma 7): do all vertices share the same top-(k-1)
  set?  If so the region need not be split even if it is not a kIPR.
* **Consistent top-λ detection** (Lemma 5): is there a λ < k such that all
  vertices share the same top-λ set?  Those λ options can be removed and
  ``k`` reduced accordingly for the whole sub-tree.

All three are computed from the ordered top-k list of each vertex over the
currently active options.  Two representations exist:

* :class:`VertexProfile` — the legacy per-vertex object (tuple + frozensets),
  still used by single-vertex callers and kept as the reference
  implementation for the parity tests;
* :class:`repro.core.profiles.RegionProfiles` — the array-backed kernel the
  solvers use, computing all vertices of a region in one matrix operation.

The module-level test functions (:func:`find_kipr_violation`,
:func:`passes_lemma7`, :func:`consistent_top_lambda`) accept either
representation and dispatch to the vectorized path when given a
:class:`~repro.core.profiles.RegionProfiles`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.profiles import RegionProfiles, affine_scores
from repro.data.dataset import Dataset
from repro.exceptions import InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.preference.space import PreferenceSpace

#: Either profile representation accepted by the module-level tests.
ProfilesLike = Union[RegionProfiles, Sequence["VertexProfile"]]


class WorkingSet:
    """The options and query parameter a recursive call currently works with.

    A working set references the (already r-skyband-filtered) dataset ``D'``
    through its affine score form and keeps:

    * ``active`` — positional indices (into ``D'``) still under consideration,
    * ``k`` — the current (possibly Lemma-5-reduced) query parameter.

    Working sets are immutable; Lemma 5 pruning produces a new one via
    :meth:`without_options`.  Every instance carries a process-unique ``uid``
    so caches (e.g. the vertex-score memo of
    :mod:`repro.core.scorecache`) can key per-working-set results without
    holding a reference — immutability makes the uid a stable identity for
    the ``(active, k)`` pair.
    """

    __slots__ = ("coefficients", "constants", "active", "k", "uid", "_active_form")

    #: Process-wide uid source (``itertools.count.__next__`` is atomic).
    _uid_counter = itertools.count()

    def __init__(
        self,
        coefficients: np.ndarray,
        constants: np.ndarray,
        active: np.ndarray,
        k: int,
    ):
        self.coefficients = coefficients
        self.constants = constants
        self.active = np.asarray(active, dtype=int)
        self.k = int(k)
        self.uid = next(WorkingSet._uid_counter)
        self._active_form: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def from_dataset(cls, dataset: Dataset, k: int) -> "WorkingSet":
        """Build the root working set from the filtered dataset ``D'``."""
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        space = PreferenceSpace(dataset.n_attributes)
        coefficients, constants = space.affine_score_form(dataset.values)
        active = np.arange(dataset.n_options)
        return cls(coefficients, constants, active, min(k, dataset.n_options))

    @classmethod
    def from_affine_form(
        cls, coefficients: np.ndarray, constants: np.ndarray, k: int
    ) -> "WorkingSet":
        """Root working set from an already computed affine score form.

        Used by the query engine, which binds the dataset's affine form once
        and slices it per query instead of recomputing it from the values.
        """
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        n_options = coefficients.shape[0]
        active = np.arange(n_options)
        return cls(coefficients, constants, active, min(k, n_options))

    @property
    def n_active(self) -> int:
        """Number of active options."""
        return self.active.shape[0]

    def active_form(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(coefficients, constants)`` restricted to the active options (cached).

        Working sets are immutable, so the sliced affine form is computed at
        most once and reused by every region test on this working set.
        """
        if self._active_form is None:
            self._active_form = (self.coefficients[self.active], self.constants[self.active])
        return self._active_form

    def scores_at(self, reduced_vertex: np.ndarray) -> np.ndarray:
        """Scores of the active options at one reduced weight vector.

        Routed through the kernel's shape-independent score accumulation so
        that per-vertex results are bit-identical to rows of the batched
        :class:`~repro.core.profiles.RegionProfiles` score matrix.
        """
        coefficients, constants = self.active_form()
        return affine_scores(reduced_vertex, coefficients, constants)[0]

    def without_options(self, option_indices: Sequence[int], new_k: int) -> "WorkingSet":
        """New working set with ``option_indices`` removed and ``k`` replaced."""
        drop = np.fromiter((int(i) for i in option_indices), dtype=int)
        remaining = self.active[~np.isin(self.active, drop)]
        return WorkingSet(self.coefficients, self.constants, remaining, new_k)


@dataclass(frozen=True)
class VertexProfile:
    """Top-k information at one region vertex.

    Attributes
    ----------
    vertex:
        The reduced weight vector of the vertex.
    ordered:
        Positional indices (into ``D'``) of the top-k active options, sorted
        by decreasing score with ties broken by ascending index.
    top_set:
        Order-insensitive top-k set.
    kth:
        The top-k-th option (last entry of ``ordered``).
    """

    vertex: np.ndarray
    ordered: Tuple[int, ...]
    top_set: frozenset
    kth: int

    def prefix_set(self, length: int) -> frozenset:
        """The (order-insensitive) set of the ``length`` best options at this vertex."""
        return frozenset(self.ordered[:length])


def vertex_profile(working: WorkingSet, reduced_vertex: np.ndarray) -> VertexProfile:
    """Compute the :class:`VertexProfile` of one vertex for the current working set."""
    scores = working.scores_at(reduced_vertex)
    k = min(working.k, scores.shape[0])
    local_order = np.lexsort((working.active, -scores))[:k]
    ordered = tuple(int(working.active[i]) for i in local_order)
    return VertexProfile(
        vertex=np.asarray(reduced_vertex, dtype=float),
        ordered=ordered,
        top_set=frozenset(ordered),
        kth=ordered[-1],
    )


def region_profiles(working: WorkingSet, region: PreferenceRegion) -> List[VertexProfile]:
    """Per-vertex :class:`VertexProfile` list for every defining vertex of ``region``.

    This is the legacy (reference) representation; the solvers use the
    array-backed :meth:`repro.core.profiles.RegionProfiles.of_region` instead.
    """
    return [vertex_profile(working, v) for v in region.vertices]


def find_kipr_violation(profiles: ProfilesLike) -> Optional[Tuple[int, int, str]]:
    """First pair of vertices violating the kIPR conditions.

    Returns ``None`` when the region is a kIPR, otherwise a tuple
    ``(index_a, index_b, case)`` where ``case`` is ``"set"`` (different top-k
    sets — Case 1 of Section 4.2.1) or ``"kth"`` (same set, different k-th
    option — Case 2).
    """
    if isinstance(profiles, RegionProfiles):
        return profiles.kipr_violation()
    if not profiles:
        return None
    reference = profiles[0]
    for j in range(1, len(profiles)):
        other = profiles[j]
        if other.top_set != reference.top_set:
            return 0, j, "set"
    for j in range(1, len(profiles)):
        other = profiles[j]
        if other.kth != reference.kth:
            return 0, j, "kth"
    return None


def is_kipr(profiles: ProfilesLike) -> bool:
    """Lemma 3 test: same top-k set and same k-th option at every vertex."""
    return find_kipr_violation(profiles) is None


def passes_lemma7(profiles: ProfilesLike, k: int) -> bool:
    """Lemma 7 test: every vertex yields the same top-(k-1) set.

    For ``k == 1`` the condition is vacuously true (Lemma 6 applies directly).
    """
    if isinstance(profiles, RegionProfiles):
        return profiles.passes_lemma7(k)
    if k <= 1:
        return True
    if not profiles:
        return True
    reference = profiles[0].prefix_set(k - 1)
    if len(reference) < min(k - 1, len(profiles[0].ordered)):
        return False
    return all(profile.prefix_set(k - 1) == reference for profile in profiles[1:])


def consistent_top_lambda(profiles: ProfilesLike, k: int) -> Tuple[int, frozenset]:
    """Largest λ < k such that all vertices share the same top-λ set (Lemma 5).

    Returns ``(0, frozenset())`` when no such λ exists.
    """
    if isinstance(profiles, RegionProfiles):
        return profiles.consistent_top_lambda(k)
    if k <= 1 or not profiles:
        return 0, frozenset()
    max_lambda = min(k - 1, len(profiles[0].ordered))
    for lam in range(max_lambda, 0, -1):
        reference = profiles[0].prefix_set(lam)
        if all(profile.prefix_set(lam) == reference for profile in profiles[1:]):
            return lam, reference
    return 0, frozenset()
