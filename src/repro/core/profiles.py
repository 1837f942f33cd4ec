"""Array-backed vertex profiles: the vectorized kernel of the TAS solvers.

The test-and-split recursion evaluates every popped region by looking at its
defining vertices (Lemma 1).  The legacy implementation in
:mod:`repro.core.kipr` builds one :class:`~repro.core.kipr.VertexProfile`
(a tuple plus two frozensets) per vertex in a Python loop, and answers the
three region questions — kIPR (Lemma 3), optimized test (Lemma 7),
consistent top-λ (Lemma 5) — with per-vertex set comparisons.  For the hot
path that is almost all of the solve time.

:class:`RegionProfiles` replaces that with one batched computation:

* all vertex scores of a region are obtained in a single
  ``(n_vertices, n_active)`` matrix product against the working set's affine
  score form,
* the per-vertex top-k orderings come from one batched
  ``argpartition``/``lexsort`` over that matrix (with an exact fallback when
  score ties straddle the k-boundary, so verdicts are bit-identical to the
  per-vertex path),
* the three lemma tests are plain array comparisons over the resulting
  ``(n_vertices, k)`` index matrix.

The object is sequence-like (``len``, indexing, iteration) and yields legacy
:class:`~repro.core.kipr.VertexProfile` views on demand, so code that only
needs one vertex (splitting-pair selection, the UTK anchor) keeps working
unchanged.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.kipr import VertexProfile, WorkingSet
    from repro.preference.region import PreferenceRegion

#: Below this many active options the partition fast path is not worth it.
_PARTITION_MIN_ACTIVE = 64


def affine_scores(
    vertices: np.ndarray, coefficients: np.ndarray, constants: np.ndarray
) -> np.ndarray:
    """``(m, n)`` score matrix ``constants + vertices . coefficients^T``.

    Accumulated with elementwise outer products (one per reduced dimension,
    in fixed order) instead of a BLAS ``matmul``: BLAS picks different
    kernels (FMA, blocking) depending on the operand shapes, so a batched
    product is not bit-identical to a per-vertex one and near-exact score
    ties would break differently between the vectorized kernel and the
    per-vertex reference path.  Elementwise ufuncs round every element the
    same way regardless of batch shape, which keeps the two paths — and any
    row subset — bit-identical.  The reduced dimension is small (``d - 1``,
    single digits in the paper's experiments), so this stays cheap.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    scores = np.multiply.outer(vertices[:, 0], coefficients[:, 0])
    for j in range(1, vertices.shape[1]):
        scores += np.multiply.outer(vertices[:, j], coefficients[:, j])
    scores += constants
    return scores


def _topk_order_full(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Top-k global ids per row with the exact legacy tie-break (reference path).

    Equivalent to the per-vertex ``np.lexsort((ids, -scores))[:k]`` of the
    legacy kernel.  Narrow rows sort in one batched ``lexsort``; wide rows
    first select every entry that can reach the top k — score at least the
    k-th largest value, boundary ties included — via ``argpartition`` and
    only sort the selection.  Entries below the boundary sort after every
    selected one under the ``(-score, id)`` key, so restricting the sort to
    the selection returns the identical first k rows.
    """
    n = scores.shape[1]
    if n < _PARTITION_MIN_ACTIVE or n <= 4 * k:
        keys = np.broadcast_to(ids, scores.shape)
        order = np.lexsort((keys, -scores), axis=-1)[:, :k]
        return ids[order]
    part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    boundary = np.take_along_axis(scores, part, axis=1).min(axis=1)
    out = np.empty((scores.shape[0], k), dtype=ids.dtype)
    for row in range(scores.shape[0]):
        selected = np.flatnonzero(scores[row] >= boundary[row])
        selected_ids = ids[selected]
        order = np.lexsort((selected_ids, -scores[row, selected]))[:k]
        out[row] = selected_ids[order]
    return out


def _topk_order_partition(scores: np.ndarray, ids: np.ndarray, k: int) -> Optional[np.ndarray]:
    """Top-k global ids per row via ``argpartition``; ``None`` when inexact.

    ``argpartition`` selects *some* k row entries with the largest scores; the
    selection is only guaranteed to match the legacy tie-break (ascending id
    among equal scores) when no tie straddles the k-boundary.  The boundary
    check below is exact — float equality, the same comparison the legacy
    ``lexsort`` performs — and the function declines (returns ``None``)
    whenever a straddling tie is detected, letting the caller fall back to
    the full sort.
    """
    part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    part_scores = np.take_along_axis(scores, part, axis=1)
    boundary = part_scores.min(axis=1)
    if np.any((scores >= boundary[:, None]).sum(axis=1) != k):
        return None
    part_ids = ids[part]
    order = np.lexsort((part_ids, -part_scores), axis=-1)
    return np.take_along_axis(part_ids, order, axis=1)


def topk_order_matrix(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """``(n_rows, k)`` matrix of the top-k ids of every row of ``scores``.

    Rows are ordered by decreasing score, ties broken by ascending id.  Wide
    rows go through one ``argpartition``; rows where a score tie straddles
    the k-boundary (where ``argpartition``'s selection is not guaranteed to
    match the legacy tie-break) are resolved individually by sorting every
    entry at or above the boundary score — per row, so one tie-heavy vertex
    no longer drags its whole batch onto the full-sort path.  Results are
    bit-identical to the batched ``lexsort`` reference in every case.
    """
    n = scores.shape[1]
    k = min(k, n)
    if k == 0 or scores.shape[0] == 0:
        return np.empty((scores.shape[0], k), dtype=ids.dtype)
    if n < _PARTITION_MIN_ACTIVE or n <= 4 * k:
        keys = np.broadcast_to(ids, scores.shape)
        order = np.lexsort((keys, -scores), axis=-1)[:, :k]
        return ids[order]
    # One ascending two-pivot partition per batch: positions n-k.. hold the k
    # largest entries (position n-k exactly the k-th largest), position
    # n-k-1 exactly the (k+1)-th largest.  A tie straddles the k-boundary
    # iff those two values are equal — no full-width boundary mask needed.
    part = np.argpartition(scores, (n - k - 1, n - k), axis=1)
    top = part[:, n - k :]
    top_scores = np.take_along_axis(scores, top, axis=1)
    kth_value = top_scores[:, 0]
    next_value = np.take_along_axis(scores, part[:, n - k - 1 : n - k], axis=1)[:, 0]
    straddle = next_value == kth_value
    out = np.empty((scores.shape[0], k), dtype=ids.dtype)
    clean = np.flatnonzero(~straddle)
    if clean.size:
        clean_ids = ids[top[clean]]
        order = np.lexsort((clean_ids, -top_scores[clean]), axis=-1)
        out[clean] = np.take_along_axis(clean_ids, order, axis=1)
    for row in np.flatnonzero(straddle):
        selected = np.flatnonzero(scores[row] >= kth_value[row])
        selected_ids = ids[selected]
        order = np.lexsort((selected_ids, -scores[row, selected]))[:k]
        out[row] = selected_ids[order]
    return out


class RegionProfiles:
    """Top-k information of every defining vertex of a region, as arrays.

    Attributes
    ----------
    vertices:
        ``(m, d-1)`` reduced weight vectors of the region's vertices.
    ordered:
        ``(m, k)`` positional indices (into ``D'``) of each vertex's top-k
        active options, by decreasing score, ties broken by ascending index.
    sorted_sets:
        ``ordered`` with every row sorted ascending — the order-insensitive
        top-k sets, in a form where set equality is row equality.
    kth:
        ``(m,)`` the k-th (last ordered) option of every vertex.
    """

    __slots__ = ("vertices", "ordered", "sorted_sets", "kth", "_working")

    def __init__(self, vertices: np.ndarray, ordered: np.ndarray, working: "WorkingSet"):
        self.vertices = vertices
        self.ordered = ordered
        self.sorted_sets = np.sort(ordered, axis=1) if ordered.size else ordered
        self.kth = ordered[:, -1] if ordered.shape[1] else np.empty(ordered.shape[0], dtype=int)
        self._working = working

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def compute(cls, working: "WorkingSet", vertices: np.ndarray) -> "RegionProfiles":
        """Profiles of every row of ``vertices`` for the current working set."""
        vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
        coefficients, constants = working.active_form()
        scores = affine_scores(vertices, coefficients, constants)
        return cls.from_scores(working, vertices, scores)

    @classmethod
    def from_scores(
        cls, working: "WorkingSet", vertices: np.ndarray, scores: np.ndarray
    ) -> "RegionProfiles":
        """Profiles from an already computed ``(m, n_active)`` score matrix.

        Entry point of the incremental split-tree path
        (:mod:`repro.core.scorecache`), which assembles the score matrix from
        memoized per-vertex rows instead of a fresh kernel call.  Because
        :func:`affine_scores` is shape-independent, a matrix assembled from
        cached rows (and column-sliced to the active options) is bit-identical
        to the one :meth:`compute` produces, so the resulting profiles — and
        every verdict derived from them — are exactly the same.
        """
        ordered = topk_order_matrix(scores, working.active, working.k)
        return cls(vertices, ordered, working)

    # ------------------------------------------------------------------ #
    # sequence protocol (legacy VertexProfile views)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.vertices.shape[0]

    def __getitem__(self, index: int) -> "VertexProfile":
        from repro.core.kipr import VertexProfile

        ordered = tuple(int(i) for i in self.ordered[index])
        return VertexProfile(
            vertex=self.vertices[index],
            ordered=ordered,
            top_set=frozenset(ordered),
            kth=ordered[-1],
        )

    def __iter__(self) -> Iterator["VertexProfile"]:
        for index in range(len(self)):
            yield self[index]

    @property
    def working(self) -> "WorkingSet":
        """The working set these profiles were computed for."""
        return self._working

    # ------------------------------------------------------------------ #
    # the three region tests as array comparisons
    # ------------------------------------------------------------------ #
    def kipr_violation(self) -> Optional[Tuple[int, int, str]]:
        """First vertex pair violating the kIPR conditions (Lemma 3), or ``None``.

        Mirrors :func:`repro.core.kipr.find_kipr_violation`: Case 1
        (different top-k sets) is reported before Case 2 (same set, different
        k-th option), always against vertex 0.
        """
        if len(self) == 0 or self.ordered.shape[1] == 0:
            return None
        set_mismatch = np.any(self.sorted_sets != self.sorted_sets[0], axis=1)
        if np.any(set_mismatch):
            return 0, int(np.argmax(set_mismatch)), "set"
        kth_mismatch = self.kth != self.kth[0]
        if np.any(kth_mismatch):
            return 0, int(np.argmax(kth_mismatch)), "kth"
        return None

    def is_kipr(self) -> bool:
        """Lemma 3 verdict: one shared top-k set and k-th option."""
        return self.kipr_violation() is None

    def passes_lemma7(self, k: int) -> bool:
        """Lemma 7 verdict: every vertex yields the same top-(k-1) set."""
        if k <= 1 or len(self) == 0:
            return True
        prefix = self.ordered[:, : k - 1]
        prefix = np.sort(prefix, axis=1) if prefix.size else prefix
        return bool(np.all(prefix == prefix[0]))

    def consistent_top_lambda(self, k: int) -> Tuple[int, frozenset]:
        """Largest λ < k shared as a top-λ set by all vertices (Lemma 5)."""
        if k <= 1 or len(self) == 0:
            return 0, frozenset()
        max_lambda = min(k - 1, self.ordered.shape[1])
        if max_lambda <= 0:
            return 0, frozenset()
        # One sort of the longest prefix; shorter prefixes reuse it by
        # re-sorting the clipped columns (cheap: max_lambda < k columns).
        for lam in range(max_lambda, 0, -1):
            prefix = np.sort(self.ordered[:, :lam], axis=1)
            if np.all(prefix == prefix[0]):
                return lam, frozenset(int(i) for i in self.ordered[0, :lam])
        return 0, frozenset()

    # ------------------------------------------------------------------ #
    # helpers for splitting-pair search
    # ------------------------------------------------------------------ #
    def candidate_pool(self) -> np.ndarray:
        """Sorted union of the vertices' top-k sets (splitting candidates)."""
        return np.unique(self.ordered)

    def pool_scores(self, pool: np.ndarray) -> np.ndarray:
        """``(m, len(pool))`` scores of the pool options at every vertex."""
        coefficients = self._working.coefficients[pool]
        constants = self._working.constants[pool]
        return affine_scores(self.vertices, coefficients, constants)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RegionProfiles(n_vertices={len(self)}, k={self.ordered.shape[1]}, "
            f"n_active={self._working.n_active})"
        )
