"""Vertex enumeration: from an H-representation ``A x <= b`` to the vertex set.

The general-dimension path delegates to qhull through
:class:`scipy.spatial.HalfspaceIntersection`, exactly as the paper's C++
implementation calls the qhull library.  A dedicated 1-D fast path covers the
interval polytopes that arise for 2-attribute datasets (where the preference
space is one-dimensional, as in the paper's running example).

For two- and three-dimensional polytopes — the paper's experimental
settings, where ``d = 3`` / ``d = 4`` attributes give a 2-D / 3-D preference
space — every enumerated vertex is additionally *canonicalised* by
:func:`canonicalize_polygon_vertices` / :func:`canonicalize_polyhedron_vertices`:
its coordinates are recomputed in closed form from its two (three) tight
facets and the result is returned in a fixed lexicographic order.  The
closed-form backends of :mod:`repro.geometry.polygon` and
:mod:`repro.geometry.polyhedron` run the same canonicalisation over the same
H-representation, which is what makes the backends **bit-identical**
(same vertex bytes, same order) rather than merely close.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Tuple

import numpy as np
from scipy.spatial import HalfspaceIntersection, QhullError

from repro.exceptions import DegeneratePolytopeError, EmptyRegionError
from repro.geometry.chebyshev import chebyshev_center
from repro.geometry.counters import geometry_counters
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

#: Minimum |determinant| (= |sin| of the facet angle for unit normals) for a
#: facet pair to be preferred when snapping a 2-D vertex onto its defining
#: facets.  Pairs below this are nearly parallel and numerically unreliable.
_DET_MIN = 1e-9

#: Coordinate axes of a 3-D point, for indexing the Cramer systems.
_AXES = np.arange(3)


def deduplicate_points(points: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Remove (near-)duplicate rows from an ``(n, d)`` point array.

    Points are snapped onto a grid of pitch ``tol.dedup`` for hashing, then
    one representative (the original, un-snapped coordinates) is kept per
    grid cell.  Deterministic: representatives are chosen in row order.
    """
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return points.reshape(0, points.shape[1] if points.ndim == 2 else 0)
    keys = np.round(points / tol.dedup).astype(np.int64)
    seen: set[tuple] = set()
    keep_rows = []
    for i, key in enumerate(map(tuple, keys)):
        if key not in seen:
            seen.add(key)
            keep_rows.append(i)
    return points[keep_rows]


def canonicalize_polygon_vertices(
    A: np.ndarray,
    b: np.ndarray,
    vertices: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Canonical form of a 2-D vertex set: facet-snapped, deduplicated, lexsorted.

    Each vertex is recomputed as the exact intersection of two of its tight
    facets (rows ``j`` of ``A x <= b`` with ``|b_j - a_j . v| <= tol.dedup *
    max(1, |b_j|)``), via a fixed-order Cramer solve.  The
    facet pair is chosen deterministically: the lexicographically smallest
    tight pair whose normals are not nearly parallel (``|det| >= 1e-9``),
    falling back to the maximum-``|det|`` pair.  Vertices with fewer than two
    tight facets (or an all-parallel tight set) keep their input coordinates.

    The snapped vertices are sorted in descending lexicographic order (by
    first coordinate, then second) and then deduplicated, so the output is
    independent of the *producer* of the approximate input coordinates.  Both vertex-enumeration
    backends — qhull halfspace intersection and the closed-form polygon
    clipper — finish with this function on the same ``(A, b)``, which makes
    their outputs bit-identical: identical facet pairs fed through identical
    arithmetic, in identical order.

    The fixed Cramer evaluation order (products before differences, one
    division by the determinant) also guarantees that the *same* facet pair
    with both rows negated — a split's complement halfspace — yields the same
    bits, so vertices on a cut edge hash identically in both children (which
    is what keeps the :class:`~repro.core.scorecache.VertexScoreMemo` hit
    rate high across siblings).
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if vertices.size == 0:
        return vertices.reshape(0, 2)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    slack = np.abs(b[None, :] - vertices @ A.T)
    scale = np.maximum(1.0, np.abs(b))[None, :]
    tight = slack <= tol.dedup * scale
    snapped = vertices.copy()
    for row in range(vertices.shape[0]):
        facets = np.flatnonzero(tight[row])
        if facets.size < 2:
            continue
        chosen = None
        fallback = None
        fallback_det = 0.0
        for ii in range(facets.size):
            i = facets[ii]
            for jj in range(ii + 1, facets.size):
                j = facets[jj]
                det = A[i, 0] * A[j, 1] - A[i, 1] * A[j, 0]
                if abs(det) >= _DET_MIN:
                    chosen = (i, j, det)
                    break
                if abs(det) > abs(fallback_det):
                    fallback = (i, j, det)
                    fallback_det = det
            if chosen is not None:
                break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            continue
        i, j, det = chosen
        # `+ 0.0` maps -0.0 to +0.0: a negated facet pair (a split's
        # complement halfspace) negates numerator and determinant alike, so
        # the quotient is bit-identical except for the sign of zero.
        snapped[row, 0] = (b[i] * A[j, 1] - b[j] * A[i, 1]) / det + 0.0
        snapped[row, 1] = (A[i, 0] * b[j] - A[j, 0] * b[i]) / det + 0.0
    order = np.lexsort((snapped[:, 1], snapped[:, 0]))[::-1]
    return deduplicate_points(snapped[order], tol=tol)


def _det3(r0: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> float:
    """``3 x 3`` determinant by cofactor expansion in a fixed evaluation order.

    Every term carries exactly one factor from each row, so negating one
    full row negates the result *bit-exactly* (IEEE negation and the
    symmetric rounding of ``a - b`` versus ``b - a`` are both exact) — the
    property :func:`canonicalize_polyhedron_vertices` relies on for split
    complement halfspaces.  Each row may also be an array whose first axis
    is the entry (entry ``c`` of many rows in ``r[c]``): the same products
    and differences then run elementwise, giving one determinant per
    position with the same bits as one scalar call each.
    """
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def _cramer_determinants(
    A: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """The four Cramer determinants of each facet-row triple ``(i[t], j[t], k[t])``.

    Row 0 of the ``(4, R)`` result is the :func:`_det3` of the three
    normals; row ``1 + c`` is the determinant with column ``c`` of the
    normal matrix replaced by ``b``, so coordinate ``c`` of the triple's
    intersection point is ``dets[1 + c] / dets[0]``.  The four systems are
    stacked on an extra axis and evaluated by one elementwise :func:`_det3`
    call, whose bits equal those of one scalar call per system.
    """
    systems = []
    for normal, rhs in ((A[i].T, b[i]), (A[j].T, b[j]), (A[k].T, b[k])):
        # stack[c, s] is entry c of this facet's row in system s.
        stack = np.repeat(normal[:, None, :], 4, axis=1)
        stack[_AXES, _AXES + 1] = rhs
        systems.append(stack)
    return _det3(*systems)


def canonicalize_polyhedron_vertices(
    A: np.ndarray,
    b: np.ndarray,
    vertices: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Canonical form of a 3-D vertex set: facet-snapped, deduplicated, lexsorted.

    The three-dimensional sibling of :func:`canonicalize_polygon_vertices`,
    with the same contract: each vertex is recomputed as the exact
    intersection of three of its tight facets via a fixed-order ``3 x 3``
    Cramer solve.  The facet triple is chosen deterministically — the
    lexicographically smallest tight triple whose normal matrix is not
    nearly singular (``|det| >= 1e-9``), falling back to the
    maximum-``|det|`` triple — and vertices with fewer than three tight
    facets (or an all-singular tight set) keep their input coordinates.

    The snapped vertices are sorted in descending lexicographic order and
    deduplicated, so the output depends only on ``(A, b)`` and the tight
    sets, never on the producer of the approximate input coordinates.  Both
    vertex-enumeration backends — qhull halfspace intersection and the
    closed-form polyhedron clipper — finish with this function on the same
    ``(A, b)``, which makes their outputs bit-identical.  As in 2-D, the
    fixed Cramer evaluation order guarantees that the same facet triple
    with one row negated (a split's complement halfspace) yields the same
    bits, so vertices on a cut facet hash identically in both children —
    which is what keeps the :class:`~repro.core.scorecache.VertexScoreMemo`
    hit rate high across siblings at ``d = 4``.

    Simple vertices — exactly three tight facets, not nearly singular, the
    common case — are snapped in one batch with the same arithmetic applied
    elementwise (:func:`_cramer_determinants`).  Only vertices with more
    than three tight facets, or whose one triple is nearly singular, run
    the per-row triple search; their chosen triples are then snapped in a
    second batch.
    """
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if vertices.size == 0:
        return vertices.reshape(0, 3)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    slack = np.abs(b[None, :] - vertices @ A.T)
    scale = np.maximum(1.0, np.abs(b))[None, :]
    tight = slack <= tol.dedup * scale
    snapped = vertices.copy()
    n_tight = tight.sum(axis=1)
    simple = np.flatnonzero(n_tight == 3)
    search = n_tight > 3
    if simple.size:
        dets = _cramer_determinants(A, b, *np.nonzero(tight[simple])[1].reshape(-1, 3).T)
        regular = np.abs(dets[0]) >= _DET_MIN
        # Only regular triples are divided (a singular one may have det 0);
        # `+ 0.0` maps -0.0 to +0.0 (see the 2-D version).
        snapped[simple[regular]] = (dets[1:, regular] / dets[0, regular] + 0.0).T
        search[simple[~regular]] = True
    rows = []
    triples = []
    for row in np.flatnonzero(search):
        chosen = None
        fallback = None
        fallback_det = 0.0
        for triple in combinations(np.flatnonzero(tight[row]).tolist(), 3):
            det = _det3(A[triple[0]], A[triple[1]], A[triple[2]])
            if abs(det) >= _DET_MIN:
                chosen = triple
                break
            if abs(det) > abs(fallback_det):
                fallback = triple
                fallback_det = det
        if chosen is None:
            chosen = fallback
        if chosen is not None:
            rows.append(row)
            triples.append(chosen)
    if rows:
        dets = _cramer_determinants(A, b, *np.array(triples).T)
        snapped[rows] = (dets[1:] / dets[0] + 0.0).T
    order = np.lexsort((snapped[:, 2], snapped[:, 1], snapped[:, 0]))[::-1]
    return deduplicate_points(snapped[order], tol=tol)


def _enumerate_1d(A: np.ndarray, b: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Vertex enumeration for 1-D polytopes (closed intervals)."""
    lower = -np.inf
    upper = np.inf
    for coeff, rhs in zip(A[:, 0], b):
        if coeff > tol.geometry:
            upper = min(upper, rhs / coeff)
        elif coeff < -tol.geometry:
            lower = max(lower, rhs / coeff)
        elif rhs < -tol.geometry:
            return np.empty((0, 1))
    if not np.isfinite(lower) or not np.isfinite(upper):
        raise DegeneratePolytopeError("1-D polytope is unbounded")
    if lower > upper + tol.geometry:
        return np.empty((0, 1))
    if abs(upper - lower) <= tol.dedup:
        return np.array([[0.5 * (lower + upper)]])
    return np.array([[lower], [upper]])


def enumerate_vertices(
    A: np.ndarray,
    b: np.ndarray,
    interior_point: Optional[np.ndarray] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Enumerate the vertices of the polytope ``{x : A x <= b}``.

    Parameters
    ----------
    A, b:
        H-representation of the polytope.  The polytope must be bounded.
    interior_point:
        Optional strictly interior point.  When omitted, the Chebyshev centre
        is computed; if its radius is (numerically) zero the polytope is
        degenerate and :class:`DegeneratePolytopeError` is raised, and if it
        is infeasible :class:`EmptyRegionError` is raised.
    tol:
        Tolerance bundle for deduplication and the 1-D fast path.

    Returns
    -------
    ``(m, d)`` array of vertices (order unspecified, duplicates removed).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    dim = A.shape[1]

    if dim == 1:
        return _enumerate_1d(A, b, tol)

    if interior_point is None:
        center, radius = chebyshev_center(A, b)
        if center is None:
            raise EmptyRegionError("polytope is empty; cannot enumerate vertices")
        if radius <= tol.radius:
            raise DegeneratePolytopeError(
                "polytope is lower-dimensional; vertex enumeration via qhull needs "
                "a full-dimensional body"
            )
        interior_point = center

    halfspaces = np.hstack([A, -b[:, None]])
    geometry_counters.n_qhull_calls += 1
    try:
        hs = HalfspaceIntersection(halfspaces, np.asarray(interior_point, dtype=float))
    except QhullError as exc:  # pragma: no cover - depends on qhull internals
        raise DegeneratePolytopeError(f"qhull failed on halfspace intersection: {exc}") from exc
    vertices = np.asarray(hs.intersections, dtype=float)
    vertices = vertices[np.all(np.isfinite(vertices), axis=1)]
    if dim == 2:
        return canonicalize_polygon_vertices(A, b, vertices, tol=tol)
    if dim == 3:
        return canonicalize_polyhedron_vertices(A, b, vertices, tol=tol)
    return deduplicate_points(vertices, tol=tol)
