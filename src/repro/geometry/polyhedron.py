"""Exact 3-D polyhedron geometry: closed-form clipping with no LP and no qhull.

The paper's second headline setting runs with ``d = 4`` attributes, i.e. in
a 3-D reduced preference space, where every region the test-and-split
solvers touch is a convex *polyhedron*.  PR 3 removed the per-region
``linprog``/qhull round trip for 2-D bodies (:mod:`repro.geometry.polygon`);
this module extends the same closed-form treatment one dimension up:

* a **halfspace clip** runs one Sutherland–Hodgman-style pass over every
  face ring; crossing points are computed once per (undirected) polyhedron
  edge, so the two faces sharing an edge — and the two children of a *cut*
  — receive bit-identical crossing coordinates;
* a **cut by a hyperplane** classifies the vertices once and emits both
  children; the cap polygon on the cut plane (the shared cut facet) is
  rebuilt by chaining the per-face cut edges, reversed so that every face
  ring stays wound counter-clockwise seen from outside;
* the **Chebyshev centre** of a polyhedron is an LP in four variables whose
  optimum is attained at a basic solution: enumerating facet 4-tuples with
  batched ``4 x 4`` solves reproduces it in closed form;
* **volume** is a fan of face-pyramids (one third of face area times
  supporting-plane distance), **emptiness** is an empty vertex list.

:class:`Polyhedron` is the facet→vertex-ring representation used by the
``backend="polyhedron"`` dispatch in
:class:`~repro.geometry.polytope.ConvexPolytope` (auto-selected for 3-D
bodies).  Each face carries the *label* (row index) of the halfspace it lies
on, so the final vertex coordinates can be recomputed exactly from the
owning H-representation (see
:func:`~repro.geometry.vertex_enum.canonicalize_polyhedron_vertices`) —
which is what makes the polyhedron backend bit-identical to the LP/qhull
path rather than merely close to it.

Polyhedra are built from an arbitrary H-representation by clipping a large
safety cube (the same ``±bound`` box
:func:`~repro.geometry.chebyshev.chebyshev_center` imposes on its LP), so
unbounded intermediate H-representations are handled gracefully: the
polyhedron remembers that it still touches the safety cube (synthetic
negative face labels) and callers fall back to the generic path for those
rare, non-solver cases.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.counters import geometry_counters
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

#: Safety-cube half-width for unbounded H-representations; mirrors the
#: ``bound`` box of :func:`repro.geometry.chebyshev.chebyshev_center`.
DEFAULT_BOUND = 1e6

#: A face of a polyhedron: an ordered ring of vertex indices plus the label
#: (row index in the owning H-representation) of its supporting halfspace.
#: Negative labels are synthetic safety-cube faces.
Face = Tuple[np.ndarray, int]


def _edge_key(i: int, j: int) -> Tuple[str, int, int]:
    """Canonical (undirected) key of the crossing point on edge ``(i, j)``."""
    return ("e", i, j) if i < j else ("e", j, i)


class Polyhedron:
    """A convex polyhedron as a vertex array plus facet→vertex-ring faces.

    Parameters
    ----------
    points:
        ``(m, 3)`` vertex array.  ``m`` may be 0 (empty) or small without
        any face (a degenerate, lower-dimensional body kept only for
        emptiness verdicts).
    faces:
        Sequence of ``(ring, label)`` pairs: ``ring`` is an int array of
        vertex indices walking the face boundary (consistently wound across
        faces, so every geometric edge appears in exactly two rings, in
        opposite directions), ``label`` is the index of the supporting
        halfspace row in the owning H-representation.  Negative labels are
        synthetic: they mark faces of the construction safety cube and flag
        the polyhedron as (still) unbounded.

    Instances are immutable by convention: clipping returns new polyhedra.
    """

    __slots__ = ("points", "faces")

    def __init__(self, points: np.ndarray, faces: Sequence[Face]):
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.faces: Tuple[Face, ...] = tuple(
            (np.asarray(ring, dtype=int).reshape(-1), int(label)) for ring, label in faces
        )

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        """Number of stored vertices."""
        return self.points.shape[0]

    @property
    def n_faces(self) -> int:
        """Number of faces (0 for empty or degenerate bodies)."""
        return len(self.faces)

    def is_empty(self) -> bool:
        """True when the polyhedron has no points at all."""
        return self.points.shape[0] == 0

    def touches_bound(self) -> bool:
        """True when a face still lies on the construction safety cube.

        A polyhedron built from an H-representation that does not bound
        space keeps (synthetic, negative) safety-cube labels; callers treat
        such polyhedra as unbounded bodies and fall back to the generic
        geometry path.
        """
        return any(label < 0 for _ring, label in self.faces)

    def facet_labels(self) -> np.ndarray:
        """Sorted unique non-negative face labels (the non-redundant rows)."""
        labels = {label for _ring, label in self.faces if label >= 0}
        return np.array(sorted(labels), dtype=int)

    def volume(self) -> float:
        """Euclidean volume as a fan of face-pyramids (0.0 for degenerate bodies).

        Each face contributes ``area * distance(apex, face plane) / 3`` with
        the vertex mean as apex; the per-face distance is taken as an
        absolute value, so the result does not depend on ring orientation.
        """
        if self.points.shape[0] == 0 or not self.faces:
            return 0.0
        apex = self.points.mean(axis=0)
        total = 0.0
        for ring, _label in self.faces:
            if ring.shape[0] < 3:
                continue
            base = self.points[ring[0]]
            spokes = self.points[ring[1:]] - base
            cross = (np.cross(spokes[:-1], spokes[1:])).sum(axis=0)
            area2 = float(np.linalg.norm(cross))
            if area2 <= 0.0:
                continue
            normal = cross / area2
            height = abs(float(normal @ (apex - base)))
            total += area2 * 0.5 * height / 3.0
        return total

    # ------------------------------------------------------------------ #
    # clipping
    # ------------------------------------------------------------------ #
    def clip(
        self,
        normal: np.ndarray,
        offset: float,
        label: int,
        tol: Tolerance = DEFAULT_TOL,
    ) -> "Polyhedron":
        """Clip by the halfspace ``normal . x <= offset``.

        Vertices within ``tol.geometry`` of the boundary count as inside
        (mirroring the vertex classification of the split machinery, where
        "on" vertices belong to both children).  The new cap face introduced
        on the clipping plane is labelled ``label``.
        """
        if self.points.shape[0] == 0:
            return self
        geometry_counters.n_clip_calls += 1
        normal = np.asarray(normal, dtype=float)
        signed = self.points @ normal - float(offset)
        return self._emit_side(signed, normal, label, tol, {})

    def cut(
        self,
        normal: np.ndarray,
        offset: float,
        label: int,
        tol: Tolerance = DEFAULT_TOL,
    ) -> Tuple["Polyhedron", "Polyhedron"]:
        """Split by the hyperplane ``normal . x = offset`` into two children.

        One classification pass serves both sides: the ``(<=)`` child and
        the ``(>=)`` child share the cut facet (labelled ``label`` in both),
        and vertices lying on the hyperplane belong to both children.
        Crossing points are interpolated once per polyhedron edge and reused
        by both sides, so the shared vertices are bit-identical across
        siblings even before canonicalisation.
        """
        if self.points.shape[0] == 0:
            return self, self
        geometry_counters.n_clip_calls += 1
        normal = np.asarray(normal, dtype=float)
        signed = self.points @ normal - float(offset)
        crossings: Dict[tuple, List[float]] = {}
        below = self._emit_side(signed, normal, label, tol, crossings)
        above = self._emit_side(-signed, -normal, label, tol, crossings)
        return below, above

    @staticmethod
    def _crossing(
        i: int,
        j: int,
        signed: List[float],
        coords: List[List[float]],
        crossings: Dict[tuple, List[float]],
    ) -> Tuple[tuple, List[float]]:
        """Crossing point of edge ``(i, j)`` with the clip plane, cached.

        The interpolation always runs from the smaller to the larger vertex
        index, so both faces sharing the edge — and, on a :meth:`cut`, both
        children (a sign flip of ``signed`` cancels exactly in the
        parameter ``t``) — receive the same bytes.  ``coords`` are the
        vertex coordinates as Python floats: each coordinate is
        ``lo + t * (hi - lo)``, rounded after every operation exactly as the
        equivalent numpy expression would be.
        """
        key = _edge_key(i, j)
        point = crossings.get(key)
        if point is None:
            lo, hi = key[1], key[2]
            t = signed[lo] / (signed[lo] - signed[hi])
            point = [a + t * (c - a) for a, c in zip(coords[lo], coords[hi])]
            crossings[key] = point
        return key, point

    def _emit_side(
        self,
        signed: np.ndarray,
        outward: np.ndarray,
        cut_label: int,
        tol: Tolerance,
        crossings: Dict[tuple, List[float]],
    ) -> "Polyhedron":
        """One clipping pass keeping ``signed <= tol.geometry``.

        ``outward`` is the normal of the kept side's cap face (the direction
        in which ``signed`` grows); the cap ring is wound around it like
        every other face ring.  Ring positions are keyed ``("v", i)`` for a
        kept vertex ``i`` and ``("e", lo, hi)`` for a crossing point.  The
        loop runs on Python lists and floats: the same IEEE arithmetic as on
        numpy scalars and 3-vectors, without their per-element cost.
        """
        tolg = tol.geometry
        inside = signed <= tolg
        if bool(inside.all()):
            return self
        if not bool(inside.any()):
            return Polyhedron(np.empty((0, 3)), ())

        values = signed.tolist()
        kept = inside.tolist()
        coords = self.points.tolist()
        crossed: Dict[tuple, List[float]] = {}
        new_rings: List[Tuple[List[tuple], int]] = []
        cut_edges: List[Tuple[tuple, tuple]] = []
        for ring, label in self.faces:
            out_keys: List[tuple] = []
            exit_key: Optional[tuple] = None
            entry_key: Optional[tuple] = None
            positions = ring.tolist()
            for i, j in zip(positions, positions[1:] + positions[:1]):
                d0, d1 = values[i], values[j]
                if kept[i]:
                    key = ("v", i)
                    out_keys.append(key)
                    if not kept[j]:
                        if d0 < -tolg:
                            # Strictly inside -> strictly outside: a real
                            # crossing; the boundary leaves along the cut.
                            ckey, cpoint = self._crossing(i, j, values, coords, crossings)
                            out_keys.append(ckey)
                            crossed[ckey] = cpoint
                            exit_key = ckey
                        else:
                            # The vertex itself lies on the cut plane.
                            exit_key = key
                elif kept[j]:
                    if d1 < -tolg and d0 > tolg:
                        # Strictly outside -> strictly inside: re-entry.
                        ckey, cpoint = self._crossing(i, j, values, coords, crossings)
                        out_keys.append(ckey)
                        crossed[ckey] = cpoint
                        entry_key = ckey
                    else:
                        # Outside -> "on": the re-entry point *is* vertex j,
                        # emitted (as a kept vertex) on the next turn.
                        entry_key = ("v", j)
            if len(out_keys) >= 3:
                new_rings.append((out_keys, int(label)))
            if exit_key is not None and entry_key is not None and exit_key != entry_key:
                cut_edges.append((exit_key, entry_key))

        cap = _chain_cap(cut_edges, coords, crossed, outward)
        if cap is not None:
            new_rings.append((cap, int(cut_label)))

        if not new_rings:
            # Lower-dimensional intersection (the plane grazes the body):
            # keep the surviving points so emptiness verdicts stay correct,
            # but drop the face structure — the body has no interior.
            return Polyhedron(
                np.vstack([self.points[inside], np.reshape(list(crossed.values()), (-1, 3))]),
                (),
            )

        index: Dict[tuple, int] = {}
        rows: List[List[float]] = []
        faces = []
        for keys, label in new_rings:
            ring = []
            for key in keys:
                slot = index.get(key)
                if slot is None:
                    slot = index[key] = len(rows)
                    rows.append(crossed[key] if key[0] == "e" else coords[key[1]])
                ring.append(slot)
            faces.append((ring, label))
        return Polyhedron(np.array(rows), faces)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Polyhedron(n_vertices={self.n_vertices}, n_faces={self.n_faces})"


def _chain_cap(
    cut_edges: List[Tuple[tuple, tuple]],
    coords: List[List[float]],
    crossed: Dict[tuple, List[float]],
    outward: np.ndarray,
) -> Optional[List[tuple]]:
    """Assemble the cap-face ring from the per-face cut edges.

    Each clipped face contributes one directed segment ``exit -> entry`` on
    the cut plane, walked in the direction of that face's ring.  Because
    face rings are consistently wound, the segments chain head to tail into
    a single cycle.  The cap shares each of those edges with one face, so it
    must walk them the other way: the chained cycle is returned *reversed*.
    That keeps every ring wound counter-clockwise seen from outside (its
    Newell normal points along its facet's outward normal), which in turn
    lets the next clip chain its cap again instead of meeting duplicate
    starts.

    Tolerance-degenerate inputs (duplicate starts, open chains) fall back to
    ordering the cap vertices by angle around their mean in the cut plane —
    always a valid convex ring — oriented so that its Newell normal points
    along ``outward`` (the kept side's cap normal).  ``coords`` holds the
    clipped body's vertices (keys ``("v", i)``), ``crossed`` the crossing
    points (keys ``("e", lo, hi)``).
    """
    if len(cut_edges) < 3:
        return None
    succ: Dict[tuple, tuple] = {}
    consistent = True
    for start, end in cut_edges:
        if start in succ:
            consistent = False
            break
        succ[start] = end
    ring: Optional[List[tuple]] = None
    if consistent:
        first = cut_edges[0][0]
        ring = [first]
        node = succ.get(first)
        while node is not None and node != first and len(ring) <= len(cut_edges):
            ring.append(node)
            node = succ.get(node)
        if node != first or len(ring) != len(succ):
            ring = None
        else:
            ring.reverse()
    if ring is None:
        keys = sorted({key for edge in cut_edges for key in edge})
        pts = np.asarray([crossed[key] if key[0] == "e" else coords[key[1]] for key in keys])
        center = pts.mean(axis=0)
        spread = pts - center
        # Project onto the two principal directions of the cap polygon and
        # order by angle; SVD gives a deterministic in-plane basis.
        _u, _s, vt = np.linalg.svd(spread, full_matrices=False)
        angles = np.arctan2(spread @ vt[1], spread @ vt[0])
        order = np.argsort(angles, kind="stable")
        # Newell normal of the sorted loop: flip it if it runs clockwise
        # seen from the outward side.
        loop = pts[order]
        if float(np.cross(loop, np.roll(loop, -1, axis=0)).sum(axis=0) @ outward) < 0.0:
            order = order[::-1]
        ring = [keys[i] for i in order]
    return ring if len(ring) >= 3 else None


def _canonical_vertex_ids(points: np.ndarray) -> np.ndarray:
    """Map each stored vertex to a canonical id, merging geometric duplicates.

    Distinct vertex indices can hold the same geometric point, for example
    when an edge crossing lands within rounding of an existing vertex or a
    caller builds a body whose rings use per-face copies of its corners.
    Union-find over pairs within a relative tolerance (``1e-9`` of the
    coordinate scale) collapses those copies so that edge identity can be
    decided geometrically instead of by raw index.  The quadratic pairing
    is fine here — backend bodies carry tens of vertices — and a body
    without close pairs maps every vertex to itself.
    """
    m = points.shape[0]
    parent = np.arange(m)
    if m == 0:
        return parent
    thresh = 1e-9 * max(1.0, float(np.abs(points).max()))
    close = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2) <= thresh
    pairs = np.nonzero(np.triu(close, k=1))
    if pairs[0].size == 0:
        return parent

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*pairs):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return np.array([find(i) for i in range(m)], dtype=int)


def polyhedron_is_consistent(polyhedron: Polyhedron) -> bool:
    """Cheap structural health check of a polyhedron backend body.

    Returns False when the representation can no longer be trusted:
    non-finite vertex coordinates, a face ring with fewer than three
    vertices, out-of-range or repeated indices, or a torn edge structure —
    in a closed polyhedral surface every undirected edge belongs to exactly
    two faces, so any other count means a clip left the face complex broken
    and downstream closed-form answers (volume, Chebyshev facet tuples,
    further clips) would be wrong.  Edges are identified by canonical
    geometric vertex (duplicate points merged within a relative ``1e-9``
    tolerance, see :func:`_canonical_vertex_ids`), and zero-length edges
    between merged copies are ignored.  Sliver faces that collapse to fewer
    than three distinct geometric vertices (zero area, so no edge of theirs
    borders a second face) are skipped rather than counted.  Degenerate
    bodies (points without faces) pass: they are valid lower-dimensional
    placeholders.

    All rings are checked at once: ring positions are flattened into one
    array, every check is a vectorised comparison, and the edge count is
    one sort of the integer keys ``lo * n + hi`` of the canonical edge
    endpoints (every key must occur exactly twice).  The polytope layer
    runs this before trusting the backend and demotes the region to the
    generic LP/qhull path on failure
    (:meth:`~repro.geometry.polytope.ConvexPolytope` backend degradation).
    """
    points = polyhedron.points
    if not bool(np.isfinite(points).all()):
        return False
    faces = polyhedron.faces
    if not faces:
        return True
    n = points.shape[0]
    sizes = np.array([ring.shape[0] for ring, _label in faces])
    if int(sizes.min()) < 3:
        return False
    flat = np.concatenate([ring for ring, _label in faces])
    if int(flat.min()) < 0 or int(flat.max()) >= n:
        return False
    n_faces = sizes.shape[0]
    face_of = np.repeat(np.arange(n_faces), sizes)
    # Repeated index within one ring: a duplicate (face, vertex) key.
    keys = np.sort(face_of * n + flat)
    if bool((keys[1:] == keys[:-1]).any()):
        return False
    canonical = _canonical_vertex_ids(points)[flat]
    # Zero-area slivers have fewer than three distinct canonical vertices.
    distinct = np.unique(face_of * n + canonical) // n
    sliver = np.bincount(distinct, minlength=n_faces) < 3
    # Each ring position's successor, wrapping at the end of its ring.
    ends = np.cumsum(sizes)
    successor = np.arange(1, flat.shape[0] + 1)
    successor[ends - 1] = ends - sizes
    head, tail = canonical, canonical[successor]
    counted = ~sliver[face_of] & (head != tail)
    lo = np.minimum(head, tail)[counted]
    hi = np.maximum(head, tail)[counted]
    edges = np.sort(lo * n + hi)
    if edges.shape[0] % 2:
        return False
    return bool((edges[0::2] == edges[1::2]).all() and (edges[1:-1:2] != edges[2::2]).all())


def polyhedron_from_halfspaces(
    A: np.ndarray,
    b: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    bound: float = DEFAULT_BOUND,
) -> Polyhedron:
    """Build the polyhedron ``{x : A x <= b}`` by clipping a safety cube.

    The cube ``[-bound, bound]^3`` (synthetic face labels ``-1 .. -6``) is
    clipped by every row of the H-representation in order; row ``i`` becomes
    face label ``i``.  If the result still touches the cube the input was
    unbounded — :meth:`Polyhedron.touches_bound` reports it and callers
    decide how to proceed (the polytope layer falls back to the generic
    qhull path for vertex output in that case).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    if A.shape[1] != 3:
        raise ValueError("polyhedron_from_halfspaces requires a 3-D H-representation")
    B = float(bound)
    corners = np.array(
        [
            [-B, -B, -B],
            [B, -B, -B],
            [B, B, -B],
            [-B, B, -B],
            [-B, -B, B],
            [B, -B, B],
            [B, B, B],
            [-B, B, B],
        ]
    )
    # Consistently wound (CCW viewed from outside), so shared edges appear
    # in opposite directions in their two rings.
    rings = [
        [0, 3, 2, 1],  # z = -B
        [4, 5, 6, 7],  # z = +B
        [0, 1, 5, 4],  # y = -B
        [2, 3, 7, 6],  # y = +B
        [0, 4, 7, 3],  # x = -B
        [1, 2, 6, 5],  # x = +B
    ]
    polyhedron = Polyhedron(corners, [(ring, -(index + 1)) for index, ring in enumerate(rings)])
    for row in range(A.shape[0]):
        polyhedron = polyhedron.clip(A[row], b[row], label=row, tol=tol)
        if polyhedron.is_empty():
            break
    return polyhedron


def polyhedron_chebyshev(
    A: np.ndarray,
    b: np.ndarray,
    polyhedron: Polyhedron,
    tol: Tolerance = DEFAULT_TOL,
    bound: float = DEFAULT_BOUND,
) -> Tuple[Optional[np.ndarray], float]:
    """Exact Chebyshev centre and radius of a 3-D polytope — no LP.

    The Chebyshev problem ``max r  s.t.  a_i . x + r <= b_i`` (rows are unit
    normals) is a linear program in ``(x, r)`` whose optimum is attained at
    a basic solution: four active constraints.  The candidate actives are
    the polytope's non-redundant facets — exactly the faces of
    ``polyhedron`` — plus the same auxiliary constraints the LP formulation
    carries (the ``±bound`` box on ``x``, ``0 <= r <= bound``).  Enumerating
    the facet 4-tuples, one batched ``4 x 4`` solve each, and keeping the
    best feasible candidate reproduces the LP's optimum in closed form.
    (Restricting to non-redundant rows is sound: with unit normals, a row
    implied by the facets in ``x``-space is also implied in ``(x, r)``-space
    for ``r >= 0``.)

    Degenerate bodies are handled by additionally evaluating the
    polyhedron's own vertices and their mean as centre candidates (a flat
    body's optimum has radius 0 with the ``r >= 0`` bound active, which no
    facet 4-tuple expresses); the best of all candidates is returned.  When
    the clipped body kept no face structure at all (a grazing plane left a
    lower-dimensional slab), *every* row of the H-representation is used for
    the feasibility check.

    Returns ``(centre, radius)`` exactly like
    :func:`~repro.geometry.chebyshev.chebyshev_center`: ``(None, -inf)``
    for an empty body, radius (numerically) zero for a lower-dimensional
    one.  The same near-infeasibility band documented on
    :func:`~repro.geometry.polygon.polygon_chebyshev` applies: systems
    infeasible by a margin between ``tol.geometry`` and the LP solver's own
    feasibility slack may be reported empty here but feasible (with a tiny
    negative radius) by HiGHS — either verdict makes every solver discard
    the region.
    """
    if polyhedron.is_empty():
        return None, float("-inf")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()

    facet_rows = polyhedron.facet_labels()
    if facet_rows.size == 0 and polyhedron.n_faces == 0:
        # Degenerate body without a face structure: no redundancy
        # information, so feasibility must be checked against every row.
        facet_rows = np.arange(A.shape[0])
    rows = [np.array([A[i, 0], A[i, 1], A[i, 2], 1.0, b[i]]) for i in facet_rows]
    if polyhedron.touches_bound() or len(rows) < 4:
        # Mirror the LP's auxiliary box exactly: |x_i| <= bound carries no
        # radius coefficient, and r is bounded above by `bound`.
        for axis in range(3):
            unit = np.zeros(5)
            unit[axis] = 1.0
            unit[4] = bound
            rows.append(unit.copy())
            unit[axis] = -1.0
            rows.append(unit)
        rows.append(np.array([0.0, 0.0, 0.0, 1.0, bound]))
    system = np.asarray(rows)
    lhs = system[:, :4]
    rhs = system[:, 4]
    feas_eps = 1e-9 * (1.0 + float(np.abs(rhs).max(initial=0.0)))

    best_center: Optional[np.ndarray] = None
    best_radius = float("-inf")

    n_rows = lhs.shape[0]
    if n_rows >= 4:
        quads = np.array(list(combinations(range(n_rows), 4)), dtype=int)
        mats = lhs[quads]  # (T, 4, 4)
        dets = np.linalg.det(mats)
        regular = np.abs(dets) > 1e-12
        if bool(regular.any()):
            solutions = np.linalg.solve(mats[regular], rhs[quads[regular]][..., None])[..., 0]
            radii = solutions[:, 3]
            # Feasibility of each candidate against every constraint row.
            slack = solutions @ lhs.T - rhs[None, :]
            feasible = np.all(slack <= feas_eps, axis=1) & (radii >= -feas_eps)
            if bool(feasible.any()):
                idx = int(np.argmax(np.where(feasible, radii, -np.inf)))
                best_radius = float(radii[idx])
                best_center = solutions[idx, :3].copy()

    # Point candidates cover degenerate optima (r* = 0 on a flat body),
    # which no regular facet 4-tuple expresses.
    pts = np.vstack([polyhedron.points.mean(axis=0)[None, :], polyhedron.points])
    ball_rows = lhs[:, 3] > 0.5
    if bool(ball_rows.any()):
        slack = rhs[ball_rows][None, :] - pts @ lhs[ball_rows][:, :3].T
        point_radii = slack.min(axis=1)
        idx = int(np.argmax(point_radii))
        if float(point_radii[idx]) > best_radius:
            best_radius = float(point_radii[idx])
            best_center = pts[idx].copy()

    if best_center is None:
        # No r-bearing rows at all (pure box): centre of the box.
        return np.zeros(3), float(bound)
    return best_center, max(best_radius, 0.0)
