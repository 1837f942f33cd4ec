"""Oracles for the fast paths of the closed-form 3-D geometry.

Four fast paths, each checked against a slow reference on the same inputs:

* the vectorised :func:`polyhedron_is_consistent` against the per-edge
  dictionary loop it replaced (:func:`reference_is_consistent`, kept here);
* the certified interior verdicts of :class:`ConvexPolytope`
  (``is_empty``, ``is_full_dimensional``, the degeneracy check of
  ``vertices``) against the exact Chebyshev routines;
* the batched facet snap of :func:`canonicalize_polyhedron_vertices`
  against the per-row loop it replaced (:func:`reference_canonicalize`);
* the cap winding of :meth:`Polyhedron.clip` / :meth:`Polyhedron.cut`:
  every face ring runs counter-clockwise seen from outside, so its Newell
  normal points along its facet's outward normal.

Inputs are random clip and cut sequences, corrupted bodies in the style of
``tests/test_geometry_degradation.py``, the torn body of
``tests/fixtures/torn_polyhedron_body.json`` and slivers whose Chebyshev
radius lies within 10x of ``tol.radius`` on either side of it.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import DegeneratePolytopeError
from repro.geometry.counters import geometry_counters
from repro.geometry.hyperplane import Hyperplane
from repro.geometry.polygon import polygon_chebyshev
from repro.geometry.polyhedron import (
    Polyhedron,
    polyhedron_chebyshev,
    polyhedron_from_halfspaces,
    polyhedron_is_consistent,
)
from repro.geometry.polytope import ConvexPolytope
from repro.geometry.vertex_enum import (
    canonicalize_polyhedron_vertices,
    deduplicate_points,
    enumerate_vertices,
)
from repro.geometry.chebyshev import chebyshev_center
from repro.utils.tolerance import DEFAULT_TOL

FIXTURE = Path(__file__).parent / "fixtures" / "torn_polyhedron_body.json"

UNIT_CUBE_A = np.vstack([np.eye(3), -np.eye(3)])
UNIT_CUBE_B = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

#: Outward normals of the safety-cube faces, by synthetic label -1 .. -6.
SAFETY_NORMALS = {
    -1: np.array([0.0, 0.0, -1.0]),
    -2: np.array([0.0, 0.0, 1.0]),
    -3: np.array([0.0, -1.0, 0.0]),
    -4: np.array([0.0, 1.0, 0.0]),
    -5: np.array([-1.0, 0.0, 0.0]),
    -6: np.array([1.0, 0.0, 0.0]),
}


# ---------------------------------------------------------------------- #
# reference implementations (the loops the fast paths replaced)
# ---------------------------------------------------------------------- #
def _reference_canonical_ids(points: np.ndarray) -> np.ndarray:
    """Union-find merge of points within ``1e-9`` of the coordinate scale."""
    m = points.shape[0]
    parent = np.arange(m)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    if m:
        thresh = 1e-9 * max(1.0, float(np.abs(points).max()))
        close = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2) <= thresh
        for i, j in zip(*np.nonzero(np.triu(close, k=1))):
            ri, rj = find(int(i)), find(int(j))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return np.array([find(i) for i in range(m)], dtype=int)


def reference_is_consistent(polyhedron: Polyhedron) -> bool:
    """The per-ring, per-edge dictionary validator (the oracle)."""
    points = polyhedron.points
    if not bool(np.isfinite(points).all()):
        return False
    if not polyhedron.faces:
        return True
    n = points.shape[0]
    canonical = _reference_canonical_ids(points)
    edge_counts: dict = {}
    for ring, _label in polyhedron.faces:
        if ring.shape[0] < 3:
            return False
        if ring.min(initial=0) < 0 or ring.max(initial=-1) >= n:
            return False
        if np.unique(ring).shape[0] != ring.shape[0]:
            return False
        if np.unique(canonical[ring]).shape[0] < 3:
            continue
        for a, b in zip(ring, np.roll(ring, -1)):
            ca, cb = int(canonical[a]), int(canonical[b])
            if ca == cb:
                continue
            key = (ca, cb) if ca < cb else (cb, ca)
            edge_counts[key] = edge_counts.get(key, 0) + 1
    return all(count == 2 for count in edge_counts.values())


def _reference_det3(r0, r1, r2):
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def reference_canonicalize(A, b, vertices, tol=DEFAULT_TOL) -> np.ndarray:
    """The per-row triple search and scalar Cramer snap (the oracle)."""
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    if vertices.size == 0:
        return vertices.reshape(0, 3)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    slack = np.abs(b[None, :] - vertices @ A.T)
    scale = np.maximum(1.0, np.abs(b))[None, :]
    tight = slack <= tol.dedup * scale
    snapped = vertices.copy()
    for row in range(vertices.shape[0]):
        facets = np.flatnonzero(tight[row])
        if facets.size < 3:
            continue
        chosen = None
        fallback = None
        fallback_det = 0.0
        for i, j, k in combinations(facets.tolist(), 3):
            det = _reference_det3(A[i], A[j], A[k])
            if abs(det) >= 1e-9:
                chosen = (i, j, k, det)
                break
            if abs(det) > abs(fallback_det):
                fallback = (i, j, k, det)
                fallback_det = det
        if chosen is None:
            chosen = fallback
        if chosen is None:
            continue
        i, j, k, det = chosen
        for axis in range(3):
            ri, rj, rk = A[i].copy(), A[j].copy(), A[k].copy()
            ri[axis], rj[axis], rk[axis] = b[i], b[j], b[k]
            snapped[row, axis] = _reference_det3(ri, rj, rk) / det + 0.0
    order = np.lexsort((snapped[:, 2], snapped[:, 1], snapped[:, 0]))[::-1]
    return deduplicate_points(snapped[order], tol=tol)


# ---------------------------------------------------------------------- #
# input generators
# ---------------------------------------------------------------------- #
def _load_torn_fixture():
    document = json.loads(FIXTURE.read_text())
    return np.asarray(document["A"], dtype=float), np.asarray(document["b"], dtype=float)


def _random_cut_sequence(rng, n_steps=8):
    """Yield ``(A, b, body)`` along a random chain of clips and cuts of the unit cube."""
    A, b = UNIT_CUBE_A.copy(), UNIT_CUBE_B.copy()
    body = polyhedron_from_halfspaces(A, b)
    yield A, b, body
    for _ in range(n_steps):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        offset = float(normal @ rng.uniform(0.05, 0.95, size=3))
        label = A.shape[0]
        if rng.random() < 0.3:
            child = body.clip(normal, offset, label=label)
            side_normal, side_offset = normal, offset
        else:
            below, above = body.cut(normal, offset, label=label)
            if rng.random() < 0.5:
                child, side_normal, side_offset = below, normal, offset
            else:
                child, side_normal, side_offset = above, -normal, -offset
        if child.is_empty() or not child.faces:
            return
        A = np.vstack([A, side_normal[None, :]])
        b = np.append(b, side_offset)
        body = child
        yield A, b, body


def _corruptions(body: Polyhedron):
    """Broken and healthy-but-gnarly variants of ``body`` (face-bearing bodies)."""
    n = body.n_vertices
    faces = list(body.faces)
    ring, label = faces[0]
    out = [Polyhedron(body.points, faces[1:])]  # dropped face: torn
    out.append(Polyhedron(body.points, [(ring[:2], label)] + faces[1:]))  # short ring
    bad = ring.copy()
    bad[0] = n + 3
    out.append(Polyhedron(body.points, [(bad, label)] + faces[1:]))  # out of range
    bad = ring.copy()
    bad[1] = bad[0]
    out.append(Polyhedron(body.points, [(bad, label)] + faces[1:]))  # repeated index
    nan_points = body.points.copy()
    nan_points[0, 1] = np.nan
    out.append(Polyhedron(nan_points, faces))
    doubled = np.vstack([body.points, body.points + 1e-13])
    copies = [(r + (n if index % 2 else 0), lab) for index, (r, lab) in enumerate(faces)]
    out.append(Polyhedron(doubled, copies))  # per-face copies: healthy
    a, c = int(ring[0]), int(ring[1])
    out.append(Polyhedron(doubled, copies + [(np.array([a, c, c + n, a + n]), 99)]))  # sliver
    out.append(Polyhedron(body.points, faces + [faces[0]]))  # face listed twice
    reversed_faces = [(faces[0][0][::-1], faces[0][1])] + faces[1:]
    out.append(Polyhedron(body.points, reversed_faces))  # one ring mis-wound
    out.append(Polyhedron(body.points, []))  # degenerate placeholder
    return out


def _sliver_systems(rng):
    """Thin slabs with a Chebyshev radius within 10x of ``tol.radius``."""
    radius = DEFAULT_TOL.radius
    for factor in (0.1, 0.5, 0.9, 0.99, 1.01, 1.1, 2.0, 5.0, 10.0):
        half = factor * radius
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        centre = rng.uniform(0.3, 0.7, size=3)
        offset = float(normal @ centre)
        # Axis-aligned slab, and one tilted through the cube.
        yield (
            np.vstack([UNIT_CUBE_A[:2], UNIT_CUBE_A[3:5], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]]),
            np.array([1.0, 1.0, 0.0, 0.0, 0.5 + half, -(0.5 - half)]),
        )
        yield (
            np.vstack([UNIT_CUBE_A, normal[None, :], -normal[None, :]]),
            np.concatenate([UNIT_CUBE_B, [offset + half, -(offset - half)]]),
        )


def _all_systems(seed):
    """Every ``(A, b)`` the verdict and canonicalisation properties run on."""
    rng = np.random.default_rng(seed)
    systems = [(UNIT_CUBE_A, UNIT_CUBE_B), _load_torn_fixture()]
    systems.extend(_sliver_systems(rng))
    for _ in range(6):
        systems.extend((A, b) for A, b, _body in _random_cut_sequence(rng))
    # Empty and flat systems.
    systems.append((np.vstack([UNIT_CUBE_A, [[1.0, 0.0, 0.0]]]), np.append(UNIT_CUBE_B, -0.5)))
    systems.append((UNIT_CUBE_A, np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])))
    return systems


# ---------------------------------------------------------------------- #
# properties
# ---------------------------------------------------------------------- #
class TestTornBodyFixture:
    """The body that used to demote to LP/qhull now builds consistently."""

    def test_clipped_body_is_consistent_and_matches_qhull(self):
        A, b = _load_torn_fixture()
        assert A.shape == (40, 3)
        body = polyhedron_from_halfspaces(A, b)
        assert not body.touches_bound()
        assert polyhedron_is_consistent(body)
        centre, _radius = chebyshev_center(A, b)
        reference = enumerate_vertices(A, b, interior_point=centre)
        snapped = canonicalize_polyhedron_vertices(A, b, body.points)
        assert reference.shape == (23, 3)
        assert snapped.tobytes() == reference.tobytes()

    def test_polytope_keeps_the_closed_form_backend(self):
        A, b = _load_torn_fixture()
        geometry_counters.reset()
        polytope = ConvexPolytope(A, b, backend="polyhedron")
        assert polytope.vertices.shape == (23, 3)
        assert polytope.backend == "polyhedron"
        assert geometry_counters.n_backend_fallbacks == 0
        assert geometry_counters.n_lp_calls == geometry_counters.n_qhull_calls == 0


class TestValidatorOracle:
    """The vectorised validator returns the reference loop's boolean."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_clip_and_cut_sequences(self, seed):
        rng = np.random.default_rng(100 + seed)
        verdicts = set()
        for _ in range(6):
            for _A, _b, body in _random_cut_sequence(rng):
                for candidate in [body] + _corruptions(body):
                    expected = reference_is_consistent(candidate)
                    assert polyhedron_is_consistent(candidate) == expected
                    verdicts.add(expected)
        assert verdicts == {True, False}

    def test_torn_fixture_and_its_corruptions(self):
        A, b = _load_torn_fixture()
        body = polyhedron_from_halfspaces(A, b)
        for candidate in [body] + _corruptions(body):
            assert polyhedron_is_consistent(candidate) == reference_is_consistent(candidate)

    def test_empty_and_faceless_bodies(self):
        for body in (
            Polyhedron(np.empty((0, 3)), []),
            Polyhedron(np.array([[0.1, 0.2, 0.3]]), []),
            Polyhedron(np.array([[np.inf, 0.0, 0.0]]), []),
        ):
            assert polyhedron_is_consistent(body) == reference_is_consistent(body)


def _exact_verdicts(polytope: ConvexPolytope):
    """``(is_empty, is_full_dimensional)`` from the exact Chebyshev routine."""
    A, b = polytope.halfspaces
    if polytope.backend == "polygon":
        centre, radius = polygon_chebyshev(A, b, polytope._ensure_polygon(), tol=polytope.tol)
    else:
        centre, radius = polyhedron_chebyshev(A, b, polytope._ensure_polyhedron(), tol=polytope.tol)
    return centre is None, radius > polytope.tol.radius


class TestCertifiedVerdicts:
    """Certified interior verdicts equal the exact Chebyshev verdicts."""

    @pytest.mark.parametrize("seed", range(3))
    def test_polyhedron_verdicts(self, seed):
        certified = {True: 0, False: 0}
        full = {True: 0, False: 0}
        for A, b in _all_systems(seed):
            polytope = ConvexPolytope(A, b, backend="polyhedron")
            if polytope.backend != "polyhedron":
                continue
            exact_empty, exact_full = _exact_verdicts(polytope)
            assert ConvexPolytope(A, b, backend="polyhedron").is_empty() == exact_empty
            assert polytope.is_full_dimensional() == exact_full
            assert polytope.is_empty() == exact_empty
            certified[polytope._interior_certified()] += 1
            full[exact_full] += 1
            probe = ConvexPolytope(A, b, backend="polyhedron")
            if exact_full:
                assert probe.vertices.shape[0] >= 4
            elif exact_empty:
                assert probe.vertices.shape[0] == 0
            else:
                with pytest.raises(DegeneratePolytopeError):
                    probe.vertices
        # Both branches run: bodies certified without the exact routine, and
        # bodies (slivers, flats, empties) that need it.
        assert certified[True] > 0 and certified[False] > 0
        assert full[True] > 0 and full[False] > 0

    def test_slivers_straddle_the_radius_tolerance(self):
        radius = DEFAULT_TOL.radius
        for A, b in _sliver_systems(np.random.default_rng(9)):
            polytope = ConvexPolytope(A, b, backend="polyhedron")
            assert polytope.is_full_dimensional() == _exact_verdicts(polytope)[1]
        # The axis-aligned slab's exact radius is its half-width.
        thin = ConvexPolytope(
            UNIT_CUBE_A, np.array([1.0, 1.0, 0.5 + 0.99 * radius, 0.0, 0.0, -(0.5 - 0.99 * radius)])
        )
        assert not thin.is_full_dimensional()
        thick = ConvexPolytope(
            UNIT_CUBE_A, np.array([1.0, 1.0, 0.5 + 1.1 * radius, 0.0, 0.0, -(0.5 - 1.1 * radius)])
        )
        assert thick.is_full_dimensional()

    @pytest.mark.parametrize("seed", range(2))
    def test_polygon_verdicts(self, seed):
        rng = np.random.default_rng(200 + seed)
        square_A = np.vstack([np.eye(2), -np.eye(2)])
        square_b = np.array([1.0, 1.0, 0.0, 0.0])
        certified = {True: 0, False: 0}
        for _ in range(40):
            polytope = ConvexPolytope(square_A, square_b, backend="polygon")
            for _step in range(6):
                normal = rng.normal(size=2)
                offset = float(normal @ rng.uniform(0.0, 1.0, size=2))
                if rng.random() < 0.3:
                    # A sliver: cut down to a strip of half-width near tol.radius.
                    half = float(rng.choice([0.5, 0.99, 1.01, 2.0, 10.0])) * DEFAULT_TOL.radius
                    unit = normal / np.linalg.norm(normal)
                    centre = float(unit @ polytope.vertices.mean(axis=0))
                    A, b = polytope.halfspaces
                    polytope = ConvexPolytope(
                        np.vstack([A, unit, -unit]),
                        np.concatenate([b, [centre + half, -(centre - half)]]),
                        backend="polygon",
                    )
                else:
                    polytope = polytope.split(Hyperplane(normal, offset))[int(rng.integers(2))]
                A, b = polytope.halfspaces
                fresh = ConvexPolytope(A, b, backend="polygon")
                exact_empty, exact_full = _exact_verdicts(fresh)
                assert polytope.is_empty() == exact_empty
                assert polytope.is_full_dimensional() == exact_full
                certified[polytope._interior_certified()] += 1
                if not exact_full:
                    break
        assert certified[True] > 0 and certified[False] > 0


class TestCanonicalisationOracle:
    """The batched facet snap gives the per-row loop's bytes."""

    @pytest.mark.parametrize("seed", range(3))
    def test_clipped_bodies(self, seed):
        for A, b in _all_systems(seed):
            body = polyhedron_from_halfspaces(A, b)
            expected = reference_canonicalize(A, b, body.points)
            assert canonicalize_polyhedron_vertices(A, b, body.points).tobytes() == expected.tobytes()

    def test_degenerate_vertices(self):
        # A square pyramid: its apex is tight at four facets (per-row search);
        # a near-parallel facet pair makes the first triple nearly singular.
        s = 1.0 / np.sqrt(2.0)
        A = np.array(
            [
                [0.0, 0.0, -1.0],
                [s, 0.0, s],
                [-s, 0.0, s],
                [0.0, s, s],
                [0.0, -s, s],
            ]
        )
        b = np.array([0.0, s, s, s, s])
        points = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        expected = reference_canonicalize(A, b, points)
        assert canonicalize_polyhedron_vertices(A, b, points).tobytes() == expected.tobytes()
        tilt = np.array([1.0, 1e-11, 0.0])
        tilt /= np.linalg.norm(tilt)
        A2 = np.vstack([np.eye(3)[0], tilt, np.eye(3)[1], np.eye(3)[2]])
        b2 = np.array([0.5, float(tilt @ [0.5, 0.25, 0.25]), 0.25, 0.25])
        point = np.array([[0.5, 0.25, 0.25]])
        expected = reference_canonicalize(A2, b2, point)
        assert canonicalize_polyhedron_vertices(A2, b2, point).tobytes() == expected.tobytes()
        # A lone nearly singular triple keeps the fallback arithmetic.
        A3 = A2[:3]
        b3 = b2[:3]
        expected = reference_canonicalize(A3, b3, point)
        assert canonicalize_polyhedron_vertices(A3, b3, point).tobytes() == expected.tobytes()

    def test_negated_rows_keep_their_bits(self):
        rng = np.random.default_rng(5)
        for A, b, body in _random_cut_sequence(rng):
            if A.shape[0] > 6:
                flipped_A, flipped_b = A.copy(), b.copy()
                flipped_A[-1] *= -1.0
                flipped_b[-1] *= -1.0
                cap = body.points[np.abs(body.points @ A[-1] - b[-1]) <= 1e-9]
                forward = canonicalize_polyhedron_vertices(A, b, cap)
                backward = canonicalize_polyhedron_vertices(flipped_A, flipped_b, cap)
                assert forward.tobytes() == backward.tobytes()
                assert forward.tobytes() == reference_canonicalize(A, b, cap).tobytes()


def _face_normal_alignment(A, body):
    """Dot products of each face's Newell normal with its facet's outward normal.

    Only faces whose Newell normal (twice the area) is at least ``1e-6`` of
    the squared coordinate scale count: a tolerance sliver, thinner than the
    clip's ``tol.geometry`` classification band allows to resolve, has no
    reliable geometric orientation.  :func:`_assert_wound_consistently`
    covers those faces topologically.
    """
    scale = max(1.0, float(np.abs(body.points).max()))
    dots = []
    for ring, label in body.faces:
        loop = body.points[ring]
        newell = np.cross(loop, np.roll(loop, -1, axis=0)).sum(axis=0)
        if np.linalg.norm(newell) < 1e-6 * scale**2:
            continue
        outward = SAFETY_NORMALS[label] if label < 0 else A[label]
        dots.append(float(newell @ outward))
    return np.array(dots)


def _assert_wound_consistently(A, body):
    """Every face is wound around its outward normal, as checked two ways.

    Well-conditioned faces are checked geometrically by their Newell normal.
    Every edge of every face the validator counts (all but zero-area faces
    with fewer than three distinct points) is checked topologically: it is
    walked once in each direction by the two faces sharing it, geometric
    duplicates merged as in the validator.
    """
    assert (_face_normal_alignment(A, body) > 0.0).all()
    canonical = _reference_canonical_ids(body.points)
    directed = []
    for ring, _label in body.faces:
        ids = canonical[ring]
        if np.unique(ids).shape[0] < 3:
            continue
        directed.extend(
            (int(a), int(c)) for a, c in zip(ids, np.roll(ids, -1)) if a != c
        )
    assert len(set(directed)) == len(directed)
    assert set(directed) == {(c, a) for a, c in directed}


class TestCapWinding:
    """Every face ring, cap faces included, is wound around its outward normal."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_clip_and_cut_sequences(self, seed):
        rng = np.random.default_rng(300 + seed)
        n_faces = 0
        for _ in range(8):
            for A, _b, body in _random_cut_sequence(rng):
                _assert_wound_consistently(A, body)
                n_faces += _face_normal_alignment(A, body).shape[0]
        assert n_faces > 100

    def test_unbounded_and_fixture_bodies(self):
        A, b = _load_torn_fixture()
        for rows in (10, 20, 34, 39, 40):
            body = polyhedron_from_halfspaces(A[:rows], b[:rows])
            _assert_wound_consistently(A, body)

    def test_both_children_of_a_cut(self):
        body = polyhedron_from_halfspaces(UNIT_CUBE_A, UNIT_CUBE_B)
        normal = np.array([1.0, 2.0, -0.5]) / np.linalg.norm([1.0, 2.0, -0.5])
        below, above = body.cut(normal, 0.4, label=6)
        A_below = np.vstack([UNIT_CUBE_A, normal])
        A_above = np.vstack([UNIT_CUBE_A, -normal])
        _assert_wound_consistently(A_below, below)
        _assert_wound_consistently(A_above, above)
        # A second cut chains its cap from consistently wound rings.
        again, _ = below.cut(np.array([0.0, 0.0, 1.0]), 0.5, label=7)
        A_again = np.vstack([A_below, [0.0, 0.0, 1.0]])
        _assert_wound_consistently(A_again, again)
        assert polyhedron_is_consistent(again)
