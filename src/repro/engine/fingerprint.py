"""Hashable fingerprints for cache keys.

A preference region is fingerprinted by its exact defining vertices,
lexicographically sorted, so two regions describing the same polytope hash
identically even when their halfspace representations differ (e.g. one
carries redundant constraints), while two regions whose vertices differ in
any bit never share a key: a halfspace form whose arithmetic moves a vertex
by one ulp costs a cache miss, never another region's answer.  Because 2-D and 3-D vertex enumeration is
*canonical* across geometry backends (facet-snapped coordinates in a fixed
order — see :func:`repro.geometry.vertex_enum.canonicalize_polygon_vertices`
and :func:`repro.geometry.vertex_enum.canonicalize_polyhedron_vertices`),
fingerprints are also backend-independent: a region built under
``use_backend("qhull")`` hits cache entries populated by the polygon or
polyhedron backend and vice versa.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.preference.region import PreferenceRegion


def region_fingerprint(region: PreferenceRegion) -> Tuple:
    """A hashable fingerprint of a preference region (exact sorted vertices)."""
    # Adding 0.0 maps -0.0 to 0.0, so the two zeros do not hash apart.
    vertices = np.asarray(region.vertices, dtype=float) + 0.0
    order = np.lexsort(vertices.T[::-1]) if vertices.size else np.arange(0)
    return tuple(map(tuple, vertices[order]))
