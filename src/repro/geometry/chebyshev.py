"""The Chebyshev-centre linear program.

The Chebyshev centre of a polytope ``{x : A x <= b}`` is the centre of its
largest inscribed ball.  It serves two purposes in this package:

* it provides the strictly interior point required by qhull's halfspace
  intersection (vertex enumeration), and
* its radius is a robust emptiness / degeneracy test for the sub-regions
  produced while splitting preference regions (a child whose radius is below
  tolerance is a measure-zero sliver and is discarded).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.geometry.counters import geometry_counters


def chebyshev_center(
    A: np.ndarray,
    b: np.ndarray,
    bound: float = 1e6,
) -> Tuple[Optional[np.ndarray], float]:
    """Compute the Chebyshev centre of ``{x : A x <= b}``.

    Parameters
    ----------
    A, b:
        Constraint matrix and right-hand side (``A x <= b``).
    bound:
        Box bound ``|x_i| <= bound`` added to keep the LP bounded even if the
        polytope itself is unbounded (TopRR polytopes are always bounded by
        construction, but intermediate H-representations may not be).

    Returns
    -------
    (center, radius):
        ``center`` is ``None`` and ``radius`` is ``-inf`` when the system is
        infeasible.  A ``radius`` of (numerically) zero means the feasible
        set is non-empty but lower-dimensional.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D matrix")
    n_constraints, dim = A.shape
    if b.shape != (n_constraints,):
        raise ValueError("b must have one entry per row of A")

    row_norms = np.linalg.norm(A, axis=1)
    # Degenerate all-zero rows encode "0 <= b"; treat infeasible rows directly.
    zero_rows = row_norms <= 0.0
    if np.any(zero_rows) and np.any(b[zero_rows] < 0):
        return None, float("-inf")
    keep = ~zero_rows
    A_eff = A[keep]
    b_eff = b[keep]
    norms_eff = row_norms[keep]

    if A_eff.shape[0] == 0:
        # Unconstrained: centre at origin with the box radius.
        return np.zeros(dim), float(bound)

    # Variables: (x_1..x_dim, r); maximise r.
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    A_ub = np.hstack([A_eff, norms_eff[:, None]])
    b_ub = b_eff
    bounds = [(-bound, bound)] * dim + [(0.0, bound)]
    geometry_counters.n_lp_calls += 1
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return None, float("-inf")
    center = np.asarray(res.x[:dim], dtype=float)
    radius = float(res.x[-1])
    return center, radius

