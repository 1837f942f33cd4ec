"""Reverse top-k queries (Vlachou et al. [44], Tang et al. [41]).

The *monochromatic* reverse top-k query asks, for a given option ``q``: in
which parts of the (continuous) preference space does ``q`` rank among the
top-k?  The answer is a union of convex cells.  This is the converse
perspective to TopRR — TopRR fixes the preference region and asks where the
option should go; reverse top-k fixes the option and asks which preferences
it wins — and the two are tightly linked (an option placed inside ``oR``
must have a reverse top-k region that covers all of ``wR``), which the test
suite exploits as a correctness cross-check.

The monochromatic algorithm is a rank-oriented test-and-split: for a region,
options that beat ``q`` at every vertex beat it everywhere (Lemma 1), so the
rank of ``q`` is bracketed by the "beats everywhere" and "beats somewhere"
counts; regions whose bracket straddles ``k`` are split along a hyperplane
``wHP(q, p)`` of an option whose order against ``q`` flips inside the region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import DegeneratePolytopeError, EmptyRegionError, InvalidParameterError
from repro.geometry.hyperplane import Hyperplane
from repro.preference.region import PreferenceRegion
from repro.preference.space import PreferenceSpace
from repro.utils.tolerance import DEFAULT_TOL, Tolerance


@dataclass
class RankBounds:
    """Bracket on the rank of the query option inside a preference region."""

    lower: int
    upper: int
    swing_options: np.ndarray


@dataclass
class ReverseTopKResult:
    """Answer to a monochromatic reverse top-k query.

    Attributes
    ----------
    option:
        The query option ``q``.
    k:
        The rank requirement.
    region:
        The preference region the query was restricted to.
    winning_cells:
        Convex sub-regions in which ``q`` ranks among the top-k everywhere.
    n_regions_tested:
        Number of regions examined by the test-and-split recursion.
    """

    option: np.ndarray
    k: int
    region: PreferenceRegion
    winning_cells: List[PreferenceRegion] = field(default_factory=list)
    n_regions_tested: int = 0

    def winning_volume(self) -> float:
        """Total volume (in reduced coordinates) of the winning cells."""
        return float(sum(cell.volume() for cell in self.winning_cells))

    def coverage(self) -> float:
        """Fraction of the query region's volume in which ``q`` is top-k."""
        total = self.region.volume()
        if total <= 0:
            return 0.0
        return min(1.0, self.winning_volume() / total)

    def covers(self, reduced_weight: Sequence[float]) -> bool:
        """True if the reduced weight vector falls inside some winning cell."""
        return any(cell.contains(reduced_weight) for cell in self.winning_cells)

    def covers_region(self, tol: float = 1e-6) -> bool:
        """True if the winning cells cover (essentially all of) the query region."""
        return self.coverage() >= 1.0 - tol


class _RankWorkingSet:
    """Affine score forms of the dataset and the query option in reduced space."""

    def __init__(self, dataset: Dataset, option: np.ndarray, exclude_index: Optional[int]):
        space = PreferenceSpace(dataset.n_attributes)
        coefficients, constants = space.affine_score_form(dataset.values)
        keep = np.ones(dataset.n_options, dtype=bool)
        if exclude_index is not None:
            keep[exclude_index] = False
        self.coefficients = coefficients[keep]
        self.constants = constants[keep]
        query_coeff, query_const = space.affine_score_form(option[None, :])
        self.query_coefficient = query_coeff[0]
        self.query_constant = query_const[0]

    def score_differences(self, vertices: np.ndarray) -> np.ndarray:
        """``S_v(p_i) - S_v(q)`` for every competitor ``p_i`` and vertex ``v`` (shape ``(n, m)``)."""
        vertices = np.atleast_2d(vertices)
        competitor_scores = self.constants[:, None] + self.coefficients @ vertices.T
        query_scores = self.query_constant + vertices @ self.query_coefficient
        return competitor_scores - query_scores[None, :]

    def splitting_hyperplane(self, competitor: int) -> Hyperplane:
        """The reduced-space hyperplane where the competitor and ``q`` score equally."""
        coeff = self.coefficients[competitor] - self.query_coefficient
        const = self.constants[competitor] - self.query_constant
        # S_w(p) - S_w(q) = coeff . w + const = 0
        return Hyperplane(coeff, -const)


def rank_bounds(
    working: _RankWorkingSet,
    vertices: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> RankBounds:
    """Bracket the rank of the query option over the polytope spanned by ``vertices``.

    Competitors beating ``q`` at every vertex beat it everywhere inside
    (Lemma 1), giving the lower rank bound; competitors beating ``q`` at some
    vertex give the upper bound.  The options in between (the *swing*
    options) are the only possible splitting hyperplanes.
    """
    differences = working.score_differences(vertices)
    beats_everywhere = np.all(differences > tol.score, axis=1)
    beats_somewhere = np.any(differences > tol.score, axis=1)
    swing = np.flatnonzero(beats_somewhere & ~beats_everywhere)
    return RankBounds(
        lower=1 + int(np.count_nonzero(beats_everywhere)),
        upper=1 + int(np.count_nonzero(beats_somewhere)),
        swing_options=swing,
    )


def _strictly_swinging(
    working: _RankWorkingSet,
    vertices: np.ndarray,
    candidates: np.ndarray,
    tol: Tolerance,
) -> Optional[int]:
    """A swing competitor whose order against ``q`` strictly flips across the vertices."""
    differences = working.score_differences(vertices)
    for candidate in candidates:
        row = differences[candidate]
        if np.any(row > tol.score) and np.any(row < -tol.score):
            return int(candidate)
    return None


def monochromatic_reverse_top_k(
    dataset: Dataset,
    option: Sequence[float],
    k: int,
    region: Optional[PreferenceRegion] = None,
    exclude_index: Optional[int] = None,
    max_regions: int = 200_000,
    tol: Tolerance = DEFAULT_TOL,
) -> ReverseTopKResult:
    """All parts of ``region`` where ``option`` ranks among the top-k of ``dataset``.

    Parameters
    ----------
    dataset:
        The competitor dataset ``D``.
    option:
        The query option ``q`` (its attribute vector).
    k:
        Rank requirement.  Ties count in favour of ``q`` (consistent with the
        ``>=`` of the paper's Definition 2), so ``q`` is top-k at ``w`` when
        fewer than ``k`` competitors score strictly higher.
    region:
        Preference region to restrict the query to (the full valid preference
        space when omitted).
    exclude_index:
        When ``option`` is an existing member of ``dataset``, its positional
        index — it is then not counted as its own competitor.
    max_regions:
        Safety cap on the recursion size.
    """
    option = np.asarray(option, dtype=float)
    if option.shape != (dataset.n_attributes,):
        raise InvalidParameterError(
            f"option must have {dataset.n_attributes} attributes, got {option.shape}"
        )
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    if region is None:
        region = PreferenceRegion.full_simplex(dataset.n_attributes, tol=tol)
    if region.n_attributes != dataset.n_attributes:
        raise InvalidParameterError("region and dataset disagree on the number of attributes")

    working = _RankWorkingSet(dataset, option, exclude_index)
    result = ReverseTopKResult(option=option, k=int(k), region=region)
    stack: List[PreferenceRegion] = [region]

    while stack:
        if result.n_regions_tested >= max_regions:
            raise RuntimeError(
                f"reverse top-k exceeded the safety cap of {max_regions} regions"
            )
        current = stack.pop()
        result.n_regions_tested += 1
        try:
            vertices = current.vertices
        except (DegeneratePolytopeError, EmptyRegionError):
            continue
        if vertices.shape[0] == 0:
            continue

        bounds = rank_bounds(working, vertices, tol=tol)
        if bounds.upper <= k:
            result.winning_cells.append(current)
            continue
        if bounds.lower > k:
            continue

        competitor = _strictly_swinging(working, vertices, bounds.swing_options, tol)
        if competitor is None:
            # Every swing is a boundary tie; classify by an interior point.
            centroid_bounds = rank_bounds(working, current.centroid()[None, :], tol=tol)
            if centroid_bounds.upper <= k:
                result.winning_cells.append(current)
            continue

        below, above = current.split(working.splitting_hyperplane(competitor))
        for child in (below, above):
            if child.is_empty() or not child.is_full_dimensional():
                continue
            stack.append(child)

    return result


def reverse_top_k_contains_region(
    dataset: Dataset,
    option: Sequence[float],
    k: int,
    region: PreferenceRegion,
    exclude_index: Optional[int] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """True if ``option`` is top-k for *every* weight vector in ``region``.

    This is the predicate TopRR's output guarantees for options placed inside
    ``oR``; it is answered without the full cell enumeration by checking that
    the rank upper bound over the whole region already is ``<= k``, and
    otherwise falling back to the exact cell cover.
    """
    working = _RankWorkingSet(dataset, np.asarray(option, dtype=float), exclude_index)
    bounds = rank_bounds(working, region.vertices, tol=tol)
    if bounds.upper <= k:
        return True
    if bounds.lower > k:
        return False
    answer = monochromatic_reverse_top_k(
        dataset, option, k, region=region, exclude_index=exclude_index, tol=tol
    )
    return answer.covers_region()
