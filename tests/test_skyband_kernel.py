"""Byte parity of the block skyband kernel against the row-by-row reference scan.

The reference functions below are the scan the kernel replaced, kept here
verbatim as the oracle: the one-row-at-a-time loop of ``skyband_of_values``,
the 4096-row broadcast that counted dominators in the ``cap``-skyband and
the per-row loop of ``refused_admission``.  The kernel must return exactly
their arrays — including under ``eps`` near-ties, where dominance is not
transitive and the scan's answer depends on its processing order — on
inputs that cross the kernel's block and tile boundaries.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mutation import refused_admission
from repro.topk import skyband
from repro.topk.skyband import BLOCK, TILE, count_dominators, skyband_of_values
from repro.utils.tolerance import DEFAULT_TOL, Tolerance


def reference_skyband(values: np.ndarray, k: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The row-by-row scan: admit a row iff fewer than ``k`` band rows dominate it."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n == 0:
        return np.empty(0, dtype=int)

    order = np.argsort(-values.sum(axis=1), kind="stable")
    band_values = np.empty_like(values)
    band_original_indices = np.empty(n, dtype=int)
    band_size = 0
    eps = tol.geometry

    for original_index in order:
        row = values[original_index]
        if band_size == 0:
            dominator_count = 0
        else:
            band = band_values[:band_size]
            geq = np.all(band >= row - eps, axis=1)
            gt = np.any(band > row + eps, axis=1)
            dominator_count = int(np.count_nonzero(geq & gt))
        if dominator_count < k:
            band_values[band_size] = row
            band_original_indices[band_size] = original_index
            band_size += 1

    return np.sort(band_original_indices[:band_size])


def reference_dominance_count(values: np.ndarray, cap: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Dominators in the ``cap``-skyband, capped, by a 4096-row 3-D broadcast."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return counts
    band_values = values[reference_skyband(values, cap, tol=tol)]
    eps = tol.geometry
    for start in range(0, n, 4096):
        chunk = values[start : start + 4096]
        geq = np.all(band_values[None, :, :] >= chunk[:, None, :] - eps, axis=2)
        gt = np.any(band_values[None, :, :] > chunk[:, None, :] + eps, axis=2)
        counts[start : start + 4096] = np.minimum((geq & gt).sum(axis=1), cap)
    return counts


def dominance_count(values: np.ndarray, cap: int) -> np.ndarray:
    """Kernel counterpart of :func:`reference_dominance_count`."""
    return count_dominators(values, values[skyband_of_values(values, cap)], cap)


def reference_refused_admission(scores, band_rows, inserted_rows, k, tol=DEFAULT_TOL):
    """Per inserted row: at least ``k`` dominators among band rows with sum ``>=`` its own."""
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


def _values(kind: str, n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Generic (``continuous``), tied (``grid``) or near-tied (``perturbed``) rows."""
    if kind == "continuous":
        return rng.random((n, m))
    values = rng.integers(0, 4, size=(n, m)).astype(float)
    if kind == "perturbed":
        jitter = rng.uniform(0.3, 1.7, size=(n, m)) * rng.choice([-1.0, 1.0], size=(n, m))
        values = values + jitter * DEFAULT_TOL.geometry
    return values


def assert_same_band(values: np.ndarray, k: int) -> None:
    expected = reference_skyband(values, k)
    got = skyband_of_values(values, k)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


BOUNDARY_SIZES = sorted(
    {1, 2, TILE - 1, TILE, TILE + 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + TILE + 1, 3 * BLOCK + 7}
)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
@pytest.mark.parametrize("kind", ["continuous", "grid", "perturbed"])
def test_parity_across_block_boundaries(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    for m in (1, 3, 4):
        values = _values(kind, n, m, rng)
        for k in (1, 3, 10):
            assert_same_band(values, k)


@pytest.mark.parametrize("k", [TILE, TILE + 1, BLOCK, BLOCK + 1])
def test_parity_with_k_at_least_one_block(k):
    rng = np.random.default_rng(k)
    for kind in ("continuous", "grid", "perturbed"):
        assert_same_band(_values(kind, 3 * BLOCK + 7, 3, rng), k)


@pytest.mark.parametrize("n", [1, TILE, BLOCK + 1])
def test_parity_with_k_at_least_n(n):
    values = _values("grid", n, 2, np.random.default_rng(n))
    for k in (n, n + 1, 10 * n):
        assert_same_band(values, k)
        assert skyband_of_values(values, k).tolist() == list(range(n))


def test_exact_ties_and_duplicates_straddle_a_block_boundary():
    # BLOCK - 3 rows with distinct, larger sums sort first, so the duplicate
    # groups of equal sum occupy the sorted positions BLOCK - 3 .. BLOCK + 8.
    rng = np.random.default_rng(5)
    leaders = 10.0 + rng.random((BLOCK - 3, 3))
    duplicates = np.repeat([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 2.0, 2.0]], 4, axis=0)
    tail = rng.integers(0, 3, size=(BLOCK, 3)).astype(float)
    values = np.concatenate([duplicates[:6], leaders, duplicates[6:], tail])
    order = np.argsort(-values.sum(axis=1), kind="stable")
    assert set(order[BLOCK - 3 : BLOCK + 9].tolist()) == set(range(6)) | set(range(BLOCK + 3, BLOCK + 9))
    for k in (1, 2, 5, BLOCK - 2, BLOCK, BLOCK + 4):
        assert_same_band(values, k)
    # Equal rows never dominate one another, whatever block they land in.
    assert skyband_of_values(duplicates, 1).tolist() == list(range(12))


def test_block_of_all_equal_rows():
    equal = np.full((BLOCK, 3), 0.5)
    for values in (
        equal,
        np.concatenate([np.full((3, 3), 0.9), equal, np.full((5, 3), 0.1)]),
        np.concatenate([equal, equal + DEFAULT_TOL.geometry * 0.5]),
    ):
        for k in (1, 3, 4, BLOCK):
            assert_same_band(values, k)


def test_near_ties_where_dominance_is_not_transitive():
    # a dominates b and b dominates c, but a does not dominate c: whether c
    # is refused depends on which of a and b the scan admitted before it.
    eps = DEFAULT_TOL.geometry
    chain = np.array([[2.0 * eps, -0.9 * eps], [0.0, 0.0], [-1.5 * eps, 0.5 * eps]]) + 1.0
    a, b, c = chain
    assert count_dominators(np.array([b, c]), np.array([a]), 1).tolist() == [1, 0]
    assert count_dominators(np.array([c]), np.array([b]), 1).tolist() == [1]
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.random((BLOCK - 1, 2)) * 0.5, np.repeat(chain, 30, axis=0), rng.random((90, 2))])
    for k in (1, 2, 30, 31, 60):
        assert_same_band(values, k)


def test_offsets_of_exactly_eps_hit_both_comparisons():
    # Rows offset by exactly +eps or -eps from grid values make ``band >=
    # row - eps`` and ``band > row + eps`` compare equal floats.
    eps = DEFAULT_TOL.geometry
    rng = np.random.default_rng(13)
    grid = rng.integers(0, 3, size=(BLOCK + TILE, 3)).astype(float)
    offsets = rng.choice([-eps, 0.0, eps], size=grid.shape)
    values = np.concatenate([grid, grid + offsets])
    assert np.any(values[:, None, :] == values[None, :, :] + eps)
    assert np.any(values[:, None, :] == values[None, :, :] - eps)
    for k in (1, 2, 4, 9):
        assert_same_band(values, k)
        assert dominance_count(values, cap=k).tobytes() == reference_dominance_count(values, cap=k).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["continuous", "grid", "perturbed"]),
    n=st.integers(min_value=1, max_value=3 * BLOCK + 1),
    m=st.integers(min_value=1, max_value=5),
    k=st.sampled_from([1, 2, 3, 7, TILE, BLOCK]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_matches_reference_scan(kind, n, m, k, seed):
    assert_same_band(_values(kind, n, m, np.random.default_rng(seed)), k)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["grid", "continuous", "perturbed"]),
    n=st.integers(min_value=1, max_value=60),
    d=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dominance_count_matches_reference(kind, n, d, k, seed):
    """The inputs of ``test_topk.py::test_skyband_kernel_matches_brute_force``."""
    values = _values(kind, n, d, np.random.default_rng(seed))
    assert dominance_count(values, cap=k).tobytes() == reference_dominance_count(values, cap=k).tobytes()


@pytest.mark.parametrize("kind", ["continuous", "grid", "perturbed"])
def test_dominance_count_matches_reference_across_blocks(kind):
    values = _values(kind, 2 * BLOCK + TILE + 3, 4, np.random.default_rng(3))
    for cap in (1, 4, TILE + 2):
        assert dominance_count(values, cap=cap).tobytes() == reference_dominance_count(values, cap=cap).tobytes()


@pytest.mark.parametrize("kind", ["continuous", "grid", "perturbed"])
def test_refused_admission_matches_reference(kind):
    rng = np.random.default_rng(len(kind))
    for n_parent, n_inserted, m in ((0, 5, 3), (40, 0, 3), (300, 12, 4), (BLOCK + TILE, 2 * BLOCK + 1, 3)):
        scores = _values(kind, n_parent + n_inserted, m, rng)
        inserted_rows = np.arange(n_parent, n_parent + n_inserted)
        for k in (1, 2, 5, TILE + 1):
            band_rows = skyband_of_values(scores[:n_parent], k)
            got = refused_admission(scores, band_rows, inserted_rows, k)
            expected = reference_refused_admission(scores, band_rows, inserted_rows, k)
            assert got.tolist() == expected.tolist()


def test_count_dominators_is_the_pairwise_rule():
    rng = np.random.default_rng(2)
    eps = DEFAULT_TOL.geometry
    rows = _values("perturbed", 70, 3, rng)
    band = _values("perturbed", TILE + 9, 3, rng)
    geq = np.all(band[None, :, :] >= rows[:, None, :] - eps, axis=2)
    gt = np.any(band[None, :, :] > rows[:, None, :] + eps, axis=2)
    pairwise = (geq & gt).sum(axis=1)
    for cap in (1, 3, 100):
        assert count_dominators(rows, band, cap).tolist() == np.minimum(pairwise, cap).tolist()


def _traced_peak(function, *args) -> int:
    function(*args)  # warm numpy's one-off allocations outside the trace
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k", [1, 10])
def test_kernel_peak_memory_at_most_the_scans(k):
    values = np.random.default_rng(0).random((3_000, 4))
    kernel_peak = _traced_peak(skyband.skyband_of_values, values, k)
    scan_peak = _traced_peak(reference_skyband, values, k)
    assert kernel_peak <= scan_peak, (kernel_peak, scan_peak)
