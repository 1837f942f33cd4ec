"""k-skyband computation (dominance-based filtering).

An option ``p`` *dominates* ``q`` if ``p`` is at least as good in every
attribute and strictly better in at least one.  The k-skyband is the set of
options dominated by fewer than ``k`` others; it is guaranteed to contain the
top-k result for *every* possible weight vector, which is why the paper lists
it as one of the candidate pre-filters for TopRR (Sections 3.4 and 6.3).

The scan behind it takes options in decreasing attribute-sum order (stable
on ties) and admits one iff fewer than ``k`` admitted options dominate it:
``band >= row - eps`` in every column, ``band > row + eps`` in one (``eps =
tol.geometry``).  Up to that slack, dominators have larger sums, so they
come first, and an option with ``k`` dominators has ``k`` in the band
(outside ones are dominated by ``k`` band options, which dominate it
transitively).

:func:`skyband_of_values` makes exactly the scan's decisions, :data:`BLOCK`
rows at a time.  A row with ``k`` dominators in the band as it stood at the
block's start is refused, as the band only grows.  The others (survivors)
lack only the dominators admitted earlier in the block, which are survivors
too; a pass over the survivors in order, :data:`TILE` at a time, adds them.
Each row so meets the scan's band rows through the scan's float comparisons:
the band is byte-identical, also under non-transitive near-ties.

Counting goes through :class:`_Band`: per tile of :data:`TILE` band rows
and per column, the values sorted and, per sorted position, the bitmask of
the tile rows from there on.  One ``searchsorted`` per column then gives the
tile rows with ``band >= x`` (``"left"``) or ``band > x`` (``"right"``) for a
whole block; and-ing (or or-ing) the masks over the columns and counting
bits gives each row's dominators per tile.  A row leaves at the cap.  The
band takes ~16 bytes per band row and column, where the scan preallocated 8
per *input* row and column.  Values must not be NaN.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import InvalidParameterError
from repro.utils.tolerance import DEFAULT_TOL, Tolerance

#: Band rows per tile: bit ``j`` of a ``uint64`` mask stands for tile row ``j``.
TILE = 64
#: Rows whose dominators are counted in one pass over the band.
BLOCK = 256

_ONE = np.uint64(1)


class _Band:
    """Band rows in tiles of :data:`TILE`, optionally with one key per row.

    A tile is ``(sorted, suffix)``: ``sorted[c]`` is column ``c`` ascending
    and ``suffix[c][p]`` the mask of the rows sorted at ``p`` or later.  The
    last tile is rebuilt from the raw rows of :attr:`tail` when rows are
    added; keys ride along as a last column.
    """

    def __init__(self, rows: np.ndarray, keys: Optional[np.ndarray] = None):
        self.tiles: list = []
        self.tail = np.empty((0, rows.shape[1] + (keys is not None)))
        self.size = 0
        self.extend(rows, keys)

    def extend(self, rows: np.ndarray, keys: Optional[np.ndarray] = None) -> None:
        """Append ``rows`` (and their ``keys``), rebuilding the partial last tile."""
        if keys is not None:
            rows = np.column_stack([rows, keys])
        self.size += rows.shape[0]
        if self.tail.shape[0]:
            self.tiles.pop()
        rows = np.concatenate([self.tail, rows])
        for first in range(0, rows.shape[0], TILE):
            columns = np.ascontiguousarray(rows[first : first + TILE].T)
            order = np.argsort(columns, axis=1, kind="stable")
            suffix = np.zeros((columns.shape[0], columns.shape[1] + 1), dtype=np.uint64)
            # Distinct powers of two: their running sum is their union.
            suffix[:, -2::-1] = np.cumsum(_ONE << order[:, ::-1].astype(np.uint64), axis=1)
            self.tiles.append((columns[np.arange(columns.shape[0])[:, None], order], suffix))
        self.tail = rows[rows.shape[0] - rows.shape[0] % TILE :].copy()

    def count(self, rows, cap: int, tol: Tolerance, row_keys=None, start: int = 0) -> np.ndarray:
        """Band rows from the ``start``-th on dominating each of ``rows``
        (with a key ``>=`` the row's, given ``row_keys``), capped at ``cap``."""
        counts = np.zeros(rows.shape[0], dtype=np.int64)
        first_tile, skipped = divmod(start, TILE)
        for block in range(0, rows.shape[0], BLOCK):
            alive = np.arange(block, min(block + BLOCK, rows.shape[0]))
            for index in range(first_tile, len(self.tiles)):
                if alive.size == 0:
                    break
                keys = None if row_keys is None else row_keys[alive]
                masks = _dominators(self.tiles[index], rows[alive], tol, keys)
                if index == first_tile and skipped:
                    masks &= np.uint64((1 << TILE) - (1 << skipped))
                counts[alive] += np.bitwise_count(masks)
                alive = alive[counts[alive] < cap]
        return np.minimum(counts, cap)


def _dominators(tile: tuple, rows: np.ndarray, tol: Tolerance, keys: Optional[np.ndarray]) -> np.ndarray:
    """Per row, the mask of the ``tile`` rows dominating it (and, given
    ``keys``, whose key is ``>=`` the row's)."""
    values, suffix = tile
    low = np.subtract(rows.T, tol.geometry, order="C")
    high = np.add(rows.T, tol.geometry, order="C")
    geq = suffix[0][values[0].searchsorted(low[0], "left")]
    gt = suffix[0][values[0].searchsorted(high[0], "right")]
    for column in range(1, rows.shape[1]):
        geq &= suffix[column][values[column].searchsorted(low[column], "left")]
        gt |= suffix[column][values[column].searchsorted(high[column], "right")]
    if keys is not None:
        geq &= suffix[-1][values[-1].searchsorted(keys, "left")]
    return geq & gt


def count_dominators(rows, band, cap: int, tol: Tolerance = DEFAULT_TOL, row_keys=None, band_keys=None) -> np.ndarray:
    """How many rows of ``band`` dominate each row of ``rows``, capped at ``cap``.

    With ``row_keys`` and ``band_keys``, band row ``j`` counts for row ``i``
    only if ``band_keys[j] >= row_keys[i]``.
    """
    band = np.asarray(band, dtype=float)
    return _Band(band, band_keys).count(np.asarray(rows, dtype=float), cap, tol, row_keys)


def _admitted_in_order(rows: np.ndarray, counts: np.ndarray, k: int, tol: Tolerance) -> np.ndarray:
    """Which of ``rows`` (at most :data:`TILE`, in scan order, ``counts``
    dominators each so far) the scan admits, as admitted ones count too."""
    positions = np.arange(rows.shape[0], dtype=np.uint64)
    earlier = _dominators(_Band(rows).tiles[0], rows, tol, None) & ((_ONE << positions) - _ONE)
    # Admitted even if every earlier row is: only the others need the scan.
    most = counts + np.bitwise_count(earlier)
    admitted = most < k
    admitted_bits = sum(1 << int(j) for j in np.flatnonzero(admitted))
    for i in np.flatnonzero((most >= k) & (counts < k)):
        if counts[i] + (int(earlier[i]) & admitted_bits).bit_count() < k:
            admitted[i] = True
            admitted_bits |= 1 << int(i)
    return admitted


def _skyband(values: np.ndarray, k: int, tol: Tolerance) -> np.ndarray:
    """The k-skyband of ``values``: positions in admission order."""
    sums = values.sum(axis=1)
    order = np.argsort(np.negative(sums, out=sums), kind="stable")
    del sums
    band = _Band(values[:0])
    kept = [np.empty(0, dtype=int)]
    for start in range(0, values.shape[0], BLOCK):
        block = order[start : start + BLOCK]
        rows = values[block]
        counts = band.count(rows, k, tol)
        survivors = np.flatnonzero(counts < k)
        block_start = band.size
        for first in range(0, survivors.size, TILE):
            chosen = survivors[first : first + TILE]
            so_far = counts[chosen] + band.count(rows[chosen], k, tol, start=block_start)
            admitted = chosen[_admitted_in_order(rows[chosen], so_far, k, tol)]
            if admitted.size:
                band.extend(rows[admitted])
                kept.append(block[admitted])
    return np.concatenate(kept)


def skyband_of_values(values: np.ndarray, k: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Positional indices of the k-skyband of a raw ``(n, d)`` value matrix.

    Exact on exact ties and duplicates and on generic data.  Under near-ties
    (coordinates within ``tol.geometry`` of each other) ``eps``-dominance is
    not transitive, so counting dominators against the band alone may miss
    some: the band may then hold more options than the definition gives,
    never fewer.  Extra options only cost filter work, never answers.
    """
    if k <= 0:
        raise InvalidParameterError(f"k must be positive, got {k}")
    return np.sort(_skyband(np.asarray(values, dtype=float), k, tol))


def k_skyband(dataset: Dataset, k: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Positional indices of the k-skyband of ``dataset`` (dominated by < k others)."""
    return skyband_of_values(dataset.values, k, tol=tol)
