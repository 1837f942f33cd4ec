"""JSON request/response schemas of the TopRR serving layer.

Every endpoint speaks plain JSON.  Parsing is strict — unknown shapes and
out-of-domain values raise :class:`~repro.exceptions.InvalidParameterError`,
which the server maps to a 400 response — and the *result* half of a solve
response is deliberately deterministic: it contains only solver outputs
(vertices, thresholds, weights, volume), never timings or cache state, so
two replicas answering the same query can be compared byte-for-byte.  The
volatile half (latency, cache/coalescing flags) lives under ``"served"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.toprr import TopRRResult
from repro.exceptions import InvalidParameterError
from repro.geometry.polytope import ConvexPolytope
from repro.preference.region import PreferenceRegion
from repro.utils.tolerance import DEFAULT_TOL, Tolerance
from repro.utils.validation import check_positive_int


def _intervals(value, n_attributes: int) -> List[tuple]:
    """``value`` as ``n_attributes - 1`` ``(lo, hi)`` pairs of finite JSON numbers.

    Checked in plain Python rather than through :func:`_number_array`: every
    served query parses its region, and at two pairs a numpy round trip
    costs several times the check itself.
    """
    if type(value) is not list or any(type(pair) is not list or len(pair) != 2 for pair in value):
        raise InvalidParameterError("region 'intervals' must be a list of [lo, hi] pairs")
    if len(value) != n_attributes - 1:
        raise InvalidParameterError(
            f"region intervals cover {len(value)} reduced axes but the "
            f"dataset has {n_attributes} attributes (needs {n_attributes - 1})"
        )
    for lo, hi in value:
        if type(lo) not in (int, float) or type(hi) not in (int, float):
            raise InvalidParameterError("region 'intervals' must hold only numbers")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidParameterError("region 'intervals' must hold only finite numbers")
    return [(float(lo), float(hi)) for lo, hi in value]


def _number_array(value, name: str) -> np.ndarray:
    """``value`` as a float array, accepting JSON numbers only.

    Only finite integer and float arrays pass.  Strings, ``null``,
    all-boolean arrays, ragged nesting and the ``NaN``/``Infinity`` literals
    Python's JSON parser accepts raise
    :class:`~repro.exceptions.InvalidParameterError`, where a float
    conversion would accept ``"0.5"`` and ``true`` or fail with a bare
    ``TypeError``/``ValueError``.
    """
    try:
        array = np.asarray(value)
    except ValueError:
        raise InvalidParameterError(f"{name} must be a rectangular array of numbers") from None
    if array.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{name} must hold only numbers")
    array = array.astype(float)
    if not np.all(np.isfinite(array)):
        raise InvalidParameterError(f"{name} must hold only finite numbers")
    return array


def region_from_spec(
    spec, n_attributes: int, tol: Tolerance = DEFAULT_TOL
) -> PreferenceRegion:
    """Build a :class:`PreferenceRegion` from its JSON specification.

    Two shapes are accepted:

    * ``{"intervals": [[lo, hi], ...]}`` — an axis-aligned hyper-rectangle
      in the reduced ``(d-1)``-dimensional preference space (the region
      shape of the paper's experiments); exactly ``d - 1`` intervals.
    * ``{"A": [[...]], "b": [...]}`` — an arbitrary halfspace system
      ``A w' <= b`` over the reduced space.
    """
    if not isinstance(spec, dict):
        raise InvalidParameterError(
            "region must be an object with 'intervals' or 'A'/'b' keys"
        )
    if "intervals" in spec:
        return PreferenceRegion.hyperrectangle(_intervals(spec["intervals"], n_attributes), tol=tol)
    if "A" in spec and "b" in spec:
        A = _number_array(spec["A"], "region 'A'")
        b = _number_array(spec["b"], "region 'b'")
        if A.ndim != 2 or A.shape[1] != n_attributes - 1:
            raise InvalidParameterError(
                f"region halfspace matrix must be (m, {n_attributes - 1}), "
                f"got {A.shape}"
            )
        if b.shape != (A.shape[0],):
            raise InvalidParameterError(
                f"region 'b' must have one entry per row of 'A' ({A.shape[0]}), got {b.shape}"
            )
        return PreferenceRegion(
            ConvexPolytope(A, b, tol=tol), n_attributes=n_attributes, tol=tol
        )
    raise InvalidParameterError(
        "region must carry either 'intervals' or both 'A' and 'b'"
    )


def _require_positive_int(payload: dict, key: str) -> int:
    """``payload[key]`` as a positive int: a JSON integer, never coerced."""
    if key not in payload:
        raise InvalidParameterError(f"request needs an integer {key!r} field")
    return check_positive_int(payload[key], repr(key))


@dataclass
class SolveRequest:
    """One ``/solve`` request: a ``(k, region)`` query plus serving options."""

    k: int
    region_spec: dict
    dataset: Optional[str] = None
    method: Optional[str] = None
    use_cache: bool = True

    @classmethod
    def parse(cls, payload: dict) -> "SolveRequest":
        """Validate and parse one solve payload."""
        if not isinstance(payload, dict):
            raise InvalidParameterError("solve request body must be a JSON object")
        k = _require_positive_int(payload, "k")
        region_spec = payload.get("region")
        if region_spec is None:
            raise InvalidParameterError("request needs a 'region' field")
        method = payload.get("method")
        if method is not None and not isinstance(method, str):
            raise InvalidParameterError("'method' must be a solver name string")
        return cls(
            k=k,
            region_spec=region_spec,
            dataset=payload.get("dataset"),
            method=method,
            use_cache=bool(payload.get("use_cache", True)),
        )

    def region(self, n_attributes: int, tol: Tolerance = DEFAULT_TOL) -> PreferenceRegion:
        """The parsed preference region for a ``d``-attribute dataset."""
        return region_from_spec(self.region_spec, n_attributes, tol=tol)


@dataclass
class BatchRequest:
    """One ``/batch`` request: several solve queries against one dataset."""

    queries: List[SolveRequest] = field(default_factory=list)
    dataset: Optional[str] = None

    @classmethod
    def parse(cls, payload: dict) -> "BatchRequest":
        """Validate and parse one batch payload."""
        if not isinstance(payload, dict) or not isinstance(payload.get("queries"), list):
            raise InvalidParameterError(
                "batch request body must be an object with a 'queries' list"
            )
        if not payload["queries"]:
            raise InvalidParameterError("batch request needs at least one query")
        dataset = payload.get("dataset")
        queries = [SolveRequest.parse(entry) for entry in payload["queries"]]
        for query in queries:
            query.dataset = query.dataset or dataset
        return cls(queries=queries, dataset=dataset)


@dataclass
class MutateRequest:
    """One ``/mutate`` request: streaming inserts and/or deletes.

    ``insert`` carries ``{"values": [[...]], "option_ids": [...]?}``;
    ``delete`` carries ``{"option_ids": [...]}`` or ``{"positions": [...]}``.
    When both are present the insert is applied first, then the delete —
    each step produces one :class:`~repro.core.mutation.MutationDelta`
    maintained incrementally by the engine.
    """

    dataset: Optional[str] = None
    insert_values: Optional[np.ndarray] = None
    insert_ids: Optional[list] = None
    delete_ids: Optional[list] = None
    delete_positions: Optional[list] = None

    @classmethod
    def parse(cls, payload: dict) -> "MutateRequest":
        """Validate and parse one mutate payload."""
        if not isinstance(payload, dict):
            raise InvalidParameterError("mutate request body must be a JSON object")
        insert = payload.get("insert")
        delete = payload.get("delete")
        if insert is None and delete is None:
            raise InvalidParameterError(
                "mutate request needs an 'insert' and/or 'delete' section"
            )
        request = cls(dataset=payload.get("dataset"))
        if insert is not None:
            if not isinstance(insert, dict) or "values" not in insert:
                raise InvalidParameterError("'insert' must be an object with 'values'")
            request.insert_values = np.atleast_2d(
                _number_array(insert["values"], "'insert' values")
            )
            request.insert_ids = insert.get("option_ids")
        if delete is not None:
            if not isinstance(delete, dict):
                raise InvalidParameterError(
                    "'delete' must be an object with 'option_ids' or 'positions'"
                )
            request.delete_ids = delete.get("option_ids")
            request.delete_positions = delete.get("positions")
            if (request.delete_ids is None) == (request.delete_positions is None):
                raise InvalidParameterError(
                    "'delete' needs exactly one of 'option_ids' / 'positions'"
                )
        return request


def result_payload(result: TopRRResult) -> dict:
    """The deterministic half of a solve response.

    Only solver outputs appear here — JSON float serialisation is exact for
    finite float64, so two replicas (e.g. a warm original and a
    snapshot-restored one) answering the same query produce *identical*
    payload bytes.  Timings, cache flags and other per-serving state belong
    in the response's ``"served"`` section instead.
    """
    return {
        "k": int(result.k),
        "method": result.method,
        "n_filtered": int(result.filtered.n_options),
        "n_vertices": int(result.n_vertices),
        "is_empty": bool(result.is_empty()),
        "volume": float(result.volume()),
        "vertices_reduced": result.vertices_reduced.tolist(),
        "thresholds": result.thresholds.tolist(),
        "full_weights": result.full_weights.tolist(),
    }
