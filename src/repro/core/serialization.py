"""Saving and loading TopRR results and engine cache snapshots.

A TopRR region is expensive to compute (seconds to minutes at paper scale)
and cheap to describe: the vertices ``V_all`` with their thresholds fully
determine the membership predicate, and the H-representation of ``oR`` adds
the clipped polytope.  This module serialises exactly that — plus, since the
serving layer arrived, the *warm state* of a whole
:class:`~repro.engine.engine.TopRREngine` session — in two formats:

* **Result documents** (:func:`save_result` / :func:`load_result`): one JSON
  file per :class:`~repro.core.toprr.TopRRResult`.  Schema version 2 embeds
  the dataset (values, option ids, attribute names) and the tolerance
  bundle, so a load without any side input reconstructs the result
  *byte-exactly* — membership tests, volume, placement and option-level
  reports all match the original.  Version-1 documents, which did not embed
  the dataset, still load when the original dataset is passed explicitly;
  loading them without one raises :class:`~repro.exceptions.SerializationError`
  instead of silently substituting a single-row schema stub (the pre-fix
  behaviour, which dropped the real option ids and values).
* **Engine snapshots** (:func:`save_engine_snapshot` /
  :func:`load_engine_snapshot`, surfaced as ``TopRREngine.save_caches`` /
  ``load_caches``): a versioned JSON document persisting every cached
  r-skyband entry (filtered subset, root working set, vertex-score memo,
  exact region vertices) and every cached result.  Arrays are stored as
  base64-encoded raw float64/int bytes, so a restarted replica restores
  *bit-identical* cache contents: its first query against a snapshotted
  ``(k, region, method)`` is a cache hit whose answer equals the warm
  original byte for byte (asserted by ``tests/test_snapshot.py``).  The snapshot records a digest
  of the dataset it was taken against; restoring onto a different dataset
  refuses loudly rather than serving stale answers.

Human-readable JSON floats round-trip exactly (``repr`` of a finite float64
is lossless), so the result format stays inspectable; the bulk arrays of
engine snapshots use base64 for compactness.
"""

from __future__ import annotations

import base64
import binascii
import json
import hashlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.kipr import WorkingSet
from repro.core.scorecache import VertexScoreMemo
from repro.core.stats import SolverStats
from repro.core.toprr import TopRRResult
from repro.data.dataset import Dataset
from repro.exceptions import SerializationError
from repro.geometry.polytope import ConvexPolytope
from repro.preference.region import PreferenceRegion
from repro.utils.tolerance import DEFAULT_TOL, Tolerance
from repro.version import __version__

#: Format identifier written into every result file.
FORMAT = "toprr-result"
#: Current result serialisation schema version (2 embeds the dataset).
SCHEMA_VERSION = 2

#: Format identifier written into every engine cache snapshot.
SNAPSHOT_FORMAT = "toprr-engine-snapshot"
#: Current engine snapshot schema version.
SNAPSHOT_VERSION = 1


# ---------------------------------------------------------------------- #
# array / bytes codecs
# ---------------------------------------------------------------------- #
def _encode_array(array: np.ndarray) -> dict:
    """JSON-safe exact encoding of an array (dtype + shape + base64 bytes)."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`_encode_array`; raises ``SerializationError`` on rot."""
    try:
        raw = base64.b64decode(payload["data"], validate=True)
        array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
        return array.reshape([int(n) for n in payload["shape"]]).copy()
    except (KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise SerializationError(f"corrupt array payload: {exc}") from exc


def dataset_digest(dataset: Dataset) -> str:
    """Content hash binding a snapshot to the exact dataset it was taken on.

    Covers the raw float64 value bytes, the option ids, and the attribute
    names — everything cached entries positionally depend on.  The dataset
    ``version`` is recorded separately (a restored replica may legitimately
    rebuild the same content at version 0).
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.values).tobytes())
    digest.update(json.dumps(list(dataset.option_ids), default=str).encode())
    digest.update(json.dumps(list(dataset.attribute_names)).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# result documents
# ---------------------------------------------------------------------- #
def _dataset_to_dict(dataset: Dataset) -> dict:
    """Embeddable payload reconstructing a dataset exactly (schema v2)."""
    return {
        "values": _encode_array(dataset.values),
        "option_ids": list(dataset.option_ids),
        "attribute_names": list(dataset.attribute_names),
        "name": dataset.name,
        "version": int(dataset.version),
    }


def _dataset_from_dict(payload: dict) -> Dataset:
    """Inverse of :func:`_dataset_to_dict`."""
    return Dataset(
        _decode_array(payload["values"]),
        attribute_names=payload.get("attribute_names"),
        option_ids=payload.get("option_ids"),
        name=str(payload.get("name", "dataset")),
        version=int(payload.get("version", 0)),
    )


def result_to_dict(result: TopRRResult) -> dict:
    """Plain-dict (JSON-ready) representation of a TopRR result.

    Schema version 2: embeds the full dataset payload, the positions of the
    filtered subset, and the tolerance bundle, making
    :func:`result_from_dict` an exact inverse with no side inputs.
    """
    A, b = result.polytope.halfspaces
    region_A, region_b = result.region.polytope.halfspaces
    tol = result._tol
    if result.filtered is result.dataset:
        filtered_kept = None  # prefilter disabled: D' is D itself
    else:
        filtered_kept = [
            int(result.dataset.index_of(option_id))
            for option_id in result.filtered.option_ids
        ]
    return {
        "format": FORMAT,
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "method": result.method,
        "k": int(result.k),
        "n_attributes": int(result.dataset.n_attributes),
        "attribute_names": list(result.dataset.attribute_names),
        "dataset_name": result.dataset.name,
        "n_dataset_options": int(result.dataset.n_options),
        "dataset": _dataset_to_dict(result.dataset),
        "filtered_kept": filtered_kept,
        "tolerance": {
            "geometry": tol.geometry,
            "score": tol.score,
            "radius": tol.radius,
            "dedup": tol.dedup,
        },
        "vertices_reduced": result.vertices_reduced.tolist(),
        "full_weights": result.full_weights.tolist(),
        "thresholds": result.thresholds.tolist(),
        "option_region": {"A": A.tolist(), "b": b.tolist()},
        "preference_region": {"A": region_A.tolist(), "b": region_b.tolist()},
        "stats": result.stats.as_dict(),
    }


def save_result(result: TopRRResult, path: Union[str, Path]) -> Path:
    """Write ``result`` to ``path`` as JSON and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(result_to_dict(result), handle, indent=2)
    return path


def result_from_dict(
    payload: dict,
    dataset: Optional[Dataset] = None,
    tol: Optional[Tolerance] = None,
) -> TopRRResult:
    """Rebuild a :class:`TopRRResult` from its dictionary representation.

    ``dataset`` overrides the embedded payload (it must match the stored
    schema); ``tol`` overrides the stored tolerance bundle.  A version-1
    document carries neither an embedded dataset nor a stored tolerance:
    loading one *requires* an explicit ``dataset`` — the old silent
    fallback to a single-row schema stub dropped the real option ids and
    values, so it now raises :class:`SerializationError` instead.
    """
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise SerializationError("the document is not a serialised TopRR result")
    if int(payload.get("schema_version", -1)) > SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported schema version {payload.get('schema_version')} "
            f"(this library reads up to {SCHEMA_VERSION})"
        )
    if dataset is not None and dataset.n_attributes != int(payload["n_attributes"]):
        raise SerializationError("the provided dataset does not match the stored schema")

    if tol is None:
        stored_tol = payload.get("tolerance")
        tol = Tolerance(**stored_tol) if stored_tol else DEFAULT_TOL

    if dataset is not None:
        anchor = dataset
    elif "dataset" in payload:
        anchor = _dataset_from_dict(payload["dataset"])
    else:
        raise SerializationError(
            "this document predates schema version 2 and does not embed its "
            "dataset; pass the original dataset to load_result — loading "
            "without one would silently drop the real option ids and values"
        )

    filtered_kept = payload.get("filtered_kept")
    if filtered_kept is None:
        filtered = anchor
    else:
        filtered = anchor.subset(
            [int(i) for i in filtered_kept], name=f"{anchor.name}[r-skyband]"
        )

    polytope = ConvexPolytope(
        np.asarray(payload["option_region"]["A"], dtype=float),
        np.asarray(payload["option_region"]["b"], dtype=float),
        tol=tol,
    )
    region = PreferenceRegion(
        ConvexPolytope(
            np.asarray(payload["preference_region"]["A"], dtype=float),
            np.asarray(payload["preference_region"]["b"], dtype=float),
            tol=tol,
        ),
        n_attributes=int(payload["n_attributes"]),
        tol=tol,
    )
    stats = SolverStats.from_dict(payload.get("stats", {}))

    return TopRRResult(
        dataset=anchor,
        filtered=filtered,
        k=int(payload["k"]),
        region=region,
        vertices_reduced=np.asarray(payload["vertices_reduced"], dtype=float),
        full_weights=np.asarray(payload["full_weights"], dtype=float),
        thresholds=np.asarray(payload["thresholds"], dtype=float),
        polytope=polytope,
        stats=stats,
        method=str(payload.get("method", "loaded")),
        tol=tol,
    )


def load_result(
    path: Union[str, Path],
    dataset: Optional[Dataset] = None,
    tol: Optional[Tolerance] = None,
) -> TopRRResult:
    """Read a result previously written by :func:`save_result`.

    Parameters
    ----------
    path:
        JSON file produced by :func:`save_result`.
    dataset:
        The original dataset; optional for schema-v2 files (which embed it),
        required for legacy v1 files.  When given it overrides the embedded
        payload.
    tol:
        Optional tolerance override; defaults to the stored bundle (v2) or
        :data:`DEFAULT_TOL` (v1).
    """
    path = Path(path)
    try:
        with path.open() as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read result document {path}: {exc}") from exc
    return result_from_dict(payload, dataset=dataset, tol=tol)


# ---------------------------------------------------------------------- #
# engine cache snapshots
# ---------------------------------------------------------------------- #
def _memo_to_dict(memo: VertexScoreMemo, root_uid: Optional[int] = None) -> dict:
    """Snapshot one vertex-score memo (rows always; orders for ``root_uid``).

    Row keys are the exact float64 bytes of the reduced vertices
    (base64-encoded); the rows themselves are stacked into one matrix.
    Working-set uids are process-local, so only the orderings of the
    entry's *root* working set are portable — they are re-keyed under the
    restored root's fresh uid by :func:`_seed_memo`.
    """
    rows = memo.export_rows()
    row_matrix = (
        np.array([row for _key, row in rows])
        if rows
        else np.empty((0, memo.n_options))
    )
    doc = {
        "max_rows": int(memo.max_rows),
        "max_orders": int(memo.max_orders),
        "row_keys": [base64.b64encode(key).decode("ascii") for key, _row in rows],
        "rows": _encode_array(row_matrix),
    }
    if root_uid is not None:
        orders = memo.export_orders(root_uid)
        order_matrix = (
            np.array([row for _key, row in orders])
            if orders
            else np.empty((0, 0), dtype=np.intp)
        )
        doc["order_keys"] = [
            base64.b64encode(key).decode("ascii") for key, _row in orders
        ]
        doc["orders"] = _encode_array(order_matrix)
    return doc


def _memo_from_dict(
    payload: dict,
    coefficients: np.ndarray,
    constants: np.ndarray,
    root_uid: Optional[int] = None,
) -> VertexScoreMemo:
    """Rebuild a memo from :func:`_memo_to_dict`, re-keying orders to ``root_uid``."""
    memo = VertexScoreMemo(
        coefficients,
        constants,
        max_rows=int(payload["max_rows"]),
        max_orders=int(payload["max_orders"]),
    )
    keys = [base64.b64decode(key, validate=True) for key in payload["row_keys"]]
    rows = _decode_array(payload["rows"])
    if len(keys) != rows.shape[0]:
        raise SerializationError(
            f"memo payload lists {len(keys)} row keys for {rows.shape[0]} rows"
        )
    memo.seed_rows(zip(keys, rows))
    if root_uid is not None and "order_keys" in payload:
        order_keys = [base64.b64decode(key, validate=True) for key in payload["order_keys"]]
        orders = _decode_array(payload["orders"])
        if len(order_keys) != orders.shape[0]:
            raise SerializationError(
                f"memo payload lists {len(order_keys)} order keys for "
                f"{orders.shape[0]} order rows"
            )
        memo.seed_orders(root_uid, zip(order_keys, orders))
    return memo


def _fingerprint_to_json(fingerprint: tuple) -> list:
    """Region fingerprint (tuple of vertex tuples) as nested JSON lists."""
    return [[float(value) for value in vertex] for vertex in fingerprint]


def _fingerprint_from_json(payload: list) -> tuple:
    """Inverse of :func:`_fingerprint_to_json` (hash/equality-compatible)."""
    return tuple(tuple(float(value) for value in vertex) for vertex in payload)


def snapshot_engine(engine) -> dict:
    """JSON-ready snapshot of a :class:`TopRREngine`'s warm cache state.

    Captures, oldest-first so LRU recency replays on restore:

    * every r-skyband entry — ``k``, region fingerprint, the positional
      indices of the band members, the exact region vertices,
      and the entry's vertex-score memo (rows + root-working-set orders);
    * every cached result — key plus an exact array-level dump of the
      :class:`TopRRResult`.

    Counters (hits/misses, query counts, mutation totals) are deliberately
    *not* captured: a restored replica starts its accounting fresh.
    """
    dataset = engine.dataset
    skyband_entries = []
    for (k, fingerprint), entry in engine._skyband_cache.items():
        filtered, working, memo, full_vertices = entry
        skyband_entries.append(
            {
                "k": int(k),
                "fingerprint": _fingerprint_to_json(fingerprint),
                "kept": [int(dataset.index_of(oid)) for oid in filtered.option_ids],
                "full_vertices": _encode_array(full_vertices),
                "memo": _memo_to_dict(memo, root_uid=working.uid),
            }
        )

    result_entries = []
    for (k, fingerprint, method_key), result in engine._result_cache.items():
        A, b = result.polytope.halfspaces
        region_A, region_b = result.region.polytope.halfspaces
        kept = [int(dataset.index_of(oid)) for oid in result.filtered.option_ids]
        result_entries.append(
            {
                "k": int(k),
                "fingerprint": _fingerprint_to_json(fingerprint),
                "method_key": str(method_key),
                "result": {
                    "method": result.method,
                    "n_attributes": int(result.region.n_attributes),
                    "kept": kept,
                    "vertices_reduced": _encode_array(result.vertices_reduced),
                    "full_weights": _encode_array(result.full_weights),
                    "thresholds": _encode_array(result.thresholds),
                    "option_region": {"A": _encode_array(A), "b": _encode_array(b)},
                    "preference_region": {
                        "A": _encode_array(region_A),
                        "b": _encode_array(region_b),
                    },
                    "stats": result.stats.as_dict(),
                },
            }
        )

    return {
        "format": SNAPSHOT_FORMAT,
        "schema_version": SNAPSHOT_VERSION,
        "library_version": __version__,
        "engine": {
            "prefilter": True,
            "method": engine.method if isinstance(engine.method, str) else str(engine.method),
            "skyband_cache_size": int(engine._skyband_cache.maxsize),
            "result_cache_size": int(engine._result_cache.maxsize),
        },
        "dataset": {
            "name": dataset.name,
            "n_options": int(dataset.n_options),
            "n_attributes": int(dataset.n_attributes),
            "version": int(dataset.version),
            "digest": dataset_digest(dataset),
        },
        "skyband_entries": skyband_entries,
        "result_entries": result_entries,
    }


def restore_engine(engine, payload: dict) -> dict:
    """Install a :func:`snapshot_engine` payload into ``engine``'s caches.

    The engine must be bound to the *same dataset content* the snapshot was
    taken against (verified via :func:`dataset_digest`), and the snapshot
    must come from an r-skyband-filtered engine (older libraries could also
    run unfiltered, ``"prefilter": false``); anything else raises
    :class:`SerializationError` — restoring caches across datasets would
    serve answers for options that no longer exist.  The restored filtered
    subsets are read-only, as the engine's own cached ones are.  Entries are
    installed oldest-first, so the restored LRU recency order matches the
    original (and the engine's own — possibly smaller — cache bounds apply).
    Returns ``{"skyband_entries", "result_entries", "memo_rows"}`` counts.
    """
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise SerializationError("the document is not a TopRR engine snapshot")
    if int(payload.get("schema_version", -1)) > SNAPSHOT_VERSION:
        raise SerializationError(
            f"unsupported snapshot schema version {payload.get('schema_version')} "
            f"(this library reads up to {SNAPSHOT_VERSION})"
        )
    dataset = engine.dataset
    recorded = payload.get("dataset", {})
    if (
        int(recorded.get("n_options", -1)) != dataset.n_options
        or int(recorded.get("n_attributes", -1)) != dataset.n_attributes
        or recorded.get("digest") != dataset_digest(dataset)
    ):
        raise SerializationError(
            f"snapshot was taken against dataset {recorded.get('name')!r} "
            f"({recorded.get('n_options')}x{recorded.get('n_attributes')}, "
            f"digest {str(recorded.get('digest'))[:12]}...), which does not match "
            f"the engine's dataset {dataset.name!r} "
            f"({dataset.n_options}x{dataset.n_attributes})"
        )
    config = payload.get("engine", {})
    if not bool(config.get("prefilter", True)):
        raise SerializationError(
            f"snapshot was taken with prefilter={config.get('prefilter')} (no r-skyband "
            "pre-filter), which this library no longer runs; its cached entries do not "
            "match an r-skyband-filtered engine"
        )

    coefficients, constants = engine.affine_form()
    counts = {"skyband_entries": 0, "result_entries": 0, "memo_rows": 0}
    try:
        for entry in payload.get("skyband_entries", []):
            k = int(entry["k"])
            fingerprint = _fingerprint_from_json(entry["fingerprint"])
            kept = np.asarray([int(i) for i in entry["kept"]], dtype=int)
            filtered = dataset.subset(kept, name=f"{dataset.name}[r-skyband]")
            filtered.values.setflags(write=False)
            working = WorkingSet.from_affine_form(
                coefficients[kept], constants[kept], k
            )
            memo = _memo_from_dict(
                entry["memo"],
                working.coefficients,
                working.constants,
                root_uid=working.uid,
            )
            counts["memo_rows"] += len(memo)
            full_vertices = _decode_array(entry["full_vertices"])
            engine._skyband_cache.put(
                (k, fingerprint), (filtered, working, memo, full_vertices)
            )
            counts["skyband_entries"] += 1

        for entry in payload.get("result_entries", []):
            k = int(entry["k"])
            fingerprint = _fingerprint_from_json(entry["fingerprint"])
            doc = entry["result"]
            tol = engine.tol
            region = PreferenceRegion(
                ConvexPolytope(
                    _decode_array(doc["preference_region"]["A"]),
                    _decode_array(doc["preference_region"]["b"]),
                    tol=tol,
                ),
                n_attributes=int(doc["n_attributes"]),
                tol=tol,
            )
            polytope = ConvexPolytope(
                _decode_array(doc["option_region"]["A"]),
                _decode_array(doc["option_region"]["b"]),
                tol=tol,
            )
            filtered = dataset.subset(
                [int(i) for i in doc["kept"]], name=f"{dataset.name}[r-skyband]"
            )
            result = TopRRResult(
                dataset=dataset,
                filtered=filtered,
                k=k,
                region=region,
                vertices_reduced=_decode_array(doc["vertices_reduced"]),
                full_weights=_decode_array(doc["full_weights"]),
                thresholds=_decode_array(doc["thresholds"]),
                polytope=polytope,
                stats=SolverStats.from_dict(doc.get("stats", {})),
                method=str(doc.get("method", "loaded")),
                tol=tol,
            )
            engine._result_cache.put(
                (k, fingerprint, str(entry["method_key"])), result.make_read_only()
            )
            counts["result_entries"] += 1
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise SerializationError(f"truncated or corrupt engine snapshot: {exc}") from exc
    return counts


def save_engine_snapshot(engine, path: Union[str, Path]) -> Path:
    """Write ``engine``'s cache snapshot to ``path`` as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(snapshot_engine(engine), handle, separators=(",", ":"))
    return path


def load_engine_snapshot(engine, path: Union[str, Path]) -> dict:
    """Read a snapshot written by :func:`save_engine_snapshot` into ``engine``.

    Returns the restore counts of :func:`restore_engine`.  Unreadable,
    truncated, or non-snapshot files raise :class:`SerializationError`.
    """
    path = Path(path)
    try:
        with path.open() as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read engine snapshot {path}: {exc}") from exc
    return restore_engine(engine, payload)
