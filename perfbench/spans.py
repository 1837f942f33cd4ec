"""Span tracing installed from the benchmark, around calls into each layer.

The program itself has no stage clock yet, so the traced run wraps the
public (or module-level) functions each layer is entered through and records
one span per call: name, start, end, parent span and request id.  Spans stay
in memory; :meth:`Tracer.summary` turns them into per-layer self times at
the end of the run (self time = span duration minus the part of it covered
by child spans) and :meth:`Tracer.dump` writes them out.

Span names reuse the stage names of ROADMAP.md, so a later in-program stage
clock maps one to one onto this benchmark:

==========================  ===================================================
span                        wrapped call(s)
==========================  ===================================================
``serving``                 ``ToprrServer._dispatch`` (routing, parsing)
``serving.payload``         ``result_payload`` (response body construction)
``result_cache``            ``TopRREngine.cached_result``, result-LRU get/put
``engine.fingerprint``      ``region_fingerprint``
``engine.query``            ``TopRREngine.query`` (engine glue is its self time)
``prefilter``               ``r_skyband`` as the engine calls it
``prefilter.score_matrix``  ``vertex_score_matrix``
``prefilter.skyband``       ``skyband_of_values``
``partition``               ``BaseTestAndSplit.partition`` (loop, merge)
``partition.kernel``        ``VertexScoreMemo.region_profiles`` /
                            ``lemma5_sliced_profiles``, ``RegionProfiles.compute``
``partition.split``         ``split_region`` (pair selection)
``partition.cut``           ``ConvexPolytope.split`` / ``intersect_halfspace``,
                            body construction from halfspaces
``partition.chebyshev``     polygon / polyhedron / LP Chebyshev centre
``partition.validate``      closed-form body consistency checks
``partition.vertices``      canonical vertex snapping, qhull enumeration
``impact``                  ``build_impact_region``
``mutation.apply_delta``    ``TopRREngine.apply_delta``
``mutation.survival``       ``entry_survival``
``data.insert_options``     ``Dataset.insert_options``
``data.delete_options``     ``Dataset.delete_options``
==========================  ===================================================

Context propagates through :mod:`contextvars`, which follows asyncio tasks;
the served workloads run the server's solver pool through
:class:`ContextThreadPool` so executor spans keep their request parent.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)

# Span record layout: a list, its end filled in place when the span closes;
# the parent slot holds the parent's record itself.
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """In-memory span recorder; ``enabled`` switches recording on and off."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self._request_ids = itertools.count()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> tuple:
        parent = _CURRENT.get()
        # A span opened outside any other span starts a new request.
        request = next(self._request_ids) if parent is None else _REQUEST.get()
        record = [name, time.perf_counter_ns(), 0, parent, request]
        self.spans.append(record)
        return record, _CURRENT.set(record), _REQUEST.set(request)

    @staticmethod
    def _close(opened: tuple) -> None:
        record, span_token, request_token = opened
        record[END] = time.perf_counter_ns()
        _REQUEST.reset(request_token)
        _CURRENT.reset(span_token)

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` recording a ``name`` span per call while tracing is enabled."""
        tracer = self
        if asyncio.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await func(*args, **kwargs)
                opened = tracer._open(name)
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer._close(opened)

            return traced_async

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            opened = tracer._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(opened)

        return traced

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every layer entry point listed in the module docstring."""
        from repro.core import base_solver, profiles, scorecache
        from repro.core.base_solver import BaseTestAndSplit
        from repro.data.dataset import Dataset
        from repro.engine import engine as engine_module
        from repro.geometry import polytope
        from repro.geometry.polytope import ConvexPolytope
        from repro.pruning import rskyband
        from repro.serving import server

        def patch(owner, attribute: str, name: str) -> None:
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if isinstance(raw, classmethod):
                setattr(owner, attribute, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, attribute, self.wrap(name, raw))

        patch(server.ToprrServer, "_dispatch", "serving")
        patch(server, "result_payload", "serving.payload")
        patch(server, "region_fingerprint", "engine.fingerprint")
        patch(engine_module.TopRREngine, "cached_result", "result_cache")
        patch(engine_module, "region_fingerprint", "engine.fingerprint")
        patch(engine_module.TopRREngine, "query", "engine.query")
        patch(engine_module, "r_skyband", "prefilter")
        patch(rskyband, "vertex_score_matrix", "prefilter.score_matrix")
        patch(rskyband, "skyband_of_values", "prefilter.skyband")
        patch(BaseTestAndSplit, "partition", "partition")
        patch(scorecache.VertexScoreMemo, "region_profiles", "partition.kernel")
        patch(scorecache.VertexScoreMemo, "lemma5_sliced_profiles", "partition.kernel")
        patch(profiles.RegionProfiles, "compute", "partition.kernel")
        patch(base_solver, "split_region", "partition.split")
        patch(ConvexPolytope, "split", "partition.cut")
        patch(ConvexPolytope, "intersect_halfspace", "partition.cut")
        for function in ("polygon_from_halfspaces", "polyhedron_from_halfspaces"):
            patch(polytope, function, "partition.cut")
        for function in ("polygon_chebyshev", "polyhedron_chebyshev", "chebyshev_center"):
            patch(polytope, function, "partition.chebyshev")
        for function in ("polygon_is_consistent", "polyhedron_is_consistent"):
            patch(polytope, function, "partition.validate")
        for function in (
            "canonicalize_polygon_vertices",
            "canonicalize_polyhedron_vertices",
            "enumerate_vertices",
        ):
            patch(polytope, function, "partition.vertices")
        patch(engine_module, "build_impact_region", "impact")
        patch(engine_module.TopRREngine, "apply_delta", "mutation.apply_delta")
        patch(engine_module, "entry_survival", "mutation.survival")
        patch(Dataset, "insert_options", "data.insert_options")
        patch(Dataset, "delete_options", "data.delete_options")

    def watch_result_cache(self, engine) -> None:
        """Record the result LRU's ``get``/``put`` on one engine as ``result_cache``."""
        cache = engine._result_cache
        cache.get = self.wrap("result_cache", cache.get)
        cache.put = self.wrap("result_cache", cache.put)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, total and self time (ms), over closed spans.

        ``solve_self_ms`` is the part of the self time spent inside an
        ``engine.query`` span, the base the per-layer shares are taken of.
        """
        spans = [span for span in self.spans if span[END]]
        children: Dict[int, list] = {}
        for span in spans:
            if span[PARENT] is not None:
                children.setdefault(id(span[PARENT]), []).append(span)

        in_solve: Dict[int, bool] = {}

        def under_solve(span) -> bool:
            key = id(span)
            if key not in in_solve:
                parent = span[PARENT]
                in_solve[key] = span[NAME] == "engine.query" or (
                    parent is not None and under_solve(parent)
                )
            return in_solve[key]

        out: Dict[str, dict] = {}
        for span in spans:
            start, end = span[START], span[END]
            covered = 0
            cursor = start
            for child in sorted(children.get(id(span), ()), key=lambda c: c[START]):
                lo, hi = max(child[START], cursor), min(child[END], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = out.setdefault(
                span[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "solve_self_ms": 0.0}
            )
            entry["calls"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - covered) / 1e6
            if under_solve(span):
                entry["solve_self_ms"] += (end - start - covered) / 1e6
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON object per line (parents by line number)."""
        line_of = {id(span): line for line, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for span in self.spans:
                parent = span[PARENT]
                record = {
                    "name": span[NAME],
                    "start_ns": span[START],
                    "end_ns": span[END],
                    "parent": None if parent is None else line_of[id(parent)],
                    "request": span[REQUEST],
                }
                handle.write(json.dumps(record) + "\n")


class ContextThreadPool(ThreadPoolExecutor):
    """A thread pool that runs each task in its submitter's context.

    ``loop.run_in_executor`` does not copy :mod:`contextvars`, so without
    this the server's solver-thread spans would lose their request parent.
    """

    def submit(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)
