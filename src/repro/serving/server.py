"""The asyncio HTTP front end: ``/solve``, ``/batch``, ``/mutate``, ``/health``, ``/metrics``.

A deliberately small, dependency-free HTTP/1.1 server
(:func:`asyncio.start_server` + hand-rolled request parsing, keep-alive
supported) — the solver is the product here, the transport just has to be
correct.  Life of a served query:

1. the request body is parsed and validated
   (:mod:`repro.serving.schemas`; malformed input → 400, never a traceback);
2. the registry resolves the target dataset and its engine
   (:mod:`repro.serving.registry`);
3. the solve runs under the dataset's read lock — concurrent solves
   interleave freely, a ``/mutate`` holds the write side alone;
4. the request's key ``(k, region fingerprint, method)`` comes from the
   engine's fingerprint memo, so a repeated region is a lookup; a result-
   cache hit answers at once, without geometry; identical concurrent
   misses coalesce onto one engine call; everyone else's CPU-bound solve
   is pushed to a worker thread so the event loop keeps accepting requests;
5. the response separates the deterministic ``"result"`` payload (byte-
   comparable across replicas) from the volatile ``"served"`` half
   (latency, cache hit, coalescing).

:func:`start_server_thread` hosts the same server on a private event loop
in a daemon thread — the harness the tests, the benchmark and the CI smoke
lane drive with plain blocking clients (:func:`request_json`).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Optional, Tuple

# Not called here (the engine's memo computes fingerprints), but kept in this
# module's namespace: the stage tracer patches it next to the engine's name.
from repro.engine.fingerprint import region_fingerprint  # noqa: F401
from repro.exceptions import InvalidParameterError, ReproError
from repro.serving.registry import EngineRegistry, ServedDataset
from repro.serving.schemas import (
    BatchRequest,
    MutateRequest,
    SolveRequest,
    result_payload,
)
from repro.version import __version__

#: Largest accepted request body (16 MiB — far above any sane mutate batch).
MAX_BODY_BYTES = 16 << 20


class ToprrServer:
    """One serving replica: an engine registry behind an asyncio HTTP server.

    Parameters
    ----------
    registry:
        The datasets/engines to serve (see :class:`EngineRegistry`).
    host, port:
        Bind address; ``port=0`` picks a free port (recorded in
        :attr:`port` after :meth:`start`).
    n_solver_threads:
        Size of the worker-thread pool CPU-bound solves run on.  Solves
        hold the GIL for most of their runtime, so this bounds memory and
        queueing fairness more than parallel speed-up.
    """

    def __init__(
        self,
        registry: EngineRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        n_solver_threads: int = 4,
    ):
        self.registry = registry
        self.host = host
        self.port = int(port)
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, int(n_solver_threads)),
            thread_name_prefix="toprr-solve",
        )
        self.started = time.time()

    # -------------------------------------------------------------- #
    # lifecycle
    # -------------------------------------------------------------- #
    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        """Base URL of the bound server (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and release the solver threads."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    # -------------------------------------------------------------- #
    # transport
    # -------------------------------------------------------------- #
    async def _handle_connection(self, reader, writer) -> None:
        """Serve one client connection (HTTP/1.1 keep-alive loop)."""
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                status, payload = await self._dispatch(method, path, body)
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader) -> Optional[Tuple[str, str, dict, bytes]]:
        """Parse one HTTP request; ``None`` when the client closed the socket."""
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ConnectionError("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise ConnectionError(f"request body of {length} bytes exceeds the cap")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method, path, headers, body

    @staticmethod
    async def _write_response(writer, status: int, payload: dict, keep_alive: bool) -> None:
        """Serialise one JSON response and flush it."""
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 409: "Conflict", 500: "Internal Server Error"}
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -------------------------------------------------------------- #
    # routing
    # -------------------------------------------------------------- #
    async def _dispatch(self, method: str, path: str, body: bytes) -> Tuple[int, dict]:
        """Route one request; every error becomes a JSON error response."""
        routes = {
            ("GET", "/health"): self._route_health,
            ("GET", "/metrics"): self._route_metrics,
            ("POST", "/solve"): self._route_solve,
            ("POST", "/batch"): self._route_batch,
            ("POST", "/mutate"): self._route_mutate,
        }
        handler = routes.get((method, path))
        if handler is None:
            known_paths = {route_path for _verb, route_path in routes}
            if path in known_paths:
                return 405, {"error": f"{method} is not supported on {path}"}
            return 404, {"error": f"unknown route {path}"}
        try:
            if method == "POST":
                try:
                    payload = json.loads(body.decode() or "{}")
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    return 400, {"error": f"request body is not valid JSON: {exc}"}
                return 200, await handler(payload)
            return 200, await handler()
        except (InvalidParameterError, ReproError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - the replica must keep serving
            return 500, {"error": f"internal error: {type(exc).__name__}: {exc}"}

    # -------------------------------------------------------------- #
    # routes
    # -------------------------------------------------------------- #
    async def _route_health(self) -> dict:
        """Liveness probe: registered datasets and engine identity."""
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": time.time() - self.started,
            "datasets": self.registry.names(),
        }

    async def _route_metrics(self) -> dict:
        """Serving counters + engine cache state, safe on a fresh replica."""
        return {
            "status": "ok",
            "datasets": {
                entry.name: entry.metrics() for entry in self.registry.entries()
            },
        }

    async def _route_solve(self, payload: dict) -> dict:
        """One TopRR query, coalesced and cache-aware."""
        request = SolveRequest.parse(payload)
        entry = self.registry.get(request.dataset)
        async with entry.lock.read():
            response = await self._solve_one(entry, request)
        served = response["served"]
        entry.record(
            "solve",
            seconds=served["seconds"],
            cache_hit=served["cache_hit"],
            coalesced=served["coalesced"],
        )
        return response

    async def _route_batch(self, payload: dict) -> dict:
        """Several queries against one dataset, answered in request order."""
        batch = BatchRequest.parse(payload)
        entry = self.registry.get(batch.dataset)
        started = time.perf_counter()
        responses = []
        async with entry.lock.read():
            for request in batch.queries:
                responses.append(await self._solve_one(entry, request))
        entry.record("batch", seconds=time.perf_counter() - started)
        return {
            "dataset": entry.name,
            "n_queries": len(responses),
            "responses": responses,
            "served": {"seconds": time.perf_counter() - started},
        }

    async def _solve_one(self, entry: ServedDataset, request: SolveRequest) -> dict:
        """The shared solve path of ``/solve`` and ``/batch`` (read lock held).

        One fingerprint per request, from the engine's memo (a repeated
        region costs a lookup, no geometry), keys both the result-cache peek
        and the coalescing table.  A cache hit answers without touching the
        executor; otherwise the request coalesces with identical in-flight
        solves, then pays the solve on a worker thread.
        """
        engine = entry.engine
        region = request.region(engine.dataset.n_attributes, tol=engine.tol)
        method = request.method if request.method is not None else engine.method
        started = time.perf_counter()

        key = None
        if request.use_cache and isinstance(method, str):
            key = (request.k, engine.fingerprint(region), method.lower())
        cache_hit = False
        coalesced = False
        result = engine.cached_result(request.k, region, method) if key is not None else None
        if result is not None:
            cache_hit = True
        else:
            loop = asyncio.get_running_loop()
            thunk = lambda: loop.run_in_executor(  # noqa: E731 - bound late by design
                self._executor,
                partial(
                    engine.query,
                    request.k,
                    region,
                    method=request.method,
                    use_cache=request.use_cache,
                ),
            )
            if key is not None:
                result, coalesced = await entry.coalesced_solve(key, thunk)
            else:
                # Deliberately uncached solves never coalesce: the caller
                # asked for an independent from-scratch computation.
                result = await thunk()
        seconds = time.perf_counter() - started

        return {
            "dataset": entry.name,
            "result": result_payload(result),
            "served": {
                "seconds": seconds,
                "cache_hit": cache_hit,
                "coalesced": coalesced,
            },
        }

    async def _route_mutate(self, payload: dict) -> dict:
        """Streaming insert/delete, exclusive against in-flight solves."""
        request = MutateRequest.parse(payload)
        entry = self.registry.get(request.dataset)
        started = time.perf_counter()
        async with entry.lock.write():
            loop = asyncio.get_running_loop()
            reports = await loop.run_in_executor(
                self._executor, partial(self._apply_mutation, entry, request)
            )
        seconds = time.perf_counter() - started
        entry.record("mutate", seconds=seconds)
        dataset = entry.engine.dataset
        return {
            "dataset": entry.name,
            "version": int(dataset.version),
            "n_options": int(dataset.n_options),
            "reports": reports,
            "served": {"seconds": seconds},
        }

    @staticmethod
    def _apply_mutation(entry: ServedDataset, request: MutateRequest) -> list:
        """Apply insert-then-delete through the engine's incremental maintenance."""
        engine = entry.engine
        reports = []
        current = engine.dataset
        if request.insert_values is not None:
            current, delta = current.insert_options(
                request.insert_values, option_ids=request.insert_ids
            )
            reports.append(dict(engine.apply_delta(current, delta).as_dict(), step="insert"))
        if request.delete_ids is not None or request.delete_positions is not None:
            current, delta = current.delete_options(
                option_ids=request.delete_ids, positions=request.delete_positions
            )
            reports.append(dict(engine.apply_delta(current, delta).as_dict(), step="delete"))
        return reports


# ------------------------------------------------------------------ #
# thread-hosted harness and a tiny blocking client
# ------------------------------------------------------------------ #
class ServerThread:
    """Host a :class:`ToprrServer` on a private event loop in a daemon thread.

    The harness the tests and benchmarks use: the calling thread gets a
    bound ``url`` back and drives the replica with plain blocking HTTP
    clients; :meth:`stop` tears the loop down deterministically.
    """

    def __init__(self, registry: EngineRegistry, host: str = "127.0.0.1", port: int = 0):
        self.server = ToprrServer(registry, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        """Start the loop thread and block until the server is bound."""
        self._thread = threading.Thread(target=self._run, name="toprr-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serving thread failed to start in time")
        if self._failure is not None:
            raise RuntimeError(f"serving thread failed to bind: {self._failure!r}")
        return self

    def _run(self) -> None:
        """Thread body: bind the server, signal readiness, run the loop until stopped."""
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind failures to the caller
            self._failure = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    @property
    def url(self) -> str:
        """Base URL of the running replica."""
        return self.server.url

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join the loop thread (idempotent)."""
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def start_server_thread(
    registry: EngineRegistry, host: str = "127.0.0.1", port: int = 0
) -> ServerThread:
    """Start a thread-hosted replica and return its handle (bound and ready)."""
    return ServerThread(registry, host=host, port=port).start()


def request_json(
    base_url: str,
    method: str,
    path: str,
    payload: Optional[dict] = None,
    timeout: float = 60.0,
) -> Tuple[int, dict]:
    """Tiny blocking JSON client (stdlib only) for tests, benchmarks and CI.

    Returns ``(status, decoded body)``; HTTP error statuses are returned,
    not raised, so callers can assert on 400/404 responses directly.
    """
    import urllib.error
    import urllib.request

    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base_url + path,
        data=data,
        method=method.upper(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode() or "{}")
    except urllib.error.HTTPError as error:
        try:
            body = json.loads(error.read().decode() or "{}")
        except json.JSONDecodeError:
            body = {}
        return error.code, body
