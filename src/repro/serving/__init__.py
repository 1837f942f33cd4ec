"""TopRR as a service: an asyncio HTTP front end over the query engines.

The package turns session-scoped :class:`~repro.engine.engine.TopRREngine`
instances into a long-lived replica:

* :mod:`repro.serving.schemas` — JSON request/response schemas shared by
  the server, the CLI and the benchmark clients;
* :mod:`repro.serving.registry` — the per-dataset engine registry, the
  async reader-writer lock serialising mutations against in-flight solves,
  and the request coalescer that lets concurrent identical ``(k, region)``
  queries share one solve;
* :mod:`repro.serving.server` — the stdlib-only asyncio HTTP/1.1 server
  (``/solve``, ``/batch``, ``/mutate``, ``/health``, ``/metrics``) plus a
  thread-hosted harness used by the tests and benchmarks.

Durability comes from the engine snapshot format
(:mod:`repro.core.serialization`): ``toprr serve --snapshot`` restores a
persisted cache state on boot, so a restarted replica answers its recorded
query mix byte-identically with first-query cache hits.
"""

from repro.serving.registry import EngineRegistry, ServedDataset
from repro.serving.schemas import (
    BatchRequest,
    MutateRequest,
    SolveRequest,
    region_from_spec,
    result_payload,
)
from repro.serving.server import ToprrServer, request_json, start_server_thread

__all__ = [
    "BatchRequest",
    "EngineRegistry",
    "MutateRequest",
    "ServedDataset",
    "SolveRequest",
    "ToprrServer",
    "region_from_spec",
    "request_json",
    "result_payload",
    "start_server_thread",
]
