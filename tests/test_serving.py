"""Tests for the HTTP serving layer: endpoints, coalescing, warm restarts.

Each test boots a real replica (:func:`start_server_thread` — the asyncio
server on a private loop in a daemon thread) and drives it over actual
sockets with the stdlib client, so the request parsing, routing, error
mapping, reader-writer exclusion and coalescing paths are all exercised
as deployed, not mocked.
"""

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.engine.engine as engine_module
import repro.serving.server as server_module
from repro.data.generators import generate_synthetic
from repro.engine import TopRREngine, region_fingerprint
from repro.exceptions import InvalidParameterError
from repro.preference.region import PreferenceRegion
from repro.serving import (
    EngineRegistry,
    MutateRequest,
    SolveRequest,
    region_from_spec,
    request_json,
    start_server_thread,
)
from repro.serving.registry import LATENCY_WINDOWS, AsyncReadWriteLock

REGION = {"intervals": [[0.2, 0.6], [0.1, 0.5]]}


@pytest.fixture
def replica():
    """A running single-dataset replica; yields ``(url, engine)``."""
    dataset = generate_synthetic("IND", 80, 3, rng=7)
    engine = TopRREngine(dataset, rng=7)
    registry = EngineRegistry()
    registry.add("default", engine)
    handle = start_server_thread(registry)
    try:
        yield handle.url, engine
    finally:
        handle.stop()


class TestEndpoints:
    def test_health(self, replica):
        url, _engine = replica
        status, body = request_json(url, "GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["datasets"] == ["default"]

    def test_metrics_never_keyerrors_on_a_fresh_replica(self, replica):
        # The satellite contract: every counter (including the mutation
        # block) exists from construction, before any request was served.
        url, _engine = replica
        status, body = request_json(url, "GET", "/metrics")
        assert status == 200
        entry = body["datasets"]["default"]
        assert entry["requests"] == {"solve": 0, "batch": 0, "mutate": 0}
        assert entry["n_coalesced"] == 0
        assert entry["n_result_cache_hits"] == 0
        assert entry["latency"]["count"] == 0
        assert set(entry["latency_by_route"]) == set(LATENCY_WINDOWS)
        for window in entry["latency_by_route"].values():
            assert window == {"count": 0, "p50_ms": 0.0, "p99_ms": 0.0}
        assert entry["cache"]["fingerprints"]["hits"] == 0
        mutations = entry["cache"]["mutations"]
        assert mutations["n_deltas"] == 0
        assert mutations["n_entries_survived"] == 0

    def test_solve_then_cache_hit_is_byte_identical(self, replica):
        url, _engine = replica
        status, first = request_json(url, "POST", "/solve", {"k": 3, "region": REGION})
        assert status == 200
        assert first["served"]["cache_hit"] is False
        status, second = request_json(url, "POST", "/solve", {"k": 3, "region": REGION})
        assert status == 200
        assert second["served"]["cache_hit"] is True
        assert second["result"] == first["result"]

    def test_latency_by_route_counts_each_outcome_once(self, replica):
        url, _engine = replica
        request_json(url, "POST", "/solve", {"k": 3, "region": REGION})  # a miss
        request_json(url, "POST", "/solve", {"k": 3, "region": REGION})  # a hit
        request_json(url, "POST", "/batch", {"queries": [{"k": 3, "region": REGION}]})
        request_json(url, "POST", "/mutate", {"insert": {"values": [[0.9, 0.9, 0.9]]}})
        status, body = request_json(url, "GET", "/metrics")
        assert status == 200
        entry = body["datasets"]["default"]
        counts = {name: window["count"] for name, window in entry["latency_by_route"].items()}
        assert counts == {"solve.hit": 1, "solve.miss": 1, "solve.coalesced": 0, "batch": 1, "mutate": 1}
        assert entry["latency"]["count"] == 4
        for window in entry["latency_by_route"].values():
            assert window["p99_ms"] >= window["p50_ms"] >= 0.0

    def test_one_fingerprint_per_served_request(self, replica, monkeypatch):
        # A served miss computes the fingerprint once (result peek, coalescing
        # key and engine query share it); freshly parsed repeats compute none.
        url, _engine = replica
        calls = []

        def counted(region):
            calls.append(region)
            return region_fingerprint(region)

        monkeypatch.setattr(engine_module, "region_fingerprint", counted)
        monkeypatch.setattr(server_module, "region_fingerprint", counted)
        fresh = {"intervals": [[0.25, 0.55], [0.15, 0.45]]}
        status, first = request_json(url, "POST", "/solve", {"k": 3, "region": fresh})
        assert status == 200 and first["served"]["cache_hit"] is False
        assert len(calls) == 1
        status, second = request_json(url, "POST", "/solve", {"k": 3, "region": fresh})
        assert second["served"]["cache_hit"] is True
        status, batch = request_json(url, "POST", "/batch", {"queries": [{"k": 3, "region": fresh}] * 3})
        assert [r["served"]["cache_hit"] for r in batch["responses"]] == [True] * 3
        assert batch["responses"][0]["result"] == first["result"]
        assert len(calls) == 1

    def test_solve_with_halfspace_region(self, replica):
        url, _engine = replica
        spec = {"A": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                "b": [0.6, -0.2, 0.5, -0.1]}
        status, body = request_json(url, "POST", "/solve", {"k": 3, "region": spec})
        assert status == 200
        assert body["result"]["k"] == 3

    def test_solve_without_cache_recomputes(self, replica):
        url, _engine = replica
        request_json(url, "POST", "/solve", {"k": 3, "region": REGION})
        status, body = request_json(
            url, "POST", "/solve", {"k": 3, "region": REGION, "use_cache": False}
        )
        assert status == 200
        assert body["served"]["cache_hit"] is False

    def test_batch(self, replica):
        url, _engine = replica
        status, body = request_json(url, "POST", "/batch", {"queries": [
            {"k": 2, "region": REGION},
            {"k": 3, "region": REGION},
            {"k": 2, "region": REGION},
        ]})
        assert status == 200
        assert body["n_queries"] == 3
        # the third query repeats the first: answered from cache, identically
        assert body["responses"][2]["served"]["cache_hit"] is True
        assert body["responses"][2]["result"] == body["responses"][0]["result"]

    def test_mutate_bumps_the_dataset_version(self, replica):
        url, engine = replica
        before = engine.dataset.version
        status, body = request_json(url, "POST", "/mutate", {
            "insert": {"values": [[0.5, 0.5, 0.5]]},
            "delete": {"positions": [0]},
        })
        assert status == 200
        assert body["n_options"] == 80  # one in, one out
        assert body["version"] == before + 2
        assert [r["step"] for r in body["reports"]] == ["insert", "delete"]
        # the mutated replica still solves
        status, solved = request_json(url, "POST", "/solve", {"k": 3, "region": REGION})
        assert status == 200

    def test_mutation_counters_surface_in_metrics_after_mutate(self, replica):
        url, _engine = replica
        request_json(url, "POST", "/solve", {"k": 3, "region": REGION})
        request_json(url, "POST", "/mutate", {"insert": {"values": [[0.9, 0.9, 0.9]]}})
        status, body = request_json(url, "GET", "/metrics")
        entry = body["datasets"]["default"]
        assert entry["requests"]["mutate"] == 1
        assert entry["cache"]["mutations"]["n_deltas"] == 1


class TestErrorMapping:
    def test_unknown_route_is_404(self, replica):
        url, _engine = replica
        assert request_json(url, "GET", "/nope")[0] == 404

    def test_wrong_verb_is_405(self, replica):
        url, _engine = replica
        assert request_json(url, "POST", "/health", {})[0] == 405
        assert request_json(url, "GET", "/solve")[0] == 405

    def test_invalid_parameters_are_400(self, replica):
        url, _engine = replica
        for payload in (
            {"region": REGION},                                   # missing k
            {"k": 0, "region": REGION},                           # non-positive k
            {"k": 3},                                             # missing region
            {"k": 3, "region": {"intervals": [[0.2, 0.6]]}},      # wrong arity
            {"k": 3, "region": REGION, "method": 7},              # non-string method
            {"k": 3, "region": REGION, "dataset": "ghost"},       # unknown dataset
            {"k": 2.5, "region": REGION},                         # fractional k
            {"k": True, "region": REGION},                        # boolean k
            {"k": "5", "region": REGION},                         # string k
            {"k": 5.0, "region": REGION},                         # integral float k
        ):
            status, body = request_json(url, "POST", "/solve", payload)
            assert status == 400, payload
            assert "error" in body

    @pytest.mark.parametrize("k", [2.5, True, "5", 5.0])
    def test_batch_k_must_be_a_json_integer(self, replica, k):
        url, _engine = replica
        status, body = request_json(url, "POST", "/batch", {"queries": [{"k": k, "region": REGION}]})
        assert status == 400, body
        assert "must be an integer" in body["error"]

    def test_malformed_payloads_are_400_not_500(self, replica):
        url, _engine = replica
        for region in (
            {"intervals": [1, 2]},
            {"intervals": 5},
            {"intervals": [["a", "b"], [0.1, 0.2]]},
            {"A": [["x"]], "b": [1]},
            {"A": [[1, 0]], "b": [1, 2]},
            {"intervals": [[float("nan"), 0.6], [0.1, 0.5]]},
            {"A": [[1, 0], [-1, 0], [0, 1], [0, -1]], "b": [float("inf"), 0, 0.5, 0]},
        ):
            status, body = request_json(url, "POST", "/solve", {"k": 3, "region": region})
            assert status == 400, (region, body)
        status, body = request_json(url, "POST", "/mutate", {"insert": {"values": [["a"]]}})
        assert status == 400, body

    def test_malformed_json_body_is_400(self, replica):
        import urllib.request

        url, _engine = replica
        request = urllib.request.Request(
            url + "/solve", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"})
        try:
            urllib.request.urlopen(request, timeout=10)
            raise AssertionError("expected a 400")
        except urllib.error.HTTPError as error:
            assert error.code == 400

    def test_replica_keeps_serving_after_errors(self, replica):
        url, _engine = replica
        request_json(url, "POST", "/solve", {"k": -3, "region": REGION})
        status, _body = request_json(url, "GET", "/health")
        assert status == 200


class TestConcurrency:
    def test_identical_concurrent_solves_coalesce(self, replica):
        url, _engine = replica
        fresh = {"intervals": [[0.15, 0.7], [0.05, 0.6]]}

        def fire(_):
            return request_json(url, "POST", "/solve", {"k": 4, "region": fresh})

        with ThreadPoolExecutor(8) as pool:
            responses = list(pool.map(fire, range(8)))
        assert all(status == 200 for status, _ in responses)
        payloads = {json.dumps(body["result"], sort_keys=True) for _, body in responses}
        assert len(payloads) == 1, "coalesced requests must share one answer"
        coalesced = sum(1 for _, body in responses if body["served"]["coalesced"])
        assert coalesced >= 1, "concurrent identical solves must share the solve"
        status, metrics = request_json(url, "GET", "/metrics")
        entry = metrics["datasets"]["default"]
        assert entry["n_coalesced"] == coalesced
        by_route = entry["latency_by_route"]
        assert by_route["solve.coalesced"]["count"] == coalesced
        assert sum(by_route[w]["count"] for w in ("solve.hit", "solve.miss", "solve.coalesced")) == 8

    def test_mixed_solves_and_mutations_stay_consistent(self, replica):
        url, _engine = replica

        def solve(i):
            region = {"intervals": [[0.1 + 0.01 * (i % 4), 0.6], [0.1, 0.5]]}
            return request_json(url, "POST", "/solve", {"k": 2 + i % 3, "region": region})

        def mutate(i):
            return request_json(url, "POST", "/mutate", {
                "insert": {"values": [[0.3 + 0.01 * i, 0.4, 0.5]]},
                "delete": {"positions": [0]},
            })

        with ThreadPoolExecutor(6) as pool:
            futures = [pool.submit(solve, i) for i in range(10)]
            futures += [pool.submit(mutate, i) for i in range(3)]
            statuses = [f.result()[0] for f in futures]
        assert statuses == [200] * 13
        status, health = request_json(url, "GET", "/health")
        assert status == 200 and health["status"] == "ok"


class TestWarmRestart:
    def test_restarted_replica_answers_identically_from_cache(self, tmp_path):
        dataset = generate_synthetic("IND", 80, 3, rng=7)
        queries = [{"k": 3, "region": REGION},
                   {"k": 2, "region": {"intervals": [[0.1, 0.7], [0.2, 0.6]]}}]

        engine = TopRREngine(dataset, rng=7)
        registry = EngineRegistry()
        registry.add("default", engine)
        handle = start_server_thread(registry)
        try:
            cold = [request_json(handle.url, "POST", "/solve", q)[1] for q in queries]
            snapshot = engine.save_caches(tmp_path / "caches.json")
        finally:
            handle.stop()
        assert all(body["served"]["cache_hit"] is False for body in cold)

        # "kill" the replica, boot a fresh one from the snapshot
        engine2 = TopRREngine(dataset, rng=7)
        engine2.load_caches(snapshot)
        registry2 = EngineRegistry()
        registry2.add("default", engine2)
        handle2 = start_server_thread(registry2)
        try:
            warm = [request_json(handle2.url, "POST", "/solve", q)[1] for q in queries]
        finally:
            handle2.stop()

        for cold_body, warm_body in zip(cold, warm):
            assert warm_body["served"]["cache_hit"] is True, (
                "a snapshot-restored replica must answer its recorded mix from cache"
            )
            assert warm_body["result"] == cold_body["result"], (
                "warm-restore parity must be byte-identical"
            )


class TestSchemas:
    def test_region_from_spec_rejects_malformed_specs(self):
        with pytest.raises(InvalidParameterError):
            region_from_spec("not a dict", 3)
        with pytest.raises(InvalidParameterError):
            region_from_spec({"neither": 1}, 3)
        with pytest.raises(InvalidParameterError):
            region_from_spec({"A": [[1.0]], "b": [0.5]}, 3)  # wrong width

    def test_region_from_spec_hyperrectangle_matches_direct_construction(self):
        built = region_from_spec(REGION, 3)
        direct = PreferenceRegion.hyperrectangle([(0.2, 0.6), (0.1, 0.5)])
        assert built.polytope.vertices.tobytes() == direct.polytope.vertices.tobytes()

    def test_solve_request_parse(self):
        request = SolveRequest.parse({"k": 5, "region": REGION, "method": "tas"})
        assert request.k == 5 and request.method == "tas" and request.use_cache

    def test_mutate_request_needs_a_section(self):
        with pytest.raises(InvalidParameterError):
            MutateRequest.parse({})
        with pytest.raises(InvalidParameterError):
            MutateRequest.parse({"insert": {"no_values": 1}})
        with pytest.raises(InvalidParameterError):
            MutateRequest.parse({"delete": {"option_ids": [1], "positions": [0]}})

    def test_rw_lock_prefers_writers(self):
        """Readers arriving behind a waiting writer queue after it."""

        async def scenario():
            lock = AsyncReadWriteLock()
            order = []

            async def reader(name, hold):
                async with lock.read():
                    order.append(name)
                    await asyncio.sleep(hold)

            async def writer():
                async with lock.write():
                    order.append("writer")

            first = asyncio.ensure_future(reader("r1", 0.05))
            await asyncio.sleep(0.01)           # r1 holds the read side
            write = asyncio.ensure_future(writer())
            await asyncio.sleep(0.01)           # writer now waits
            late = asyncio.ensure_future(reader("r2", 0))
            await asyncio.gather(first, write, late)
            return order

        assert asyncio.run(scenario()) == ["r1", "writer", "r2"]
