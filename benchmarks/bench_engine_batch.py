"""Engine-cached batch queries versus per-call ``solve_toprr``.

The scenario the :class:`repro.engine.TopRREngine` exists for: one dataset,
a session of many related queries (an analyst revisiting a handful of
``(k, region)`` combinations, a serving layer with a skewed query mix).  The
benchmark issues the same 50-query batch — ``N_DISTINCT`` distinct pairs
cycled round-robin — twice:

* sequentially, one :func:`repro.core.toprr.solve_toprr` call per query
  (every call re-filters and re-solves from scratch), and
* through one engine with its r-skyband and result caches enabled.

The acceptance bar of the refactor is a >= 3x end-to-end speedup for the
engine path; on a warm cache the repeated queries are LRU lookups, so the
observed factor is usually close to the repeat rate (5x here).

Run directly (``PYTHONPATH=src python benchmarks/bench_engine_batch.py``) or via pytest.
"""

import time

import numpy as np

from repro.core.toprr import solve_toprr
from repro.data.generators import generate_independent
from repro.engine import TopRREngine
from repro.preference.random_regions import random_hypercube_region

N_QUERIES = 50
N_DISTINCT = 10
N_OPTIONS = 4_000
N_ATTRIBUTES = 3
K_MAX = 8
SIGMA = 0.05
SEED = 29
#: Acceptance bar: engine-served batch must be at least this much faster.
MIN_SPEEDUP = 3.0


def build_session():
    """The dataset and the 50-query mix (10 distinct pairs, cycled)."""
    dataset = generate_independent(N_OPTIONS, N_ATTRIBUTES, rng=SEED)
    distinct = [
        (
            1 + (SEED + i) % K_MAX,
            random_hypercube_region(N_ATTRIBUTES, SIGMA, rng=SEED + 1 + i),
        )
        for i in range(N_DISTINCT)
    ]
    queries = [distinct[i % N_DISTINCT] for i in range(N_QUERIES)]
    return dataset, queries


def run_comparison():
    """Time both paths; returns (sequential_s, engine_s, results_seq, results_eng)."""
    dataset, queries = build_session()

    start = time.perf_counter()
    sequential = [solve_toprr(dataset, k, region) for k, region in queries]
    sequential_seconds = time.perf_counter() - start

    engine = TopRREngine(dataset)
    start = time.perf_counter()
    served = engine.query_batch(queries)
    engine_seconds = time.perf_counter() - start

    return sequential_seconds, engine_seconds, sequential, served, engine


def test_engine_batch_speedup_and_parity():
    sequential_seconds, engine_seconds, sequential, served, engine = run_comparison()
    speedup = sequential_seconds / max(engine_seconds, 1e-9)
    info = engine.cache_info()
    print(
        f"\n{N_QUERIES} queries ({N_DISTINCT} distinct): "
        f"sequential {sequential_seconds:.2f}s, engine {engine_seconds:.2f}s, "
        f"speedup {speedup:.1f}x"
    )
    print(f"result cache: {info['results']}")
    print(f"r-skyband cache: {info['skyband']}")

    # Same answers, query by query.
    probes = np.random.default_rng(0).random((200, N_ATTRIBUTES))
    for reference, result in zip(sequential, served):
        assert result.n_vertices == reference.n_vertices
        assert np.array_equal(result.contains_many(probes), reference.contains_many(probes))

    assert info["results"]["hits"] == N_QUERIES - N_DISTINCT
    assert speedup >= MIN_SPEEDUP, (
        f"engine batch only {speedup:.2f}x faster than sequential solve_toprr "
        f"(required {MIN_SPEEDUP}x)"
    )


if __name__ == "__main__":
    test_engine_batch_speedup_and_parity()
