"""Thread-locality of the geometry counters.

:data:`repro.geometry.counters.geometry_counters` is ``threading.local`` so
that concurrent solves — the HTTP server runs :meth:`TopRREngine.query` on a
thread pool — each observe their own deltas.  These tests pin down the two
guarantees that depend on it:

* counters incremented inside worker threads must **not** leak into the
  caller's thread (or into a caller-side :class:`SolverStats`), and
* the per-query ``SolverStats`` recorded on a worker thread must equal the
  stats of the same query solved serially — i.e. no cross-thread
  contamination in either direction.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data.generators import generate_anticorrelated
from repro.engine import TopRREngine
from repro.geometry.counters import geometry_counters
from repro.preference.region import PreferenceRegion


def test_raw_counters_are_thread_local():
    geometry_counters.reset()
    observed = {}

    def worker(name: int, increments: int) -> None:
        geometry_counters.reset()
        for _ in range(increments):
            geometry_counters.n_clip_calls += 1
            geometry_counters.n_lp_calls += 2
        observed[name] = geometry_counters.snapshot()

    threads = [threading.Thread(target=worker, args=(i, 5 * (i + 1))) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for i in range(4):
        assert observed[i].n_clip_calls == 5 * (i + 1)
        assert observed[i].n_lp_calls == 10 * (i + 1)
    # Nothing leaked into the caller's thread.
    caller = geometry_counters.snapshot()
    assert caller == (0, 0, 0, 0)


def _regions(d: int):
    """Four distinct, small query regions for a ``d``-attribute dataset.

    The regions shrink with the dimension: anti-correlated ``d = 4``
    instances split aggressively, and this test is about counter
    attribution, not solver throughput.
    """
    width = 0.07 if d == 3 else 0.02
    return [
        PreferenceRegion.hyperrectangle(
            [(0.2 + 0.02 * i, 0.2 + width + 0.02 * i)] * (d - 1)
        )
        for i in range(4)
    ]


@pytest.mark.parametrize("d", [3, 4])
def test_concurrent_query_counters_do_not_leak(d):
    dataset = generate_anticorrelated(300, d, rng=5)

    serial_engine = TopRREngine(dataset)
    serial = [serial_engine.query(4, region, use_cache=False) for region in _regions(d)]

    # One engine shared by a plain thread pool, the way ToprrServer runs solves.
    geometry_counters.reset()
    thread_engine = TopRREngine(dataset)
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(thread_engine.query, 4, region, use_cache=False)
            for region in _regions(d)
        ]
        threaded = [future.result() for future in futures]

    # The workers' geometry activity must not appear on the caller's thread.
    caller = geometry_counters.snapshot()
    assert caller == (0, 0, 0, 0)

    # ... and each worker's SolverStats must match the serial solve of the
    # same query exactly: no counts missing, none inherited from siblings.
    for serial_result, threaded_result in zip(serial, threaded):
        assert threaded_result.stats.n_clip_calls == serial_result.stats.n_clip_calls
        assert threaded_result.stats.n_lp_calls == serial_result.stats.n_lp_calls
        assert threaded_result.stats.n_qhull_calls == serial_result.stats.n_qhull_calls
        assert threaded_result.stats.n_regions_tested == serial_result.stats.n_regions_tested
        # Closed-form backends on both thread kinds: zero LP / qhull.
        assert threaded_result.stats.n_lp_calls == 0
        assert threaded_result.stats.n_qhull_calls == 0
    # The batch must not be vacuous: at least one query actually split (and
    # therefore clipped) inside a worker thread.
    assert sum(result.stats.n_clip_calls for result in threaded) > 0
