"""Mutation-differential oracle harness: mutate, query, byte-compare.

The incremental cache maintenance of ``apply_delta`` is only allowed to keep
a cached entry when the entry is *provably* byte-identical to what a fresh
engine would compute on the mutated dataset (the eviction-soundness lemma in
:mod:`repro.core.mutation`).  A stale survivor is a silently wrong answer,
so this harness fuzzes the contract end to end: seeded random
insert/delete/query schedules where, after every mutation, every query
answered by the long-lived engine is byte-compared — ``V_all``, lifted
weights, thresholds, output polytope, r-skyband ids and values — against a
from-scratch engine built directly on the mutated dataset.  No schedule may
demote a closed-form geometry body to LP/qhull: the geometry counters must
report zero backend fallbacks, answers and oracles included.

200 schedules per dimension (d=3 and d=4, chunked for ``pytest-xdist``),
plus two size edges the random schedules never reach: deleting down to 3
options and growing the dataset fivefold in one insert.

The module carries the ``mutation`` marker: CI runs it in the dedicated
``mutation-fuzz`` lane while the fast/slow lanes exclude it (a plain
``pytest -x -q`` still runs everything).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generators import generate_anticorrelated, generate_independent
from repro.engine import TopRREngine
from repro.geometry.counters import geometry_counters
from repro.preference.random_regions import random_hypercube_region

pytestmark = pytest.mark.mutation

#: Schedules per dimension demanded by the acceptance criteria.
N_SCHEDULES = 200


def assert_bit_identical(result, oracle, context=""):
    """Byte-compare every output array of a TopRR result against the oracle."""
    assert result.vertices_reduced.tobytes() == oracle.vertices_reduced.tobytes(), context
    assert result.full_weights.tobytes() == oracle.full_weights.tobytes(), context
    assert result.thresholds.tobytes() == oracle.thresholds.tobytes(), context
    assert np.array_equal(result.polytope.vertices, oracle.polytope.vertices), context
    assert result.filtered.option_ids == oracle.filtered.option_ids, context
    assert result.filtered.values.tobytes() == oracle.filtered.values.tobytes(), context


def mutate_once(rng, dataset, d, max_insert=6, max_delete=4):
    """One random insert *or* delete step; returns ``(mutated, delta)``."""
    can_delete = dataset.n_options > 12
    if can_delete and rng.random() < 0.45:
        count = int(rng.integers(1, max_delete + 1))
        victims = rng.choice(dataset.option_ids, size=count, replace=False).tolist()
        return dataset.delete_options(option_ids=victims)
    count = int(rng.integers(1, max_insert + 1))
    # A mix of bulk-interior points (usually refused admission) and
    # near-corner points (likely to enter bands and force evictions), so
    # both maintenance verdicts are exercised.
    values = rng.random((count, d))
    sharp = rng.random(count) < 0.25
    values[sharp] = 0.85 + 0.15 * rng.random((int(sharp.sum()), d))
    return dataset.insert_options(values)


def run_schedule(seed, d, n0, max_k, engine_factory, n_events=3, queries_per_event=2):
    """One seeded insert/delete/query schedule against a long-lived engine.

    After every mutation the engine answers ``queries_per_event`` queries,
    each byte-compared against a fresh :class:`TopRREngine` built on the
    mutated dataset (the oracle never sees any maintained state).
    """
    before = geometry_counters.snapshot()
    rng = np.random.default_rng(seed)
    generate = generate_independent if d == 3 else generate_anticorrelated
    dataset = generate(n0, d, rng=int(rng.integers(0, 2**31)))
    regions = [
        random_hypercube_region(d, 0.07, rng=int(rng.integers(0, 2**31)))
        for _ in range(3)
    ]
    ks = sorted({int(rng.integers(2, max_k + 1)) for _ in range(2)})
    engine = engine_factory(dataset)

    # Warm the caches so the mutations actually have entries to maintain.
    for region in regions:
        for k in ks:
            engine.query(k, region)

    current = dataset
    for event in range(n_events):
        current, delta = mutate_once(rng, current, d)
        engine.apply_delta(current, delta)
        oracle_engine = TopRREngine(current, rng=0)
        for _ in range(queries_per_event):
            region = regions[int(rng.integers(0, len(regions)))]
            k = ks[int(rng.integers(0, len(ks)))]
            result = engine.query(k, region)
            oracle = oracle_engine.query(k, region)
            context = f"seed={seed} d={d} event={event} k={k}"
            assert_bit_identical(result, oracle, context=context)
            assert result.dataset is current
    assert geometry_counters.delta(before).n_backend_fallbacks == 0, f"seed={seed} d={d}"
    return engine


class TestUnshardedSchedules:
    """200 seeded schedules per dimension against :class:`TopRREngine`."""

    @pytest.mark.parametrize("chunk", range(20))
    def test_fuzz_d3(self, chunk):
        per_chunk = N_SCHEDULES // 20
        for i in range(per_chunk):
            seed = 10_000 + chunk * per_chunk + i
            run_schedule(seed, d=3, n0=60 + 10 * (seed % 7), max_k=5,
                         engine_factory=lambda ds: TopRREngine(ds, rng=0))

    @pytest.mark.parametrize("chunk", range(25))
    def test_fuzz_d4(self, chunk):
        per_chunk = N_SCHEDULES // 25
        for i in range(per_chunk):
            seed = 50_000 + chunk * per_chunk + i
            run_schedule(seed, d=4, n0=30 + 5 * (seed % 5), max_k=3,
                         engine_factory=lambda ds: TopRREngine(ds, rng=0),
                         queries_per_event=1)


class TestDatasetSizeEdges:
    def test_delete_down_to_three_options(self):
        """Deleting in chunks of up to 8 until 3 options remain."""
        dataset = generate_independent(40, 3, rng=11)
        region = random_hypercube_region(3, 0.08, rng=12)
        engine = TopRREngine(dataset, rng=0)
        engine.query(3, region)
        current = dataset
        while current.n_options > 3:
            count = min(8, current.n_options - 3)
            current, delta = current.delete_options(
                positions=list(range(current.n_options - count, current.n_options))
            )
            engine.apply_delta(current, delta)
            result = engine.query(2, region)
            oracle = TopRREngine(current, rng=0).query(2, region)
            assert_bit_identical(result, oracle, context=f"n={current.n_options}")
        assert current.n_options == 3

    def test_insert_grows_dataset_fivefold(self):
        """One insert of 80 options into a dataset of 20."""
        dataset = generate_independent(20, 3, rng=21)
        region = random_hypercube_region(3, 0.08, rng=22)
        rng = np.random.default_rng(23)
        engine = TopRREngine(dataset, rng=0)
        engine.query(3, region)
        # Every cached row position refers to the 20-option dataset, so a
        # stale position map would slice garbage.
        current, delta = dataset.insert_options(rng.random((80, 3)))
        engine.apply_delta(current, delta)
        result = engine.query(3, region)
        oracle = TopRREngine(current, rng=0).query(3, region)
        assert_bit_identical(result, oracle)
