"""End-to-end fault-injection differential for the sharded process path.

Every test runs ``solve_toprr`` with a process-executor
:class:`~repro.core.sharded.ShardedPrefilter` under a seeded
:class:`~repro.core.faults.FaultPlan` — workers crash hard, hang past the
batch deadline, fail the shared-memory attach, or raise inside the filter
kernel — and asserts the three invariants of the ISSUE:

1. the query still completes with **byte-identical** results to the
   unsharded solver (shard tasks are pure, so every recovery rung preserves
   the exact arithmetic),
2. the supervision counters in ``SolverStats`` account for exactly what the
   schedule injected, and
3. no shared-memory segment owned by this process leaks, even when workers
   died without cleanup.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.faults import ANY_KEY, FaultPlan, FaultSpec
from repro.core.sharded import ShardedPrefilter
from repro.core.toprr import solve_toprr
from repro.data.generators import generate_anticorrelated, generate_independent
from repro.data.sharding import leaked_segments
from repro.exceptions import ShardExecutionError
from repro.preference.random_regions import random_hypercube_region

N_SHARDS = 3


def own_leaked_segments():
    """Shared-memory segments created by *this* process still on the host.

    Segment names embed the creator's pid, so filtering by it keeps the
    assertion immune to concurrent test processes (xdist workers) that are
    legitimately mid-query with live segments of their own.
    """
    prefix = f"toprr_{os.getpid():x}_"
    return [name for name in leaked_segments() if name.startswith(prefix)]


def assert_bit_identical(sharded, reference):
    """Byte-compare every output array of two TopRR results."""
    assert sharded.vertices_reduced.tobytes() == reference.vertices_reduced.tobytes()
    assert sharded.full_weights.tobytes() == reference.full_weights.tobytes()
    assert sharded.thresholds.tobytes() == reference.thresholds.tobytes()


@pytest.fixture(scope="module")
def d3_instance():
    """A d=3 instance plus its unsharded reference result."""
    dataset = generate_independent(500, 3, rng=41)
    region = random_hypercube_region(3, 0.07, rng=42)
    k = 6
    return dataset, k, region, solve_toprr(dataset, k, region)


@pytest.fixture(scope="module")
def d4_instance():
    """A d=4 instance plus its unsharded reference result."""
    dataset = generate_anticorrelated(250, 4, rng=43)
    region = random_hypercube_region(4, 0.06, rng=44)
    k = 4
    return dataset, k, region, solve_toprr(dataset, k, region)


def solve_sharded(dataset, k, region, **kwargs):
    """One ``solve_toprr`` through a one-shot process-executor :class:`ShardedPrefilter`."""
    with ShardedPrefilter(N_SHARDS, executor="process", **kwargs) as shards:
        return solve_toprr(dataset, k, region, prefilter=shards)


def _solve_under(plan, instance, **kwargs):
    dataset, k, region, reference = instance
    with plan.installed():
        sharded = solve_sharded(dataset, k, region, **kwargs)
    assert_bit_identical(sharded, reference)
    assert own_leaked_segments() == []
    return sharded


class TestCrashRecovery:
    def test_d3_worker_crash_once(self, d3_instance, tmp_path):
        plan = FaultPlan(
            specs=[FaultSpec(point="task", key=1, kind="crash", times=1)],
            state_dir=str(tmp_path),
        )
        sharded = _solve_under(plan, d3_instance, retries=2)
        assert plan.fired(0) == 1
        stats = sharded.stats
        assert stats.n_worker_crashes == 1
        assert stats.n_pool_rebuilds == 1
        assert stats.n_retries >= 1
        assert stats.n_degraded_shards == 0
        assert not stats.degraded
        assert stats.extra["resilience_events"]

    def test_d4_worker_crash_once(self, d4_instance, tmp_path):
        plan = FaultPlan(
            specs=[FaultSpec(point="task", key=0, kind="crash", times=1)],
            state_dir=str(tmp_path),
        )
        sharded = _solve_under(plan, d4_instance, retries=2)
        assert plan.fired(0) == 1
        assert sharded.stats.n_worker_crashes == 1
        assert sharded.stats.n_pool_rebuilds == 1
        assert not sharded.stats.degraded


class TestKernelAndAttachFaults:
    def test_d3_kernel_raise_once(self, d3_instance, tmp_path):
        plan = FaultPlan(
            specs=[FaultSpec(point="kernel", key=ANY_KEY, kind="raise", times=1)],
            state_dir=str(tmp_path),
        )
        sharded = _solve_under(plan, d3_instance, retries=2)
        assert plan.fired(0) == 1
        stats = sharded.stats
        assert stats.n_retries == 1
        assert stats.n_worker_crashes == 0
        assert stats.n_pool_rebuilds == 0
        assert not stats.degraded

    def test_d3_attach_failure_once(self, d3_instance, tmp_path):
        plan = FaultPlan(
            specs=[FaultSpec(point="attach", key=2, kind="raise", times=1)],
            state_dir=str(tmp_path),
        )
        sharded = _solve_under(plan, d3_instance, retries=1)
        assert plan.fired(0) == 1
        assert sharded.stats.n_retries == 1
        assert not sharded.stats.degraded

    def test_d4_kernel_raise_once(self, d4_instance, tmp_path):
        plan = FaultPlan(
            specs=[FaultSpec(point="kernel", key=1, kind="raise", times=1)],
            state_dir=str(tmp_path),
        )
        sharded = _solve_under(plan, d4_instance, retries=2)
        assert sharded.stats.n_retries == 1
        assert not sharded.stats.degraded


class TestHangRecovery:
    def test_d3_hung_worker_times_out(self, d3_instance, tmp_path):
        plan = FaultPlan(
            specs=[FaultSpec(point="task", key=0, kind="hang", times=1, hang_seconds=30.0)],
            state_dir=str(tmp_path),
        )
        sharded = _solve_under(plan, d3_instance, timeout=1.0, retries=2)
        assert plan.fired(0) == 1
        stats = sharded.stats
        assert stats.n_retries >= 1
        assert stats.n_pool_rebuilds >= 1
        assert not stats.degraded


class TestSerialDegradation:
    def test_d3_persistent_raises_degrade_every_shard(self, d3_instance, tmp_path):
        # Every pool attempt of every shard raises; the coordinator runs the
        # shard kernels in-process instead (fault-free by design) and the
        # result is still byte-identical.
        plan = FaultPlan(
            specs=[FaultSpec(point="kernel", key=ANY_KEY, kind="raise", times=100)],
            state_dir=str(tmp_path),
        )
        sharded = _solve_under(plan, d3_instance, retries=1)
        stats = sharded.stats
        assert stats.degraded
        assert stats.n_degraded_shards == N_SHARDS
        assert stats.n_retries >= N_SHARDS

    def test_d3_no_fallback_raises(self, d3_instance, tmp_path):
        dataset, k, region, _reference = d3_instance
        plan = FaultPlan(
            specs=[FaultSpec(point="kernel", key=ANY_KEY, kind="raise", times=100)],
            state_dir=str(tmp_path),
        )
        with plan.installed():
            with pytest.raises(ShardExecutionError):
                solve_sharded(dataset, k, region, retries=1, fallback=False)
        # The failed query's shared score matrix must still be unlinked.
        assert own_leaked_segments() == []


class TestHealthySchedules:
    def test_d3_empty_plan_is_invisible(self, d3_instance, tmp_path):
        plan = FaultPlan(specs=[], state_dir=str(tmp_path))
        sharded = _solve_under(plan, d3_instance)
        stats = sharded.stats
        assert stats.n_retries == 0
        assert stats.n_worker_crashes == 0
        assert stats.n_pool_rebuilds == 0
        assert stats.n_degraded_shards == 0
        assert not stats.degraded
        assert "resilience_events" not in stats.extra

    def test_schedule_is_deterministic_across_runs(self, d3_instance, tmp_path):
        dataset, k, region, _ = d3_instance
        runs = []
        for attempt in range(2):
            plan = FaultPlan(
                specs=[FaultSpec(point="kernel", key=1, kind="raise", times=1)],
                state_dir=str(tmp_path / f"run{attempt}"),
            )
            os.makedirs(plan.state_dir, exist_ok=True)
            with plan.installed():
                result = solve_sharded(dataset, k, region, retries=2)
            runs.append(result)
            assert plan.fired(0) == 1
        first, second = runs
        assert first.stats.n_retries == second.stats.n_retries == 1
        assert np.array_equal(first.vertices_reduced, second.vertices_reduced)
        assert own_leaked_segments() == []
