"""Regression tests for the shared-memory segment lifecycle guards.

The no-leak invariant: after any sharded run — healthy, crashing, or
abandoned mid-query — no ``toprr_*`` segment created by the coordinator
survives on the host.  These tests pin every rung of the guard stack:
idempotent ``close``/``unlink``, the context-manager error path, the
``weakref`` finalizer on dropped references, the ``atexit`` hook on
interpreters that never clean up, and the end-to-end crashed-worker run.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.faults import FaultPlan, FaultSpec
from repro.core.sharded import ShardedPrefilter
from repro.core.toprr import solve_toprr
from repro.data.generators import generate_independent
from repro.data.sharding import (
    SEGMENT_PREFIX,
    SharedMatrix,
    attach_shared_matrix,
    leaked_segments,
)
from repro.preference.random_regions import random_hypercube_region


def own_leaked_segments():
    """This process's segments still present under ``/dev/shm``."""
    prefix = f"{SEGMENT_PREFIX}{os.getpid():x}_"
    return [name for name in leaked_segments() if name.startswith(prefix)]


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


class TestIdempotentCleanup:
    def test_unlink_is_idempotent(self):
        shared = SharedMatrix.create_from(np.ones((4, 3)))
        name = shared.name
        assert _segment_exists(name)
        shared.unlink()
        assert not _segment_exists(name)
        shared.unlink()  # second unlink must be a no-op, not an error
        shared.close()  # and close after unlink likewise

    def test_close_then_unlink(self):
        shared = SharedMatrix.create_from(np.ones((2, 2)))
        name = shared.name
        shared.close()
        shared.close()
        assert _segment_exists(name)  # close releases the mapping only
        shared.unlink()
        assert not _segment_exists(name)

    def test_context_manager_unlinks_on_error(self):
        name = None
        with pytest.raises(RuntimeError):
            with SharedMatrix.create_from(np.zeros((3, 3))) as shared:
                name = shared.name
                assert _segment_exists(name)
                raise RuntimeError("query failed mid-flight")
        assert not _segment_exists(name)

    def test_attached_copy_never_unlinks(self):
        with SharedMatrix.create_from(np.arange(6.0).reshape(2, 3)) as shared:
            attached = attach_shared_matrix(shared.spec)
            assert np.array_equal(attached.array, shared.array)
            attached.unlink()  # non-owner: releases its mapping only
            assert _segment_exists(shared.name)


class TestUnattendedCleanup:
    def test_finalizer_releases_dropped_reference(self):
        shared = SharedMatrix.create_from(np.ones((8, 2)))
        name = shared.name
        del shared
        gc.collect()
        assert not _segment_exists(name)

    def test_atexit_releases_on_interpreter_exit(self, tmp_path):
        # A child interpreter creates an owned segment and exits *without*
        # unlinking; the module's atexit hook must still reclaim it.
        script = (
            "import sys, numpy as np\n"
            "from repro.data.sharding import SharedMatrix\n"
            "shared = SharedMatrix.create_from(np.ones((16, 4)))\n"
            "print(shared.name)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            check=True,
        )
        name = result.stdout.strip().splitlines()[-1]
        assert name.startswith(SEGMENT_PREFIX)
        assert not _segment_exists(name)


class TestEndToEndNoLeaks:
    def test_no_orphans_after_crashed_worker_run(self, tmp_path):
        # The original leak: a worker crashed hard while attached, the query
        # aborted, and the coordinator's segment survived in /dev/shm.  The
        # supervised path must finish the query and reclaim the segment.
        dataset = generate_independent(400, 3, rng=51)
        region = random_hypercube_region(3, 0.07, rng=52)
        plan = FaultPlan(
            specs=[FaultSpec(point="kernel", key=0, kind="crash", times=1)],
            state_dir=str(tmp_path),
        )
        before = own_leaked_segments()
        with plan.installed():
            with ShardedPrefilter(3, executor="process", retries=2) as shards:
                result = solve_toprr(dataset, 5, region, prefilter=shards)
        assert result.stats.n_worker_crashes == 1
        assert own_leaked_segments() == before == []
