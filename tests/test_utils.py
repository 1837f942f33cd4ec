"""Unit tests for the utility layer (tolerance, timer, rng, validation)."""

import time

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer
from repro.utils.tolerance import DEFAULT_TOL, Tolerance
from repro.utils.validation import check_positive_int


class TestTolerance:
    def test_default_is_shared_instance(self):
        assert isinstance(DEFAULT_TOL, Tolerance)

    def test_is_zero_within_geometry_tolerance(self):
        assert DEFAULT_TOL.is_zero(0.0)
        assert DEFAULT_TOL.is_zero(DEFAULT_TOL.geometry / 2)
        assert not DEFAULT_TOL.is_zero(1e-3)

    def test_custom_tolerance_is_frozen(self):
        tol = Tolerance(geometry=1e-6)
        with pytest.raises(Exception):
            tol.geometry = 1e-3  # type: ignore[misc]


class TestTimer:
    def test_context_manager_measures_elapsed_time(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_elapsed_while_running(self):
        timer = Timer().start()
        assert timer.elapsed >= 0.0
        timer.stop()


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_is_deterministic(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_generator_passes_through(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestValidation:
    def test_check_positive_int(self):
        assert check_positive_int(5, "k") == 5
        with pytest.raises(InvalidParameterError):
            check_positive_int(0, "k")
        with pytest.raises(InvalidParameterError):
            check_positive_int(2.5, "k")  # type: ignore[arg-type]
        with pytest.raises(InvalidParameterError):
            check_positive_int(True, "k")  # type: ignore[arg-type]
