"""Input-validation helpers shared by the public API."""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise InvalidParameterError(f"{name} must be positive, got {value}")
    return int(value)
