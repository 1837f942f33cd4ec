"""Pytest bootstrap: make ``src/`` importable without requiring installation.

The package is normally installed with ``pip install -e .``; this fallback
keeps the test and benchmark suites runnable in minimal offline environments
(no ``wheel`` package available for editable installs).

Also registers the ``slow`` marker: the handful of long-running
parity/experiment tests (the Table 7 elongation sweep among them) carry
it so CI can run ``-m "not slow"`` and ``-m slow`` as two parallel jobs
(both with ``pytest-xdist -n auto``) without losing coverage.  A plain
``pytest -x -q`` still runs everything.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    """Register project markers (no pytest.ini / pyproject table exists)."""
    config.addinivalue_line(
        "markers",
        "slow: long-running parity/experiment tests, run in a separate CI job",
    )
    config.addinivalue_line(
        "markers",
        "mutation: mutation-differential fuzz harness, run in the CI "
        "mutation-fuzz lane (fast/slow lanes exclude it)",
    )
