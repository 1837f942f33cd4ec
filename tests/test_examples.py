"""Every example script and benchmark module still imports against the current API.

Running the examples is too slow for the unit suite (minutes for the
enhancement walkthroughs), so each one is executed as a module under a
``run_name`` other than ``"__main__"``: its imports and top-level
definitions run, its ``main()`` does not.  A deleted or renamed name an
example relies on then fails here.

The ``benchmarks/bench_*.py`` modules get the same import check (the
benchmark lanes name them one file at a time, so nothing else imports every
one of them); each must define at least one ``test_*`` function for pytest
to run when the file is named.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("bench_*.py"))


def test_examples_found():
    assert EXAMPLES
    assert BENCHMARKS


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example_import_check")
    assert callable(namespace.get("main"))


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda path: path.stem)
def test_benchmark_imports(path):
    namespace = runpy.run_path(str(path), run_name="benchmark_import_check")
    assert any(name.startswith("test_") and callable(value) for name, value in namespace.items())
