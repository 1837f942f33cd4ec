"""Every example script still imports against the current public API.

Running the examples is too slow for the unit suite (minutes for the
enhancement walkthroughs), so each one is executed as a module under a
``run_name`` other than ``"__main__"``: its imports and top-level
definitions run, its ``main()`` does not.  A deleted or renamed name an
example relies on then fails here.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example_import_check")
    assert callable(namespace.get("main"))
