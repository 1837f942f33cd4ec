"""Every name a package exports through ``__all__`` resolves.

A deleted function whose name stays in its package's ``__all__`` breaks
``from repro.x import *`` and any caller that imports the name; this catches
such a stale export in ``repro`` and in every subpackage that has one.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.") if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", None)
    if exported is None:
        pytest.skip(f"{name} defines no __all__")
    missing = [attribute for attribute in exported if not hasattr(package, attribute)]
    assert missing == []
    assert len(set(exported)) == len(exported)


def test_every_subpackage_is_checked():
    assert {"repro.core", "repro.geometry", "repro.pruning", "repro.topk"} <= set(PACKAGES)
