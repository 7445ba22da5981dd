"""Public surface: every module star-imports and every package export resolves."""

import pytest

import lohesphere

MODULES = (
    "lohesphere",
    "lohesphere.cli",
    "lohesphere.dynamics",
    "lohesphere.experiments",
    "lohesphere.geometry",
    "lohesphere.integrators",
    "lohesphere.observables",
    "lohesphere.sampling",
    "lohesphere.transport",
)


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # an __all__ entry left behind by a deletion breaks only star-import
    exec(f"from {module} import *", {})


def test_package_exports_resolve():
    missing = [name for name in lohesphere.__all__ if not hasattr(lohesphere, name)]
    assert missing == []
