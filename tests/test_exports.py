"""Every exported name resolves, so deletions cannot leave stale exports."""

import importlib

import pytest

import casorb

MODULES = ("casorb", "casorb.cli", "casorb.compensated", "casorb.contributions",
           "casorb.quadrature", "casorb.specfun", "casorb.triangle")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_top_level_exports_are_unique():
    assert len(casorb.__all__) == len(set(casorb.__all__))
