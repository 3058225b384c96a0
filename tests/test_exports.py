"""Every name that the package and its modules export resolves, once.

A name deleted from a module but left in an __all__ would break
`from stlattice import *` and `from stlattice.<module> import *`.
"""

import importlib
import pkgutil

import pytest

import stlattice

MODULES = ["stlattice"] + [
    f"stlattice.{m}" for m in ("algebra", "cli", "codebook", "decodability", "lattice", "simulate")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_every_submodule_is_checked():
    found = {f"stlattice.{m.name}" for m in pkgutil.iter_modules(stlattice.__path__)}
    assert found == set(MODULES[1:])
