"""Every ``__all__`` of the ``repro`` packages names a real attribute.

A deletion that leaves a stale export behind would otherwise surface only
in a user's ``from repro.ml import *``, which raises ``AttributeError``.
Each package, and each module that declares ``__all__``, is one case.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _exporting_modules():
    modules = [(repro.__name__, True)] + [
        (info.name, info.ispkg) for info in pkgutil.walk_packages(
            repro.__path__, repro.__name__ + ".")]
    return [name for name, is_package in modules
            if is_package or hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", _exporting_modules())
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    # Packages must declare their exports, so the check is never vacuous.
    assert hasattr(module, "__all__"), name
    missing = [export for export in module.__all__
               if not hasattr(module, export)]
    assert missing == []
