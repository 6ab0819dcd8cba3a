"""Every name a parsched module exports exists, once."""

import importlib
import pkgutil

import pytest

import parsched

MODULES = ["parsched"] + [f"parsched.{info.name}" for info in pkgutil.iter_modules(parsched.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(exported)
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == []
    exec(f"from {name} import *", {})
