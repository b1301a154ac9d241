"""Public names: every ``__all__`` entry of every disqo module resolves, and a
star import of each module works and binds exactly those names."""

import importlib
import pkgutil

import pytest

import disqo

MODULES = ["disqo", *(f"disqo.{m.name}" for m in pkgutil.iter_modules(disqo.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is not None:
        assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
        missing = [entry for entry in exported if not hasattr(module, entry)]
        assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    if exported is not None:
        assert set(namespace) - {"__builtins__"} == set(exported)
