"""Every exported name resolves, and none is exported twice: a deleted or
renamed function must leave no stale entry in an ``__all__``."""
import importlib
import pkgutil

import pytest

import lrbsplines

MODULES = [lrbsplines] + [
    importlib.import_module(f"lrbsplines.{info.name}")
    for info in pkgutil.iter_modules(lrbsplines.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []

