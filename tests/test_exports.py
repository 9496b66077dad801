"""Every exported name resolves, and none is exported twice: a deleted or
renamed function must leave no stale entry in an ``__all__``.  Only the
mesh module reads a mesh's internal fields."""
import importlib
import pkgutil
import re
from pathlib import Path

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



def test_only_the_mesh_module_reads_the_mesh_internals():
    """The line runs, positions and tiling array are ``mesh.py``'s own
    format; every other module reads them through ``Mesh`` methods."""
    internals = re.compile(r"\._(runs|positions|elements)\b")
    readers = {
        f"{path.name}:{n}"
        for path in sorted(Path(lrbsplines.__file__).parent.glob("*.py"))
        if path.name != "mesh.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if internals.search(line)
    }
    assert readers == set()
