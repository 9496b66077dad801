"""Every exported name resolves, none is exported twice, and each is
referenced: a deleted or renamed function must leave no stale entry in an
``__all__``, and a function nothing reads must not stay exported.  Only
the mesh module reads a mesh's internal fields."""
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


def test_every_export_is_referenced():
    """Each name the package exports is read somewhere in the package or
    the tests, besides its own definition and export lines: an export
    nothing reads is dead code."""
    package = Path(lrbsplines.__file__).parent
    sources = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted(Path(__file__).parent.glob("*.py"))
    lines = [line for path in sources for line in path.read_text().splitlines()]
    unread = []
    for name in lrbsplines.__all__:
        if name == "__version__":
            continue
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf'^\s*(def|class)\s+{name}\b|^{name}\s*[:=]|^\s*"{name}",?\s*$')
        if not any(word.search(line) and not own.search(line) for line in lines):
            unread.append(name)
    assert unread == []


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
