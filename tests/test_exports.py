"""Every exported name resolves, none is exported twice, and each is
read by the package or the benchmark, or kept as documented README API:
a deleted or renamed function must leave no stale entry in an
``__all__`` or a docstring reference, and a function only the tests
call must not stay exported.  The package exports exactly its
modules' ``__all__``s, and no module imports a name it never reads.
Only the mesh module reads a mesh's internal fields, and only the space
module a refinement state's rows and the chunk size; assembly reaches
the B-spline kernel only through the space module."""
import ast
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


PACKAGE = Path(lrbsplines.__file__).parent

# The benchmark's workload bodies, which call the package as a user does.
WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"

# Exports that neither the package nor the benchmark reads, each kept
# because the README documents it as API.  The oracles the tests check
# batched or array paths against live in ``tests/conftest.py``.
KEPT_EXPORTS = {
    "univariate_derivatives": "README API: a one-window call of the Cox--de Boor kernel",
    "evaluate": "README API: a per-function call on keys",
    "insert_knot": "README API: a per-function call on keys",
    "has_support_on": "README API: a per-function call on keys",
    "apply_split": "README API: insert one line segment",
    "insert_split": "README API: insert one split into a mesh, returning a new mesh",
    "is_nested_meshwise": "README API: the mesh-oriented nestedness test verify cross-checks",
    "one_directional_expansion": "README API: a refinement call",
    "tensor_expansion": "README API: a refinement call",
    "error_norms": "README API: the Poisson solver's error report",
}

# The README, which documents each kept export.
README = Path(__file__).parent.parent / "README.md"

# A Sphinx cross-reference in a docstring, e.g. :func:`~lrbsplines.space._sampled`.
REFERENCE = re.compile(r":(?:func|meth|class|data):`~?([\w.]+)`")

# The modules in the order the package re-exports them.
REEXPORTED = ["dyadic", "mesh", "bspline", "space", "refine", "quasi", "poisson", "formats", "cli"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


def test_every_export_is_referenced():
    """Each name the package exports is read by the code of the package
    or of the benchmark's workloads, as a name or an attribute (not in a
    docstring, comment or ``__all__``, nor by its own top-level
    definition, as a recursive call is), or is kept in
    :data:`KEPT_EXPORTS` with its reason, and no kept name is read: an
    export only the tests call is dead code, or belongs in the tests."""
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    read = set()
    for path in sources + [WORKLOADS]:
        for definition in ast.parse(path.read_text()).body:
            own = getattr(definition, "name", None)
            for node in ast.walk(definition):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    unread = {name for name in lrbsplines.__all__ if name not in read} - {"__version__"}
    assert sorted(unread - KEPT_EXPORTS.keys()) == []
    assert sorted(KEPT_EXPORTS.keys() - unread) == []


def test_every_kept_export_is_readme_api():
    """An export kept without a reader is kept as documented API, and the
    README names it in backticks; test oracles live in the tests."""
    readme = README.read_text()
    assert sorted(n for n, why in KEPT_EXPORTS.items() if not why.startswith("README API")) == []
    assert sorted(n for n in KEPT_EXPORTS if not re.search(rf"`{n}[`(]", readme)) == []


def _resolves(path: str, module) -> bool:
    """Whether the dotted ``path`` names an object: from the package root
    when it starts with ``lrbsplines.``, else from ``module``, any module
    of the package, or a class ``module`` defines (a method its own
    docstrings cite by name)."""
    parts = path.split(".")
    if parts[0] == "lrbsplines":
        starts, parts = [importlib.import_module(".".join(parts[:2]))], parts[2:]
    else:
        own = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
        starts = [module] + MODULES + own
    for obj in starts:
        for part in parts:
            if not hasattr(obj, part):
                break
            obj = getattr(obj, part)
        else:
            return True
    return False


def test_docstring_references_name_definitions():
    """Every ``:func:``, ``:meth:``, ``:class:`` and ``:data:`` reference
    in the package's source names something the package defines, so a
    deleted or moved function leaves no reference behind."""
    stale = [
        f"{path.name}:{n}: {target}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for target in REFERENCE.findall(line)
        if not _resolves(target, importlib.import_module(f"lrbsplines.{path.stem}"))
    ]
    assert stale == []


def test_only_the_mesh_module_reads_the_mesh_internals():
    """The line runs, positions and tiling array are ``mesh.py``'s own
    format; every other module reads them through ``Mesh`` methods."""
    internals = re.compile(r"\._(runs|positions|elements)\b")
    readers = {
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "mesh.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if internals.search(line)
    }
    assert readers == set()


def test_only_the_space_module_knows_the_chunk_size():
    """The bound on a batched loop's temporaries is one policy: every
    other module slices its loops through ``space._chunks``."""
    readers = {
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "space.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "_CHUNK_ENTRIES" in line
    }
    assert readers == set()


def test_package_exports_exactly_its_modules_names():
    """A public name is declared once, in its module's ``__all__``; the
    package's ``__all__`` is their concatenation and holds no list of its
    own."""
    modules = [importlib.import_module(f"lrbsplines.{name}") for name in REEXPORTED]
    expected = [name for module in modules for name in module.__all__] + ["__version__"]
    assert lrbsplines.__all__ == expected
    assert lrbsplines.dyadic(3, 1) == 1.5  # the function, not the module
    exported = set(lrbsplines.__all__) - {"__version__"}
    literals = {
        node.value
        for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert literals & exported == set()


def test_no_module_imports_a_name_it_never_reads():
    """Stands in for a linter's unused-import check.  A name counts as
    read where it appears as a ``Name`` node (which covers the root of an
    attribute chain) or as a string in ``__all__``.  The package's star
    imports are its re-export, so ``__init__.py`` is not scanned."""
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources += sorted(Path(__file__).parent.glob("*.py"))
    unread = []
    for path in sources:
        imported, read = set(), set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                read.update(
                    item.value
                    for item in ast.walk(node.value)
                    if isinstance(item, ast.Constant) and isinstance(item.value, str)
                )
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unread == []


def test_assembly_evaluates_b_splines_only_through_the_pair_tables():
    """``poisson.py`` reaches the Cox--de Boor kernel only through the
    space module's (knot window, element interval) pair tables, so every
    element-batched evaluation goes through the one helper."""
    kernel = re.compile(r"\b_stacked_values\b")
    lines = (PACKAGE / "poisson.py").read_text().splitlines()
    assert [n for n, line in enumerate(lines, 1) if kernel.search(line)] == []


def test_qi_and_dirichlet_data_reach_the_kernel_only_through_the_greville_builder():
    """``quasi.py`` never names the Cox--de Boor kernel, and it and
    ``poisson.py`` both call ``bspline._stacked_greville``: the one
    builder of Greville nodes and collocation matrices serves the
    quasi-interpolant's local problems and the Dirichlet data."""
    kernel = re.compile(r"\b_stacked_values\b")
    lines = (PACKAGE / "quasi.py").read_text().splitlines()
    assert [n for n, line in enumerate(lines, 1) if kernel.search(line)] == []
    for name in ("quasi.py", "poisson.py"):
        assert re.search(r"\b_stacked_greville\(", (PACKAGE / name).read_text()), name


def test_only_the_space_module_reads_the_refinement_rows():
    """A refinement state's keys, rows and bounds are ``space.py``'s own
    format; its queries answer in keys."""
    internals = re.compile(r"\bstate\.(keys|rows|bounds)\b")
    readers = {
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "space.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if internals.search(line)
    }
    assert readers == set()



def test_the_only_memo_tables_are_the_knot_insertion_and_gauss_rules():
    """A process-wide memo outlives every call and is kept only where the
    workloads reuse its entries: ``bspline._boehm``, the Boehm kernel the
    generation fixpoint calls again and again on few distinct inputs, and
    ``space._gauss_legendre``, the Gauss rules.  Each top-level statement
    that reads ``functools``'s ``cache`` or ``lru_cache``, as a decorator
    or a call, is named by what it defines or binds; those are these
    two."""
    memo = ("cache", "lru_cache")
    caches = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            if any(
                (isinstance(node, ast.Name) and node.id in memo)
                or (isinstance(node, ast.Attribute) and node.attr in memo)
                for node in ast.walk(statement)
            ):
                names = [t.id for t in getattr(statement, "targets", ()) if isinstance(t, ast.Name)]
                names += [statement.name] if hasattr(statement, "name") else []
                caches.update(f"{path.stem}.{name}" for name in names or [f"line {statement.lineno}"])
    assert caches == {"bspline._boehm", "space._gauss_legendre"}
