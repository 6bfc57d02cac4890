"""The package's import graph, read from its source: imports run one way,
with ``qtypes`` at the bottom."""

import ast
import graphlib
from pathlib import Path

import flintq

SRC = Path(flintq.__file__).parent
MODULES = {p.stem for p in SRC.glob("*.py")}


def _imports(module: str) -> set[str]:
    """The flintq modules ``module`` imports."""
    return _imports_in((SRC / f"{module}.py").read_text())


def _imports_in(source: str) -> set[str]:
    """The flintq modules a package module's ``source`` imports, at module
    level or inside a function; a name that is not a module (``from .
    import __version__``) stands for the package's ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            package, _, inner = (node.module or "").partition(".")
            if node.level == 0 and package != "flintq":
                continue
            target = inner if node.level == 0 else node.module
            if target:
                found.add(target.split(".")[0])
            else:
                found |= {a.name if a.name in MODULES else "__init__" for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                package, _, inner = a.name.partition(".")
                if package == "flintq":
                    found.add(inner.split(".")[0] or "__init__")
    return found


def test_the_graph_sees_imports_at_every_level():
    # cli imports at module level; an import inside a function counts too.
    assert _imports("cli") >= {"__init__", "qtypes", "selector", "sim", "tensor_io", "verify"}
    assert _imports_in("def f():\n    from . import tensor_io\n    import flintq.pe\n") == {
        "tensor_io", "pe"}


def test_qtypes_imports_no_flintq_module():
    assert _imports("qtypes") == set()


def test_import_graph_has_no_cycle():
    graph = {m: _imports(m) for m in MODULES}
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError names a cycle
    assert order.index("qtypes") < order.index("flint")
