"""The package graph of ``repro`` is layered: every import points strictly down.

Each package (or top-level module) of ``src/repro`` has a rank; an import
from one package into another must go to a lower rank.  Function-local
imports count too, so a cycle cannot hide behind a lazy import; only
``if TYPE_CHECKING:`` blocks are exempt, since they never run.  The root
``repro/__init__.py`` only re-exports, so it is not ranked, and a name it
defines (``from repro import __version__``) is no edge.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

LAYERS = [
    ("types", "config", "perf"),
    ("utils", "faults"),
    ("datasets", "hashing", "optim"),
    ("lsh", "state", "data", "kernels"),
    ("sampling",),
    ("core",),
    ("baselines", "parallel", "serving"),
    ("harness", "reports"),
]
RANK = {package: rank for rank, layer in enumerate(LAYERS) for package in layer}
SRC = Path(repro.__file__).parent


def _imports(node: ast.AST):
    """Every import statement under ``node``, skipping ``if TYPE_CHECKING:``
    bodies (their ``else:`` branch runs, so it is scanned)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif isinstance(child, ast.If) and ast.unparse(child.test).endswith(
            "TYPE_CHECKING"
        ):
            for statement in child.orelse:
                yield from _imports(ast.Module(body=[statement], type_ignores=[]))
        else:
            yield from _imports(child)


def _imported_packages(tree: ast.AST):
    """The ``repro`` packages that ``tree`` imports."""
    for node in _imports(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.module == "repro":
            # ``from repro import x`` is an edge to x when x is a package.
            modules = [f"repro.{alias.name}" for alias in node.names]
        else:
            modules = [node.module or ""]
        for module in modules:
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                name = parts[1]
                if (SRC / name).is_dir() or (SRC / f"{name}.py").is_file():
                    yield name


def test_every_import_points_to_a_lower_layer():
    violations = set()
    for path in sorted(SRC.rglob("*.py")):
        package = path.relative_to(SRC).parts[0].removesuffix(".py")
        if package == "__init__":
            continue
        if package not in RANK:
            violations.add(f"{package} has no layer")
            continue
        for target in _imported_packages(ast.parse(path.read_text())):
            if target != package and RANK.get(target, len(LAYERS)) >= RANK[package]:
                violations.add(f"{package} -> {target} ({path.relative_to(SRC)})")
    assert not violations, "imports against the layering:\n" + "\n".join(
        sorted(violations)
    )


def _edges(source: str) -> list[str]:
    return sorted(_imported_packages(ast.parse(source)))


def test_a_function_local_import_is_an_edge():
    assert _edges("def load():\n    from repro.serving import engine\n") == ["serving"]


def test_only_the_type_checking_branch_is_exempt():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.core.network import SlideNetwork\n"
        "else:\n"
        "    import repro.serving\n"
    )
    assert _edges(source) == ["serving"]


def test_from_repro_import_is_an_edge_only_to_a_package():
    assert _edges("from repro import __version__, core\nimport repro.state\n") == [
        "core",
        "state",
    ]


def test_every_layer_names_an_existing_package():
    stale = [
        package
        for package in RANK
        if not ((SRC / package).is_dir() or (SRC / f"{package}.py").is_file())
    ]
    assert stale == []


def test_imports_are_absolute():
    """The scan reads absolute ``repro.`` names only, so a relative import
    would slip past it."""
    relative = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert relative == []
