"""Import-graph guards: no orphan modules, no dangling re-exports.

ROADMAP aim 2 ("no modules that only their own test imports") as executable
checks. Both are static walks over ``src/repro`` — nothing is trained.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = ROOT / "src" / "repro"
#: Where a module must be used from to count as live: library code that is
#: not a re-export hub, the example scripts, or the benchmarks. Tests do not
#: count — a module only its own test imports is dead weight.
IMPORTER_ROOTS = (ROOT / "src", ROOT / "examples", ROOT / "benchmarks")
#: A ``"module:Name"`` string is an import by name: ``repro.api`` registers
#: each trainer that way and imports its module when asked for it.
IMPORT_BY_NAME = re.compile(r"repro(\.\w+)+:\w+")


def module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def all_modules():
    """Dotted name -> path for every ``src/repro`` file (packages included)."""
    return {module_name(p): p for p in sorted(PACKAGE_ROOT.rglob("*.py"))}


def imported_names(path: Path):
    """Every dotted module name ``path`` may import (absolute or relative).

    ``from a.b import c`` yields both ``a.b`` and ``a.b.c`` because ``c`` may
    be a submodule; names that are not modules are simply never looked up.
    A ``"a.b:c"`` string constant under ``src/`` yields ``a.b``.
    """
    in_package = PACKAGE_ROOT in path.parents
    package = module_name(path).split(".") if in_package else []
    if in_package and path.name != "__init__.py":
        package = package[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package[: len(package) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"
        elif in_package and isinstance(node, ast.Constant):
            if IMPORT_BY_NAME.fullmatch(str(node.value)):
                yield node.value.partition(":")[0]


def test_every_module_has_a_non_test_importer():
    modules = {
        name: path for name, path in all_modules().items()
        if path.name not in ("__init__.py", "__main__.py")
    }
    live = set()
    for root in IMPORTER_ROOTS:
        for path in root.rglob("*.py"):
            if path.name == "__init__.py":
                continue
            own = module_name(path) if PACKAGE_ROOT in path.parents else None
            live.update(n for n in imported_names(path) if n != own)
    orphans = sorted(set(modules) - live)
    assert not orphans, (
        f"modules no file under src/ (bar __init__), examples/ or "
        f"benchmarks/ imports — wire them in or delete them: {orphans}"
    )


def test_dunder_all_resolves():
    """Every ``__all__`` entry (incl. the ``repro.harness`` lazy map) exists."""
    dangling = {}
    for name in all_modules():
        if name.endswith("__main__"):
            continue  # entry point: importing it runs the CLI
        module = importlib.import_module(name)
        missing = [
            export for export in getattr(module, "__all__", ())
            if not hasattr(module, export)
        ]
        if missing:
            dangling[name] = missing
    assert not dangling, f"__all__ names undefined attributes: {dangling}"
