"""The prose docs name only what exists.

Every backticked ``repro.x.y`` / ``repro.x.y:attr`` name in DESIGN.md,
README.md and EXPERIMENTS.md must import (a module, or an attribute of the
longest module prefix, lazy package exports included), and every
``src|tests|benchmarks|examples/….py`` path must be a file. A rename that
leaves a doc pointing at the old name fails here.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
NAME = re.compile(r"\brepro(?:\.\w+)+(?::[\w.]+)?")
PATH = re.compile(r"\b(?:src|tests|benchmarks|examples)/[\w/.-]*?\.py\b")


def backticked(pattern):
    """Sorted distinct matches of ``pattern`` inside the docs' code spans."""
    found = set()
    for doc in DOCS:
        for span in re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text()):
            found.update(pattern.findall(span))
    return sorted(found)


def resolve(name: str):
    """Import the longest module prefix of ``name``; walk the rest as
    attributes (``module:attr.sub`` splits explicitly)."""
    module_part, _, attrs = name.partition(":")
    parts = module_part.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        rest = parts[cut:] + (attrs.split(".") if attrs else [])
        for attr in rest:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_every_backticked_name_and_path_resolves():
    names, paths = backticked(NAME), backticked(PATH)
    assert len(names) >= 20 and len(paths) >= 20, (names, paths)
    broken = [path for path in paths if not (ROOT / path).is_file()]
    for name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{name}: {exc!r}")
    assert not broken, broken
