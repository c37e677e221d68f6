"""Shape guards for the CLI, the serving engine and the trainers.

ROADMAP aim 2 ("no 700-line methods built from nested closures", "one kernel
path per operation") as executable checks: every function in ``cli.py``,
``serve/`` and the trainer files stays short, sim processes stay
module-level or methods (never closures), the GPU step, the timed collective
and the bootstrap exist once, ``src/`` holds no ``*_reference`` twin and one
LSH bucket index, a recorded run is analysed in one place, files are written
by one module and text is laid out by one, the CLI forks on ``--json``
once, scipy's private kernels are imported by one module, ``src/`` does not
grow without saying so, and the CLI, the serving
config, the trainers and every function under ``src/`` keep exactly the
options and defaulted parameters they had — no knob added, none lost.
"""

import argparse
import ast
import json
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: One run object plus one generator method per sim process (DESIGN.md §7).
TRAINERS = [
    SRC / "core" / "adaptive.py",
    *sorted((SRC / "baselines").rglob("*.py")),
]
SIM_PROCESS_FILES = [
    *sorted((SRC / "serve").glob("*.py")),
    SRC / "harness" / "trainer_base.py",
    *TRAINERS,
]
GUARDED = [SRC / "cli.py", *SIM_PROCESS_FILES]
#: ``find src -name '*.py' | xargs cat | wc -l`` as of the last PR that moved
#: it. A PR that adds lines moves this pin in its own diff, next to its reason.
SRC_LINES = 18475  # -72: a label table fills on first use and is read
#   once, so ServeRun has no pending list or flush; for_server went too
#: ``wc -l DESIGN.md`` as of the last PR that moved it; it may only shrink.
DESIGN_LINES = 1569
#: CHANGES.md entries (one line each) may not exceed this many characters;
#: the first ``LONG_CHANGES_ENTRIES`` predate the cap.
MAX_CHANGES_ENTRY_CHARS = 1500
LONG_CHANGES_ENTRIES = 19
#: Defaulted parameters under ``src/`` (positional defaults plus keyword-only
#: ones), the sum over ``tests/data/parameter_surface.json``.
PARAMETERS = 299  # 376 before every parameter needed a caller
MAX_BODY_LINES = 80
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def qualified_functions(tree):
    """Yield ``(dotted name, node)`` for every function, nested ones too."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, FUNCTIONS):
                    yield name, child
                yield from walk(child, f"{name}.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def body_lines(fn) -> int:
    """Lines from the first statement after the docstring to the end."""
    body = fn.body
    if ast.get_docstring(fn) is not None and len(body) > 1:
        body = body[1:]
    return fn.end_lineno - body[0].lineno + 1


def owns_yield(fn) -> bool:
    """True when ``fn`` itself (not a function nested in it) yields."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (*FUNCTIONS, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def test_no_function_body_over_80_lines():
    too_long = {}
    for path in GUARDED:
        for name, fn in qualified_functions(ast.parse(path.read_text())):
            if body_lines(fn) > MAX_BODY_LINES:
                too_long[name] = body_lines(fn)
    assert not too_long, (
        f"functions over {MAX_BODY_LINES} body lines in cli.py, serve/ or a "
        f"trainer file (split them): {too_long}"
    )


def test_no_generator_nested_in_a_function():
    nested = []
    for path in SIM_PROCESS_FILES:
        for _, outer in qualified_functions(ast.parse(path.read_text())):
            for _, inner in qualified_functions(outer):
                if owns_yield(inner):
                    nested.append(f"{path.name}:{outer.name}.{inner.name}")
    assert not nested, (
        f"sim processes must be module-level functions or methods taking "
        f"the run, not closures: {nested}"
    )


def test_trainers_keep_run_state_on_the_run_object():
    """No ``nonlocal`` (and so no closure cell a process mutates): what a
    run changes lives on its ``TrainingRun``."""
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in (SRC / "harness" / "trainer_base.py", *TRAINERS)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Nonlocal)
    ]
    assert not offenders, offenders


def test_step_collective_and_bootstrap_are_single():
    """``TrainerBase`` owns ``device_step``, ``collective`` and ``run``; a
    trainer that prices a GPU step, opens the all-reduce span or drives the
    event loop itself has forked one of them."""
    forks = [
        f"{path.relative_to(SRC)}: {needle}"
        for path in sorted({*TRAINERS, *(SRC / "core").glob("*.py")})
        for needle in ("StepWorkload(", "SPAN_ALLREDUCE", "run_until_complete")
        if needle in path.read_text()
    ]
    assert not forks, forks


def test_no_reference_twin_lives_in_src():
    """The slow oracle of a kernel belongs in ``tests/reference.py``."""
    twins = [
        f"{path.relative_to(SRC)}:{name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, _ in qualified_functions(ast.parse(path.read_text()))
        if name.endswith("_reference")
    ]
    assert not twins, twins


def test_lsh_index_keeps_one_family_of_buckets():
    """What ``SimHashLSH.rebuild`` fills is one set of ``_bucket_*`` arrays,
    built without a dict: a second index of the same buckets is a second
    retrieval path waiting to happen."""
    tree = ast.parse((SRC / "baselines" / "slide" / "lsh.py").read_text())
    methods = {
        name: fn for name, fn in qualified_functions(tree)
        if name.startswith("SimHashLSH.")
    }

    def stored(fn, keep=lambda value: True):
        """Names of the ``self.<name> = value`` stores in ``fn``."""
        names = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names.update(
                t.attr for t in targets
                if isinstance(t, ast.Attribute) and keep(node.value)
            )
        return names

    unset = stored(
        methods["SimHashLSH.__init__"],
        lambda value: isinstance(value, ast.Constant) and value.value is None,
    )
    rebuild = methods["SimHashLSH.rebuild"]
    families = {name.split("_")[1] for name in unset & stored(rebuild)}
    assert families == {"bucket"}, sorted(unset & stored(rebuild))
    assert not [
        node.lineno for node in ast.walk(rebuild)
        if isinstance(node, (ast.Dict, ast.DictComp))
    ]


def test_a_run_is_analysed_in_one_place():
    """``analyze_report`` prints ``RunAnalysis.as_dict`` and
    ``render_analysis`` renders its fields; a call to an analysis function
    in either is the second orchestration growing back."""
    analyses = {
        "attribute_time", "critical_path", "diagnose", "tenant_breakdown",
        "scoring_split",
    }
    forks = []
    for path, name in (
        (SRC / "telemetry" / "analyze.py", "analyze_report"),
        (SRC / "harness" / "report.py", "render_analysis"),
    ):
        fn = dict(qualified_functions(ast.parse(path.read_text())))[name]
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", ""))
            if called in analyses or called.endswith("_events"):
                forks.append(f"{name}: {called}()")
    assert not forks, forks


#: The one persistence module (DESIGN.md, "Persistence"), and the text codec
#: of an external format, which keeps its own I/O.
SERIALIZATION = SRC / "utils" / "serialization.py"
LIBSVM = SRC / "data" / "libsvm.py"
#: Module -> prefixes of its functions that create, replace or copy a file
#: or, for numpy, read an array file.
FILE_IO = {
    "os": ("replace", "rename"),
    "shutil": ("copy",),
    "np": ("save", "load"),
    "numpy": ("save", "load"),
}


def file_io_calls(tree):
    """Yield ``(lineno, name)`` for each write-mode ``open`` (a mode that is
    not a literal counts: it cannot be checked), ``.write_text`` /
    ``.write_bytes`` and ``FILE_IO`` call, the latter also when imported
    by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith(FILE_IO.get(node.module, ())):
                    yield node.lineno, f"{node.module}.{alias.name}"
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        method = isinstance(func, ast.Attribute)
        name = func.attr if method else getattr(func, "id", "")
        owner = getattr(func.value, "id", "") if method else ""
        if name == "open" and owner != "os":
            at = 0 if method else 1
            mode = next(
                (k.value for k in node.keywords if k.arg == "mode"),
                node.args[at] if len(node.args) > at else ast.Constant("r"),
            )
            literal = getattr(mode, "value", None)
            if not isinstance(literal, str) or set(literal) & set("wax+"):
                yield node.lineno, "open"
        elif method and (
            name in ("write_text", "write_bytes")
            or name.startswith(FILE_IO.get(owner, ()))
        ):
            yield node.lineno, f"{owner}.{name}"


def test_files_are_written_and_arrays_read_by_one_module():
    """``utils/serialization.py`` is the only module under ``src/repro``
    that creates a file or loads an ``.npz``; ``data/libsvm.py`` writes its
    external text format itself."""
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path != SERIALIZATION
        for lineno, name in file_io_calls(ast.parse(path.read_text()))
        if path != LIBSVM or name.endswith(".load")
    ]
    assert not offenders, offenders
    # The guard itself: every spelling it exists to catch is caught.
    for line in (
        "path.write_text(text)", "p.write_bytes(b)", "open(p, 'w')",
        "open(p, mode)", "p.open('ab')", "open(p, mode='x')",
        "os.replace(a, b)", "os.rename(a, b)", "shutil.copyfile(a, b)",
        "from shutil import copy2", "np.savez_compressed(p, x=x)",
        "numpy.save(p, x)", "np.load(p)", "from numpy import load",
    ):
        assert list(file_io_calls(ast.parse(line))), line
    for line in ("open(p)", "p.open()", "open(p, 'rb')", "s.replace(a, b)"):
        assert not list(file_io_calls(ast.parse(line))), line


#: The text-layout helpers, and the modules allowed to call them: the report
#: layer and the two modules that define them (DESIGN.md, "Presentation").
LAYOUT_HELPERS = {
    "format_table", "format_kv", "format_series", "format_timeline",
    "format_sparkline", "ascii_plot",
}
LAYOUT_MODULES = {
    SRC / "harness" / "report.py",
    SRC / "utils" / "tables.py",
    SRC / "utils" / "plots.py",
}


def layout_calls(tree):
    """Yield ``(lineno, name)`` for each call of a ``LAYOUT_HELPERS``
    function, by name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", ""))
            if name in LAYOUT_HELPERS:
                yield node.lineno, name


def test_text_is_laid_out_in_one_module():
    """``harness/report.py`` is the only module that builds tables, rows and
    charts; a command or an analysis that calls a layout helper itself is a
    second presentation path."""
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path not in LAYOUT_MODULES
        for lineno, name in layout_calls(ast.parse(path.read_text()))
    ]
    assert not offenders, offenders
    for line in ("format_kv({})", "tables.format_table(h, r)", "ascii_plot(s)"):
        assert list(layout_calls(ast.parse(line))), line


def test_the_cli_branches_on_json_in_one_function():
    """``args.as_json`` is read by ``_print_result`` alone: every read-side
    command ends in that one JSON-or-text fork."""
    readers = {
        name
        for name, fn in qualified_functions(
            ast.parse((SRC / "cli.py").read_text())
        )
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "as_json"
    }
    assert readers == {"_print_result"}, readers


def scipy_uses(tree):
    """Yield ``(line, "import" | "name")`` for each import of any scipy
    module, and each attribute read of scipy's private ``_sparsetools``
    module or string naming a scipy module (what a by-name loader passes
    to ``importlib``), however it is spelled."""
    for node in ast.walk(tree):
        kind = "name"
        if isinstance(node, ast.ImportFrom):
            kind = "import"
            names = [node.module or "", *(
                f"{node.module}.{alias.name}" for alias in node.names
            )]
        elif isinstance(node, ast.Import):
            kind = "import"
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            dotted = all(part.isidentifier() for part in node.value.split("."))
            names = [node.value] if dotted else []
        else:
            continue
        if any(
            name.split(".")[0] == "scipy" or "_sparsetools" in name.split(".")
            for name in names
        ):
            yield node.lineno, kind


def test_private_scipy_kernels_are_imported_by_one_module():
    """``perf/gather.py`` loads scipy's compiled ``_sparsetools`` by file
    path and imports no scipy module; no other module under ``src/``
    imports scipy, reads ``_sparsetools`` or names a scipy module: a
    second user is a second copy of the loader, and ``import
    scipy.sparse`` costs every numeric command ~15 MiB (DESIGN.md §15)."""
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, kind in scipy_uses(ast.parse(path.read_text()))
        if path != SRC / "perf" / "gather.py" or kind == "import"
    ]
    assert not offenders, offenders
    loader = ast.parse((SRC / "perf" / "gather.py").read_text())
    assert {kind for _, kind in scipy_uses(loader)} == {"name"}
    for line, kind in (
        ("from scipy.sparse import _sparsetools", "import"),
        ("import scipy.sparse._sparsetools as st", "import"),
        ("from scipy.sparse._sparsetools import csr_matvecs", "import"),
        ("from scipy import sparse", "import"),
        ("import scipy", "import"),
        ("sp._sparsetools.csr_matvecs(1)", "name"),
        ("PathFinder.find_spec('scipy')", "name"),
        ("load('scipy.sparse._sparsetools')", "name"),
    ):
        assert {k for _, k in scipy_uses(ast.parse(line))} == {kind}, line
    assert not list(scipy_uses(ast.parse("import numpy  # not 'scipy'")))
    assert not list(scipy_uses(ast.parse("x = 'scipy is a dependency'")))


def test_src_line_count_does_not_grow():
    lines = sum(
        path.read_text().count("\n") for path in (ROOT / "src").rglob("*.py")
    )
    assert lines <= SRC_LINES, (
        f"src/ has {lines} lines, the pin is {SRC_LINES}: delete as much as "
        f"you add, or move SRC_LINES in this PR and say why"
    )


def test_design_doc_does_not_grow():
    lines = (ROOT / "DESIGN.md").read_text().count("\n")
    assert lines <= DESIGN_LINES, (
        f"DESIGN.md has {lines} lines, the pin is {DESIGN_LINES}: cut as "
        f"much as you add"
    )


def test_changes_entries_are_short():
    entries = [
        line for line in (ROOT / "CHANGES.md").read_text().splitlines()
        if line.strip()
    ]
    long = [
        (i, len(entry)) for i, entry in enumerate(entries)
        if len(entry) > MAX_CHANGES_ENTRY_CHARS
    ]
    assert all(i < LONG_CHANGES_ENTRIES for i, _ in long), (
        f"CHANGES.md entries (index, characters) over "
        f"{MAX_CHANGES_ENTRY_CHARS}: {long}"
    )


def cli_surface(parser, command=()):
    """The command tree and every ``(command, option strings, dest,
    default)`` under it."""
    commands, options = [], []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = cli_surface(sub, (*command, name))
                commands += [" ".join((*command, name)), *nested["commands"]]
                options += nested["options"]
            continue
        options.append({
            "command": " ".join(command),
            "options": list(action.option_strings),
            "dest": action.dest,
            "default": action.default,
        })
    return {"commands": commands, "options": options}


def test_cli_surface_is_unchanged():
    """Compares the parsed structure, not ``--help`` text, so the pin is
    stable across Python versions. Regenerate ``cli_surface.json`` only in
    a PR whose purpose is to change the CLI."""
    pinned = json.loads((ROOT / "tests/data/cli_surface.json").read_text())
    assert cli_surface(build_parser()) == pinned


def test_option_surface_is_unchanged():
    """Every settable value doubles the configurations to test, so each
    option has a caller outside ``tests/`` (DESIGN.md "Options")."""
    from repro import api
    from repro.serve.config import ServingConfig

    pinned = json.loads((ROOT / "tests/data/option_surface.json").read_text())
    surface = {
        "serving_config": ServingConfig.option_names(),
        "trainers": {
            name: sorted(set(api._accepted_options(api.trainer_class(name))))
            for name in api.TRAINER_REGISTRY
        },
    }
    assert surface == pinned, (
        "the ServingConfig / trainer option surface changed: a new option "
        "needs a caller outside tests/, named in the PR; then regenerate "
        "tests/data/option_surface.json"
    )


def defaulted_parameters(fn):
    """Names of ``fn``'s parameters that have a default, in order."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    names = [arg.arg for arg in positional[len(positional) - len(args.defaults):]]
    return names + [
        arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def parameter_surface():
    """``module:qualname`` -> defaulted parameters, for every function and
    method under ``src/repro`` that has one."""
    surface = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for name, fn in qualified_functions(ast.parse(path.read_text())):
            names = defaulted_parameters(fn)
            if names:
                key = f"{module}:{name}"
                surface[key] = [*surface.get(key, ()), *names]
    return surface


def test_parameter_surface_is_unchanged():
    """A defaulted parameter exists only while a call in ``src/``,
    ``benchmarks/`` or ``examples/`` sets it (DESIGN.md §18); anything a
    test alone needs is a module constant the test patches."""
    pinned = json.loads(
        (ROOT / "tests/data/parameter_surface.json").read_text()
    )
    surface = parameter_surface()
    added = sorted(
        f"{key}({name}=)" for key, names in surface.items()
        for name in names if name not in pinned.get(key, ())
    )
    removed = sorted(
        f"{key}({name}=)" for key, names in pinned.items()
        for name in names if name not in surface.get(key, ())
    )
    assert surface == pinned, (
        f"the defaulted-parameter surface of src/ changed (added {added}, "
        f"removed {removed}): a new parameter needs a caller outside tests/, "
        f"named in the PR; then regenerate tests/data/parameter_surface.json "
        f"as json.dumps(parameter_surface(), indent=1, sort_keys=True)"
    )
    assert sum(map(len, surface.values())) == PARAMETERS
