"""Importing a layer is a consequence of running it.

Each footprint case runs one CLI command in a fresh interpreter (with
``PYTHONHASHSEED=0``) and asserts on the names in ``sys.modules``, a set that
repeats exactly: the read side loads neither the numeric stack nor the
simulator, ``train`` does not load the serving engine or the figure
builders, ``serve`` loads no trainer and no ``comm``, neither loads
``numpy.ma`` (what ``np.unique`` imports on its first call), a write
command that names no registry loads no ``sqlite3``, and no numeric command
loads scipy's Python layer, only its compiled kernels. The surface tests pin what the lazy package ``__init__``s must keep: every
exported name resolves to the defining module's object on every access
(nothing is cached on the package), ``dir()`` lists it, and submodules
stay reachable.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.cli import main
from repro.registry.index import RunRegistry

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Runs in the child: build the parser, run one command with its output
#: swallowed, print the loaded module names as the last stdout line.
PROBE = """
import contextlib, io, json, sys
from repro.cli import build_parser, main
build_parser()
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""
NUMERIC = ("numpy", "scipy")
#: What ``import scipy.sparse`` drags in besides the compiled kernels a
#: numeric command loads by file path (DESIGN.md §15).
SCIPY_PYTHON = ("scipy", "numpy.f2py", "numpy.testing", "unittest")
KERNELS = "scipy.sparse._sparsetools"
#: Layers no read-side command runs.
WRITE_SIDE = ("repro.sim", "repro.core", "repro.baselines", "repro.serve",
              "repro.sparse", "repro.api")
#: The module of every registered trainer, in registry order.
TRAINERS = ("repro.core.adaptive", "repro.baselines.elastic",
            "repro.baselines.sync_sgd", "repro.baselines.crossbow",
            "repro.baselines.slide.trainer", "repro.baselines.async_sgd",
            "repro.baselines.minibatch")
#: Loaded by the first ``np.unique`` call; no hot path needs it (about
#: 1 MiB of peak RSS on a serve).
MASKED_ARRAYS = "numpy.ma"
#: What serving a snapshot has no use for: a trainer, the training stack,
#: the registry index, and the serving branches of a store and of churn.
NOT_SERVED = (*TRAINERS, "repro.core", "repro.harness.trainer_base",
              "repro.registry.index", "repro.serve.swap",
              "repro.serve.autoscale", "sqlite3", MASKED_ARRAYS)
MICRO = ["--dataset", "micro", "--time-budget-s", "0.003", "--gpus", "2"]


def loaded_after(argv):
    """``sys.modules`` of a fresh interpreter after ``main(argv)``."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    env.pop("REPRO_REGISTRY", None)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([str(a) for a in argv])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def holds(modules, *prefixes):
    """The loaded modules at or under any of ``prefixes``."""
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    """The stem of a smoke snapshot of ``micro``."""
    stem = tmp_path_factory.mktemp("model") / "M"
    assert main(["snapshot", str(stem), *MICRO]) == 0
    return stem


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """A two-run grid archive with its registry, at a smoke budget."""
    root = tmp_path_factory.mktemp("footprint")
    assert main([
        "trace", "--dataset", "micro", "--time-budget-s", "0.003",
        "--gpus", "2", "--algorithms", "adaptive", "elastic",
        "--out", str(root / "G"), "--registry", str(root / "R"),
    ]) == 0
    return SimpleNamespace(
        jsonl=root / "G.telemetry.jsonl",
        registry=root / "R",
        run_id=RunRegistry(root / "R").list()[0].run_id,
    )


class TestFootprint:
    def test_building_the_parser_loads_no_numeric_stack(self):
        assert holds(loaded_after([]), *NUMERIC) == []

    @pytest.mark.parametrize("verb", ["ls", "show", "history"])
    def test_registry_reads_load_no_numeric_stack(self, archive, verb):
        argv = {
            "ls": ["runs", "ls", "--json"],
            "show": ["runs", "show", archive.run_id],
            "history": ["runs", "history", "duration_s", "--kind", "train"],
        }[verb]
        modules = loaded_after([*argv, "--registry", archive.registry])
        assert holds(modules, *NUMERIC, *WRITE_SIDE) == []

    @pytest.mark.parametrize("as_json", [True, False])
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_trace_reads_load_no_write_side(self, archive, command, as_json):
        argv = {
            "analyze": ["analyze", archive.jsonl],
            "compare": ["compare", archive.jsonl, archive.jsonl,
                        "--run-b", "1"],
        }[command]
        modules = loaded_after([*argv, "--json"] if as_json else argv)
        assert holds(modules, "scipy", *WRITE_SIDE) == []
        if as_json:  # the text renderers may load numpy through the report
            assert holds(modules, "numpy") == []

    @pytest.mark.parametrize("command", ["train", "serve", "trace"])
    def test_numeric_commands_load_scipys_kernels_alone(
        self, command, model, tmp_path_factory
    ):
        """No ``scipy.sparse`` / ``scipy._lib`` Python layer, nor the
        ``numpy.f2py`` / ``numpy.testing`` / ``unittest`` it imports: the
        one scipy module in the process is the compiled extension."""
        root = tmp_path_factory.mktemp("numeric")
        argv = {
            "train": ["train", *MICRO],
            "serve": ["serve", model, "--mode", "adaptive",
                      "--requests", "300", "--gpus", "2"],
            "trace": ["trace", *MICRO, "--algorithms", "adaptive", "slide",
                      "--out", root / "G"],
        }[command]
        assert holds(loaded_after(argv), *SCIPY_PYTHON) == [KERNELS]

    def test_train_loads_no_serving_layer(self):
        modules = loaded_after(["train", *MICRO])
        assert holds(modules, "repro.serve", MASKED_ARRAYS) == []
        assert holds(modules, "repro.core.adaptive")  # the probe ran a trainer

    def test_serve_loads_no_trainer_and_no_registry(self, model):
        """Exact scoring from a snapshot stem, no store, no churn, no
        registry, and no ``comm``: serving runs no collective, so the
        server's interconnect is never built."""
        modules = loaded_after(["serve", model, "--mode", "adaptive",
                                "--requests", "300", "--gpus", "2"])
        assert holds(modules, *NOT_SERVED) == []
        assert holds(modules, "repro.comm") == []
        assert holds(modules, "repro.serve.engine")  # the probe served

    def test_train_loads_no_figure_builders(self):
        """The methodology ``train`` runs under is built next to
        :class:`~repro.harness.experiment.ExperimentSpec`, not by the figure
        module with its Table-I statistics and the tree all-reduce."""
        modules = loaded_after(["train", *MICRO])
        assert holds(modules, "repro.harness.figures", "repro.data.stats",
                     "repro.comm.tree") == []

    def test_train_loads_its_one_trainer_and_no_sqlite3(self):
        modules = loaded_after(["train", *MICRO])
        assert holds(modules, *TRAINERS) == ["repro.core.adaptive"]
        assert holds(modules, "sqlite3", "repro.registry.index") == []

    def test_train_with_a_registry_loads_sqlite3(self, tmp_path):
        modules = loaded_after(["train", *MICRO, "--registry", tmp_path / "R"])
        assert {"sqlite3", "repro.registry.index"} <= modules

    def test_importing_the_api_loads_no_trainer(self):
        code = "import json, sys, repro.api; print(json.dumps(sorted(sys.modules)))"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        modules = set(json.loads(done.stdout))
        assert holds(modules, *TRAINERS, "repro.harness.trainer_base") == []


def packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


class TestPackageSurface:
    @pytest.mark.parametrize("package", packages(), ids=lambda p: p.__name__)
    def test_every_export_is_the_defining_modules_object(self, package):
        listed = dir(package)
        for name in package.__all__:
            value = getattr(package, name)
            assert name in listed
            if name == "__version__":
                continue
            if isinstance(vars(package).get(name), type(repro)):
                # ``harness.sweep``: a submodule with the name of its own
                # export, which the import system binds on the package.
                continue
            assert name not in vars(package), f"{name} cached on the package"
            # A class or function names its module; a constant or a typing
            # alias is wherever a module under ``repro`` holds that object.
            home = str(getattr(value, "__module__", ""))
            defining = [
                key for key, module in sys.modules.items()
                if key.startswith("repro.") and not hasattr(module, "__path__")
                and vars(module).get(name) is value
                and (key == home or not home.startswith("repro."))
            ]
            assert defining, f"{package.__name__}.{name} has no defining module"

    def test_package_name_follows_a_patch_of_the_defining_module(
        self, monkeypatch
    ):
        import repro.telemetry
        import repro.telemetry.analyze as defining

        original = defining.analyze_report
        with monkeypatch.context() as patch:
            patch.setattr(defining, "analyze_report", lambda *a, **k: "patched")
            assert repro.telemetry.analyze_report() == "patched"
        assert repro.telemetry.analyze_report is original

    def test_submodules_are_attributes_after_a_bare_import(self):
        code = (
            "import repro\n"
            "assert repro.sim.environment.Environment is repro.sim.Environment\n"
            "assert repro.telemetry.trace_data.TraceData\n"
            "assert repro.harness.figures.fig1_heterogeneity\n"
            "for owner in (repro, repro.sim):\n"
            "    try:\n"
            "        owner.no_such_name\n"
            "    except AttributeError as exc:\n"
            "        assert 'no_such_name' in str(exc)\n"
            "    else:\n"
            "        raise SystemExit('missing name resolved')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        )
        assert done.returncode == 0, done.stderr


def test_pyproject_reads_the_version_from_the_package():
    """One source: ``repro.__version__``, a literal setuptools can read
    without importing the package."""
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }
    literals = [
        ast.literal_eval(node.value)
        for node in ast.parse((SRC / "repro" / "__init__.py").read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
    ]
    assert literals == [repro.__version__]
