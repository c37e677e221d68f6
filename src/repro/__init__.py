"""repro — reproduction of "Adaptive Optimization for Sparse Data on
Heterogeneous GPUs" (Ma, Rusu, Wu, Sim — IEEE IPDPSW 2022).

The package implements the paper's **Adaptive SGD** algorithm (dynamic
scheduling, adaptive batch size scaling, normalized model merging) together
with every substrate it needs, built from scratch:

- :mod:`repro.sim` — a deterministic discrete-event engine (the clock the
  virtual cluster runs on);
- :mod:`repro.gpu` — virtual heterogeneous GPUs with an analytical,
  sparsity-sensitive cost model (the paper's 4×V100 testbed, simulated);
- :mod:`repro.comm` — weighted ring/tree all-reduce collectives with
  multi-stream overlap timing;
- :mod:`repro.sparse` — the 3-layer sparse-input MLP, losses, metrics, and
  flat-buffer model states (real numerics on the host CPU);
- :mod:`repro.data` — synthetic XML datasets matching the paper's Table-I
  shape, multi-label libSVM IO, batching and mega-batch accounting;
- :mod:`repro.core` — Algorithms 1 & 2, the dynamic scheduler, and the
  :class:`~repro.core.adaptive.AdaptiveSGDTrainer`;
- :mod:`repro.baselines` — TensorFlow-mirrored sync SGD, Elastic SGD,
  CROSSBOW, SLIDE (real SimHash LSH), async SGD, mini-batch SGD;
- :mod:`repro.harness` — the §V-A methodology, per-figure experiment
  builders, and paper-style reporting.

Quickstart::

    from repro import AdaptiveSGDConfig, AdaptiveSGDTrainer, load_task, make_server

    task = load_task("amazon670k-bench", seed=0)
    server = make_server(4)  # 4 heterogeneous virtual V100s
    config = AdaptiveSGDConfig(b_max=128, base_lr=0.4, mega_batch_batches=40)
    trace = AdaptiveSGDTrainer(task, server, config).run(time_budget_s=0.5)
    print(trace.best_accuracy, trace.time_to_accuracy(0.5))
"""

from importlib import import_module
from sys import modules

__version__ = "1.1.0"
#: Names the run-registry root when no ``--registry`` flag is given.
ENV_REGISTRY = "REPRO_REGISTRY"


def lazy_exports(package: str, table: dict):
    """``(__getattr__, __dir__, __all__)`` for a package ``__init__``.

    ``table`` maps a module path relative to ``package`` to the
    space-separated names it defines. A name is looked up on its defining
    module at every access (PEP 562) and never stored on the package, so
    importing a package loads none of its modules and an attribute patched
    on the defining module is what the package-level name returns.
    Submodules resolve as attributes too (``repro.sim`` after ``import
    repro``); code under ``src/`` imports from the defining module.
    """
    origin = {
        name: f"{package}.{module}"
        for module, names in table.items() for name in names.split()
    }

    def __getattr__(name: str):
        if name in origin:
            return getattr(import_module(origin[name]), name)
        if not name.startswith("_"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted({*vars(modules[package]), *origin})

    return __getattr__, __dir__, list(origin)


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "api": "TRAINER_REGISTRY make_engine make_trainer trainer_names",
    "core.adaptive": "AdaptiveSGDTrainer",
    "core.config": "AdaptiveSGDConfig",
    "data.registry": "dataset_names load_task",
    "gpu.cluster": "make_server",
    "harness.experiment": "ExperimentSpec run_experiment",
    "harness.traces": "TrainingTrace",
    "telemetry.core": "Telemetry",
})
__all__.append("__version__")
