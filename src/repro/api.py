"""The unified construction API: one front door each for train and serve.

Every training algorithm in the reproduction is registered here under the
name the paper's figures use, and :func:`make_trainer` is the one front door
that builds any of them under the shared §V-A methodology (same initial
model, same evaluation subset, same hardware builder) with an optional
telemetry recorder attached::

    from repro import ExperimentSpec, make_trainer
    from repro.telemetry import Telemetry

    tel = Telemetry()
    spec = ExperimentSpec(dataset="micro", time_budget_s=0.05)
    trainer = make_trainer("adaptive", spec, telemetry=tel)
    trace = trainer.run(time_budget_s=spec.time_budget_s)

:func:`make_engine` mirrors it on the serving side: it accepts anything
that names a model — a :class:`~repro.serve.snapshot.ModelSnapshot`, a
snapshot path/stem, a prebuilt :class:`~repro.serve.predictor.Predictor`,
or a :class:`~repro.serve.store.SnapshotStore` (directory or instance, in
which case the engine auto-subscribes for hot-swaps) — builds the
heterogeneous server, and validates every option through
:class:`~repro.serve.config.ServingConfig`::

    from repro import make_engine

    engine = make_engine("model", scoring="auto", target_latency_s=2e-3)
    result = engine.serve(X, arrivals)

The direct constructors (``AdaptiveSGDTrainer(task, server, config)``,
``ServingEngine(predictor, server, ...)`` etc.) keep working — the facades
add name-based selection, spec-driven defaults, and early validation of
unknown options.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Type

from repro.data.dataset import XMLTask
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import MultiGPUServer
from repro.telemetry.core import Telemetry

if TYPE_CHECKING:
    from repro.harness.trainer_base import TrainerBase

__all__ = [
    "TRAINER_REGISTRY",
    "trainer_names",
    "trainer_class",
    "make_trainer",
    "make_engine",
    "resolve_model_source",
]

#: Paper-figure algorithm names -> ``"module:Class"``, in the order the
#: figures list them. Adding a trainer is one row here; a command imports
#: only the trainer it builds.
TRAINER_REGISTRY: Dict[str, str] = {
    "adaptive": "repro.core.adaptive:AdaptiveSGDTrainer",
    "elastic": "repro.baselines.elastic:ElasticSGDTrainer",
    "tensorflow": "repro.baselines.sync_sgd:SyncSGDTrainer",
    "crossbow": "repro.baselines.crossbow:CrossbowTrainer",
    "slide": "repro.baselines.slide.trainer:SlideTrainer",
    "async": "repro.baselines.async_sgd:AsyncSGDTrainer",
    "minibatch": "repro.baselines.minibatch:MiniBatchSGDTrainer",
}


def trainer_names() -> List[str]:
    """Registered algorithm names, in registry order."""
    return list(TRAINER_REGISTRY)


def trainer_class(name: str) -> Type[TrainerBase]:
    """The trainer class registered under ``name`` (imports its module)."""
    try:
        module, _, cls = TRAINER_REGISTRY[name].partition(":")
    except KeyError:
        raise ConfigurationError(
            f"unknown trainer {name!r}; available: {trainer_names()}"
        ) from None
    return getattr(import_module(module), cls)


def _accepted_options(cls: Type[TrainerBase]) -> Iterable[str]:
    """Keyword options ``cls(task, server, config, **options)`` accepts.

    Union of the subclass's own keywords and :class:`TrainerBase`'s (every
    trainer forwards ``**kwargs`` to ``super().__init__``).
    """
    import inspect

    from repro.harness.trainer_base import TrainerBase

    skip = {"self", "task", "server", "config"}
    for owner in (cls, TrainerBase):
        for pname, param in inspect.signature(owner.__init__).parameters.items():
            if pname not in skip and param.kind not in (
                param.VAR_POSITIONAL, param.VAR_KEYWORD
            ):
                yield pname


def make_trainer(
    name: str,
    spec=None,
    *,
    task: Optional[XMLTask] = None,
    server: Optional[MultiGPUServer] = None,
    n_gpus: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    **options,
) -> TrainerBase:
    """Build the trainer registered under ``name``.

    ``spec`` (an :class:`~repro.harness.experiment.ExperimentSpec`, default
    constructed when omitted) supplies the methodology: the dataset, the
    hardware builder, the hyperparameter config, seeds, and the evaluation
    subset. ``task`` / ``server`` override the spec-built ones (pass both to
    skip dataset generation and server construction entirely); ``n_gpus``
    sizes the spec-built server (default: the spec's first grid entry).
    Remaining ``options`` go to the trainer constructor and are validated
    against its signature up front.
    """
    cls = trainer_class(name)
    if spec is None:
        # Deferred: repro.harness.experiment imports this module.
        from repro.harness.experiment import ExperimentSpec

        spec = ExperimentSpec()
    accepted = set(_accepted_options(cls))
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise ConfigurationError(
            f"trainer {name!r} ({cls.__name__}) got unknown option(s) "
            f"{unknown}; accepted: {sorted(accepted)}"
        )
    if task is None:
        from repro.data.registry import load_task

        task = load_task(spec.dataset, seed=spec.seed)
    if server is None:
        if n_gpus is None:
            n_gpus = spec.gpu_counts[0]
        server = spec.build_server(n_gpus)
    kwargs = dict(
        hidden=spec.hidden,
        init_seed=spec.seed,
        data_seed=spec.seed,
        eval_samples=spec.eval_samples,
        telemetry=telemetry,
    )
    kwargs.update(options)  # explicit options beat spec-derived defaults
    return cls(task, server, spec.config, **kwargs)


def resolve_model_source(source, version: Optional[int] = None):
    """Resolve what ``make_engine`` accepts to ``(store, snapshot, version)``.

    A string/path is sniffed once: a directory holding a store manifest
    opens as a :class:`~repro.serve.store.SnapshotStore`, anything else
    loads as a snapshot stem. A store serves ``version`` — default: the one
    a subscriber starting at sim time 0 would run — and is returned so the
    engine can subscribe to it; ``store`` is ``None`` for every other
    source and ``snapshot`` is ``None`` for a prebuilt ``Predictor``.
    """
    from pathlib import Path

    from repro.serve.predictor import Predictor
    from repro.serve.snapshot import ModelSnapshot
    from repro.serve.store import MANIFEST_NAME, SnapshotStore

    resolved = source
    if isinstance(resolved, (str, Path)):
        path = Path(resolved)
        if (path / MANIFEST_NAME).exists():
            resolved = SnapshotStore(path, create=False)
        else:
            resolved = ModelSnapshot.load(path)
    if isinstance(resolved, SnapshotStore):
        if version is None:
            version = resolved.version_at(0.0)
            if version is None:
                raise ConfigurationError(
                    f"snapshot store {resolved.root} is empty"
                )
        return resolved, resolved.load(version), version
    if isinstance(resolved, ModelSnapshot):
        return None, resolved, version
    if isinstance(resolved, Predictor):
        return None, None, version
    raise ConfigurationError(
        f"make_engine source must be a snapshot, snapshot path, "
        f"store, store directory, or Predictor; got {type(source).__name__}"
    )


def make_engine(
    source,
    config=None,
    *,
    server: Optional[MultiGPUServer] = None,
    n_gpus: int = 2,
    seed: int = 0,
    version: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    **options,
):
    """Build a :class:`~repro.serve.engine.ServingEngine` for ``source``.

    The serving mirror of :func:`make_trainer`. ``source`` names the model:

    - a :class:`~repro.serve.snapshot.ModelSnapshot`;
    - a snapshot stem / header path (``"model"``,
      ``"model.snapshot.json"``);
    - a :class:`~repro.serve.store.SnapshotStore` instance or a store
      *directory* path — the engine serves the version a subscriber
      starting at sim time 0 would run (``version=`` overrides) and
      **auto-subscribes for hot-swaps**: newer versions published on the
      sim clock are picked up mid-run, warmed off the dispatch path, and
      canary-guarded;
    - a prebuilt :class:`~repro.serve.predictor.Predictor` (advanced:
      ``version`` tags it for pinning, default 0).

    ``config`` is a prebuilt :class:`~repro.serve.config.ServingConfig`;
    alternatively pass its fields as keyword ``options`` — they are
    validated by ``ServingConfig.from_options``, the single layer that
    rejects unknown options early.
    ``server`` overrides the default heterogeneous ``n_gpus``-device server
    (tiny-model cost profile, seeded like the benchmarks).

    Multi-tenant serving rides the same option surface: pass
    ``class_slo_ms`` / ``max_queue_depth`` / ``admission_utilization``
    here (validated by ``ServingConfig``) and tag the request stream at
    serve time — ``engine.serve(..., tenants=..., priority_classes=...)``
    — to get priority-tier + round-robin scheduling with per-class
    adaptive batch sizing and per-tenant isolation accounting on the
    result. A predictor built here has ``Predictor``'s default LSH
    geometry; pass a :class:`~repro.serve.predictor.Predictor` as
    ``source`` for another.
    """
    from repro.gpu.cluster import make_server
    from repro.gpu.cost import GpuCostParams
    from repro.serve.config import ServingConfig
    from repro.serve.engine import ServingEngine
    from repro.serve.predictor import Predictor

    config = ServingConfig.resolve(config, options)
    store, snapshot, version = resolve_model_source(source, version)
    if snapshot is None:
        predictor = source
    else:
        predictor = Predictor(snapshot, lsh_seed=config.lsh_seed)
    if server is None:
        server = make_server(
            n_gpus,
            heterogeneity="het",
            cost_params=GpuCostParams.tiny_model_profile(),
            seed=seed,
        )
    return ServingEngine(
        predictor,
        server,
        config=config,
        store=store,
        base_version=version if version is not None else 0,
        telemetry=telemetry,
    )
