"""Command-line interface: ``python -m repro <command>``.

Every paper artifact (``table1``, ``fig1``, ``fig4``, ``fig5``, ``fig6``,
``allreduce``) and every tool (``train``, ``trace``, ``analyze``,
``compare``, ``snapshot``, ``serve``, ``runs ls|show|diff|history|gc``) is
one subcommand: the ``COMMANDS`` table below says what each does and
``python -m repro <command> --help`` lists its flags. ``train``, ``trace``
and ``serve`` register their artifacts when ``--registry DIR`` (or
``$REPRO_REGISTRY``) names an index root, and ``analyze`` / ``compare``
accept registry run ids wherever they accept trace paths.

Each command is one ``_args_<name>`` registrar (its flags) next to one
``_cmd_<name>`` handler (what reads them), joined in the ``COMMANDS`` table:
:func:`build_parser` registers every row, :func:`main` only the one argv
names. A handler reports a user error by raising a
:class:`~repro.exceptions.ReproError`, turns argv into a result and prints
the text :mod:`repro.harness.report` lays out for it; with ``--json`` a
read-side command prints the result's JSON view instead, and
:func:`_print_result` is the one place that choice is made.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import List, Optional

# Module level holds argparse, the error types and two name tables: each
# handler imports the layers it runs, so a read-side command never loads
# the numeric stack (DESIGN.md, "Import layering").
from repro import ENV_REGISTRY
from repro.data.registry import dataset_names
from repro.exceptions import ConfigurationError, ReproError
from repro.gpu.churn import churn_preset_names

__all__ = ["main", "build_parser"]


# -- shared flags and helpers --------------------------------------------------
def _add_time_budget(p: argparse.ArgumentParser, default: float) -> None:
    """The ``--time-budget-s`` flag shared by every training command."""
    p.add_argument(
        "--time-budget-s", type=float, default=default, metavar="SECONDS",
        help="simulated seconds per run",
    )


def _add_registry(p: argparse.ArgumentParser, *, write: bool) -> None:
    """The ``--registry DIR`` flag shared by every registry-aware command.

    Write-side commands (train/trace/serve) register only when the flag or
    ``$REPRO_REGISTRY`` names a root; read-side commands additionally fall
    back to ``.repro-runs``.
    """
    if write:
        help_text = (
            "register this run in the cross-run index at DIR "
            "(default: $REPRO_REGISTRY, else no registration)"
        )
    else:
        help_text = (
            "run-registry root (default: $REPRO_REGISTRY, else .repro-runs)"
        )
    p.add_argument("--registry", metavar="DIR", default=None, help=help_text)


def _add_json(p: argparse.ArgumentParser) -> None:
    """The ``--json`` flag of every read-side command (see
    :func:`_print_result`)."""
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the result as sorted JSON instead of text")


def _registry(path, *, read: bool):
    """The run registry at ``path`` (default ``$REPRO_REGISTRY``).

    Write side (train/trace/serve): registration is opt-in, so ``None``,
    without importing ``registry.index`` (``sqlite3``), when neither names
    a root. Read side: falls back to ``.repro-runs`` and raises
    ``ConfigurationError`` when no index exists there.
    """
    if not (read or path or os.environ.get(ENV_REGISTRY)):
        return None
    from repro.registry.index import default_registry

    return default_registry(path, create=not read, fallback=read)


def _resolve_trace_source(value, registry_path):
    """Resolve a trace argument that may be a path or a registry run id.

    Returns ``(source, run_index, run_id)``: the loadable trace source,
    the indexed run index inside it (``None`` when the argument was a
    plain path), and the resolved run id (``None`` for paths). Existing
    paths always win — a file named like a run id stays a file.
    """
    from pathlib import Path

    if Path(value).exists():
        return value, None, None
    try:
        registry = _registry(registry_path, read=True)
    except ConfigurationError:
        registry = None
    if registry is not None and registry.contains(value):
        record = registry.get(value)
        trace = registry.resolve_trace(value)
        index = record.manifest.get("trace_run_index")
        return str(trace), (int(index) if index is not None else None), value
    return value, None, None


def _print_result(args, to_json, to_text) -> int:
    """The one ``--json`` fork: sorted JSON of ``to_json()``, or the text
    ``to_text(report)`` lays out with :mod:`repro.harness.report`, which
    only the text side imports."""
    if args.as_json:
        import json

        print(json.dumps(to_json(), indent=2, sort_keys=True, allow_nan=False))
    else:
        import repro.harness.report as report

        print(to_text(report))
    return 0


def _spec(args, algorithms, gpu_counts):
    """The methodology one training command runs under."""
    from repro.harness.experiment import grid_spec

    return grid_spec(
        args.dataset, algorithms, gpu_counts, args.time_budget_s,
        seed=args.seed,
    )


def _export_telemetry(tel, out: str):
    """Write ``OUT.trace.json`` + ``OUT.telemetry.jsonl``; return the JSONL's
    path (what a registry archive is then copied from) and the lines that
    name both files."""
    from pathlib import Path

    from repro.telemetry.export import write_trace_files

    stem = Path(out)
    chrome, jsonl = write_trace_files(tel, stem.parent, f"{stem.name}.")
    return jsonl, [f"chrome trace: {chrome}", f"event stream: {jsonl}"]


def _print_comparison(args, a: str, b: str, run_a=None, run_b=None) -> int:
    """``compare`` and ``runs diff``: one engine, one rendering."""
    from repro.telemetry.compare import diff_runs
    from repro.utils.serialization import jsonable

    src_a, idx_a, _ = _resolve_trace_source(a, args.registry)
    src_b, idx_b, _ = _resolve_trace_source(b, args.registry)
    cmp = diff_runs(
        src_a, src_b,
        run_a=run_a if run_a is not None else (idx_a or 0),
        run_b=run_b if run_b is not None else (idx_b or 0),
        target=args.target, noise=args.noise,
    )
    return _print_result(
        args, lambda: jsonable(cmp), lambda r: r.render_comparison(cmp)
    )


# -- paper artifacts -----------------------------------------------------------
def _cmd_datasets(args) -> int:
    for name in dataset_names():
        print(name)
    return 0


def _print_artifact(name: str, **kwargs) -> int:
    """One row of ``harness.paper.ARTIFACTS``: build it, print its text."""
    from repro.harness.paper import run_artifact

    print(run_artifact(name, **kwargs)[1])
    return 0


def _args_table1(p) -> None:
    p.add_argument("--seed", type=int, default=0)


def _cmd_table1(args) -> int:
    return _print_artifact("table1", seed=args.seed)


def _args_fig1(p) -> None:
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)


def _cmd_fig1(args) -> int:
    return _print_artifact("fig1", n_gpus=args.gpus, seed=args.seed)


def _args_tta_grid(p) -> None:
    """``fig4`` and ``fig5`` sweep the same grid."""
    p.add_argument("--dataset", default="amazon670k-bench",
                   choices=dataset_names())
    _add_time_budget(p, 0.3)
    p.add_argument("--gpus", type=int, nargs="+", default=[1, 2, 4])
    p.add_argument("--seed", type=int, default=0)


def _cmd_tta(args) -> int:
    return _print_artifact(
        args.command, dataset=args.dataset, gpu_counts=tuple(args.gpus),
        time_budget_s=args.time_budget_s, seed=args.seed,
    )


def _args_fig6(p) -> None:
    p.add_argument("--dataset", default="amazon670k-bench",
                   choices=dataset_names())
    _add_time_budget(p, 0.3)
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)


def _cmd_fig6(args) -> int:
    return _print_artifact(
        "fig6", dataset=args.dataset, n_gpus=args.gpus,
        time_budget_s=args.time_budget_s, seed=args.seed,
    )


def _cmd_allreduce(args) -> int:
    return _print_artifact("allreduce")


# -- train / trace / analyze / snapshot ----------------------------------------
def _args_train(p) -> None:
    p.add_argument("--dataset", default="amazon670k-bench",
                   choices=dataset_names())
    _add_time_budget(p, 0.3)
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", metavar="STEM",
                   help="save the trace as STEM.json + STEM.npz")
    p.add_argument("--snapshot", metavar="STEM",
                   help="also save the trained model as a serving snapshot "
                        "(STEM.snapshot.json + STEM.snapshot.npz)")
    p.add_argument("--store", metavar="DIR",
                   help="publish the trained model into a snapshot store at "
                        "DIR (`repro serve DIR` hot-swaps versions from it)")
    p.add_argument("--publish-every-s", type=float, default=None,
                   metavar="S",
                   help="with --store: publish a version every S simulated "
                        "seconds during the run (checkpoint-aligned), not "
                        "just once at the end")
    p.add_argument("--churn", default=None, choices=churn_preset_names(),
                   metavar="PROFILE",
                   help="train on an elastic cluster: apply this seeded "
                        "device-lifecycle profile (join/leave/fail/throttle "
                        "events over the time budget; see "
                        "repro.gpu.profiles.CHURN_PRESETS)")
    _add_registry(p, write=True)


def _cmd_train(args) -> int:
    from repro.api import make_trainer
    from repro.harness.report import render_churn, render_train

    if args.publish_every_s is not None and not args.store:
        raise ConfigurationError("--publish-every-s requires --store")
    spec = _spec(args, ("adaptive",), (args.gpus,))
    registry = _registry(args.registry, read=False)
    tel = None
    if registry is not None:
        from repro.telemetry.core import Telemetry

        tel = Telemetry(label=f"train-{args.dataset}")
    membership = None
    server = None
    if args.churn:
        from repro.elastic.membership import ClusterMembership

        server = spec.build_server(args.gpus)
        membership = ClusterMembership(
            server, args.churn,
            duration_s=args.time_budget_s, seed=args.seed,
        )
    trainer = make_trainer(
        "adaptive", spec, telemetry=tel,
        server=server, membership=membership,
    )
    store = None
    if args.store:
        from repro.serve.store import SnapshotStore

        store = SnapshotStore(args.store)
        if args.publish_every_s is not None:
            trainer.publish_snapshot(
                store, every_s=args.publish_every_s,
                time_budget_s=args.time_budget_s,
            )
    trace = trainer.run(time_budget_s=args.time_budget_s)
    print(render_train(trace))
    if membership is not None:
        print(render_churn(args.churn, membership.summary()))
    _save_training_artifacts(args, trainer, trace, store)
    if registry is not None:
        from repro.registry.record import record_train_run

        run_id = record_train_run(
            registry, trace, telemetry=tel, spec=spec,
        )
        print(f"registered: {run_id} (registry {registry.root})")
    return 0


def _save_training_artifacts(args, trainer, trace, store) -> None:
    """``--save`` / ``--snapshot`` / ``--store``, in that order."""
    if args.save:
        from repro.harness.store import save_trace

        json_path, npz_path = save_trace(trace, args.save)
        print(f"saved: {json_path} {npz_path}")
    if args.snapshot:
        header = trainer.save_snapshot(
            args.snapshot, time_budget_s=args.time_budget_s,
        )
        print(f"snapshot: {header}")
    if store is not None:
        if args.publish_every_s is None:
            trainer.publish_snapshot(
                store, time_budget_s=args.time_budget_s,
            )
        print(
            f"store: {store.root} (versions "
            f"{' '.join(f'v{v}' for v in store.versions())})"
        )


def _args_trace(p) -> None:
    p.add_argument("--dataset", default="micro", choices=dataset_names())
    _add_time_budget(p, 0.05)
    p.add_argument("--gpus", type=int, nargs="+", default=[4])
    p.add_argument(
        "--algorithms", nargs="+", default=["adaptive"],
        help="algorithm names (see repro.api.trainer_names)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", metavar="STEM", default="repro-trace",
        help="output stem: STEM.trace.json + STEM.telemetry.jsonl",
    )
    p.add_argument(
        "--summary", action="store_true",
        help="print the time-attribution analysis instead of writing files",
    )
    _add_registry(p, write=True)


def _cmd_trace(args) -> int:
    from repro.harness.experiment import run_experiment
    from repro.harness.report import render_analysis, render_telemetry_summary
    from repro.telemetry.core import Telemetry

    spec = _spec(args, args.algorithms, args.gpus)
    tel = Telemetry(label=args.out)
    registry = _registry(args.registry, read=False)
    results = run_experiment(spec, telemetry=tel)
    print(render_telemetry_summary(tel))
    print()
    jsonl = None
    if args.summary:
        print(render_analysis(tel))
    else:
        jsonl, lines = _export_telemetry(tel, args.out)
        print("\n".join(lines))
        print(
            "open the trace in Perfetto (https://ui.perfetto.dev) or "
            "chrome://tracing — one process per run, one thread per device"
        )
    if registry is not None:
        from repro.registry.record import record_experiment

        record_experiment(
            registry, results, spec=spec, telemetry=tel, telemetry_jsonl=jsonl,
        )
        print(f"registered grid in {registry.root}", file=sys.stderr)
    return 0


def _args_analyze(p) -> None:
    p.add_argument(
        "trace",
        help="a .telemetry.jsonl archive (not the .trace.json export), a "
             "run directory containing telemetry.jsonl, or a registry run "
             "id (resolved through --registry)",
    )
    p.add_argument(
        "--run", type=int, default=None,
        help="analyze only this run index (default: every run in the "
             "trace, or the indexed run for a registry run id)",
    )
    _add_json(p)
    p.add_argument(
        "--promtext", metavar="PATH", default=None,
        help="also write a Prometheus text exposition of the analysed runs",
    )
    p.add_argument(
        "--width", type=int, default=64,
        help="utilization timeline width in characters",
    )
    _add_registry(p, write=False)


def _cmd_analyze(args) -> int:
    from repro.telemetry.analyze import analyze_report
    from repro.telemetry.trace_data import load_trace_data

    source, run_index, run_id = _resolve_trace_source(
        args.trace, args.registry
    )
    run = args.run if args.run is not None else run_index
    data = load_trace_data(source, runs=None if run is None else {run})
    _print_result(
        args, lambda: analyze_report(data, run=run),
        lambda r: r.render_analysis(data, run=run, width=args.width),
    )
    if args.promtext:
        from repro.telemetry.promtext import write_promtext

        path = write_promtext(data, args.promtext, run=run, run_id=run_id)
        print(f"prometheus exposition: {path}", file=sys.stderr)
    return 0


def _args_snapshot(p) -> None:
    p.add_argument("stem", metavar="STEM",
                   help="output stem: STEM.snapshot.json + STEM.snapshot.npz")
    p.add_argument("--dataset", default="micro", choices=dataset_names())
    p.add_argument("--algorithm", default="adaptive",
                   help="trainer registry name (see repro.api.trainer_names)")
    _add_time_budget(p, 0.3)
    p.add_argument("--gpus", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)


def _cmd_snapshot(args) -> int:
    from repro.api import make_trainer
    from repro.harness.report import render_snapshot

    spec = _spec(args, (args.algorithm,), (args.gpus,))
    trainer = make_trainer(args.algorithm, spec)
    trace = trainer.run(time_budget_s=args.time_budget_s)
    header = trainer.save_snapshot(
        args.stem, time_budget_s=args.time_budget_s,
    )
    print(render_snapshot(trace, args.algorithm, trainer.arch.n_params, header))
    return 0


# -- serve -----------------------------------------------------------------------
def _args_serve(p) -> None:
    p.add_argument("snapshot", metavar="STEM",
                   help="snapshot stem (or .snapshot.json path) to serve, "
                        "or a snapshot-store directory (versions published "
                        "on the sim clock then hot-swap in mid-run)")
    p.add_argument("--dataset", default=None, choices=dataset_names(),
                   help="query source (default: the snapshot's dataset)")
    p.add_argument("--mode", default="both",
                   choices=("sequential", "adaptive", "both", "auto"),
                   help="batching mode; 'auto' = adaptive micro-batching "
                        "with the cost-model exact/LSH scoring crossover")
    p.add_argument("--requests", type=int, default=2000,
                   help="number of requests to replay")
    p.add_argument("--rate", type=float, default=None, metavar="RPS",
                   help="offered load (default: ~10x one device's "
                        "sequential capacity, i.e. saturating)")
    p.add_argument("--pattern", default="poisson",
                   choices=("poisson", "burst"))
    p.add_argument("--slo-ms", type=float, default=2.0,
                   help="per-batch latency target for the adaptive sizer")
    p.add_argument("--k", type=int, default=5,
                   help="labels returned per query")
    p.add_argument("--scoring", default=None,
                   choices=("exact", "lsh", "auto"),
                   help="ranking path per batch: exact dense top-k, the "
                        "batched LSH pipeline, or per-batch cost-model "
                        "crossover (default: exact)")
    p.add_argument("--max-queue-depth", type=int, default=None,
                   metavar="N",
                   help="admission-control cap: arrivals beyond N queued "
                        "requests are shed (default: unbounded; 256 with "
                        "--tenants)")
    p.add_argument("--tenants", action="store_true",
                   help="run the multi-tenant noisy-neighbor scenario: a "
                        "class-0 victim tenant at 30%% of cluster capacity "
                        "vs a class-1 aggressor at --aggressor-factor x its "
                        "fair share, solo vs contended, with the per-tenant "
                        "p99 isolation ratio and fairness printed")
    p.add_argument("--aggressor-factor", type=float, default=10.0,
                   metavar="X",
                   help="aggressor offered load as a multiple of its fair "
                        "share (default: 10)")
    p.add_argument("--gpus", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--churn", default=None, choices=churn_preset_names(),
                   metavar="PROFILE",
                   help="serve on an elastic cluster: apply this seeded "
                        "device-lifecycle profile over the arrival window "
                        "(see repro.gpu.profiles.CHURN_PRESETS)")
    p.add_argument("--autoscale", action="store_true",
                   help="enable the queue-depth autoscaler (admit/retire "
                        "devices through the membership event stream)")
    p.add_argument("--out", metavar="STEM", default=None,
                   help="also export serving telemetry: STEM.trace.json + "
                        "STEM.telemetry.jsonl (feed to `repro analyze`)")
    _add_json(p)
    _add_registry(p, write=True)


def _cmd_serve(args) -> int:
    from repro.api import resolve_model_source
    from repro.data.registry import load_task

    if args.tenants and (args.churn or args.autoscale):
        raise ConfigurationError(
            "--churn/--autoscale are not supported with "
            "--tenants (the noisy-neighbor scenario pins its cluster)"
        )
    if not 0 < args.aggressor_factor < float("inf"):
        raise ConfigurationError(
            f"--aggressor-factor must be finite and > 0, got "
            f"{args.aggressor_factor}"
        )
    if not 0 < args.slo_ms < float("inf"):
        raise ConfigurationError(
            f"--slo-ms must be finite and > 0, got {args.slo_ms:g}"
        )
    store, snapshot, _ = resolve_model_source(args.snapshot)
    dataset = args.dataset or str(snapshot.meta.get("dataset", "micro"))
    task = load_task(dataset, seed=args.seed)
    if task.n_features != snapshot.arch.n_features:
        raise ConfigurationError(
            f"dataset {dataset!r} has {task.n_features} features "
            f"but the snapshot expects {snapshot.arch.n_features}"
        )
    # ``--mode auto`` is adaptive micro-batching + the scoring crossover.
    scoring = args.scoring or ("auto" if args.mode == "auto" else "exact")

    registry = _registry(args.registry, read=False)
    tel = None
    if args.out or registry is not None:
        from repro.telemetry.core import Telemetry

        tel = Telemetry(label=f"serve-{dataset}")
    source = store if store is not None else snapshot
    scenario = _serve_noisy_neighbor if args.tenants else _serve_replay
    results, to_json, to_text = scenario(args, source, task, scoring, tel)
    extra = {"scenario": "noisy-neighbor"} if args.tenants \
        else {"scoring": scoring}
    jsonl, notes = _export_telemetry(tel, args.out) if args.out else (None, [])
    if registry is not None:
        from repro.registry.record import record_serve_runs

        run_ids = record_serve_runs(
            registry, results, telemetry=tel, telemetry_jsonl=jsonl,
            extra={"dataset": dataset, **extra},
        )
        notes.append(f"registered: {' '.join(run_ids)} "
                     f"(registry {registry.root})")

    def to_json_alone():  # stdout holds the JSON, so the notes go to stderr
        if notes:
            print("\n".join(notes), file=sys.stderr)
        return to_json()

    return _print_result(args, to_json_alone,
                         lambda report: "\n".join([to_text(report), *notes]))


def _serve_engine(args, source, tel, **options):
    """One engine on a fresh default server, options validated up front."""
    from repro.api import make_engine

    return make_engine(
        source, n_gpus=args.gpus, seed=args.seed, telemetry=tel,
        target_latency_s=args.slo_ms * 1e-3, lsh_seed=args.seed,
        **options,
    )


def _serve_noisy_neighbor(args, source, task, scoring, tel):
    """``--tenants``: a class-0 victim solo, then against an aggressor.
    Returns the contended run as ``results`` with its JSON and text."""
    from repro.serve.loadgen import (
        noisy_neighbor_loads, sample_query_rows, service_time_s,
    )

    depth = args.max_queue_depth if args.max_queue_depth is not None else 256
    engines = [_serve_engine(args, source, tel, mode="adaptive",
                             scoring=scoring, max_queue_depth=depth,
                             class_slo_ms={0: args.slo_ms, 1: args.slo_ms})
               for _ in range(2)]
    X = task.test.X
    capacity = args.gpus / service_time_s(engines[0].predictor,
                                          engines[0].server, X)
    loads = noisy_neighbor_loads(capacity, args.requests,
                                 args.aggressor_factor, args.pattern, args.seed)
    solo, noisy = [
        engine.serve(X, times, k=args.k, tenants=names,
                     priority_classes=classes, row_indices=sample_query_rows(
                         X.shape[0], times.size, seed=args.seed))
        for engine, (times, names, classes)
        in zip(engines, (loads.solo, loads.contended))
    ]
    rates = {"victim_rps": loads.victim_rps,
             "aggressor_rps": loads.aggressor_rps,
             "aggressor_factor": args.aggressor_factor}
    return {"tenants": noisy}, lambda: {
        **rates, "solo": solo.as_dict(), "contended": noisy.as_dict(),
        "fairness": noisy.as_dict().get("fairness"),
        "isolation_ratio": noisy.tenants["victim"]["latency_p99_ms"]
        / solo.tenants["victim"]["latency_p99_ms"],
    }, lambda report: report.render_noisy_neighbor(solo, noisy, **rates)


def _serve_replay(args, source, task, scoring, tel):
    """One arrival schedule per batching mode: the runs, JSON and text."""
    from repro.serve.loadgen import (
        LoadSpec, generate_arrivals, sample_query_rows, service_time_s,
    )

    modes = {"auto": ("adaptive",), "both": ("sequential", "adaptive")}
    engines = {
        mode: _serve_engine(
            args, source, tel, mode=mode, scoring=scoring,
            max_queue_depth=args.max_queue_depth, autoscale=args.autoscale,
        )
        for mode in modes.get(args.mode, (args.mode,))
    }
    first = next(iter(engines.values()))
    store, X = first.store, task.test.X
    if args.rate is not None:
        rate = args.rate
    elif store is not None and store.entries[-1].published_s > 0:
        # Span the training session's publish window (plus slack) so
        # every later version hot-swaps in mid-run.
        rate = args.requests / (store.entries[-1].published_s * 1.2)
    else:
        # Saturating default: ~10x the cluster's sequential capacity.
        rate = 10.0 * args.gpus / service_time_s(first.predictor,
                                                 first.server, X)
    arrivals = generate_arrivals(LoadSpec(
        n_requests=args.requests, rate_rps=rate,
        pattern=args.pattern, seed=args.seed,
    ))
    rows = sample_query_rows(X.shape[0], args.requests, seed=args.seed)
    results = {}
    for mode, engine in engines.items():
        membership = None
        if args.churn or args.autoscale:
            from repro.elastic.membership import ClusterMembership

            membership = ClusterMembership(
                engine.server, args.churn,
                duration_s=float(arrivals[-1]) if args.churn else None,
                seed=args.seed,
            )
        results[mode] = engine.serve(
            X, arrivals, k=args.k, row_indices=rows,
            canary_labels=task.test.Y if store is not None else None,
            membership=membership,
        )
    closing = {}  # JSON key -> (number, its line of text)
    if len(results) == 2:
        ratio = (results["adaptive"].throughput_rps
                 / results["sequential"].throughput_rps)
        closing["adaptive_vs_sequential_throughput"] = (
            ratio, f"adaptive/sequential throughput: {ratio:.2f}x")
    if scoring in ("lsh", "auto"):
        recall = first.predictor.recall_at_k(X[rows[:256]], args.k)
        closing["lsh_recall_at_k"] = (
            recall, f"LSH recall@{args.k} vs exact: {recall:.3f}")
    return results, lambda: {
        "modes": {mode: {**result.as_dict(), "offered_rps": rate}
                  for mode, result in results.items()},
        **{key: number for key, (number, _) in closing.items()},
    }, lambda report: "\n".join([
        *(report.render_serve(
            result, rate, shed=args.max_queue_depth is not None,
            autoscale=args.autoscale,
        ) for result in results.values()),
        *(line for _, line in closing.values()),
    ])


# -- compare / runs --------------------------------------------------------------
def _args_compare(p) -> None:
    p.add_argument("baseline",
                   help="baseline trace archive (or registry run id)")
    p.add_argument("candidate",
                   help="candidate trace archive (or registry run id)")
    p.add_argument(
        "--run-a", type=int, default=None,
        help="run index inside the baseline trace (default 0, or the "
             "indexed run for a registry run id)",
    )
    p.add_argument(
        "--run-b", type=int, default=None,
        help="run index inside the candidate trace (default 0, or the "
             "indexed run for a registry run id)",
    )
    p.add_argument(
        "--target", type=float, default=None,
        help="accuracy target for the TTA delta "
             "(default: the best accuracy both runs reached)",
    )
    p.add_argument(
        "--noise", type=float, default=0.05,
        help="relative threshold below which a phase delta is jitter",
    )
    _add_json(p)
    _add_registry(p, write=False)


def _cmd_compare(args) -> int:
    return _print_comparison(
        args, args.baseline, args.candidate, args.run_a, args.run_b
    )


def _args_runs_ls(p) -> None:
    p.add_argument("--kind", default=None,
                   choices=("train", "serve", "bench"),
                   help="only runs of this kind")
    p.add_argument("--tag", default=None,
                   help="only runs carrying this tag (e.g. bench:hotpath)")
    p.add_argument("--status", default=None, choices=("green", "red"))
    p.add_argument("--limit", type=int, default=20,
                   help="newest N runs (default 20; 0 = all)")
    _add_json(p)
    _add_registry(p, write=False)


def _cmd_runs_ls(args) -> int:
    records = _registry(args.registry, read=True).list(
        kind=args.kind, tag=args.tag, status=args.status,
        limit=args.limit or None,
    )
    return _print_result(
        args, lambda: [r.as_dict() for r in records],
        lambda r: r.render_runs_table(records),
    )


def _args_runs_show(p) -> None:
    p.add_argument("run_id")
    _add_json(p)
    _add_registry(p, write=False)


def _cmd_runs_show(args) -> int:
    record = _registry(args.registry, read=True).get(args.run_id)
    return _print_result(
        args, record.as_dict, lambda r: r.render_run_show(record)
    )


def _args_runs_diff(p) -> None:
    p.add_argument("run_a", help="baseline run id (or trace path)")
    p.add_argument("run_b", help="candidate run id (or trace path)")
    p.add_argument("--target", type=float, default=None,
                   help="accuracy target for the TTA delta")
    p.add_argument("--noise", type=float, default=0.05,
                   help="relative threshold below which a delta is jitter")
    _add_json(p)
    _add_registry(p, write=False)


def _cmd_runs_diff(args) -> int:
    _registry(args.registry, read=True)  # every runs verb needs an index
    return _print_comparison(args, args.run_a, args.run_b)


def _args_runs_history(p) -> None:
    p.add_argument("metric",
                   help="indexed metric name (e.g. duration_s, "
                        "throughput_rps, sections/gather/speedup)")
    p.add_argument("--kind", default=None,
                   choices=("train", "serve", "bench"))
    p.add_argument("--tag", default=None,
                   help="only runs carrying this tag (e.g. bench:hotpath)")
    p.add_argument("--limit", type=int, default=64,
                   help="newest N runs (default 64; 0 = all)")
    p.add_argument("--width", type=int, default=64,
                   help="sparkline width in characters")
    _add_json(p)
    _add_registry(p, write=False)


def _cmd_runs_history(args) -> int:
    history = _registry(args.registry, read=True).metric_history(
        args.metric, kind=args.kind, tag=args.tag,
        limit=args.limit or None,
    )
    return _print_result(
        args,
        lambda: {
            "metric": args.metric,
            "history": [
                {"run_id": run_id, "value": value}
                for run_id, value in history
            ],
        },
        lambda r: r.render_metric_history(
            args.metric, history, width=args.width
        ),
    )


def _args_runs_gc(p) -> None:
    p.add_argument("--keep", type=int, default=20,
                   help="newest runs to keep per kind (default 20)")
    p.add_argument("--dry-run", action="store_true",
                   help="print what would be deleted without deleting")
    _add_registry(p, write=False)


def _cmd_runs_gc(args) -> int:
    doomed = _registry(args.registry, read=True).gc(
        keep=args.keep, dry_run=args.dry_run
    )
    verb = "would delete" if args.dry_run else "deleted"
    print(f"{verb} {len(doomed)} run(s)")
    for run_id in doomed:
        print(run_id)
    return 0


#: ``repro runs <verb>`` -> (help, flag registrar, handler).
RUNS_VERBS = {
    "ls": ("list indexed runs, newest first", _args_runs_ls, _cmd_runs_ls),
    "show": ("one run's manifest + metrics", _args_runs_show, _cmd_runs_show),
    "diff": (
        "compare two indexed runs (same engine as `repro compare`)",
        _args_runs_diff, _cmd_runs_diff,
    ),
    "history": (
        "a metric's trajectory across runs, as a sparkline",
        _args_runs_history, _cmd_runs_history,
    ),
    "gc": (
        "delete old runs (never CI-baseline or pinned ones)",
        _args_runs_gc, _cmd_runs_gc,
    ),
}


def _add_commands(subparsers, table: dict) -> None:
    for name, (help_text, add_arguments, _) in table.items():
        p = subparsers.add_parser(name, help=help_text)
        if add_arguments is not None:
            add_arguments(p)


def _args_runs(p, verbs: dict = RUNS_VERBS) -> None:
    _add_commands(p.add_subparsers(dest="runs_command", required=True), verbs)


def _cmd_runs(args) -> int:
    for flag, floor in (("limit", 0), ("width", 1)):  # before any registry
        if getattr(args, flag, floor) < floor:
            raise ConfigurationError(
                f"--{flag} must be >= {floor}, got {getattr(args, flag)}"
            )
    return RUNS_VERBS[args.runs_command][2](args)


#: ``repro <command>`` -> (help, flag registrar or None, handler), in the
#: order ``--help`` lists them.
COMMANDS = {
    "datasets": ("list registered synthetic datasets", None, _cmd_datasets),
    "table1": ("regenerate Table I", _args_table1, _cmd_table1),
    "fig1": ("per-GPU heterogeneity measurement", _args_fig1, _cmd_fig1),
    "fig4": ("time-to-accuracy for all methods", _args_tta_grid, _cmd_tta),
    "fig5": ("Adaptive SGD vs SLIDE scalability", _args_tta_grid, _cmd_tta),
    "fig6": ("batch scaling + perturbation telemetry", _args_fig6, _cmd_fig6),
    "allreduce": ("ring vs tree merge comparison (§IV)", None, _cmd_allreduce),
    "train": ("run Adaptive SGD once", _args_train, _cmd_train),
    "trace": (
        "run a grid with telemetry; export Chrome trace + JSONL",
        _args_trace, _cmd_trace,
    ),
    "analyze": (
        "time attribution + straggler + convergence findings for a trace",
        _args_analyze, _cmd_analyze,
    ),
    "snapshot": (
        "train a model and save it as a serving snapshot",
        _args_snapshot, _cmd_snapshot,
    ),
    "serve": (
        "replay an open-loop load against a snapshot; print latency",
        _args_serve, _cmd_serve,
    ),
    "compare": (
        "align two recorded runs: per-phase deltas + TTA + regressions",
        _args_compare, _cmd_compare,
    ),
    "runs": (
        "query the cross-run index: ls/show/diff/history/gc",
        _args_runs, _cmd_runs,
    ),
}


def build_parser(commands: dict = COMMANDS) -> argparse.ArgumentParser:
    """The CLI parser of ``commands`` (default all; help and errors use it)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Adaptive Optimization for Sparse Data on "
                    "Heterogeneous GPUs' (IPDPSW 2022).",
    )
    _add_commands(
        parser.add_subparsers(dest="command", required=True), commands
    )
    return parser


def _command_parser(argv: List[str]) -> argparse.ArgumentParser:
    """Only the command ``argv`` names (for ``runs``, only its verb), else
    every one; a narrowed top level prints its errors as the full parser."""
    name, verb = (argv + [None, None])[:2]
    if name not in COMMANDS or (name == "runs" and verb not in RUNS_VERBS):
        return build_parser()
    help_text, add_arguments, handler = COMMANDS[name]
    if name == "runs":
        add_arguments = partial(_args_runs, verbs={verb: RUNS_VERBS[verb]})
    parser = build_parser({name: (help_text, add_arguments, handler)})
    parser.error = lambda message: build_parser().error(message)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _command_parser(argv).parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
