"""The six workloads: fixtures, the timed command list, and output checks.

A workload only ever hands the program argv lists (``repro.cli.main``
in, stdout out). ``fixture`` commands run once per benchmark run, untimed;
``commands`` is one repetition; ``score`` turns a repetition's captured
output into ops, failed ops and the simulated statistics, and is where
every output check lives.

Sizes give repetitions of about two host-seconds on the reference box (2
vCPU Xeon 2.1 GHz); ``smoke`` shrinks them for the self-tests.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional

SIZES = {
    "full": dict(
        micro_budget=0.08, xml_budget=0.056, snapshot_budget=0.1,
        replay_requests=42000, tenant_requests=1000, churn_requests=8000,
        grid_budget=0.01, archive_budget=0.03,
    ),
    "smoke": dict(
        micro_budget=0.01, xml_budget=0.01, snapshot_budget=0.01,
        replay_requests=3000,
        tenant_requests=100, churn_requests=1000, grid_budget=0.003,
        archive_budget=0.003,
    ),
}

ALGORITHMS = ["adaptive", "elastic", "tensorflow", "crossbow", "slide",
              "async", "minibatch"]
#: Pinned training-set sizes (repro.data.registry): ops = epochs x n_train.
N_TRAIN = {"micro": 512, "amazon670k-bench": 8192}
AGGRESSOR_FACTOR = 20


class Result(NamedTuple):
    """One executed command."""
    argv: List[str]
    code: int
    stdout: str
    stderr: str
    seconds: float


class Outcome:
    """What one repetition produced, as judged from its output alone."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0          # ops of commands that broke a check
        self.shed = 0            # requests the scheduler refused by design
        self.sim: Dict[str, float] = {}
        self.errors: List[str] = []
        self.digest: Optional[str] = None  # of outputs that must not vary

    def command(self, result: Result, ops: int, problems: List[str]) -> None:
        """Count one command: any problem fails all of its ops."""
        ops = max(int(ops), 1)
        self.ops += ops
        if result.code != 0:
            problems = [f"exit code {result.code}: "
                        f"{result.stderr.strip()[-200:]}"] + problems
        if problems:
            self.failed += ops
            label = " ".join(result.argv[:3])
            self.errors += [f"{label}: {p}" for p in problems]


#: Executes one argv through the CLI and returns its :class:`Result`.
Run = Callable[[List[str]], Result]


class Workload(NamedTuple):
    why: str
    #: Builds the generated inputs once per benchmark run (untimed) and
    #: returns what ``commands``/``score`` need to know about them.
    fixture: Callable[[SimpleNamespace, Run], dict]
    commands: Callable[[SimpleNamespace, int], List[List[str]]]
    score: Callable[[SimpleNamespace, List[Result]], Outcome]
    #: Untimed check after the timed repetitions: returns simulated
    #: statistics and problems that hold for every repetition.
    verify: Optional[Callable[[SimpleNamespace, Run], tuple]] = None


def no_fixture(ctx, run) -> dict:
    return {}


# -- parsing -------------------------------------------------------------------
def kv(text: str) -> Dict[str, str]:
    """The ``key : value`` rows of the CLI's tables (last one wins)."""
    rows = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" : ")
        if sep:
            rows[key.strip()] = value.strip()
    return rows


def number(rows: Dict[str, str], key: str) -> float:
    """A printed number, or NaN when the row is absent or not numeric."""
    try:
        return float(rows[key])
    except (KeyError, ValueError):
        return math.nan


def sim_throughput(report: dict) -> float:
    """Samples per simulated second over every run of an ``analyze --json``
    report."""
    runs = [r["attribution"] for r in report["runs"]]
    samples = sum(d["samples"] for a in runs for d in a["devices"])
    return samples / sum(a["run_span_s"] for a in runs)


def grid_report_problems(report: dict) -> List[str]:
    """The archive must hold all seven runs with exact time attribution."""
    problems = []
    if len(report["runs"]) != len(ALGORITHMS):
        problems.append(f"{len(report['runs'])} runs in archive, "
                        f"expected {len(ALGORITHMS)}")
    worst = max(r["attribution"]["max_residual"] for r in report["runs"])
    if not worst <= 1e-6:
        problems.append(f"attribution max_residual {worst} > 1e-6")
    return problems


# -- train ---------------------------------------------------------------------
def _saved_throughput(npz: Path) -> float:
    """Samples per simulated second at the last checkpoint of a saved trace.

    The printed ``epochs`` only moves in whole mega-batches (0.6 epoch on
    amazon670k-bench), which would make this metric jump by 12% between
    seeds; the saved checkpoint carries the simulated time it was taken at.
    """
    import numpy as np  # the program has it loaded; the parent never needs it

    with np.load(npz) as arrays:
        return float(arrays["samples"][-1] / arrays["time_s"][-1])


def _train(dataset: str, budget: str, floor: float, why: str) -> Workload:
    def commands(ctx, rep):
        return [["train", "--dataset", dataset,
                 "--time-budget-s", str(ctx.size[budget]),
                 "--gpus", "4", "--save", "T"]]

    def score(ctx, results):
        out = Outcome()
        rows = kv(results[0].stdout)
        accuracy = number(rows, "best accuracy")
        epochs = number(rows, "epochs")
        problems = []
        if not math.isfinite(epochs) or epochs <= 0:
            problems.append(f"epochs {epochs}")
            epochs = 0.0
        if not ctx.smoke and not accuracy >= floor:
            problems.append(f"best accuracy {accuracy} below floor {floor}")
        elif not math.isfinite(accuracy):
            problems.append(f"best accuracy {accuracy}")
        samples = round(epochs * N_TRAIN[dataset])
        try:
            sim_ops_per_s = _saved_throughput(ctx.cwd / "T.npz")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"--save trace T.npz is unreadable: {exc!r}")
            sim_ops_per_s = math.nan
        if not (ctx.cwd / "T.json").exists():
            problems.append("--save wrote no T.json")
        out.command(results[0], samples, problems)
        out.sim = {"accuracy": accuracy, "sim_epochs": epochs,
                   "sim_ops_per_s": sim_ops_per_s}
        return out

    return Workload(why, no_fixture, commands, score)


# -- serve ---------------------------------------------------------------------
def _snapshot_fixture(ctx, run):
    run(["snapshot", str(ctx.fixture / "M"), "--dataset", "micro",
         "--time-budget-s", str(ctx.size["snapshot_budget"]), "--gpus", "2"])
    return {}


def _score_single_serve(out: Outcome, result: Result, offered: int) -> dict:
    """One single-tenant serve command: everything offered is served."""
    rows = kv(result.stdout)
    served = number(rows, "requests")
    problems = []
    if served != offered:
        problems.append(f"served {served} of {offered} offered")
    out.command(result, offered, problems)
    return rows


def _replay_commands(ctx, rep):
    return [["serve", str(ctx.fixture / "M"), "--mode", "adaptive",
             "--requests", str(ctx.size["replay_requests"]), "--gpus", "2"]]


def _replay_score(ctx, results):
    out = Outcome()
    rows = _score_single_serve(out, results[0], ctx.size["replay_requests"])
    out.sim = {
        "sim_p99_ms": number(rows, "p99 latency (ms)"),
        "sim_ops_per_s": number(rows, "throughput (rps)"),
        "offered_rps": number(rows, "offered load (rps)"),
    }
    return out


def _tenants_commands(ctx, rep):
    model = str(ctx.fixture / "M")
    return [
        ["serve", model, "--tenants",
         "--requests", str(ctx.size["tenant_requests"]),
         "--aggressor-factor", str(AGGRESSOR_FACTOR),
         "--max-queue-depth", "64", "--gpus", "2"],
        ["serve", model, "--mode", "adaptive", "--churn", "spot-churn",
         "--autoscale", "--requests", str(ctx.size["churn_requests"]),
         "--gpus", "2"],
    ]


def _tenants_score(ctx, results):
    out = Outcome()
    rows = kv(results[0].stdout)
    n_victim = ctx.size["tenant_requests"]
    # The CLI derives the aggressor count as int(rate x duration), which is
    # factor x n_victim / 0.6 up to one float truncation.
    offered = n_victim + round(AGGRESSOR_FACTOR * n_victim / 0.6)
    served = (number(rows, "victim completed")
              + number(rows, "aggressor completed"))
    shed = number(rows, "victim shed") + number(rows, "aggressor shed")
    problems = []
    if not abs(served + shed - offered) <= 1:
        problems.append(f"served {served} + shed {shed} != offered {offered}")
        shed = 0
    out.command(results[0], offered, problems)
    out.shed = int(shed)
    tenant_rps = (number(rows, "victim throughput (rps)")
                  + number(rows, "aggressor throughput (rps)"))
    churn = _score_single_serve(out, results[1], ctx.size["churn_requests"])
    churn_rps = number(churn, "throughput (rps)")
    # Served requests over simulated seconds, across both commands.
    sim_s = served / tenant_rps + ctx.size["churn_requests"] / churn_rps
    out.sim = {
        "sim_p99_ms": number(rows, "victim p99 contended (ms)"),
        "sim_ops_per_s": (served + ctx.size["churn_requests"]) / sim_s,
        "offered_rps": (number(rows, "victim rate (rps)")
                        + number(rows, "aggressor rate (rps)")),
    }
    return out


# -- trace / analyze -----------------------------------------------------------
def _grid_argv(budget, out: Path, registry: Path) -> List[str]:
    return ["trace", "--dataset", "micro", "--time-budget-s", str(budget),
            "--gpus", "4", "--algorithms", *ALGORITHMS,
            "--out", str(out), "--registry", str(registry)]


def _grid_commands(ctx, rep):
    # A fresh registry per repetition, so every one registers seven runs
    # into an empty index.
    return [_grid_argv(ctx.size["grid_budget"], ctx.cwd / "G",
                       ctx.cwd / f"R{rep}")]


def _count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def _grid_score(ctx, results):
    out = Outcome()
    problems = []
    records = _count_lines(ctx.cwd / "G.telemetry.jsonl")
    if records == 0:
        problems.append("no telemetry records written")
    if not (ctx.cwd / "G.trace.json").exists():
        problems.append("no Chrome trace written")
    out.command(results[0], records, problems)
    return out


def _grid_verify(ctx, run):
    """Re-read the last repetition's archive through ``repro analyze``."""
    result = run(["analyze", str(ctx.cwd / "G.telemetry.jsonl"), "--json"])
    try:
        report = json.loads(result.stdout)
    except ValueError as exc:
        return {}, [f"analyze --json of the written archive: {exc}"]
    return ({"sim_ops_per_s": sim_throughput(report)},
            grid_report_problems(report))


def _archive_fixture(ctx, run):
    registry = ctx.fixture / "R"
    run(_grid_argv(ctx.size["archive_budget"], ctx.fixture / "A", registry))
    listing = json.loads(run(["runs", "ls", "--json", "--limit", "0",
                              "--registry", str(registry)]).stdout)
    by_index = {r["manifest"]["trace_run_index"]: r["manifest"]["run_id"]
                for r in listing}
    return {
        "run_ids": [by_index[i] for i in range(len(ALGORITHMS))],
        "archive_records": _count_lines(ctx.fixture / "A.telemetry.jsonl"),
    }


def _archive_commands(ctx, rep):
    archive = str(ctx.fixture / "A.telemetry.jsonl")
    registry = ["--registry", str(ctx.fixture / "R")]
    ids = ctx.info["run_ids"]
    n = len(ALGORITHMS)
    return (
        [["analyze", archive, "--json"], ["analyze", archive]]
        + [["analyze", archive, "--run", str(i), "--json"] for i in range(n)]
        + [["compare", archive, archive, "--run-a", "0", "--run-b", str(i),
            "--json"] for i in (1, 2, 3)]
        + [["runs", "diff", ids[0], ids[i], "--json", *registry]
           for i in (1, 2, 3)]
        + [["runs", "ls", "--json", *registry],
           ["runs", "show", ids[0], *registry],
           ["runs", "history", "duration_s", "--kind", "train", *registry]]
    )


def _archive_score(ctx, results):
    out = Outcome()
    digest = hashlib.sha256()
    records = ctx.info["archive_records"]
    report = None
    for result in results:
        argv = result.argv
        loads = 0 if argv[0] == "runs" and argv[1] != "diff" else (
            1 if argv[0] == "analyze" else 2)
        problems = []
        if "--json" in argv:
            digest.update(result.stdout.encode())
            try:
                parsed = json.loads(result.stdout)
            except ValueError as exc:
                problems.append(f"--json output does not parse: {exc}")
            else:
                if report is None:
                    report = parsed
                    problems += grid_report_problems(report)
        elif not result.stdout.strip():
            problems.append("printed nothing")
        out.command(result, records * loads, problems)
    out.digest = digest.hexdigest()
    if report is not None:
        out.sim = {"sim_ops_per_s": sim_throughput(report)}
    return out


WORKLOADS: Dict[str, Workload] = {
    "train-micro": _train(
        "micro", "micro_budget", 0.5,
        "canonical train command; thousands of ~0.26 ms steps, so per-call "
        "overhead (scipy constructors, gather, scheduler, event loop) "
        "dominates"),
    "train-xml": _train(
        "amazon670k-bench", "xml_budget", 0.25,
        "same trainer in the per-element regime: ~2 ms steps over "
        "(n,1536) logits and a 768-wide first layer; loss and dense "
        "updates dominate"),
    "serve-replay": Workload(
        "single-tenant saturated open-loop replay; the sim event core and "
        "the predictor dominate, training numerics do nothing",
        _snapshot_fixture, _replay_commands, _replay_score),
    "serve-tenants": Workload(
        "same serve layers used differently: two priority classes, DRR, "
        "displacement and graded shedding, then membership churn + "
        "autoscaler",
        _snapshot_fixture, _tenants_commands, _tenants_score),
    "trace-grid": Workload(
        "write side of observability and every other trainer: telemetry "
        "on, JSONL + Chrome export, seven registry registrations, six "
        "baselines incl. SLIDE",
        no_fixture, _grid_commands, _grid_score, _grid_verify),
    "analyze-archive": Workload(
        "read side: JSONL parse and trace analysis over a seven-run "
        "archive via analyze/compare/runs; no training, no sim",
        _archive_fixture, _archive_commands, _archive_score),
}
