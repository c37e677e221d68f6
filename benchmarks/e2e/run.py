#!/usr/bin/env python3
"""Host-time end-to-end benchmark for ``repro train / serve / trace / analyze``.

    python benchmarks/e2e/run.py                       # all six workloads
    python benchmarks/e2e/run.py --workloads serve-replay --seed 3
    python benchmarks/e2e/run.py --out A.json          # keep the result set
    python benchmarks/e2e/run.py --check A.json B.json # compare two sets
    python benchmarks/e2e/run.py --workload train-micro --seed 1 \\
        --seconds 6 --trace 0                          # one contract run

End-to-end numbers come from timed repetitions with tracing off; per-layer
numbers from one more repetition under the outside-in tracer. Every
process this starts is a single busy thread, one at a time. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / "_work"  # every file a run writes lives under here
sys.path.insert(0, str(HERE))

from calibration import at_reference_speed  # noqa: E402
from check import check_files  # noqa: E402
from lanes import LANES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh set-ups (child processes) per run with tracing off; ``setup_s`` is
#: their median and each contributes its share of the timed repetitions.
SETUPS = 3
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
CHILD_TIMEOUT_S = 150

#: name -> (unit, better). Bounds live in BENCHMARK.json.
END_TO_END = {
    "host_s": ("s", "lower"),
    "ops_per_host_s": ("ops/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
    "ok_frac": ("ratio", "higher"),
    "sim_ops_per_s": ("ops/sim_s", "higher"),
}
#: Simulated statistics only some workloads print. They cannot be gated
#: end-to-end metrics (every workload must report every one of those), so
#: they are printed with the end-to-end block, compared exactly by
#: ``--check``, and reported under these names in the traced run (0 = n/a).
WORKLOAD_SIM = {
    "accuracy": ("ratio", "higher"),
    "sim_epochs": ("epochs", "higher"),
    "sim_p99_ms": ("sim_ms", "lower"),
}
EXTRAS = {
    "cli.import_s": ("s", "lower"),
    "fixture.build_s": ("s", "lower"),
    "perf.gather.rows": ("count", "lower"),
    "comm.allreduce.bytes": ("B", "lower"),
    "sparse.mlp.loss_and_grad.samples": ("count", "higher"),
    "sim.step.host_us_per_event": ("us", "lower"),
    "sim.step.events_per_op": ("ratio", "lower"),
    "serve.loadgen.offered_rps": ("ops/sim_s", "higher"),
    "serve.queue.shed": ("count", "lower"),
    "serve.queue.batch_mean": ("count", "higher"),
    "serve.predictor.rows": ("count", "lower"),
    "elastic.membership.events": ("count", "lower"),
    "telemetry.export.bytes": ("B", "lower"),
    "telemetry.trace_data.records": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "trace.residual_frac": ("ratio", "lower"),
    "trace.missing_lanes": ("count", "lower"),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name -> (unit, better), in print order."""
    out = {}
    for lane in ["cli", *LANES]:
        out[f"{lane}.calls"] = ("count", "lower")
        out[f"{lane}.self_s"] = ("s", "lower")
    out.update(EXTRAS)
    out.update(WORKLOAD_SIM)
    return out


# -- environment -----------------------------------------------------------------
def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k != "REPRO_REGISTRY" and not k.startswith("REPRO_BENCH_")}
    env.update(THREAD_PINS)
    return env


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git(*args: str):
    """Output of a git command at the repo root, or None outside a repo."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def manifest(seed: int, seconds: float, smoke: bool) -> dict:
    commit = git("rev-parse", "HEAD")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS, "seed": seed,
        "setups": SETUPS, "seconds": seconds, "smoke": smoke,
        "git_commit": commit.strip() if commit else "unknown",
    }


# -- running ---------------------------------------------------------------------
def spawn(tmp: Path, tag: str, spec: dict) -> dict:
    """Run one child to completion in its own directory; return its result."""
    cwd = tmp / tag
    cwd.mkdir()
    spec = dict(spec, src=str(SRC), out=str(tmp / f"{tag}.result.json"))
    spec_path = tmp / f"{tag}.spec.json"
    env = dict(child_env(), TMPDIR=str(cwd))
    spec["spawned_at"] = time.time()
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"child {tag} exceeded {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise SystemExit(f"child {tag} exited {proc.returncode}:\n{err}")
    wall_s = time.time() - spec["spawned_at"]
    if spec["mode"] == "fixture":
        return {"wall_s": wall_s}
    return dict(json.loads(Path(spec["out"]).read_text()), wall_s=wall_s)


def run_workload(name, seed, seconds, *, timed, traced, smoke=False,
                 trace_out=None) -> dict:
    """One benchmark run of one workload: fixture, then the children.

    ``timed`` runs ``SETUPS`` fresh children, each with its share of
    ``seconds`` of timed repetitions; ``traced`` adds the traced repetition
    to the last child (the only child when ``timed`` is off).
    """
    status_before = git("status", "--porcelain")
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        fixture = tmp / "fixture"
        fixture.mkdir()
        base = {"workload": name, "seed": seed, "smoke": smoke,
                "fixture": str(fixture), "mode": "measure"}
        fixture_s = spawn(tmp, "f", dict(base, mode="fixture"))["wall_s"]
        n = SETUPS if timed else 1
        children = [
            spawn(tmp, f"c{i}", dict(
                base, seconds=seconds / SETUPS,
                traced=traced and i == n - 1,
                trace_out=str(trace_out) if trace_out else None,
            ))
            for i in range(n)
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    problems = []
    if tmp.exists():
        problems.append(f"temp dir {tmp} was not removed")
    if git("status", "--porcelain") != status_before:
        problems.append("the run changed `git status --porcelain`")
    return summarize(name, children, fixture_s, problems)


def stats(values, raw=None) -> dict:
    cell = {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}
    if raw is not None:
        cell["raw_median"] = statistics.median(raw)
    return cell


def summarize(name, children, fixture_s, problems) -> dict:
    """Pool the children's samples into metrics and run the cross-checks."""
    outcomes = [o for c in children for o in c["outcomes"]]
    raw_host = [s for c in children for s in c["host_s"]]
    host = [at_reference_speed(s, *c["kernel_s"][i:i + 2])
            for c in children for i, s in enumerate(c["host_s"])]
    setup = [at_reference_speed(c["setup_s"], c["kernel_s"][0])
             for c in children]
    first = outcomes[0]
    for outcome in outcomes:
        problems += outcome["errors"]
        # json.dumps so that NaN == NaN: a missing row is one problem, not two.
        if json.dumps(outcome["sim"], sort_keys=True) != json.dumps(
                first["sim"], sort_keys=True):
            problems.append(
                f"simulated statistics differ between repetitions: "
                f"{first['sim']} vs {outcome['sim']}")
        if outcome["digest"] != first["digest"]:
            problems.append("--json outputs differ between repetitions")
        if (outcome["ops"], outcome["shed"]) != (first["ops"], first["shed"]):
            problems.append("ops or shed counts differ between repetitions")
    attempted = sum(o["ops"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    shed = sum(o["shed"] for o in outcomes)
    sim = first["sim"]
    if not math.isfinite(sim.get("sim_ops_per_s", math.nan)):
        problems.append("no simulated throughput could be read")
    end_to_end = {
        "host_s": stats(host, raw_host),
        "ops_per_host_s": stats([first["ops"] / s for s in host],
                                [first["ops"] / s for s in raw_host]),
        "peak_rss_mb": stats([c["peak_rss_mb"] for c in children]),
        "setup_s": stats(setup, [c["setup_s"] for c in children]),
        "ok_frac": {"value": (attempted - failed - shed) / attempted},
        "sim_ops_per_s": {"value": sim.get("sim_ops_per_s", math.nan)},
    }
    for metric in WORKLOAD_SIM:
        end_to_end[metric] = {"value": sim.get(metric)}  # None = n/a
    result = {
        "workload": name, "attempted": attempted, "failed": failed,
        "shed": shed, "end_to_end": end_to_end, "problems": problems,
        "fixture_s": fixture_s,
        "import_s": stats([c["import_s"] for c in children]),
        "wall_s": fixture_s + sum(c["wall_s"] for c in children),
    }
    trace = children[-1].get("trace")
    if trace is not None:
        # Overhead is fastest traced over fastest untraced repetition of
        # the same process: noise here only ever adds time, and drift
        # between processes would otherwise pass for overhead.
        result["per_layer"], result["trace_notes"] = per_layer(
            trace, result, sim, min(children[-1]["host_s"]))
        result["problems"] += trace["outcome"]["errors"]
    result["correct"] = not result["problems"]
    return result


def per_layer(trace, result, sim, untraced_host_s):
    lanes = trace["lanes"]
    values = {}
    for lane in ["cli", *LANES]:
        cell = lanes.get(lane, {"calls": 0, "self_s": 0.0})
        values[f"{lane}.calls"] = cell["calls"]
        values[f"{lane}.self_s"] = cell["self_s"]
    total = trace["host_s"]
    counters = trace["counters"]
    step = lanes.get("sim.step", {"calls": 0, "self_s": 0.0})
    pops = counters.get("serve.queue.pops", 0)
    values.update({
        "cli.import_s": result["import_s"]["median"],
        "fixture.build_s": result["fixture_s"],
        "sim.step.host_us_per_event":
            1e6 * step["self_s"] / step["calls"] if step["calls"] else 0.0,
        "sim.step.events_per_op": step["calls"] / trace["outcome"]["ops"],
        "serve.loadgen.offered_rps": sim.get("offered_rps", 0.0),
        "serve.queue.batch_mean":
            counters.get("serve.queue.popped", 0) / pops if pops else 0.0,
        "trace.overhead_frac": total / untraced_host_s - 1.0,
        "trace.unattributed_frac": lanes["cli"]["self_s"] / total,
        "trace.residual_frac":
            abs(sum(c["self_s"] for c in lanes.values()) - total) / total,
        "trace.missing_lanes": len(trace["missing"]),
    })
    for name in EXTRAS:
        values.setdefault(name, counters.get(name, 0.0))
    for metric in WORKLOAD_SIM:
        values[metric] = sim.get(metric, 0.0)
    notes = {"missing_lanes": trace["missing"],
             "broken_counters": trace["broken_counters"]}
    return values, notes


# -- printing --------------------------------------------------------------------
def print_result(result: dict) -> None:
    e2e = result["end_to_end"]
    n = e2e["host_s"]["n"]
    print(f"== {result['workload']} ==  {n} timed repetition(s) over "
          f"{e2e['setup_s']['n']} fresh set-up(s); samples this few support "
          "a median and a range, no percentile")
    units = {**END_TO_END, **WORKLOAD_SIM}
    for name, cell in e2e.items():
        unit = units[name][0]
        if "median" in cell:
            raw = (f"  raw median {cell['raw_median']:.6g}"
                   if "raw_median" in cell else "")
            print(f"  {name:<16} {cell['median']:>14.6g} {unit:<10} "
                  f"min {cell['min']:.6g}  max {cell['max']:.6g}  "
                  f"n={cell['n']}{raw}")
        elif cell["value"] is None:
            print(f"  {name:<16} {'n/a':>14}")
        else:
            print(f"  {name:<16} {cell['value']:>14.6g} {unit}")
    print(f"  attempted {result['attempted']} ops, failed {result['failed']}, "
          f"shed by design {result['shed']}")
    if "per_layer" in result:
        values = result["per_layer"]
        units = per_layer_metrics()
        total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        print(f"  per-layer, one traced repetition of {total:.4f} s "
              "(self time = span minus child spans)")
        for lane in ["cli", *LANES]:
            self_s = values[f"{lane}.self_s"]
            moves = LANES[lane].moves if lane in LANES else "setup_s"
            print(f"    {lane + '.calls':<34} {values[f'{lane}.calls']:>8}   "
                  f"{lane + '.self_s':<35} {self_s:>8.4f} s "
                  f"{100 * self_s / total:5.1f}%  moves {moves}")
        for name in [*EXTRAS, *WORKLOAD_SIM]:
            print(f"    {name:<36} {values[name]:>14.6g} {units[name][0]}")
        for kind, entries in result["trace_notes"].items():
            for target, reason in entries.items():
                print(f"    {kind}: {target}: {reason}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def contract_line(result: dict, trace: bool) -> str:
    """The one JSON object the benchmark contract asks for."""
    if trace:
        units = per_layer_metrics()
        metrics = {k: {"value": v, "unit": units[k][0]}
                   for k, v in result["per_layer"].items()}
    else:
        cells = result["end_to_end"]
        metrics = {
            name: {"value": cells[name].get("median", cells[name].get("value")),
                   "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


# -- entry point -----------------------------------------------------------------
def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="host seconds of timed repetitions per workload")
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="contract mode: one workload, one JSON line last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--trace-out", type=Path,
                        help="write the traced repetition's spans here")
    parser.add_argument("--out", type=Path, help="write the result set here")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken sizes for the self-tests; numbers "
                             "from a smoke run mean nothing")
    parser.add_argument("--check", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two result sets; exit 1 if B is worse")
    parser.add_argument("--allow-manifest-mismatch", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    if args.check:
        return check_files(*args.check, bounds=bounds,
                           force=args.allow_manifest_mismatch)
    if not (SRC / "repro" / "cli.py").exists():
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2

    if args.workload:
        trace = bool(args.trace)
        result = run_workload(
            args.workload, args.seed, args.seconds, timed=not trace,
            traced=trace, smoke=args.smoke, trace_out=args.trace_out)
        print_result(result)
        print(contract_line(result, trace))
        return 0 if result["correct"] else 1

    results = []
    for name in args.workloads:
        trace_out = None
        if args.trace_out:
            trace_out = args.trace_out.with_name(
                f"{args.trace_out.stem}.{name}{args.trace_out.suffix}")
        results.append(run_workload(
            name, args.seed, args.seconds, timed=True, traced=True,
            smoke=args.smoke, trace_out=trace_out))
        print_result(results[-1])
        print()
    if args.out:
        args.out.write_text(json.dumps({
            "manifest": manifest(args.seed, args.seconds, args.smoke),
            "results": results,
        }, indent=1))
    bad = [r["workload"] for r in results if not r["correct"]]
    print(f"total {sum(r['wall_s'] for r in results):.1f} s; "
          + (f"FAILED checks on: {' '.join(bad)}" if bad else "all checks ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
