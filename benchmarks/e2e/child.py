"""One measuring process: ``python child.py SPEC.json``.

The parent (``run.py``) starts one of these at a time. A child imports the
program, runs one warm-up repetition, then timed repetitions with tracing
off, reads its peak RSS, and optionally runs one more repetition under the
tracer. With ``"mode": "fixture"`` it only builds the workload's inputs.
Results go to the JSON file named in the spec; the program's stdout and
stderr are captured per command and never reach this process's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SEEDED_COMMANDS = {"train", "trace", "snapshot", "serve"}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    from repro.cli import main as cli_main
    import_s = time.perf_counter() - t0

    from calibration import calibrate
    from lanes import COUNTERS, LANES
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS, Result

    def run(argv):
        argv = list(argv)
        if argv[0] in SEEDED_COMMANDS:
            argv += ["--seed", str(spec["seed"])]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - t0
        return Result(argv, code, out.getvalue(), err.getvalue(), seconds)

    workload = WORKLOADS[spec["workload"]]
    fixture_dir = Path(spec["fixture"])
    ctx = SimpleNamespace(
        seed=spec["seed"], smoke=spec["smoke"],
        size=SIZES["smoke" if spec["smoke"] else "full"],
        cwd=Path.cwd(), fixture=fixture_dir, info={},
    )
    info_path = fixture_dir / "info.json"

    if spec["mode"] == "fixture":
        def must_run(argv):
            result = run(argv)
            if result.code != 0:
                raise SystemExit(
                    f"fixture command {result.argv} failed: {result.stderr}"
                )
            return result

        info_path.write_text(json.dumps(workload.fixture(ctx, must_run)))
        return 0

    ctx.info = json.loads(info_path.read_text())

    def repetition(index):
        results = [run(argv) for argv in workload.commands(ctx, index)]
        outcome = workload.score(ctx, results)
        return sum(r.seconds for r in results), outcome

    repetition(0)  # warm-up: imports, first-call caches, allocator
    setup_s = time.time() - spec["spawned_at"]

    # kernel_s[i] and kernel_s[i + 1] bracket timed repetition i.
    kernel_s = [calibrate()]
    samples, outcomes = [], []
    measured = 0.0
    while not samples or measured < spec["seconds"]:
        seconds, outcome = repetition(len(samples) + 1)
        kernel_s.append(calibrate())
        samples.append(seconds)
        outcomes.append(outcome)
        measured += seconds
    # ru_maxrss is KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if workload.verify is not None:
        sim, problems = workload.verify(ctx, run)
        for outcome in outcomes:
            outcome.sim.update(sim)
            if problems:
                outcome.failed = outcome.ops
                outcome.errors += problems

    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "host_s": samples,
        "kernel_s": kernel_s,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": [vars(o) for o in outcomes],
    }

    if spec["traced"]:
        lanes = {name: lane.targets for name, lane in LANES.items()}
        counted = {name: lane.counted for name, lane in LANES.items()
                   if lane.counted}
        # Two traced repetitions, the less disturbed one kept: a single
        # sample would report a noisy neighbour as tracing overhead.
        kept = None
        for index in (len(samples) + 1, len(samples) + 2):
            tracer = Tracer()
            with tracer.tracing(lanes, COUNTERS, counted):
                results = [run(argv) for argv in workload.commands(ctx, index)]
            outcome = workload.score(ctx, results)
            if kept is None or tracer.root_s < kept[0].root_s:
                kept = tracer, outcome
        tracer, outcome = kept
        result["trace"] = {
            "host_s": tracer.root_s,
            "outcome": vars(outcome),
            "lanes": tracer.lane_stats(),
            "counters": tracer.counters,
            "missing": tracer.missing,
            "broken_counters": tracer.broken_counters,
        }
        if spec.get("trace_out"):
            Path(spec["trace_out"]).write_text(json.dumps(tracer.as_dict()))

    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
