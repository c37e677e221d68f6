#!/usr/bin/env python
"""Reproduce the paper's entire evaluation section in one run.

Executes Figure 1, Table I, Figure 4 (both datasets × {1,2,4} GPUs ×
4 methods), Figure 5 (both datasets, Adaptive vs SLIDE), Figure 6, and the
§IV all-reduce study, then prints the full report. With ``--out DIR`` the
report text is saved to ``DIR/report.txt`` and every Figure 4 and Figure 5
training run is registered in a run registry at ``DIR``, for
``python -m repro runs ls --registry DIR`` and the other ``runs`` verbs.

Expect a few minutes of runtime at the default budget; pass a smaller
``--budget`` for a quick pass.

Run:  python examples/full_reproduction.py [--budget 0.3] [--out results/]
"""

import argparse
from pathlib import Path

from repro.harness.paper import reproduce_all
from repro.registry.index import RunRegistry
from repro.registry.record import record_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=0.3,
                        help="simulated seconds per training run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for the report and a run registry "
                             "of every traced run")
    args = parser.parse_args()

    report = reproduce_all(
        time_budget_s=args.budget, seed=args.seed,
        progress=lambda msg: print(f"[run] {msg}", flush=True),
    )
    print()
    print(report.render())

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "report.txt").write_text(report.render() + "\n")
        registry = RunRegistry(args.out)
        n_runs = 0
        for figure, grids in (("fig4", report.fig4), ("fig5", report.fig5)):
            for dataset, traces in grids.items():
                record_experiment(
                    registry, traces, spec={"figure": figure, "dataset": dataset}
                )
                n_runs += len(traces)
        print(f"\nsaved report.txt and registered {n_runs} runs under {args.out}/")


if __name__ == "__main__":
    main()
