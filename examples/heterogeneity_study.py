#!/usr/bin/env python
"""Heterogeneity study: Figure 1 + Figure 6 in one script.

Part 1 reproduces Figure 1: the same training epoch timed on every GPU of
the virtual server, showing the fastest↔slowest gap, and how the gap reacts
to the configured base spread.

Part 2 reproduces Figure 6: one Adaptive SGD run on the heterogeneous
server, showing each GPU's batch size trajectory (6a) and the perturbation
activation frequency (6b), plus the replica-staleness telemetry that batch
size scaling is designed to eliminate.

Run:  python examples/heterogeneity_study.py [--budget 0.25]
"""

import argparse

from repro.core.staleness import staleness_bound
from repro.harness.figures import fig1_heterogeneity, fig6_adaptivity
from repro.harness.report import render_fig1, render_fig6
from repro.utils.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=0.25)
    parser.add_argument("--dataset", default="amazon670k-bench")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # ---- Part 1: Figure 1 -------------------------------------------------
    print("Part 1 — per-GPU epoch time on an identical batch\n")
    rows = fig1_heterogeneity(dataset=args.dataset, seed=args.seed)
    print(render_fig1(rows))

    print("\nGap as a function of the configured base spread:")
    sweep_rows = []
    for max_gap in (0.0, 0.1, 0.2, 0.32):
        rows = fig1_heterogeneity(
            dataset=args.dataset, seed=args.seed, max_gap=max_gap
        )
        observed = max(r["relative_slowdown"] for r in rows)
        sweep_rows.append([f"{max_gap:.0%}", f"{observed:.1%}"])
    print(format_table(["configured base gap", "observed epoch-time gap"],
                       sweep_rows))

    # ---- Part 2: Figure 6 -------------------------------------------------
    print("\nPart 2 — Adaptive SGD's reaction to the heterogeneity\n")
    trace = fig6_adaptivity(
        args.dataset, n_gpus=4, time_budget_s=args.budget, seed=args.seed,
    )
    print(render_fig6(trace))

    cfg = trace.metadata["config"]
    bound = staleness_bound(cfg.mega_batch_size, cfg.b_min, cfg.b_max, 4)
    staleness = [b.staleness for b in trace.boundaries]
    print(f"\nstaleness per mega-batch: {staleness[:12]} ...")
    print(f"analytic staleness bound: {bound:.0f} updates "
          f"(observed max: {max(staleness)})")
    print(f"best accuracy reached: {trace.best_accuracy:.3f}")


if __name__ == "__main__":
    main()
