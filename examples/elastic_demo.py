#!/usr/bin/env python
"""Elastic membership: a replica fails mid-training, a replacement joins.

The paper's training loop assumes a fixed device set; real clusters
shed and gain devices (spot preemption, thermal throttling, autoscaling).
This demo drives one adaptive run through an explicit membership
timeline and shows the three guarantees the elastic subsystem makes:

1. **fail** — a replica dies mid-mega-batch. Its in-flight update is
   discarded exactly once (never merged, never double-counted), the
   survivors' batch sizes rescale by the Dynamic-Mini-batch rule
   (``b * n_before / n_after``, learning rate following linearly), and
   the run continues without a restart;
2. **join** — a replacement warm-starts from the current global model at
   a ramped batch size (half the survivors' mean), and Algorithm 1 grows
   it toward parity over subsequent mega-batches;
3. **attribution** — the telemetry stream records every membership event
   as an instant, so ``repro analyze`` can pin the convergence blip to
   the failure: loss straddling each event, before vs after.

Run:  python examples/elastic_demo.py [--budget 0.06]
"""

import argparse

from repro.api import make_trainer
from repro.elastic import ClusterMembership, MembershipEvent, MembershipTimeline
from repro.harness.experiment import ExperimentSpec
from repro.telemetry import Telemetry, load_trace_data
from repro.telemetry.analyze import membership_events

N_GPUS = 4


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=float, default=0.06,
                        help="training budget in simulated seconds")
    args = parser.parse_args()
    budget = args.budget

    # The script: device 2 fails at 40% of the budget; a replacement
    # joins at 70%. Timestamps are sim-clock seconds.
    timeline = MembershipTimeline([
        MembershipEvent(0.4 * budget, "fail", 2),
        MembershipEvent(0.7 * budget, "join", N_GPUS),
    ])

    spec = ExperimentSpec(
        dataset="micro", gpu_counts=(N_GPUS,), time_budget_s=budget,
    )
    server = spec.build_server(N_GPUS)
    tel = Telemetry(label="elastic-demo")
    membership = ClusterMembership(server, timeline, telemetry=tel)
    trainer = make_trainer(
        "adaptive", spec, server=server, telemetry=tel,
        membership=membership,
    )

    print(f"-- training on {N_GPUS} GPUs, fail@{0.4 * budget:.3f}s, "
          f"join@{0.7 * budget:.3f}s --")
    trace = trainer.run(time_budget_s=budget)
    summary = trace.metadata["membership"]
    print(f"  run completed: best accuracy {trace.best_accuracy:.3f} "
          f"({len(trace)} eval points)")
    print(f"  events applied: {summary['by_kind']}  "
          f"(final devices: {summary['final_devices']})")
    print(f"  update ledger: {summary['updates_merged']} merged, "
          f"{summary['updates_discarded']} discarded — the failed "
          f"replica's in-flight work, exactly once\n")

    print("-- what analyze pins to each event --")
    run = load_trace_data(tel).run(0)
    section = membership_events(run)
    envelope = section["active_devices"]
    print(f"  active devices: {envelope['initial']:.0f} -> "
          f"min {envelope['min']:.0f} -> {envelope['final']:.0f}")
    for event in section["events"]:
        line = (f"  t={event['t']:.4f}s  {event['kind']:<5} "
                f"device {event['device']}")
        if "loss_delta" in event:
            line += (f"  loss {event['loss_before']:.4f} -> "
                     f"{event['loss_after']:.4f} "
                     f"(delta {event['loss_delta']:+.4f})")
        print(line)
    fail_events = [e for e in section["events"] if e["kind"] == "fail"]
    if fail_events and "loss_delta" in fail_events[0]:
        blip = fail_events[0]["loss_delta"]
        verdict = ("a visible blip" if blip > 0
                   else "absorbed without a blip")
        print(f"\n  the failure cost {blip:+.4f} loss — {verdict}; the "
              f"joiner then warm-started from the global model and the "
              f"run recovered without restarting.")


if __name__ == "__main__":
    main()
