"""The lane table: which public callables of the program form each layer.

One row per lane: the ``module:attr`` targets the tracer wraps, the
end-to-end metric a faster lane should move, and the workloads on which it
should show. Later changes may not edit this directory, so a target that
stops resolving is skipped and listed under ``trace.missing_lanes``.

``COUNTERS`` attaches a work count to single targets, taken from the
call's arguments or result at the same boundary the span is recorded.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple, Tuple


class Lane(NamedTuple):
    targets: List[str]
    moves: str  # the end-to-end metric(s) this lane should move
    on: str     # the workloads it should move them on
    #: Callables only counted into ``<lane>.calls``; ``targets`` are then
    #: the loops that call them and carry the lane's time.
    counted: Tuple[str, ...] = ()


LANES: Dict[str, Lane] = {
    "data.registry": Lane(
        ["repro.data.registry:load_task"],
        "host_s", "train-xml"),
    "data.batching": Lane(
        ["repro.data.batching:BatchCursor.next_batch"],
        "host_s", "train-micro"),
    "perf.gather": Lane(
        ["repro.perf.gather:RowGatherer.gather"],
        "host_s", "train-micro; serve-* once serving is routed through it"),
    "core.scheduler": Lane(
        ["repro.core.scheduler:DynamicScheduler.try_dispatch",
         "repro.core.scheduler:DynamicScheduler.record_completion",
         "repro.core.scheduler:DynamicScheduler.mega_batch_boundary"],
        "host_s", "train-micro"),
    "core.scaling": Lane(
        ["repro.core.scaling:scale_batch_sizes",
         "repro.core.scaling:rescale_for_membership"],
        "sim_epochs, accuracy", "train-*"),
    "core.merging": Lane(
        ["repro.core.merging:merge_models",
         "repro.core.merging:compute_merge_weights"],
        "host_s; accuracy", "train-xml"),
    "comm.allreduce": Lane(
        ["repro.comm.ring:RingAllReduce.reduce",
         "repro.comm.tree:TreeAllReduce.reduce",
         "repro.comm.halving_doubling:HalvingDoublingAllReduce.reduce"],
        "host_s", "train-xml, trace-grid"),
    "sparse.mlp.loss_and_grad": Lane(
        ["repro.sparse.mlp:SparseMLP.loss_and_grad"],
        "host_s, ops_per_host_s", "train-xml, train-micro, trace-grid"),
    "sparse.loss": Lane(
        ["repro.sparse.loss:softmax_cross_entropy"],
        "host_s", "train-xml, train-micro"),
    "sparse.mlp.forward": Lane(
        ["repro.sparse.mlp:SparseMLP.forward",
         "repro.sparse.mlp:SparseMLP.predict_batched"],
        "host_s", "serve-*, train-*"),
    "sparse.mlp.evaluate": Lane(
        ["repro.sparse.mlp:SparseMLP.evaluate"],
        "host_s", "train-xml"),
    "sparse.model_state": Lane(
        ["repro.sparse.model_state:ModelState.add_scaled",
         "repro.sparse.model_state:ModelState.copy",
         "repro.sparse.model_state:ModelState.l2_norm"],
        "host_s", "train-xml"),
    "gpu.cost": Lane(
        ["repro.gpu.device:VirtualGPU.step_time",
         "repro.gpu.device:VirtualGPU.model_transfer_time"],
        "host_s", "train-micro"),
    # Spans around the two event loops, calls counted per event: a span per
    # Environment.step call alone costs ~10% of a serve repetition.
    "sim.step": Lane(
        ["repro.sim.environment:Environment.run",
         "repro.sim.environment:Environment.run_until_complete"],
        "host_s, ops_per_host_s", "serve-replay, serve-tenants",
        counted=("repro.sim.environment:Environment.step",)),
    "perf.slide_kernel": Lane(
        ["repro.perf.slide_kernel:slide_chunk_step"],
        "host_s", "trace-grid"),
    "harness.trainer_base": Lane(
        ["repro.harness.trainer_base:TrainerBase.evaluate",
         "repro.harness.trainer_base:TrainerBase.record_checkpoint"],
        "host_s", "train-xml"),
    "harness.experiment": Lane(
        ["repro.harness.experiment:run_experiment"],
        "host_s", "trace-grid"),
    "harness.store": Lane(
        ["repro.harness.store:save_trace"],
        "host_s", "train-*"),
    "harness.report": Lane(
        ["repro.harness.report:render_analysis",
         "repro.harness.report:render_telemetry_summary",
         "repro.harness.report:render_comparison"],
        "host_s", "analyze-archive, trace-grid"),
    "serve.snapshot": Lane(
        ["repro.serve.snapshot:ModelSnapshot.load"],
        "host_s", "serve-*"),
    "serve.loadgen": Lane(
        ["repro.serve.loadgen:generate_arrivals",
         "repro.serve.loadgen:generate_multi_tenant_arrivals",
         "repro.serve.loadgen:sample_query_rows"],
        "host_s", "serve-*"),
    "serve.engine": Lane(
        ["repro.serve.engine:ServingEngine.serve"],
        "host_s, peak_rss_mb", "serve-replay"),
    "serve.queue": Lane(
        ["repro.serve.queue:TenantScheduler.push",
         "repro.serve.queue:TenantScheduler.pop_batch"],
        "host_s; ok_frac, sim_p99_ms", "serve-tenants, serve-replay"),
    "serve.sizer": Lane(
        ["repro.serve.queue:AdaptiveBatchSizer.observe"],
        "sim_p99_ms", "serve-*"),
    "serve.predictor": Lane(
        ["repro.serve.predictor:Predictor.topk",
         "repro.serve.predictor:Predictor.topk_lsh"],
        "host_s", "serve-replay, serve-tenants"),
    "elastic.membership": Lane(
        ["repro.elastic.membership:ClusterMembership.poll",
         "repro.elastic.membership:ClusterMembership.admit",
         "repro.elastic.membership:ClusterMembership.retire"],
        "host_s, sim_p99_ms", "serve-tenants (churn command)"),
    "telemetry.record": Lane(
        ["repro.telemetry.core:Telemetry.span",
         "repro.telemetry.core:Telemetry.instant",
         "repro.telemetry.core:Telemetry.record_span",
         "repro.telemetry.core:Telemetry.counter",
         "repro.telemetry.core:Telemetry.gauge"],
        "host_s", "trace-grid; calls must be 0 on train-* and serve-*"),
    "telemetry.export": Lane(
        ["repro.telemetry.export:write_jsonl",
         "repro.telemetry.export:write_chrome_trace"],
        "host_s", "trace-grid"),
    "telemetry.trace_data": Lane(
        ["repro.telemetry.trace_data:load_trace_data",
         "repro.telemetry.trace_data:TraceData.from_jsonl"],
        "host_s, peak_rss_mb", "analyze-archive"),
    "telemetry.analyze": Lane(
        ["repro.telemetry.analyze:analyze_report",
         "repro.telemetry.analyze:attribute_time",
         "repro.telemetry.analyze:critical_path",
         "repro.telemetry.diagnose:diagnose"],
        "host_s", "analyze-archive"),
    "telemetry.compare": Lane(
        ["repro.telemetry.compare:diff_runs",
         "repro.telemetry.compare:compare_runs"],
        "host_s", "analyze-archive"),
    "registry.record": Lane(
        ["repro.registry.record:record_train_run",
         "repro.registry.record:record_experiment",
         "repro.registry.record:record_serve_runs"],
        "host_s", "trace-grid"),
    "registry.index": Lane(
        ["repro.registry.index:RunRegistry.register",
         "repro.registry.index:RunRegistry.list",
         "repro.registry.index:RunRegistry.get",
         "repro.registry.index:RunRegistry.metric_history"],
        "host_s", "trace-grid, analyze-archive"),
}


def _vector_bytes(a, k, r):
    return sum(v.nbytes for v in a[1])


def _query_rows(a, k, r):
    return a[1].shape[0]


def _written_bytes(a, k, r):
    return os.path.getsize(r)


#: target -> [(counter name, (args, kwargs, result) -> amount)]. ``args[0]``
#: is ``self`` for methods.
COUNTERS = {
    "repro.perf.gather:RowGatherer.gather":
        [("perf.gather.rows", lambda a, k, r: len(a[1]))],
    "repro.comm.ring:RingAllReduce.reduce":
        [("comm.allreduce.bytes", _vector_bytes)],
    "repro.comm.tree:TreeAllReduce.reduce":
        [("comm.allreduce.bytes", _vector_bytes)],
    "repro.comm.halving_doubling:HalvingDoublingAllReduce.reduce":
        [("comm.allreduce.bytes", _vector_bytes)],
    "repro.sparse.mlp:SparseMLP.loss_and_grad":
        [("sparse.mlp.loss_and_grad.samples",
          lambda a, k, r: a[1].X.shape[0])],
    "repro.serve.queue:TenantScheduler.push":
        [("serve.queue.shed", lambda a, k, r: 0 if r is None else 1)],
    "repro.serve.queue:TenantScheduler.pop_batch":
        [("serve.queue.pops", lambda a, k, r: 1),
         ("serve.queue.popped", lambda a, k, r: len(r))],
    "repro.serve.predictor:Predictor.topk":
        [("serve.predictor.rows", _query_rows)],
    "repro.serve.predictor:Predictor.topk_lsh":
        [("serve.predictor.rows", _query_rows)],
    "repro.elastic.membership:ClusterMembership.poll":
        [("elastic.membership.events", lambda a, k, r: len(r))],
    "repro.elastic.membership:ClusterMembership.admit":
        [("elastic.membership.events", lambda a, k, r: 1)],
    "repro.elastic.membership:ClusterMembership.retire":
        [("elastic.membership.events", lambda a, k, r: 1)],
    "repro.telemetry.export:write_jsonl":
        [("telemetry.export.bytes", _written_bytes)],
    "repro.telemetry.export:write_chrome_trace":
        [("telemetry.export.bytes", _written_bytes)],
    "repro.telemetry.trace_data:load_trace_data":
        [("telemetry.trace_data.records",
          lambda a, k, r: sum(len(run.spans) + len(run.instants)
                              for run in r.runs))],
}
