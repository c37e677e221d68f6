"""Frozen pre-optimisation implementations (test oracles only).

**Training step.** This is the loss ``repro.sparse.loss`` shipped before the
one-pass float32 version, and the allocating ``SparseMLP`` forward/backward that went with it,
frozen here so the shipped kernels have an independent implementation to be
compared against: gradients bit-for-bit, the loss scalar within ``1e-6``.

**Float32 loss.** :func:`softmax_cross_entropy_f32` is the one-pass float32
loss as shipped before targets were carried on the batch: the target triple
rebuilt from ``Y.indptr`` per call, ``max(axis=1)``, 2-D fancy indexing. The
shipped loss must return the same bits for both outputs on every input.

**Batch construction.** :class:`BatchCursor` / :func:`static_batches` are the
per-step builders ``repro.data.batching`` shipped before the window: take
``size`` indices off the shuffled stream, gather X and Y for them through
:class:`RowGatherer` s, sum the cached per-row nnz, build a frozen
dataclass. The window cursor must hand out the same batches, call for call.

**Trace loader.** :func:`trace_from_jsonl` / :func:`trace_from_records` are
the three-copy loader ``TraceData.from_jsonl`` shipped before the streaming
one (``read_text().splitlines()``, a list of ``json.loads`` dicts, then one
walk with its own per-record code). The shipped loader must accept the same
files, build the same ``TraceData`` and reject the rest with the same
``path:lineno`` text.

**Chrome trace.** :func:`to_chrome_trace` is
``repro.telemetry.export.to_chrome_trace`` as shipped before the Chrome
file was written a block of events at a time: every event a dict in one
``traceEvents`` list, and ``otherData`` carrying the run metadata and kernel
rows the deleted Chrome reader rebuilt records from. The written file's
``traceEvents`` must equal this list event for event.

**Idle accountant.** :class:`IdleAccountant` is the per-device busy / gap
accounting the recorder kept beside its spans (one ``observe`` per device
compute span, totals written to the archive as ``idle`` records) before
analysis derived both from the spans. ``busy_and_gap_idle`` must return its
totals bit for bit, lanes in its first-observation order.

**Straggler scan.** :func:`critical_path` is
``repro.telemetry.analyze.critical_path`` as shipped before the boundary scan
bisected: per boundary and device, a walk over the device's sorted
``(end, start)`` tuples from the first, and one full pass over the run's
spans per device for the throughputs. The shipped scan must return an equal
``StragglerReport`` on every finite run; on a run with NaN span ends, the
one this returns with those spans removed.

**LSH retrieval and top-k.** :class:`DictTableLSH` is the per-table
``{bucket code: item ids}`` index and per-row dict walk ``SimHashLSH``
shipped beside its flat sorted arrays, :func:`sampled_logits` the per-row
GEMV over a candidate set, and :func:`topk_lsh_reference` the per-row
serving pipeline built from the two. ``SimHashLSH.candidates`` must return
the same sets element for element and ``Predictor.topk_lsh`` the same ids.

**Dense top-k.** :func:`topk_indices` is ``repro.sparse.metrics.topk_indices``
as shipped before small ``k`` became rounds of ``argmax``: ``argmax`` for
``k == 1``, a full stable sort for ``k == L``, otherwise argpartition →
threshold → cumsum → nonzero → argsort. The shipped kernel must return the
same ids on every input, ties, ``-inf`` and NaN included.

**Ring all-reduce.** :func:`ring_reduce` is ``RingAllReduce.reduce`` as
shipped before it accumulated in place: every device's ``w_i * v_i`` built
up front, ``n - 1`` scatter-reduce rounds that snapshot and add chunks
between neighbours, then ``n - 1`` copy-only all-gather rounds. The shipped
reduce must return the same bits on every input.

**Serve scoring.** :class:`PerDispatchServeRun` scores a serving batch the
way ``ServeRun.score`` shipped before exact numerics left the event loop:
gather the batch's rows at dispatch, price the gathered matrix, ``topk`` (or
the LSH pipeline) it there and then, and write the ids into the run's label
array; an LSH batch's candidate counts feed ``Predictor.observe_fraction``
there too. The shipped run, which prices from cached per-row nnz and labels
every request off its (version, path) table once the version retires or
the run ends, must give every request the same labels, version, device and
timestamps.

**Serve admission.** :class:`PerArrivalServeRun` admits the way
``ServeRun.admit_due`` shipped before cohort admission: one
``TenantScheduler.push`` per due arrival, a pin per admit. The shipped run,
one ``TenantScheduler.admit`` per due cohort, must give every request the
same stamps and labels and record the same sheds.

**Latency canary.** :func:`latency_canary` is ``swap._latency_canary`` as
shipped while the run kept a completion log: a ``(t_done, latency)`` tuple
appended per request by :class:`CompletionLogServeRun`, the pre- and
post-swap windows filtered out of it, the wait counted by its length. The
shipped canary derives both windows from the requests' own stamps and must
reach the same verdict on every swap.

**Request scheduler.** :class:`Request` / :class:`TenantScheduler` are
``repro.serve.queue`` as shipped while a serving run built one object per
arrival: tenant queues of ``Request`` objects, shed reasons written onto the
request, ties between equally deep tenants broken by name. The shipped
scheduler queues request ids and reads the run's request table
(:func:`request_table` builds one for a test); driven by the same op stream
it must make every admit, shed, displacement and pop the same
(``tests/test_serve_sched_diff.py``).

**Small oracles.** :func:`softmax` is the row-wise softmax
``repro.sparse.loss`` exported beside the fused loss, and
:func:`linear_scaled_lr` the linear LR scaling rule Algorithm 1 applies to
every batch-size move.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Set

import numpy as np
import scipy.sparse as sp

from repro.comm.allreduce import validate_operands, weighted_locals
from repro.exceptions import ConfigurationError, DataFormatError
from repro.perf.gather import RowGatherer
from repro.serve.queue import RunRequests
from repro.serve.run import ServeRun, pick_scoring
from repro.serve.swap import CANARY_MIN_SAMPLES, POLL_S, latency_verdict
from repro.telemetry.analyze import (
    STRAGGLER_GAP,
    BoundaryDiagnosis,
    StragglerReport,
)
from repro.telemetry.events import (
    FLOAT_COLUMNS,
    REQUEST_COLUMNS,
    SPAN_MERGE,
    SPAN_RUN,
    SPAN_SERVE_BATCH,
    SPAN_STEP,
    InstantEvent,
    RequestTable,
    RunData,
    SpanEvent,
)
from repro.telemetry.export import DRIVER_TID
from repro.telemetry.trace_data import TraceData
from repro.utils.rng import make_rng
from repro.utils.serialization import jsonable


def softmax(logits: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Row-wise softmax, stable via max-subtraction; ``out`` (when given)
    receives the result in place of a fresh allocation."""
    shifted = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
    return shifted


def linear_scaled_lr(base_lr: float, base_batch: int, batch: int) -> float:
    """Linear LR scaling rule [Goyal et al.]: ``lr ∝ batch size``, the rule
    Algorithm 1 applies to every accepted batch-size move."""
    for name, value in (("base_lr", base_lr), ("base_batch", base_batch),
                        ("batch", batch)):
        if not value > 0:
            raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return base_lr * (batch / base_batch)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stable via max-subtraction (out-of-place)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def scipy_csr(m) -> sp.csr_matrix:
    """``m`` (a ``repro`` CSR or a scipy matrix) as a scipy ``csr_matrix``
    over the same arrays: the public-scipy twin every oracle here runs on."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def uniform_label_targets(Y: sp.csr_matrix) -> sp.csr_matrix:
    """Each row of the indicator ``Y`` normalized to sum to one (CSR)."""
    counts = np.diff(Y.indptr)
    if (counts == 0).any():
        raise DataFormatError("a sample without labels has no target distribution")
    data = np.repeat((1.0 / counts).astype(np.float32), counts)
    return sp.csr_matrix((data, Y.indices.copy(), Y.indptr.copy()), shape=Y.shape)


def softmax_cross_entropy(logits, Y, grad_out=None):
    """``(loss, dlogits)``: float64 ``log_softmax`` pass, then a softmax pass."""
    n = logits.shape[0]
    targets = uniform_label_targets(Y)
    logp = log_softmax(logits.astype(np.float64, copy=False))
    rows = np.repeat(np.arange(n), np.diff(targets.indptr))
    cols = targets.indices
    loss = float(-(targets.data * logp[rows, cols]).sum() / n)

    dlogits = softmax(logits, out=grad_out)
    if dlogits.dtype != np.float32:
        dlogits = dlogits.astype(np.float32)
    dlogits[rows, cols] -= targets.data
    dlogits /= np.float32(n)
    return loss, dlogits


def softmax_cross_entropy_f32(logits, Y, grad_out=None):
    """``(loss, dlogits)``: the one-pass float32 loss before carried targets."""
    n = logits.shape[0]
    counts = Y.indptr[1:] - Y.indptr[:-1]
    if (counts == 0).any():
        raise DataFormatError("a sample without labels has no target distribution")
    rows = np.repeat(np.arange(n), counts)
    cols = Y.indices
    t = np.repeat((1.0 / counts).astype(np.float32), counts)
    p = np.subtract(logits, logits.max(axis=1, keepdims=True), out=grad_out)
    shifted_t = p[rows, cols]
    np.exp(p, out=p)
    s = p.sum(axis=1, keepdims=True)
    log_s = np.log(s, dtype=np.float64).sum()
    loss = float((log_s - np.multiply(t, shifted_t, dtype=np.float64).sum()) / n)
    p /= s
    if p.dtype != np.float32:
        p = p.astype(np.float32)
    p[rows, cols] -= t
    p /= np.float32(n)
    return loss, p


@dataclass(frozen=True)
class FrozenBatch:
    """``repro.data.batching.Batch`` while it was a frozen dataclass."""

    X: sp.csr_matrix
    Y: sp.csr_matrix
    indices: np.ndarray
    sequence: int = -1
    nnz: int = -1

    def __post_init__(self) -> None:
        if self.nnz < 0:
            object.__setattr__(self, "nnz", int(self.X.nnz))

    @property
    def size(self) -> int:
        return self.X.shape[0]


class BatchCursor:
    """The per-step cursor: one take, two gathers and an nnz sum per
    batch (``repro.data.batching.BatchCursor`` before the window, verbatim)."""

    def __init__(self, dataset, seed: int = 0) -> None:
        self.dataset = dataset
        self._rng = make_rng(seed)
        self._order = self._rng.permutation(dataset.n_samples)
        self._pos = 0
        self.samples_served = 0
        self._sequence = 0
        self._row_nnz_x = np.diff(dataset.X.indptr)
        self._gather_x = RowGatherer(dataset.X)
        self._gather_y = RowGatherer(dataset.Y)

    @property
    def epochs_completed(self) -> float:
        return self.samples_served / self.dataset.n_samples

    def _take(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            available = len(self._order) - self._pos
            if available == 0:
                self._order = self._rng.permutation(self.dataset.n_samples)
                self._pos = 0
                available = len(self._order)
            take = min(count - filled, available)
            out[filled:filled + take] = self._order[self._pos:self._pos + take]
            self._pos += take
            filled += take
        return out

    def next_batch(self, size: int) -> FrozenBatch:
        if size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {size}")
        idx = self._take(int(size))
        batch = FrozenBatch(
            X=self._gather_x.gather(idx),
            Y=self._gather_y.gather(idx),
            indices=idx,
            sequence=self._sequence,
            nnz=int(self._row_nnz_x[np.asarray(idx)].sum()),
        )
        self._sequence += 1
        self.samples_served += batch.size
        return batch


def static_batches(dataset, batch_size, *, seed=0, drop_last=False):
    """One shuffled epoch of fixed-size batches, with its own builder."""
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    order = make_rng(seed).permutation(dataset.n_samples)
    row_nnz_x = np.diff(dataset.X.indptr)
    gather_x = RowGatherer(dataset.X)
    gather_y = RowGatherer(dataset.Y)
    for seq, start in enumerate(range(0, dataset.n_samples, batch_size)):
        idx = order[start:start + batch_size]
        if drop_last and len(idx) < batch_size:
            return
        yield FrozenBatch(
            X=gather_x.gather(idx),
            Y=gather_y.gather(idx),
            indices=idx,
            sequence=seq,
            nnz=int(row_nnz_x[np.asarray(idx)].sum()),
        )


def forward(mlp, X, state):
    """Allocating forward pass: post-ReLU hidden activations, then logits."""
    n_layers = len(mlp.arch.layer_dims) - 1
    activations = []
    current = scipy_csr(X)
    for layer in range(1, n_layers + 1):
        z = current @ state[f"W{layer}"]
        z += state[f"b{layer}"]
        if layer < n_layers:
            np.maximum(z, 0.0, out=z)
        activations.append(z)
        current = z
    return activations


def loss_and_grad(mlp, batch, state):
    """Allocating forward + two-pass loss + allocating backward."""
    activations = forward(mlp, batch.X, state)
    loss, delta = softmax_cross_entropy(activations[-1], batch.Y)
    grad = mlp.zeros_state()
    for layer in range(len(activations), 0, -1):
        below = activations[layer - 2] if layer >= 2 else scipy_csr(batch.X)
        if layer >= 2:
            np.matmul(below.T, delta, out=grad[f"W{layer}"])
        else:
            grad[f"W{layer}"][...] = (below.T @ delta).astype(np.float32, copy=False)
        delta.sum(axis=0, out=grad[f"b{layer}"])
        if layer >= 2:
            delta = delta @ state[f"W{layer}"].T
            delta *= activations[layer - 2] > 0.0
    return loss, grad


def _nan_to_float(value) -> float:
    return float("nan") if value is None else float(value)


def trace_from_records(records, *, label="trace") -> TraceData:
    """The pre-streaming ``TraceData.from_records``, verbatim."""
    data = TraceData(label=label)

    def run_at(index: int) -> RunData:
        while len(data.runs) <= index:
            data.runs.append(RunData(index=len(data.runs)))
        return data.runs[index]

    for record in records:
        kind = record.get("type")
        if kind == "trace":
            data.label = str(record.get("label", data.label))
        elif kind == "run":
            meta = {
                k: v for k, v in record.items()
                if k not in ("type", "run")
            }
            run_at(int(record["run"])).meta.update(meta)
        elif kind == "span":
            run_idx = int(record["run"])
            device = record.get("device")
            run_at(run_idx).spans.append(SpanEvent(
                name=str(record["name"]),
                ts=_nan_to_float(record.get("ts")),
                dur=_nan_to_float(record.get("dur")),
                run=run_idx,
                device=None if device is None else int(device),
                args=dict(record.get("args") or {}),
            ))
        elif kind == "instant":
            run_idx = int(record["run"])
            device = record.get("device")
            run_at(run_idx).instants.append(InstantEvent(
                name=str(record["name"]),
                ts=_nan_to_float(record.get("ts")),
                run=run_idx,
                device=None if device is None else int(device),
                args=dict(record.get("args") or {}),
            ))
        elif kind == "counter":
            run = run_at(int(record["run"]))
            run.samples.setdefault(str(record["name"]), []).append(
                (_nan_to_float(record.get("ts")),
                 _nan_to_float(record.get("value")))
            )
        elif kind == "kernel":
            data.kernels.append(
                {k: v for k, v in record.items() if k != "type"}
            )
        elif kind == "requests":  # the one record added since
            run = run_at(int(record["run"]))
            if run.requests is None:
                run.requests = RequestTable(record["tenant_names"])
            for i, name in enumerate(REQUEST_COLUMNS):
                getattr(run.requests, name).extend(
                    _nan_to_float(x) if i < FLOAT_COLUMNS else int(x)
                    for x in record[name]
                )
    return data


def trace_from_jsonl(path) -> TraceData:
    """The pre-streaming ``TraceData.from_jsonl``, verbatim."""
    path = Path(path)
    records = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise DataFormatError(
                f"{path}:{lineno}: invalid JSONL record: {exc}"
            ) from exc
    return trace_from_records(records, label=path.stem)


def _chrome_tid(device: Optional[int]) -> int:
    return DRIVER_TID if device is None else int(device) + 1


def to_chrome_trace(tel) -> dict:
    """The pre-streaming ``to_chrome_trace``, verbatim but for reading the
    recorder's runs (``tel.runs``) where it read its global event lists."""
    events: List[dict] = []
    devices_per_run: Dict[int, set] = {}
    spans = [span for run in tel.runs for span in run.spans]
    instants = [inst for run in tel.runs for inst in run.instants]

    for span in spans:
        devices_per_run.setdefault(span.run, set()).add(span.device)
        events.append({
            "name": span.name,
            "cat": "sim",
            "ph": "X",
            "ts": span.ts * 1e6,
            "dur": span.dur * 1e6,
            "pid": span.run,
            "tid": _chrome_tid(span.device),
            "args": jsonable(span.args),
        })
    for inst in instants:
        devices_per_run.setdefault(inst.run, set()).add(inst.device)
        events.append({
            "name": inst.name,
            "cat": "sim",
            "ph": "i",
            "s": "t",
            "ts": inst.ts * 1e6,
            "pid": inst.run,
            "tid": _chrome_tid(inst.device),
            "args": jsonable(inst.args),
        })
    for run_idx, run in enumerate(tel.runs):
        for name, series in run.samples.items():
            for t, v in series:
                value = jsonable(v)
                if value is None:
                    continue
                events.append({
                    "name": name,
                    "cat": "sim",
                    "ph": "C",
                    "ts": t * 1e6,
                    "pid": run_idx,
                    "tid": DRIVER_TID,
                    "args": {"value": value},
                })

    # Metadata: name each run-process and each device-thread.
    for run_idx, meta in enumerate(run.meta for run in tel.runs):
        label = str(meta.get("algorithm", f"run {run_idx}"))
        n = meta.get("n_devices")
        if n is not None:
            label = f"{label} ({n} dev)"
        events.append({
            "name": "process_name", "ph": "M", "pid": run_idx,
            "tid": DRIVER_TID, "args": {"name": label},
        })
        for device in sorted(
            (d for d in devices_per_run.get(run_idx, ()) if d is not None),
        ):
            events.append({
                "name": "thread_name", "ph": "M", "pid": run_idx,
                "tid": _chrome_tid(device), "args": {"name": f"gpu{device}"},
            })
        events.append({
            "name": "thread_name", "ph": "M", "pid": run_idx,
            "tid": DRIVER_TID, "args": {"name": "driver"},
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": tel.label,
            "clock": "simulated seconds (exported as microseconds)",
            "runs": [jsonable(run.meta) for run in tel.runs],
            "kernels": [jsonable(row) for row in tel.kernels.as_records()],
        },
    }


class IdleAccountant:
    """Per-device busy time and the gaps between consecutive busy intervals.

    The recorder reports one closed interval per device compute span
    (``step.compute`` / ``serve.batch``), in non-decreasing start order per
    device. Back-to-back intervals contribute zero idle; one starting before
    the previous ended clamps the gap at zero. Trace analysis reads the
    totals off the archive's ``idle`` records.
    """

    def __init__(self) -> None:
        #: key -> that lane's ``idle`` record, in first-observation order.
        self._lanes: Dict[object, Dict[str, object]] = {}

    def observe(self, key, start: float, end: float) -> None:
        """Account one busy interval ``[start, end]`` on lane ``key``."""
        start = float(start)
        end = float(end)
        if end < start:
            raise ValueError(
                f"busy interval ends before it starts: [{start}, {end}]"
            )
        lane = self._lanes.get(key)
        if lane is None:
            self._lanes[key] = {
                "device": key, "first_ts": start, "last_ts": end,
                "busy_s": end - start, "idle_s": 0.0, "intervals": 1,
            }
            return
        lane["idle_s"] += max(0.0, start - lane["last_ts"])  # gap since then
        lane["last_ts"] = max(lane["last_ts"], end)
        lane["busy_s"] += end - start
        lane["intervals"] += 1

    def as_records(self) -> List[Dict[str, object]]:
        """One JSON-friendly dict per lane, in first-observation order."""
        return [dict(lane) for lane in self._lanes.values()]


def critical_path(run: RunData, *, straggler_gap: float = STRAGGLER_GAP):
    """The rescanning ``critical_path``, verbatim."""
    report = StragglerReport(run=run.index, label=run.label())
    devices = run.devices()

    # Per-boundary arrival analysis: for each driver-level merge, find each
    # device's last activity in the window since the previous boundary.
    merges = sorted(
        run.spans_named(SPAN_MERGE, device=None), key=lambda s: s.ts
    )
    device_ends = {
        d: sorted(
            (s.ts + s.dur, s.ts)
            for s in run.spans
            if s.device == d and s.name != SPAN_RUN
        )
        for d in devices
    }
    window_start = run.start()
    for k, merge in enumerate(merges):
        diag = BoundaryDiagnosis(
            index=k,
            merge_ts=merge.ts,
            window_start=window_start,
            critical_device=None,
        )
        last_seen = {}
        for d in devices:
            last_end = window_start
            for end, _ in device_ends[d]:
                if end > merge.ts + 1e-12:
                    break
                if end >= window_start:
                    last_end = max(last_end, end)
            last_seen[d] = last_end
            diag.idle_before[d] = max(0.0, merge.ts - last_end)
        if last_seen:
            latest = max(last_seen.values())
            diag.critical_device = min(
                d for d, end in last_seen.items() if end == latest
            )
            report.critical_counts[diag.critical_device] = (
                report.critical_counts.get(diag.critical_device, 0) + 1
            )
        report.boundaries.append(diag)
        window_start = merge.ts + merge.dur

    # Update-count skew (Algorithm 1's u_i spread).
    report.update_counts = run.update_counts()
    if report.update_counts:
        values = list(report.update_counts.values())
        hi, lo = max(values), min(values)
        report.update_skew = hi - lo
        report.update_balance = (lo / hi) if hi > 0 else 1.0

    # Per-sample throughput -> relative slowdown vs the fastest device.
    throughputs = {}
    for d in devices:
        compute = 0.0
        samples = 0
        for name in (SPAN_STEP, SPAN_SERVE_BATCH):
            for s in run.spans_named(name, device=d):
                compute += s.dur
                size = s.args.get("size")
                if isinstance(size, (int, float)):
                    samples += int(size)
        if compute > 0.0 and samples > 0:
            throughputs[d] = samples / compute
    if throughputs:
        fastest = max(throughputs.values())
        report.slowdowns = {
            d: (fastest / t) - 1.0 for d, t in throughputs.items()
        }
        report.heterogeneity_index = max(report.slowdowns.values())

    # The straggler verdict: hardware speed first (Figure 1's notion),
    # arrival order as the fallback signal when speeds are indistinguishable.
    if report.heterogeneity_index > straggler_gap:
        report.straggler = min(
            d for d, s in report.slowdowns.items()
            if s == report.heterogeneity_index
        )
        pieces = [
            f"gpu{report.straggler} is "
            f"{report.heterogeneity_index * 100:.1f}% slower per sample "
            f"than the fastest device"
        ]
        critical = report.critical_counts.get(report.straggler, 0)
        if merges:
            pieces.append(
                f"last to arrive at {critical}/{len(merges)} merge boundaries"
            )
        report.reason = "; ".join(pieces)
    elif report.critical_counts:
        top = max(report.critical_counts.values())
        if len(devices) > 1 and top > len(merges) / 2:
            report.straggler = min(
                d for d, c in report.critical_counts.items() if c == top
            )
            report.reason = (
                f"gpu{report.straggler} was last to arrive at "
                f"{top}/{len(merges)} merge boundaries"
            )
    return report


class DictTableLSH:
    """Dict buckets over ``lsh``'s signatures of ``weights`` (column per item)."""

    def __init__(self, lsh, weights: np.ndarray) -> None:
        self.lsh = lsh
        items = weights.shape[1]
        codes = lsh.probe_codes(np.ascontiguousarray(weights.T))[:, 0, :]
        self._tables = []
        for t in range(lsh.n_tables):
            order = np.argsort(codes[t], kind="stable")
            sorted_codes = codes[t][order]
            # Group contiguous runs of equal codes into buckets.
            boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
            starts = np.concatenate(([0], boundaries))
            stops = np.concatenate((boundaries, [items]))
            self._tables.append({
                int(sorted_codes[a]): order[a:b]
                for a, b in zip(starts, stops)
            })

    def query(self, vector: np.ndarray, *, n_probes: int = 1) -> np.ndarray:
        """Item ids colliding with ``vector`` in any probed bucket
        (sorted, unique)."""
        return self.query_batch(vector[None, :], n_probes=n_probes)[0]

    def query_batch(self, vectors: np.ndarray, *, n_probes: int = 1):
        """Row *i* of the result is the retrieval for ``vectors[i]``."""
        codes = self.lsh.probe_codes(vectors, n_probes)  # (T, P, n)
        return [self._lookup(codes[:, :, i]) for i in range(vectors.shape[0])]

    def _lookup(self, codes: np.ndarray) -> np.ndarray:
        """Union of the bucket hits for one sample's ``(T, P)`` probe codes."""
        hits = [
            self._tables[t].get(int(code))
            for t in range(self.lsh.n_tables)
            for code in codes[t]
        ]
        hits = [h for h in hits if h is not None]
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(hits))


def sampled_logits(hidden, W_out, b_out, active) -> np.ndarray:
    """Output logits restricted to the ``active`` label subset.

    ``hidden`` is ``(h,)`` or ``(n, h)``; the result covers only ``active``
    columns, costing O(h * |active|) instead of O(h * L).
    """
    if active.ndim != 1:
        raise ConfigurationError("active label set must be a 1-D index array")
    return hidden @ W_out[:, active] + b_out[active]


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` ids per row, best-first, ties toward the lowest id, NaN as
    ``-inf`` (the pre-argmax-rounds implementation, frozen)."""
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise DataFormatError(f"scores must be 2-D, got shape {scores.shape}")
    n, L = scores.shape
    k = int(k)
    if k < 1:
        raise DataFormatError(f"k must be a positive integer, got {k}")
    k = min(k, L)
    if k == 1:
        top = scores.argmax(axis=1)[:, None]
        if np.isnan(np.take_along_axis(scores, top, axis=1)).any():
            return _topk_nan_last(scores, k)
        return top
    if k == L:
        if np.isnan(scores).any():
            return _topk_nan_last(scores, k)
        return np.argsort(-scores, axis=1, kind="stable")
    part = np.argpartition(scores, L - k, axis=1)[:, L - k:]
    thresh = np.take_along_axis(scores, part, axis=1).min(axis=1, keepdims=True)
    above = scores > thresh
    n_above = above.sum(axis=1, keepdims=True)
    tie = scores == thresh
    tie_rank = np.cumsum(tie, axis=1)
    keep = above | (tie & (tie_rank <= k - n_above))
    topk = np.nonzero(keep)[1]
    if topk.size != n * k:  # a NaN threshold keeps nothing
        return _topk_nan_last(scores, k)
    topk = topk.reshape(n, k)
    kept_scores = np.take_along_axis(scores, topk, axis=1)
    order = np.argsort(-kept_scores, axis=1, kind="stable")
    return np.take_along_axis(topk, order, axis=1)


def _topk_nan_last(scores: np.ndarray, k: int) -> np.ndarray:
    return topk_indices(np.where(np.isnan(scores), -np.inf, scores), k)


def ring_reduce(vectors, weights) -> np.ndarray:
    """``sum_i weights[i] * vectors[i]`` by moving real chunks around the
    ring (the chunk-moving ``RingAllReduce.reduce``, frozen)."""
    vecs = validate_operands(vectors, weights)
    n = len(vecs)
    if n == 1:
        return (vecs[0] * np.float32(weights[0])).copy()
    size = vecs[0].size
    local = weighted_locals(vecs, weights)
    bounds = np.linspace(0, size, n + 1).astype(np.int64)

    def chunk(device, c):
        return local[device][bounds[c]:bounds[c + 1]]

    # Scatter-reduce: after round r, device d holds chunk (d - r) mod n
    # accumulated over the r + 1 devices upstream of it.
    for r in range(n - 1):
        outgoing = [chunk(d, (d - r) % n).copy() for d in range(n)]
        for d in range(n):
            chunk((d + 1) % n, (d - r) % n)[...] += outgoing[d]
    # All-gather: device d owns reduced chunk (d + 1) mod n; circulate it.
    for r in range(n - 1):
        outgoing = [chunk(d, (d + 1 - r) % n).copy() for d in range(n)]
        for d in range(n):
            chunk((d + 1) % n, (d + 1 - r) % n)[...] = outgoing[d]
    return local[0]


def topk_lsh_reference(predictor, X: sp.csr_matrix, k: int) -> np.ndarray:
    """``Predictor.topk_lsh`` one query at a time: dict-table lookup,
    :func:`sampled_logits`, a 1-row top-k, lowest-id padding."""
    L = predictor.arch.n_labels
    k = min(k, L)
    n = X.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    if n == 0:
        return out
    H = np.array(predictor.hidden(X), copy=True)
    W_out = predictor.state[predictor._out_name]
    b_out = predictor.state[predictor._bias_name]
    tables = DictTableLSH(predictor._lsh, W_out)
    candidates = tables.query_batch(H, n_probes=predictor.lsh_probes)
    for i, cand in enumerate(candidates):
        if cand.size < k:
            # Deterministic fill: lowest label ids not retrieved.
            missing = np.setdiff1d(
                np.arange(min(L, k + cand.size), dtype=np.int64), cand
            )[: k - cand.size]
            logits = sampled_logits(H[i], W_out, b_out, cand)
            order = topk_indices(logits[None, :], cand.size)[0] if cand.size else []
            out[i, : cand.size] = cand[order]
            out[i, cand.size:] = missing
        else:
            logits = sampled_logits(H[i], W_out, b_out, cand)
            # cand is sorted ascending, so positional tie-break == the
            # lowest-label-id rule the exact path uses.
            best = topk_indices(logits[None, :], k)[0]
            out[i] = cand[best]
    return out


class PerDispatchServeRun(ServeRun):
    """A ``ServeRun`` that scores every batch where it is dispatched."""

    def score(self, gpu, pred, batch):
        X_batch = self.gatherer.gather(self.requests.row[batch])
        work = pred.workload(X_batch)
        speed = gpu.speed_at(self.env.now)
        n_gpus = self.server.n_gpus
        exact_s = lsh_s = None
        if self.config.scoring != "lsh":
            exact_s = gpu.cost_model.inference_time(
                work, speed=speed, n_active_gpus=n_gpus
            )
        if self.config.scoring != "exact":
            frac = pred.observed_candidate_fraction()
            lsh_s = gpu.cost_model.lsh_inference_time(
                work,
                frac if frac is not None else 1.0,
                n_tables=pred.lsh_tables,
                n_bits=pred.lsh_bits,
                n_probes=pred.lsh_probes,
                speed=speed,
                n_active_gpus=n_gpus,
            )
        chosen, service = pick_scoring(exact_s, lsh_s)
        if chosen == "lsh":
            labels, counts = pred.lsh_stats(X_batch, self.k)
            fraction = pred.observe_fraction(counts)
            self.lsh_fractions.append(fraction)
        else:
            labels, fraction = pred.topk(X_batch, self.k), None
        self.labels[batch] = labels
        return chosen, service, int(X_batch.nnz), fraction


class PerArrivalServeRun(ServeRun):
    """A ``ServeRun`` that offers each due arrival to ``push`` on its own."""

    def admit_due(self):
        requests = self.requests
        start = self.n_offered
        stop = int(requests.arrival.searchsorted(self.env.now, side="right"))
        self.n_offered = stop
        push, pins = self.scheduler.push, self.pins
        version = self.active_version
        requests.version[start:stop] = [version] * (stop - start)
        arrivals = requests.arrival[start:stop].tolist()
        for req_id, t in enumerate(arrivals, start):
            shed = push(req_id, now=t)
            if shed != req_id:  # admitted, cleanly or by displacement
                pins[version] = pins.get(version, 0) + 1
            if shed is not None:
                if shed != req_id:
                    pins[requests.version[shed]] -= 1
                    self.retire_version(requests.version[shed])


class CompletionLogServeRun(ServeRun):
    """A ``ServeRun`` that logs ``(t_done, latency)`` per completion."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.completed = []

    def complete(self, batch, device, t_dispatch, chosen):
        super().complete(batch, device, t_dispatch, chosen)
        t_done = self.env.now
        arrivals = self.requests.arrival[batch].tolist()
        self.completed.extend([(t_done, t_done - t) for t in arrivals])


def latency_canary(run: CompletionLogServeRun, t_commit: float):
    """Wait for a post-swap latency window; return the rollback reason."""
    pre = [lat for t, lat in run.completed if t <= t_commit]
    if len(pre) < CANARY_MIN_SAMPLES:
        return None
    target = len(run.completed) + CANARY_MIN_SAMPLES
    while len(run.completed) < target and not run.drained():
        yield run.env.timeout(POLL_S)
        run.admit_due()
    post = [lat for t, lat in run.completed if t > t_commit]
    return latency_verdict(
        pre, post, run.config.canary_latency_factor, CANARY_MIN_SAMPLES
    )


@dataclass(slots=True)
class Request:
    """One inference query moving through the serving pipeline."""

    req_id: int
    row: int
    t_arrival: float
    t_dispatch: Optional[float] = None
    t_done: Optional[float] = None
    device: Optional[int] = None
    version: Optional[int] = None
    served_version: Optional[int] = None
    shed: bool = False
    tenant: str = "default"
    priority_class: int = 0
    shed_reason: Optional[str] = None


@dataclass
class _Tier:
    queues: Dict[str, Deque[Request]] = field(default_factory=dict)
    active: Deque[str] = field(default_factory=deque)
    in_active: Set[str] = field(default_factory=set)
    depth: int = 0


class TenantScheduler:
    """Priority tiers over round-robin tenant queues of ``Request`` objects."""

    def __init__(self, *, n_priority_classes=1, max_depth=None,
                 admission_utilization=None, n_devices=1):
        self.n_classes = int(n_priority_classes)
        self._limit = max_depth
        self._util_threshold = admission_utilization
        self._n_devices = int(n_devices)
        self._tiers = [_Tier() for _ in range(self.n_classes)]
        self._depth = 0
        self._max_depth = 0
        self._shed = 0
        self._busy_s = 0.0
        self.shed_by_tenant: Dict[str, int] = {}
        self.shed_by_class: Dict[int, int] = {}

    def observe_busy(self, service_s: float) -> None:
        self._busy_s += float(service_s)

    def utilization(self, now: float) -> float:
        if now <= 0.0:
            return 0.0
        return min(1.0, self._busy_s / (self._n_devices * now))

    def set_n_devices(self, n_devices: int) -> None:
        self._n_devices = int(n_devices)

    def shed_gate(self, priority_class: int) -> Optional[float]:
        if self._util_threshold is None or priority_class <= 0:
            return None
        worst = self.n_classes - 1
        u = self._util_threshold
        return u + (1.0 - u) * (worst - priority_class) / worst

    def push(self, request: Request, *, now: float = 0.0) -> Optional[Request]:
        p = request.priority_class
        if not (0 <= p < self.n_classes):
            raise ConfigurationError(
                f"priority_class must be in [0, {self.n_classes}), got {p}"
            )
        gated = p > 0 and self._util_threshold is not None
        if gated and self.utilization(now) >= self.shed_gate(p):
            return self._shed_request(request, "utilization")
        if self._limit is not None and self._depth >= self._limit:
            victim = self._capacity_victim(request)
            if victim is request:
                return self._shed_request(request, "capacity")
            self._evict(victim)
            self._admit(request)
            return self._shed_request(victim, "displaced")
        self._admit(request)
        return None

    def _shed_request(self, request: Request, reason: str) -> Request:
        request.shed = True
        request.shed_reason = reason
        self._shed += 1
        self.shed_by_tenant[request.tenant] = (
            self.shed_by_tenant.get(request.tenant, 0) + 1
        )
        self.shed_by_class[request.priority_class] = (
            self.shed_by_class.get(request.priority_class, 0) + 1
        )
        return request

    def _capacity_victim(self, request: Request) -> Request:
        worst_p = max(p for p, t in enumerate(self._tiers) if t.depth > 0)
        p = request.priority_class
        if p > worst_p:
            return request
        tier = self._tiers[worst_p]
        victim_tenant = max(
            (t for t, q in tier.queues.items() if q),
            key=lambda t: (len(tier.queues[t]), t),
        )
        if p == worst_p:
            own = len(tier.queues.get(request.tenant, ()))
            if len(tier.queues[victim_tenant]) <= own:
                return request
        return tier.queues[victim_tenant][-1]

    def _evict(self, victim: Request) -> None:
        tier = self._tiers[victim.priority_class]
        q = tier.queues[victim.tenant]
        assert q[-1] is victim
        q.pop()
        tier.depth -= 1
        self._depth -= 1

    def _admit(self, request: Request) -> None:
        tier = self._tiers[request.priority_class]
        tenant = request.tenant
        q = tier.queues.get(tenant)
        if q is None:
            q = tier.queues[tenant] = deque()
        if tenant not in tier.in_active:
            tier.active.append(tenant)
            tier.in_active.add(tenant)
        q.append(request)
        tier.depth += 1
        depth = self._depth = self._depth + 1
        if depth > self._max_depth:
            self._max_depth = depth

    def next_class(self) -> Optional[int]:
        for p, tier in enumerate(self._tiers):
            if tier.depth > 0:
                return p
        return None

    def pop_batch(self, max_size: int) -> List[Request]:
        p = self.next_class()
        if p is None:
            return []
        tier = self._tiers[p]
        queues, active = tier.queues, tier.active
        batch: List[Request] = []
        version = None
        room = min(max_size, tier.depth)
        while len(batch) < room:
            tenant = active[0]
            q = queues.get(tenant)
            if not q:
                tier.in_active.discard(active.popleft())
                continue
            head = q[0]
            if not batch:
                version = head.version
            elif head.version != version:
                break
            batch.append(q.popleft())
            if not q:
                tier.in_active.discard(active.popleft())
            else:
                active.rotate(-1)
        tier.depth -= len(batch)
        self._depth -= len(batch)
        return batch

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def max_depth(self) -> int:
        return self._max_depth

    @property
    def n_shed(self) -> int:
        return self._shed


def request_table(tenants, classes, versions, n_classes) -> RunRequests:
    """The shipped request table over ids ``0..n-1``: request ``i`` bills to
    ``tenants[i]`` in class ``classes[i]`` (of ``n_classes``), pinned to
    ``versions[i]``."""
    n = len(tenants)
    table = RunRequests(
        np.arange(n), np.zeros(n), list(tenants), list(classes), n_classes
    )
    table.version[:] = list(versions)
    return table
