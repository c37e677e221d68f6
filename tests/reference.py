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
array. The shipped run, which prices from cached per-row nnz and scores
exact batches a block at a time in ``flush``, must give every request the
same labels, version, device and timestamps.

**Latency canary.** :func:`latency_canary` is ``swap._latency_canary`` as
shipped while the run kept a completion log: a ``(t_done, latency)`` tuple
appended per request by :class:`CompletionLogServeRun`, the pre- and
post-swap windows filtered out of it, the wait counted by its length. The
shipped canary derives both windows from the requests' own stamps and must
reach the same verdict on every swap.

**Small oracles.** :func:`softmax` is the row-wise softmax
``repro.sparse.loss`` exported beside the fused loss, and
:func:`linear_scaled_lr` the linear LR scaling rule Algorithm 1 applies to
every batch-size move.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.comm.allreduce import validate_operands, weighted_locals
from repro.exceptions import ConfigurationError, DataFormatError
from repro.perf.gather import RowGatherer
from repro.serve.run import ServeRun, pick_scoring
from repro.serve.swap import CANARY_MIN_SAMPLES, POLL_S, latency_verdict
from repro.telemetry.analyze import (
    STRAGGLER_GAP,
    BoundaryDiagnosis,
    StragglerReport,
)
from repro.telemetry.events import (
    SPAN_MERGE,
    SPAN_RUN,
    SPAN_SERVE_BATCH,
    SPAN_STEP,
    InstantEvent,
    SpanEvent,
)
from repro.telemetry.trace_data import RunData, TraceData
from repro.utils.rng import make_rng


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
    current = X
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
        below = activations[layer - 2] if layer >= 2 else batch.X
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
        elif kind == "idle":
            run = run_at(int(record["run"]))
            run.idle[int(record["device"])] = {
                k: v for k, v in record.items()
                if k not in ("type", "run", "device")
            }
        elif kind == "kernel":
            data.kernels.append(
                {k: v for k, v in record.items() if k != "type"}
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
        X_batch = self.gatherer.gather(np.array([r.row for r in batch]))
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
            fraction = (
                float(counts.mean()) / self.n_labels if counts.size else 0.0
            )
            self.lsh_fractions.append(fraction)
        else:
            labels, fraction = pred.topk(X_batch, self.k), None
        self.labels[[r.req_id for r in batch]] = labels
        return chosen, service, int(X_batch.nnz), fraction


class CompletionLogServeRun(ServeRun):
    """A ``ServeRun`` that logs ``(t_done, latency)`` per completion."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.completed = []

    def complete(self, batch, device, t_dispatch, chosen):
        super().complete(batch, device, t_dispatch, chosen)
        t_done = self.env.now
        self.completed.extend([(t_done, t_done - r.t_arrival) for r in batch])


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
