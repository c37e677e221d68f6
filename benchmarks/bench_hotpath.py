"""HOTPATH — microbenchmarks for the fused hot-path execution engine.

Eleven sections, each timing the pre-optimization idiom against the kernel
that replaced it, and one (the tenth) that times a cold start:

1. **gather** — ``X[idx]`` scipy fancy indexing vs :class:`RowGatherer`
   (cached row nnz, one cumsum, a direct ``csr_row_index`` call);
2. **step** — the allocating forward/backward around the float64 two-pass
   loss (``tests/reference.py``; it no longer exists in ``src/``) vs
   ``SparseMLP.loss_and_grad`` (direct ``csr_matvecs``/``csc_matvecs``,
   one-pass float32 loss in the logits' own array);
3. **loss** — that two-pass loss alone vs ``softmax_cross_entropy``, at a
   micro-sized (110, 64) and an XML-sized (256, 8000) logits block;
4. **merge** — the single-step weighted sum ``Σ w_i v_i`` of the replica
   vectors (``sparse.model_state.weighted_average``, the reference the ring
   is property-tested against) vs the ring all-reduce, which accumulates
   each chunk into one output in the ring's own addition order;
5. **slide** — the per-sample SLIDE update loop vs
   :func:`slide_chunk_step` (union-GEMM sampled softmax);
6. **telemetry** — a full trainer run with telemetry disabled vs enabled:
   the *overhead* of the tracing layer (must stay within 5% when enabled);
7. **trace_load** — the three-copy JSONL archive loader (``read_text()
   .splitlines()``, a list of ``json.loads`` dicts, then one walk;
   ``tests/reference.py``, it no longer exists in ``src/``) vs ``TraceData.from_jsonl``
   (one streaming pass of the C scanner into the one record builder);
8. **topk** — the argpartition → threshold → cumsum → nonzero → argsort
   ranking (``tests/reference.py``; it no longer serves small ``k`` in
   ``src/``) vs ``topk_indices``' rounds of ``argmax`` at ``k = 5``, on a
   serve-sized (12, 64), an XML-sized (128, 1536) and a paper-scale
   (512, 32768) block, plus an ungated sweep of ``k`` that times the two
   paths of ``src/`` against each other: what ``ARGMAX_ROUNDS_MAX_K``
   is read off;
9. **batching** — the per-step cursor (a take, two gathers, an nnz
   sum and a frozen dataclass per batch; ``tests/reference.py``, it no
   longer exists in ``src/``) vs the window ``BatchCursor`` (a batch is two
   ``indptr`` slices of a window gathered once), ``next_batch`` at
   ``micro`` size 108 and ``amazon670k-bench`` size 116, refills included,
   plus the loss with its targets rebuilt from ``Y`` vs carried on the batch;
10. **cold_start** — fresh-interpreter wall time of ``python -m repro runs
    ls --json`` and ``python -m repro analyze <archive> --json`` against
    ``python -c pass``, with the number of ``repro.*`` modules each command
    leaves loaded. The seconds are reported; the gate is the count, which
    repeats exactly: a command may not load more modules than the baseline
    file records (``python -X importtime -m repro ...`` names the import);
11. **analysis** — the straggler scan that walks each device's sorted span
    ends from the start at every merge boundary (``tests/reference.py``; it
    no longer exists in ``src/``) vs ``critical_path``, which bisects them,
    on a synthetic run of 4 devices, 200 merges and 5,000 spans per device;
12. **run_load** — the full load of a seven-run ``micro`` grid archive vs
    ``TraceData.from_jsonl(path, runs={1})``, what ``analyze --run 1``
    builds: the other runs' lines skip the builder, most of them the scan.

Run as a script: ``python benchmarks/bench_hotpath.py [--smoke] [--out F]
[--check BASELINE] [--registry DIR] [--sections NAME ...]``. ``--check``
compares the measured *speedups* (machine-independent ratios) against a
baseline and exits non-zero on a >30% regression, and gates the telemetry
section on the absolute 5% overhead budget and the cold-start section on
its module counts — the CI gate. With
``--registry``, the expected speedup comes from **index history** (the
median of the last N green runs of this bench in the cross-run registry,
see ``repro.registry.baseline``) and the checked-in JSON is only the
seed/fallback for cold indexes; each invocation then registers its own
results (tagged ``bench:hotpath``, red when the gate failed) so the
history tracks the fleet's actual trajectory. ``--sections`` runs a
subset (gated sections not run are skipped by the gate).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # repro, and tests.reference

from repro.baselines.slide.lsh import SimHashLSH  # noqa: E402
from repro.baselines.slide.sampler import ActiveLabelSampler  # noqa: E402
from repro.comm.ring import RingAllReduce  # noqa: E402
from repro.data.batching import Batch, BatchCursor  # noqa: E402
from repro.data.registry import load_task  # noqa: E402
from repro.perf.gather import RowGatherer, spmm_into  # noqa: E402
from repro.perf.slide_kernel import slide_chunk_step  # noqa: E402
from repro.sparse import metrics  # noqa: E402
from repro.sparse.loss import softmax_cross_entropy  # noqa: E402
from repro.sparse.mlp import MLPArchitecture, SparseMLP  # noqa: E402
from repro.sparse.model_state import ModelState, weighted_average  # noqa: E402
from tests.reference import (  # noqa: E402 (the frozen baselines)
    loss_and_grad as reference_loss_and_grad,
    softmax_cross_entropy as reference_loss,
    trace_from_jsonl as reference_trace_load,
)

REGRESSION_TOLERANCE = 0.30  # fail --check when speedup drops >30%
# The CI regression gate.
GATED_SECTIONS = ("gather", "step", "merge", "trace_load", "topk",
                  "batching", "analysis", "run_load")
TELEMETRY_OVERHEAD_BUDGET = 0.05  # enabled-telemetry wall overhead ceiling


def _time(fn, reps: int, warmup: int = 2) -> float:
    """Best-of-reps wall time of ``fn()`` in microseconds."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def _time_alternating(slow, fast, rounds: int, burst: int = 1):
    """Best-of wall time (us) of two arms, alternated in bursts of ``burst``
    calls so a contention spell cannot land on one arm only."""
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for arm, fn in enumerate((slow, fast)):
            best[arm] = min(best[arm], _time(fn, burst, 0))
    return best


def make_sparse(n, f, density, seed):
    m = sp.random(
        n, f, density=density, format="csr", dtype=np.float32,
        random_state=np.random.default_rng(seed),
    )
    m.sum_duplicates()
    m.sort_indices()
    return m


def bench_gather(smoke: bool) -> dict:
    n, f = (20000, 50000) if not smoke else (5000, 20000)
    batch, reps = 256, (50 if not smoke else 15)
    X = make_sparse(n, f, 0.002, seed=0)
    rng = np.random.default_rng(1)
    idx = rng.integers(0, n, size=batch)
    gatherer = RowGatherer(X)
    baseline_us = _time(lambda: X[idx], reps)
    fast_us = _time(lambda: gatherer.gather(idx), reps)
    return {
        "what": f"{batch}-row gather from ({n}, {f}) CSR",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
    }


def make_labels(n, L, seed):
    """Indicator CSR with (up to) two labels per row."""
    rows = np.repeat(np.arange(n), 2)
    cols = np.random.default_rng(seed).integers(0, L, size=2 * n)
    Y = sp.csr_matrix((np.ones(2 * n, np.float32), (rows, cols)), shape=(n, L))
    Y.sum_duplicates()
    Y.data[:] = 1.0
    return Y


def bench_step(smoke: bool) -> dict:
    # Same dims in smoke mode: the baseline's float64 (batch, L) temporaries
    # fall out of cache at a size-dependent point, so a smaller smoke shape
    # has a different *ratio* and could not be gated against a full-mode file.
    n_feat, L, hidden = 40000, 8000, (128,)
    batch, reps = 256, (30 if not smoke else 10)
    X = make_sparse(batch, n_feat, 0.002, seed=2)
    b = Batch(X=X, Y=make_labels(batch, L, seed=3), indices=np.arange(batch))
    mlp = SparseMLP(MLPArchitecture(n_features=n_feat, n_labels=L, hidden=hidden))
    state = mlp.init_state(seed=4)
    grad = mlp.zeros_state()
    baseline_us = _time(lambda: reference_loss_and_grad(mlp, b, state), reps)
    fast_us = _time(lambda: mlp.loss_and_grad(b, state, grad_out=grad), reps)
    return {
        "what": f"loss_and_grad batch={batch} dims=({n_feat},{hidden[0]},{L})",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
    }


def bench_loss(smoke: bool) -> dict:
    reps = 30 if not smoke else 10

    def pair(n, L, seed):
        logits = np.random.default_rng(seed).normal(size=(n, L)).astype(np.float32)
        Y = make_labels(n, L, seed + 1)
        buf = np.empty((n, L), dtype=np.float32)
        return (
            _time(lambda: reference_loss(logits, Y, grad_out=buf), reps),
            _time(lambda: softmax_cross_entropy(logits, Y, grad_out=buf), reps),
        )

    baseline_us, fast_us = pair(256, 8000, seed=9)
    small_baseline_us, small_fast_us = pair(110, 64, seed=11)
    return {
        "what": "softmax cross-entropy on (256, 8000) logits; small = (110, 64)",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
        "small_baseline_us": small_baseline_us,
        "small_fast_us": small_fast_us,
        "small_speedup": small_baseline_us / small_fast_us,
    }


def bench_merge(smoke: bool) -> dict:
    n_gpus = 4
    # One size in both modes: the ratio moves with it (the baseline's R x P
    # temporaries leave cache first), and smoke is gated on full's figure.
    size = 2_000_000
    reps = 10 if not smoke else 5
    rng = np.random.default_rng(5)
    vectors = [rng.normal(size=size).astype(np.float32) for _ in range(n_gpus)]
    weights = [0.25] * n_gpus
    states = [ModelState.from_vector([("v", (size,))], v) for v in vectors]
    ring = RingAllReduce(n_streams=n_gpus)
    baseline_us, fast_us = _time_alternating(
        lambda: weighted_average(states, weights),
        lambda: ring.reduce(vectors, weights), reps,
    )
    return {
        "what": f"single-step weighted sum vs ring reduce, {n_gpus}x{size} floats",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
    }


def bench_slide(smoke: bool) -> dict:
    F, H, L = (30000, 128, 10000) if not smoke else (10000, 128, 4000)
    chunk = 256
    reps = 5 if not smoke else 3
    Xc = make_sparse(chunk, F, 0.003, seed=6)
    rng = np.random.default_rng(7)
    W1 = rng.normal(scale=0.1, size=(F, H)).astype(np.float32)
    b1 = np.zeros(H, dtype=np.float32)
    W2 = rng.normal(scale=0.1, size=(H, L)).astype(np.float32)
    b2 = np.zeros(L, dtype=np.float32)
    label_sets = [
        np.sort(rng.choice(L, size=rng.integers(1, 4), replace=False))
        for _ in range(chunk)
    ]
    label_counts = np.array([ls.size for ls in label_sets], dtype=np.int64)
    min_active, max_active = max(32, L // 24), max(128, L // 6)
    lr = np.float32(0.01)

    def fresh_sampler(seed=8):
        lsh = SimHashLSH(H, n_tables=16, n_bits=8, seed=seed)
        lsh.rebuild(W2)
        return ActiveLabelSampler(
            L, lsh, min_active=min_active, max_active=max_active, seed=seed
        )

    # The LSH rebuild is amortized over `rebuild_every` samples in the real
    # trainer and identical in both code paths, so it stays outside the
    # timed region; both paths operate on weight copies, so the tables built
    # from the original W2 remain valid across reps.
    sampler_base = fresh_sampler()
    sampler_chunk = fresh_sampler()

    def per_sample_epoch():
        """The pre-optimization inner loop (weights restored afterwards)."""
        sampler = sampler_base
        W1c, b1c, W2c, b2c = W1.copy(), b1.copy(), W2.copy(), b2.copy()
        for i in range(chunk):
            start, stop = Xc.indptr[i], Xc.indptr[i + 1]
            cols = Xc.indices[start:stop]
            vals = Xc.data[start:stop]
            labels = label_sets[i]
            z1 = vals @ W1c[cols] + b1c
            h1 = np.maximum(z1, 0.0)
            active = sampler.sample(h1, labels)
            k = labels.size
            logits = h1 @ W2c[:, active] + b2c[active]
            logits -= logits.max()
            p = np.exp(logits)
            p /= p.sum()
            dlog = p
            dlog[:k] -= np.float32(1.0 / k)
            dh = W2c[:, active] @ dlog
            dz1 = dh * (z1 > 0.0)
            W2c[:, active] -= lr * np.outer(h1, dlog)
            b2c[active] -= lr * dlog
            W1c[cols] -= lr * np.outer(vals, dz1)
            b1c -= lr * dz1

    def chunked():
        sampler = sampler_chunk
        W1c, b1c, W2c, b2c = W1.copy(), b1.copy(), W2.copy(), b2.copy()
        H1 = spmm_into(Xc, W1c, np.empty((chunk, H), dtype=np.float32))
        H1 += b1c
        np.maximum(H1, 0.0, out=H1)
        actives = sampler.sample_batch(H1, label_sets)
        slide_chunk_step(
            Xc, H1, label_counts, actives, W1c, b1c, W2c, b2c, lr,
        )

    baseline_us = _time(per_sample_epoch, reps, warmup=1)
    fast_us = _time(chunked, reps, warmup=1)
    return {
        "what": f"{chunk}-sample SLIDE update, dims=({F},{H},{L})",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
        "per_sample_us_baseline": baseline_us / chunk,
        "per_sample_us_fast": fast_us / chunk,
    }


def bench_telemetry(smoke: bool) -> dict:
    """Wall cost of a real trainer run: telemetry disabled vs enabled.

    Unlike the other sections (old idiom vs new kernel), this one measures
    the *overhead* of the tracing layer itself — ``overhead`` is the
    fractional slowdown of the enabled run and must stay under the 5%
    budget (``speedup`` is its reciprocal framing, for the shared report).
    """
    from repro.api import make_trainer  # noqa: E402 (after sys.path insert)
    from repro.harness.experiment import ExperimentSpec  # noqa: E402
    from repro.telemetry import Telemetry  # noqa: E402

    budget = 0.03 if not smoke else 0.015
    pairs = 7 if not smoke else 5
    spec = ExperimentSpec(dataset="micro", gpu_counts=(4,), time_budget_s=budget)

    def run_once(telemetry):
        # Fresh recorder per rep so event buffers never amortize across reps.
        trainer = make_trainer("adaptive", spec, telemetry=telemetry)
        return trainer.run(time_budget_s=budget)

    run_once(None)
    run_once(Telemetry())  # warmup both arms
    # Shared-machine noise is bursty and multiplicative, so the arms are
    # interleaved: each pair runs disabled-then-enabled back to back, and
    # the overhead estimate is the *minimum* paired ratio — the quietest
    # pair. A real tracing regression shifts every pair, so the gate still
    # catches it; a contention spike only inflates the pairs it lands on.
    base_times, fast_times, ratios = [], [], []
    for _ in range(pairs):
        t0 = time.perf_counter()
        run_once(None)
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_once(Telemetry())
        fast = time.perf_counter() - t0
        base_times.append(base)
        fast_times.append(fast)
        ratios.append(fast / base)
    baseline_us = min(base_times) * 1e6
    fast_us = min(fast_times) * 1e6
    return {
        "what": f"adaptive run on micro, budget={budget}s, disabled vs enabled",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
        "overhead": min(ratios) - 1.0,
    }


def _micro_archive(tmp, label: str, algorithms, budget: float) -> Path:
    """The JSONL archive of a 4-GPU ``micro`` grid of ``algorithms``."""
    from repro.harness.experiment import ExperimentSpec, run_experiment  # noqa: E402
    from repro.telemetry import Telemetry  # noqa: E402
    from repro.telemetry.export import write_jsonl  # noqa: E402

    tel = Telemetry(label=label)
    run_experiment(ExperimentSpec(
        dataset="micro", algorithms=algorithms, gpu_counts=(4,),
        time_budget_s=budget,
    ), telemetry=tel)
    return write_jsonl(tel, Path(tmp) / f"{label}.telemetry.jsonl")


def bench_trace_load(smoke: bool) -> dict:
    """Read side: one load of a two-algorithm micro archive."""
    from repro.telemetry.trace_data import TraceData  # noqa: E402

    budget, reps = (0.03, 15) if not smoke else (0.01, 9)
    with tempfile.TemporaryDirectory() as tmp:
        path = _micro_archive(tmp, "trace_load", ("adaptive", "elastic"),
                              budget)
        with path.open() as fh:
            n_records = sum(1 for _ in fh)
        # repr, not ==: null samples load as NaN on both sides.
        if repr(reference_trace_load(path)) != repr(TraceData.from_jsonl(path)):
            raise AssertionError("reference and shipped loaders disagree")
        baseline_us, fast_us = _time_alternating(
            lambda: reference_trace_load(path),
            lambda: TraceData.from_jsonl(path), reps,
        )
    return {
        "what": f"load of a {n_records}-record two-run JSONL archive",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
        "records_per_s": n_records / (fast_us * 1e-6),
    }


def bench_topk(smoke: bool) -> dict:
    """Ranking: the pre-rounds kernel vs ``topk_indices`` at k=5.

    Same shapes in smoke mode (the ratio depends on the shape, so a smaller
    one could not be gated against a full-mode file); ``speedup`` is the
    serve-sized block's, the one every ``repro serve`` batch pays.
    """
    from tests.reference import topk_indices as reference_topk  # noqa: E402

    rng = np.random.default_rng(12)

    def pair(n, L, rounds):
        scores = rng.normal(size=(n, L)).astype(np.float32)
        if not np.array_equal(
            reference_topk(scores, 5), metrics.topk_indices(scores, 5)
        ):
            raise AssertionError("reference and shipped top-k disagree")
        return _time_alternating(
            lambda: reference_topk(scores, 5),
            lambda: metrics.topk_indices(scores, 5), rounds, burst=3,
        )

    def sweep(n, L, reps):
        """Per k: the partition path and the rounds, the constant ignored."""
        scores = rng.normal(size=(n, L)).astype(np.float32)
        out = {}
        for k in (1, 5, 16, 32, 64):
            if k <= L:
                partition_us, rounds_us = _time_alternating(
                    lambda: metrics._topk_partition(scores, k),
                    lambda: metrics._topk_argmax_rounds(scores, k), reps,
                    burst=3,
                )
                out[str(k)] = {
                    "partition_us": partition_us, "rounds_us": rounds_us,
                }
        return out

    shrink = 1 if not smoke else 3  # fewer rounds, never smaller shapes
    baseline_us, fast_us = pair(12, 64, 150 // shrink)
    xml_baseline_us, xml_fast_us = pair(128, 1536, 15 // shrink)
    scale_baseline_us, scale_fast_us = pair(512, 32768, 1)
    return {
        "what": "top-5 of (12, 64) scores; xml = (128, 1536), "
                "scale = (512, 32768)",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
        "xml_baseline_us": xml_baseline_us,
        "xml_fast_us": xml_fast_us,
        "xml_speedup": xml_baseline_us / xml_fast_us,
        "scale_baseline_us": scale_baseline_us,
        "scale_fast_us": scale_fast_us,
        "scale_speedup": scale_baseline_us / scale_fast_us,
        "rounds_max_k": metrics.ARGMAX_ROUNDS_MAX_K,
        "k_sweep": {
            "(12, 64)": sweep(12, 64, 90 // shrink),
            "(12, 256)": sweep(12, 256, 90 // shrink),
            "(128, 1536)": sweep(128, 1536, 6 // shrink),
        },
    }


def straggler_run(n_devices, n_merges, spans_per_device, seed=14):
    """A long synthetic training run for the boundary scan: per merge
    window, every device runs its share of steps at its own speed (device
    ``d`` is ``1 + d/4`` times slower), then a driver merge starts once the
    slowest has finished."""
    from repro.telemetry.events import SpanEvent  # noqa: E402
    from repro.telemetry.trace_data import RunData  # noqa: E402

    rng = np.random.default_rng(seed)
    per_window = spans_per_device // n_merges
    spans, t = [], 0.0
    for _ in range(n_merges):
        ends = []
        for d in range(n_devices):
            cursor = t
            for dur in rng.uniform(0.5, 1.5, per_window) * (1 + d / 4) * 1e-3:
                spans.append(SpanEvent("step.compute", cursor, float(dur), 0,
                                       d, {"size": 64}))
                cursor += float(dur)
            ends.append(cursor)
        merge_ts = max(ends)
        spans.append(SpanEvent("merge", merge_ts, 2e-4, 0))
        t = merge_ts + 2e-4
    spans.insert(0, SpanEvent("run", 0.0, t, 0))
    return RunData(index=0, spans=spans)


def bench_analysis(smoke: bool) -> dict:
    """Read side: the straggler scan of one long run.

    The rescanning loop (``tests/reference.py``; it no longer exists in
    ``src/``) walks every device's sorted span ends from the start at each
    merge; ``critical_path`` bisects them. Same run in smoke mode (the
    ratio grows with the run), fewer rounds.
    """
    from repro.telemetry.analyze import critical_path  # noqa: E402
    from tests.reference import critical_path as rescanning  # noqa: E402

    n_devices, n_merges, spans_per_device = 4, 200, 5000
    run = straggler_run(n_devices, n_merges, spans_per_device)
    if rescanning(run) != critical_path(run):
        raise AssertionError("reference and shipped straggler scans disagree")
    baseline_us, fast_us = _time_alternating(
        lambda: rescanning(run), lambda: critical_path(run),
        5 if not smoke else 3,
    )
    return {
        "what": f"critical_path of {n_devices} devices x {spans_per_device} "
                f"spans, {n_merges} merges",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
    }


def bench_run_load(smoke: bool) -> dict:
    """Read side: one run of a seven-run grid archive, built alone.

    The same archive in smoke mode (the ratio follows the run's share of
    the lines, not the archive's size), fewer rounds.
    """
    from repro.telemetry.trace_data import TraceData  # noqa: E402

    algorithms = ("adaptive", "elastic", "tensorflow", "crossbow", "slide",
                  "async", "minibatch")
    index = 1
    with tempfile.TemporaryDirectory() as tmp:
        path = _micro_archive(tmp, "run_load", algorithms, 0.01)
        with path.open() as fh:
            n_lines = sum(1 for _ in fh)
        full = TraceData.from_jsonl(path)
        one = TraceData.from_jsonl(path, runs={index})
        # repr, not ==: null samples load as NaN on both sides.
        if repr(one.run(index)) != repr(full.run(index)) \
                or {len(one.runs), len(full.runs)} != {len(algorithms)}:
            raise AssertionError("selective and full loads disagree")
        baseline_us, fast_us = _time_alternating(
            lambda: TraceData.from_jsonl(path),
            lambda: TraceData.from_jsonl(path, runs={index}),
            9 if not smoke else 5,
        )
    run = full.run(index)
    return {
        "what": f"run {index} of a {n_lines}-line seven-run JSONL archive, "
                "alone vs the full load",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
        "run_records": len(run.spans) + len(run.instants)
        + sum(len(series) for series in run.samples.values()),
    }


def bench_batching(smoke: bool) -> dict:
    """Batch construction: the per-step cursor vs the window cursor.

    One timed call serves ``calls`` consecutive batches, so every arm pays
    its window refills (at least ten per call) inside the timed region, and
    each arm keeps its last four batches alive, as the four GPU managers of
    ``train-micro`` do. Same datasets and sizes in smoke mode; ``speedup``
    is ``micro``'s, the shape ``train-micro`` pays 3,612 times.
    """
    from tests.reference import BatchCursor as PerStepCursor  # noqa: E402

    calls = 400
    rounds = 24 if not smoke else 8

    def serving(cursor, size):
        live = collections.deque(maxlen=4)

        def serve():
            for _ in range(calls):
                live.append(cursor.next_batch(size))
        return serve

    def pair(name, size, n_labels):
        train = load_task(name).train
        old, new = PerStepCursor(train, seed=1), BatchCursor(train, seed=1)
        for _ in range(2 * calls):
            want, got = old.next_batch(size), new.next_batch(size)
            same = want.nnz == got.nnz and all(
                np.array_equal(getattr(a, part), getattr(b, part))
                for a, b in ((want.X, got.X), (want.Y, got.Y))
                for part in ("data", "indices", "indptr")
            )
            if not same or not np.array_equal(want.indices, got.indices):
                raise AssertionError("reference and window cursor disagree")
        old_us, new_us = _time_alternating(
            serving(old, size), serving(new, size), rounds,
        )
        batch = new.next_batch(size)
        logits = np.random.default_rng(13).normal(
            size=(size, n_labels)).astype(np.float32)
        buf = np.empty_like(logits)
        rebuilt_us, carried_us = _time_alternating(
            lambda: softmax_cross_entropy(logits, batch.Y, grad_out=buf),
            lambda: softmax_cross_entropy(
                logits, batch.Y, grad_out=buf, targets=batch.targets),
            30 * rounds, burst=3,
        )
        return old_us / calls, new_us / calls, rebuilt_us / 3, carried_us / 3

    baseline_us, fast_us, rebuilt_us, carried_us = pair("micro", 108, 64)
    xml = pair("amazon670k-bench", 116, 1536)
    return {
        "what": "next_batch(108) on micro, refills included; xml = "
                "next_batch(116) on amazon670k-bench; loss = targets "
                "rebuilt from Y vs carried on the batch",
        "baseline_us": baseline_us,
        "fast_us": fast_us,
        "speedup": baseline_us / fast_us,
        "xml_baseline_us": xml[0],
        "xml_fast_us": xml[1],
        "xml_speedup": xml[0] / xml[1],
        "loss_rebuilt_us": rebuilt_us,
        "loss_carried_us": carried_us,
        "xml_loss_rebuilt_us": xml[2],
        "xml_loss_carried_us": xml[3],
    }


#: Runs in a fresh interpreter: one CLI command with its output swallowed,
#: then the number of ``repro`` modules it left loaded.
_COLD_START_PROBE = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
assert code == 0, code
print(sum(m == "repro" or m.startswith("repro.") for m in sys.modules))
"""


def bench_cold_start(smoke: bool) -> dict:
    """Read side, whole process: what a user waits for a table.

    ``baseline_us`` is the bare interpreter, ``fast_us`` ``runs ls --json``
    (so ``speedup`` is the share of that command the interpreter alone
    takes; the other sections' ratio, here at most 1).
    """
    from repro.cli import main  # noqa: E402

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("REPRO_REGISTRY", None)
    reps = 7 if not smoke else 3

    def wall_us(argv):
        def spawn():
            subprocess.run(
                [sys.executable, *argv], env=env, check=True,
                stdout=subprocess.DEVNULL,
            )
        return _time(spawn, reps, warmup=1)

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([
                "trace", "--dataset", "micro", "--time-budget-s", "0.01",
                "--gpus", "2", "--algorithms", "adaptive", "elastic",
                "--out", f"{tmp}/G", "--registry", f"{tmp}/R",
            ])
        if code != 0:
            raise AssertionError("cold_start fixture: repro trace failed")
        commands = {
            "runs_ls": ["runs", "ls", "--json", "--registry", f"{tmp}/R"],
            "analyze": ["analyze", f"{tmp}/G.telemetry.jsonl", "--json"],
        }
        bare_us = wall_us(["-c", "pass"])
        wall = {
            name: wall_us(["-m", "repro", *argv])
            for name, argv in commands.items()
        }
        modules = {
            name: int(subprocess.run(
                [sys.executable, "-c", _COLD_START_PROBE, *argv], env=env,
                check=True, capture_output=True, text=True,
            ).stdout.split()[-1])
            for name, argv in commands.items()
        }
    return {
        "what": "python -c pass vs python -m repro runs ls --json; "
                "analyze = analyze <two-run archive> --json",
        "baseline_us": bare_us,
        "fast_us": wall["runs_ls"],
        "speedup": bare_us / wall["runs_ls"],
        "analyze_us": wall["analyze"],
        "modules": modules,
    }


ALL_SECTIONS = (
    "gather", "step", "loss", "merge", "slide", "telemetry", "trace_load",
    "topk", "batching", "cold_start", "analysis", "run_load",
)


def run(smoke: bool, sections_filter=None) -> dict:
    sections = {}
    for name, fn in (
        ("gather", bench_gather),
        ("step", bench_step),
        ("loss", bench_loss),
        ("merge", bench_merge),
        ("slide", bench_slide),
        ("telemetry", bench_telemetry),
        ("trace_load", bench_trace_load),
        ("topk", bench_topk),
        ("batching", bench_batching),
        ("cold_start", bench_cold_start),
        ("analysis", bench_analysis),
        ("run_load", bench_run_load),
    ):
        if sections_filter is not None and name not in sections_filter:
            continue
        sections[name] = fn(smoke)
        s = sections[name]
        print(
            f"{name:>10}: {s['baseline_us']:10.1f} us -> {s['fast_us']:10.1f} us "
            f"({s['speedup']:.2f}x)  [{s['what']}]"
        )
    return {
        "benchmark": "hotpath",
        "mode": "smoke" if smoke else "full",
        "sections": sections,
    }


def check(results: dict, baseline_path: Path, registry=None) -> int:
    """CI gate: speedup regressions >30%, telemetry overhead >5% and a
    cold start that loads more ``repro`` modules than the baseline fail.

    With ``registry``, the expected speedup per gated section is the
    median of the registry's last green runs of this bench (the checked-in
    JSON is the fallback while the index holds < 2 prior runs); without
    one, the checked-in JSON gates alone, as before.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name in GATED_SECTIONS:
        if name not in results["sections"]:
            continue  # filtered out by --sections
        have = results["sections"][name]["speedup"]
        fallback = baseline["sections"][name]["speedup"]
        if registry is not None:
            from repro.registry import history_baseline

            resolved = history_baseline(
                registry, f"sections/{name}/speedup",
                bench="hotpath", fallback=fallback,
            )
            want = resolved.value
            print(f"check {name}: baseline source: {resolved.describe()}")
        else:
            want = fallback
        floor = want * (1.0 - REGRESSION_TOLERANCE)
        status = "ok" if have >= floor else "REGRESSED"
        print(f"check {name}: speedup {have:.2f}x vs baseline {want:.2f}x "
              f"(floor {floor:.2f}x) -> {status}")
        if have < floor:
            failures.append(name)
    # Absolute gate, independent of the baseline file: enabled telemetry may
    # cost at most TELEMETRY_OVERHEAD_BUDGET over the disabled run.
    telemetry = results["sections"].get("telemetry")
    if telemetry is not None:
        overhead = telemetry["overhead"]
        status = "ok" if overhead <= TELEMETRY_OVERHEAD_BUDGET else "OVER BUDGET"
        print(f"check telemetry: overhead {overhead * 100:+.2f}% "
              f"(budget {TELEMETRY_OVERHEAD_BUDGET * 100:.0f}%) -> {status}")
        if overhead > TELEMETRY_OVERHEAD_BUDGET:
            failures.append("telemetry")
    # A count, not a time: a command may not load more ``repro`` modules
    # than the baseline file records for it.
    cold = results["sections"].get("cold_start")
    if cold is not None:
        want = baseline["sections"]["cold_start"]["modules"]
        over = {
            name: n for name, n in cold["modules"].items() if n > want[name]
        }
        status = "ok" if not over else f"MORE IMPORTS {over}"
        print(f"check cold_start: repro modules loaded {cold['modules']} "
              f"vs baseline {want} -> {status}")
        if over:
            failures.append("cold_start")
    if failures:
        print(f"FAIL: hot-path regression in {failures}")
        return 1
    print("hot-path regression check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small/fast sizes")
    parser.add_argument("--out", type=Path, default=None,
                        help="write results JSON here")
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline JSON to gate speedups against "
                             "(the fallback when --registry has history)")
    parser.add_argument("--registry", type=Path, default=None,
                        help="cross-run registry root: gate against index "
                             "history and register this run's results")
    parser.add_argument("--sections", nargs="+", default=None,
                        choices=ALL_SECTIONS,
                        help="run only these sections (default: all)")
    args = parser.parse_args(argv)
    registry = None
    if args.registry is not None:
        from repro.registry import RunRegistry

        registry = RunRegistry(args.registry)
    results = run(smoke=args.smoke, sections_filter=args.sections)
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")
    rc = 0
    if args.check is not None:
        rc = check(results, args.check, registry=registry)
    if registry is not None:
        # Register after the gate so a run never baselines itself, and
        # mark gate failures red so they never enter future baselines.
        from repro.registry import record_bench_run

        run_id = record_bench_run(
            registry, "hotpath", results,
            status="green" if rc == 0 else "red",
        )
        print(f"registered: {run_id} (registry {args.registry})")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
