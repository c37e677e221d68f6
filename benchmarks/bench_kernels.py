"""Host microbenchmarks of the numeric substrate (pytest-benchmark proper).

Not a paper artifact: these time the real numpy/scipy kernels that every
simulated experiment executes on the host — forward/backward of the sparse
MLP, the multi-label loss, P@k evaluation, the per-sample SLIDE update, and
LSH table maintenance. They exist to keep the reproduction's host cost
under control (a regression here slows every bench and test).
"""

import numpy as np
import pytest

from repro.baselines.slide.lsh import SimHashLSH
from repro.data.batching import BatchCursor
from repro.data.registry import load_task
from repro.sparse.loss import softmax_cross_entropy
from repro.sparse.metrics import precision_at_k
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from repro.sparse.optimizer import sgd_step


@pytest.fixture(scope="module")
def workload():
    task = load_task("amazon670k-bench", seed=0)
    arch = MLPArchitecture(task.n_features, task.n_labels, hidden=(64,))
    mlp = SparseMLP(arch)
    state = mlp.init_state(seed=0)
    batch = BatchCursor(task.train, seed=0).next_batch(128)
    return task, mlp, state, batch


def test_forward_pass(benchmark, workload):
    _, mlp, state, batch = workload
    logits = benchmark(mlp.predict, batch.X, state)
    assert logits.shape == (128, mlp.arch.n_labels)


def test_loss_and_grad(benchmark, workload):
    _, mlp, state, batch = workload
    grad = mlp.zeros_state()
    loss, _ = benchmark(mlp.loss_and_grad, batch, state, grad)
    assert np.isfinite(loss)


def test_sgd_step(benchmark, workload):
    _, mlp, state, batch = workload
    _, grad = mlp.loss_and_grad(batch, state)
    working = state.copy()
    benchmark(sgd_step, working, grad, 0.1)


def test_softmax_cross_entropy_kernel(benchmark, workload):
    task, mlp, state, batch = workload
    logits = mlp.predict(batch.X, state)
    loss, _ = benchmark(softmax_cross_entropy, logits, batch.Y)
    assert loss > 0


def test_precision_at_k_kernel(benchmark, workload):
    task, mlp, state, _ = workload
    X, Y = task.test.X[:512], task.test.Y[:512]
    scores = mlp.predict(X, state)
    out = benchmark(precision_at_k, scores, Y, (1, 3, 5))
    assert set(out) == {1, 3, 5}


def test_lsh_rebuild(benchmark, workload):
    _, mlp, state, _ = workload
    lsh = SimHashLSH(64, n_tables=8, n_bits=8, seed=0)
    benchmark(lsh.rebuild, state["W2"])
    assert lsh.is_built


def test_lsh_query(benchmark, workload):
    _, mlp, state, _ = workload
    lsh = SimHashLSH(64, n_tables=8, n_bits=8, seed=0)
    lsh.rebuild(state["W2"])
    query = np.random.default_rng(1).normal(size=(1, 64)).astype(np.float32)
    row_ptr, ids = benchmark(lsh.candidates, query)
    assert row_ptr[-1] == ids.size
