"""Tests for repro.data.batching — cursors, static batches, mega-batches."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.batching import (
    WINDOW_ROWS,
    Batch,
    BatchCursor,
    MegaBatchAccountant,
    ShuffledStream,
    static_batches,
)
from repro.data.dataset import SparseDataset
from repro.data.registry import load_task
from repro.exceptions import ConfigurationError, DataFormatError
from repro.sparse.loss import label_targets
from repro.utils.rng import make_rng
from tests import reference


@pytest.fixture(scope="module", params=["micro", "amazon670k-bench"])
def train(request, micro_task):
    """A split smaller than the window and one twice its size."""
    if request.param == "micro":
        return micro_task.train
    return load_task(request.param, seed=1).train


def assert_same_batch(got, want):
    """``got`` (window cursor) is ``want`` (per-step oracle), dtypes too."""
    assert got.sequence == want.sequence
    assert got.nnz == want.nnz and type(got.nnz) is int
    assert got.size == want.size
    for a, b in ((got.indices, want.indices),
                 *((getattr(m, part), getattr(o, part))
                   for m, o in ((got.X, want.X), (got.Y, want.Y))
                   for part in ("data", "indices", "indptr"))):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert got.X.shape == want.X.shape and got.Y.shape == want.Y.shape
    for a, b in zip(got.targets, label_targets(want.Y)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


class TestBatchCursor:
    def test_serves_requested_sizes(self, micro_task):
        cursor = BatchCursor(micro_task.train, seed=1)
        for size in (10, 1, 99, 64):
            batch = cursor.next_batch(size)
            assert batch.size == size
            assert batch.X.shape == (size, micro_task.n_features)
            assert batch.Y.shape == (size, micro_task.n_labels)

    def test_epoch_covers_every_sample_once(self, micro_task):
        n = micro_task.train.n_samples
        cursor = BatchCursor(micro_task.train, seed=1)
        seen = np.concatenate(
            [cursor.next_batch(64).indices for _ in range(n // 64)]
        )
        assert len(seen) == n
        assert len(np.unique(seen)) == n  # exactly one epoch, no repeats

    def test_reshuffle_across_epoch_boundary(self, micro_task):
        n = micro_task.train.n_samples
        cursor = BatchCursor(micro_task.train, seed=1)
        batch = cursor.next_batch(n + 10)  # crosses the boundary
        assert batch.size == n + 10
        counts = np.bincount(batch.indices, minlength=n)
        assert counts.max() <= 2  # a sample repeats at most once

    def test_epochs_completed(self, micro_task):
        n = micro_task.train.n_samples
        cursor = BatchCursor(micro_task.train, seed=0)
        cursor.next_batch(n // 2)
        assert cursor.epochs_completed == pytest.approx(0.5)
        cursor.next_batch(n // 2)
        assert cursor.epochs_completed == pytest.approx(1.0)

    def test_sequence_numbers(self, micro_task):
        cursor = BatchCursor(micro_task.train, seed=0)
        assert cursor.next_batch(4).sequence == 0
        assert cursor.next_batch(4).sequence == 1
        assert cursor.batches_served == 2

    def test_deterministic_given_seed(self, micro_task):
        a = BatchCursor(micro_task.train, seed=9).next_batch(32)
        b = BatchCursor(micro_task.train, seed=9).next_batch(32)
        assert np.array_equal(a.indices, b.indices)

    def test_invalid_size_rejected(self, micro_task):
        with pytest.raises(ConfigurationError):
            BatchCursor(micro_task.train).next_batch(0)

    def test_nnz_property(self, micro_task):
        batch = BatchCursor(micro_task.train, seed=0).next_batch(16)
        assert batch.nnz == batch.X.nnz


class TestWindowAgainstPerStepOracle:
    """A batch is a slice of a window gathered once; the oracle gathers per
    step (``tests/reference.py``). Both must serve the same batches."""

    def test_mixed_requests_call_for_call(self, train):
        n = train.n_samples
        sizes = [1, 7, 64, n, n + 10, 3 * n + 5, WINDOW_ROWS - 1,
                 WINDOW_ROWS + 1, 2 * WINDOW_ROWS + 3, 1, 116, 108]
        cursor, oracle = BatchCursor(train, seed=3), reference.BatchCursor(train, seed=3)
        for size in sizes * 2:
            assert_same_batch(cursor.next_batch(size), oracle.next_batch(size))
            assert cursor.samples_served == oracle.samples_served
            assert cursor.epochs_completed == oracle.epochs_completed
        assert cursor.batches_served == 2 * len(sizes)

    def test_held_batches_survive_refills(self, train):
        """A refill replaces the window, so 40 batches held across four of
        them still equal their oracle twins: nothing aliases."""
        size = WINDOW_ROWS // 10 + 1
        cursor, oracle = BatchCursor(train, seed=5), reference.BatchCursor(train, seed=5)
        held = [(cursor.next_batch(size), oracle.next_batch(size)) for _ in range(40)]
        windows = {id(got.indices.base) for got, _ in held}
        assert len(windows) >= 4
        for got, want in held:
            assert_same_batch(got, want)

    @pytest.mark.parametrize("size", [1, 108, WINDOW_ROWS + 50])
    def test_window_is_bounded(self, train, size):
        cursor = BatchCursor(train, seed=1)
        for _ in range(3 * WINDOW_ROWS // size + 3):
            batch = cursor.next_batch(size)
            assert batch.indices.base.size <= WINDOW_ROWS + size
            assert batch.X.indices.base.size == batch.X.data.base.size
            assert np.shares_memory(batch.Y.indices, batch.Y.indices.base)

    @pytest.mark.parametrize("drop_last", [False, True])
    def test_static_batches_match_oracle(self, train, drop_last):
        for size in (60, 1000):
            got = list(static_batches(train, size, seed=4, drop_last=drop_last))
            want = list(reference.static_batches(
                train, size, seed=4, drop_last=drop_last))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_batch(g, w)

    def test_unlabelled_row_raises_at_the_refill_that_reaches_it(self):
        """``SparseDataset`` validates once; a ``Y`` doctored afterwards is
        still caught, at the window that gathers the empty row."""
        n = 3 * WINDOW_ROWS
        X = sp.random(n, 20, density=0.2, format="csr", dtype=np.float32,
                      random_state=np.random.default_rng(0))
        Y = sp.csr_matrix(
            (np.ones(n, np.float32), (np.arange(n), np.arange(n) % 7)),
            shape=(n, 7),
        )
        ds = SparseDataset(X=X, Y=Y)
        order = make_rng(9).permutation(n)
        victim = int(order[WINDOW_ROWS + 5])  # second window of the stream
        keep = np.ones(n, dtype=bool)
        keep[victim] = False
        ds.Y = sp.csr_matrix(
            (Y.data[keep], Y.indices[keep],
             np.concatenate([[0], np.cumsum(keep)]).astype(Y.indptr.dtype)),
            shape=Y.shape,
        )
        cursor = BatchCursor(ds, seed=9)
        for _ in range(WINDOW_ROWS // 128):
            cursor.next_batch(128)  # first window: no empty row in it
        with pytest.raises(DataFormatError, match="without labels"):
            cursor.next_batch(128)


class TestShuffledStream:
    def test_is_the_concatenation_of_the_generators_permutations(self):
        stream, rng = ShuffledStream(10, make_rng(2)), make_rng(2)
        want = np.concatenate([rng.permutation(10) for _ in range(4)])
        got = np.concatenate([stream.take(c) for c in (3, 7, 1, 25, 4)])
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class TestStaticBatches:
    def test_partition_covers_epoch(self, micro_task):
        n = micro_task.train.n_samples
        batches = list(static_batches(micro_task.train, 60, seed=4))
        assert sum(b.size for b in batches) == n
        all_idx = np.concatenate([b.indices for b in batches])
        assert len(np.unique(all_idx)) == n

    def test_drop_last(self, micro_task):
        batches = list(
            static_batches(micro_task.train, 60, seed=4, drop_last=True)
        )
        assert all(b.size == 60 for b in batches)

    def test_invalid_size_rejected(self, micro_task):
        with pytest.raises(ConfigurationError):
            list(static_batches(micro_task.train, 0))


class TestMegaBatchAccountant:
    def test_budget_flow(self):
        acc = MegaBatchAccountant(100)
        assert acc.remaining == 100 and not acc.exhausted
        acc.charge(60)
        assert acc.consumed == 60 and acc.remaining == 40
        assert acc.clamp(64) == 40  # clamped to what's left
        acc.charge(40)
        assert acc.exhausted
        assert acc.clamp(10) == 0

    def test_overcharge_rejected(self):
        acc = MegaBatchAccountant(10)
        with pytest.raises(ConfigurationError):
            acc.charge(11)

    def test_roll_over(self):
        acc = MegaBatchAccountant(10)
        acc.charge(10)
        acc.roll_over()
        assert acc.mega_batches_completed == 1
        assert acc.remaining == 10

    def test_early_roll_over_rejected(self):
        acc = MegaBatchAccountant(10)
        acc.charge(5)
        with pytest.raises(ConfigurationError):
            acc.roll_over()

    def test_zero_charge_rejected(self):
        with pytest.raises(ConfigurationError):
            MegaBatchAccountant(10).charge(0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            MegaBatchAccountant(0)
