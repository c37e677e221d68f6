"""Tests for the SLIDE baseline: LSH tables, active sampling, trainer."""

import numpy as np
import pytest

from repro.baselines.slide.lsh import SimHashLSH
from repro.baselines.slide.sampler import ActiveLabelSampler
from repro.baselines.slide.trainer import SlideTrainer
from repro.core.config import AdaptiveSGDConfig
from repro.exceptions import ConfigurationError
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from tests import reference


def query(lsh, vector, **kwargs):
    """One vector's candidates: the single row of ``lsh.candidates``."""
    row_ptr, ids = lsh.candidates(vector[None, :], **kwargs)
    assert np.array_equal(row_ptr, [0, ids.size])
    return ids


class TestSimHashLSH:
    def make_index(self, dim=16, n_items=200, seed=0, **kwargs):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(dim, n_items)).astype(np.float32)
        lsh = SimHashLSH(dim, seed=seed, **kwargs)
        lsh.rebuild(weights)
        return lsh, weights

    def test_query_before_rebuild_rejected(self):
        lsh = SimHashLSH(8)
        with pytest.raises(ConfigurationError):
            query(lsh, np.zeros(8, dtype=np.float32))

    def test_self_retrieval(self):
        """An item's own vector must retrieve the item (identical signatures)."""
        lsh, weights = self.make_index()
        hits = 0
        for j in range(50):
            if j in query(lsh, np.ascontiguousarray(weights[:, j])):
                hits += 1
        assert hits == 50

    def test_similarity_bias(self):
        """Queries retrieve high-inner-product items far above chance."""
        lsh, weights = self.make_index(n_items=500)
        rng = np.random.default_rng(3)
        better = 0
        trials = 30
        for _ in range(trials):
            q = rng.normal(size=16).astype(np.float32)
            retrieved = query(lsh, q)
            if retrieved.size == 0 or retrieved.size == 500:
                continue
            sims = q @ weights  # inner products with all items
            mean_retrieved = sims[retrieved].mean()
            mask = np.ones(500, dtype=bool)
            mask[retrieved] = False
            if mean_retrieved > sims[mask].mean():
                better += 1
        assert better > trials * 0.7

    def test_rebuild_reflects_new_weights(self):
        lsh, weights = self.make_index()
        moved = weights.copy()
        moved[:, 0] = -moved[:, 0]
        lsh.rebuild(moved)
        assert lsh.rebuilds == 2
        # Item 0's negated vector retrieves item 0 under the new index.
        assert 0 in query(lsh, np.ascontiguousarray(moved[:, 0]))

    def test_query_returns_sorted_unique(self):
        lsh, _ = self.make_index(n_tables=12, n_bits=4)
        out = query(lsh, np.ones(16, dtype=np.float32))
        assert np.array_equal(out, np.unique(out))

    def test_candidates_equal_dict_tables(self):
        """The flat index answers like per-table dicts, at 1 and 3 probes."""
        lsh, weights = self.make_index(n_tables=6, n_bits=5)
        tables = reference.DictTableLSH(lsh, weights)
        H = np.random.default_rng(4).normal(size=(25, 16)).astype(np.float32)
        for n_probes in (1, 3):
            row_ptr, ids = lsh.candidates(H, n_probes=n_probes)
            for i, want in enumerate(tables.query_batch(H, n_probes=n_probes)):
                assert np.array_equal(ids[row_ptr[i]:row_ptr[i + 1]], want)

    def test_deterministic(self):
        a, wa = self.make_index(seed=9)
        b, wb = self.make_index(seed=9)
        q = np.linspace(-1, 1, 16).astype(np.float32)
        assert np.array_equal(query(a, q), query(b, q))

    def test_shape_validation(self):
        lsh = SimHashLSH(8)
        with pytest.raises(ConfigurationError):
            lsh.rebuild(np.zeros((9, 10), dtype=np.float32))
        lsh.rebuild(np.zeros((8, 10), dtype=np.float32))
        with pytest.raises(ConfigurationError):
            query(lsh, np.zeros(9, dtype=np.float32))

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            SimHashLSH(0)
        with pytest.raises(ConfigurationError):
            SimHashLSH(8, n_tables=0)
        with pytest.raises(ConfigurationError):
            SimHashLSH(8, n_bits=40)


class TestActiveLabelSampler:
    def make(self, n_labels=300, **kwargs):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(16, n_labels)).astype(np.float32)
        lsh = SimHashLSH(16, seed=1)
        lsh.rebuild(weights)
        defaults = dict(min_active=20, max_active=64, seed=2)
        defaults.update(kwargs)
        return ActiveLabelSampler(n_labels, lsh, **defaults), weights

    def test_true_labels_always_first(self):
        sampler, _ = self.make()
        true = np.array([5, 250, 17])
        active = sampler.sample(np.ones(16, dtype=np.float32), true)
        assert np.array_equal(active[:3], np.unique(true))

    def test_min_active_enforced(self):
        sampler, _ = self.make(min_active=30)
        active = sampler.sample(np.zeros(16, dtype=np.float32), np.array([1]))
        assert active.size >= 30

    def test_max_active_enforced(self):
        sampler, _ = self.make(max_active=40)
        active = sampler.sample(np.ones(16, dtype=np.float32), np.array([1]))
        assert active.size <= 40

    def test_no_duplicates(self):
        sampler, _ = self.make()
        active = sampler.sample(
            np.ones(16, dtype=np.float32), np.array([3, 4])
        )
        assert len(np.unique(active)) == len(active)

    def test_no_labels_rejected(self):
        sampler, _ = self.make()
        with pytest.raises(ConfigurationError):
            sampler.sample(np.ones(16, dtype=np.float32), np.array([], dtype=np.int64))

    def test_more_true_labels_than_cap(self):
        sampler, _ = self.make(min_active=4, max_active=8)
        true = np.arange(20)
        active = sampler.sample(np.ones(16, dtype=np.float32), true)
        assert np.array_equal(np.sort(active), true)  # all kept

    def test_invalid_bounds_rejected(self):
        lsh = SimHashLSH(4)
        with pytest.raises(ConfigurationError):
            ActiveLabelSampler(10, lsh, min_active=5, max_active=4)


class TestSlideTrainer:
    def make_trainer(self, micro_task, **kwargs):
        server = make_server(
            1, seed=5, cost_params=GpuCostParams.tiny_model_profile()
        )
        defaults = dict(
            hidden=(32,), init_seed=7, data_seed=3, eval_samples=128,
        )
        defaults.update(kwargs)
        return SlideTrainer(
            micro_task, server,
            AdaptiveSGDConfig(b_max=64, base_lr=0.5, mega_batch_batches=8),
            **defaults,
        )

    def test_learns(self, micro_task):
        trace = self.make_trainer(micro_task).run(time_budget_s=0.01)
        assert trace.best_accuracy > trace.points[0].accuracy + 0.1

    def test_per_sample_updates(self, micro_task):
        trace = self.make_trainer(micro_task).run(time_budget_s=0.005)
        last = trace.points[-1]
        assert last.updates == last.samples  # one update per sample

    def test_statistical_efficiency_premise(self, micro_task):
        """SLIDE performs far more updates per epoch than batched SGD."""
        trace = self.make_trainer(micro_task).run(time_budget_s=0.005)
        last = trace.points[-1]
        updates_per_epoch = last.updates / max(last.epochs, 1e-9)
        assert updates_per_epoch == pytest.approx(
            micro_task.train.n_samples, rel=0.01
        )

    def test_deterministic(self, micro_task):
        a = self.make_trainer(micro_task).run(time_budget_s=0.004)
        b = self.make_trainer(micro_task).run(time_budget_s=0.004)
        assert [p.accuracy for p in a.points] == [p.accuracy for p in b.points]

    def test_default_lr_linear_scaled(self, micro_task):
        trainer = self.make_trainer(micro_task)
        assert trainer.lr == pytest.approx(0.5 / 64)

    def test_requires_single_hidden_layer(self, micro_task):
        trainer = self.make_trainer(micro_task, hidden=(16, 16))
        with pytest.raises(ConfigurationError, match="3-layer"):
            trainer.run(time_budget_s=0.002)

    def test_runs_on_cpu_device(self, micro_task):
        trainer = self.make_trainer(micro_task)
        trainer.run(time_budget_s=0.004)
        assert trainer.server.cpu.busy_seconds > 0
        assert all(g.busy_seconds == 0 for g in trainer.server.gpus)
