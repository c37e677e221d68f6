"""The per-checkpoint accuracy probe: ``TrainerBase.evaluate`` streaming the
eval split through ``SparseMLP.evaluate`` a block of rows at a time."""

import tracemalloc

import numpy as np
import pytest

from repro.baselines.elastic import ElasticSGDTrainer
from repro.core.config import AdaptiveSGDConfig
from repro.data.synthetic import SyntheticXMLConfig, generate_xml_task
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.sparse.metrics import _topk_argmax_rounds, label_keys, precision_at_k


def make_trainer(task, *, b_max=64, eval_samples=None, hidden=(32,)):
    server = make_server(
        2, seed=5, cost_params=GpuCostParams.tiny_model_profile()
    )
    return ElasticSGDTrainer(
        task, server, AdaptiveSGDConfig(b_max=b_max, base_lr=0.2),
        hidden=hidden, init_seed=7, data_seed=3, eval_samples=eval_samples,
    )


def one_shot_accuracy(trainer, state):
    """P@1 over the whole split's logits: what the probe streams."""
    split = trainer._eval_split
    return precision_at_k(
        trainer.mlp.predict(split.X, state), split.Y, ks=(1,)
    )[1]


def trained_state(trainer):
    """A state whose predictions are not all one label."""
    trainer.run(time_budget_s=0.01)
    return trainer.final_state


class TestStreamedAccuracy:
    @pytest.mark.parametrize("block", [1, 7, 64, 129, 10_000])
    def test_bit_identical_to_one_shot_p_at_1(self, micro_task, block):
        trainer = make_trainer(micro_task, b_max=block)
        n = trainer._eval_split.n_samples
        assert n == 128 and block != n
        state = trained_state(make_trainer(micro_task))
        assert trainer.evaluate(state) == one_shot_accuracy(trainer, state)

    @pytest.mark.parametrize("poison", ["nan", "-inf"])
    @pytest.mark.parametrize("block", [1, 7, 64, 10_000])
    def test_non_finite_rows_take_the_fallback(self, micro_task, poison,
                                               block):
        """NaN and ``-inf`` logits defeat the argmax rounds; the ranking
        falls back per block and still matches the one-shot accuracy."""
        trainer = make_trainer(micro_task, b_max=block)
        state = trained_state(make_trainer(micro_task))
        if poison == "nan":
            state["b2"][::5] = np.nan  # NaN ranks last, as -inf
        else:
            state["b2"][:] = -np.inf  # every logit -inf: lowest id wins
        logits = trainer.mlp.predict(trainer._eval_split.X, state)
        assert _topk_argmax_rounds(logits, 1) is None
        assert trainer.evaluate(state) == one_shot_accuracy(trainer, state)

    def test_empty_eval_split_scores_zero(self, micro_task):
        trainer = make_trainer(micro_task)
        empty = micro_task.test.take(np.array([], dtype=np.int64))
        trainer._eval_split = empty
        trainer._eval_keys = label_keys(empty.Y)
        assert trainer.mlp.evaluate(empty.X, trainer.initial_state()).size == 0
        assert trainer.evaluate(trainer.initial_state()) == 0.0


class TestProbeMemory:
    """The probe's transient is one block of logits, whatever the split."""

    N_LABELS, BLOCK = 4096, 32

    @pytest.fixture(scope="class")
    def xml_task(self):
        return generate_xml_task(SyntheticXMLConfig(
            n_features=256, n_labels=self.N_LABELS, n_train=64,
            n_test=2048, avg_features_per_sample=8.0,
            avg_labels_per_sample=2.0, prototypes_per_label=2, seed=11,
        ))

    def transient_bytes(self, task, eval_samples):
        trainer = make_trainer(
            task, b_max=self.BLOCK, eval_samples=eval_samples, hidden=(16,)
        )
        state = trainer.initial_state()
        trainer.evaluate(state)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trainer.evaluate(state)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_transient_is_one_block_of_logits(self, xml_task):
        block_logits = self.BLOCK * self.N_LABELS * 4
        small = self.transient_bytes(xml_task, 512)
        large = self.transient_bytes(xml_task, 2048)
        assert small <= block_logits + 128 * 1024
        # 4x the rows adds only the per-row ids and hit flags.
        assert large <= small + 2048 * 64
        # The split's full logits would be 16x (512 rows) and 64x (2048).
        assert large < 2 * block_logits
