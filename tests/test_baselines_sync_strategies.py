"""The TF baseline's distribution strategy (§V-A).

The paper extended the SLIDE testbed's TensorFlow code "to multi-GPUs both
with the mirrored and central storage strategy. Since the mirrored strategy
proves superior, we include only these TensorFlow results in the paper."
The reproduction implements the reported one, ``mirrored``; its trace keeps
the strategy and the framework overhead it ran with.
"""

from repro.baselines.sync_sgd import SyncSGDTrainer
from repro.core.config import AdaptiveSGDConfig
from repro.gpu.cluster import make_server
from repro.gpu.cost import CpuCostParams, GpuCostParams


def build(micro_task):
    server = make_server(
        4, seed=5,
        cost_params=GpuCostParams.tiny_model_profile(),
        cpu_params=CpuCostParams.tiny_model_profile(),
    )
    cfg = AdaptiveSGDConfig(b_max=64, base_lr=0.2, mega_batch_batches=16)
    return SyncSGDTrainer(
        micro_task, server, cfg, hidden=(32,),
        init_seed=7, data_seed=3, eval_samples=128,
    )


class TestStrategies:
    def test_strategy_recorded_in_metadata(self, micro_task):
        trace = build(micro_task).run(time_budget_s=0.01)
        assert trace.metadata["strategy"] == "mirrored"
        assert trace.metadata["framework_overhead"] == 1.35
