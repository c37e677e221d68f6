"""The dynamic scheduler — HeteroGPU's central coordination component.

§IV: "The most common task of the dynamic scheduler is to assign data
batches of different size to the GPU managers... these require the number of
model replica updates executed by every GPU manager — which are recorded by
the scheduler when batches are dispatched."

The scheduler owns:

- the shuffling :class:`~repro.data.batching.BatchCursor` over the training
  set (batches are cut on demand at each GPU's *current* batch size);
- the :class:`~repro.data.batching.MegaBatchAccountant` fixing how many
  samples flow between merges;
- per-GPU batch sizes, learning rates, and update counts;
- the Algorithm-1 invocation at each boundary, moderated by the
  :class:`~repro.core.stability.ScalingGovernor`.

It performs **no** model math — merging runs in the GPU managers/trainer —
mirroring the paper's "relatively low utilized component" design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import AdaptiveSGDConfig
from repro.core.scaling import ScalingDecision, scale_batch_sizes
from repro.core.stability import ScalingGovernor, StabilityDetector
from repro.data.batching import Batch, BatchCursor, MegaBatchAccountant
from repro.data.dataset import SparseDataset
from repro.exceptions import ScheduleError
from repro.telemetry.core import NULL, Telemetry
from repro.telemetry.events import EVENT_DISPATCH

__all__ = ["DynamicScheduler", "BoundaryReport"]


@dataclass(frozen=True)
class BoundaryReport:
    """What happened at one mega-batch boundary."""

    mega_batch_index: int
    updates: Tuple[int, ...]
    batch_sizes_before: Tuple[int, ...]
    batch_sizes_after: Tuple[int, ...]
    learning_rates_after: Tuple[float, ...]
    scaling_ran: bool
    scaling_changed: bool


class DynamicScheduler:
    """Dispatches batches one-by-one to whichever GPU asks next."""

    def __init__(
        self,
        dataset: SparseDataset,
        config: AdaptiveSGDConfig,
        n_gpus: int,
        *,
        seed: int = 0,
        use_governor: bool = True,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if n_gpus < 1:
            raise ScheduleError(f"n_gpus must be >= 1, got {n_gpus}")
        self.config = config
        self.telemetry = telemetry if telemetry is not None else NULL
        self.n_gpus = n_gpus
        self.cursor = BatchCursor(dataset, seed=seed)
        self.accountant = MegaBatchAccountant(config.mega_batch_size)
        self.batch_sizes: List[int] = [config.b_max] * n_gpus
        self.learning_rates: List[float] = [config.base_lr] * n_gpus
        self.updates: List[int] = [0] * n_gpus
        self._dispatched_open: List[int] = [0] * n_gpus
        self._active: List[bool] = [True] * n_gpus
        # Set once membership ever changes; the governor's fixed-width
        # stability window is bypassed from then on.
        self._elastic = False
        self._governor: Optional[ScalingGovernor] = (
            ScalingGovernor(StabilityDetector(n_gpus, config.b_max))
            if use_governor
            else None
        )
        self._boundaries: List[BoundaryReport] = []

    # -- dispatch path ---------------------------------------------------------
    def try_dispatch(self, gpu_id: int) -> Optional[Batch]:
        """Next batch for ``gpu_id`` at its current batch size, or ``None``.

        ``None`` means the mega-batch budget is exhausted: the GPU manager
        should proceed to the merge barrier. The batch handed out is clamped
        so the mega-batch's sample budget is never exceeded (the final batch
        of a mega-batch may therefore be smaller than ``b_i``).
        """
        self._check_gpu(gpu_id)
        if not self._active[gpu_id]:
            return None
        size = self.accountant.clamp(self.batch_sizes[gpu_id])
        if size == 0:
            return None
        batch = self.cursor.next_batch(size)
        self.accountant.charge(batch.size)
        self._dispatched_open[gpu_id] += 1
        if self.telemetry.enabled:
            self.telemetry.instant(
                EVENT_DISPATCH, device=gpu_id, size=batch.size, nnz=batch.nnz
            )
        return batch

    def record_completion(self, gpu_id: int) -> None:
        """A GPU manager finished its batch: count one replica update."""
        self._check_gpu(gpu_id)
        if self._dispatched_open[gpu_id] <= 0:
            raise ScheduleError(
                f"GPU {gpu_id} reported a completion with no open dispatch"
            )
        self._dispatched_open[gpu_id] -= 1
        self.updates[gpu_id] += 1

    # -- boundary path ---------------------------------------------------------
    def mega_batch_boundary(self) -> BoundaryReport:
        """Close the mega-batch: run Algorithm 1, reset counters.

        Must be called only once all dispatched batches completed (the GPU
        managers sit at the merge barrier).
        """
        if any(self._dispatched_open):
            raise ScheduleError(
                f"boundary with unfinished dispatches: {self._dispatched_open}"
            )
        if not self.accountant.exhausted:
            raise ScheduleError(
                f"boundary before budget exhausted ({self.accountant.remaining} left)"
            )
        before = tuple(self.batch_sizes)
        updates = tuple(self.updates)

        scaling_ran = False
        scaling_changed = False
        if self.config.enable_batch_scaling:
            active = [i for i in range(self.n_gpus) if self._active[i]]
            # The governor's stability window assumes a fixed device set, so
            # on an elastic cluster (any slot inactive) Algorithm 1 always
            # runs: a membership epoch is exactly when controls must move.
            run_now = (
                self._governor.should_scale(self.batch_sizes)
                if self._governor is not None and not self._elastic
                else True
            )
            if run_now and active:
                decision: ScalingDecision = scale_batch_sizes(
                    [self.batch_sizes[i] for i in active],
                    [self.learning_rates[i] for i in active],
                    [updates[i] for i in active],
                    b_min=self.config.b_min,
                    b_max=self.config.b_max,
                    beta=self.config.beta,
                )
                for slot, i in enumerate(active):
                    self.batch_sizes[i] = decision.batch_sizes[slot]
                    self.learning_rates[i] = decision.learning_rates[slot]
                scaling_ran = True
                scaling_changed = decision.any_changed

        report = BoundaryReport(
            mega_batch_index=self.accountant.mega_batches_completed,
            updates=updates,
            batch_sizes_before=before,
            batch_sizes_after=tuple(self.batch_sizes),
            learning_rates_after=tuple(self.learning_rates),
            scaling_ran=scaling_ran,
            scaling_changed=scaling_changed,
        )
        self._boundaries.append(report)
        self.updates = [0] * self.n_gpus
        self.accountant.roll_over()
        return report

    # -- membership path -------------------------------------------------------
    def is_active(self, gpu_id: int) -> bool:
        """Whether the slot may be dispatched to (elastic membership)."""
        self._check_gpu(gpu_id)
        return self._active[gpu_id]

    @property
    def active_ids(self) -> Tuple[int, ...]:
        return tuple(i for i in range(self.n_gpus) if self._active[i])

    def deactivate(self, gpu_id: int, *, discard: bool = False) -> int:
        """Remove a slot from dispatch (device left or failed).

        Must be called at the merge barrier — the departing manager has
        completed its in-flight batch, so no dispatch is open. With
        ``discard=True`` (a *failed* replica) the slot's update count for
        the closing mega-batch is zeroed so Algorithm 1 never sees work
        that was thrown away; the count removed is returned. A graceful
        *leave* keeps its updates: they merged.
        """
        self._check_gpu(gpu_id)
        if self._dispatched_open[gpu_id]:
            raise ScheduleError(
                f"cannot deactivate GPU {gpu_id} with "
                f"{self._dispatched_open[gpu_id]} open dispatches"
            )
        self._active[gpu_id] = False
        self._elastic = True
        discarded = 0
        if discard:
            discarded = self.updates[gpu_id]
            self.updates[gpu_id] = 0
        return discarded

    def activate(
        self, gpu_id: int, *, batch_size: int, learning_rate: float
    ) -> None:
        """Admit a slot to dispatch (device joined or re-joined).

        ``gpu_id == n_gpus`` grows the scheduler by one slot (a freshly
        provisioned device); otherwise an existing inactive slot re-enters.
        The controls come from the Dynamic-Mini-batch rescale
        (:func:`repro.core.scaling.rescale_for_membership`).
        """
        if not (self.config.b_min <= batch_size <= self.config.b_max):
            raise ScheduleError(
                f"join batch size {batch_size} outside "
                f"[{self.config.b_min}, {self.config.b_max}]"
            )
        if learning_rate <= 0:
            raise ScheduleError(f"join learning rate must be > 0, got {learning_rate}")
        self._elastic = True
        if gpu_id == self.n_gpus:
            self.n_gpus += 1
            self.batch_sizes.append(int(batch_size))
            self.learning_rates.append(float(learning_rate))
            self.updates.append(0)
            self._dispatched_open.append(0)
            self._active.append(True)
            return
        self._check_gpu(gpu_id)
        if self._active[gpu_id]:
            raise ScheduleError(f"GPU {gpu_id} is already active")
        self._active[gpu_id] = True
        self.batch_sizes[gpu_id] = int(batch_size)
        self.learning_rates[gpu_id] = float(learning_rate)

    def set_controls(self, gpu_id: int, *, batch_size: int, learning_rate: float) -> None:
        """Overwrite one slot's controls (membership-epoch re-derivation)."""
        self._check_gpu(gpu_id)
        if not (self.config.b_min <= batch_size <= self.config.b_max):
            raise ScheduleError(
                f"batch size {batch_size} outside "
                f"[{self.config.b_min}, {self.config.b_max}]"
            )
        if learning_rate <= 0:
            raise ScheduleError(f"learning rate must be > 0, got {learning_rate}")
        self.batch_sizes[gpu_id] = int(batch_size)
        self.learning_rates[gpu_id] = float(learning_rate)

    # -- introspection --------------------------------------------------------
    @property
    def boundaries(self) -> List[BoundaryReport]:
        """All boundary reports so far."""
        return list(self._boundaries)

    @property
    def epochs_completed(self) -> float:
        """Training-set passes dispatched so far."""
        return self.cursor.epochs_completed

    @property
    def samples_dispatched(self) -> int:
        """Total samples dispatched so far."""
        return self.cursor.samples_served

    def _check_gpu(self, gpu_id: int) -> None:
        if not (0 <= gpu_id < self.n_gpus):
            raise ScheduleError(
                f"gpu_id {gpu_id} out of range [0, {self.n_gpus})"
            )
