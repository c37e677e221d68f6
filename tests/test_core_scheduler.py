"""Tests for repro.core.scheduler — dynamic dispatch and boundary protocol."""

import pytest

from repro.core.config import AdaptiveSGDConfig
from repro.core.scheduler import DynamicScheduler
from repro.exceptions import ScheduleError


def make_scheduler(micro_task, n_gpus=2, **cfg_kwargs):
    defaults = dict(b_max=64, base_lr=0.2, mega_batch_batches=4)
    defaults.update(cfg_kwargs)
    cfg = AdaptiveSGDConfig(**defaults)
    return DynamicScheduler(micro_task.train, cfg, n_gpus, seed=0), cfg


class TestDispatch:
    def test_batch_sized_to_gpu(self, micro_task):
        sched, cfg = make_scheduler(micro_task)
        batch = sched.try_dispatch(0)
        assert batch.size == cfg.b_max

    def test_budget_exhaustion_returns_none(self, micro_task):
        sched, cfg = make_scheduler(micro_task)
        served = 0
        while True:
            batch = sched.try_dispatch(served % 2)
            if batch is None:
                break
            sched.record_completion(served % 2)
            served += batch.size
        assert served == cfg.mega_batch_size
        assert sched.try_dispatch(0) is None

    def test_last_batch_clamped(self, micro_task):
        # Mega-batch of 4*64=256 samples; sizes 100 leave a 56-sample tail.
        sched, _ = make_scheduler(micro_task)
        sched.batch_sizes = [100, 100]
        sizes = []
        while True:
            batch = sched.try_dispatch(0)
            if batch is None:
                break
            sched.record_completion(0)
            sizes.append(batch.size)
        assert sizes == [100, 100, 56]

    def test_updates_counted_on_completion(self, micro_task):
        sched, _ = make_scheduler(micro_task)
        sched.try_dispatch(0)
        sched.try_dispatch(1)
        assert sched.updates == [0, 0]
        sched.record_completion(0)
        assert sched.updates == [1, 0]

    def test_completion_without_dispatch_rejected(self, micro_task):
        sched, _ = make_scheduler(micro_task)
        with pytest.raises(ScheduleError):
            sched.record_completion(0)

    def test_bad_gpu_id_rejected(self, micro_task):
        sched, _ = make_scheduler(micro_task)
        with pytest.raises(ScheduleError):
            sched.try_dispatch(5)
        with pytest.raises(ScheduleError):
            sched.record_completion(-1)


class TestBoundary:
    def drain(self, sched, pattern):
        """Dispatch the full mega-batch alternating GPUs per ``pattern``."""
        i = 0
        while True:
            gpu = pattern[i % len(pattern)]
            batch = sched.try_dispatch(gpu)
            if batch is None:
                return
            sched.record_completion(gpu)
            i += 1

    def test_boundary_resets_and_reports(self, micro_task):
        sched, cfg = make_scheduler(micro_task)
        self.drain(sched, [0, 0, 0, 1])  # skewed work: GPU0 got 3, GPU1 got 1
        report = sched.mega_batch_boundary()
        assert report.updates == (3, 1)
        assert sched.updates == [0, 0]
        assert sched.accountant.remaining == cfg.mega_batch_size

    def test_algorithm1_runs_at_boundary(self, micro_task):
        sched, cfg = make_scheduler(micro_task, mega_batch_batches=8)
        self.drain(sched, [0, 0, 0, 1])
        report = sched.mega_batch_boundary()
        assert report.scaling_ran
        # GPU0 (more updates) must not shrink; GPU1 must not grow.
        assert report.batch_sizes_after[0] >= report.batch_sizes_before[0]
        assert report.batch_sizes_after[1] <= report.batch_sizes_before[1]

    def test_boundary_before_exhaustion_rejected(self, micro_task):
        sched, _ = make_scheduler(micro_task)
        sched.try_dispatch(0)
        sched.record_completion(0)
        with pytest.raises(ScheduleError, match="budget"):
            sched.mega_batch_boundary()

    def test_boundary_with_open_dispatch_rejected(self, micro_task):
        sched, _ = make_scheduler(micro_task)
        while True:
            batch = sched.try_dispatch(0)
            if batch is None:
                break
            # Leave the final dispatch unacknowledged.
            if sched.accountant.exhausted:
                break
            sched.record_completion(0)
        with pytest.raises(ScheduleError, match="unfinished"):
            sched.mega_batch_boundary()

    def test_scaling_disabled_by_config(self, micro_task):
        sched, _ = make_scheduler(micro_task, enable_batch_scaling=False)
        self.drain(sched, [0, 0, 0, 1])
        report = sched.mega_batch_boundary()
        assert not report.scaling_ran
        assert report.batch_sizes_after == report.batch_sizes_before

    def test_boundaries_accumulate(self, micro_task):
        sched, _ = make_scheduler(micro_task)
        reports = []
        for _ in range(3):
            self.drain(sched, [0, 1])
            reports.append(sched.mega_batch_boundary())
        assert [r.mega_batch_index for r in reports] == [0, 1, 2]

    def test_epoch_accounting(self, micro_task):
        sched, cfg = make_scheduler(micro_task)
        self.drain(sched, [0, 1])
        sched.mega_batch_boundary()
        expected = cfg.mega_batch_size / micro_task.train.n_samples
        assert sched.epochs_completed == pytest.approx(expected)
        assert sched.samples_dispatched == cfg.mega_batch_size
