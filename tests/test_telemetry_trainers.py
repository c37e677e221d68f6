"""Schema parity: every trainer emits the uniform telemetry vocabulary.

Each registered algorithm runs once with a recorder attached and must emit
the CORE_SPANS / CORE_GAUGES plus the ``updates`` counter — and recording
must not perturb the simulation (enabled and disabled runs bit-identical).
"""

import gc
import weakref

import numpy as np
import pytest

from repro.api import make_trainer, trainer_names
from repro.harness.experiment import ExperimentSpec
from repro.telemetry import Telemetry
from repro.telemetry.events import (
    CORE_GAUGES,
    CORE_SPANS,
    COUNTER_UPDATES,
    SPAN_LSH_REBUILD,
    SPAN_MERGE,
)

BUDGET = 0.015


def run_with_telemetry(name):
    spec = ExperimentSpec(dataset="micro", gpu_counts=(2,), time_budget_s=BUDGET)
    n_gpus = 1 if name == "slide" else 2
    tel = Telemetry(label=name)
    trainer = make_trainer(name, spec, n_gpus=n_gpus, telemetry=tel)
    trace = trainer.run(time_budget_s=BUDGET)
    return trace, tel


def base_names(tel):
    """Monitor names with the ``gpuN/`` device prefix stripped."""
    return {key.rsplit("/", 1)[-1] for run in tel.runs for key in run.samples}


def span_names(tel):
    return {span.name for run in tel.runs for span in run.spans}


@pytest.mark.parametrize("name", trainer_names())
class TestUniformSchema:
    def test_core_spans_emitted(self, name):
        _, tel = run_with_telemetry(name)
        assert set(CORE_SPANS) <= span_names(tel)

    def test_core_gauges_and_updates_emitted(self, name):
        _, tel = run_with_telemetry(name)
        names = base_names(tel)
        assert set(CORE_GAUGES) <= names
        assert COUNTER_UPDATES in names

    def test_run_metadata_identifies_algorithm(self, name):
        trace, tel = run_with_telemetry(name)
        (run,) = tel.runs
        assert run.meta["algorithm"] == trace.algorithm
        assert run.meta["dataset"] == "micro"

    def test_spans_lie_within_the_run_span(self, name):
        _, tel = run_with_telemetry(name)
        (run,) = tel.runs
        run_span = run.run_span()
        end = run_span.ts + run_span.dur
        for span in run.spans:
            assert span.ts >= run_span.ts
            assert span.ts + span.dur <= end + 1e-9

    def test_recording_does_not_perturb_the_run(self, name):
        """Telemetry must observe, never steer: identical curves either way."""
        spec = ExperimentSpec(
            dataset="micro", gpu_counts=(2,), time_budget_s=BUDGET
        )
        n_gpus = 1 if name == "slide" else 2
        plain = make_trainer(name, spec, n_gpus=n_gpus)
        traced = make_trainer(name, spec, n_gpus=n_gpus, telemetry=Telemetry())
        a = plain.run(time_budget_s=BUDGET)
        b = traced.run(time_budget_s=BUDGET)
        assert np.array_equal(
            [p.time_s for p in a.points], [p.time_s for p in b.points]
        )
        assert np.array_equal(
            [p.accuracy for p in a.points], [p.accuracy for p in b.points]
        )
        assert np.array_equal(
            [p.updates for p in a.points], [p.updates for p in b.points]
        )


class TestAlgorithmSpecificSpans:
    def test_multi_device_trainers_emit_merge(self):
        for name in ("adaptive", "elastic", "tensorflow", "crossbow"):
            _, tel = run_with_telemetry(name)
            assert SPAN_MERGE in span_names(tel), name

    def test_slide_emits_lsh_rebuild_spans(self):
        _, tel = run_with_telemetry("slide")
        assert SPAN_LSH_REBUILD in span_names(tel)

    def test_adaptive_merge_spans_carry_branch(self):
        _, tel = run_with_telemetry("adaptive")
        merges = [s for s in tel.runs[0].spans if s.name == SPAN_MERGE]
        assert merges
        assert all("branch" in s.args for s in merges)

    def test_step_spans_are_device_tagged(self):
        _, tel = run_with_telemetry("adaptive")
        devices = {s.device for s in tel.runs[0].spans if s.name == "step.compute"}
        assert devices == {0, 1}


@pytest.mark.parametrize("name", trainer_names())
class TestTeardown:
    """A finished run frees itself: ``TrainerBase.run`` detaches the recorder
    and then closes the environment, so nothing waits for the collector."""

    @pytest.mark.parametrize("recorder", [False, True], ids=["plain", "recorded"])
    def test_trainer_dies_by_refcount(self, name, recorder):
        """``async`` returns with its workers parked mid-step; the heap held
        them, they held the trainer, and only a gen-2 collection broke it."""
        spec = ExperimentSpec(dataset="micro", gpu_counts=(2,), time_budget_s=BUDGET)
        tel = Telemetry() if recorder else None
        gc.collect()
        gc.disable()
        try:
            trainer = make_trainer(
                name, spec, n_gpus=1 if name == "slide" else 2, telemetry=tel
            )
            trainer.run(time_budget_s=BUDGET)
            ref = weakref.ref(trainer)
            del trainer
            assert ref() is None
        finally:
            gc.enable()


def test_abandoned_spans_never_stamp_a_later_run():
    """Async's abandoned ``step.compute`` spans are dropped at the end of
    their own run. Left to the collector they exited whenever the recorder
    died, against whatever clock it had by then: ``busy interval ends
    before it starts``, once per worker."""
    from repro.sim.environment import Environment

    _, tel = run_with_telemetry("async")
    runs = tel.runs
    n_spans = sum(len(run.spans) for run in runs)
    tel.attach(Environment())
    del tel
    gc.collect()
    assert sum(len(run.spans) for run in runs) == n_spans
