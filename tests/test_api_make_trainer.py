"""Tests for repro.api — the unified trainer construction front door."""

import numpy as np
import pytest

from repro.api import (
    TRAINER_REGISTRY,
    make_trainer,
    register_trainer,
    trainer_class,
    trainer_names,
)
from repro.core.adaptive import AdaptiveSGDTrainer
from repro.exceptions import ConfigurationError
from repro.harness.experiment import ALGORITHMS, ExperimentSpec
from repro.harness.trainer_base import TrainerBase

BUDGET = 0.02


def micro_spec(**overrides):
    return ExperimentSpec(
        dataset="micro", gpu_counts=(2,), time_budget_s=BUDGET, **overrides
    )


def curve(trace):
    """The comparable numeric identity of a run."""
    return (
        np.asarray([p.time_s for p in trace.points]),
        np.asarray([p.accuracy for p in trace.points]),
        np.asarray([p.loss for p in trace.points]),
    )


class TestRegistry:
    def test_builtin_names(self):
        assert trainer_names() == [
            "adaptive", "elastic", "tensorflow", "crossbow",
            "slide", "async", "minibatch",
        ]

    def test_algorithms_alias_is_live_registry(self):
        assert ALGORITHMS is TRAINER_REGISTRY

    def test_trainer_class_lookup(self):
        assert trainer_class("adaptive") is AdaptiveSGDTrainer
        with pytest.raises(ConfigurationError, match="unknown trainer"):
            trainer_class("sgd-9000")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_trainer("adaptive", AdaptiveSGDTrainer)
        assert trainer_class("adaptive") is AdaptiveSGDTrainer

    def test_non_trainer_class_rejected(self):
        with pytest.raises(ConfigurationError, match="TrainerBase subclass"):
            register_trainer("bogus", dict)
        with pytest.raises(ConfigurationError, match="non-empty"):
            register_trainer("", AdaptiveSGDTrainer)


class TestMakeTrainer:
    def test_parity_with_direct_constructor(self):
        """make_trainer and the direct constructor run bit-identically."""
        spec = micro_spec()
        from repro.data.registry import load_task

        task = load_task(spec.dataset, seed=spec.seed)
        direct = AdaptiveSGDTrainer(
            task, spec.build_server(2), spec.config,
            hidden=spec.hidden, init_seed=spec.seed, data_seed=spec.seed,
            eval_samples=spec.eval_samples,
        )
        via_api = make_trainer("adaptive", spec, task=task, n_gpus=2)
        t_d, acc_d, loss_d = curve(direct.run(time_budget_s=BUDGET))
        t_a, acc_a, loss_a = curve(via_api.run(time_budget_s=BUDGET))
        assert np.array_equal(t_d, t_a)
        assert np.array_equal(acc_d, acc_a)
        assert np.array_equal(loss_d, loss_a, equal_nan=True)

    def test_default_spec(self):
        trainer = make_trainer("minibatch")
        assert isinstance(trainer, TrainerBase)
        assert trainer.server.n_gpus == ExperimentSpec().gpu_counts[0]

    def test_unknown_trainer_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown trainer"):
            make_trainer("sgd-9000", micro_spec())

    def test_unknown_option_rejected_early(self):
        with pytest.raises(ConfigurationError, match="unknown option"):
            make_trainer("adaptive", micro_spec(), warp_speed=9)

    @pytest.mark.parametrize(
        "option", [{"eval_samples": 0}, {"hidden": (0,)}]
    )
    def test_bad_option_value_is_a_typed_error(self, option):
        """The CLI catches ``ReproError`` only; a bare ``ValueError`` from a
        trainer constructor would reach the user as a traceback."""
        with pytest.raises(ConfigurationError, match=next(iter(option))):
            make_trainer("tensorflow", micro_spec(), **option)

    def test_options_override_spec_defaults(self):
        trainer = make_trainer("adaptive", micro_spec(), hidden=(16,))
        assert trainer.arch.hidden == (16,)

    def test_n_gpus_sizes_server(self):
        trainer = make_trainer("elastic", micro_spec(), n_gpus=3)
        assert trainer.server.n_gpus == 3


class TestDeprecatedKwargs:
    """The pre-rename spellings are gone: they now fail the ordinary
    unknown-option path instead of warning and remapping."""

    def test_use_governor_rejected_naming_governor(self):
        with pytest.raises(ConfigurationError, match="unknown option") as exc:
            make_trainer("adaptive", micro_spec(), use_governor=True)
        assert "'governor'" in str(exc.value)
        assert not hasattr(AdaptiveSGDTrainer, "use_governor")

    def test_mu_and_elasticity_rejected(self):
        """CROSSBOW's elasticity is a constant; neither spelling is an
        option."""
        for name in ("mu", "elasticity"):
            with pytest.raises(ConfigurationError, match="unknown option"):
                make_trainer("crossbow", micro_spec(), **{name: 0.2})

    def test_new_spelling_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_trainer("adaptive", micro_spec(), governor=True)

    def test_register_trainer_takes_no_deprecated_kwargs(self):
        with pytest.raises(TypeError):
            register_trainer(
                "adaptive", AdaptiveSGDTrainer,
                deprecated_kwargs={"use_governor": "governor"},
            )

    def test_positional_run_budget_rejected(self):
        trainer = make_trainer("minibatch", micro_spec())
        with pytest.raises(TypeError):
            trainer.run(0.005)
