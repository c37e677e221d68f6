"""Tests for repro.core.scaling — Algorithm 1 semantics, line by line."""

import pytest

from repro.core.scaling import scale_batch_sizes
from repro.exceptions import ConfigurationError
from tests import reference

BOUNDS = dict(b_min=16, b_max=128, beta=8.0)


class TestAlgorithm1:
    def test_faster_gpu_grows_batch(self):
        """Line 3-5: u_i > mean and within b_max -> batch grows, lr scales."""
        decision = scale_batch_sizes(
            [64, 64], [0.1, 0.1], [12, 8], **BOUNDS
        )
        # mean = 10; GPU0: 64 + 8*(12-10) = 80; GPU1: 64 - 8*2 = 48.
        assert decision.batch_sizes == (80, 48)
        assert decision.learning_rates[0] == pytest.approx(0.1 * 80 / 64)
        assert decision.learning_rates[1] == pytest.approx(0.1 * 48 / 64)
        assert decision.changed == (True, True)
        assert decision.mean_updates == 10.0

    def test_no_change_when_updates_equal(self):
        decision = scale_batch_sizes([64, 64, 64], [0.1] * 3, [5, 5, 5], **BOUNDS)
        assert decision.batch_sizes == (64, 64, 64)
        assert decision.learning_rates == (0.1, 0.1, 0.1)
        assert not decision.any_changed

    def test_b_max_guard_blocks_growth(self):
        """Line 3's bound: if b + beta*(u - mu) > b_max, no change at all."""
        decision = scale_batch_sizes(
            [120, 64], [0.1, 0.1], [14, 6], **BOUNDS
        )
        # GPU0 proposal: 120 + 8*4 = 152 > 128 -> blocked (stays 120).
        assert decision.batch_sizes[0] == 120
        assert decision.learning_rates[0] == 0.1
        assert not decision.changed[0]

    def test_b_min_guard_blocks_shrink(self):
        decision = scale_batch_sizes(
            [20, 64], [0.1, 0.1], [2, 14], **BOUNDS
        )
        # GPU0 proposal: 20 - 8*6 = -28 < 16 -> blocked.
        assert decision.batch_sizes[0] == 20
        assert not decision.changed[0]

    def test_growth_to_exactly_b_max_allowed(self):
        decision = scale_batch_sizes(
            [120, 64], [0.1, 0.1], [11, 9], **BOUNDS
        )
        # proposal: 120 + 8*1 = 128 == b_max -> allowed.
        assert decision.batch_sizes[0] == 128

    def test_shrink_to_exactly_b_min_allowed(self):
        decision = scale_batch_sizes(
            [24, 64], [0.1, 0.1], [9, 11], **BOUNDS
        )
        # proposal: 24 - 8*1 = 16 == b_min -> allowed.
        assert decision.batch_sizes[0] == 16

    def test_linear_lr_rule_uses_realized_ratio(self):
        """LR must scale by the *integer* batch actually adopted."""
        decision = scale_batch_sizes(
            [64, 64, 64], [0.1] * 3, [7, 5, 6], b_min=16, b_max=128, beta=5.0
        )
        for b_old, b_new, lr_old, lr_new in zip(
            (64, 64, 64), decision.batch_sizes, (0.1,) * 3,
            decision.learning_rates,
        ):
            assert lr_new == pytest.approx(
                reference.linear_scaled_lr(lr_old, b_old, b_new)
            )

    def test_fractional_proposal_rounded(self):
        decision = scale_batch_sizes(
            [64, 64], [0.1, 0.1], [11, 10], b_min=16, b_max=128, beta=0.5
        )
        # mean 10.5; GPU0: 64 + 0.5*0.5 = 64.25 -> rounds back to 64.
        assert decision.batch_sizes[0] == 64
        assert not decision.changed[0]

    def test_single_gpu_never_changes(self):
        decision = scale_batch_sizes([64], [0.1], [10], **BOUNDS)
        assert decision.batch_sizes == (64,)
        assert not decision.any_changed

    def test_convergence_to_steady_state(self):
        """Iterating Algorithm 1 on a fixed speed skew reaches update parity.

        Simulate GPUs whose update count is inversely proportional to batch
        size times relative speed; repeated scaling must shrink the spread
        in update counts (that is the algorithm's stated goal).
        """
        speeds = [1.0, 0.85, 0.75, 0.68]
        mega = 128 * 40
        b = [128, 128, 128, 128]
        lr = [0.1] * 4
        spreads = []
        for _ in range(25):
            # Work share proportional to speed/batch-time; a GPU's updates
            # are (its share of the mega-batch) / its batch size.
            rates = [s / bi for s, bi in zip(speeds, b)]  # batches/sec
            total_rate = sum(bi * r for bi, r in zip(b, rates))
            duration = mega / total_rate
            updates = [max(1, round(r * duration)) for r in rates]
            spreads.append(max(updates) - min(updates))
            decision = scale_batch_sizes(
                b, lr, updates, b_min=16, b_max=128, beta=8.0
            )
            b, lr = list(decision.batch_sizes), list(decision.learning_rates)
        assert spreads[-1] <= 1
        assert spreads[-1] <= spreads[0]
        # Faster GPUs ended with at least as large batches as slower ones.
        assert b[0] >= b[-1]

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            scale_batch_sizes([], [], [], **BOUNDS)
        with pytest.raises(ConfigurationError):
            scale_batch_sizes([64], [0.1, 0.2], [5], **BOUNDS)
        with pytest.raises(ConfigurationError):
            scale_batch_sizes([64], [0.1], [5], b_min=0, b_max=128, beta=1.0)
        with pytest.raises(ConfigurationError):
            scale_batch_sizes([64], [0.1], [5], b_min=16, b_max=128, beta=0.0)
        with pytest.raises(ConfigurationError):
            scale_batch_sizes([200], [0.1], [5], **BOUNDS)  # b out of bounds
        with pytest.raises(ConfigurationError):
            scale_batch_sizes([64], [0.0], [5], **BOUNDS)  # lr <= 0
        with pytest.raises(ConfigurationError):
            scale_batch_sizes([64], [0.1], [-1], **BOUNDS)  # negative updates
