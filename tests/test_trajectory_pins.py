"""Trajectory identity: perf work on the step path must not move a run.

``repro train --dataset micro --time-budget-s 0.02 --gpus 4 --seed 1`` (and
the same methodology under the ``minibatch`` trainer) recorded at the commit
that still had the float64 two-pass loss. The digest covers the
``accuracy`` / ``updates`` / ``samples`` checkpoint arrays — every number a
changed gradient or a changed top-1 tie-break would move. ``loss`` is left
out on purpose: it is reported to ``1e-6`` relative, not to the bit.
"""

import hashlib

import numpy as np
import pytest

from repro.api import make_trainer
from repro.cli import main
from repro.harness.experiment import ExperimentSpec
from repro.harness.figures import default_config_for

PINNED = {
    "adaptive": "21c2a273f46d001508efd40fef3a6537abe38c9fb3c46054ed2eca7de14d6ddf",
    "minibatch": "3ee783a16bb49c7f1e67c206522417d2c11ada1fb89dc2775b4b1cf8807e52c4",
}
#: The two-pass float64 loss at the run's last checkpoint.
FINAL_LOSS = 0.9627972316956296


def digest(accuracy, updates, samples) -> str:
    parts = (
        np.asarray(accuracy, dtype=np.float64),
        np.asarray(updates, dtype=np.int64),
        np.asarray(samples, dtype=np.int64),
    )
    return hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()


def test_train_command_trajectory(tmp_path, capsys):
    stem = tmp_path / "run"
    argv = ["train", "--dataset", "micro", "--time-budget-s", "0.02",
            "--gpus", "4", "--seed", "1", "--save", str(stem)]
    assert main(argv) == 0
    capsys.readouterr()
    with np.load(stem.with_suffix(".npz")) as saved:
        got = digest(saved["accuracy"], saved["updates"], saved["samples"])
        final_loss = float(saved["loss"][-1])
    assert got == PINNED["adaptive"]
    assert final_loss == pytest.approx(FINAL_LOSS, rel=1e-6)


def test_second_trainer_trajectory():
    """The methodology the command builds, under the ``minibatch`` trainer."""
    spec = ExperimentSpec(
        dataset="micro", algorithms=("minibatch",), gpu_counts=(4,),
        time_budget_s=0.02, config=default_config_for("micro"), seed=1,
    )
    points = make_trainer("minibatch", spec).run(time_budget_s=0.02).points
    got = digest(
        [p.accuracy for p in points],
        [p.updates for p in points],
        [p.samples for p in points],
    )
    assert got == PINNED["minibatch"]
