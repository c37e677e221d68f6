"""Trajectory identity: work on the step path or the trainers must not move a run.

``repro train --dataset micro --time-budget-s 0.02 --gpus 4 --seed 1`` and
the same methodology under every other registered trainer (SLIDE on its one
device), pinned two ways:

- ``PINNED``: the ``accuracy`` / ``updates`` / ``samples`` checkpoint arrays,
  every number a changed gradient or a changed top-1 tie-break would move.
  ``loss`` is left out on purpose: it is reported to ``1e-6`` relative, not
  to the bit. ``adaptive`` and ``minibatch`` were recorded at the commit
  that still had the float64 two-pass loss.
- ``PINNED_RECORDER``: the recorder's *sim-clock content* (every span, every
  instant without its ``host_*`` args, every monitor's samples in creation
  order) plus the trace's four per-mega-batch histories, which is what a
  changed event order, a moved span or a monitor touched in a different
  order would move.

Everything added after the first two ``PINNED`` entries was recorded on
``dc17c64``, **before** the trainers' ``_execute`` closures were refactored
into run objects, and passed unchanged after. Regenerating a digest is only
legitimate in a PR that means to change a trajectory.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.api import make_trainer
from repro.cli import main
from repro.elastic import ClusterMembership
from repro.harness.experiment import ExperimentSpec, default_config_for
from repro.telemetry import Telemetry

BUDGET_S = 0.02

PINNED = {
    "adaptive": "21c2a273f46d001508efd40fef3a6537abe38c9fb3c46054ed2eca7de14d6ddf",
    "minibatch": "3ee783a16bb49c7f1e67c206522417d2c11ada1fb89dc2775b4b1cf8807e52c4",
    "elastic": "714bda0ca59376eb5431837bb96e062dd50c2c07a6a22f6d5ff9f580cb8f0165",
    "tensorflow": "e822e67f0ab815ae9835ee0484756e3c2dd0d1d66423cee228b02decee371ca8",
    "crossbow": "bcc795a91605448dbae4b3145f398810af65410b9d3e17454fc569bb534e59e5",
    "async": "d9a53891f557b9d6ee415e7a65c5175939587b1ac351424a2a2d7101f43d5565",
    "slide": "d8d1ffe45f1f553fa00ff00d21a28f42882c738aef2e24c6430ecfa5d1ace6cd",
    "adaptive/spot-churn": "3cef5bc7aee0754fd42e81092a48da6633394ef71ef1b8627e98e49e52fcf4de",
}
PINNED_RECORDER = {
    "adaptive": "40741d72e2bb984ec45edf34859b3c75e827ab182f0a29a6b9934fc1fa5a3171",
    "minibatch": "4cd0a727cf29490d958c0bb7352e234f09706d1f973d0d30155645cc0c238142",
    "elastic": "310c8c8ff1fbd01d33d75eee99fb0161124e9f7ed089e3f98ce8c9d719be5be4",
    "tensorflow": "63154aba66b8c6ab43aa8ed4048440b55ffdb060bfc9326dffdbd00cadc94062",
    "crossbow": "d1ebf37ce7905fc7fc40237b6c223e8b3e56b9d7278d99e7ac31489b0aa2c456",
    "async": "ed4a7943b61194f79b62cf3da6a7056ae8f024e9ee6c15898dcedbac751c6b4c",
    "slide": "1f27f43e9f3fc9ab623c81e2fef4e290bc0a9e69d7cf6274b40a4f75c303411e",
    "adaptive/spot-churn": "be23a300af433dd8fa2d854fbf95b2c397a68dc989f367a51e785ab01da93a45",
}
#: ``(spans, instants)`` the recorder holds after each pinned run.
PINNED_EVENT_COUNTS = {
    "adaptive": (1045, 945),
    "minibatch": (305, 8),
    "elastic": (875, 20),
    "tensorflow": (835, 4),
    "crossbow": (727, 13),
    "async": (895, 24),
    "slide": (11, 1),
    "adaptive/spot-churn": (1029, 965),
}
#: ``ClusterMembership.summary()`` after the churn run: the events delivered
#: by kind and the exactly-once ledger's updates merged / discarded.
PINNED_CHURN_SUMMARY = {
    "n_events": 6,
    "n_applied": 6,
    "n_suppressed": 0,
    "by_kind": {"fail": 2, "join": 2, "throttle": 1, "recover": 1},
    "final_devices": 4,
    "updates_merged": 932,
    "updates_discarded": 11,
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


def points_digest(trace) -> str:
    points = trace.points
    return digest(
        [p.accuracy for p in points],
        [p.updates for p in points],
        [p.samples for p in points],
    )


def _plain(value):
    """numpy scalars as Python numbers, so the bytes hashed do not depend
    on the numpy version's ``repr``."""
    return value.item() if isinstance(value, np.generic) else str(value)


def _args(items) -> list:
    """Arg items as hashed. The recorder stores args JSON-safe, so a
    non-finite number is ``None`` and no arg is NaN: hashing ``None`` as
    NaN is one to one on what it holds, and keeps the digests pinned when
    it stored args as given (the first checkpoint's ``loss`` is NaN)."""
    return sorted((k, math.nan if v is None else v) for k, v in items)


def recorder_digest(tel: Telemetry, trace) -> str:
    """sha256 of everything the recorder stamped with the sim clock."""
    run = tel.runs[-1]
    content = {
        "spans": [
            [s.name, s.ts, s.dur, s.device, _args(s.args.items())]
            for s in run.spans
        ],
        "instants": [
            [i.name, i.ts, i.device, _args(
                (k, v) for k, v in i.args.items() if not k.startswith("host_")
            )]
            for i in run.instants
        ],
        "monitors": [
            [name, [t for t, _ in series], [v for _, v in series]]
            for name, series in run.samples.items()
        ],
        "histories": [
            [b.batch_sizes for b in trace.boundaries],
            [b.branch for b in trace.boundaries],
            [b.perturbed for b in trace.boundaries],
            [b.staleness for b in trace.boundaries],
        ],
    }
    text = json.dumps(content, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def run_pinned(key: str):
    """One pinned run: ``(trace, recorder, membership or None)``."""
    algorithm, _, variant = key.partition("/")
    spec = ExperimentSpec(
        dataset="micro", algorithms=(algorithm,), gpu_counts=(4,),
        time_budget_s=BUDGET_S, config=default_config_for("micro"), seed=1,
    )
    options, membership = {}, None
    if variant:
        # What `repro train --churn <variant>` builds.
        options["server"] = spec.build_server(4)
        membership = options["membership"] = ClusterMembership(
            options["server"], variant, duration_s=BUDGET_S, seed=1,
        )
    tel = Telemetry()
    trainer = make_trainer(
        algorithm, spec, n_gpus=1 if algorithm == "slide" else 4,
        telemetry=tel, **options,
    )
    return trainer.run(time_budget_s=BUDGET_S), tel, membership


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
    trace = make_trainer("minibatch", spec).run(time_budget_s=0.02)
    assert points_digest(trace) == PINNED["minibatch"]


@pytest.mark.parametrize("key", sorted(PINNED_RECORDER))
def test_every_trainer_trajectory_and_recorder_content(key):
    trace, tel, membership = run_pinned(key)
    assert points_digest(trace) == PINNED[key]
    (run,) = tel.runs
    assert (len(run.spans), len(run.instants)) == PINNED_EVENT_COUNTS[key]
    assert recorder_digest(tel, trace) == PINNED_RECORDER[key]
    if membership is not None:
        summary = membership.summary()
        assert {"fail", "join", "throttle"} <= set(summary["by_kind"])
        assert summary == PINNED_CHURN_SUMMARY
