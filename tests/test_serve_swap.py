"""Tests for hot-swapping: the store-subscribed serving loop.

Covers the tentpole protocol end to end on the simulated clock: commits
under load with per-request pinning, the labeled recall canary and its
rollback path, swap failures that must never interrupt serving, admission
control shedding, and the swap telemetry the analytics engine consumes.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_engine
from repro.serve import (
    LoadSpec,
    ModelSnapshot,
    Predictor,
    SnapshotStore,
    generate_arrivals,
)
from repro.serve.queue import RunRequests
from repro.serve.swap import CANARY_MIN_SAMPLES, _latencies, latency_verdict
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from tests import reference

N_GPUS = 2


@pytest.fixture(scope="module")
def arch(micro_task):
    return MLPArchitecture(
        micro_task.n_features, micro_task.n_labels, hidden=(32,)
    )


def state_for(arch, seed):
    return SparseMLP(arch).init_state(seed=seed)


def snap(arch, seed):
    return ModelSnapshot(
        arch=arch, state=state_for(arch, seed), meta={"dataset": "micro"}
    )


def fill_store(root, arch, seeds, times):
    store = SnapshotStore(root)
    for seed, t in zip(seeds, times):
        store.publish(snap(arch, seed), published_s=t)
    return store


def spanning_arrivals(store, n_requests, *, seed=0):
    """Open-loop Poisson arrivals whose window covers every publish."""
    span = store.entries[-1].published_s * 1.2
    spec = LoadSpec(n_requests=n_requests, rate_rps=n_requests / span,
                    seed=seed)
    return generate_arrivals(spec)


def self_labels(predictor, X, k=5):
    """CSR ground truth equal to ``predictor``'s own top-k — the serving
    version scores recall 1.0 against it, so any later version's recall
    measures agreement with the incumbent."""
    top = predictor.topk(X, k)
    n = X.shape[0]
    rows = np.repeat(np.arange(n), k)
    return sp.csr_matrix(
        (np.ones(n * k), (rows, top.ravel())),
        shape=(n, predictor.arch.n_labels),
    )


class TestHotSwapUnderLoad:
    def test_commits_with_zero_dropped_or_mixed(self, arch, micro_task,
                                                tmp_path):
        # Identical weights per version: swaps exercise the full protocol
        # while the recall canary sees no regression to veto.
        store = fill_store(tmp_path / "s", arch, [7, 7, 7],
                           [0.0, 0.01, 0.02])
        engine = make_engine(store, mode="adaptive", n_gpus=N_GPUS)
        X = micro_task.test.X
        arrivals = spanning_arrivals(store, 300)
        result = engine.serve(X, arrivals, k=5,
                              canary_labels=micro_task.test.Y)
        assert result.n_swaps == 2
        assert result.n_rollbacks == 0
        assert result.n_swap_failures == 0
        assert result.active_version == 3
        # Zero dropped: every admitted request completed.
        assert not np.isnan(result.requests.done).any()
        assert sum(result.versions_served.values()) == 300
        # Zero mis-versioned: batches never mix weights across a swap.
        assert result.mis_versioned == 0
        np.testing.assert_array_equal(
            result.requests.served_version, result.requests.version
        )

    def test_later_versions_actually_serve(self, arch, micro_task, tmp_path):
        store = fill_store(tmp_path / "s", arch, [7, 7], [0.0, 0.01])
        engine = make_engine(store, mode="adaptive", n_gpus=N_GPUS)
        arrivals = spanning_arrivals(store, 300)
        result = engine.serve(micro_task.test.X, arrivals, k=5)
        assert result.versions_served.get(2, 0) > 0

    def test_swap_records_carry_timing(self, arch, micro_task, tmp_path):
        store = fill_store(tmp_path / "s", arch, [7, 7], [0.0, 0.01])
        engine = make_engine(store, mode="adaptive", n_gpus=N_GPUS)
        arrivals = spanning_arrivals(store, 200)
        result = engine.serve(micro_task.test.X, arrivals, k=5)
        (record,) = result.swaps
        assert record["version_from"] == 1 and record["version_to"] == 2
        assert record["warm_s"] > 0
        # Warming happens off the dispatch path, before the commit.
        assert record["t_commit"] == pytest.approx(
            record["t_warm_start"] + record["warm_s"]
        )

    def test_arrivals_straddling_the_commit_pin_by_arrival_time(
        self, arch, micro_task, tmp_path
    ):
        """Cohort admission's catch-up contract, swap side: the swap manager
        admits what is due *before* it flips ``active_version``, so a
        request pins to the version active at its arrival even when no
        worker woke between that arrival and the commit. Arrivals here are
        ~30x denser than batch completions, so some always sit in that gap.

        Mutation: delete the ``run.admit_due()`` call that precedes the
        commit in ``swap_manager`` and the gap's arrivals pin to version 2
        (measured: 501 / 1499 instead of 504 / 1496)."""
        store = fill_store(tmp_path / "s", arch, [7, 7], [0.0, 5e-4])
        engine = make_engine(store, mode="adaptive", n_gpus=N_GPUS)
        # Version 2 is found at the second poll, 1 ms in.
        arrivals = np.linspace(0.0, 4e-3, 2000)
        result = engine.serve(micro_task.test.X, arrivals, k=5)
        (record,) = result.swaps
        before = int(np.sum(arrivals <= record["t_commit"]))
        assert 0 < before < arrivals.size
        assert result.versions_served == {
            1: before, 2: arrivals.size - before,
        }
        assert result.mis_versioned == 0
        table = result.requests
        expected = np.where(table.arrival <= record["t_commit"], 1, 2)
        np.testing.assert_array_equal(table.version, expected)
        np.testing.assert_array_equal(table.served_version, expected)

    def test_without_store_no_swap_fields(self, arch, micro_task):
        engine = make_engine(snap(arch, 7), mode="adaptive", n_gpus=N_GPUS)
        arrivals = generate_arrivals(
            LoadSpec(n_requests=50, rate_rps=5000.0, seed=0)
        )
        result = engine.serve(micro_task.test.X, arrivals, k=5)
        assert result.n_swaps == 0
        assert result.swaps == []
        assert "swaps" not in result.as_dict()


class TestCanaryRollback:
    def test_recall_regression_rolls_back(self, arch, micro_task, tmp_path):
        store = fill_store(tmp_path / "s", arch, [7, 8], [0.0, 0.01])
        engine = make_engine(store, mode="adaptive", n_gpus=N_GPUS)
        X = micro_task.test.X
        labels = self_labels(engine.predictor, X, k=5)
        result = engine.serve(X, spanning_arrivals(store, 300), k=5,
                              canary_labels=labels)
        assert result.n_rollbacks == 1
        assert result.active_version == 1
        (record,) = result.swaps
        assert record["rolled_back"] is True
        assert "recall" in record["rollback_reason"]
        assert record["canary_recall_prev"] == pytest.approx(1.0)
        assert record["canary_recall_new"] < 0.5
        # Serving never stopped: every request drained.
        assert not np.isnan(result.requests.done).any()

    def test_rollback_disabled_without_labels(self, arch, micro_task,
                                              tmp_path):
        """No canary labels -> the recall canary is skipped, not guessed."""
        store = fill_store(tmp_path / "s", arch, [7, 8], [0.0, 0.01])
        engine = make_engine(store, mode="adaptive", n_gpus=N_GPUS)
        result = engine.serve(
            micro_task.test.X, spanning_arrivals(store, 300), k=5
        )
        assert result.n_rollbacks == 0
        assert result.active_version == 2


class TestLatencyCanary:
    """``swap._latency_canary`` as the swap manager runs it: version 2 is
    identical to version 1 except that every batch pinned to it is priced
    ``SLOWDOWN`` times dearer (patched in at ``ServeRun.score``)."""

    SLOWDOWN = 50.0

    def serve(self, arch, micro_task, tmp_path, monkeypatch, *, t_publish,
              **options):
        from repro.serve.run import ServeRun

        real_score = ServeRun.score

        def score(run, gpu, pred, batch):
            chosen, service, nnz, fraction = real_score(run, gpu, pred, batch)
            if run.requests.version[batch[0]] == 2:
                service *= self.SLOWDOWN
            return chosen, service, nnz, fraction

        monkeypatch.setattr(ServeRun, "score", score)
        store = fill_store(tmp_path / "s", arch, [7, 7], [0.0, t_publish])
        engine = make_engine(
            store, mode="sequential", n_gpus=N_GPUS,
            canary_latency_factor=3.0, **options,
        )
        # Far below capacity: latency is service time, not queueing.
        arrivals = generate_arrivals(
            LoadSpec(n_requests=300, rate_rps=300 / 0.024, seed=0)
        )
        return engine.serve(micro_task.test.X, arrivals, k=5)

    def test_slow_version_rolls_back(self, arch, micro_task, tmp_path,
                                     monkeypatch):
        result = self.serve(arch, micro_task, tmp_path, monkeypatch,
                            t_publish=0.01)
        assert result.n_swaps == 1 and result.n_rollbacks == 1
        assert result.active_version == 1
        (record,) = result.swaps
        assert record["rolled_back"] is True
        assert "post-swap p99" in record["rollback_reason"]
        # The window is CANARY_MIN_SAMPLES completions, then v1 is back.
        served_v2 = result.versions_served[2]
        assert CANARY_MIN_SAMPLES <= served_v2 < 4 * CANARY_MIN_SAMPLES
        assert not np.isnan(result.requests.done).any()

    def test_no_verdict_before_min_samples(self, arch, micro_task, tmp_path,
                                           monkeypatch):
        """Published so late that the run drains before the post-swap window
        fills: the slow version stays, the canary never guessed."""
        result = self.serve(arch, micro_task, tmp_path, monkeypatch,
                            t_publish=0.0245)
        assert result.n_swaps == 1 and result.n_rollbacks == 0
        assert result.active_version == 2
        assert 0 < result.versions_served[2] < CANARY_MIN_SAMPLES

    @pytest.mark.parametrize("t_publish", [0.01, 0.0245])
    def test_same_verdicts_as_the_completion_log(
        self, arch, micro_task, tmp_path, monkeypatch, t_publish
    ):
        """The canary's windows come from the requests' stamps; the frozen
        canary read a ``(t_done, latency)`` log. Same swap records, same
        requests, on the rollback schedule and on the no-verdict one."""
        outcomes = []
        for side in ("shipped", "log"):
            with monkeypatch.context() as patch:
                if side == "log":
                    patch.setattr("repro.serve.engine.ServeRun",
                                  reference.CompletionLogServeRun)
                    patch.setattr("repro.serve.swap._latency_canary",
                                  reference.latency_canary)
                result = self.serve(arch, micro_task, tmp_path / side, patch,
                                    t_publish=t_publish)
            outcomes.append((
                result.swaps,
                result.requests.done.tolist(),
                result.requests.served_version.tolist(),
                result.labels.tolist(),
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0][0]["rolled_back"] is (t_publish == 0.01)


class TestLatencyWindows:
    """The canary's pre/post windows against the completion log they
    replaced, over random completion schedules and commit instants."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        arrivals=st.lists(st.integers(0, 40), min_size=1, max_size=60),
        batches=st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 8)), max_size=30
        ),
        done_prefix=st.integers(0, 30),
        t_commit=st.integers(0, 70),
    )
    def test_windows_equal_the_log_as_multisets(
        self, arrivals, batches, done_prefix, t_commit
    ):
        """Batches complete in order at non-decreasing instants (ties
        included), each stamping its requests the way ``complete`` does and
        appending their tuples to the log; some requests never complete.
        At any point of the schedule the derived windows and the log's
        filters hold the same latencies."""
        times = sorted(t / 8 for t in arrivals)
        n = len(times)
        requests = RunRequests(
            np.arange(n), np.array(times), None, None, 1
        )
        log, t_done, next_up = [], max(times), 0
        for gap, size in batches[:done_prefix]:
            t_done += gap / 8
            batch = slice(next_up, min(next_up + size, n))
            next_up = batch.stop
            requests.done[batch] = t_done
            log.extend((t_done, t_done - t) for t in times[batch])
        commit = t_commit / 8
        for post in (False, True):
            from_log = [lat for t, lat in log if (t > commit) == post]
            derived = _latencies(requests, commit, post=post)
            assert sorted(derived) == sorted(from_log)
        assert len(_latencies(requests, commit, post=False)) + len(
            _latencies(requests, commit, post=True)
        ) == len(log)


class TestLatencyVerdict:
    """The latency canary's verdict alone, at its boundaries."""

    def test_too_few_samples_on_either_side_is_no_verdict(self):
        slow, fast = [9.0] * 4, [1.0] * 4
        assert latency_verdict(fast[:3], slow, 2.0, 4) is None
        assert latency_verdict(fast, slow[:3], 2.0, 4) is None
        assert "post-swap p99" in latency_verdict(fast, slow, 2.0, 4)

    def test_exactly_factor_times_pre_does_not_roll_back(self):
        assert latency_verdict([1.0] * 4, [2.0] * 4, 2.0, 4) is None
        assert latency_verdict([1.0] * 4, [2.5] * 4, 2.0, 4) is not None


class TestSwapFailure:
    @staticmethod
    def serve_with_v2_cut(arch, micro_task, root, suffix, keep_bytes):
        store = fill_store(root, arch, [7, 7], [0.0, 0.01])
        path = store.root / f"v000002{suffix}"
        path.write_bytes(path.read_bytes()[:keep_bytes])
        engine = make_engine(store, mode="adaptive", n_gpus=N_GPUS)
        result = engine.serve(
            micro_task.test.X, spanning_arrivals(store, 300), k=5
        )
        assert result.n_swap_failures == 1
        assert result.n_swaps == 0
        assert result.active_version == 1
        assert not np.isnan(result.requests.done).any()
        (record,) = result.swaps
        assert record["failed"] is True
        return record["error"]

    def test_corrupt_version_skipped_serving_continues(self, arch,
                                                       micro_task, tmp_path):
        self.serve_with_v2_cut(
            arch, micro_task, tmp_path / "s", ".snapshot.npz", 64)

    def test_truncated_header_skipped_serving_continues(self, arch,
                                                        micro_task, tmp_path):
        """A header cut mid-write is a counted swap failure naming the
        file, as a cut npz is — not a ``JSONDecodeError`` that kills the
        ``serve-swap`` process."""
        error = self.serve_with_v2_cut(
            arch, micro_task, tmp_path / "s", ".snapshot.json", 120)
        assert "v000002.snapshot.json" in error

    def test_failed_version_not_retried(self, arch, micro_task, tmp_path):
        """A bad version is quarantined; the next good one still lands."""
        store = fill_store(tmp_path / "s", arch, [7, 7, 7],
                           [0.0, 0.008, 0.016])
        npz = store.root / "v000002.snapshot.npz"
        npz.write_bytes(b"not an npz")
        engine = make_engine(store, mode="adaptive", n_gpus=N_GPUS)
        result = engine.serve(
            micro_task.test.X, spanning_arrivals(store, 300), k=5
        )
        assert result.n_swap_failures == 1
        assert result.n_swaps == 1
        assert result.active_version == 3


class TestAdmissionControl:
    def test_max_queue_depth_sheds(self, arch, micro_task):
        engine = make_engine(snap(arch, 7), mode="sequential",
                             max_queue_depth=2, n_gpus=N_GPUS)
        # Everything arrives at once against a depth-2 queue.
        arrivals = np.zeros(80)
        result = engine.serve(micro_task.test.X, arrivals, k=5)
        assert result.n_shed > 0
        served = result.requests.shed == 0
        assert served.sum() + result.n_shed == 80
        assert not np.isnan(result.requests.done[served]).any()
        assert len(result.latencies_s) == served.sum()

    def test_default_queue_is_unbounded(self, arch, micro_task):
        engine = make_engine(snap(arch, 7), mode="adaptive", n_gpus=N_GPUS)
        arrivals = np.zeros(80)
        result = engine.serve(micro_task.test.X, arrivals, k=5)
        assert result.n_shed == 0


class TestSwapTelemetry:
    def test_spans_instants_and_attribution(self, arch, micro_task, tmp_path):
        from repro.telemetry import Telemetry
        from repro.telemetry.analyze import analyze_report, swap_events
        from repro.telemetry.events import EVENT_SWAP_COMMIT, SPAN_SERVE_SWAP
        from repro.telemetry.trace_data import load_trace_data

        store = fill_store(tmp_path / "s", arch, [7, 7], [0.0, 0.01])
        tel = Telemetry(label="swap-test")
        engine = make_engine(store, mode="adaptive", n_gpus=N_GPUS,
                             telemetry=tel)
        result = engine.serve(
            micro_task.test.X, spanning_arrivals(store, 300), k=5,
            canary_labels=micro_task.test.Y,
        )
        swap_spans = [s for s in tel.runs[0].spans if s.name == SPAN_SERVE_SWAP]
        assert len(swap_spans) == result.n_swaps == 1
        assert swap_spans[0].device is None  # driver lane, not a GPU
        commits = [i for i in tel.runs[0].instants if i.name == EVENT_SWAP_COMMIT]
        assert len(commits) == 1
        assert commits[0].args["version"] == 2

        run = load_trace_data(tel).run(0)
        swaps = swap_events(run)
        assert swaps is not None
        assert swaps["commits"] == 1
        assert swaps["rollbacks"] == 0 and swaps["failures"] == 0
        (event,) = swaps["events"]
        assert event["version_from"] == 1 and event["version_to"] == 2
        assert not event["rolled_back"]
        assert event["requests_in_window"] >= 0

        # The analytics report folds the swap section in, with the
        # attribution invariant intact on a swap-bearing trace.
        report = analyze_report(tel)
        (entry,) = report["runs"]
        assert entry["serving_swaps"]["commits"] == 1
        assert entry["attribution"]["max_residual"] <= 1e-6

    def test_no_swaps_means_no_section(self, arch, micro_task):
        from repro.telemetry import Telemetry
        from repro.telemetry.analyze import swap_events
        from repro.telemetry.trace_data import load_trace_data

        tel = Telemetry(label="no-swap")
        engine = make_engine(snap(arch, 7), mode="adaptive", n_gpus=N_GPUS,
                             telemetry=tel)
        arrivals = generate_arrivals(
            LoadSpec(n_requests=40, rate_rps=5000.0, seed=0)
        )
        engine.serve(micro_task.test.X, arrivals, k=5)
        assert swap_events(load_trace_data(tel).run(0)) is None


class TestServeValidation:
    def test_canary_labels_row_mismatch(self, arch, micro_task):
        engine = make_engine(snap(arch, 7), n_gpus=N_GPUS)
        from repro.exceptions import ConfigurationError
        bad = sp.csr_matrix((3, micro_task.n_labels))
        with pytest.raises(ConfigurationError, match="canary_labels"):
            engine.serve(micro_task.test.X, np.array([0.0]), k=5,
                         canary_labels=bad)
