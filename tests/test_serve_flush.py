"""Block-scored serving against the per-dispatch scoring it replaced.

``ServeRun`` prices a batch from cached per-row nnz and leaves its top-k to
``flush``, a block of batches at a time, which scores each query row once
per (version, path) into that pair's label table; an LSH batch holding a
row its table lacks flushes at once, since its candidate counts price the
next batch. ``tests/reference.py::PerDispatchServeRun`` is the run as
shipped before: gather, price and score every batch where it is
dispatched. Every request must come out of both with the same version,
device and timestamps, both runs must write the same ``(n_requests, k)``
label array and candidate fractions, and every ``serve.batch`` span must
carry the same arguments.
"""

from collections import defaultdict
from itertools import count

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import make_engine
from repro.cli import main
from repro.data.registry import load_task
from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.perf.gather import RowGatherer
from repro.serve import (
    LoadSpec,
    ModelSnapshot,
    Predictor,
    ServingEngine,
    SnapshotStore,
    generate_arrivals,
    sample_query_rows,
)
from repro.serve.queue import B_MAX
from repro.serve.run import FLUSH_ROWS, ServeRun
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from repro.telemetry import Telemetry
from repro.telemetry.events import SPAN_SERVE_BATCH
from tests import reference
from tests.test_serve_engine import BENCH_SERVE_PINS

STAMPS = ("served_version", "device", "dispatch", "done", "shed")


def assert_same_stamps(shipped, oracle):
    """Every stamped column of the two request tables (NaN equal to NaN)."""
    for name in STAMPS:
        np.testing.assert_array_equal(
            getattr(shipped.requests, name), getattr(oracle.requests, name),
            err_msg=name,
        )
    assert shipped.requests.version == oracle.requests.version


def snapshot(task, seed, n_labels=None, hidden=(32,)):
    arch = MLPArchitecture(
        task.n_features, n_labels or task.n_labels, hidden=hidden
    )
    return ModelSnapshot(
        arch=arch, state=SparseMLP(arch).init_state(seed=seed),
        meta={"dataset": "micro"},
    )


def server(n_gpus=2):
    return make_server(
        n_gpus, cost_params=GpuCostParams.tiny_model_profile(), seed=0
    )


def saturating(predictor, X, n_requests, *, factor=10.0):
    per_request = server().gpus[0].cost_model.inference_time(
        predictor.workload(X[:1]), n_active_gpus=2
    )
    rate = factor * 2 / per_request
    return generate_arrivals(
        LoadSpec(n_requests=n_requests, rate_rps=rate, seed=0)
    )


class Sides:
    """Runs one serving scenario on the shipped run and on the oracle."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        #: Gatherer -> run ordinal, per side (both scoring methods share it).
        self.runs = {}
        #: Rows per ``Predictor.topk`` / ``lsh_stats`` call on a run's
        #: gathered query rows (the requests' scoring, not a canary probe),
        #: per side.
        self.blocks = {"shipped": [], "oracle": []}
        #: ``(run ordinal, version, path, query row)`` per row those calls
        #: scored.
        self.scored = {"shipped": [], "oracle": []}

    def run(self, scenario):
        """``scenario()`` -> result(s), once per side (fresh state each)."""
        out = {}
        for side, run_class in (
            ("shipped", ServeRun), ("oracle", reference.PerDispatchServeRun),
        ):
            with self.monkeypatch.context() as patch:
                patch.setattr("repro.serve.engine.ServeRun", run_class)
                patch.setattr(RowGatherer, "gather", self.recording_gather())
                for path, name in (("exact", "topk"), ("lsh", "lsh_stats")):
                    patch.setattr(
                        Predictor, name, self.counting(side, path, name)
                    )
                out[side] = scenario()
        return out["shipped"], out["oracle"]

    def recording_gather(self):
        gather = RowGatherer.gather
        #: ``id(block)`` -> (block, its gatherer: one per run, its rows).
        self.gathered = {}

        def recording_gather(gatherer, idx):
            X = gather(gatherer, idx)
            self.gathered[id(X)] = (X, gatherer, np.asarray(idx).tolist())
            return X

        return recording_gather

    def counting(self, side, path, name):
        method = getattr(Predictor, name)
        runs = self.runs.setdefault(side, {})
        blocks, scored = self.blocks[side], self.scored[side]

        def counting_method(pred, X, k):
            block, gatherer, rows = self.gathered.get(id(X), (None,) * 3)
            if block is X:
                run = runs.setdefault(gatherer, len(runs))
                version = pred.snapshot.meta.get("store_version", 0)
                blocks.append(len(rows))
                scored.extend((run, version, path, row) for row in rows)
            return method(pred, X, k)

        return counting_method

    def assert_each_row_scored_once(self):
        """Each (run, version, path, query row) reaches ``Predictor.topk`` /
        ``lsh_stats`` at most once, and the rows scored are the distinct
        tuples of the requests (the oracle scores every one of them where
        dispatched)."""
        shipped = self.scored["shipped"]
        assert len(shipped) == len(set(shipped))
        assert set(shipped) == set(self.scored["oracle"])


@pytest.fixture()
def sides(monkeypatch):
    return Sides(monkeypatch)


@pytest.fixture(scope="module")
def amazon_task():
    """A 2,048-row query pool: room for blocks of new rows."""
    return load_task("amazon670k-bench", seed=1)


def assert_same_requests(shipped, oracle):
    n = shipped.requests.arrival.size
    assert n == oracle.requests.arrival.size
    assert_same_stamps(shipped, oracle)
    assert shipped.labels.shape == oracle.labels.shape == (n, 5)
    assert shipped.labels.dtype == oracle.labels.dtype == np.int32
    assert np.array_equal(shipped.labels, oracle.labels)
    shed = shipped.requests.shed != 0
    assert (shipped.labels[shed] == -1).all()
    assert (shipped.labels[~shed] >= 0).all()
    assert shipped.mis_versioned == oracle.mis_versioned == 0
    assert shipped.scoring_batches == oracle.scoring_batches
    assert shipped.batch_sizes == oracle.batch_sizes
    assert shipped.mean_candidate_fraction == oracle.mean_candidate_fraction


class TestBenchmarkCommands:
    @pytest.fixture(scope="class")
    def snapshot_stem(self, tmp_path_factory):
        stem = str(tmp_path_factory.mktemp("flush-serve") / "M")
        assert main([
            "snapshot", stem, "--dataset", "micro", "--time-budget-s",
            "0.01", "--gpus", "2", "--seed", "1",
        ]) == 0
        return stem

    @pytest.mark.parametrize("name", sorted(BENCH_SERVE_PINS))
    def test_every_request_matches_per_dispatch_scoring(
        self, name, snapshot_stem, sides, monkeypatch, capsys
    ):
        argv, pins = BENCH_SERVE_PINS[name]

        def command():
            results = []
            serve = ServingEngine.serve

            def recording_serve(engine, *args, **kwargs):
                results.append(serve(engine, *args, **kwargs))
                return results[-1]

            with monkeypatch.context() as patch:
                patch.setattr(ServingEngine, "serve", recording_serve)
                full_argv = ["serve", snapshot_stem, *argv, "--seed", "1"]
                assert main(full_argv) == 0
            return results, capsys.readouterr().out

        (shipped, shipped_out), (oracle, oracle_out) = sides.run(command)
        assert len(shipped) == len(oracle) == len(pins)
        for a, b in zip(shipped, oracle):
            assert_same_requests(a, b)
        assert shipped_out == oracle_out
        sides.assert_each_row_scored_once()
        assert len(sides.blocks["shipped"]) < len(sides.blocks["oracle"]) / 4


class TestBlockScoring:
    def test_sequential_mode_scores_one_row_batches_in_blocks(
        self, sides, micro_task
    ):
        X = micro_task.test.X
        n = 2 * FLUSH_ROWS + 40
        rows = sample_query_rows(X.shape[0], n, seed=1)

        def scenario():
            predictor = Predictor(snapshot(micro_task, 21))
            return ServingEngine(
                predictor, server(), mode="sequential"
            ).serve(X, saturating(predictor, X, n), k=5, row_indices=rows)

        shipped, oracle = sides.run(scenario)
        assert_same_requests(shipped, oracle)
        assert shipped.batch_sizes == [1] * n
        assert sides.blocks["oracle"] == [1] * n
        sides.assert_each_row_scored_once()
        assert sum(sides.blocks["shipped"]) == np.unique(rows).size

    def test_a_block_is_bounded_by_the_constant_plus_one_batch(
        self, sides, amazon_task
    ):
        """Every request brings a row not scored yet: blocks are sized by
        the pending list, as before the tables."""
        X = amazon_task.test.X
        n = X.shape[0]
        rows = np.random.default_rng(3).permutation(n)

        def scenario():
            predictor = Predictor(snapshot(amazon_task, 21))
            return ServingEngine(
                predictor, server(), mode="adaptive"
            ).serve(X, saturating(predictor, X, n), k=5, row_indices=rows)

        shipped, oracle = sides.run(scenario)
        assert_same_requests(shipped, oracle)
        sides.assert_each_row_scored_once()
        blocks = sides.blocks["shipped"]
        assert all(FLUSH_ROWS <= b < FLUSH_ROWS + B_MAX for b in blocks[:-1])
        assert len(blocks) <= n // FLUSH_ROWS + 1

    def test_little_reuse_matches_the_oracle(self, sides, amazon_task):
        """Fewer requests than twice the pool: most flushes score rows the
        table lacks, and a few repeats are read back."""
        self.little_reuse(sides, amazon_task, "exact")

    def test_little_reuse_under_lsh_matches_the_oracle(
        self, sides, amazon_task
    ):
        """The same on the LSH path, where nearly every batch brings a row
        its table lacks and so flushes at once."""
        self.little_reuse(sides, amazon_task, "lsh")

    @staticmethod
    def little_reuse(sides, amazon_task, scoring):
        X = amazon_task.test.X
        n = 3000
        rows = sample_query_rows(X.shape[0], n, seed=4)

        def scenario():
            predictor = Predictor(snapshot(amazon_task, 5))
            return ServingEngine(
                predictor, server(), mode="adaptive", scoring=scoring
            ).serve(X, saturating(predictor, X, n), k=5, row_indices=rows)

        shipped, oracle = sides.run(scenario)
        assert_same_requests(shipped, oracle)
        sides.assert_each_row_scored_once()
        assert sum(sides.blocks["shipped"]) == np.unique(rows).size < n

    @pytest.mark.parametrize("hidden", [(32,), (32, 32)], ids=["h1", "h2"])
    def test_lsh_replay_scores_each_row_once(self, hidden, sides, micro_task):
        """An LSH replay of micro's 128-row pool: a batch holding a row its
        table lacks flushes at once (its counts price the next batch), the
        rest are read back, and every candidate fraction matches."""
        X = micro_task.test.X
        n = 3000
        rows = sample_query_rows(X.shape[0], n, seed=1)

        def scenario():
            predictor = Predictor(snapshot(micro_task, 21, hidden=hidden))
            tel = Telemetry(label="lsh")
            result = ServingEngine(
                predictor, server(), mode="adaptive", scoring="lsh",
                telemetry=tel,
            ).serve(X, saturating(predictor, X, n), k=5, row_indices=rows)
            return result, [
                (s.ts, s.dur, s.device, s.args)
                for s in tel.runs[0].spans if s.name == SPAN_SERVE_BATCH
            ]

        (shipped, spans), (oracle, oracle_spans) = sides.run(scenario)
        assert_same_requests(shipped, oracle)
        assert spans == oracle_spans
        assert shipped.scoring_batches == {"lsh": len(spans)}
        sides.assert_each_row_scored_once()
        assert sum(sides.blocks["shipped"]) == np.unique(rows).size
        assert len(sides.blocks["shipped"]) < len(spans) / 4

    def test_batch_spans_carry_the_gathered_nnz(self, sides, micro_task):
        X = micro_task.test.X
        n = 700
        rows = sample_query_rows(X.shape[0], n, seed=2)

        def scenario():
            predictor = Predictor(snapshot(micro_task, 21))
            tel = Telemetry(label="flush")
            result = ServingEngine(
                predictor, server(), mode="adaptive", telemetry=tel
            ).serve(X, saturating(predictor, X, n), k=5, row_indices=rows)
            return result, [
                (s.ts, s.dur, s.device, s.args)
                for s in tel.runs[0].spans if s.name == SPAN_SERVE_BATCH
            ]

        (shipped, spans), (oracle, oracle_spans) = sides.run(scenario)
        assert_same_requests(shipped, oracle)
        sides.assert_each_row_scored_once()
        assert spans == oracle_spans
        batch_rows = defaultdict(list)
        t = shipped.requests
        for device, dispatch, row in zip(
            t.device.tolist(), t.dispatch.tolist(), t.row.tolist()
        ):
            batch_rows[(device, dispatch)].append(row)
        assert len(batch_rows) == len(spans)
        for ts, _, device, args in spans:
            gathered = X[np.array(batch_rows[(device, ts)])]
            assert args["size"] == gathered.shape[0]
            assert args["nnz"] == gathered.nnz
            assert type(args["nnz"]) is int


class TestHotSwap:
    def test_four_versions_and_a_rollback(self, sides, micro_task, tmp_path):
        """Versions 1, 3 and 4 carry different weights and pass the recall
        canary; version 2 fails it and is rolled back. Fewer rows reach a
        version than ``FLUSH_ROWS``, so each outgoing version's predictor is
        retired while its last rows still wait: they must be scored by it
        anyway (the pending list holds the predictor, not the version).
        A retired version's label table goes with its predictor: at run end
        only live versions hold one."""
        self.four_versions(sides, micro_task, tmp_path, "exact")

    def test_four_lsh_versions_and_a_rollback(
        self, sides, micro_task, tmp_path
    ):
        """The same swap schedule served on the LSH path: each version's
        tables are keyed (version, "lsh") and retired with it."""
        self.four_versions(sides, micro_task, tmp_path, "lsh")

    @staticmethod
    def four_versions(sides, micro_task, tmp_path, scoring):
        X = micro_task.test.X
        seeds = [7, 8, 9, 10]
        good = [Predictor(snapshot(micro_task, s)) for s in (7, 9, 10)]
        # Truth = union of the good versions' top-5: each has recall 1.0.
        n_rows = X.shape[0]
        top = np.hstack([p.topk(X, 5) for p in good])
        labels = sp.csr_matrix(
            (np.ones(top.size), (np.repeat(np.arange(n_rows), top.shape[1]),
                                 top.ravel())),
            shape=(n_rows, micro_task.n_labels),
        )
        retired_at_flush, store_ids = [], count()
        last_run = {}
        flush = ServeRun.flush

        def watching_flush(run):
            if run.pending and (
                run.pending_predictor not in run.predictors.values()
            ):
                retired_at_flush.append(len(run.pending))
                # Its table is freed too, and still labels the rows it owes.
                assert all(
                    t is not run.pending_table for t in run.tables.values()
                )
            assert {v for v, _ in run.tables} <= set(run.predictors)
            flush(run)
            last_run[type(run)] = run

        def scenario():
            store = SnapshotStore(tmp_path / f"store-{next(store_ids)}")
            for seed, t in zip(seeds, [0.0, 0.004, 0.008, 0.012]):
                store.publish(snapshot(micro_task, seed), published_s=t)
            engine = make_engine(
                store, mode="adaptive", n_gpus=2, scoring=scoring
            )
            arrivals = generate_arrivals(
                LoadSpec(n_requests=900, rate_rps=900 / 0.016, seed=0)
            )
            return engine.serve(X, arrivals, k=5, canary_labels=labels)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ServeRun, "flush", watching_flush)
            shipped, oracle = sides.run(scenario)
        assert_same_requests(shipped, oracle)
        assert shipped.n_swaps == 3 and shipped.n_rollbacks == 1
        assert shipped.active_version == 4
        assert set(shipped.versions_served) == {1, 3, 4}
        rolled_back = [s["rolled_back"] for s in shipped.swaps]
        assert rolled_back == [True, False, False]
        assert retired_at_flush, "no flush ever ran on a retired predictor"
        sides.assert_each_row_scored_once()
        run = last_run[ServeRun]
        assert set(run.tables) == {(4, scoring)}
        assert set(run.predictors) == {4}
        assert run.pending_table is None
        # The labels are each request's own version's: a mix-up would not
        # survive three different weight sets.
        by_version = {
            v: p.topk(X, 5) if scoring == "exact" else p.lsh_stats(X, 5)[0]
            for v, p in zip((1, 3, 4), good)
        }
        t = shipped.requests
        for req_id, (version, row) in enumerate(
            zip(t.served_version.tolist(), t.row.tolist())
        ):
            expected = by_version[version][row]
            assert shipped.labels[req_id].tolist() == expected.tolist()


class TestAutoScoring:
    def test_both_paths_taken(self, sides, micro_task):
        """At L=2048 with a selective index the cost model sends large
        batches to LSH and small ones to the exact path, interleaved on one
        predictor: a change of path flushes, and an LSH batch with a row
        its table lacks flushes at once (its counts price the next batch)."""
        X = micro_task.test.X
        n = 600
        rows = sample_query_rows(X.shape[0], n, seed=1)
        runs = []
        flush = ServeRun.flush

        def watching_flush(run):
            flush(run)
            runs.append(run)

        def scenario():
            predictor = Predictor(
                snapshot(micro_task, 3, n_labels=2048),
                lsh_tables=8, lsh_bits=10,
            )
            return ServingEngine(
                predictor, server(), mode="adaptive", scoring="auto"
            ).serve(
                X, saturating(predictor, X, n, factor=3.0), k=5,
                row_indices=rows,
            )

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ServeRun, "flush", watching_flush)
            shipped, oracle = sides.run(scenario)
        assert_same_requests(shipped, oracle)
        sides.assert_each_row_scored_once()
        assert min(shipped.scoring_batches.values()) >= 20
        assert set(shipped.scoring_batches) == {"exact", "lsh"}
        # One table per (version, path); retiring the version frees both.
        run = next(r for r in runs if type(r) is ServeRun)
        assert set(run.tables) == {(0, "exact"), (0, "lsh")}
        run.active_version = 1
        run.retire_version(0)
        assert run.tables == {} and run.predictors == {}
