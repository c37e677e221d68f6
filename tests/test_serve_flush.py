"""Table-scored serving against the per-dispatch scoring it replaced.

``ServeRun`` prices a batch from cached per-row nnz. The first batch that
asks for a (version, path) label table fills it: every query row the run's
requests name, ``Predictor.chunk`` rows per ``topk`` / ``lsh_stats`` call.
A version's tables are read into the label array once, when it retires or
the run ends. ``tests/reference.py::PerDispatchServeRun`` is the run as
shipped before: gather, price and score every batch where it is
dispatched. Every request must come out of both with the same version,
device and timestamps, both runs must write the same ``(n_requests, k)``
label array and candidate fractions, and every ``serve.batch`` span must
carry the same arguments.
"""

import math
from collections import Counter, defaultdict
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
from repro.serve.run import ServeRun
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
        #: ``(run ordinal, version, path)`` and the predictor's chunk, per
        #: call.
        self.calls = {"shipped": [], "oracle": []}
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
        calls = self.calls[side]

        def counting_method(pred, X, k):
            block, gatherer, rows = self.gathered.get(id(X), (None,) * 3)
            if block is X:
                run = runs.setdefault(gatherer, len(runs))
                version = pred.snapshot.meta.get("store_version", 0)
                blocks.append(len(rows))
                calls.append(((run, version, path), pred.chunk))
                scored.extend((run, version, path, row) for row in rows)
            return method(pred, X, k)

        return counting_method

    def tables(self):
        """``(run ordinal, version, path)`` -> the query rows the shipped
        run scored into that table, in call order."""
        tables = defaultdict(list)
        for run, version, path, row in self.scored["shipped"]:
            tables[run, version, path].append(row)
        return tables

    def assert_each_table_scored_once(self):
        """Every (run, version, path) table scores the run's query pool:
        each row once, ascending, the same rows in every table of a run, in
        ``ceil(rows / Predictor.chunk)`` calls. It holds every row the
        oracle scored there (a row of each batch where dispatched)."""
        tables, pools = self.tables(), {}
        for (run, _, _), rows in tables.items():
            assert rows == sorted(set(rows))
            assert pools.setdefault(run, rows) == rows
        calls = Counter(table for table, _ in self.calls["shipped"])
        for table, chunk in self.calls["shipped"]:
            assert calls[table] == math.ceil(len(tables[table]) / chunk)
        pools = {run: set(rows) for run, rows in pools.items()}
        for run, version, path, row in self.scored["oracle"]:
            assert (run, version, path) in tables and row in pools[run]


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
        sides.assert_each_table_scored_once()
        assert len(sides.blocks["shipped"]) < len(sides.blocks["oracle"]) / 4


class TestBlockScoring:
    def test_sequential_mode_scores_one_row_batches_in_blocks(
        self, sides, micro_task
    ):
        X = micro_task.test.X
        n = 1064
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
        sides.assert_each_table_scored_once()
        assert sides.blocks["shipped"] == [np.unique(rows).size]

    def test_a_pool_larger_than_a_chunk_is_scored_a_chunk_at_a_time(
        self, sides, amazon_task
    ):
        """Every request brings its own row of a 2,048-row pool, and the
        predictor's chunk is 300 rows: each table is gathered and scored in
        seven calls, six full chunks and the rest, on both paths."""
        X = amazon_task.test.X
        n = X.shape[0]
        rows = np.random.default_rng(3).permutation(n)

        def scenario():
            results = []
            for scoring in ("exact", "lsh"):
                predictor = Predictor(snapshot(amazon_task, 21), chunk=300)
                results.append(ServingEngine(
                    predictor, server(), mode="adaptive", scoring=scoring
                ).serve(
                    X, saturating(predictor, X, n), k=5, row_indices=rows
                ))
            return results

        shipped, oracle = sides.run(scenario)
        for a, b in zip(shipped, oracle):
            assert_same_requests(a, b)
        sides.assert_each_table_scored_once()
        assert sides.blocks["shipped"] == 2 * ([300] * 6 + [n - 1800])

    def test_little_reuse_matches_the_oracle(self, sides, amazon_task):
        """Fewer requests than twice the pool: most rows of the table are
        read back once, a few more often."""
        self.little_reuse(sides, amazon_task, "exact")

    def test_little_reuse_under_lsh_matches_the_oracle(
        self, sides, amazon_task
    ):
        """The same on the LSH path, where every batch also reads its rows'
        candidate counts off the table."""
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
        sides.assert_each_table_scored_once()
        assert sides.blocks["shipped"] == [np.unique(rows).size]
        assert np.unique(rows).size < n

    @pytest.mark.parametrize("hidden", [(32,), (32, 32)], ids=["h1", "h2"])
    def test_lsh_replay_scores_each_row_once(self, hidden, sides, micro_task):
        """An LSH replay of micro's 128-row pool: the first batch fills the
        table, every batch reads its rows' candidate counts there to price
        the next one, and every candidate fraction matches."""
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
        sides.assert_each_table_scored_once()
        assert sides.blocks["shipped"] == [np.unique(rows).size]

    def test_batch_spans_carry_the_gathered_nnz(self, sides, micro_task):
        X = micro_task.test.X
        n = 700
        rows = sample_query_rows(X.shape[0], n, seed=2)

        def scenario():
            predictor = Predictor(snapshot(micro_task, 21))
            tel = Telemetry(label="tables")
            result = ServingEngine(
                predictor, server(), mode="adaptive", telemetry=tel
            ).serve(X, saturating(predictor, X, n), k=5, row_indices=rows)
            return result, [
                (s.ts, s.dur, s.device, s.args)
                for s in tel.runs[0].spans if s.name == SPAN_SERVE_BATCH
            ]

        (shipped, spans), (oracle, oracle_spans) = sides.run(scenario)
        assert_same_requests(shipped, oracle)
        sides.assert_each_table_scored_once()
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
        canary; version 2 fails it and is rolled back. Each version that
        serves a batch scores the whole pool into its table in one call,
        and a retired version's requests are labelled off its table when
        its predictor is freed."""
        self.four_versions(sides, micro_task, tmp_path, "exact")

    def test_four_lsh_versions_and_a_rollback(
        self, sides, micro_task, tmp_path
    ):
        """The same swap schedule served on the LSH path: each version's
        table is keyed (version, "lsh") and read when it retires."""
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
        store_ids = count()

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

        shipped, oracle = sides.run(scenario)
        assert_same_requests(shipped, oracle)
        assert shipped.n_swaps == 3 and shipped.n_rollbacks == 1
        assert shipped.active_version == 4
        assert set(shipped.versions_served) == {1, 3, 4}
        rolled_back = [s["rolled_back"] for s in shipped.swaps]
        assert rolled_back == [True, False, False]
        sides.assert_each_table_scored_once()
        assert set(sides.tables()) == {(0, v, scoring) for v in (1, 3, 4)}
        assert sides.blocks["shipped"] == [n_rows] * 3
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
        predictor: each path's table is scored once, the first time a
        batch takes that path."""
        self.auto_replay(sides, micro_task, 600)

    def test_a_long_replay_scores_one_table_per_path(self, sides, micro_task):
        """6,000 requests switch paths hundreds of times, and still each
        (version, path) table costs one ``topk`` or ``lsh_stats`` call."""
        self.auto_replay(sides, micro_task, 6000)

    @staticmethod
    def auto_replay(sides, micro_task, n):
        X = micro_task.test.X
        rows = sample_query_rows(X.shape[0], n, seed=1)

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

        shipped, oracle = sides.run(scenario)
        assert_same_requests(shipped, oracle)
        sides.assert_each_table_scored_once()
        assert min(shipped.scoring_batches.values()) >= 20
        assert set(shipped.scoring_batches) == {"exact", "lsh"}
        assert sorted(table for table, _ in sides.calls["shipped"]) == [
            (0, 0, "exact"), (0, 0, "lsh"),
        ]
        assert sides.blocks["shipped"] == [np.unique(rows).size] * 2
