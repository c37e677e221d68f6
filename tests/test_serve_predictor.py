"""Tests for repro.serve.predictor — exact and LSH-accelerated top-k."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ServeError
from repro.serve.predictor import Predictor
from repro.serve.snapshot import ModelSnapshot
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from tests import reference


@pytest.fixture(scope="module")
def micro_snapshot(micro_task):
    arch = MLPArchitecture(
        micro_task.n_features, micro_task.n_labels, hidden=(32,)
    )
    state = SparseMLP(arch).init_state(seed=11)
    return ModelSnapshot(arch=arch, state=state, meta={"dataset": "micro"})


@pytest.fixture()
def predictor(micro_snapshot):
    return Predictor(micro_snapshot)


class TestExactPath:
    def test_topk_matches_stable_argsort(self, predictor, micro_task):
        X = micro_task.test.X[:20]
        scores = predictor.score(X)
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :5]
        assert np.array_equal(predictor.topk(X, 5), expected)

    @pytest.mark.parametrize("n", [0, 6, 7, 8, 20])  # chunk is 7
    def test_topk_ranks_every_chunk_like_the_whole(
        self, micro_snapshot, micro_task, n
    ):
        from repro.sparse.metrics import topk_indices

        predictor = Predictor(micro_snapshot, chunk=7)
        X = micro_task.test.X[:n]
        for k in (1, 5):
            got = predictor.topk(X, k)
            assert got.shape == (n, k)
            assert np.array_equal(got, topk_indices(predictor.score(X), k))
        with pytest.raises(ConfigurationError, match="features"):
            predictor.topk(reference.scipy_csr(X)[:, :3], 5)

    def test_score_batched_equals_whole(self, micro_snapshot, micro_task):
        X = micro_task.test.X[:50]
        whole = Predictor(micro_snapshot, chunk=4096).score(X)
        chunked = Predictor(micro_snapshot, chunk=7).score(X)
        assert np.array_equal(whole, chunked)

    def test_query_validation(self, predictor, micro_task):
        with pytest.raises(ConfigurationError, match="sparse"):
            predictor.score(np.zeros((2, micro_task.n_features)))
        import scipy.sparse as sp

        with pytest.raises(ConfigurationError, match="features"):
            predictor.score(sp.csr_matrix((2, 3), dtype=np.float32))

    def test_bad_chunk_rejected(self, micro_snapshot):
        with pytest.raises(ConfigurationError):
            Predictor(micro_snapshot, chunk=0)

    def test_workload_describes_batch(self, predictor, micro_task):
        X = micro_task.test.X[:8]
        work = predictor.workload(X)
        assert work.batch_size == 8
        assert work.batch_nnz == int(X.nnz)
        assert work.layer_dims == tuple(predictor.arch.layer_dims)


class TestLshPath:
    def test_output_shape_and_validity(self, predictor, micro_task):
        X = micro_task.test.X[:16]
        out = predictor.topk_lsh(X, 5)
        L = predictor.arch.n_labels
        assert out.shape == (16, 5)
        assert out.min() >= 0 and out.max() < L
        for row in out:
            assert len(set(row.tolist())) == 5  # no duplicate labels

    def test_exhaustive_tables_recover_exact(self, micro_snapshot, micro_task):
        """With 1-bit hashes and many tables the candidate set covers every
        label, so the LSH path must equal the exact path bit for bit."""
        predictor = Predictor(micro_snapshot, lsh_tables=48, lsh_bits=1)
        X = micro_task.test.X[:12]
        counts = predictor.candidate_counts(X)
        assert np.all(counts == predictor.arch.n_labels)
        assert np.array_equal(predictor.topk_lsh(X, 5), predictor.topk(X, 5))
        assert predictor.recall_at_k(X, 5) == 1.0

    def test_selective_tables_pad_short_rows(self, micro_snapshot, micro_task):
        """Very selective hashes leave rows under k candidates; the output
        must still be rectangular, valid, and duplicate-free."""
        predictor = Predictor(micro_snapshot, lsh_tables=1, lsh_bits=12)
        X = micro_task.test.X[:16]
        k = 8
        counts = predictor.candidate_counts(X)
        assert counts.min() < k  # the padding path is actually exercised
        out = predictor.topk_lsh(X, k)
        assert out.shape == (16, k)
        for row in out:
            assert len(set(row.tolist())) == k
        assert out.min() >= 0 and out.max() < predictor.arch.n_labels

    def test_k_clamped_to_label_count(self, predictor, micro_task):
        X = micro_task.test.X[:3]
        L = predictor.arch.n_labels
        out = predictor.topk_lsh(X, L + 50)
        assert out.shape == (3, L)
        assert np.array_equal(np.sort(out, axis=1)[0], np.arange(L))

    def test_empty_batch(self, predictor, micro_task):
        X = micro_task.test.X[:0]
        assert predictor.topk_lsh(X, 5).shape == (0, 5)
        assert predictor.recall_at_k(X, 5) == 1.0

    def test_bad_k_rejected(self, predictor, micro_task):
        with pytest.raises(ConfigurationError):
            predictor.topk_lsh(micro_task.test.X[:1], 0)

    def test_default_recall_is_useful(self, predictor, micro_task):
        """The tuned default tables must keep most of the exact top-5 even
        on an untrained model (trained models only get easier)."""
        X = micro_task.test.X[:64]
        assert predictor.recall_at_k(X, 5) >= 0.5

    def test_matches_per_row_reference(self, predictor, micro_task):
        """The batched kernel vs the per-row oracle, bit for bit."""
        X = micro_task.test.X[:32]
        assert np.array_equal(
            predictor.topk_lsh(X, 5),
            reference.topk_lsh_reference(predictor, X, 5),
        )

    def test_bad_probes_rejected(self, micro_snapshot):
        # max_probes = n_bits + 1 (base signature + one flip per bit)
        with pytest.raises(ConfigurationError, match="lsh_probes"):
            Predictor(micro_snapshot, lsh_bits=4, lsh_probes=6)

    def test_probes_expand_candidates(self, micro_snapshot, micro_task):
        X = micro_task.test.X[:16]
        base = Predictor(
            micro_snapshot, lsh_tables=2, lsh_bits=8, lsh_seed=3
        )
        multi = Predictor(
            micro_snapshot, lsh_tables=2, lsh_bits=8, lsh_seed=3,
            lsh_probes=4,
        )
        assert (
            multi.candidate_counts(X).sum() >= base.candidate_counts(X).sum()
        )

    def test_lsh_stats_shares_one_probe(self, predictor, micro_task):
        X = micro_task.test.X[:12]
        out, counts = predictor.lsh_stats(X, 5)
        assert np.array_equal(out, predictor.topk_lsh(X, 5))
        assert np.array_equal(counts, predictor.candidate_counts(X))

    def test_hidden_validates_layer_count_before_forward(
        self, micro_snapshot, micro_task, monkeypatch
    ):
        """A 1-layer predictor must fail with the serve-side error, not a
        forward-pass one — the layer check has to run first."""
        predictor = Predictor(micro_snapshot)
        monkeypatch.setattr(predictor, "_n_layers", 1)
        with pytest.raises(ServeError, match="hidden layer"):
            predictor.hidden(micro_task.test.X[:2])


class TestCrossoverSignal:
    def test_fraction_observation_lifecycle(self, micro_snapshot, micro_task):
        predictor = Predictor(micro_snapshot)
        assert predictor.observed_candidate_fraction() is None
        frac = predictor.calibrate_candidate_fraction(
            micro_task.test.X[:32], max_rows=8
        )
        assert 0.0 < frac <= 1.0
        assert predictor.observed_candidate_fraction() == pytest.approx(frac)

    def test_lsh_calls_update_ewma(self, micro_snapshot, micro_task):
        predictor = Predictor(micro_snapshot)
        predictor.topk_lsh(micro_task.test.X[:8], 5)
        assert predictor.observed_candidate_fraction() is not None


class TestRecall:
    def test_vectorized_recall_matches_per_row_intersection(
        self, predictor, micro_task
    ):
        X = micro_task.test.X[:32]
        exact = predictor.topk(X, 5)
        approx = predictor.topk_lsh(X, 5)
        expected = float(np.mean([
            np.intersect1d(e, a).size / 5.0 for e, a in zip(exact, approx)
        ]))
        assert predictor.recall_at_k(X, 5) == pytest.approx(expected)
