"""Tests for repro.perf.lsh_topk — the batched multi-probe LSH kernel.

The load-bearing property is bit-identity: the vectorized pipeline must
reproduce the per-row oracles in ``tests/reference.py`` (dict-table lookup,
per-row GEMV, 1-row top-k) element for element — same candidate sets, same
ranking, same tie-breaks, same padding — on arbitrary snapshots and hash
geometries.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.slide.lsh import SimHashLSH
from repro.exceptions import ConfigurationError
from repro.perf import profile as kprofile
from repro.perf.lsh_topk import lsh_topk, score_entries, segmented_topk
from repro.serve.predictor import Predictor
from repro.serve.snapshot import ModelSnapshot
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from tests import reference


def _snapshot(n_features=24, L=96, hidden=32, seed=0):
    arch = MLPArchitecture(n_features, L, hidden=(hidden,))
    state = SparseMLP(arch).init_state(seed=seed)
    return ModelSnapshot(arch=arch, state=state, meta={"dataset": "synth"})


def _assert_candidates_match(lsh, weights, H, n_probes):
    """``lsh.candidates`` == the dict-table union, element for element."""
    indptr, ids = lsh.candidates(H, n_probes=n_probes)
    ref = reference.DictTableLSH(lsh, weights).query_batch(
        H, n_probes=n_probes
    )
    assert indptr.shape == (H.shape[0] + 1,) and indptr[-1] == ids.size
    assert ids.dtype == np.int64
    for i, cand in enumerate(ref):
        assert np.array_equal(ids[indptr[i]:indptr[i + 1]], cand)
    return np.diff(indptr)


def _queries(n, n_features, seed=0, density=0.4):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n_features)) * (
        rng.random((n, n_features)) < density
    )
    return sp.csr_matrix(M.astype(np.float32))


class TestBitIdentity:
    @pytest.mark.parametrize("trial", range(6))
    def test_matches_reference_on_random_geometry(self, trial):
        """Randomized tables/bits/probes/k: batched == per-row, bit for bit."""
        rng = np.random.default_rng(100 + trial)
        tables = int(rng.integers(1, 6))
        bits = int(rng.integers(1, 9))
        probes = int(rng.integers(1, bits + 2))
        k = int(rng.integers(1, 12))
        snap = _snapshot(L=int(rng.integers(20, 150)), seed=trial)
        pred = Predictor(
            snap, lsh_tables=tables, lsh_bits=bits, lsh_probes=probes,
            lsh_seed=trial,
        )
        X = _queries(16, snap.arch.n_features, seed=trial)
        assert np.array_equal(
            pred.topk_lsh(X, k), reference.topk_lsh_reference(pred, X, k)
        )

    def test_underfull_rows_and_k_over_label_count(self):
        """One selective table over few labels: every row is underfull, and
        ``k > L`` clamps to a full ranking of all ``L`` labels."""
        snap = _snapshot(L=20, seed=3)
        pred = Predictor(snap, lsh_tables=1, lsh_bits=8, lsh_seed=3)
        X = _queries(16, snap.arch.n_features, seed=3)
        assert pred.candidate_counts(X).max() < 20
        for k in (7, 25):
            got = pred.topk_lsh(X, k)
            assert got.shape == (16, min(k, 20))
            assert np.array_equal(
                got, reference.topk_lsh_reference(pred, X, k)
            )

    def test_candidate_sets_match_query_batch(self):
        """CSR candidates == the dict-table union, row by row."""
        rng = np.random.default_rng(7)
        lsh = SimHashLSH(dim=16, n_tables=3, n_bits=5, seed=7)
        W = rng.normal(size=(16, 80)).astype(np.float32)
        lsh.rebuild(W)
        H = rng.normal(size=(12, 16)).astype(np.float32)
        for n_probes in (1, 3):
            _assert_candidates_match(lsh, W, H, n_probes)

    def test_empty_buckets_and_rows_with_no_hit(self):
        """Six items in 2 x 256 buckets: most probes find no bucket at all,
        so random queries retrieve nothing while an item's own vector still
        retrieves the item."""
        rng = np.random.default_rng(11)
        lsh = SimHashLSH(dim=16, n_tables=2, n_bits=8, seed=11)
        W = rng.normal(size=(16, 6)).astype(np.float32)
        lsh.rebuild(W)
        H = np.concatenate((W.T, rng.normal(size=(20, 16)))).astype(np.float32)
        for n_probes in (1, 3):
            counts = _assert_candidates_match(lsh, W, H, n_probes)
            assert (counts[:6] >= 1).all() and (counts[6:] == 0).any()

    def test_candidates_of_an_empty_block(self):
        lsh = SimHashLSH(dim=8, n_tables=2, n_bits=3, seed=1)
        lsh.rebuild(np.ones((8, 5), dtype=np.float32))
        indptr, ids = lsh.candidates(np.empty((0, 8), dtype=np.float32))
        assert np.array_equal(indptr, [0]) and ids.size == 0

    def test_candidates_before_rebuild_rejected(self):
        with pytest.raises(ConfigurationError, match="before rebuild"):
            SimHashLSH(dim=8).candidates(np.zeros((1, 8), dtype=np.float32))


class TestSegmentedTopk:
    def test_empty_candidate_row_pads_lowest_ids(self):
        indptr = np.array([0, 0, 3], dtype=np.int64)
        ids = np.array([5, 7, 9], dtype=np.int64)
        logits = np.array([1.0, 3.0, 2.0], dtype=np.float32)
        out = segmented_topk(indptr, ids, logits, L=20, k=4)
        # Row 0 retrieved nothing: deterministic fill with the lowest ids.
        assert np.array_equal(out[0], [0, 1, 2, 3])
        # Row 1 is underfull (3 < 4): all candidates best-first, then fill.
        assert np.array_equal(out[1], [7, 9, 5, 0])

    def test_all_rows_underfull(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        ids = np.array([4, 0], dtype=np.int64)
        logits = np.array([2.0, -1.0], dtype=np.float32)
        out = segmented_topk(indptr, ids, logits, L=6, k=3)
        assert np.array_equal(out[0], [4, 0, 1])
        assert np.array_equal(out[1], [0, 1, 2])

    def test_full_row_ties_break_to_lowest_label_id(self):
        indptr = np.array([0, 4], dtype=np.int64)
        ids = np.array([2, 5, 8, 11], dtype=np.int64)
        logits = np.array([1.0, 1.0, 1.0, 2.0], dtype=np.float32)
        out = segmented_topk(indptr, ids, logits, L=16, k=2)
        assert np.array_equal(out[0], [11, 2])

    def test_mixed_full_and_underfull_rows(self):
        indptr = np.array([0, 5, 6], dtype=np.int64)
        ids = np.array([1, 3, 4, 8, 9, 2], dtype=np.int64)
        logits = np.array(
            [0.5, 2.0, -1.0, 2.0, 0.0, 7.0], dtype=np.float32
        )
        out = segmented_topk(indptr, ids, logits, L=10, k=3)
        assert np.array_equal(out[0], [3, 8, 1])  # tie 2.0: lower id first
        assert np.array_equal(out[1], [2, 0, 1])

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_neg_inf_logits_rank_like_one_row_at_a_time(self, k):
        """``-inf`` candidate logits (a diverged model) tie with the pads of
        the packed rectangle and with the argmax rounds' mask: the ranking
        must still be each row's own, real candidates before pads."""
        rng = np.random.default_rng(5)
        counts = np.array([4, 9, 6, 5, 12])
        indptr = np.concatenate(([0], np.cumsum(counts)))
        ids = np.concatenate(
            [np.sort(rng.choice(40, size=c, replace=False)) for c in counts]
        ).astype(np.int64)
        logits = rng.integers(0, 3, size=ids.size).astype(np.float32)
        logits[rng.random(ids.size) < 0.5] = -np.inf
        logits[indptr[0]:indptr[1]] = -np.inf  # a row with nothing finite
        out = segmented_topk(indptr, ids, logits, L=40, k=k)
        for i in range(counts.size):
            row = slice(indptr[i], indptr[i + 1])
            best = reference.topk_indices(logits[None, row], k)[0]
            assert np.array_equal(out[i], ids[row][best])


class TestScoreEntries:
    def test_matches_dense_logits(self):
        rng = np.random.default_rng(0)
        H = rng.normal(size=(5, 8)).astype(np.float32)
        W = rng.normal(size=(8, 12)).astype(np.float32)
        b = rng.normal(size=12).astype(np.float32)
        rows = np.array([0, 0, 2, 4], dtype=np.int64)
        ids = np.array([3, 11, 0, 7], dtype=np.int64)
        logits = score_entries(H, np.ascontiguousarray(W.T), b, rows, ids)
        dense = H @ W + b
        assert np.allclose(logits, dense[rows, ids], atol=1e-5)


class TestKernelEdges:
    def test_empty_query_block(self):
        rng = np.random.default_rng(1)
        lsh = SimHashLSH(dim=8, n_tables=2, n_bits=3, seed=1)
        W = rng.normal(size=(8, 20)).astype(np.float32)
        lsh.rebuild(W)
        H = np.empty((0, 8), dtype=np.float32)
        out, counts = lsh_topk(
            lsh, H, np.ascontiguousarray(W.T),
            np.zeros(20, dtype=np.float32), 5,
        )
        assert out.shape == (0, 5)
        assert counts.shape == (0,)

    def test_few_wide_buckets_match_reference(self):
        rng = np.random.default_rng(2)
        lsh = SimHashLSH(dim=8, n_tables=4, n_bits=2, seed=2)
        W = rng.normal(size=(8, 30)).astype(np.float32)
        lsh.rebuild(W)
        H = rng.normal(size=(6, 8)).astype(np.float32)
        _assert_candidates_match(lsh, W, H, 1)


class TestProfileCounters:
    def test_phases_recorded_with_units(self):
        snap = _snapshot()
        pred = Predictor(snap, lsh_tables=4, lsh_bits=3, lsh_probes=2)
        X = _queries(8, snap.arch.n_features)
        prof = kprofile.KernelProfile()
        kprofile.activate(prof)
        try:
            pred.topk_lsh(X, 5)
        finally:
            kprofile.deactivate()
        assert {"lsh_probe", "lsh_gather", "lsh_score", "lsh_topk"} <= set(
            prof.stats
        )
        # probe units = n · tables · probes bucket lookups
        assert prof.stats["lsh_probe"][2] == 8 * 4 * 2
        # gather counts raw bucket entries; score counts the deduped
        # candidates — dedup can only shrink the stream.
        assert 0 < prof.stats["lsh_score"][2] <= prof.stats["lsh_gather"][2]
        assert prof.stats["lsh_topk"][2] == 8

    def test_disabled_profile_records_nothing(self):
        snap = _snapshot()
        pred = Predictor(snap)
        X = _queries(4, snap.arch.n_features)
        assert kprofile.active is None
        pred.topk_lsh(X, 3)  # must not raise with the slot empty
