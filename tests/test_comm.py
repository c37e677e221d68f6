"""Tests for repro.comm — topology, ring/tree all-reduce numerics and timing."""

import numpy as np
import pytest

from repro.comm.allreduce import validate_operands
from repro.comm.halving_doubling import HalvingDoublingAllReduce
from repro.comm.ring import RingAllReduce
from repro.comm.topology import InterconnectTopology
from repro.comm.tree import TreeAllReduce
from repro.exceptions import CommunicationError


def reference(vectors, weights):
    acc = sum(
        np.float64(w) * v.astype(np.float64) for w, v in zip(weights, vectors)
    )
    return acc.astype(np.float32)


def random_operands(n, size, seed=0):
    rng = np.random.default_rng(seed)
    vectors = [rng.normal(size=size).astype(np.float32) for _ in range(n)]
    weights = rng.random(n).tolist()
    return vectors, weights


class TestTopology:
    def test_transfer_time_affine(self):
        topo = InterconnectTopology.single_server_pcie(4)
        t0 = topo.transfer_time(0)
        t1 = topo.transfer_time(10_000_000)
        assert t0 == pytest.approx(topo.link_latency_s)
        assert t1 == pytest.approx(
            topo.link_latency_s + 1e7 / topo.link_bandwidth_Bps
        )

    def test_contention_shares_bandwidth(self):
        topo = InterconnectTopology.single_server_pcie(4)
        solo = topo.transfer_time(1e7)
        shared = topo.transfer_time(1e7, concurrent_on_link=2)
        assert shared > solo

    def test_nvlink_faster_than_pcie(self):
        pcie = InterconnectTopology.single_server_pcie(4)
        nvlink = InterconnectTopology.single_server_nvlink(4)
        assert nvlink.transfer_time(1e8) < pcie.transfer_time(1e8)

    def test_invalid_args_rejected(self):
        topo = InterconnectTopology.single_server_pcie(2)
        with pytest.raises(CommunicationError):
            topo.transfer_time(-1)
        with pytest.raises(CommunicationError):
            topo.transfer_time(1, concurrent_on_link=0)
        with pytest.raises(CommunicationError):
            InterconnectTopology(n_devices=0)


class TestValidateOperands:
    def test_happy_path_casts(self):
        out = validate_operands([np.arange(4, dtype=np.float64)], [1.0])
        assert out[0].dtype == np.float32

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(CommunicationError):
            validate_operands(
                [np.zeros(3, np.float32), np.zeros(4, np.float32)], [1, 1]
            )

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(CommunicationError):
            validate_operands([np.zeros(3, np.float32)], [1, 1])

    def test_empty_rejected(self):
        with pytest.raises(CommunicationError):
            validate_operands([], [])

    def test_2d_rejected(self):
        with pytest.raises(CommunicationError):
            validate_operands([np.zeros((2, 2), np.float32)], [1.0])


@pytest.mark.parametrize("algo_factory", [
    lambda: RingAllReduce(1),
    lambda: RingAllReduce(4),
    lambda: TreeAllReduce(),
    lambda: HalvingDoublingAllReduce(),
])
class TestNumerics:
    @pytest.mark.parametrize("n,size", [
        (1, 10), (2, 16), (3, 17), (4, 64), (5, 101), (8, 7),
    ])
    def test_matches_reference(self, algo_factory, n, size):
        vectors, weights = random_operands(n, size, seed=n * 100 + size)
        got = algo_factory().reduce(vectors, weights)
        assert np.allclose(got, reference(vectors, weights), atol=1e-4)

    def test_size_smaller_than_devices(self, algo_factory):
        # More devices than elements: some ring chunks are empty.
        vectors, weights = random_operands(6, 3, seed=1)
        got = algo_factory().reduce(vectors, weights)
        assert np.allclose(got, reference(vectors, weights), atol=1e-5)

    def test_inputs_not_mutated(self, algo_factory):
        vectors, weights = random_operands(4, 32, seed=2)
        originals = [v.copy() for v in vectors]
        algo_factory().reduce(vectors, weights)
        for v, orig in zip(vectors, originals):
            assert np.array_equal(v, orig)


class TestTiming:
    def test_single_device_free(self):
        topo = InterconnectTopology.single_server_pcie(1)
        assert RingAllReduce(1).time_seconds(1e6, topo).total_s == 0.0
        assert TreeAllReduce().time_seconds(1e6, topo).total_s == 0.0

    def test_ring_rounds(self):
        topo = InterconnectTopology.single_server_pcie(4)
        timing = RingAllReduce(1).time_seconds(4_000_000, topo)
        assert timing.rounds == 2 * 3

    def test_tree_rounds(self):
        topo = InterconnectTopology.single_server_pcie(4)
        timing = TreeAllReduce().time_seconds(4_000_000, topo)
        assert timing.rounds == 2 * 2  # 2 levels up + 2 down

    def test_multi_stream_ring_faster(self):
        topo = InterconnectTopology.single_server_pcie(4)
        multi = RingAllReduce(4).time_seconds(4_000_000, topo)
        single = RingAllReduce(1).time_seconds(4_000_000, topo)
        assert multi.total_s < single.total_s

    def test_paper_claim_ring_multi_at_least_2x_tree(self):
        """§IV: multi-stream ring merges >= 2x faster than single-stream tree."""
        topo = InterconnectTopology.single_server_pcie(4)
        for nbytes in (1_000_000, 4_000_000, 64_000_000):
            ring = RingAllReduce(4).time_seconds(nbytes, topo)
            tree = TreeAllReduce().time_seconds(nbytes, topo)
            assert tree.total_s >= 2.0 * ring.total_s

    def test_tree_wins_for_tiny_messages(self):
        # Fewer rounds -> fewer latency terms: the small-message crossover.
        topo = InterconnectTopology.single_server_pcie(8)
        ring = RingAllReduce(1).time_seconds(256, topo)
        tree = TreeAllReduce().time_seconds(256, topo)
        assert tree.total_s < ring.total_s

    def test_time_monotone_in_bytes(self):
        topo = InterconnectTopology.single_server_pcie(4)
        for algo in (RingAllReduce(4), TreeAllReduce()):
            small = algo.time_seconds(1_000_000, topo).total_s
            big = algo.time_seconds(10_000_000, topo).total_s
            assert big > small

    def test_instance_stream_default_used(self):
        topo = InterconnectTopology.single_server_pcie(4)
        assert RingAllReduce(4).time_seconds(4_000_000, topo).n_streams == 4
        assert RingAllReduce(1).time_seconds(4_000_000, topo).n_streams == 1

    def test_invalid_streams_rejected(self):
        with pytest.raises(CommunicationError):
            RingAllReduce(0)

    def test_halving_doubling_sits_between_ring_and_tree(self):
        """HD: ring-like bandwidth with tree-like round count — for large
        single-stream transfers it beats the tree and loses to nothing by
        much."""
        topo = InterconnectTopology.single_server_pcie(4)
        nbytes = 16_000_000
        hd = HalvingDoublingAllReduce().time_seconds(nbytes, topo)
        tree = TreeAllReduce().time_seconds(nbytes, topo)
        ring1 = RingAllReduce(1).time_seconds(nbytes, topo)
        assert hd.total_s < tree.total_s
        assert hd.rounds == tree.rounds  # 2 log2(N)
        assert hd.rounds < ring1.rounds  # fewer latency terms than the ring
