"""Binary-tree all-reduce (the NCCL-style comparator).

Reduce up a binary tree, broadcast back down: ``ceil(log2 N)`` rounds each
way, with every round moving the *full* model over one link. Compared to the
ring (which moves ``2(N-1)/N × S`` per device in 1/N-sized chunks), the tree
has fewer rounds — fewer latency terms, favorable for small models — but
transfers the whole vector per round, so it loses on bandwidth for the
GB-scale replicas XML models produce. That crossover is exactly what the
paper's implementation section reports and what ``benchmarks/
bench_allreduce.py`` regenerates.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.comm.allreduce import (
    AllReduceAlgorithm,
    AllReduceTiming,
    validate_operands,
    weighted_locals,
)
from repro.comm.topology import InterconnectTopology
from repro.exceptions import CommunicationError

__all__ = ["TreeAllReduce"]


class TreeAllReduce(AllReduceAlgorithm):
    """Weighted binary-tree reduce + broadcast."""

    name = "tree"

    # -- numerics ------------------------------------------------------------
    def reduce(
        self, vectors: Sequence[np.ndarray], weights: Sequence[float]
    ) -> np.ndarray:
        vecs = validate_operands(vectors, weights)
        n = len(vecs)
        local: List[np.ndarray] = weighted_locals(vecs, weights)
        # Reduce phase: at stride s, device d receives from d+s when both
        # exist and d % (2s) == 0 — a textbook binomial tree.
        stride = 1
        while stride < n:
            for d in range(0, n - stride, 2 * stride):
                local[d] += local[d + stride]
            stride *= 2
        root = local[0]
        # Broadcast phase: mirror of the reduce (values copied back down).
        stride //= 2
        while stride >= 1:
            for d in range(0, n - stride, 2 * stride):
                local[d + stride][...] = local[d]
            stride //= 2
        return root

    # -- timing -----------------------------------------------------------
    def time_seconds(
        self,
        nbytes: int,
        topology: InterconnectTopology,
        *,
        n_streams: int = 1,
    ) -> AllReduceTiming:
        """Cost for ``nbytes``.

        The tree is priced single-stream by default (the NCCL configuration
        the paper compares against); with ``n_streams > 1`` the vector is
        split into independent sub-trees whose transfers overlap the reduce
        compute, analogous to the ring's multi-streaming.
        """
        if n_streams < 1:
            raise CommunicationError(f"n_streams must be >= 1, got {n_streams}")
        n = topology.n_devices
        if n == 1:
            return AllReduceTiming(0.0, 0.0, 0.0, 0.0, rounds=0, n_streams=n_streams)
        depth = math.ceil(math.log2(n))
        rounds = 2 * depth
        per_stream_bytes = nbytes / n_streams
        elems = per_stream_bytes / 4.0
        per_round_transfer = topology.transfer_time(per_stream_bytes) - topology.link_latency_s
        per_round_reduce = topology.reduce_time(elems)
        latency = rounds * topology.link_latency_s
        transfer = rounds * per_round_transfer
        if n_streams > 1:
            reduce_cost = max(0.0, depth * per_round_reduce - depth * per_round_transfer)
        else:
            reduce_cost = depth * per_round_reduce
        total = latency + transfer + reduce_cost
        return AllReduceTiming(
            total_s=total,
            transfer_s=transfer,
            reduce_s=reduce_cost,
            latency_s=latency,
            rounds=rounds,
            n_streams=n_streams,
        )
