"""Recursive halving-doubling all-reduce (the third classic schedule).

Not part of the paper's comparison (it evaluates ring vs tree), but the
natural third point on the latency/bandwidth trade-off curve and a common
NCCL fallback: ``log2(N)`` reduce-scatter rounds with halving message sizes
followed by ``log2(N)`` all-gather rounds with doubling sizes. Total bytes
moved per device ≈ ``2·S·(N-1)/N`` — ring-optimal bandwidth — in only
``2·log2(N)`` rounds — tree-like latency. Requires a power-of-two device
count; the numeric path handles any count by reducing stragglers into the
power-of-two core first (the standard pre/post step).
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

__all__ = ["HalvingDoublingAllReduce"]


class HalvingDoublingAllReduce(AllReduceAlgorithm):
    """Weighted recursive halving-doubling all-reduce."""

    name = "halving-doubling"

    # -- numerics ------------------------------------------------------------
    def reduce(
        self, vectors: Sequence[np.ndarray], weights: Sequence[float]
    ) -> np.ndarray:
        vecs = validate_operands(vectors, weights)
        n = len(vecs)
        local: List[np.ndarray] = weighted_locals(vecs, weights)
        if n == 1:
            return local[0]
        # Fold stragglers beyond the largest power of two into the core.
        core = 1 << (n.bit_length() - 1)
        if core == n:
            extras = 0
        else:
            extras = n - core
            for i in range(extras):
                local[i] += local[core + i]
        size = local[0].size
        # Recursive halving (reduce-scatter): at distance d, partners swap
        # complementary halves of their active window and reduce.
        windows = [(0, size)] * core
        dist = core // 2
        while dist >= 1:
            snapshot = [arr.copy() for arr in local[:core]]
            for rank in range(core):
                partner = rank ^ dist
                lo, hi = windows[rank]
                mid = (lo + hi) // 2
                # Lower-partner keeps the low half, upper keeps the high.
                if rank < partner:
                    local[rank][lo:mid] += snapshot[partner][lo:mid]
                    windows[rank] = (lo, mid)
                else:
                    local[rank][mid:hi] += snapshot[partner][mid:hi]
                    windows[rank] = (mid, hi)
            dist //= 2
        # Recursive doubling (all-gather): mirror the exchanges.
        dist = 1
        while dist < core:
            snapshot = [arr.copy() for arr in local[:core]]
            new_windows = list(windows)
            for rank in range(core):
                partner = rank ^ dist
                plo, phi = windows[partner]
                local[rank][plo:phi] = snapshot[partner][plo:phi]
                lo, hi = windows[rank]
                new_windows[rank] = (min(lo, plo), max(hi, phi))
            windows = new_windows
            dist *= 2
        return local[0]

    # -- timing -----------------------------------------------------------
    def time_seconds(
        self, nbytes: int, topology: InterconnectTopology
    ) -> AllReduceTiming:
        """Cost for ``nbytes``, single-stream."""
        n = topology.n_devices
        if n == 1:
            return AllReduceTiming(0.0, 0.0, 0.0, 0.0, rounds=0, n_streams=1)
        depth = math.ceil(math.log2(n))
        rounds = 2 * depth
        # Halving phase moves S/2 + S/4 + ... ≈ S(1 - 2^-depth) bytes; the
        # doubling phase mirrors it.
        moved = nbytes * (1.0 - 2.0 ** (-depth))
        transfer = 2.0 * moved / topology.link_bandwidth_Bps
        latency = rounds * topology.link_latency_s
        reduce_cost = topology.reduce_time(moved / 4.0)
        total = latency + transfer + reduce_cost
        return AllReduceTiming(
            total_s=total,
            transfer_s=transfer,
            reduce_s=reduce_cost,
            latency_s=latency,
            rounds=rounds,
            n_streams=1,
        )
