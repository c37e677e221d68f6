"""Ring all-reduce with multi-stream overlap (HeteroGPU's merge method).

§IV: "we implement specialized tree- and ring-based multi-stream all-reduce
aggregation functions. The local replica models are split into a fixed
number of partitions, which are allocated to a separate GPU processing
stream... Every stream performs the all-reduce aggregation starting from a
different GPU. This results in complete overlap between data transfer and
computation... the multi-stream ring-based all-reduce function performs
model merging at least twice as fast [as single-stream tree]."

Numerics: the classic two-phase ring — ``N-1`` scatter-reduce rounds where
each device forwards one chunk to its successor and accumulates the chunk it
receives, then ``N-1`` all-gather rounds. Each device contributes
``w_i · v_i``, making the result the weighted sum. Only the scatter-reduce
adds, so :meth:`RingAllReduce.reduce` performs its additions, in its order,
into one output: chunk ``c`` is ``w_c v_c + w_{c+1} v_{c+1} + …`` around
the ring, with no per-device copies and no copy-only all-gather.

Timing: the model is cut into ``n_streams`` partitions, each running its own
ring offset by one device so concurrent streams use disjoint links (the
paper found ``n_streams = n_gpus`` optimal). Within a stream, the per-round
cost is ``latency + chunk/BW`` with the on-device reduce *overlapped* with
the transfer when more than one stream is active (that is the whole point of
multi-streaming); single-stream rings pay ``transfer + reduce`` serially.
Streams beyond ``n_gpus`` contend for links and share bandwidth.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.comm.allreduce import (
    AllReduceAlgorithm,
    AllReduceTiming,
    validate_operands,
)
from repro.comm.topology import InterconnectTopology
from repro.exceptions import CommunicationError

__all__ = ["RingAllReduce"]


class RingAllReduce(AllReduceAlgorithm):
    """Weighted ring all-reduce (optionally multi-stream)."""

    name = "ring"

    def __init__(self, n_streams: int = 1) -> None:
        if n_streams < 1:
            raise CommunicationError(f"n_streams must be >= 1, got {n_streams}")
        self.n_streams = int(n_streams)

    # -- numerics ------------------------------------------------------------
    def reduce(
        self, vectors: Sequence[np.ndarray], weights: Sequence[float]
    ) -> np.ndarray:
        vecs = validate_operands(vectors, weights)
        n = len(vecs)
        scales = [np.float32(w) for w in weights]
        out = np.empty_like(vecs[0])
        # Chunk boundaries: n near-equal chunks (some possibly empty).
        bounds = np.linspace(0, out.size, n + 1).astype(np.int64)
        term = np.empty(int(np.diff(bounds).max()), np.float32)
        for c in range(n):
            lo, hi = bounds[c], bounds[c + 1]
            acc, local = out[lo:hi], term[:hi - lo]
            # Chunk c's scatter-reduce starts at device c and picks up each
            # downstream device's w_d * v_d in ring order; the all-gather
            # that follows only copies, so the sum lands in place.
            np.multiply(vecs[c][lo:hi], scales[c], out=acc)
            for d in range(c + 1, c + n):
                np.multiply(vecs[d % n][lo:hi], scales[d % n], out=local)
                np.add(local, acc, out=acc)
        return out

    # -- timing -----------------------------------------------------------
    def time_seconds(
        self,
        nbytes: int,
        topology: InterconnectTopology,
        *,
        n_streams: int = 0,
    ) -> AllReduceTiming:
        """Cost for ``nbytes``; ``n_streams=0`` uses the instance default."""
        streams = n_streams if n_streams >= 1 else self.n_streams
        n = topology.n_devices
        if n == 1:
            return AllReduceTiming(0.0, 0.0, 0.0, 0.0, rounds=0, n_streams=streams)
        rounds = 2 * (n - 1)
        # Each stream moves nbytes/streams, cut into n ring chunks.
        chunk_bytes = nbytes / (streams * n)
        chunk_elems = chunk_bytes / 4.0
        # Streams beyond n reuse links: bandwidth is shared.
        contention = max(1, math.ceil(streams / n))
        per_round_transfer = topology.transfer_time(
            chunk_bytes, concurrent_on_link=contention
        )
        per_round_reduce = topology.reduce_time(chunk_elems)
        latency = rounds * topology.link_latency_s
        transfer = rounds * (per_round_transfer - topology.link_latency_s)
        if streams > 1:
            # Multi-stream: the on-device reduce of one stream's chunk
            # overlaps with another stream's transfer — pay max, not sum.
            reduce_cost = max(
                0.0, (n - 1) * per_round_reduce - (n - 1) * per_round_transfer
            )
        else:
            reduce_cost = (n - 1) * per_round_reduce
        total = latency + transfer + reduce_cost
        return AllReduceTiming(
            total_s=total,
            transfer_s=transfer,
            reduce_s=reduce_cost,
            latency_s=latency,
            rounds=rounds,
            n_streams=streams,
        )
