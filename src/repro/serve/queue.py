"""Request coalescing: tenant-aware scheduling and the adaptive batch sizer.

:class:`TenantScheduler` is the multi-tenant scheduler the engine
dispatches from: strict priority tiers, round-robin among the tenants of a
tier, and admission control that sheds the lowest-priority work first (its
docstring has the rules).

The engine's dispatch rule is Clipper-style adaptive micro-batching driven
by the paper's Algorithm-1 update shape. Each priority class on each
device owns an :class:`AdaptiveBatchSizer` holding a real-valued
batch-size cap ``b`` in ``[B_MIN, B_MAX]``; after every batch it executes
the linear rule

    ``b ← b + β · b · (target − observed) / target``,  ``β = BETA``

where ``observed`` is the batch's *service* time (dispatch → completion)
and ``target`` is the per-batch latency SLO. Batches finishing under the
SLO grow the cap (more coalescing amortizes the fixed kernel-launch +
dispatch overhead); batches running over shrink it. Mirroring
:mod:`repro.core.scaling`, the bound check runs on the real-valued
proposal, the accepted value is rounded to the nearest integer for use,
and the real value is retained so sub-integer progress accumulates.

Observing service time — not queueing delay — keeps the feedback loop
stable: a backlog inflates queueing delay through no fault of the batch
size, and reacting to it would shrink batches exactly when the queue needs
draining (the classic micro-batching death spiral). Queue pressure instead
enters through the dispatch size ``min(cap, queue depth)``: the sizer sets
the ceiling, the queue sets the demand.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["RunRequests", "TenantScheduler", "AdaptiveBatchSizer"]

#: Tenant name used when a workload does not specify one.
DEFAULT_TENANT = "default"

#: The adaptive sizer's cap bounds and gain (its first cap is ``B_MIN``).
B_MIN = 1
B_MAX = 256
BETA = 0.5

#: ``RunRequests.shed`` codes of ``telemetry.events.SHED_REASONS`` (0: not
#: shed; the rules are in :class:`TenantScheduler`).
CAPACITY, UTILIZATION, DISPLACED = 1, 2, 3


class RunRequests:
    """Every request of one serving run, a column per field, by ``req_id``.

    A request id is its position in the non-decreasing ``arrival`` array.
    Stamps are arrays (NaN or -1: not served) and ``shed`` a
    ``telemetry.events.SHED_REASONS`` code. What the scheduler reads per
    request are lists of small ints (DESIGN.md §9): ``tenant`` indexes the
    sorted ``tenant_names`` (codes compare as names do), ``priority`` is
    the class (0 most important; checked against ``[0, n_classes)`` here,
    once per run, so admission need not) and ``version`` the model version
    the request was admitted under, the only one that may score it.
    """

    def __init__(
        self,
        rows: np.ndarray,
        arrival: np.ndarray,
        tenants: Optional[Sequence[str]],
        priority: Optional[Sequence[int]],
        n_classes: int,
    ) -> None:
        n = arrival.size
        self.row = rows
        self.arrival = arrival
        self.dispatch = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.device = np.full(n, -1, dtype=np.int32)
        self.served_version = np.full(n, -1, dtype=np.int64)
        self.shed = np.zeros(n, dtype=np.int8)
        self.version: List[Optional[int]] = [None] * n
        self.priority = [0] * n
        if priority is not None:
            classes = np.asarray(priority, dtype=np.int64)
            if ((classes < 0) | (classes >= n_classes)).any():
                raise ConfigurationError(
                    f"priority classes must be in [0, {n_classes}); "
                    f"got range [{classes.min()}, {classes.max()}]"
                )
            self.priority = classes.tolist()
        if tenants is None:
            self.tenant_names = [DEFAULT_TENANT]
            self.tenant = [0] * n
        else:
            self.tenant_names = sorted(set(tenants))
            code = {name: c for c, name in enumerate(self.tenant_names)}
            self.tenant = [code[name] for name in tenants]


@dataclass
class _Tier:
    """Per-priority-class scheduling state: tenant queues + their rotation."""

    queues: Dict[int, Deque[int]] = field(default_factory=dict)
    #: Round-robin rotation of tenants with (possibly lazily-empty) queues.
    active: Deque[int] = field(default_factory=deque)
    in_active: Set[int] = field(default_factory=set)
    depth: int = 0


class TenantScheduler:
    """Multi-tenant request scheduler: priority tiers over round-robin.

    It queues ids of the run's :class:`RunRequests`. Dispatch order
    (:meth:`pop_batch`):

    1. pick the highest-priority (lowest-numbered) class with queued work —
       strict priority, re-evaluated at every dispatch;
    2. within that class, serve tenants round-robin: a visit pops the head
       tenant's oldest request and rotates. Backlogged tenants therefore
       share a class equally regardless of how fast each one pushes;
    3. a batch never crosses a model-version boundary (hot-swap pinning)
       and never mixes priority classes (each class has its own SLO and
       sizer), but freely mixes tenants of the same class.

    Admission (:meth:`admit`, a cohort; :meth:`push`, one arrival) sheds
    lowest-priority work first:

    - with ``admission_utilization`` = ``u`` set, class ``p > 0`` is shed at
      the door once estimated utilization (busy device-time / elapsed
      capacity, via :meth:`observe_busy`) reaches
      ``u + (1 - u) * (P - p) / P`` where ``P`` is the worst class — a
      graded gate, strictly laxer for more important classes, and never
      applied to class 0;
    - with ``max_depth`` reached, the arrival is weighed against the worst
      (numerically largest) class currently queued: a strictly more
      important arrival *displaces* the newest request of that class's
      deepest tenant; a same-class arrival displaces only when some other
      tenant in the class holds strictly more queued work than its own
      (so a lone tenant degenerates to plain FIFO shed-at-door semantics,
      and a flooding tenant can never displace a light one);
      otherwise the arrival itself is shed.

    ``push`` returns the shed id (the arrival or the displaced victim),
    its reason code written to ``requests.shed``, or ``None`` on a clean
    admit — the caller owns any per-version pin bookkeeping for displaced
    requests.
    """

    def __init__(
        self,
        requests: RunRequests,
        *,
        n_priority_classes: int = 1,
        max_depth: Optional[int] = None,
        admission_utilization: Optional[float] = None,
        n_devices: int = 1,
    ) -> None:
        if n_priority_classes < 1:
            raise ConfigurationError(
                f"n_priority_classes must be >= 1, got {n_priority_classes}"
            )
        if max_depth is not None and max_depth < 1:
            raise ConfigurationError(
                f"max_depth must be >= 1 or None, got {max_depth}"
            )
        if admission_utilization is not None and not (
            0.0 < admission_utilization <= 1.0
        ):
            raise ConfigurationError(
                f"admission_utilization must be in (0, 1] or None, "
                f"got {admission_utilization}"
            )
        if n_devices < 1:
            raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
        self.requests = requests
        self.n_classes = int(n_priority_classes)
        self._limit = max_depth
        self._util_threshold = admission_utilization
        self._n_devices = int(n_devices)
        self._tiers = [_Tier() for _ in range(self.n_classes)]
        self._depth = 0
        self._max_depth = 0
        self._busy_s = 0.0

    # -- load estimate -------------------------------------------------------

    def observe_busy(self, service_s: float) -> None:
        """Account completed busy device-time (feeds the utilization gate)."""
        if service_s < 0:
            raise ConfigurationError(
                f"service_s must be >= 0, got {service_s}"
            )
        self._busy_s += float(service_s)

    def utilization(self, now: float) -> float:
        """Fraction of elapsed cluster capacity spent busy, in [0, 1]."""
        if now <= 0.0:
            return 0.0
        return min(1.0, self._busy_s / (self._n_devices * now))

    def set_n_devices(self, n_devices: int) -> None:
        """Track elastic membership: the capacity the utilization gate
        divides by follows the *active* device count."""
        if n_devices < 1:
            raise ConfigurationError(f"n_devices must be >= 1, got {n_devices}")
        self._n_devices = int(n_devices)

    def shed_gate(self, priority_class: int) -> Optional[float]:
        """Utilization at which ``priority_class`` is shed (None = never)."""
        if self._util_threshold is None or priority_class <= 0:
            return None
        worst = self.n_classes - 1
        u = self._util_threshold
        return u + (1.0 - u) * (worst - priority_class) / worst

    # -- admission -----------------------------------------------------------

    def admit(self, start: int, stop: int, arrivals: list) -> list:
        """Admit the cohort ``start..stop-1`` in order, ``arrivals`` its
        times; returns the id each shed removed (an arrival or a victim).

        The longest prefix no rule can shed (ungated arrivals while the
        depth stays under the limit) is queued in bulk, one extend per run
        of consecutive arrivals bound for one (class, tenant) queue; from
        the first arrival that could be shed on, each goes through
        :meth:`push`.
        """
        requests = self.requests
        priority, tenant = requests.priority, requests.tenant
        bulk = stop if self._limit is None else min(
            stop, start + self._limit - self._depth
        )
        if self._util_threshold is not None:
            bulk = next((i for i in range(start, bulk) if priority[i]), bulk)
        if bulk > start and self.n_classes == len(requests.tenant_names) == 1:
            self._admit(start, bulk, 0, 0)  # one queue: one extend
        else:
            i = start
            while i < bulk:
                p, t, j = priority[i], tenant[i], i + 1
                while j < bulk and tenant[j] == t and priority[j] == p:
                    j += 1
                self._admit(i, j, p, t)
                i = j
        sheds = []
        for i in range(bulk, stop):
            shed = self.push(i, now=arrivals[i - start])
            if shed is not None:
                sheds.append(shed)
        return sheds

    def push(self, req_id: int, *, now: float = 0.0) -> Optional[int]:
        """Admit one arrival; returns the shed id, if any, else None."""
        p = self.requests.priority[req_id]
        tenant = self.requests.tenant[req_id]
        gated = p > 0 and self._util_threshold is not None  # else no gate
        if gated and self.utilization(now) >= self.shed_gate(p):
            return self._shed_id(req_id, UTILIZATION)
        if self._limit is not None and self._depth >= self._limit:
            victim = self._capacity_victim(p, tenant)
            if victim is None:
                return self._shed_id(req_id, CAPACITY)
            victim_p, victim_tenant = victim
            tier = self._tiers[victim_p]
            victim_id = tier.queues[victim_tenant].pop()
            tier.depth -= 1
            self._depth -= 1
            # An emptied queue stays in the rotation; pop_batch skips and
            # retires it lazily.
            self._admit(req_id, req_id + 1, p, tenant)
            return self._shed_id(victim_id, DISPLACED)
        self._admit(req_id, req_id + 1, p, tenant)
        return None

    def _shed_id(self, req_id: int, reason: int) -> int:
        self.requests.shed[req_id] = reason
        return req_id

    def _capacity_victim(self, p: int, tenant: int) -> Optional[tuple]:
        """The ``(class, tenant)`` queue a full scheduler takes its newest
        request from for an arrival of class ``p``; None sheds the arrival."""
        worst_p = max(q for q, t in enumerate(self._tiers) if t.depth > 0)
        if p > worst_p:
            return None
        tier = self._tiers[worst_p]
        # Deepest tenant queue in the worst class; the code (sorted-name
        # order) breaks ties, so dict insertion order never decides.
        victim_tenant = max(
            (t for t, q in tier.queues.items() if q),
            key=lambda t: (len(tier.queues[t]), t),
        )
        if p == worst_p:
            own = len(tier.queues.get(tenant, ()))
            if len(tier.queues[victim_tenant]) <= own:
                return None
        return worst_p, victim_tenant

    def _admit(self, start: int, stop: int, p: int, tenant: int) -> None:
        """Queue ids ``start..stop-1`` on one (class, tenant) queue."""
        tier = self._tiers[p]
        q = tier.queues.get(tenant)
        if q is None:
            q = tier.queues[tenant] = deque()
        if tenant not in tier.in_active:
            tier.active.append(tenant)
            tier.in_active.add(tenant)
        q.extend(range(start, stop))
        tier.depth += stop - start
        depth = self._depth = self._depth + stop - start
        if depth > self._max_depth:
            self._max_depth = depth

    # -- dispatch ------------------------------------------------------------

    def next_class(self) -> Optional[int]:
        """Highest-priority class with queued work (what pop_batch serves)."""
        for p, tier in enumerate(self._tiers):
            if tier.depth > 0:
                return p
        return None

    def pop_batch(self, max_size: int) -> List[int]:
        """Dequeue up to ``max_size`` request ids via priority + round-robin.

        The batch is single-class, single-version (stops at a hot-swap
        boundary), and non-empty whenever work is queued — the scheduler
        is work-conserving. A class with one tenant in its rotation pops
        that queue's head run at once, which is the same batch.
        """
        if max_size < 1:
            raise ConfigurationError(f"max_size must be >= 1, got {max_size}")
        p = self.next_class()
        if p is None:
            return []
        tier = self._tiers[p]
        queues, active = tier.queues, tier.active
        version_of = self.requests.version
        room = min(max_size, tier.depth)
        if len(active) == 1:  # a lone tenant: its queue's head run
            q = queues[active[0]]
            version = version_of[q[0]]
            batch = []
            for _ in range(room):
                if version_of[q[0]] != version:
                    break  # at a version boundary
                batch.append(q.popleft())
            if not q:
                self._retire_head(tier)
        else:
            batch: List[int] = []
            version = None
            while len(batch) < room:
                tenant = active[0]
                q = queues.get(tenant)
                if not q:
                    self._retire_head(tier)
                    continue
                head = q[0]
                if not batch:
                    version = version_of[head]
                elif version_of[head] != version:
                    break  # without rotating: this tenant opens the next batch
                batch.append(q.popleft())
                if not q:
                    self._retire_head(tier)
                else:
                    active.rotate(-1)
        tier.depth -= len(batch)
        self._depth -= len(batch)
        return batch

    @staticmethod
    def _retire_head(tier: _Tier) -> None:
        tier.in_active.discard(tier.active.popleft())

    # -- accounting ----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently queued across all classes and tenants."""
        return self._depth

    @property
    def max_depth(self) -> int:
        """High-water mark of the total queue depth."""
        return self._max_depth


class AdaptiveBatchSizer:
    """Latency-targeting linear batch-size controller (one per device)."""

    def __init__(self, *, target_latency_s: float = 1e-3) -> None:
        if not 0 < target_latency_s < float("inf"):
            raise ConfigurationError(
                f"target_latency_s must be finite and > 0, "
                f"got {target_latency_s}"
            )
        self.target_latency_s = float(target_latency_s)
        #: Real-valued cap (the paper's update is real; rounding is per-use).
        self._b = float(B_MIN)

    @property
    def cap(self) -> int:
        """Current integer batch-size ceiling for the next dispatch."""
        return min(max(int(round(self._b)), B_MIN), B_MAX)

    def observe(self, batch_size: int, service_time_s: float) -> int:
        """Feed back one completed batch; returns the new cap.

        ``service_time_s`` is the batch's dispatch → completion time. The
        proposal is evaluated real-valued against the bounds and clamped,
        exactly as Algorithm 1 does for training batch sizes.
        """
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if service_time_s < 0:
            raise ConfigurationError(
                f"service_time_s must be >= 0, got {service_time_s}"
            )
        error = (self.target_latency_s - service_time_s) / self.target_latency_s
        proposal = self._b + BETA * self._b * error
        self._b = min(max(proposal, float(B_MIN)), float(B_MAX))
        return self.cap
