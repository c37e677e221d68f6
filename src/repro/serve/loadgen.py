"""Open-loop load generation and the serving accounts.

Arrival processes are **open-loop**: request times are drawn up front from
the arrival model and do not react to server backpressure — the standard
methodology for latency benchmarking (a closed loop would hide queueing
delay by slowing the offered load exactly when the server struggles).

Two arrival patterns:

- ``poisson`` — exponential inter-arrival gaps at a constant rate (the
  memoryless baseline);
- ``burst`` — alternating hot/cold phases around the same average rate:
  bursts arrive at ``burst_factor ×`` the base rate for ``burst_fraction``
  of the time, with the cold phase slowed to compensate. This is the
  diurnal-peak shape the adaptive batch sizer must absorb.

Percentiles use the nearest-rank definition (the p-th percentile is an
actually-observed latency, never an interpolation). The accounting path
is vectorized for million-request runs: one sort serves every percentile
of a distribution (:func:`nearest_rank_percentiles`), and one lexsort
serves every per-tenant percentile at once
(:func:`grouped_nearest_rank_percentiles`) — the bench never loops over
requests in Python. :func:`tenant_accounts` builds the per-tenant and
per-class rows on them, for the live result and ``repro analyze`` alike.

Multi-tenant scenarios are described by a list of :class:`TenantLoad`
(one open-loop :class:`LoadSpec` per tenant plus its priority class);
:func:`generate_multi_tenant_arrivals` merges the per-tenant schedules
into one globally-sorted arrival array with aligned tenant/class arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RngFactory

__all__ = [
    "LoadSpec",
    "TenantLoad",
    "generate_arrivals",
    "generate_multi_tenant_arrivals",
    "NoisyNeighbor",
    "noisy_neighbor_loads",
    "service_time_s",
    "sample_query_rows",
    "nearest_rank_percentile",
    "nearest_rank_percentiles",
    "grouped_nearest_rank_percentiles",
    "tenant_accounts",
    "fairness_ratio",
]

ARRIVAL_PATTERNS = ("poisson", "burst")


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop load scenario."""

    n_requests: int
    rate_rps: float
    pattern: str = "poisson"
    #: Burst intensity: peak rate = ``burst_factor * rate_rps``.
    burst_factor: float = 4.0
    #: Fraction of requests arriving inside bursts.
    burst_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigurationError(
                f"n_requests must be >= 1, got {self.n_requests}"
            )
        if not 0 < self.rate_rps < np.inf:
            raise ConfigurationError(
                f"rate_rps must be finite and > 0, got {self.rate_rps}"
            )
        if self.pattern not in ARRIVAL_PATTERNS:
            raise ConfigurationError(
                f"pattern must be one of {ARRIVAL_PATTERNS}, got {self.pattern!r}"
            )
        if not 1.0 < self.burst_factor < np.inf:
            raise ConfigurationError(
                f"burst_factor must be finite and > 1, got {self.burst_factor}"
            )
        if not (0.0 < self.burst_fraction < 1.0):
            raise ConfigurationError(
                f"burst_fraction must be in (0, 1), got {self.burst_fraction}"
            )


def generate_arrivals(spec: LoadSpec) -> np.ndarray:
    """Absolute arrival times (seconds, ascending) for ``spec``."""
    rng = RngFactory(spec.seed).get("serve-arrivals", spec.pattern)
    n = spec.n_requests
    if spec.pattern == "poisson":
        gaps = rng.exponential(scale=1.0 / spec.rate_rps, size=n)
        return np.cumsum(gaps)

    # Burst: a burst_fraction share of requests arrives at the hot rate;
    # the cold rate is solved so the *overall* average stays rate_rps:
    #   n / rate = n_hot / rate_hot + n_cold / rate_cold.
    n_hot = max(1, int(round(n * spec.burst_fraction)))
    n_cold = n - n_hot
    rate_hot = spec.rate_rps * spec.burst_factor
    if n_cold > 0:
        cold_time = n / spec.rate_rps - n_hot / rate_hot
        rate_cold = n_cold / cold_time
    else:
        rate_cold = rate_hot
    # Interleave phases in ~4 burst episodes so the sizer sees transitions.
    episodes = min(4, n_hot)
    hot_sizes = np.full(episodes, n_hot // episodes, dtype=int)
    hot_sizes[: n_hot % episodes] += 1
    cold_sizes = np.full(episodes, n_cold // episodes, dtype=int)
    cold_sizes[: n_cold % episodes] += 1
    gaps: List[np.ndarray] = []
    for hot, cold in zip(hot_sizes, cold_sizes):
        if cold:
            gaps.append(rng.exponential(scale=1.0 / rate_cold, size=cold))
        if hot:
            gaps.append(rng.exponential(scale=1.0 / rate_hot, size=hot))
    return np.cumsum(np.concatenate(gaps))


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's slice of a multi-tenant scenario."""

    tenant: str
    spec: LoadSpec
    #: Priority class the tenant's requests are tagged with (0 = highest).
    priority_class: int = 0

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ConfigurationError("tenant name must be non-empty")
        if self.priority_class < 0:
            raise ConfigurationError(
                f"priority_class must be >= 0, got {self.priority_class}"
            )


def generate_multi_tenant_arrivals(
    loads: Sequence[TenantLoad],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge per-tenant open-loop schedules into one global arrival stream.

    Returns ``(times, tenants, classes)`` — aligned arrays sorted by
    arrival time (stable, so simultaneous arrivals keep the declared
    tenant order). Each tenant's arrivals come from its own
    :func:`generate_arrivals` draw, so a tenant's schedule is identical
    whether it runs solo or alongside neighbors — exactly what a
    noisy-neighbor comparison needs.
    """
    if not loads:
        raise ConfigurationError("need at least one TenantLoad")
    names = [ld.tenant for ld in loads]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate tenant names in {names}")
    per_tenant = [generate_arrivals(ld.spec) for ld in loads]
    times = np.concatenate(per_tenant)
    sizes = [arr.size for arr in per_tenant]
    # By reference: a request's entry is its tenant's one name string.
    tenants = np.repeat(np.array(names, dtype=object), sizes)
    classes = np.repeat(
        np.array([ld.priority_class for ld in loads], dtype=np.int64), sizes
    )
    order = np.argsort(times, kind="stable")
    return times[order], tenants[order], classes[order]


class NoisyNeighbor(NamedTuple):
    """The class-0 victim's load alone (``solo``) and merged with the
    class-1 aggressor's (``contended``), each ``(times, tenants, classes)``
    as :func:`generate_multi_tenant_arrivals` returns them, and the rates."""

    solo: Tuple[np.ndarray, np.ndarray, np.ndarray]
    contended: Tuple[np.ndarray, np.ndarray, np.ndarray]
    victim_rps: float
    aggressor_rps: float


def noisy_neighbor_loads(
    capacity_rps: float, n_victim: int, aggressor_factor: float,
    pattern: str, seed: int,
) -> NoisyNeighbor:
    """A victim at 0.3 x ``capacity_rps`` (seed ``seed``) and an aggressor
    at ``aggressor_factor`` x its fair share, half the capacity (seed
    ``seed + 1``), for as long as the victim's ``n_victim`` requests last."""
    victim_rps = 0.3 * capacity_rps
    aggressor_rps = aggressor_factor * (capacity_rps / 2.0)
    n_aggressor = max(1, int(aggressor_rps * (n_victim / victim_rps)))
    victim = TenantLoad(
        "victim", LoadSpec(n_victim, victim_rps, pattern, seed=seed))
    aggressor = TenantLoad("aggressor", LoadSpec(
        n_aggressor, aggressor_rps, pattern, seed=seed + 1), priority_class=1)
    return NoisyNeighbor(generate_multi_tenant_arrivals([victim]),
                         generate_multi_tenant_arrivals([victim, aggressor]),
                         victim_rps, aggressor_rps)


def service_time_s(predictor, server, X) -> float:
    """One query's modelled service time: ``X[:1]`` scored on device 0 of
    ``server`` with all its devices active (what a capacity is priced by)."""
    return server.gpus[0].cost_model.inference_time(
        predictor.workload(X[:1]), n_active_gpus=server.n_gpus)


def sample_query_rows(
    n_rows: int, n_requests: int, *, seed: int = 0
) -> np.ndarray:
    """Row indices (with replacement) mapping requests to dataset samples."""
    if n_rows < 1:
        raise ConfigurationError(f"n_rows must be >= 1, got {n_rows}")
    rng = RngFactory(seed).get("serve-queries")
    return rng.integers(0, n_rows, size=n_requests)


def nearest_rank_percentile(
    values: Sequence[float], percentile: float
) -> float:
    """Nearest-rank percentile: the ceil(p·n)-th smallest observed value."""
    return float(nearest_rank_percentiles(values, (percentile,))[0])


def nearest_rank_percentiles(
    values: Sequence[float], percentiles: Sequence[float]
) -> np.ndarray:
    """All requested nearest-rank percentiles from **one** sort:
    O(n log n + len(ps)), the bulk path million-request reports go through.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ConfigurationError("percentile of an empty sample")
    ps = np.asarray(percentiles, dtype=np.float64)
    if ps.size and (ps.min() <= 0.0 or ps.max() > 100.0):
        raise ConfigurationError(
            f"percentiles must be in (0, 100], got {percentiles}"
        )
    ranks = np.ceil(ps / 100.0 * arr.size).astype(np.int64)
    return arr[np.maximum(ranks, 1) - 1]


def grouped_nearest_rank_percentiles(
    group_codes: np.ndarray,
    values: np.ndarray,
    percentiles: Sequence[float],
    n_groups: int,
) -> np.ndarray:
    """Nearest-rank percentiles per group from **one** lexsort.

    ``group_codes`` holds ints in ``[0, n_groups)`` aligned with
    ``values``; returns an ``(n_groups, len(percentiles))`` array whose
    row ``g`` matches ``nearest_rank_percentiles(values[codes == g], ps)``.
    Empty groups yield NaN rows. This is the vectorized per-tenant
    accounting path: no Python loop over requests, one sort total.
    """
    codes = np.asarray(group_codes, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    if codes.shape != vals.shape:
        raise ConfigurationError(
            f"group_codes {codes.shape} and values {vals.shape} must align"
        )
    if n_groups < 1:
        raise ConfigurationError(f"n_groups must be >= 1, got {n_groups}")
    if codes.size and (codes.min() < 0 or codes.max() >= n_groups):
        raise ConfigurationError("group code outside [0, n_groups)")
    ps = np.asarray(percentiles, dtype=np.float64)
    if ps.size and (ps.min() <= 0.0 or ps.max() > 100.0):
        raise ConfigurationError(
            f"percentiles must be in (0, 100], got {percentiles}"
        )
    order = np.lexsort((vals, codes))
    sorted_codes = codes[order]
    sorted_vals = vals[order]
    group_ids = np.arange(n_groups, dtype=np.int64)
    starts = np.searchsorted(sorted_codes, group_ids, side="left")
    ends = np.searchsorted(sorted_codes, group_ids, side="right")
    sizes = ends - starts  # (n_groups,)
    ranks = np.ceil(ps[None, :] / 100.0 * sizes[:, None]).astype(np.int64)
    idx = starts[:, None] + np.maximum(ranks, 1) - 1
    out = np.full((n_groups, ps.size), np.nan)
    nonempty = sizes > 0
    out[nonempty] = sorted_vals[
        np.minimum(idx[nonempty], (ends[:, None] - 1)[nonempty])
    ]
    return out


def tenant_accounts(
    requests, latencies_s: np.ndarray, window_s: float
) -> Tuple[Dict[str, dict], Dict[int, dict], Optional[float]]:
    """Per-tenant rows, per-class rows and the fairness ratio of one run.

    ``requests`` is the run's request table, live
    (:class:`~repro.serve.queue.RunRequests`) or recorded
    (:class:`~repro.telemetry.events.RequestTable`); ``latencies_s`` holds
    its completed rows' (``shed`` code 0) latencies in row order, and a
    shed row counts toward its tenant's and class's ``n_shed``. Tenant rows
    come out in ``tenant_names`` order (sorted), class rows by class, and a
    tenant or class with no completions has no latency or throughput keys;
    throughput is completions over ``window_s``. The live result and
    ``repro analyze`` both call this.
    """
    names = requests.tenant_names
    served = np.asarray(requests.shed) == 0
    (codes, shed_codes), (classes, shed_classes) = (
        (column[served], column[~served]) for column in (
            np.asarray(getattr(requests, name), dtype=np.int64)
            for name in ("tenant", "priority")))
    lats = np.asarray(latencies_s, dtype=np.float64)
    if lats.shape != codes.shape:
        raise ConfigurationError(
            f"{lats.size} latencies for {codes.size} completed requests"
        )
    n_classes = 1 + max(classes.max(initial=0), shed_classes.max(initial=0))
    shed_by_tenant = np.bincount(shed_codes, minlength=len(names))
    shed_by_class = np.bincount(shed_classes, minlength=n_classes)
    pcts = grouped_nearest_rank_percentiles(
        codes, lats, (50.0, 95.0, 99.0), len(names)
    )
    counts = np.bincount(codes, minlength=len(names))
    has_class = np.zeros((len(names), n_classes), bool)
    has_class[codes, classes] = True
    tenants: Dict[str, dict] = {}
    for g, name in enumerate(names):
        row = {"completed": int(counts[g])}
        if counts[g]:
            row["throughput_rps"] = (
                float(counts[g] / window_s) if window_s > 0 else 0.0
            )
            row["latency_p50_ms"] = float(pcts[g, 0]) * 1e3
            row["latency_p95_ms"] = float(pcts[g, 1]) * 1e3
            row["latency_p99_ms"] = float(pcts[g, 2]) * 1e3
        row["n_shed"] = int(shed_by_tenant[g])
        if counts[g]:
            row["priority_classes"] = np.flatnonzero(has_class[g]).tolist()
        tenants[name] = row
    class_p99 = grouped_nearest_rank_percentiles(
        classes, lats, (99.0,), n_classes
    )
    class_counts = np.bincount(classes, minlength=n_classes)
    per_class: Dict[int, dict] = {}
    for c in range(n_classes):
        n_class, n_class_shed = int(class_counts[c]), shed_by_class[c]
        if not n_class and not n_class_shed:
            continue
        row = {"completed": n_class}
        if n_class:
            row["latency_p99_ms"] = float(class_p99[c, 0]) * 1e3
        row["n_shed"] = int(n_class_shed)
        per_class[c] = row
    return tenants, per_class, fairness_ratio(tenants)


def fairness_ratio(stats: Mapping[str, dict]) -> Optional[float]:
    """Max/min tenant throughput (1.0 = perfectly fair).

    A row without ``throughput_rps`` (no completions) counts as zero.
    ``None`` for fewer than two tenants or when none completed work,
    ``inf`` when a tenant was starved while another completed work.
    """
    if len(stats) < 2:
        return None
    shares = [entry.get("throughput_rps", 0.0) for entry in stats.values()]
    lo, hi = min(shares), max(shares)
    if hi == 0.0:
        return None
    if lo == 0.0:
        return float("inf")
    return float(hi / lo)
