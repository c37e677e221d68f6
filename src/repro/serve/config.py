"""ServingConfig: the one validated option surface for the serving stack.

Every way to build a serving engine — ``repro.api.make_engine``, the
``repro serve`` CLI, or constructing :class:`~repro.serve.engine.ServingEngine`
directly with keyword options — funnels through
:meth:`ServingConfig.from_options`. That makes this module the *single*
place where unknown options fail early with a
:class:`~repro.exceptions.ConfigurationError` listing what is accepted
(mirroring ``make_trainer``'s contract).

The dataclass owns four option families:

- **batching** — dispatch mode, the per-batch latency SLO and the adaptive
  sizer's bounds/gain (:class:`~repro.serve.queue.AdaptiveBatchSizer`);
- **scoring** — exact / LSH / auto plus the LSH index geometry the
  predictor is built with;
- **multi-tenancy** — priority classes with per-class SLOs
  (``class_slo_ms`` drives one sizer per class per device), tenant WFQ
  weights, and admission control (``max_queue_depth`` capacity cap +
  ``admission_utilization`` graded shedding gate), all executed by
  :class:`~repro.serve.queue.TenantScheduler`;
- **continuous learning** — the hot-swap protocol: poll cadence, canary
  probe size, the tolerated recall@k drop and latency factor that trigger
  automatic rollback;
- **elastic membership** — the cadence at which the engine polls a
  :class:`~repro.elastic.membership.ClusterMembership` for lifecycle
  events, and the queue-depth autoscaler that admits/retires workers
  through the same membership object (``autoscale`` + hysteresis
  thresholds).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.exceptions import ConfigurationError

__all__ = ["ServingConfig", "SERVE_MODES", "SCORING_MODES"]

SERVE_MODES = ("sequential", "adaptive")
SCORING_MODES = ("exact", "lsh", "auto")


@dataclass
class ServingConfig:
    """Validated options for one serving engine."""

    # -- batching ------------------------------------------------------------
    mode: str = "adaptive"
    #: Per-batch service-time SLO the adaptive sizer targets.
    target_latency_s: float = 2e-3
    b_min: int = 1
    b_max: int = 256
    beta: float = 0.5
    #: Dispatch size in ``sequential`` mode.
    fixed_batch_size: int = 1

    # -- scoring -------------------------------------------------------------
    scoring: str = "exact"
    #: Labels returned per query.
    k: int = 5
    lsh_tables: int = 24
    lsh_bits: int = 4
    lsh_probes: int = 1
    lsh_seed: int = 0
    #: Exact-path prediction chunk (rows per fused forward).
    chunk: int = 2048

    # -- admission control ---------------------------------------------------
    #: Queue-depth cap; arrivals beyond it are shed (counted, not silently
    #: queued). ``None`` keeps the unbounded legacy behaviour. Under
    #: pressure the scheduler sheds lowest-priority work first — see
    #: :class:`~repro.serve.queue.TenantScheduler`.
    max_queue_depth: Optional[int] = None
    #: Utilization threshold for graded load shedding: once estimated
    #: utilization reaches ``u + (1-u)(P-p)/P`` class ``p`` is shed at the
    #: door (class 0 never is). ``None`` disables the gate.
    admission_utilization: Optional[float] = None

    # -- multi-tenancy -------------------------------------------------------
    #: Number of priority classes (0 = most important). Auto-grown to cover
    #: the keys of ``class_slo_ms``.
    priority_classes: int = 1
    #: Per-class batch service-time SLO in **milliseconds**; classes without
    #: an entry fall back to ``target_latency_s``. Each class drives its own
    #: AdaptiveBatchSizer per device.
    class_slo_ms: Optional[Dict[int, float]] = None
    #: Tenant → WFQ weight (deficit-round-robin share within a class).
    #: Unlisted tenants weigh 1.0.
    tenant_weights: Optional[Dict[str, float]] = None
    #: DRR quantum: credits granted per rotation visit are
    #: ``wfq_quantum × weight``.
    wfq_quantum: float = 1.0

    # -- continuous learning (hot-swap) --------------------------------------
    #: Sim seconds between store polls by the swap manager.
    swap_check_every_s: float = 1e-3
    #: Probe queries for the post-swap recall canary.
    canary_queries: int = 64
    #: Max tolerated drop in labeled recall@k of the incoming version versus
    #: the outgoing one (measured host-side on a deterministic probe block;
    #: requires ``canary_labels`` at serve time). A larger drop triggers
    #: rollback. ``None`` disables the recall canary.
    canary_recall_drop: Optional[float] = 0.1
    #: Post-swap windowed p99 above ``factor × pre-swap p99`` triggers
    #: rollback. ``None`` disables the latency canary.
    canary_latency_factor: Optional[float] = None
    #: Completed requests needed on each side of a swap before the latency
    #: canary is trusted.
    canary_min_samples: int = 32

    # -- elastic membership ---------------------------------------------------
    #: Sim seconds between membership polls (lifecycle events + autoscaler
    #: decisions). Only consulted when a membership object is attached.
    membership_check_every_s: float = 1e-3
    #: Enable the queue-depth autoscaler: admit a device when the queue
    #: exceeds ``autoscale_high_depth``, retire the most recently
    #: autoscaler-admitted one when it falls to ``autoscale_low_depth``.
    autoscale: bool = False
    #: Queue depth at or above which the autoscaler admits one device.
    autoscale_high_depth: int = 64
    #: Queue depth at or below which the autoscaler retires one of its own
    #: admissions (never a baseline device).
    autoscale_low_depth: int = 4
    #: The autoscaler never retires below this many active devices.
    autoscale_min_devices: int = 1

    def __post_init__(self) -> None:
        if self.mode not in SERVE_MODES:
            raise ConfigurationError(
                f"mode must be one of {SERVE_MODES}, got {self.mode!r}"
            )
        if self.scoring not in SCORING_MODES:
            raise ConfigurationError(
                f"scoring must be one of {SCORING_MODES}, got {self.scoring!r}"
            )
        if not (self.target_latency_s > 0):
            raise ConfigurationError(
                f"target_latency_s must be > 0, got {self.target_latency_s}"
            )
        if not (1 <= self.b_min <= self.b_max):
            raise ConfigurationError(
                f"need 1 <= b_min <= b_max, got [{self.b_min}, {self.b_max}]"
            )
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be > 0, got {self.beta}")
        if self.fixed_batch_size < 1:
            raise ConfigurationError(
                f"fixed_batch_size must be >= 1, got {self.fixed_batch_size}"
            )
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        for name in ("lsh_tables", "lsh_bits", "lsh_probes", "chunk"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1 or None, "
                f"got {self.max_queue_depth}"
            )
        if self.admission_utilization is not None and not (
            0.0 < self.admission_utilization <= 1.0
        ):
            raise ConfigurationError(
                f"admission_utilization must be in (0, 1] or None, "
                f"got {self.admission_utilization}"
            )
        if self.priority_classes < 1:
            raise ConfigurationError(
                f"priority_classes must be >= 1, got {self.priority_classes}"
            )
        if self.class_slo_ms is not None:
            normalized = {}
            for key, slo in self.class_slo_ms.items():
                try:
                    cls_id = int(key)
                except (TypeError, ValueError):
                    raise ConfigurationError(
                        f"class_slo_ms keys must be class ints, got {key!r}"
                    )
                if cls_id < 0:
                    raise ConfigurationError(
                        f"class_slo_ms keys must be >= 0, got {cls_id}"
                    )
                if not (float(slo) > 0):
                    raise ConfigurationError(
                        f"class_slo_ms[{cls_id}] must be > 0, got {slo}"
                    )
                normalized[cls_id] = float(slo)
            self.class_slo_ms = normalized
            if normalized:
                self.priority_classes = max(
                    self.priority_classes, max(normalized) + 1
                )
        if self.tenant_weights is not None:
            for tenant, w in self.tenant_weights.items():
                if not (float(w) > 0):
                    raise ConfigurationError(
                        f"tenant_weights must be > 0, got {tenant!r}: {w}"
                    )
        if not (self.wfq_quantum > 0):
            raise ConfigurationError(
                f"wfq_quantum must be > 0, got {self.wfq_quantum}"
            )
        if not (self.swap_check_every_s > 0):
            raise ConfigurationError(
                f"swap_check_every_s must be > 0, got {self.swap_check_every_s}"
            )
        if self.canary_queries < 1:
            raise ConfigurationError(
                f"canary_queries must be >= 1, got {self.canary_queries}"
            )
        if self.canary_recall_drop is not None and not (
            0.0 <= self.canary_recall_drop < 1.0
        ):
            raise ConfigurationError(
                f"canary_recall_drop must be in [0, 1) or None, "
                f"got {self.canary_recall_drop}"
            )
        if self.canary_latency_factor is not None and not (
            self.canary_latency_factor > 1.0
        ):
            raise ConfigurationError(
                f"canary_latency_factor must be > 1 or None, "
                f"got {self.canary_latency_factor}"
            )
        if self.canary_min_samples < 1:
            raise ConfigurationError(
                f"canary_min_samples must be >= 1, "
                f"got {self.canary_min_samples}"
            )
        if not (self.membership_check_every_s > 0):
            raise ConfigurationError(
                f"membership_check_every_s must be > 0, "
                f"got {self.membership_check_every_s}"
            )
        if self.autoscale_low_depth < 0:
            raise ConfigurationError(
                f"autoscale_low_depth must be >= 0, "
                f"got {self.autoscale_low_depth}"
            )
        if self.autoscale_high_depth <= self.autoscale_low_depth:
            raise ConfigurationError(
                f"need autoscale_high_depth > autoscale_low_depth, got "
                f"[{self.autoscale_low_depth}, {self.autoscale_high_depth}]"
            )
        if self.autoscale_min_devices < 1:
            raise ConfigurationError(
                f"autoscale_min_devices must be >= 1, "
                f"got {self.autoscale_min_devices}"
            )

    @classmethod
    def option_names(cls) -> list:
        """Accepted keyword options, sorted (for error messages and docs)."""
        return sorted(f.name for f in fields(cls))

    @classmethod
    def from_options(cls, **options) -> "ServingConfig":
        """Build a config from keyword options — *the* validation layer.

        Rejects unknown options up front, before any engine or predictor
        is built.
        """
        if options.get("scoring") is None:
            options.pop("scoring", None)  # None means "unset", not a policy
        known = {f.name for f in fields(cls)}
        unknown = sorted(k for k in options if k not in known)
        if unknown:
            raise ConfigurationError(
                f"ServingConfig got unknown option(s) {unknown}; "
                f"accepted: {cls.option_names()}"
            )
        return cls(**options)

    @classmethod
    def resolve(cls, config, options: dict) -> "ServingConfig":
        """A prebuilt ``config``, or one built from ``options`` — not both."""
        if config is None:
            return cls.from_options(**options)
        if options:
            raise ConfigurationError(
                f"pass either config= or keyword options, not both "
                f"(got {sorted(options)})"
            )
        if not isinstance(config, cls):
            raise ConfigurationError(
                f"config must be a ServingConfig, got {type(config).__name__}"
            )
        return config

    def class_target_latency_s(self, priority_class: int) -> float:
        """The batch service-time SLO (seconds) one class's sizer targets."""
        if self.class_slo_ms and priority_class in self.class_slo_ms:
            return self.class_slo_ms[priority_class] / 1e3
        return self.target_latency_s
