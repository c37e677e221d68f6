"""ServingConfig: the one validated option surface for the serving stack.

Every way to build a serving engine — ``repro.api.make_engine``, the
``repro serve`` CLI, or constructing :class:`~repro.serve.engine.ServingEngine`
directly with keyword options — funnels through
:meth:`ServingConfig.from_options`. That makes this module the *single*
place where unknown options fail early with a
:class:`~repro.exceptions.ConfigurationError` listing what is accepted
(mirroring ``make_trainer``'s contract).

Every option has a caller outside the tests (DESIGN.md "Options"); the
rest of the serving stack's numbers are constants where they are used:

- **batching** — dispatch mode and the per-batch latency SLO the adaptive
  sizer targets (its bounds and gain are
  :class:`~repro.serve.queue.AdaptiveBatchSizer` constants);
- **scoring** — exact / LSH / auto and the LSH index seed;
- **multi-tenancy** — per-class SLOs (``class_slo_ms`` drives one sizer per
  class per device and sets :attr:`ServingConfig.priority_classes`) and
  admission control (``max_queue_depth`` capacity cap +
  ``admission_utilization`` graded shedding gate), both executed by
  :class:`~repro.serve.queue.TenantScheduler`;
- **continuous learning** — the opt-in latency canary
  (``canary_latency_factor``); poll cadence and the recall canary are
  :mod:`repro.serve.swap` constants;
- **elastic membership** — ``autoscale`` switches on the queue-depth
  autoscaler (:mod:`repro.serve.autoscale`, thresholds are constants there).
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

    # -- scoring -------------------------------------------------------------
    scoring: str = "exact"
    lsh_seed: int = 0

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
    #: Per-class batch service-time SLO in **milliseconds**; classes without
    #: an entry fall back to ``target_latency_s``. Each class drives its own
    #: AdaptiveBatchSizer per device.
    class_slo_ms: Optional[Dict[int, float]] = None

    # -- continuous learning (hot-swap) --------------------------------------
    #: Post-swap windowed p99 above ``factor × pre-swap p99`` triggers
    #: rollback. ``None`` disables the latency canary.
    canary_latency_factor: Optional[float] = None

    # -- elastic membership ---------------------------------------------------
    #: Enable the queue-depth autoscaler (:mod:`repro.serve.autoscale`).
    autoscale: bool = False

    def __post_init__(self) -> None:
        if self.mode not in SERVE_MODES:
            raise ConfigurationError(
                f"mode must be one of {SERVE_MODES}, got {self.mode!r}"
            )
        if self.scoring not in SCORING_MODES:
            raise ConfigurationError(
                f"scoring must be one of {SCORING_MODES}, got {self.scoring!r}"
            )
        if not 0 < self.target_latency_s < float("inf"):
            raise ConfigurationError(
                f"target_latency_s must be finite and > 0, "
                f"got {self.target_latency_s}"
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
                if not 0 < float(slo) < float("inf"):
                    raise ConfigurationError(
                        f"class_slo_ms[{cls_id}] must be finite and > 0, "
                        f"got {slo}"
                    )
                normalized[cls_id] = float(slo)
            self.class_slo_ms = normalized
        if self.canary_latency_factor is not None and not (
            self.canary_latency_factor > 1.0
        ):
            raise ConfigurationError(
                f"canary_latency_factor must be > 1 or None, "
                f"got {self.canary_latency_factor}"
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

    @property
    def priority_classes(self) -> int:
        """Priority classes (0 = most important): enough to cover the keys
        of ``class_slo_ms``, else one."""
        return 1 + max(self.class_slo_ms) if self.class_slo_ms else 1

    def class_target_latency_s(self, priority_class: int) -> float:
        """The batch service-time SLO (seconds) one class's sizer targets."""
        if self.class_slo_ms and priority_class in self.class_slo_ms:
            return self.class_slo_ms[priority_class] / 1e3
        return self.target_latency_s
