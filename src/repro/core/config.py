"""Hyperparameter configuration for Adaptive SGD (and its derivations).

§V-A fixes how every knob is derived, and this module encodes those rules so
experiments only choose ``b_max`` and the base learning rate:

- "The initial batch size — set to ``b_max`` — is chosen such that the GPU
  memory (and utilization) are maximized."
- "``b_min`` is set to a value 8 times smaller than ``b_max``" —
  :attr:`AdaptiveSGDConfig.b_min` defaults to ``b_max // 8``.
- "the batch size scaling parameter ``β`` to half of ``b_min``".
- "The learning rates for the other batch sizes are determined based on the
  linear scaling rule" — :func:`linear_scaled_lr`.
- Mega-batch: "the size of 100 batches" (of ``b_max``).
- Merge constants: ``γ = 0.9`` (momentum), ``δ = 0.1`` (perturbation factor),
  ``pert_thr = 0.1`` (L2-norm-per-parameter threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive, check_probability

__all__ = ["AdaptiveSGDConfig"]


@dataclass
class AdaptiveSGDConfig:
    """Full hyperparameter set of the Adaptive SGD algorithm.

    Only ``b_max`` and ``base_lr`` are mandatory; everything else follows
    the paper's derivation rules when left at ``None``/default.
    """

    #: Maximum (and initial) per-GPU batch size — sized to fill GPU memory.
    b_max: int = 256
    #: Learning rate tuned for ``b_max`` (grid powers of 10 in the paper).
    base_lr: float = 0.1
    #: Minimum batch size; default ``b_max // 8`` (paper rule).
    b_min: Optional[int] = None
    #: Batch-size scaling step; default ``b_min / 2`` (paper rule).
    beta: Optional[float] = None
    #: Mega-batch expressed in batches of ``b_max``; paper uses 100.
    mega_batch_batches: int = 100
    #: Merge momentum γ (paper: 0.9 "according to the literature").
    gamma: float = 0.9
    #: Perturbation factor δ (paper default 0.1).
    delta: float = 0.1
    #: Regularization threshold on L2-norm-per-parameter (paper default 0.1).
    pert_thr: float = 0.1
    #: Enable Algorithm 1 (ablations switch this off).
    enable_batch_scaling: bool = True
    #: Enable Algorithm 2's perturbation (ablations switch this off).
    enable_perturbation: bool = True
    #: Renormalize the perturbed weights back to sum 1. The paper-literal
    #: pseudocode leaves them denormalized and relies on the regularization
    #: gate to bound the impact; at this reproduction's small model
    #: dimensionality that gate never closes, so the inflation compounds —
    #: see :func:`repro.core.merging.compute_merge_weights`. Default True;
    #: set False for the paper-literal behavior (ablated in the benches).
    renormalize_perturbation: bool = True
    #: Merge-weight rule: "paper" (u_i, or b_i when update counts tie),
    #: "updates_times_batch" (the §III-B late-stage alternative), or
    #: "uniform" (plain elastic averaging — used for ablation).
    merge_weighting: str = "paper"

    def __post_init__(self) -> None:
        check_positive("b_max", self.b_max)
        check_positive("base_lr", self.base_lr)
        check_positive("mega_batch_batches", self.mega_batch_batches)
        check_probability("gamma", self.gamma)
        check_probability("delta", self.delta)
        check_positive("pert_thr", self.pert_thr)
        if self.b_min is None:
            self.b_min = max(1, self.b_max // 8)
        if self.b_min < 1 or self.b_min > self.b_max:
            raise ConfigurationError(
                f"b_min must be in [1, b_max={self.b_max}], got {self.b_min}"
            )
        if self.beta is None:
            self.beta = max(1.0, self.b_min / 2.0)
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be > 0, got {self.beta}")
        if self.merge_weighting not in ("paper", "updates_times_batch", "uniform"):
            raise ConfigurationError(
                f"unknown merge_weighting {self.merge_weighting!r}"
            )

    @property
    def mega_batch_size(self) -> int:
        """Mega-batch sample budget: ``mega_batch_batches × b_max``."""
        return self.mega_batch_batches * self.b_max

    @classmethod
    def for_server(
        cls,
        server,
        layer_dims: Sequence[int],
        avg_nnz_per_sample: float,
        *,
        base_lr: float = 0.1,
        utilization: float = 0.9,
        cap: Optional[int] = None,
        **overrides,
    ) -> "AdaptiveSGDConfig":
        """Derive ``b_max`` from device memory, as the paper does (§V-A).

        "The initial batch size — set to b_max — is chosen such that the GPU
        memory (and utilization) are maximized." The memory-limited batch is
        computed per device (:meth:`repro.gpu.device.VirtualGPU
        .max_batch_size`) and the *smallest* across the server is taken so
        every GPU can hold a ``b_max`` batch; ``utilization`` leaves
        headroom. For models far smaller than device memory the limit is
        astronomically large — pass ``cap`` (e.g. a fraction of the training
        set) to bound it. Everything else follows the standard derivation
        rules unless overridden.
        """
        if not (0.0 < utilization <= 1.0):
            raise ConfigurationError(
                f"utilization must be in (0, 1], got {utilization}"
            )
        dims = tuple(int(d) for d in layer_dims)
        n_params = sum(
            dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1)
        )
        model_bytes = 4 * n_params
        per_gpu = [
            gpu.max_batch_size(dims, model_bytes, avg_nnz_per_sample)
            for gpu in server.gpus
        ]
        b_max = max(1, int(min(per_gpu) * utilization))
        if cap is not None:
            b_max = min(b_max, int(cap))
        return cls(b_max=b_max, base_lr=base_lr, **overrides)
