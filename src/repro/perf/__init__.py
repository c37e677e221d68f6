"""The fused hot-path execution engine.

This package is the reproduction's analogue of HeteroGPU's kernel-fusion
layer (§IV): the paper's system wins not only through adaptive scheduling
but because per-batch constant costs — kernel launches, gather/scatter
bookkeeping, library dispatch — are cut wherever they were measured. That
matters *more* under Algorithm 1 than under static SGD, because adaptive
batch scaling deliberately shrinks batch sizes on slow devices, so fixed
per-batch overheads are paid more often per epoch. Host allocation was not
one of them: every kernel here returns fresh arrays (DESIGN.md §6).

Components:

- :mod:`repro.perf.gather` — the one sparse type (:class:`CSR`) on scipy's
  compiled kernels: row gather (:class:`RowGatherer`), zero-copy row slices
  and the step's direct sparse products ``spmm_into`` (``X @ W``) and
  ``spmm_t_into`` (``X.T @ delta``);
- :mod:`repro.perf.slide_kernel` — the vectorized chunked SLIDE kernel
  (:func:`slide_chunk_step`) replacing the per-sample Python loop;
- :mod:`repro.perf.lsh_topk` — the batched multi-probe LSH inference
  pipeline (:func:`lsh_topk`: the index's CSR candidates → flat
  gather-dot → segmented top-k) behind ``Predictor.topk_lsh``; its
  gather-dot is also the SLIDE kernel's sparse-logits path.

Every kernel here is numerically equivalent to a per-row or allocating
oracle kept in ``tests/`` (bit-for-bit for gather/forward/backward and
the LSH top-k; fp32 tolerance for the SLIDE chunk, which batches the
sampled softmax) — enforced by ``tests/test_perf_*``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "profile": "KernelProfile",
    "gather": "RowGatherer",
    "lsh_topk": "lsh_topk",
    "slide_kernel": "slide_chunk_step",
})
