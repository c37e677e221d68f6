"""Collective communication substrate (single-server, NCCL-free).

- :mod:`repro.comm.topology` — (α, β) link model for the PCIe/NVLink server.
- :mod:`repro.comm.allreduce` — weighted all-reduce interface + validation.
- :mod:`repro.comm.ring` — multi-stream ring (HeteroGPU's production merge).
- :mod:`repro.comm.tree` — binary-tree comparator.
- :mod:`repro.comm.halving_doubling` — recursive halving-doubling (extra).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "allreduce": "AllReduceAlgorithm AllReduceTiming validate_operands",
    "halving_doubling": "HalvingDoublingAllReduce",
    "ring": "RingAllReduce",
    "topology": "InterconnectTopology",
    "tree": "TreeAllReduce",
})
