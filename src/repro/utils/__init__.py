"""Shared utilities: deterministic RNG streams, validation, tables.

Submodules
----------
- :mod:`repro.utils.rng` — keyed, reproducible random streams.
- :mod:`repro.utils.validation` — one-line argument checks.
- :mod:`repro.utils.tables` — text rendering of tables/series.
- :mod:`repro.utils.serialization` — JSON/NPZ artifact IO.
"""

from repro.utils.rng import RngFactory, derive_seed, make_rng, spawn
from repro.utils.tables import format_kv, format_series, format_table

__all__ = [
    "RngFactory",
    "derive_seed",
    "make_rng",
    "spawn",
    "format_kv",
    "format_series",
    "format_table",
]
