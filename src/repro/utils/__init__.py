"""Shared utilities: deterministic RNG streams, validation, tables.

Submodules
----------
- :mod:`repro.utils.rng` — keyed, reproducible random streams.
- :mod:`repro.utils.validation` — one-line argument checks.
- :mod:`repro.utils.tables` — text rendering of tables/series.
- :mod:`repro.utils.serialization` — JSON/NPZ artifact IO.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "rng": "RngFactory derive_seed make_rng spawn",
    "tables": "format_kv format_series format_table",
})
