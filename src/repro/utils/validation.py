"""Small argument-validation helpers shared across the library.

These helpers raise :class:`repro.exceptions.ConfigurationError` with
uniform, actionable messages. They exist so hot paths can validate inputs in
one line without each module reinventing the checks (and so tests can assert
on a single error type).
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError

__all__ = [
    "check_positive",
    "check_in_range",
    "check_probability",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it."""
    if not (value > 0):
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    lo: float = -math.inf,
    hi: float = math.inf,
    *,
    inclusive: bool = True,
) -> float:
    """Require ``lo <= value <= hi`` (or strict when ``inclusive=False``)."""
    ok = (lo <= value <= hi) if inclusive else (lo < value < hi)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ConfigurationError(
            f"{name} must be in {bracket[0]}{lo}, {hi}{bracket[1]}, got {value!r}"
        )
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it."""
    return check_in_range(name, value, 0.0, 1.0)
