"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything produced by this package with a single ``except`` clause
while still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid hyperparameter or experiment configuration was supplied."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulation reached an inconsistent state."""


class ScheduleError(SimulationError):
    """The dynamic scheduler violated one of its dispatch invariants."""


class DataFormatError(ReproError, ValueError):
    """A dataset file or in-memory dataset failed validation."""


class ModelStateError(ReproError, ValueError):
    """Model replicas are incompatible (shape, dtype, or layout mismatch)."""


class SnapshotError(ReproError, ValueError):
    """A model snapshot failed validation (format, version, or integrity)."""


class ServeError(ReproError, RuntimeError):
    """The inference engine reached an inconsistent serving state."""


class CommunicationError(ReproError, RuntimeError):
    """A collective (all-reduce) operation was invoked with invalid inputs."""


class MembershipError(ReproError, RuntimeError):
    """The elastic membership layer violated a lifecycle invariant."""
