"""Elastic cluster membership: device lifecycle as a first-class event stream.

The subsystem has two halves:

- :mod:`repro.elastic.timeline` — the schedule: immutable, time-sorted
  ``join``/``leave``/``fail``/``throttle``/``recover`` events, composable by
  hand or generated from the seeded churn presets in
  :data:`repro.gpu.profiles.CHURN_PRESETS`.
- :mod:`repro.elastic.membership` — the runtime: a cursor-driven active-set
  state machine over a :class:`~repro.gpu.cluster.MultiGPUServer`, plus the
  exactly-once :class:`~repro.elastic.membership.UpdateLedger` merge
  accounting.

Consumed by the adaptive trainer (``membership=`` option), the serving
engine (``membership=`` + queue-depth autoscaler), and the CLI
(``repro train/serve --churn <preset>``). See DESIGN.md §14.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "membership": "AppliedEvent ClusterMembership UpdateLedger",
    "timeline": (
        "EVENT_KINDS MembershipEvent MembershipTimeline TimelineCursor "
        "make_churn_timeline"
    ),
})
