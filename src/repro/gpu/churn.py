"""Named churn presets: plain data, so a ``--churn`` flag can list them
without loading the device models (re-exported by :mod:`repro.gpu.profiles`).
"""

from __future__ import annotations

from typing import List

__all__ = ["CHURN_PRESETS", "churn_preset_names"]

#: Named churn presets for the elastic membership layer, consumed by
#: :func:`repro.elastic.timeline.make_churn_timeline` and selectable by name
#: from ``repro train/serve --churn`` and the ``elastic`` bench section.
#:
#: Event rates (per run of duration ``T``, on an ``n``-device cluster):
#:
#: ======================  =====  =====  =========  ================
#: preset                  fails  joins  throttles  throttle factor
#: ======================  =====  =====  =========  ================
#: ``stable``              0      0      0          —
#: ``flaky-one``           0      0      1 (+rec)   0.4
#: ``spot-churn``          1 [*]  1 [*]  1 (+rec)   0.5
#: ``brownout``            0      0      n (+rec)   0.7
#: ======================  =====  =====  =========  ================
#:
#: [*] ``spot-churn`` scales with cluster size: one extra fail/join pair per
#: two devices beyond the first two (preemptible-capacity semantics).
#: Fails land in ``(0.2, 0.38) T``, joins in ``(0.42, 0.6) T``, throttles
#: in ``(0.5, 0.62) T``, each with its recovery ``0.22 T`` later — all
#: strictly mid-run, jittered by the churn seed.
CHURN_PRESETS = {
    "stable": {},
    "flaky-one": {"throttles": 1, "throttle_factor": 0.4},
    "spot-churn": {
        "fails": 1,
        "joins": 1,
        "throttles": 1,
        "throttle_factor": 0.5,
        "scale_with_devices": True,
    },
    "brownout": {"throttles": "all", "throttle_factor": 0.7},
}


def churn_preset_names() -> List[str]:
    """Sorted preset names, for CLI help and error messages."""
    return sorted(CHURN_PRESETS)
