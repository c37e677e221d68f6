"""The comparison rule, in one place: ``run.py --check A.json B.json``.

A is the reference (parent commit, or the first of two sets), B the
candidate. One row per (workload, metric):

- host-time metrics (median/min/max/n): B's median may be worse than A's
  by at most the metric's bound from BENCHMARK.json. When either input's
  own min-max range is wider than that bound the row is ``unresolved``
  rather than ``same``, unless every sample of B beats every sample of A.
- simulated metrics are deterministic for a seed and must be exactly equal.

Exit code 1 when any row is ``worse`` or ``differs``, 2 when the two
manifests describe different machines or library versions.
"""

from __future__ import annotations

import json
from pathlib import Path

MACHINE_KEYS = ("python", "numpy", "scipy", "cpu_model")
HIGHER_IS_BETTER = {"ops_per_host_s"}


def compare_timing(name: str, a: dict, b: dict, bound: float):
    """-> (verdict, how much worse B's median is, as a share of A's)."""
    # Orient both inputs so that lower is better.
    sign = -1.0 if name in HIGHER_IS_BETTER else 1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((c["max"] - c["min"]) / c["median"] for c in (a, b))
    b_always_better = (max(sign * b["min"], sign * b["max"])
                       < min(sign * a["min"], sign * a["max"]))
    if worse_by > bound:
        verdict = "worse"
    elif spread > bound:
        verdict = "better" if b_always_better else "unresolved"
    elif worse_by < -bound:
        verdict = "better"
    else:
        verdict = "same"
    return verdict, worse_by


def check_files(a_path: Path, b_path: Path, *, bounds, force) -> int:
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    mismatched = [k for k in MACHINE_KEYS
                  if a["manifest"].get(k) != b["manifest"].get(k)]
    if mismatched:
        for key in mismatched:
            print(f"manifest {key}: {a['manifest'].get(key)!r} vs "
                  f"{b['manifest'].get(key)!r}")
        if not force:
            print("refusing to compare results from different machines or "
                  "library versions (--allow-manifest-mismatch overrides)")
            return 2
    same_inputs = all(a["manifest"].get(k) == b["manifest"].get(k)
                      for k in ("seed", "smoke"))
    if not same_inputs:
        print("seeds or sizes differ: simulated metrics are not compared")

    a_results = {r["workload"]: r for r in a["results"]}
    bad = 0
    print(f"{'workload':<16} {'metric':<15} {'A':>12} {'B':>12} "
          f"{'B worse by':>11} {'bound':>6}  verdict")
    for rb in b["results"]:
        ra = a_results.get(rb["workload"])
        if ra is None:
            print(f"{rb['workload']:<16} only in B")
            continue
        for name, cell_b in rb["end_to_end"].items():
            cell_a = ra["end_to_end"][name]
            if "median" in cell_b:
                verdict, worse_by = compare_timing(
                    name, cell_a, cell_b, bounds[name])
                row = (f"{cell_a['median']:>12.5g} {cell_b['median']:>12.5g} "
                       f"{100 * worse_by:>+10.1f}% "
                       f"{100 * bounds[name]:>5.0f}%")
            elif not same_inputs:
                continue
            else:
                va, vb = cell_a["value"], cell_b["value"]
                # NaN != NaN: an unreadable statistic never passes as equal.
                verdict = "same" if va == vb else "differs"
                row = f"{va!s:>12.12} {vb!s:>12.12} {'':>11} {'exact':>6}"
            bad += verdict in ("worse", "differs")
            print(f"{rb['workload']:<16} {name:<15} {row}  {verdict}")
    print("disagreement" if bad else "agreement", f"({bad} bad rows)")
    return 1 if bad else 0
