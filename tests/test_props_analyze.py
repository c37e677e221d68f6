"""The straggler scan against its frozen rescanning oracle.

``critical_path`` sorts each device's span ends once and bisects them per
merge boundary; ``tests/reference.py::critical_path`` walks them from the
start at every boundary. Over random finite runs (derandomized: the same
examples every run) the two must build equal ``StragglerReport`` s, with
ties in end times, zero-duration spans, spans ending exactly at the
boundary's ``merge.ts + 1e-12`` horizon or just past it, one device, no
merges, and ``step.compute`` mixed with ``serve.batch`` on one device.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.analyze import critical_path
from repro.telemetry.events import RunData, SpanEvent
from tests import reference

#: Quarter-second grid: exact floats, so equal ends really tie.
TIMES = st.integers(min_value=0, max_value=40).map(lambda q: q / 4)
DURATIONS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
DEVICE_SPANS = ["step.compute", "serve.batch", "transfer.model", "run",
                "slide.rebuild"]


def span(name, ts, dur, device=None, size=None):
    args = {} if size is None else {"size": size}
    return SpanEvent(name, ts, dur, 0, device, args)


@st.composite
def runs(draw):
    n_devices = draw(st.integers(min_value=1, max_value=4))
    merges = [
        span("merge", ts, dur)
        for ts, dur in draw(st.lists(st.tuples(TIMES, DURATIONS), max_size=6))
    ]
    spans = list(merges)
    if draw(st.booleans()):
        spans.append(span("run", 0.0, 12.0))
    for device in range(n_devices):
        for name, ts, dur, size in draw(st.lists(st.tuples(
            st.sampled_from(DEVICE_SPANS), TIMES, DURATIONS,
            st.integers(min_value=1, max_value=64),
        ), min_size=1, max_size=12)):
            spans.append(span(name, ts, dur, device, size))
        # Zero-duration spans ending exactly at a boundary's horizon, or
        # one ulp past it.
        for merge, past in draw(st.lists(
            st.tuples(st.sampled_from(merges), st.booleans()), max_size=3,
        ) if merges else st.just([])):
            end = merge.ts + 1e-12
            end = math.nextafter(end, math.inf) if past else end
            spans.append(span("step.compute", end, 0.0, device, 8))
    spans = draw(st.permutations(spans))
    samples = {
        f"gpu{d}/updates": [(1.0, float(draw(st.integers(0, 50))))]
        for d in range(n_devices) if draw(st.booleans())
    }
    return RunData(index=0, spans=spans, samples=samples)


@given(runs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_boundary_scan_matches_the_rescanning_oracle(run):
    assert critical_path(run) == reference.critical_path(run)


def test_a_span_ending_at_the_horizon_counts_as_arrived():
    """``bisect_right``: an end equal to ``merge.ts + 1e-12`` is inside the
    window, so gpu1 arrives last at the barrier, not 2 s early."""
    run = RunData(index=0, spans=[
        span("run", 0.0, 6.0),
        span("step.compute", 0.0, 4.0, device=0, size=100),
        span("step.compute", 0.0, 2.0, device=1, size=50),
        span("step.compute", 4.0 + 1e-12, 0.0, device=1, size=0),
        span("merge", 4.0, 1.0),
    ])
    (diag,) = critical_path(run).boundaries
    assert diag.critical_device == 1
    assert diag.idle_before == {0: 0.0, 1: 0.0}
    assert critical_path(run) == reference.critical_path(run)


def test_nan_span_ends_are_left_out_of_the_scan():
    """A ``null`` ts or dur in an archive loads as NaN: the report is the
    oracle's on the same run with those spans removed."""
    nan = float("nan")
    finite = [
        span("run", 0.0, 10.0),
        span("step.compute", 0.0, 4.0, device=0, size=400),
        span("step.compute", 0.0, 2.0, device=1, size=400),
        span("step.compute", 5.0, 3.0, device=1, size=600),
        span("merge", 4.0, 1.0),
        span("merge", 8.0, 1.0),
    ]
    broken = [
        span("transfer.model", nan, 0.5, device=0),
        span("transfer.model", 3.0, nan, device=1),
        span("transfer.model", nan, nan, device=1),
    ]
    run = RunData(index=0, spans=[*finite[:3], *broken, *finite[3:]])
    want = reference.critical_path(RunData(index=0, spans=finite))
    assert critical_path(run) == want
    assert want.critical_counts == {0: 1, 1: 1}
