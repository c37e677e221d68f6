"""The recorder's sample store (``repro.telemetry.core``) and gap idle.

These were ``repro.sim.monitor``'s ``Monitor`` / ``MonitorSet`` /
``IdleAccountant`` cases; the counters and gauges now live on ``Telemetry``
as ``{key: [(t, value), ...]}`` per run. The accountant is frozen in
``tests/reference.py`` as the oracle of
``repro.telemetry.analyze.busy_and_gap_idle``, which derives the same totals
from a run's spans.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.environment import Environment
from repro.telemetry.analyze import busy_and_gap_idle
from repro.telemetry.core import Telemetry
from repro.telemetry.events import SpanEvent
from repro.telemetry.export import iter_jsonl_records
from repro.telemetry.events import RunData
from repro.telemetry.trace_data import load_trace_data
from tests.reference import IdleAccountant


def attached():
    env, tel = Environment(), Telemetry()
    tel.attach(env)
    return env, tel


def lane(acc, key):
    """The accountant's record for ``key`` (``None`` if never observed)."""
    return next((r for r in acc.as_records() if r["device"] == key), None)


class TestMonitor:
    def test_records_at_clock_time(self):
        env, tel = attached()

        def proc():
            tel.gauge("q", 1.0)
            yield env.timeout(2)
            tel.gauge("q", 3.0)

        env.process(proc())
        env.run()
        assert tel.runs[-1].samples["q"] == [(0.0, 1.0), (2.0, 3.0)]

    def test_explicit_time_override(self):
        _, tel = attached()
        tel.counter("q", 5.0, ts=1.5)
        assert tel.runs[-1].samples["q"][-1] == (1.5, 5.0)

    def test_len(self):
        _, tel = attached()
        assert "q" not in tel.runs[-1].samples
        tel.gauge("q", 1)
        assert len(tel.runs[-1].samples["q"]) == 1
        # Stored as floats whatever the caller passed: the archive prints 1.0.
        assert all(type(x) is float for x in tel.runs[-1].samples["q"][0])


class TestIdleAccountant:
    def test_back_to_back_intervals_have_zero_idle(self):
        acc = IdleAccountant()
        acc.observe(0, 0.0, 1.0)
        acc.observe(0, 1.0, 2.5)
        acc.observe(0, 2.5, 3.0)
        assert lane(acc, 0)["busy_s"] == pytest.approx(3.0)
        assert lane(acc, 0)["idle_s"] == 0.0

    def test_gapped_intervals_accumulate_idle(self):
        acc = IdleAccountant()
        acc.observe("gpu0", 0.0, 1.0)
        acc.observe("gpu0", 2.0, 3.0)   # 1.0 gap
        acc.observe("gpu0", 3.5, 4.0)   # 0.5 gap
        assert lane(acc, "gpu0")["busy_s"] == pytest.approx(2.5)
        assert lane(acc, "gpu0")["idle_s"] == pytest.approx(1.5)

    def test_overlapping_interval_clamps_gap_at_zero(self):
        acc = IdleAccountant()
        acc.observe(0, 0.0, 2.0)
        acc.observe(0, 1.5, 3.0)  # starts before the previous one ended
        assert lane(acc, 0)["idle_s"] == 0.0
        assert lane(acc, 0)["busy_s"] == pytest.approx(3.5)  # durations sum

    def test_lanes_are_independent(self):
        acc = IdleAccountant()
        acc.observe(0, 0.0, 1.0)
        acc.observe(1, 5.0, 6.0)
        acc.observe(0, 4.0, 5.0)
        assert lane(acc, 0)["idle_s"] == pytest.approx(3.0)
        assert lane(acc, 1)["idle_s"] == 0.0
        assert [r["device"] for r in acc.as_records()] == [0, 1]

    def test_unobserved_lane_reads_zero(self):
        assert IdleAccountant().as_records() == []

    def test_backwards_interval_raises(self):
        acc = IdleAccountant()
        with pytest.raises(ValueError):
            acc.observe(0, 2.0, 1.0)

    def test_as_records(self):
        acc = IdleAccountant()
        acc.observe(3, 1.0, 2.0)
        acc.observe(3, 4.0, 6.0)
        (rec,) = acc.as_records()
        assert rec == {
            "device": 3, "first_ts": 1.0, "last_ts": 6.0,
            "busy_s": 3.0, "idle_s": 2.0, "intervals": 2,
        }

    def test_zero_width_interval_counts_without_idle_distortion(self):
        acc = IdleAccountant()
        acc.observe(0, 1.0, 1.0)
        acc.observe(0, 1.0, 2.0)
        assert lane(acc, 0)["busy_s"] == pytest.approx(1.0)
        assert lane(acc, 0)["idle_s"] == 0.0

    def test_each_run_carries_an_accountant(self):
        """Each run's gap idle is derived from that run's spans alone."""
        _, tel = attached()
        tel.record_span("step.compute", 0.0, 1.0, device=0)
        tel.detach()
        tel.attach(Environment())
        tel.record_span("serve.batch", 0.0, 1.0, device=0)
        tel.record_span("serve.batch", 3.0, 1.0, device=0)
        tel.record_span("serve.request", 9.0, 1.0, device=0)  # not compute
        runs = load_trace_data(tel).runs
        assert [busy_and_gap_idle(run) for run in runs] \
            == [{0: (1.0, 0.0)}, {0: (2.0, 2.0)}]
        assert not any(r["type"] == "idle" for r in iter_jsonl_records(tel))


#: A start offset from the device's previous span: often 0 (equal starts).
_step = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
#: A span length: zero-length spans and ones that overrun the next start.
_dur = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
_lanes = st.lists(
    st.lists(st.tuples(_step, _dur), min_size=1, max_size=8),
    min_size=1, max_size=3,
)


class TestDerivedGapIdle:
    """``busy_and_gap_idle`` against the frozen accountant, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(lanes=_lanes, data=st.data())
    def test_matches_the_accountant_fed_the_same_spans(self, lanes, data):
        # Per device, starts are non-decreasing; the devices interleave in
        # any order (spans are recorded as they end), and non-compute spans
        # ride along.
        queues = []
        for device, steps in enumerate(lanes):
            ts, spans = 0.0, []
            for step, dur in steps:
                ts += step
                spans.append(("step.compute", ts, dur, device))
            queues.append(spans)
        spans = []
        while any(queues):
            pick = data.draw(st.sampled_from(
                [i for i, q in enumerate(queues) if q]))
            name, ts, dur, device = queues[pick].pop(0)
            if data.draw(st.booleans()):
                name = "serve.batch"
            spans.append(SpanEvent(name, ts, dur, 0, device, {}))
            if data.draw(st.booleans()):  # ignored: not a device compute span
                other = data.draw(st.sampled_from(
                    [("transfer.model", device), ("merge", None),
                     ("step.compute", None)]))
                spans.append(SpanEvent(other[0], ts, dur, 0, other[1], {}))
        acc = IdleAccountant()
        for span in spans:
            if span.device is not None and span.name in (
                    "step.compute", "serve.batch"):
                acc.observe(span.device, span.ts, span.ts + span.dur)
        derived = busy_and_gap_idle(RunData(index=0, spans=spans))
        assert list(derived.items()) == [
            (r["device"], (r["busy_s"], r["idle_s"])) for r in acc.as_records()
        ]


class TestMonitorSet:
    def test_get_or_create(self):
        _, tel = attached()
        tel.gauge("a", 1.0)
        series = tel.runs[-1].samples["a"]
        tel.gauge("a", 2.0)
        assert tel.runs[-1].samples["a"] is series and len(series) == 2
        assert "b" not in tel.runs[-1].samples

    def test_names_in_creation_order(self):
        _, tel = attached()
        tel.gauge("z", 0.0)
        tel.counter("a", device=1)
        tel.gauge("z", 1.0)
        assert list(tel.runs[-1].samples) == ["z", "gpu1/a"]

    def test_to_records(self):
        _, tel = attached()
        tel.gauge("b", 1.5)
        tel.counter("a", 2.0, ts=0.25)
        tel.gauge("b", float("nan"))
        counters = [
            r for r in iter_jsonl_records(tel) if r["type"] == "counter"
        ]
        fields = ("run", "name", "ts", "value")
        assert [tuple(r[f] for f in fields) for r in counters] == [
            (0, "b", 0.0, 1.5),
            (0, "b", 0.0, None),  # NaN -> null: the stream is strict JSON
            (0, "a", 0.25, 2.0),
        ]
