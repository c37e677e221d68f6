"""Differential test: the id-based scheduler against the object-based one.

``repro.serve.queue.TenantScheduler`` queues request ids and reads tenant
codes, classes and pinned versions from a ``RunRequests``;
``tests/reference.py::TenantScheduler`` is the scheduler as shipped while a
run built one ``Request`` object per arrival. Both are driven by the same
op stream — pushes (through the utilization gate, capacity sheds, same- and
cross-class displacement and version boundaries), cohorts, pops of random
size, ``observe_busy`` and ``set_n_devices`` — and must agree on every
decision, every shed reason, the shed counts by tenant and by class (the
shipped one's read off its table's ``shed`` column), ``depth`` and
``max_depth`` after every op. A cohort is one shipped
``admit`` call against one reference ``push`` per arrival, at the
arrivals' own non-decreasing times: its bulk prefix must end exactly where
a rule could first shed. A cohort is either independent draws or runs of
up to 20 arrivals bound for one (tenant, class) queue, which the bulk
prefix queues with one extend each. Tenant names are drawn so that the order
they first queue in differs from their sorted order: the tie between two
equally deep tenants must still go to the same one.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.queue import TenantScheduler
from repro.telemetry.events import SHED_REASONS
from tests import reference

#: Not in sorted order, and "b10" < "b9" as strings.
TENANTS = ("b9", "a", "b10", "c")
N_CLASSES = 3

arrivals = st.tuples(
    st.integers(0, len(TENANTS) - 1),
    st.integers(0, N_CLASSES - 1),
    st.integers(1, 3),  # pinned version
    st.integers(0, 2),  # clock ticks since the last arrival or op
)
pushes = arrivals.map(lambda a: ("push", *a))
#: A run: 1-20 consecutive arrivals of one tenant in one class, each with
#: its own pinned version and clock ticks.
runs = st.tuples(
    st.integers(0, len(TENANTS) - 1),
    st.integers(0, N_CLASSES - 1),
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)),
             min_size=1, max_size=20),
).map(lambda run: [(run[0], run[1], v, ticks) for v, ticks in run[2]])
cohorts = st.tuples(st.just("admit"), st.one_of(
    st.lists(arrivals, min_size=1, max_size=12),
    st.lists(runs, min_size=1, max_size=4).map(
        lambda rs: [a for run in rs for a in run]
    ),
))
ops_streams = st.lists(
    st.one_of(
        pushes, pushes, pushes, cohorts,  # three pushes to each other op
        st.tuples(st.just("pop"), st.integers(1, 8)),
        st.tuples(st.just("busy"), st.integers(0, 4)),
        st.tuples(st.just("devices"), st.integers(1, 4)),
    ),
    min_size=40, max_size=100,
)
configs = st.fixed_dictionaries({
    "n_priority_classes": st.integers(1, N_CLASSES),
    "max_depth": st.one_of(st.none(), st.integers(1, 8)),
    "admission_utilization": st.one_of(
        st.none(), st.sampled_from([0.2, 0.5, 0.8, 1.0])
    ),
    "n_devices": st.integers(1, 3),
})

#: Simulated seconds per clock tick and per unit of busy time.
TICK = 1e-3


def shed_counts(table):
    """Shed requests in all, by tenant name and by class, from the table."""
    by_tenant, by_class = {}, {}
    rows = np.flatnonzero(table.shed).tolist()
    for i in rows:
        name = table.tenant_names[table.tenant[i]]
        by_tenant[name] = by_tenant.get(name, 0) + 1
        by_class[table.priority[i]] = by_class.get(table.priority[i], 0) + 1
    return len(rows), by_tenant, by_class


def replay(ops, config, n_tenants=len(TENANTS)):
    """Drive both schedulers through ``ops``; returns the decision log.

    The n-th arrival (pushed alone or in a cohort) is request id n (its
    class folded into the configured range, its tenant into the first
    ``n_tenants``: with one tenant and one class a cohort's bulk prefix
    is a single queue's extend). Every op's outcome is compared as it
    happens; the log names what each push, cohort and pop did, for
    coverage checks."""
    n_classes = config["n_priority_classes"]
    pushes = [
        (TENANTS[t % n_tenants], c % n_classes, v)
        for op in ops if op[0] in ("push", "admit")
        for t, c, v, _ in ([op[1:]] if op[0] == "push" else op[1])
    ]
    table = reference.request_table(
        [t for t, _, _ in pushes], [p for _, p, _ in pushes],
        [v for _, _, v in pushes], n_classes,
    )
    shipped = TenantScheduler(table, **config)
    frozen = reference.TenantScheduler(**config)
    objects = [
        reference.Request(i, i, 0.0, version=v, tenant=t, priority_class=p)
        for i, (t, p, v) in enumerate(pushes)
    ]
    log, now, req_id = [], 0.0, 0
    for op in ops:
        if op[0] == "push":
            now += op[4] * TICK
            got = shipped.push(req_id, now=now)
            want = frozen.push(objects[req_id], now=now)
            assert got == (None if want is None else want.req_id)
            if got is None:
                log.append("admit")
            else:
                assert SHED_REASONS[table.shed[got]] == want.shed_reason
                if got == req_id:
                    log.append(want.shed_reason)
                else:
                    arrival = objects[req_id].priority_class
                    same = want.priority_class == arrival
                    log.append("displace-same" if same else "displace-cross")
            req_id += 1
        elif op[0] == "admit":
            start, times = req_id, []
            for *_, ticks in op[1]:
                now += ticks * TICK
                times.append(now)
            got = shipped.admit(start, start + len(times), times)
            want = []
            for req_id, t in enumerate(times, start):
                shed = frozen.push(objects[req_id], now=t)
                if shed is not None:
                    want.append(shed.req_id)
                    reason = SHED_REASONS[table.shed[shed.req_id]]
                    assert reason == shed.shed_reason
            assert got == want
            log.append("cohort-shed" if got else "cohort")
            req_id = start + len(times)
        elif op[0] == "pop":
            p = frozen.next_class()
            room = 0 if p is None else min(op[1], frozen._tiers[p].depth)
            lone = p is not None and len(frozen._tiers[p].active) == 1
            got = shipped.pop_batch(op[1])
            assert got == [r.req_id for r in frozen.pop_batch(op[1])]
            if len(got) < room:  # only a version boundary cuts a batch
                log.append("lone-version-cut" if lone else "version-cut")
        elif op[0] == "busy":
            shipped.observe_busy(op[1] * TICK)
            frozen.observe_busy(op[1] * TICK)
        else:
            shipped.set_n_devices(op[1])
            frozen.set_n_devices(op[1])
        assert shipped.depth == frozen.depth
        assert shipped.max_depth == frozen.max_depth
        assert shipped.next_class() == frozen.next_class()
        assert shed_counts(table) == (
            frozen.n_shed, frozen.shed_by_tenant, frozen.shed_by_class
        )
    assert [SHED_REASONS[code] for code in table.shed.tolist()] == [
        r.shed_reason for r in objects
    ]
    return log


class TestSchedulerDifferential:
    @given(ops_streams, configs, st.integers(1, len(TENANTS)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_decisions_as_the_object_scheduler(
        self, ops, config, n_tenants
    ):
        replay(ops, config, n_tenants)

    def test_a_long_stream_covers_every_decision(self):
        """Seeded long streams over tight configurations: every kind of
        decision happens, and the two schedulers still agree on each."""
        rng = np.random.default_rng(36)

        def arrival():
            return (
                int(rng.integers(len(TENANTS))), int(rng.integers(N_CLASSES)),
                1 + int(rng.integers(3)), int(rng.integers(3)),
            )

        seen = set()
        kinds = ["push", "push", "push", "admit", "pop", "busy"]
        for n_classes, n_tenants, max_depth, gate in (
            (N_CLASSES, 4, 4, 0.5), (N_CLASSES, 4, 8, 0.8),
            (N_CLASSES, 4, 3, None), (N_CLASSES, 4, None, 0.8),
            (1, 1, 6, None),  # one queue: a cohort's prefix is one extend
        ):
            ops = []
            for _ in range(3000):
                kind = rng.choice(kinds)
                if kind == "push":
                    ops.append(("push", *arrival()))
                elif kind == "admit":
                    size = 1 + int(rng.integers(12))
                    ops.append(("admit", [arrival() for _ in range(size)]))
                elif kind == "pop":
                    ops.append(("pop", 1 + int(rng.integers(8))))
                else:
                    ops.append(("busy", int(rng.integers(5))))
            ops.append(("devices", 2))
            seen |= set(replay(ops, {
                "n_priority_classes": n_classes, "max_depth": max_depth,
                "admission_utilization": gate, "n_devices": 1,
            }, n_tenants))
        assert seen == {
            "admit", "capacity", "utilization", "displace-same",
            "displace-cross", "version-cut", "lone-version-cut", "cohort",
            "cohort-shed",
        }


class TestOneExtendPerRun:
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=10),
           st.booleans())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_a_cohort_of_r_runs_makes_r_queue_calls(self, lengths, classes):
        """Two tenants take turns, one run each: a cohort of ``r`` runs
        queues with ``r`` ``_admit`` calls, each run in arrival order on
        its own (class, tenant) queue."""
        tenants, priority = [], []
        for k, length in enumerate(lengths):
            tenants += ["ab"[k % 2]] * length
            priority += [k % 2 if classes else 0] * length
        n = len(tenants)
        table = reference.request_table(tenants, priority, [1] * n, 2)
        scheduler = TenantScheduler(table, n_priority_classes=2)
        calls, queue = [], scheduler._admit

        def counting(start, stop, p, tenant):
            calls.append((start, stop))
            queue(start, stop, p, tenant)

        scheduler._admit = counting
        assert scheduler.admit(0, n, [0.0] * n) == []
        starts = np.cumsum([0] + lengths).tolist()
        assert calls == list(zip(starts, starts[1:]))
        assert scheduler.depth == scheduler.max_depth == n
        for p in range(2):
            for t, q in scheduler._tiers[p].queues.items():
                assert list(q) == [
                    i for i in range(n)
                    if table.tenant[i] == t and table.priority[i] == p
                ]
