"""Multi-tenant serving acceptance tests: noisy-neighbor isolation, shed
accounting, deterministic replay, and hot-swap safety under tenant load.

The noisy-neighbor bound (victim p99 within ``ISOLATION_BOUND`` of its
solo run) is the acceptance criterion the ``tenants`` section of
``benchmarks/bench_serve.py`` gates on; this file pins the same scenario
at test scale so a scheduler regression fails in the unit suite before
the bench ever runs.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.gpu.cluster import make_server
from repro.gpu.cost import GpuCostParams
from repro.serve import (
    LoadSpec,
    ModelSnapshot,
    Predictor,
    ServingEngine,
    SnapshotStore,
    TenantLoad,
    TenantScheduler,
    generate_arrivals,
    generate_multi_tenant_arrivals,
)
from repro.telemetry.events import SHED_REASONS
from repro.sparse.mlp import MLPArchitecture, SparseMLP
from tests.reference import request_table

ISOLATION_BOUND = 1.3
TRACE_PATH = Path(__file__).parent / "data" / "tenant_trace.json"


@pytest.fixture(scope="module")
def predictor(micro_task):
    arch = MLPArchitecture(
        micro_task.n_features, micro_task.n_labels, hidden=(32,)
    )
    state = SparseMLP(arch).init_state(seed=21)
    snapshot = ModelSnapshot(arch=arch, state=state, meta={"dataset": "micro"})
    return Predictor(snapshot)


def serve_server(n_gpus=2, seed=0):
    return make_server(
        n_gpus, cost_params=GpuCostParams.tiny_model_profile(), seed=seed
    )


def capacity_rps(predictor, X):
    """The cluster's sequential (batch=1) capacity in requests/s."""
    work = predictor.workload(X[:1])
    per_request = serve_server().gpus[0].cost_model.inference_time(
        work, n_active_gpus=2
    )
    return 2.0 / per_request


def mt_engine(predictor, *, max_depth=256, **extra):
    return ServingEngine(
        predictor, serve_server(), mode="adaptive",
        class_slo_ms={0: 2.0, 1: 2.0}, max_queue_depth=max_depth, **extra,
    )


class TestNoisyNeighbor:
    """A 10x-fair-share class-1 aggressor must not move the class-0
    victim's p99 beyond the isolation bound."""

    def test_victim_p99_isolated(self, predictor, micro_task):
        X = micro_task.test.X
        cap = capacity_rps(predictor, X)
        n_victim = 800
        victim_rate = 0.3 * cap
        victim = TenantLoad(
            "victim",
            LoadSpec(n_requests=n_victim, rate_rps=victim_rate, seed=0),
            priority_class=0,
        )
        duration = n_victim / victim_rate
        aggressor_rate = 10.0 * cap / 2.0
        aggressor = TenantLoad(
            "noisy",
            LoadSpec(
                n_requests=int(aggressor_rate * duration),
                rate_rps=aggressor_rate, seed=1,
            ),
            priority_class=1,
        )

        solo = mt_engine(predictor).serve(
            X, generate_arrivals(victim.spec), k=5,
            tenants=np.full(n_victim, "victim", dtype=object),
            priority_classes=np.zeros(n_victim, dtype=np.int64),
        )
        times, tenants, classes = generate_multi_tenant_arrivals(
            [victim, aggressor]
        )
        contended = mt_engine(predictor).serve(
            X, times, k=5, tenants=tenants, priority_classes=classes,
        )

        solo_p99 = solo.tenants["victim"]["latency_p99_ms"]
        contended_p99 = contended.tenants["victim"]["latency_p99_ms"]
        assert contended.tenants["victim"]["completed"] == n_victim
        assert contended.tenants["victim"]["n_shed"] == 0
        assert contended_p99 <= ISOLATION_BOUND * solo_p99
        # The aggressor is still served (no starvation of admitted work).
        assert contended.tenants["noisy"]["completed"] > 0

    def test_surge_sheds_only_aggressor(self, predictor, micro_task):
        """40x fair share against a shallow queue: graded shedding must
        land every shed on the aggressor class."""
        X = micro_task.test.X
        cap = capacity_rps(predictor, X)
        n_victim = 400
        victim_rate = 0.3 * cap
        duration = n_victim / victim_rate
        aggressor_rate = 40.0 * cap / 2.0
        loads = [
            TenantLoad(
                "victim",
                LoadSpec(n_requests=n_victim, rate_rps=victim_rate, seed=0),
                priority_class=0,
            ),
            TenantLoad(
                "noisy",
                LoadSpec(
                    n_requests=int(aggressor_rate * duration),
                    rate_rps=aggressor_rate, seed=1,
                ),
                priority_class=1,
            ),
        ]
        times, tenants, classes = generate_multi_tenant_arrivals(loads)
        result = mt_engine(predictor, max_depth=64).serve(
            X, times, k=5, tenants=tenants, priority_classes=classes,
        )
        assert result.tenants["victim"]["n_shed"] == 0
        assert result.tenants["noisy"]["n_shed"] > 0
        assert result.shed_by_tenant == {
            "noisy": result.tenants["noisy"]["n_shed"]
        }


class TestShedAccounting:
    """Pins the ServeResult shed semantics: shed requests are excluded
    from the latency sample, counted per tenant, and offered load is
    completed + shed."""

    def _overloaded(self, predictor, X, n=600, depth=8):
        cap = capacity_rps(predictor, X)
        tenants = np.where(np.arange(n) % 3 == 0, "small", "big").astype(
            object
        )
        classes = np.where(tenants == "small", 0, 1).astype(np.int64)
        arrivals = generate_arrivals(
            LoadSpec(n_requests=n, rate_rps=20.0 * cap, seed=5)
        )
        result = mt_engine(predictor, max_depth=depth).serve(
            X, arrivals, k=5, tenants=tenants, priority_classes=classes,
        )
        return result, tenants

    def test_shed_excluded_from_percentiles(self, predictor, micro_task):
        result, tenants = self._overloaded(predictor, micro_task.test.X)
        assert result.n_shed > 0
        # The latency sample holds completed requests only.
        table = result.requests
        completed = ~np.isnan(table.done)
        shed = table.shed != 0
        assert len(result.latencies_s) == completed.sum()
        assert completed.sum() + shed.sum() == len(tenants)
        assert not (completed & shed).any()
        expected = np.sort(table.done[completed] - table.arrival[completed])
        assert np.allclose(np.sort(result.latencies_s), expected)

    def test_shed_by_tenant_sums_to_total(self, predictor, micro_task):
        result, tenants = self._overloaded(predictor, micro_task.test.X)
        assert sum(result.shed_by_tenant.values()) == result.n_shed
        assert result.shed_by_tenant == {
            name: row["n_shed"]
            for name, row in result.tenants.items() if row["n_shed"]
        }
        # Offered = completed + shed, per tenant and overall.
        for name in ("small", "big"):
            offered = int(np.sum(tenants == name))
            stats = result.tenants[name]
            assert stats["completed"] + stats["n_shed"] == offered
        as_dict = result.as_dict()
        assert as_dict["n_shed"] == result.n_shed
        assert as_dict["shed_by_tenant"] == result.shed_by_tenant

    def test_shed_reasons_recorded(self, predictor, micro_task):
        result, _ = self._overloaded(predictor, micro_task.test.X)
        shed = result.requests.shed
        reasons = {SHED_REASONS[code] for code in shed[shed != 0].tolist()}
        assert reasons <= {"capacity", "displaced", "utilization"}
        assert reasons  # at least one shed with a recorded reason


def replay_trace(ops):
    """Replay a recorded op stream through a fresh TenantScheduler and
    return the serialized decision log (the byte string under test).

    The trace's push ids are ``0..n-1`` in order: row ``id`` of the
    request table."""
    pushes = [op for op in ops if op["op"] == "push"]
    table = request_table(
        [op["tenant"] for op in pushes], [op["cls"] for op in pushes],
        [op["version"] for op in pushes], 3,
    )
    scheduler = TenantScheduler(
        table,
        n_priority_classes=3,
        max_depth=16,
        admission_utilization=0.9,
        n_devices=2,
    )

    def label(req_id):
        tenant = table.tenant_names[table.tenant[req_id]]
        return f"{tenant}/{table.priority[req_id]}"

    lines = []
    for op in ops:
        if op["op"] == "push":
            shed = scheduler.push(op["id"], now=op["t"])
            if shed is None:
                outcome = "admit"
            elif shed == op["id"]:
                outcome = f"shed:{SHED_REASONS[table.shed[shed]]}"
            else:
                outcome = f"displace {label(shed)}#{shed}"
            lines.append(
                f"push {op['tenant']}/{op['cls']}#{op['id']} -> {outcome}"
            )
        elif op["op"] == "pop":
            batch = scheduler.pop_batch(op["max_size"])
            popped = ",".join(
                f"{label(r)}v{table.version[r]}#{r}" for r in batch
            )
            lines.append(f"pop{op['max_size']} -> [{popped}]")
        elif op["op"] == "busy":
            scheduler.observe_busy(op["s"])
    return "\n".join(lines).encode()


class TestDeterministicReplay:
    """The checked-in seeded trace must produce byte-identical scheduler
    decisions on every run (no set/dict iteration order, no hidden RNG)."""

    def test_replay_is_byte_identical(self):
        fixture = json.loads(TRACE_PATH.read_text())
        first = replay_trace(fixture["ops"])
        second = replay_trace(fixture["ops"])
        assert first == second
        assert hashlib.sha256(first).hexdigest() == fixture["decisions_sha256"]

    def test_trace_exercises_all_decisions(self):
        """Fixture self-check: the trace covers admit, shed, displace,
        and non-trivial batches — otherwise the hash proves nothing."""
        fixture = json.loads(TRACE_PATH.read_text())
        log = replay_trace(fixture["ops"]).decode()
        assert "-> admit" in log
        assert "shed:" in log
        assert "displace " in log
        assert "," in log  # at least one multi-request batch


def assert_archive_rows_are_live(breakdown, result):
    """The archive's accounts are the live ones, read back from the request
    table: equal on every key a tenant or class row shares, same rows, same
    order."""
    assert list(breakdown["tenants"]) == list(result.tenants)
    for name, live in result.tenants.items():
        row = breakdown["tenants"][name]
        assert row == {key: live[key] for key in row}, name
        assert set(live) == set(row), name
    classes = {int(c): row for c, row in breakdown["classes"].items()}
    assert list(classes) == list(result.per_class)
    for cls, live in result.per_class.items():
        assert classes[cls] == {key: live[key] for key in classes[cls]}, cls
        assert set(live) - set(classes[cls]) == {"slo_ms"}, cls
    assert breakdown.get("fairness") == result.fairness
    assert breakdown["n_shed"] == result.n_shed


@pytest.fixture(scope="module")
def starved_run(predictor, micro_task):
    """Three tenants in three classes under a 1% utilization gate: the
    class-2 tenant is shed to zero completions, so fairness is infinite."""
    from repro.telemetry import Telemetry

    X = micro_task.test.X
    cap = capacity_rps(predictor, X)
    times, names, classes = generate_multi_tenant_arrivals([
        TenantLoad("victim", LoadSpec(n_requests=200, rate_rps=cap, seed=1),
                   priority_class=0),
        TenantLoad("b", LoadSpec(n_requests=100, rate_rps=0.5 * cap, seed=2),
                   priority_class=1),
        TenantLoad("starved",
                   LoadSpec(n_requests=30, rate_rps=0.15 * cap, seed=3),
                   priority_class=2),
    ])
    tel = Telemetry(label="starved")
    result = ServingEngine(
        predictor, serve_server(), mode="adaptive",
        class_slo_ms={0: 2.0, 1: 2.0, 2: 2.0}, admission_utilization=0.01,
        telemetry=tel,
    ).serve(X, times, k=5, tenants=names, priority_classes=classes)
    assert result.tenants["starved"] == {"completed": 0, "n_shed": 30}
    assert result.fairness == np.inf
    return result, tel


class TestStarvedTenant:
    """A tenant or class shed to zero completions has no latency or
    throughput keys, live and in the archive, and the result stays
    strict-JSON safe."""

    def test_as_dict_is_strict_json(self, starved_run, tmp_path):
        from repro.utils.serialization import save_json

        result, _ = starved_run
        doc = result.as_dict()
        save_json(tmp_path / "result.json", doc)  # must not raise
        assert doc["fairness"] is None
        assert result.fairness == np.inf  # in memory it stays infinite
        assert doc["tenants"]["starved"] == {"completed": 0, "n_shed": 30}
        assert doc["per_class"]["2"] == {
            "completed": 0, "n_shed": 30, "slo_ms": 2.0,
        }

    def test_archive_rows_are_live(self, starved_run):
        from repro.telemetry.analyze import tenant_breakdown
        from repro.telemetry.trace_data import load_trace_data

        result, tel = starved_run
        breakdown = tenant_breakdown(load_trace_data(tel).run(0))
        assert breakdown["tenants"]["starved"] == {
            "completed": 0, "n_shed": 30,
        }
        assert_archive_rows_are_live(breakdown, result)

    def test_renderers_print_a_dash(self, starved_run):
        from repro.harness.report import render_noisy_neighbor, render_tenants
        from repro.telemetry.analyze import tenant_breakdown
        from repro.telemetry.trace_data import load_trace_data

        result, tel = starved_run
        text = render_noisy_neighbor(
            result, result, victim_rps=1.0, aggressor_rps=1.0,
            aggressor_factor=1.0,
        )
        rows = {
            key.strip(): value.strip()
            for key, value in (
                line.split(" : ") for line in text.splitlines()
                if " : " in line
            )
        }
        for key in ("throughput (rps)", "p50 (ms)", "p99 (ms)"):
            assert rows[f"starved {key}"] == "-", key
        assert rows["starved shed"] == "30"
        table = render_tenants(
            tenant_breakdown(load_trace_data(tel).run(0))
        )
        (line,) = [ln for ln in table.splitlines() if "starved" in ln]
        cells = [cell.strip() for cell in line.split("|")]
        assert cells == ["starved", "-", "0", "-", "-", "30"]

    def test_registry_report_has_no_latency_keys(self, starved_run, tmp_path):
        from repro.registry import RunRegistry
        from repro.registry.record import record_serve_runs

        result, _ = starved_run
        registry = RunRegistry(tmp_path)
        (run_id,) = record_serve_runs(registry, {"adaptive": result})
        report = json.loads(
            (registry.run_dir(run_id) / "report.json").read_text()
        )
        assert report["serve"]["tenants"]["starved"] == {
            "completed": 0, "n_shed": 30,
        }
        assert report["serve"]["fairness"] is None


class TestTenantTelemetry:
    def test_spans_sheds_and_analyze_breakdown(self, predictor, micro_task):
        from repro.telemetry import Telemetry
        from repro.telemetry.analyze import analyze_report, tenant_breakdown
        from repro.telemetry.trace_data import load_trace_data

        X = micro_task.test.X
        cap = capacity_rps(predictor, X)
        n = 400
        tenants = np.where(np.arange(n) % 2 == 0, "a", "b").astype(object)
        classes = (np.arange(n) % 2).astype(np.int64)
        tel = Telemetry(label="tenant-test")
        result = ServingEngine(
            predictor, serve_server(), mode="adaptive",
            class_slo_ms={0: 2.0, 1: 2.0}, max_queue_depth=8,
            telemetry=tel,
        ).serve(
            X, generate_arrivals(
                LoadSpec(n_requests=n, rate_rps=20.0 * cap, seed=5)
            ), k=5, tenants=tenants, priority_classes=classes,
        )
        assert result.n_shed > 0

        (run,) = tel.runs
        table = run.requests
        assert table.tenant_names == ["a", "b"]
        assert table.tenant == result.requests.tenant
        assert table.priority == classes.tolist()
        assert table.shed == result.requests.shed.tolist()
        assert len(table.shed) - table.shed.count(0) == result.n_shed
        # No span or instant per request or per shed.
        assert {s.name for s in run.spans} == {"run", "serve.batch"}
        assert not run.instants

        breakdown = tenant_breakdown(load_trace_data(tel).run(0))
        assert breakdown is not None
        assert set(breakdown["tenants"]) == {"a", "b"}
        for name in ("a", "b"):
            assert {"completed", "n_shed", "latency_p50_ms",
                    "latency_p99_ms"} <= set(breakdown["tenants"][name])
        assert set(breakdown["classes"]) == {"0", "1"}
        assert_archive_rows_are_live(breakdown, result)
        report = analyze_report(tel)
        (entry,) = report["runs"]
        assert entry["serving_tenants"]["n_shed"] == result.n_shed

    def test_shed_reasons_come_from_the_shed_column(self, predictor,
                                                    micro_task):
        """Door sheds (capacity / utilization) and displacements both
        occur; ``repro analyze`` counts them by reason off the recorded
        column, the same counts the live table holds."""
        from repro.telemetry import Telemetry
        from repro.telemetry.analyze import tenant_breakdown

        n = 400
        tel = Telemetry(label="shed-reasons")
        result = mt_engine(predictor, max_depth=8, telemetry=tel).serve(
            micro_task.test.X,
            generate_arrivals(LoadSpec(
                n_requests=n,
                rate_rps=20.0 * capacity_rps(predictor, micro_task.test.X),
                seed=5,
            )),
            k=5,
            tenants=np.where(np.arange(n) % 2 == 0, "a", "b").astype(object),
            priority_classes=(np.arange(n) % 2).astype(np.int64),
        )
        live = result.requests.shed
        want = {
            reason: int((live == code).sum())
            for code, reason in enumerate(SHED_REASONS)
            if code and (live == code).any()
        }
        assert "displaced" in want and {"capacity", "utilization"} & set(want)
        breakdown = tenant_breakdown(tel.runs[0])
        assert breakdown["shed_reasons"] == dict(sorted(want.items()))
        assert breakdown["n_shed"] == sum(want.values()) == result.n_shed

    def test_untagged_run_has_no_breakdown(self, predictor, micro_task):
        from repro.telemetry import Telemetry
        from repro.telemetry.analyze import tenant_breakdown
        from repro.telemetry.trace_data import load_trace_data

        tel = Telemetry(label="untagged")
        ServingEngine(
            predictor, serve_server(), mode="adaptive", telemetry=tel,
        ).serve(
            micro_task.test.X,
            generate_arrivals(LoadSpec(n_requests=60, rate_rps=1e5, seed=2)),
            k=5,
        )
        assert tenant_breakdown(load_trace_data(tel).run(0)) is None


class TestEngineMultiTenant:
    def test_uniform_split_is_fair(self, predictor, micro_task):
        X = micro_task.test.X
        n = 600
        cap = capacity_rps(predictor, X)
        arrivals = generate_arrivals(
            LoadSpec(n_requests=n, rate_rps=5.0 * cap, seed=7)
        )
        tenants = np.where(np.arange(n) % 2 == 0, "a", "b").astype(object)
        result = ServingEngine(
            predictor, serve_server(), mode="adaptive",
            target_latency_s=2e-3,
        ).serve(X, arrivals, k=5, tenants=tenants,
                priority_classes=np.zeros(n, dtype=np.int64))
        assert set(result.tenants) == {"a", "b"}
        assert result.fairness is not None
        assert result.fairness == pytest.approx(1.0, abs=0.1)
        assert result.as_dict()["fairness"] == result.fairness

    def test_utilization_gate_protects_class_zero(
        self, predictor, micro_task
    ):
        X = micro_task.test.X
        n = 900
        cap = capacity_rps(predictor, X)
        classes = (np.arange(n) % 3).astype(np.int64)
        tenants = np.array(
            [f"t{c}" for c in classes], dtype=object
        )
        arrivals = generate_arrivals(
            LoadSpec(n_requests=n, rate_rps=5.0 * cap, seed=9)
        )
        result = ServingEngine(
            predictor, serve_server(), mode="adaptive",
            class_slo_ms={0: 2.0, 1: 2.0, 2: 2.0},
            admission_utilization=0.5,
        ).serve(X, arrivals, k=5, tenants=tenants,
                priority_classes=classes)
        per_class = result.per_class
        assert per_class[0]["n_shed"] == 0
        assert per_class[0]["completed"] == n // 3
        # Graded: the lowest class sheds at least as much as the middle.
        assert per_class[2]["n_shed"] >= per_class[1]["n_shed"] > 0

    def test_legacy_untagged_run_unchanged(self, predictor, micro_task):
        """No tenant kwargs -> no tenant keys in the result dict."""
        X = micro_task.test.X
        arrivals = generate_arrivals(
            LoadSpec(n_requests=50, rate_rps=1e5, seed=2)
        )
        result = ServingEngine(
            predictor, serve_server(), mode="adaptive",
        ).serve(X, arrivals, k=5)
        as_dict = result.as_dict()
        assert result.tenants == {}
        assert "tenants" not in as_dict
        assert "fairness" not in as_dict

    def test_hot_swap_with_tenants_no_misversioning(
        self, micro_task, tmp_path
    ):
        """Version pinning must hold under multi-tenant load: every
        response scored by the snapshot active at its dispatch."""
        arch = MLPArchitecture(
            micro_task.n_features, micro_task.n_labels, hidden=(32,)
        )
        store = SnapshotStore(tmp_path / "store")
        for version, (seed, t_pub) in enumerate(
            [(21, 0.0), (22, 0.002), (23, 0.004)], start=1
        ):
            snapshot = ModelSnapshot(
                arch=arch, state=SparseMLP(arch).init_state(seed=seed),
                meta={"dataset": "micro"},
            )
            store.publish(snapshot, published_s=t_pub)
        from repro.api import make_engine

        engine = make_engine(
            store, mode="adaptive", n_gpus=2,
            class_slo_ms={0: 2.0, 1: 2.0}, max_queue_depth=256,
        )
        n = 500
        rate = n / 0.008  # arrivals span the publish schedule
        arrivals = generate_arrivals(
            LoadSpec(n_requests=n, rate_rps=rate, seed=3)
        )
        tenants = np.where(np.arange(n) % 2 == 0, "a", "b").astype(object)
        classes = (np.arange(n) % 2).astype(np.int64)
        result = engine.serve(
            micro_task.test.X, arrivals, k=5,
            tenants=tenants, priority_classes=classes,
        )
        assert result.n_swaps >= 1
        assert result.mis_versioned == 0
        assert result.n_shed == 0
        assert len(result.versions_served) >= 2
        assert set(result.tenants) == {"a", "b"}
