"""Tests for repro.serve.loadgen — arrival processes, multi-tenant load
merging, vectorized percentile accounting, tenant accounts, and the
latency report a ServeResult carries."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.serve.loadgen import (
    LoadSpec,
    TenantLoad,
    fairness_ratio,
    generate_arrivals,
    generate_multi_tenant_arrivals,
    grouped_nearest_rank_percentiles,
    nearest_rank_percentile,
    nearest_rank_percentiles,
    noisy_neighbor_loads,
    sample_query_rows,
    service_time_s,
    tenant_accounts,
)
import repro.serve.loadgen as loadgen
import repro.serve.queue as queue
from repro.serve.result import ServeResult
from repro.telemetry.events import REQUEST_COLUMNS, RequestTable


class TestLoadSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(n_requests=0, rate_rps=10.0),
        dict(n_requests=10, rate_rps=0.0),
        dict(n_requests=10, rate_rps=10.0, pattern="sine"),
        dict(n_requests=10, rate_rps=10.0, burst_factor=1.0),
        dict(n_requests=10, rate_rps=10.0, burst_fraction=0.0),
        dict(n_requests=10, rate_rps=10.0, burst_fraction=1.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LoadSpec(**kwargs)


class TestArrivals:
    def test_poisson_count_and_order(self):
        spec = LoadSpec(n_requests=500, rate_rps=1000.0, seed=1)
        t = generate_arrivals(spec)
        assert t.shape == (500,)
        assert np.all(np.diff(t) >= 0)
        assert np.all(t > 0)

    def test_poisson_mean_rate(self):
        spec = LoadSpec(n_requests=5000, rate_rps=1000.0, seed=2)
        t = generate_arrivals(spec)
        observed = spec.n_requests / t[-1]
        assert observed == pytest.approx(1000.0, rel=0.1)

    def test_deterministic_per_seed(self):
        spec = LoadSpec(n_requests=100, rate_rps=50.0, seed=7)
        assert np.array_equal(generate_arrivals(spec), generate_arrivals(spec))
        other = LoadSpec(n_requests=100, rate_rps=50.0, seed=8)
        assert not np.array_equal(
            generate_arrivals(spec), generate_arrivals(other)
        )

    def test_burst_preserves_average_rate(self):
        spec = LoadSpec(
            n_requests=8000, rate_rps=1000.0, pattern="burst", seed=3
        )
        t = generate_arrivals(spec)
        assert t.shape == (8000,)
        assert np.all(np.diff(t) >= 0)
        observed = spec.n_requests / t[-1]
        assert observed == pytest.approx(1000.0, rel=0.1)

    def test_burst_has_hot_and_cold_phases(self):
        """The gap distribution must be bimodal: hot gaps ~factor x shorter."""
        spec = LoadSpec(
            n_requests=4000, rate_rps=1000.0, pattern="burst",
            burst_factor=8.0, seed=4,
        )
        gaps = np.diff(generate_arrivals(spec))
        median = np.median(gaps)
        hot = gaps[gaps < median / 2]
        cold = gaps[gaps > median]
        assert hot.size > 100 and cold.size > 100
        assert cold.mean() / hot.mean() > 4.0


class TestQueryRows:
    def test_in_bounds_and_deterministic(self):
        rows = sample_query_rows(37, 400, seed=5)
        assert rows.shape == (400,)
        assert rows.min() >= 0 and rows.max() < 37
        assert np.array_equal(rows, sample_query_rows(37, 400, seed=5))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_query_rows(0, 10)


class TestNearestRankPercentile:
    def test_textbook_values(self):
        values = list(range(1, 11))  # 1..10
        assert nearest_rank_percentile(values, 50) == 5
        assert nearest_rank_percentile(values, 95) == 10
        assert nearest_rank_percentile(values, 100) == 10
        assert nearest_rank_percentile(values, 1) == 1

    def test_is_an_observed_value(self):
        values = [0.2, 5.0, 9.0]
        for p in (10, 50, 90, 99):
            assert nearest_rank_percentile(values, p) in values

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            nearest_rank_percentile([1.0], 0)
        with pytest.raises(ConfigurationError):
            nearest_rank_percentile([1.0], 101)
        with pytest.raises(ConfigurationError):
            nearest_rank_percentile([], 50)


class TestMultiTenantArrivals:
    def _loads(self):
        return [
            TenantLoad(
                "a", LoadSpec(n_requests=300, rate_rps=900.0, seed=1), 0
            ),
            TenantLoad(
                "b", LoadSpec(n_requests=200, rate_rps=600.0, seed=2), 1
            ),
        ]

    def test_merge_is_sorted_and_tagged(self):
        times, tenants, classes = generate_multi_tenant_arrivals(
            self._loads()
        )
        assert times.shape == tenants.shape == classes.shape == (500,)
        assert np.all(np.diff(times) >= 0)
        assert np.sum(tenants == "a") == 300
        assert np.sum(tenants == "b") == 200
        assert np.all(classes[tenants == "a"] == 0)
        assert np.all(classes[tenants == "b"] == 1)

    def test_tenant_schedule_independent_of_contention(self):
        """A tenant's arrival times are identical solo vs merged — the
        property the noisy-neighbor comparison rests on."""
        loads = self._loads()
        solo = generate_arrivals(loads[0].spec)
        times, tenants, _ = generate_multi_tenant_arrivals(loads)
        assert np.array_equal(times[tenants == "a"], solo)

    def test_duplicate_tenant_rejected(self):
        loads = self._loads()
        loads[1] = TenantLoad("a", loads[1].spec, 1)
        with pytest.raises(ConfigurationError, match="duplicate"):
            generate_multi_tenant_arrivals(loads)

    def test_tenant_load_validated(self):
        spec = LoadSpec(n_requests=10, rate_rps=10.0)
        with pytest.raises(ConfigurationError):
            TenantLoad("", spec)
        with pytest.raises(ConfigurationError):
            TenantLoad("a", spec, priority_class=-1)


class TestNoisyNeighborLoads:
    """The scenario ``repro serve --tenants`` and ``bench_serve`` run."""

    @pytest.mark.parametrize("capacity", [1e3, 56693.9 / 0.3, 1.234e6])
    @pytest.mark.parametrize("n_victim", [1, 200, 2000])
    @pytest.mark.parametrize("factor", [0.5, 10.0, 20.0, 40.0])
    def test_offered_load_is_what_the_benchmark_assumes(
            self, capacity, n_victim, factor):
        """``benchmarks/e2e`` scores ``serve --tenants`` assuming
        n_victim + round(factor x n_victim / 0.6) offered requests, +-1."""
        loads = noisy_neighbor_loads(capacity, n_victim, factor, "poisson", 0)
        offered = loads.contended[0].size
        assert abs(offered - (n_victim + round(factor * n_victim / 0.6))) <= 1
        assert loads.solo[0].size == n_victim
        assert loads.victim_rps == 0.3 * capacity
        assert loads.aggressor_rps == factor * (capacity / 2.0)

    @pytest.mark.parametrize("pattern", ["poisson", "burst"])
    def test_two_seeded_streams_and_one_victim_schedule(self, pattern):
        loads = noisy_neighbor_loads(5e4, 300, 10.0, pattern, 7)
        solo_times, solo_names, solo_classes = loads.solo
        times, names, classes = loads.contended
        assert np.array_equal(solo_times, times[names == "victim"])
        assert set(solo_names) == {"victim"} and not solo_classes.any()
        assert np.array_equal(
            times[names == "aggressor"],
            generate_arrivals(LoadSpec(
                int((names == "aggressor").sum()), loads.aggressor_rps,
                pattern, seed=8)))
        assert np.array_equal(classes, (names == "aggressor").astype(int))
        assert np.array_equal(
            solo_times,
            generate_arrivals(LoadSpec(300, loads.victim_rps, pattern,
                                       seed=7)))

    def test_the_generators_are_called_through_the_module(self,
                                                          monkeypatch):
        """What lets a tracer that rebinds the module's names see them."""
        calls = []
        merge = loadgen.generate_multi_tenant_arrivals
        monkeypatch.setattr(
            loadgen, "generate_multi_tenant_arrivals",
            lambda loads: calls.append(len(loads)) or merge(loads))
        noisy_neighbor_loads(5e4, 50, 10.0, "poisson", 0)
        assert calls == [1, 2]

    def test_service_time_prices_one_query_with_every_device_active(self):
        priced = []

        class Model:
            def inference_time(self, workload, *, n_active_gpus):
                priced.append((workload, n_active_gpus))
                return 2e-5

        class Predictor:
            def workload(self, X):
                return X.shape[0]

        server = SimpleNamespace(gpus=[SimpleNamespace(cost_model=Model()),
                                       SimpleNamespace(cost_model=None)],
                                 n_gpus=2)
        X = np.zeros((5, 3))
        assert service_time_s(Predictor(), server, X) == 2e-5
        assert priced == [(1, 2)]


class TestBulkPercentiles:
    def test_matches_scalar_implementation(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(size=257)
        ps = (1.0, 50.0, 95.0, 99.0, 100.0)
        bulk = nearest_rank_percentiles(values, ps)
        for p, got in zip(ps, bulk):
            assert got == nearest_rank_percentile(values, p)

    def test_grouped_matches_per_group_calls(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 4, size=500)
        values = rng.exponential(size=500)
        ps = (50.0, 99.0)
        table = grouped_nearest_rank_percentiles(codes, values, ps, 5)
        assert table.shape == (5, 2)
        for g in range(4):
            group = values[codes == g]
            for j, p in enumerate(ps):
                assert table[g, j] == nearest_rank_percentile(group, p)
        assert np.all(np.isnan(table[4]))  # empty group -> NaN row

    def test_single_element_groups(self):
        table = grouped_nearest_rank_percentiles(
            np.array([0, 1]), np.array([3.0, 7.0]), (50.0, 99.0), 2
        )
        assert np.array_equal(table, [[3.0, 3.0], [7.0, 7.0]])


def accounts(names, completed, shed, window_s):
    """``tenant_accounts`` of a recorded request table: ``completed``
    ``(tenant code, class, latency)`` rows, then ``shed`` ``(tenant code,
    class)`` rows."""
    table = RequestTable(list(names))
    nan = float("nan")
    rows = [(0.0, 0.0, lat, 0, 0, t, c, 0) for t, c, lat in completed]
    rows += [(0.0, nan, nan, -1, -1, t, c, 1) for t, c in shed]
    for row in rows:
        for name, value in zip(REQUEST_COLUMNS, row):
            getattr(table, name).append(value)
    latencies = np.array([lat for _, _, lat in completed])
    return tenant_accounts(table, latencies, window_s)


class TestPerTenantStats:
    def test_stats_and_shed_rows(self):
        stats, classes, fairness = accounts(
            ["a", "b", "ghost"], [(0, 0, 0.1), (0, 0, 0.3), (1, 1, 0.2)],
            [(0, 0)] + [(2, 2)] * 4, 2.0,
        )
        assert stats["a"]["completed"] == 2
        assert stats["a"]["n_shed"] == 1
        assert stats["a"]["throughput_rps"] == pytest.approx(1.0)
        assert stats["a"]["latency_p99_ms"] == pytest.approx(300.0)
        assert stats["a"]["priority_classes"] == [0]
        assert stats["b"]["priority_classes"] == [1]
        # A tenant whose every request was shed still gets a row, with no
        # latency or throughput figures.
        assert stats["ghost"] == {"completed": 0, "n_shed": 4}
        assert list(stats) == ["a", "b", "ghost"]
        assert classes == {
            0: {"completed": 2, "latency_p99_ms": pytest.approx(300.0),
                "n_shed": 1},
            1: {"completed": 1, "latency_p99_ms": pytest.approx(200.0),
                "n_shed": 0},
            2: {"completed": 0, "n_shed": 4},
        }
        assert fairness == np.inf

    def test_a_tenant_in_two_classes_lists_both(self):
        stats, _, fairness = accounts(
            ["a", "b"], [(1, 2, 0.1), (0, 1, 0.1), (1, 0, 0.1), (1, 2, 0.1)],
            [], 1.0,
        )
        assert stats["a"]["priority_classes"] == [1]
        assert stats["b"]["priority_classes"] == [0, 2]
        assert fairness == pytest.approx(3.0)

    def test_zero_makespan_has_zero_throughput_and_no_fairness(self):
        stats, _, fairness = accounts(
            ["a", "b"], [(0, 0, 0.0), (1, 0, 0.0)], [], 0.0,
        )
        assert stats["a"]["throughput_rps"] == 0.0
        assert fairness is None

    def test_misaligned_codes_rejected(self):
        """One latency per completed row (shed code 0), no more, no less."""
        table = RequestTable(["a"], [0.0] * 2, [0.0] * 2, [0.1] * 2, [0] * 2,
                             [0] * 2, [0, 0], [0, 0], [0, 0])
        with pytest.raises(ConfigurationError, match="1 latencies for 2"):
            tenant_accounts(table, np.array([0.1]), 1.0)

    def test_live_and_recorded_tables_give_the_same_rows(self):
        """``tenant_accounts`` reads a live ``RunRequests`` and its
        recorded lists alike."""
        from repro.sim.environment import Environment
        from repro.telemetry.core import Telemetry

        live = queue.RunRequests(
            np.arange(6), np.linspace(0.0, 0.5, 6), list("abab" + "cc"),
            [0, 1, 0, 1, 2, 2], 3,
        )
        latencies = np.array([0.1, 0.4, 0.2, 0.3])
        live.done[:4] = live.arrival[:4] + latencies
        live.shed[4:] = queue.CAPACITY
        tel = Telemetry()
        tel.attach(Environment())
        tel.record_requests(live)
        recorded = tel.runs[0].requests
        assert recorded.shed == [0, 0, 0, 0, 1, 1]
        assert tenant_accounts(live, latencies, 1.0) \
            == tenant_accounts(recorded, latencies, 1.0)


class TestFairnessRatio:
    def test_equal_throughput_is_one(self):
        stats = {
            "a": {"throughput_rps": 5.0},
            "b": {"throughput_rps": 5.0},
        }
        assert fairness_ratio(stats) == pytest.approx(1.0)

    def test_ratio_is_max_over_min(self):
        stats = {
            "a": {"throughput_rps": 10.0},
            "b": {"throughput_rps": 5.0},
            "c": {"throughput_rps": 8.0},
        }
        assert fairness_ratio(stats) == pytest.approx(2.0)

    def test_degenerate_cases(self):
        assert fairness_ratio({"a": {"throughput_rps": 1.0}}) is None
        starved = {
            "a": {"throughput_rps": 1.0},
            "b": {"throughput_rps": 0.0},
        }
        assert fairness_ratio(starved) == np.inf
        # A row without a throughput (no completions) is a starved tenant.
        assert fairness_ratio({"a": {"throughput_rps": 1.0}, "b": {}}) == (
            np.inf
        )
        assert fairness_ratio({"a": {}, "b": {}}) is None


def bare_result(latencies_s, queue_delays_s, batch_sizes, makespan_s):
    """A :class:`ServeResult` holding only the given latency columns."""
    n = len(latencies_s)
    return ServeResult(
        mode="adaptive",
        requests=queue.RunRequests(
            np.arange(n), np.zeros(n), None, None, 1
        ),
        labels=np.full((n, 5), -1, dtype=np.int32),
        latencies_s=np.asarray(latencies_s, dtype=np.float64),
        queue_delays_s=np.asarray(queue_delays_s, dtype=np.float64),
        makespan_s=makespan_s,
        batch_sizes=batch_sizes,
    )


class TestLatencyReport:
    """The latency columns and views a :class:`ServeResult` carries."""

    def _result(self):
        return bare_result(
            [0.1, 0.2, 0.3, 0.4], [0.0, 0.1, 0.1, 0.2], [2, 2], 2.0
        )

    def test_throughput(self):
        assert self._result().throughput_rps == pytest.approx(2.0)
        empty = bare_result([], [], [], 0.0)
        assert empty.throughput_rps == 0.0
        assert empty.mean_batch_size == 0.0

    def test_latency_ms_is_one_sort_of_the_percentiles(self):
        result = self._result()
        assert result.latency_ms() == [
            result.percentile(p) * 1e3 for p in (50, 95, 99)
        ]

    def test_as_dict_is_json_safe(self, tmp_path):
        from repro.utils.serialization import save_json

        doc = self._result().as_dict()
        assert doc["latency_p50_ms"] == pytest.approx(200.0)
        assert doc["mean_batch_size"] == pytest.approx(2.0)
        assert doc["mode"] == "adaptive"
        save_json(tmp_path / "report.json", doc)  # must not raise
