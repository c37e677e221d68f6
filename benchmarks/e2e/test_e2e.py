"""Self-tests of the e2e benchmark: ``python -m pytest benchmarks/e2e -q``.

Outside tier-1 ``testpaths`` on purpose: these spawn the benchmark's own
child processes. The smoke run uses shrunken sizes; its numbers mean nothing
and are never written to BENCHMARK.json.
"""

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from check import check_files, compare_timing  # noqa: E402
from tracer import Tracer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- tracer, on a toy module -------------------------------------------------------
@pytest.fixture()
def toy():
    """``toy`` defines the callables; ``toy.user`` imported ``leaf`` by name,
    the way ``repro.sparse.mlp`` binds ``softmax_cross_entropy``."""
    mod = types.ModuleType("toy")
    user = types.ModuleType("toy.user")

    def spin(n):
        return sum(i * i for i in range(n))

    def leaf(n):
        return spin(n)

    def outer(n):
        spin(n)
        return user.leaf(n) + user.leaf(n)

    def numbers():
        yield 1

    def boom():
        raise RuntimeError("boom")

    class Thing:
        def method(self, n):
            return leaf(n)

        @classmethod
        def make(cls):
            return cls()

        @staticmethod
        def helper():
            return 7

    class Child(Thing):
        pass

    for name, obj in dict(leaf=leaf, outer=outer, numbers=numbers, boom=boom,
                          Thing=Thing, Child=Child, constant=3).items():
        setattr(mod, name, obj)
    user.leaf = leaf
    sys.modules["toy"], sys.modules["toy.user"] = mod, user
    yield mod
    del sys.modules["toy"], sys.modules["toy.user"]


def test_nested_self_times_sum_to_the_root(toy):
    tracer = Tracer()
    with tracer.tracing({"outer": ["toy:outer"], "leaf": ["toy:leaf"]}):
        toy.outer(20000)
    stats = tracer.lane_stats()
    assert stats["outer"]["calls"] == 1 and stats["leaf"]["calls"] == 2
    # outer's self time excludes the two leaf spans it encloses ...
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["leaf"]["total_s"])
    assert stats["outer"]["self_s"] > 0 and stats["leaf"]["self_s"] > 0
    # ... so all self times add up to the traced total by construction.
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(
        tracer.root_s, rel=1e-9)
    # Stored spans carry their parent: both leaf spans sit under outer's.
    by_lane = {}
    for span_id, parent, lane, start, end in tracer.spans:
        by_lane.setdefault(lane, []).append((span_id, parent))
        assert end >= start
    (outer_id, outer_parent), = by_lane["outer"]
    assert outer_parent == 0
    assert [p for _, p in by_lane["leaf"]] == [outer_id, outer_id]


def test_span_cap_aggregates_instead_of_storing(toy):
    tracer = Tracer(span_cap=3)
    with tracer.tracing({"leaf": ["toy:leaf"]}):
        for _ in range(10):
            toy.leaf(10)
    assert tracer.lane_stats()["leaf"]["calls"] == 10
    assert sum(1 for s in tracer.spans if s[2] == "leaf") == 3


def test_class_attributes_of_every_kind_are_wrapped_and_restored(toy):
    before = dict(vars(toy.Thing))
    tracer = Tracer()
    targets = ["toy:Thing.method", "toy:Thing.make", "toy:Thing.helper",
               "toy:Child.method"]
    with tracer.tracing({"thing": targets}):
        assert isinstance(toy.Thing.make(), toy.Thing)
        assert toy.Thing.helper() == 7
        toy.Thing().method(5)
        toy.Child().method(5)  # inherited: the patch lands on Child itself
    assert not tracer.missing
    assert tracer.lane_stats()["thing"]["calls"] == 5  # Child's nests Thing's
    assert dict(vars(toy.Thing)) == before
    assert "method" not in vars(toy.Child)


def test_generator_functions_and_non_functions_are_refused(toy):
    tracer = Tracer()
    with tracer.tracing({"gen": ["toy:numbers"], "const": ["toy:constant"]}):
        assert list(toy.numbers()) == [1]
    assert "generator function" in tracer.missing["toy:numbers"]
    assert "toy:constant" in tracer.missing
    assert tracer.lane_stats()["gen"]["calls"] == 0


def test_unresolvable_targets_are_listed_never_raised(toy):
    tracer = Tracer()
    targets = ["toy:gone", "toy:Thing.gone", "toy:Gone.method",
               "no_such_module_anywhere:f", "toy:leaf"]
    with tracer.tracing({"lane": targets}):
        toy.leaf(3)
    assert sorted(tracer.missing) == sorted(targets[:-1])
    assert tracer.lane_stats()["lane"]["calls"] == 1


def test_wrappers_are_restored_after_an_exception(toy):
    originals = (toy.leaf, toy.boom, sys.modules["toy.user"].leaf,
                 vars(toy.Thing)["method"])
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.tracing({"a": ["toy:leaf", "toy:boom"],
                             "b": ["toy:Thing.method"]}):
            assert toy.leaf is not originals[0]
            assert sys.modules["toy.user"].leaf is toy.leaf
            toy.boom()
    assert (toy.leaf, toy.boom, sys.modules["toy.user"].leaf,
            vars(toy.Thing)["method"]) == originals
    # The span of the raising call was still closed and accounted.
    assert tracer.lane_stats()["a"]["calls"] == 1
    assert tracer.root_s > 0


def test_counted_targets_and_counters(toy):
    tracer = Tracer()
    counters = {
        "toy:outer": [("outer.n", lambda a, k, r: a[0]),
                      ("outer.broken", lambda a, k, r: a[5])],
    }
    with tracer.tracing({"loop": ["toy:outer"]}, counters,
                        counted={"loop": ["toy:leaf"]}):
        toy.outer(100)
        toy.outer(50)
    # calls = the counted per-item callable; time = the enclosing loop.
    assert tracer.lane_stats()["loop"]["calls"] == 4
    assert tracer.counters["outer.n"] == 150
    assert "IndexError" in tracer.broken_counters["outer.broken"]


# -- the comparison rule -------------------------------------------------------------
def cell(median, spread=0.0):
    return {"median": median, "min": median * (1 - spread / 2),
            "max": median * (1 + spread / 2), "n": 3}


@pytest.mark.parametrize("name,a,b,verdict", [
    ("host_s", cell(4.0), cell(4.2), "same"),
    ("host_s", cell(4.0), cell(4.5), "worse"),
    ("host_s", cell(4.0), cell(3.0), "better"),
    ("ops_per_host_s", cell(100.0), cell(85.0), "worse"),
    ("ops_per_host_s", cell(100.0), cell(120.0), "better"),
    # Either input's own range wider than the bound: not "same".
    ("host_s", cell(4.0, spread=0.3), cell(4.1), "unresolved"),
    ("host_s", cell(4.0), cell(3.9, spread=0.3), "unresolved"),
    # ... unless every sample of B beats every sample of A.
    ("host_s", cell(4.0, spread=0.3), cell(2.0), "better"),
    # A noisy input does not excuse a median beyond the bound.
    ("host_s", cell(4.0, spread=0.3), cell(5.0), "worse"),
])
def test_compare_timing(name, a, b, verdict):
    assert compare_timing(name, a, b, bound=0.10)[0] == verdict


def result_set(tmp_path, name, host_s, accuracy=0.8, **manifest):
    base = {"python": "3.11.7", "numpy": "2", "scipy": "1", "cpu_model": "x",
            "seed": 0, "smoke": False}
    path = tmp_path / name
    path.write_text(json.dumps({
        "manifest": {**base, **manifest},
        "results": [{"workload": "train-micro", "end_to_end": {
            "host_s": cell(host_s), "accuracy": {"value": accuracy},
            "sim_p99_ms": {"value": None},
        }}],
    }))
    return path


def test_check_exit_codes(tmp_path, capsys):
    check = lambda a, b, force=False: check_files(  # noqa: E731
        a, b, bounds={"host_s": 0.10}, force=force)
    a = result_set(tmp_path, "a.json", 4.0)
    assert check(a, result_set(tmp_path, "b.json", 4.1)) == 0
    assert check(a, result_set(tmp_path, "c.json", 4.6)) == 1
    # Simulated statistics are compared exactly for equal seeds ...
    assert check(a, result_set(tmp_path, "d.json", 4.0, accuracy=0.79)) == 1
    # ... and not at all across seeds.
    assert check(
        a, result_set(tmp_path, "e.json", 4.0, accuracy=0.7, seed=1)) == 0
    other_cpu = result_set(tmp_path, "f.json", 4.0, cpu_model="y")
    assert check(a, other_cpu) == 2
    assert "refusing" in capsys.readouterr().out
    assert check(a, other_cpu, force=True) == 0


# -- the benchmark itself, at smoke sizes -----------------------------------------
def run_benchmark(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0.3",
         *args],
        capture_output=True, text=True, timeout=300,
    )


def git_status():
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True).stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "result.json"
    before = git_status()
    done = run_benchmark("--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return {"stdout": done.stdout, "before": before, "after": git_status(),
            **json.loads(out.read_text())}


def test_smoke_run_emits_every_workload_and_metric(smoke):
    results = {r["workload"]: r for r in smoke["results"]}
    assert list(results) == [w["name"] for w in CONTRACT["workloads"]]
    end_to_end = [m["name"] for m in CONTRACT["end_to_end"]]
    per_layer = [m["name"] for m in CONTRACT["per_layer"]]
    for name in [*results, *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    for name, result in results.items():
        assert result["correct"], result["problems"]
        assert set(end_to_end) <= set(result["end_to_end"])
        assert sorted(result["per_layer"]) == sorted(per_layer)
        for metric in [*end_to_end, *per_layer]:
            assert f" {metric} " in smoke["stdout"], metric
        for metric in end_to_end:
            cell = result["end_to_end"][metric]
            assert cell.get("median", cell.get("value")) > 0, (name, metric)


def test_smoke_traced_pass_attributes_all_time(smoke):
    for result in smoke["results"]:
        layer = result["per_layer"]
        assert layer["trace.residual_frac"] <= 1e-6
        assert layer["trace.missing_lanes"] == 0, result["trace_notes"]
        assert not result["trace_notes"]["broken_counters"]
        if result["workload"] in ("train-micro", "train-xml", "serve-replay",
                                  "serve-tenants"):
            assert layer["telemetry.record.calls"] == 0  # the NULL sink
    grid = {r["workload"]: r for r in smoke["results"]}["trace-grid"]
    assert grid["per_layer"]["telemetry.record.calls"] > 0
    assert grid["per_layer"]["perf.slide_kernel.calls"] > 0


def test_smoke_run_is_hermetic(smoke):
    assert smoke["before"] == smoke["after"]
    assert not (HERE / "_work").exists()


def test_manifest_names_the_environment(smoke):
    manifest = smoke["manifest"]
    for key in ("python", "numpy", "scipy", "cpu_model", "nproc", "seed",
                "thread_pins", "setups", "git_commit"):
        assert manifest[key] not in (None, ""), key
    assert manifest["smoke"] is True


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_contract_line(trace, section):
    done = run_benchmark("--workload", "serve-tenants", "--seed", "3",
                         "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in CONTRACT[section])
    units = {m["name"]: m["unit"] for m in CONTRACT[section]}
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
