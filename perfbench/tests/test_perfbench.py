"""Self-test of the benchmark: every workload at its smoke size, in seconds.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import spectracube.tensolve  # noqa: E402
import spectracube.tensor3  # noqa: E402
import run  # noqa: E402
from tracer import self_times_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", "gmres_iterations", "recursion_depth")


def smoke(name, trace):
    return run.run(name, seed=5, seconds=0, trace=trace, smoke=True)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return (request.param,) + smoke(request.param, trace=True)


def test_workloads_match_benchmark_file():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(name):
    _detail, result, tracer = smoke(name, trace=False)
    assert tracer is None
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_metrics_emitted_with_units(traced):
    _name, _detail, result, _tracer = traced
    assert result["correct"] and result["attempted"] == 3
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_span_tree_is_consistent(traced):
    _name, _detail, _result, tracer = traced
    spans = tracer.spans
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["bench.call"]
    for span in spans:
        assert span.start_ns <= span.end_ns
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns
    assert min(self_times_ns(spans)) >= 0


def test_exact_counts_at_known_sizes(traced):
    name, detail, result, _tracer = traced
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "poisson-n80":
        assert metrics["tensolve.laplace_solve.calls"] == 1
        assert metrics["tensolve.gmres_iterations"] == 0
    if name == "eig-n20":
        assert metrics["drivers.solve_output_rhs.calls"] == detail["size"]["steps"]
        assert metrics["tensolve.precond_apply.calls"] == metrics["tensolve.laplace_solve.calls"]
    if name == "cp-fused-n20":
        assert metrics["opdisc.cp_decompose.calls"] == 1
        assert metrics["drivers.solve_output_rhs.calls"] == 1


def test_counts_repeat_between_traced_runs(traced):
    name, _detail, first, _tracer = traced
    second = smoke(name, trace=True)[1]
    for key, value in first["metrics"].items():
        if key.endswith(COUNT_SUFFIXES):
            assert second["metrics"][key]["value"] == value["value"], key


def test_tracer_restores_the_library(traced):
    assert spectracube.tensolve.mode_mult is spectracube.tensor3.mode_mult
    assert not hasattr(spectracube.tensor3.mode_mult, "__wrapped__")
    assert not hasattr(spectracube.tensolve.ReducedLaplaceSolver.solve, "__wrapped__")


def test_command_prints_result_as_last_line():
    # one full-size call of a few seconds: --seconds 0 still makes one call
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson-n80", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    *_, detail, result = map(json.loads, out.stdout.strip().splitlines())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2
    assert detail["samples"] == 1
    env = detail["environment"]
    assert env["seed"] == 2 and env["nproc"] >= 1
    assert env["blas_threads"] and set(env["blas_threads"].values()) == {1}


def test_command_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson-n80", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
