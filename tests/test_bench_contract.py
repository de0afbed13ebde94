"""What the benchmark in ``perfbench/`` needs from the package.

The tracer probes named functions and methods, reads the results of some of
them (the report of ``gmres_solve``, the pair ``ReducedLaplaceSolver.solve``
returns), and the workloads build their cases from presets; a change that
drops one of those names or reshapes one of those results breaks a traced
benchmark run.  The two modules are loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    module_name = f"_bench_contract_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


tracer = _load("tracer")
workloads = _load("workloads")


def _package_bindings():
    """Every attribute of every loaded package module, and of each probed
    class, as ``{(owner, name): value}``."""
    owners = [
        mod for name, mod in sys.modules.items()
        if mod is not None and (name == tracer.PACKAGE or name.startswith(tracer.PACKAGE + "."))
    ]
    for probe in tracer.LAYER_PROBES:
        owner_name = probe.qualname.rpartition(".")[0]
        if owner_name:
            module = importlib.import_module(f"{tracer.PACKAGE}.{probe.module}")
            owners.append(getattr(module, owner_name))
    return {(id(o), key): value for o in owners for key, value in list(vars(o).items())}


@pytest.mark.parametrize("probe", tracer.LAYER_PROBES, ids=lambda p: f"{p.module}.{p.qualname}")
def test_every_layer_probe_resolves(probe):
    module = importlib.import_module(f"{tracer.PACKAGE}.{probe.module}")
    owner_name, _, attr = probe.qualname.rpartition(".")
    # methods are found in the class's own namespace, as the tracer does
    target = vars(getattr(module, owner_name))[attr] if owner_name else getattr(module, attr)
    assert callable(target)


def test_tracer_puts_every_original_back():
    before = _package_bindings()
    with tracer.Tracer(tracer.LAYER_PROBES):
        during = _package_bindings()
    after = _package_bindings()
    assert any(during[key] is not value for key, value in before.items())
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_builds_its_case(name):
    workload = workloads.WORKLOADS[name]
    for size in (workload.smoke, workload.full):
        case = workload.build(size, 1)
        assert callable(case.call) and callable(case.check)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_smoke_case_passes_its_gate_under_the_tracer(name):
    workload = workloads.WORKLOADS[name]
    case = workload.build(workload.smoke, 1)
    with tracer.Tracer(tracer.LAYER_PROBES) as traced:
        result = case.call()
    assert case.check(result)["ok"]
    metrics = tracer.layer_metrics(traced.spans, traced.counts)
    assert metrics["drivers.solve_output_rhs.calls"][0] >= 1
