"""The package API that the benchmark in sewbench/ calls.

For each workload this runs the set-up, one operation and the workload's own
checks against its mpmath references, so a change that breaks how the
benchmark calls the package (argument positions, return shapes, the CLI
sweep config) fails here and not only in a benchmark run.
"""

import importlib
import os

import pytest

SEWBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "sewbench")


@pytest.fixture()
def workloads(monkeypatch):
    # sewbench/run.py puts its own directory on sys.path next to src/
    monkeypatch.syspath_prepend(SEWBENCH)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["partition_cold", "kernel_warm", "modular_sweep"])
def test_workload_runs_and_passes_its_checks(workloads, name, tmp_path):
    make = {
        "partition_cold": lambda: workloads.PartitionCold(0),
        "kernel_warm": lambda: workloads.KernelWarm(0),
        "modular_sweep": lambda: workloads.ModularSweep(0, str(tmp_path)),
    }
    workload = make[name]()
    try:
        workload.setup(0)
        out = workload.op(workload.prepare(0))
        checks = workload.check(out, 0)
    finally:
        workload.cleanup()
    assert checks
    failed = [(c.name, c.deviation, c.tolerance) for c in checks if not c.ok]
    assert not failed


def test_reset_caches_finds_the_surface_cache(workloads):
    # partition_cold runs cold only while reset_caches() and cache_misses()
    # find the surface cache under its name; a rename would turn it warm
    from sewkernel import SewingConfig, TwistConfig, build_T, szego

    build_T(4, SewingConfig(0.3 + 1.1j, 0.5 + 2.2j, 1e-3), TwistConfig(0.1, 0.2, 0.0, 0.1), 64)
    assert szego._moment_block_cached.cache_info().currsize > 0
    workloads.reset_caches()
    assert szego._moment_block_cached.cache_info().currsize == 0
    assert isinstance(workloads.cache_misses()[0], int)


def test_benchmark_selftest_reports_no_failures(workloads, monkeypatch, tmp_path, capsys):
    # every benchmark check passes on the program's output and fails once
    # the value it looks at is perturbed (sewbench/selftest.py, in-process)
    import run
    import selftest

    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setenv("SEWKERNEL_THREADS", "1")
    assert selftest.main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 self-test failures"
