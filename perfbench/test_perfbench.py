"""Tests of the benchmark itself: failure accounting, metric names, host-speed
regions, the gap check, stand-alone exit.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from mprobust import SolverConfig, SolverNumericalError, milp, register_backend, run_aq  # noqa: E402
from workloads import Spec, Workload  # noqa: E402

SMALL = Spec(12, 3, "r")            # 3 iterations, 3 distinct
TINY = Workload("tiny", solve=(Spec(10, 2, "r"),), stored=(SMALL,), windows=1)


def _faulty_backend(fail):
    """Install the default backend wrapped so that it raises when ``fail(call_no)``."""
    name = SolverConfig().backend
    original = milp._BACKENDS[name]
    calls = []

    def backend(model, cfg):
        calls.append(model.name)
        if fail(len(calls)):
            raise SolverNumericalError("injected fault")
        return original(model, cfg)

    register_backend(name, backend)
    try:
        yield calls
    finally:
        register_backend(name, original)


@pytest.fixture
def faulty_backend():
    """The default backend, raising on its first call only."""
    yield from _faulty_backend(lambda n: n == 1)


@pytest.fixture
def broken_backend():
    """The default backend, raising on every call."""
    yield from _faulty_backend(lambda n: True)


def test_injected_fault_is_one_failed_op(faulty_backend):
    # the first backend call belongs to the stored set's solve in set-up
    run = workloads.Run(TINY, seed=0)
    metrics, samples = workloads.measure(run, seconds=0.0)
    assert run.ops.failed == 1
    assert run.ops.misses == 0
    assert "injected fault" in run.ops.notes[0]
    assert samples["rounds"] == workloads.MIN_ROUNDS
    assert all(value > 0 for value in metrics.values())


def test_nothing_served_raises_no_samples(broken_backend):
    run = workloads.Run(TINY, seed=0)
    with pytest.raises(workloads.NoSamples):
        workloads.measure(run, seconds=0.0)
    assert run.ops.failed == 2 * workloads.MIN_ROUNDS
    assert run.ops.misses == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = workloads.measure(workloads.Run(TINY, seed=0), seconds=0.0)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    layers, _, samples = workloads.traced(workloads.Run(TINY, seed=0), seconds=0.0)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert samples["pairs"] == 1 and layers["milp.calls"] > 0


def test_host_speed_regions_leave_readings_out():
    speed = HostSpeed()
    with speed.region() as outer:
        time.sleep(0.02)
        with speed.region() as inner:
            time.sleep(0.03)
            speed.tick()                # due only after PERIOD_S
        time.sleep(0.01)
    assert len(speed.readings) == 4     # outer start, inner start, inner end, outer end
    assert 0.03 <= inner[0] < 0.03 + 0.01
    assert 0.06 <= outer[0] < 0.06 + 0.01       # the two inner readings are not in it
    assert outer[1] / outer[0] > 0 and inner[1] / inner[0] > 0


def test_dropping_a_distinct_solution_fails_the_gap_check():
    inst, omega = workloads.generate(SMALL)
    res = run_aq(inst, omega, 0.0)
    assert res.stop_reason == "epsilon_met" and len(res.distinct_x) >= 2
    ref = checks.reference(inst)
    points = checks.omega_vertices(omega)
    assert checks.gap_violation(inst, res.distinct_x, 0.0, ref, points) is None
    assert checks.gap_violation(inst, res.distinct_x[:-1], 0.0, ref, points) is not None


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-scenarios",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
