"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import accspec  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_emits_every_metric(workload, trace):
    done = _run_tiny(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _tiny_pass(name: str):
    ledger = workloads.Ledger()
    run.run_pass(workloads.build(name, 5, "tiny"), ledger)
    return ledger


def test_perturbed_result_counts_as_failed(monkeypatch):
    assert _tiny_pass("spectral-2d").failed == 0
    original = accspec.variance_radial

    def inflated(kernel, radius):
        rv = original(kernel, radius)
        return dataclasses.replace(rv, value=1.05 * rv.value)

    monkeypatch.setattr(accspec, "variance_radial", inflated)
    ledger = _tiny_pass("spectral-2d")
    assert ledger.failed == 2  # the two disks carry a radial variance
    assert "spectral_vs_radial_variance" in ledger.failures["pw2-disk"]
    assert not ledger.correct


def test_changed_output_counts_as_failed():
    ledger = workloads.Ledger()
    ledger.record("op", [workloads.Check("ok", True)], "digest-a")
    ledger.record("op", [workloads.Check("ok", True)], "digest-b")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failures["op"] == ["deterministic_output"]


def test_known_defect_fails_op_but_keeps_correct():
    ledger = workloads.Ledger()
    ledger.record("fit", [workloads.gap_check("fit", 0.26, 0.1,
                                              known_defect=True)], None)
    assert ledger.failed == 1 and ledger.correct
    assert ledger.gap_max == pytest.approx(2.6)


def _bindings():
    modules = [m for name, m in sys.modules.items()
               if name == "accspec" or name.startswith("accspec.")]
    classes = [accspec.GinibreKernel, accspec.PaleyWienerKernel]
    return {(id(owner), key): value for owner in modules + classes
            for key, value in list(vars(owner).items()) if callable(value)}


def test_tracer_restores_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert accspec.build_grid is not before[(id(accspec), "build_grid")]
        assert accspec.spectrogram.build_grid is accspec.build_grid
        assert not tracer.absent
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_removed_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(accspec.spectrogram, "dilation_snapshot")
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == {"spectrogram.dilation_snapshot"}
    values = tracer.metrics()
    assert values["spectrogram.dilation_snapshot.s"] is None
    assert values["spectrogram.compute_psi.s"] == 0.0


def test_traced_spans_nest_and_self_times_add_up():
    ledger = workloads.Ledger()
    ops = workloads.build("radial-sweep", 5, "tiny")
    tracer = tracing.Tracer()
    with tracer:
        wall, _ = run.run_pass(ops, ledger, tracer)
    values = tracer.metrics()
    total_self = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0.5 * wall < total_self <= wall
    assert values["variance.variance_radial.calls"] == \
        sum(op.name.startswith(("pw", "gin")) for op in ops)
    assert values["discretize.spectral_decompose.s"] == 0.0


def test_bare_directory_exits_without_result():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        done = _run_tiny("radial-sweep", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert "correct" not in done.stdout
