"""The benchmark's own tests; they are not part of the package's test suite.

    python3 -m pytest -q benchmarks/test_benchmark.py

Each workload runs for a single timed case (``--seconds 0``), untraced and
twice traced, in fresh processes as the benchmark is run for real.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts that depend only on the inputs and the call structure.
EXACT_COUNTS = (
    "operator.apply.calls",
    "operator.apply.mult_evals",
    "operator.apply.mult_nonzero",
    "operator.apply.out_modes",
    "fields.SparseField.calls",
    "fields.pointwise_mul.pairs",
    "fft.points",
)


def _run(workload: str, trace: int, root: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


def _result(workload: str, trace: int) -> tuple[dict, str]:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


@pytest.fixture(scope="module")
def first_traced():
    return {}


def _check_printed(result: dict, stdout: str, listed: list[dict]) -> None:
    assert result["correct"] is True, stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert "fail_frac = 0.0 ratio" in stdout
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert f"  {m['name']} = {entry['value']!r} {m['unit']}" in stdout


def test_reference_digests_cover_every_workload():
    reference = json.loads((HERE / "reference_digests.json").read_text())
    assert sorted(reference) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_smoke(workload):
    result, stdout = _result(workload, 0)
    _check_printed(result, stdout, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "case_s_tail = " in stdout
    assert f"(reference: {json.loads((HERE / 'reference_digests.json').read_text())[workload]})" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_smoke(workload, first_traced):
    result, stdout = _result(workload, 1)
    _check_printed(result, stdout, SPEC["per_layer"])
    first_traced[workload] = result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload, first_traced):
    if workload not in first_traced:
        first_traced[workload] = _result(workload, 1)[0]["metrics"]
    again = _result(workload, 1)[0]["metrics"]
    for name in EXACT_COUNTS:
        assert again[name]["value"] == first_traced[workload][name]["value"], name


def test_seed_code_anchors(first_traced):
    for workload in ("modulation", "suite"):
        if workload not in first_traced:
            first_traced[workload] = _result(workload, 1)[0]["metrics"]
    modulation, suite = first_traced["modulation"], first_traced["suite"]
    assert modulation["operator.apply.mult_evals"]["value"] == 2_059_444
    assert modulation["operator.apply.mult_nonzero"]["value"] == 55_900
    assert suite["operator.apply.calls"]["value"] == 686
    assert suite["fields.SparseField.calls"]["value"] == 16_417


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(WORKLOADS[0], 0, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
