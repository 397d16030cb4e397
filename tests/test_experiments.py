"""Experiment reports: verdicts, determinism, artifact schemas."""

import hashlib
import json
import math

import numpy as np
import pytest

from torspec import experiments
from torspec.cli import main
from torspec.errors import RangeTooLarge, TorspecError
from torspec.experiments import (
    REGISTRY,
    ExperimentReport,
    exp_composite,
    exp_continuity,
    exp_partition_check,
    exp_product,
    exp_spectral_support,
    exp_unclosable,
    exp_wavefront_flip,
    exp_weierstrass,
)


def test_registry_holds_the_eight_experiments():
    assert set(REGISTRY) == {
        "partition-check",
        "unclosable",
        "flip",
        "weierstrass",
        "support",
        "composite",
        "continuity",
        "product",
    }


def test_report_without_assertions_does_not_pass():
    report = ExperimentReport("empty", {})
    assert not report.passed
    report.check_flag("holds", True)
    assert report.passed


def test_partition_check_passes():
    report = exp_partition_check(m=8, n_samples=2000)
    assert report.passed
    for a in report.assertions:
        if a.id.startswith("telescope"):
            assert a.measured <= 1e-15


def test_unclosable_report_contents():
    report = exp_unclosable(d=0.0, n_list=(5, 6))
    assert report.passed
    assert report.metrics["harmonic_ratio[5]"] == pytest.approx(1.0765403443241661, rel=1e-12)
    assert report.metrics["input_norm[5]"] > report.metrics["input_norm[6]"]


def test_python_callers_get_the_parameter_rule():
    # A value is checked against the type of its default and returned in
    # its shape: 5.5 must not run as N = 5, and an int for a float is a float.
    with pytest.raises(ValueError):
        exp_unclosable(n_list=(5.5,))
    with pytest.raises(ValueError):
        exp_unclosable(theta=(1.0,))
    with pytest.raises(ValueError):
        exp_composite(f=("square",), s_list=(math.nan,), M=1024, K=6)
    report = exp_unclosable(d=0, n_list=5, theta=[1])
    assert report.passed
    assert report.params == {"d": 0.0, "n_list": [5], "theta": [1]}
    assert type(report.params["d"]) is float


def test_unclosable_range_guard():
    with pytest.raises(RangeTooLarge):
        exp_unclosable(n_list=(8,))


def test_flip_single_d():
    report = exp_wavefront_flip(d=0.5, j0=5, J=12, with_2d=False)
    assert report.passed
    assert report.metrics["slope_in[1d,d=0.5]"] == pytest.approx(-0.5, abs=0.05)


def test_flip_single_term_reduces_to_one_mode_shift():
    report = exp_wavefront_flip(d=0.25, j0=5, J=5, with_2d=False)
    assert any(a.id.startswith("flip-exact") and a.passed for a in report.assertions)


def test_flip_2d_transport():
    report = exp_wavefront_flip(d=(0.5,), j0=5, J=10, with_2d=True)
    assert report.passed
    assert "slope_out[2d-cross,d=0.5]" in report.metrics


def test_weierstrass_small():
    report = exp_weierstrass(d=(0.5,), J=6, M=4096)
    assert report.passed


def test_weierstrass_grid_guard():
    with pytest.raises(TorspecError):
        exp_weierstrass(d=0.5, J=14, M=2**15)


def test_support_experiment_counts():
    report = exp_spectral_support(seed=3, trials=60)
    assert report.passed
    assert report.metrics["containment_failures"] == 0.0


def test_composite_identity_and_square():
    report = exp_composite(f=("square",), M=1024, K=6)
    assert report.passed
    assert report.metrics["sup_error[square]"] <= 1e-10


def _count_ffts(monkeypatch, run):
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    run()
    monkeypatch.undo()
    return len(calls)


def test_dense_transforms_are_computed_once(monkeypatch):
    # One inverse FFT per nonempty block per d: 2 d values x 4 blocks.
    assert _count_ffts(monkeypatch, lambda: exp_weierstrass(J=4, M=128)) == 8
    # Per function: one forward FFT plus 5 blocks in meyer_symbol and in
    # meyer_apply (12), 2 s x 2 FFTs for F(u) (4) and 2 s x 4 deltas x 2 FFTs
    # for the differences (16); plus 2 FFTs to build u and w and 2 s x 2 FFTs
    # for u's potential, shared by both functions.
    assert _count_ffts(monkeypatch, lambda: exp_composite(seed=0, M=256, K=4)) == 70


def test_composite_unknown_function():
    # An unknown function name is bad input (exit 2), not a resource limit.
    with pytest.raises(ValueError):
        exp_composite(f=("exp",))


def test_continuity_small():
    report = exp_continuity(n_list=(5, 6), j_list=(10, 14), trials=3)
    assert report.passed
    r5 = report.metrics["plain_ratio[s=0,N=5]"]
    r6 = report.metrics["plain_ratio[s=0,N=6]"]
    assert r5 < r6


def test_product_experiment():
    report = exp_product(trials=10)
    assert report.passed
    assert report.metrics["worst_stabilisation_residual"] <= 1e-12


@pytest.mark.parametrize("which", [1, 2])
def test_product_fails_when_an_associativity_diagnostic_fails(monkeypatch, which):
    # Call `which` of each trial's three pi_product runs is pi(f u, v) (1) or
    # pi(u, f v) (2); failing its diagnostic in one trial must fail the report.
    real = experiments.pi_product
    calls = []

    def failing(*args):
        diag, limit = real(*args)
        if len(calls) == 3 + which:  # the second trial's call `which`
            diag.passed = False
        calls.append(diag)
        return diag, limit

    monkeypatch.setattr(experiments, "pi_product", failing)
    report = exp_product(trials=3)
    assert len(calls) == 9
    failed = [a.id for a in report.assertions if not a.passed]
    assert failed == ["all-diagnostics-pass"]


REPORT_SHA256 = "42f863d2f4f520baf6006b940c20748d7984afcf03d5a476dfd4351ad9c2a3fa"


def _hex_floats(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hex_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_hex_floats(v) for v in obj]
    return obj


def test_partition_and_product_reports_are_pinned():
    # SHA-256 of both reports at their defaults and at seed 1, every float as
    # float.hex: any change that moves one bit of a metric or verdict fails.
    h = hashlib.sha256()
    for experiment in (exp_partition_check, exp_product):
        for kwargs in ({}, {"seed": 1}):
            blob = _hex_floats(experiment(**kwargs).to_json())
            h.update(json.dumps(blob, sort_keys=True).encode())
    assert h.hexdigest() == REPORT_SHA256


def test_reports_serialize_deterministically(tmp_path):
    a = exp_spectral_support(seed=5, trials=40)
    b = exp_spectral_support(seed=5, trials=40)
    ja = json.dumps({**a.to_json(), "artifacts": []}, sort_keys=True)
    jb = json.dumps({**b.to_json(), "artifacts": []}, sort_keys=True)
    assert ja == jb


def test_report_schema(tmp_path):
    report = exp_partition_check(m=4, n_samples=100)
    obj = report.to_json()
    assert set(obj) == {"name", "params", "metrics", "assertions", "artifacts"}
    for a in obj["assertions"]:
        assert set(a) == {"id", "measured", "tolerance", "pass"}
    assert all(isinstance(v, (int, float)) for v in obj["metrics"].values())
    argv = ["partition-check", "--m", "4", "--n-samples", "100", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "partition-check" / "partition.csv").exists()
