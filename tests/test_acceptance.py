"""Acceptance suite: one test per shipped criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output on failure) and enforces its runtime budget.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from torspec.constructions import (
    lacunary_field,
    random_band_limited,
    vanishing_family,
)
from torspec.cutoffs import default_families, telescope_check
from torspec.experiments import (
    exp_composite,
    exp_continuity,
    exp_spectral_support,
    exp_unclosable,
    exp_wavefront_flip,
    exp_weierstrass,
    random_symbol,
)
from torspec.fields import (
    SparseField,
    delta_field,
    inner_product,
    pointwise_mul,
)
from torspec.norms import sobolev_norm
from torspec.operator import (
    adjoint_apply_ching,
    apply,
    apply_modulated,
    corona_check,
    paradiff_split,
    pi_product,
    rel_coeff_diff,
    spectral_kernel,
    vanishing_limit,
)
from torspec.symbols import ching_symbol, twisted_diagonal_check


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_partition_identity():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for fam in default_families():
        prof = fam.profile
        top = int(prof.R * 2**8) + 2
        samples = [(int(k),) for k in rng.integers(-top, top + 1, size=10_000)]
        worst = max(worst, telescope_check(prof, 8, samples))
    elapsed = time.time() - t0
    _verdict(
        "criterion 1 (partition identity)",
        worst <= 1e-15 and elapsed < 1.0,
        f"max deviation {worst:.2e} (tol 1e-15), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_unclosability():
    t0 = time.time()
    theta = (1,)
    norms = []
    ok = True
    details = []
    for N in (5, 6, 7):
        vN, v, j_hi = vanishing_family(N, 0.0, theta)
        _, a = ching_symbol(0.0, theta, N, j_hi)
        out = apply(a, vN)
        # independent oracle: exact rational harmonic sums
        rN = float(sum(Fraction(1, j) for j in range(N, N * N + 1))) / math.log(N)
        resid = rel_coeff_diff(out, v.scale(rN))
        hi = math.log(N * N / (N - 1.0)) / math.log(N)
        ok = ok and resid <= 1e-12 and 1.0 <= rN <= hi
        norms.append(sobolev_norm(vN, 0.0))
        details.append(f"N={N}: resid {resid:.1e}, r_N {rN:.4f} in [1,{hi:.4f}]")
    ok = ok and norms[0] > norms[1] > norms[2]
    elapsed = time.time() - t0
    _verdict(
        "criterion 2 (unclosability)",
        ok and elapsed < 5.0,
        "; ".join(details) + f"; norms decreasing {norms}; {elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_wavefront_flip():
    t0 = time.time()
    report = exp_wavefront_flip(d=(0.0, 0.5, 1.0), j0=5, J=20, theta=(1,), with_2d=True)
    elapsed = time.time() - t0
    failed = [a.id for a in report.assertions if not a.passed]
    _verdict(
        "criterion 3 (wavefront flip)",
        report.passed and elapsed < 5.0,
        f"{len(report.assertions)} assertions, failed: {failed}; {elapsed:.2f}s (< 5s)",
    )


def test_criterion_4_weierstrass_block_norms():
    t0 = time.time()
    report = exp_weierstrass(d=(0.5, 1.0), J=12, M=2**15, p_list=(1.0, 2.0, 4.0))
    elapsed = time.time() - t0
    failed = [a.id for a in report.assertions if not a.passed]
    _verdict(
        "criterion 4 (lacunary block norms)",
        report.passed and elapsed < 10.0,
        f"unit-norm checks at d in (0.5, 1.0), failed: {failed}; {elapsed:.2f}s (< 10s)",
    )


def test_criterion_5_spectral_support_rule():
    t0 = time.time()
    report = exp_spectral_support(seed=7, trials=500)
    elapsed = time.time() - t0
    _verdict(
        "criterion 5 (spectral support rule)",
        report.passed and elapsed < 30.0,
        f"containment failures {report.metrics['containment_failures']:.0f}/500,"
        f" strict witness engineered; {elapsed:.2f}s (< 30s)",
    )


def test_criterion_6_paradifferential_reconstruction():
    t0 = time.time()
    fam = default_families()[0]
    rng = np.random.default_rng(17)
    worst = 0.0
    corona_ok = True
    for _ in range(100):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 10, 300, rng)
        m = 11
        t1, t2, t3 = paradiff_split(a, u, fam, m)
        ref = apply_modulated(a, u, fam.profile, m)
        worst = max(worst, rel_coeff_diff(t1.add(t2).add(t3), ref))
        for k in range(0, 11, 2):
            corona_ok = corona_ok and corona_check(a, u, fam, k).ok
    # twisted-diagonal refinement on the doubled direction
    _, a2 = ching_symbol(0.0, (2,), 5, 12)
    ok2, _ = twisted_diagonal_check(a2, 2.0)
    w = lacunary_field((1,), 0.5, 5, 12, delta_field((0,)))
    refined_ok = ok2
    for k in range(0, 15):
        refined_ok = refined_ok and corona_check(a2, w, fam, k, tdc_constant=2.0).ok
    elapsed = time.time() - t0
    _verdict(
        "criterion 6 (paradifferential reconstruction)",
        worst <= 1e-12 and corona_ok and refined_ok and elapsed < 30.0,
        f"100 instances, worst residual {worst:.1e} (tol 1e-12), coronas"
        f" {'ok' if corona_ok and refined_ok else 'VIOLATED'}; {elapsed:.2f}s (< 30s)",
    )


def test_criterion_7_composite_factorisation():
    t0 = time.time()
    report = exp_composite(f=("sin", "square"), seed=11, M=4096, K=7, Q=32)
    elapsed = time.time() - t0
    sup_sin = report.metrics["sup_error[sin]"]
    sup_sq = report.metrics["sup_error[square]"]
    lip_ok = all(a.passed for a in report.assertions if a.id.startswith("lipschitz"))
    _verdict(
        "criterion 7 (composite factorisation)",
        sup_sin <= 1e-8 and sup_sq <= 1e-10 and lip_ok and elapsed < 20.0,
        f"sup errors: sin {sup_sin:.1e} (tol 1e-8), square {sup_sq:.1e} (tol 1e-10),"
        f" Lipschitz bounded; {elapsed:.2f}s (< 20s)",
    )


def test_criterion_8_continuity_dichotomy():
    t0 = time.time()
    report = exp_continuity(
        seed=23, d=0.0, theta=(1,), n_list=(5, 6, 7, 8), j_list=(10, 20, 30, 40), trials=6
    )
    elapsed = time.time() - t0
    failed = [a.id for a in report.assertions if not a.passed]
    ratios = [report.metrics[f"plain_ratio[s=0,N={N}]"] for N in (5, 6, 7, 8)]
    _verdict(
        "criterion 8 (continuity dichotomy)",
        report.passed and elapsed < 60.0,
        f"plain ratios {['%.2f' % r for r in ratios]} increasing, twisted bounded,"
        f" failed: {failed}; {elapsed:.2f}s (< 60s)",
    )


def test_criterion_9_operator_algebra_properties():
    t0 = time.time()
    rng = np.random.default_rng(29)
    profiles = [f.profile for f in default_families()]
    cases = 200

    worst_lin = 0.0
    for _ in range(cases):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 5, 80, rng)
        v = random_band_limited(1, 5, 80, rng)
        al = complex(rng.normal(), rng.normal())
        be = complex(rng.normal(), rng.normal())
        lhs = apply(a, u.scale(al).add(v.scale(be)))
        rhs = apply(a, u).scale(al).add(apply(a, v).scale(be))
        worst_lin = max(worst_lin, rel_coeff_diff(lhs, rhs))

    # modulation-order equivalence is asserted inside apply_modulated
    for _ in range(cases):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 5, 120, rng)
        apply_modulated(a, u, profiles[0], int(rng.integers(0, 9)))

    stab_ok = True
    for _ in range(cases):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 4, 60, rng)
        diag = vanishing_limit(a, u, profiles, (0, 9))
        stab_ok = stab_ok and diag.passed

    worst_adj = 0.0
    data, a_ch = ching_symbol(0.25, (1,), 2, 9)
    for _ in range(cases):
        u = random_band_limited(1, 8, 600, rng)
        v = random_band_limited(1, 8, 600, rng)
        lhs = inner_product(apply(a_ch, u), v)
        rhs = inner_product(u, adjoint_apply_ching(data, v))
        worst_adj = max(
            worst_adj,
            abs(lhs - rhs) / max(sobolev_norm(u, 0.0) * sobolev_norm(v, 0.0), 1e-300),
        )

    worst_ker = 0.0
    for _ in range(cases):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 5, 100, rng)
        au = apply(a, u)
        ew = sorted(u.spectrum())
        zw = sorted(au.spectrum() | {(0,)})
        K = spectral_kernel(a, zw, ew)
        vec = K @ np.array([u.coeff(e) for e in ew])
        scale = max((abs(c) for _, c in au.items()), default=1.0)
        worst_ker = max(
            worst_ker,
            max(abs(vec[i] - au.coeff(z)) for i, z in enumerate(zw)) / scale,
        )

    worst_pi = 0.0
    for _ in range(cases):
        u = random_band_limited(1, 4, 12, rng)
        v = random_band_limited(1, 4, 12, rng)
        f = random_band_limited(1, 3, 12, rng)
        _, uv = pi_product(u, v, profiles, (0, 7))
        _, fu_v = pi_product(pointwise_mul(f, u), v, profiles, (0, 7))
        _, u_fv = pi_product(u, pointwise_mul(f, v), profiles, (0, 7))
        f_uv = pointwise_mul(f, uv)
        worst_pi = max(worst_pi, rel_coeff_diff(f_uv, fu_v), rel_coeff_diff(f_uv, u_fv))

    elapsed = time.time() - t0
    ok = (
        worst_lin <= 1e-12
        and stab_ok
        and worst_adj <= 1e-12
        and worst_ker <= 1e-12
        and worst_pi <= 1e-12
        and elapsed < 60.0
    )
    _verdict(
        "criterion 9 (operator algebra properties)",
        ok,
        f"200 cases each: linearity {worst_lin:.1e}, modulation-order asserted,"
        f" stabilisation {'ok' if stab_ok else 'FAIL'}, adjointness {worst_adj:.1e},"
        f" kernel {worst_ker:.1e}, pi-associativity {worst_pi:.1e} (all tol 1e-12);"
        f" {elapsed:.1f}s (< 60s)",
    )


def test_criterion_10_suite_command(tmp_path):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "torspec.cli", "suite", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.time() - t0
    summary = json.loads((tmp_path / "summary.json").read_text())
    _verdict(
        "criterion 10 (full suite command)",
        proc.returncode == 0 and summary["pass"] and len(summary["experiments"]) == 8
        and elapsed < 300.0,
        f"exit {proc.returncode}, 8 experiments, wall {elapsed:.1f}s (< 300s)",
    )
