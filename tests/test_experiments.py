"""Experiment reports: verdicts, determinism, artifact schemas."""

import hashlib
import inspect
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from torspec import experiments
from torspec.cli import main
from torspec.constructions import random_band_limited, vanishing_family
from torspec.errors import BudgetExceeded, FrequencyOutOfRange, RangeTooLarge, TorspecError
from torspec.experiments import (
    REGISTRY,
    ExperimentReport,
    _vanishing_work,
    exp_composite,
    exp_continuity,
    exp_partition_check,
    exp_product,
    exp_spectral_support,
    exp_unclosable,
    exp_wavefront_flip,
    exp_weierstrass,
)
from torspec.fields import DEFAULT_PAIR_BUDGET, DenseField, sparse_to_dense
from torspec.norms import bessel_potential, lp_norm
from torspec.symbols import ching_symbol


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


def test_reports_at_the_defaults_have_unique_assertion_ids():
    for name, experiment in REGISTRY.items():
        ids = [a.id for a in experiment().assertions]
        assert ids and len(set(ids)) == len(ids), name


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
    report = exp_unclosable(d=0, n_list=[5, 6], theta=1)
    assert report.passed
    assert report.params == {"d": 0.0, "n_list": [5, 6], "theta": [1]}
    assert type(report.params["d"]) is float


def test_unclosable_range_guard():
    with pytest.raises(RangeTooLarge):
        exp_unclosable(n_list=(5, 8))


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


def _fail_on_call(monkeypatch, *names):
    """Make each named experiments-module function record its call and raise."""
    called = []

    def record(name):
        def fail(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"{name} ran before the input was rejected")

        return fail

    for name in names:
        monkeypatch.setattr(experiments, name, record(name))
    return called


def test_weierstrass_rejects_j_and_m_before_any_work(monkeypatch):
    # J = 0 leaves the lacunary sum empty, so besov-unit-norm FAILed on an
    # empty field; M = 3 is no grid, but the range check called it too small.
    called = _fail_on_call(monkeypatch, "weierstrass_field", "block_norms")
    with pytest.raises(ValueError, match="J must be >= 1, got 0"):
        exp_weierstrass(J=0)
    for M in (3, 100, 3 * 2**14):
        with pytest.raises(ValueError, match=f"grid size {M} is not a power of two"):
            exp_weierstrass(J=4, M=M)
    assert called == []


def test_composite_rejects_k_and_m_before_any_draw(monkeypatch):
    # K = 0 made the draw window the float 0.5, so u and w were constants
    # and every verdict passed; M = 1000 failed only after both draws.
    called = _fail_on_call(monkeypatch, "random_band_limited", "sparse_to_dense")
    for K in (0, -1):
        with pytest.raises(ValueError, match=f"K must be >= 1, got {K}"):
            exp_composite(K=K)
    for M in (100, 1000, 2**12 + 2):
        with pytest.raises(ValueError, match=f"grid size {M} is not a power of two"):
            exp_composite(M=M)
    # A draw at 2^(K-1) = M/2 is off the grid: K = 12 passed at seed 11 and
    # failed after both draws at seed 39; K = 10^30 must not build 2^(K-1).
    for K, M in ((12, 4096), (13, 4096), (4, 16), (10**30, 4096)):
        with pytest.raises(FrequencyOutOfRange, match=rf"2\^\(K-1\) < M/2, got K={K}, M={M}"):
            exp_composite(seed=11, K=K, M=M)
    assert called == []


def test_p_below_one_rejected_before_any_work(monkeypatch):
    # The grid quadrature rejected p < 1 only once a field was on the grid:
    # weierstrass --p-list 0.5 after the first d's block pass, composite
    # --p-list 2,0.5 after both draws and the Meyer factorisation, and with
    # a message that named no parameter.
    called = _fail_on_call(
        monkeypatch, "weierstrass_field", "block_norms", "random_band_limited",
        "integer_draw", "sparse_to_dense",
    )
    for experiment, p_list in [
        (exp_weierstrass, (0.5,)),
        (exp_weierstrass, (1.0, 0.999)),
        (exp_composite, (2.0, 0.5)),
        (exp_composite, (-2.0,)),
    ]:
        with pytest.raises(ValueError, match=r"p_list needs every p >= 1, got \["):
            experiment(p_list=p_list)
    assert called == []


def test_repeated_or_unordered_lists_rejected_before_any_work(monkeypatch):
    # A repeated value recorded its assertion ids twice (flip --d 0,0 gave
    # 12 repeats); a reversed sweep compared its last point with its first
    # (continuity --j-list 40,30,20,10 passed both no-growth verdicts, and
    # --n-list 8,7,6,5 failed a correct construction); one delta gave every
    # Lipschitz spread exactly 1.0.
    called = _fail_on_call(
        monkeypatch, "lacunary_field", "weierstrass_field", "random_band_limited",
        "vanishing_family", "norm_ratio_probe",
    )
    cases = [
        (exp_wavefront_flip, {"d": (0.0, 0.0)}, "d repeats a value"),
        (exp_weierstrass, {"d": (0.5, 0.5)}, "d repeats a value"),
        (exp_weierstrass, {"p_list": (2.0, 1.0, 2.0)}, "p_list repeats a value"),
        (exp_composite, {"f": ("sin", "sin")}, "f repeats a value"),
        (exp_composite, {"s_list": (1.0, 1.0)}, "s_list repeats a value"),
        (exp_composite, {"p_list": (2.0, 2.0)}, "p_list repeats a value"),
        (exp_composite, {"delta_list": (0.1,)}, "delta_list needs two distinct values"),
        (exp_composite, {"delta_list": (0.1, 0.1)}, "delta_list needs two distinct values"),
        (exp_unclosable, {"n_list": (7, 6, 5)}, "n_list needs two or more strictly increasing"),
        (exp_unclosable, {"n_list": (5, 5, 6)}, "n_list needs two or more strictly increasing"),
        (exp_continuity, {"n_list": (8, 7, 6, 5)}, "n_list needs two or more strictly increasing"),
        (exp_continuity, {"j_list": (40, 30, 20, 10)}, "j_list needs two or more strictly increasing"),
        (exp_continuity, {"j_list": (10, 20, 20)}, "j_list needs two or more strictly increasing"),
    ]
    for experiment, kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            experiment(**kwargs)
    assert called == []


def test_negative_seed_rejected_before_any_work(monkeypatch):
    # numpy rejected a negative seed only when the generator was built:
    # continuity's came after a vanishing_family member and an apply per N.
    called = _fail_on_call(
        monkeypatch, "default_families", "random_symbol", "random_band_limited",
        "integer_draw", "vanishing_family", "norm_ratio_probe",
    )
    for experiment in (exp_partition_check, exp_spectral_support, exp_composite,
                       exp_continuity, exp_product):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            experiment(seed=-1)
    assert called == []


# One flag text per _RULES name that breaks the name's rule.  A d that is a
# single order is no list, so "0.5,0.5" is a type error there, also exit 2.
_BAD_FLAG = {
    "seed": "-1",
    "trials": "0",
    "n_samples": "0",
    "m": "0",
    "j0": "0",
    "J": "0",
    "K": "0",
    "Q": "1",
    "n_modes": "2",
    "M": "100",
    "n_list": "7,6,5",
    "j_list": "10,10",
    "d": "0.5,0.5",
    "s_list": "1,1",
    "p_list": "2,0.5",
    "f": "nope",
    "delta_list": "0.1",
    "theta": "2",
    "m_range": "3,2",
}


def test_every_rule_refuses_its_bad_flag_before_any_work(tmp_path, monkeypatch, capsys):
    signatures = {name: inspect.signature(fn).parameters for name, fn in REGISTRY.items()}
    taken = {key for params in signatures.values() for key in params}
    assert set(experiments._RULES) <= taken
    assert set(experiments._RULES) == set(_BAD_FLAG)
    for params in signatures.values():
        for key, param in params.items():
            for rule in experiments._RULES.get(key, ()):
                rule(key, param.default)
    constructions = [
        name for name, value in vars(experiments).items()
        if inspect.isfunction(value) and value.__module__ == "torspec.constructions"
    ]
    assert "random_band_limited" in constructions and "vanishing_family" in constructions
    called = _fail_on_call(monkeypatch, *constructions)
    monkeypatch.setattr(experiments.np.random, "default_rng", called.append)
    capsys.readouterr()
    for key, bad in _BAD_FLAG.items():
        for exp, params in signatures.items():
            if key not in params:
                continue
            out = tmp_path / f"{exp}-{key}"
            flag = "--" + key.replace("_", "-")
            assert main(["run", exp, flag, bad, "--out", str(out)]) == 2, (exp, key)
            err = capsys.readouterr().err
            assert re.match(rf"torspec: ValueError: (exp_\w+ )?{key}\b", err), (exp, key, err)
            assert not out.exists(), (exp, key)
    assert called == []


def test_product_rejects_a_bad_m_range_before_any_draw(monkeypatch):
    # m_range (0, 0) ran every trial and FAILed all-diagnostics-pass; a
    # third value failed only when pi_product unpacked it.
    called = _fail_on_call(monkeypatch, "random_band_limited", "pi_product")
    for m_range in ((0, 0), (3, 2), (-1, 4), (0, 1, 2), (5,)):
        with pytest.raises(ValueError, match="m_range must be two ints with 0 <= m_lo < m_hi"):
            exp_product(m_range=m_range)
    # 2^m is no double from m = 1024: refused here, not after trial 0's draws.
    with pytest.raises(RangeTooLarge, match=r"m_range \[0, 1024\] passes m = 1023"):
        exp_product(m_range=(0, 1024))
    assert called == []


def test_product_runs_up_to_the_largest_double_scale():
    assert exp_product(m_range=(0, 1023), trials=1).passed


def test_partition_check_rejects_a_window_past_int64_before_any_draw(monkeypatch):
    # m = 62 put the window ceil(R 2^m) + 2 past int64 (numpy's "low is out of
    # bounds"), 1023 took ceil of an infinite R 2^m and 1024 overflowed 2^m.
    drawn = []
    monkeypatch.setattr(experiments.np.random, "default_rng", drawn.append)
    for m in (62, 1023, 1024, 2000):
        with pytest.raises(RangeTooLarge, match=f"m = {m}: sample window"):
            exp_partition_check(m=m)
    assert drawn == []
    monkeypatch.undo()
    assert exp_partition_check(m=61, n_samples=10).passed


def test_partition_check_rejects_m_below_one_before_any_draw(monkeypatch):
    # telescope_check refused m = 0 only after the first profile's draws:
    # --m 0 --n-samples 2000000 spent 0.5 s and 159 MiB before it exited 2.
    drawn = []
    monkeypatch.setattr(experiments.np.random, "default_rng", drawn.append)
    for m in (0, -1, -2000):
        with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
            exp_partition_check(m=m, n_samples=2_000_000)
    assert drawn == []


def test_continuity_work_is_the_pair_count_of_the_built_member():
    # Each member's apply counts T one-mode x-parts times T shifts of the
    # carrier: the count without building must be that of the built member.
    for theta in ((1,), (1, 0)):
        for N in (5, 6, 7, 8):
            vN, _, j_hi = vanishing_family(N, 0.0, theta, allow_truncation=True)
            _, a = ching_symbol(0.0, theta, N, j_hi)
            work = sum(len(t.xpart) for t in a.terms) * len(vN)
            assert _vanishing_work(N, len(theta)) == work, (theta, N)
    # The largest members apply takes, and the first it refuses.
    assert _vanishing_work(15, 1) <= DEFAULT_PAIR_BUDGET < _vanishing_work(16, 1)
    assert _vanishing_work(9, 2) <= DEFAULT_PAIR_BUDGET < _vanishing_work(10, 2)


def test_continuity_refuses_an_oversized_member_before_building_it(monkeypatch):
    # apply refused n_list 5,17 only after building the N = 17 member (1.0 s,
    # 161 MiB); past N = 60 the carrier alone has about 2^N / 10 modes.  Only
    # the exploratory member, the smallest, is built before the refusal.
    built = []
    family = experiments.vanishing_family

    def recorded(N, *args, **kwargs):
        built.append(N)
        return family(N, *args, **kwargs)

    called = _fail_on_call(monkeypatch, "apply", "norm_ratio_probe")
    monkeypatch.setattr(experiments, "vanishing_family", recorded)
    cases = [
        ((1,), (5, 16), BudgetExceeded, "N = 16 needs at least 13269825 "),
        ((1,), (5, 17), BudgetExceeded, "N = 17 needs at least 25375152 "),
        ((1, 0), (5, 10), BudgetExceeded, "N = 10 needs at least "),
        ((1,), (5, 61), RangeTooLarge, "N = 61 > 60"),
        ((1, 0), (5, 10**30), RangeTooLarge, f"N = {10**30} > 60"),
    ]
    for theta, n_list, error, message in cases:
        with pytest.raises(error, match=f"n_list member {message}"):
            exp_continuity(theta=theta, n_list=n_list)
    assert built == [5] * len(cases) and called == []
    # A member below 5 is still bad input (2), whatever the others' size.
    with pytest.raises(ValueError, match="needs N >= 5"):
        exp_continuity(n_list=(-3000, 5, 17))


def test_support_experiment_counts():
    report = exp_spectral_support(seed=3, trials=60)
    assert report.passed
    assert report.metrics["containment_failures"] == 0.0


def test_support_rejects_too_few_modes_before_any_draw(monkeypatch):
    # A trial draws between 3 and n_modes modes, so n_modes < 3 is bad input.
    drawn = []
    monkeypatch.setattr(experiments, "random_symbol", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="n_modes must be >= 3.*got 2"):
        exp_spectral_support(trials=1, n_modes=2)
    assert drawn == []


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
    # 6 for the shared blocks (one forward FFT, 5 inverse); per function, 3
    # for F(u)'s potentials (one forward FFT, one inverse per s) and 12 for
    # the differences' (4 deltas x 3); 2 to build u and w; 3 for u's
    # potentials: 6 + 2 x 15 + 2 + 3.
    assert _count_ffts(monkeypatch, lambda: exp_composite(seed=0, M=256, K=4)) == 41


def _composite_tables_reference(f, seed, M, K, s_list, p_list, delta_list):
    """exp_composite's two CSV tables as it computed them when it held every
    Bessel potential: u's potentials for the whole run, and per function the
    potentials of every (delta, s) difference, transposed to s-major order."""
    rng = np.random.default_rng(seed)
    window = 2 ** (K - 1)
    u_dense = sparse_to_dense(random_band_limited(1, 24, window, rng, hermitian=True), M)
    sup = float(np.max(np.abs(u_dense.samples.real)))
    u_dense = DenseField(1, M, (1.5 / sup) * u_dense.samples.real.astype(np.complex128))
    w_dense = sparse_to_dense(random_band_limited(1, 24, window, rng, hermitian=True), M)
    w = w_dense.samples.real / float(np.max(np.abs(w_dense.samples.real)))
    u_pots = bessel_potential(u_dense, s_list)
    norm_rows, lip_rows = [], []
    for fname in f:
        F = experiments._COMPOSITE_F[fname][0]
        exact = F(u_dense.samples.real)
        fu = DenseField(1, M, np.asarray(exact, dtype=np.complex128))
        for s, fu_pot, u_pot in zip(s_list, bessel_potential(fu, s_list), u_pots):
            for p in p_list:
                norm_rows.append((fname, s, p, lp_norm(fu_pot, p), lp_norm(u_pot, p)))
        diffs = [F(u_dense.samples.real + delta * w) - exact for delta in delta_list]
        pots_by_delta = [
            bessel_potential(DenseField(1, M, diff.astype(np.complex128)), s_list)
            for diff in diffs
        ]
        for i, s in enumerate(s_list):
            diff_pots = [pots[i] for pots in pots_by_delta]
            for p in p_list:
                ratios = [lp_norm(pot, p) / delta for delta, pot in zip(delta_list, diff_pots)]
                lip_rows.extend((fname, s, p, delta, r) for delta, r in zip(delta_list, ratios))
    return norm_rows, lip_rows


def _hex_rows(rows):
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


@pytest.mark.parametrize(
    "params",
    [
        {"f": ("sin", "square", "tanh"), "seed": 0, "M": 1024, "K": 6},
        {"f": ("tanh",), "seed": 5, "M": 256, "K": 3, "s_list": (-1.0, 0.0, 2.5),
         "p_list": (1.0, 3.0, 6.0), "delta_list": (0.5, 1e-3, 1e-6)},
    ],
)
def test_composite_norms_match_the_held_potentials_reference_bitwise(params):
    # Reducing each potential to its p-norms as soon as it is formed runs
    # the same operations in the same order as holding them all.
    full = {"s_list": (0.5, 1.0), "p_list": (2.0, 4.0), "delta_list": (1e-1, 1e-2, 1e-3, 1e-4)}
    full.update(params)
    report = exp_composite(**full)
    norm_rows, lip_rows = _composite_tables_reference(**full)
    assert _hex_rows(report.tables["composite_norms.csv"][1]) == _hex_rows(norm_rows)
    assert _hex_rows(report.tables["composite_lipschitz.csv"][1]) == _hex_rows(lip_rows)


def test_composite_holds_one_grid_per_live_quantity():
    # At M = 2^14 a complex grid is 256 KiB.  The traced peak of a warm run
    # is the K + 1 = 10 shared blocks, one function's 10 multipliers and a
    # few working grids; holding every multiplier list and every (delta, s)
    # potential at once peaked at 12.5 MiB.
    exp_composite(seed=0, M=2**14, K=9)
    tracemalloc.start()
    try:
        exp_composite(seed=0, M=2**14, K=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 2**20


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


def _count_continuity_work(monkeypatch, **params):
    # (norm_ratio_probe, _probe_field, apply) calls of one exp_continuity run;
    # apply is counted where the experiment and the probe look it up.
    import torspec.operator as op

    calls = {"probe": 0, "field": 0, "apply": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(experiments, "norm_ratio_probe", counted("probe", op.norm_ratio_probe))
    monkeypatch.setattr(op, "_probe_field", counted("field", op._probe_field))
    apply = counted("apply", op.apply)
    monkeypatch.setattr(op, "apply", apply)
    monkeypatch.setattr(experiments, "apply", apply)
    try:
        exp_continuity(**params)
    finally:
        monkeypatch.undo()
    return calls


def test_continuity_draws_and_applies_each_input_once(monkeypatch):
    # Per J one probe draws `trials` fields and applies the symbol to each,
    # for both exponents; per N one apply serves s = 0 and s = 1; plus one
    # apply for the exploratory member.
    small = _count_continuity_work(monkeypatch, n_list=(5, 6), j_list=(10, 14), trials=3)
    assert small == {"probe": 2, "field": 6, "apply": 2 + 6 + 1}
    defaults = _count_continuity_work(monkeypatch)
    assert defaults == {"probe": 4, "field": 24, "apply": 4 + 24 + 1}


def test_continuity_range_check_comes_before_any_probe(monkeypatch):
    # min(n_list) = 8 puts the exploratory member past the exact family's
    # N^2 <= 60, so the run fails before it computes a single ratio.
    called = []
    monkeypatch.setattr(experiments, "norm_ratio_probe", lambda *args: called.append("probe"))
    monkeypatch.setattr(experiments, "apply", lambda *args: called.append("apply"))
    with pytest.raises(RangeTooLarge, match=r"N\^2 = 64 > 60"):
        exp_continuity(n_list=(8, 9), trials=2)
    assert called == []


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
