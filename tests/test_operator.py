"""Operator application, modulation limits, splits, kernels, adjoints."""

import hashlib
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torspec.constructions import (
    harmonic_ratio,
    lacunary_field,
    random_band_limited,
    vanishing_family,
)
from torspec.cutoffs import (
    CutoffProfile,
    default_families,
    lp_project,
    modulate,
)
from torspec.errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionUnsupported,
    FrequencyOutOfRange,
    RangeTooLarge,
    WindowTooLarge,
)
from torspec.experiments import random_symbol
from torspec.fields import (
    DenseField,
    SparseField,
    angled,
    delta_field,
    dense_to_sparse,
    freq_abs,
    inner_product,
    pointwise_mul,
    sparse_to_dense,
    zero_field,
)
from torspec.norms import sobolev_norm
from torspec.operator import (
    _diagnose,
    _diff_norm,
    _modulation_run,
    _support_hits,
    _windows,
    adjoint_apply_ching,
    apply,
    apply_modulated,
    apply_with_support,
    corona_check,
    kernel_pairing_1d,
    norm_ratio_probe,
    paradiff_split,
    pi_product,
    rel_coeff_diff,
    spatial_kernel_1d,
    spectral_kernel,
    support_rule_xi,
    vanishing_limit,
)
from torspec.symbols import (
    Ball,
    Block,
    Corona,
    Modulated,
    One,
    RadialBump,
    SeparableSymbol,
    Term,
    ching_symbol,
    identity_symbol,
    multiplication_symbol,
    symbol_modulate,
)


# -- basic application ------------------------------------------------------------


def test_identity_symbol_is_bitwise_identity():
    u = SparseField(1, {(3,): 1 + 2j, (-5,): 0.125, (0,): -1j})
    assert apply(identity_symbol(1), u).coeffs == u.coeffs


def test_eta_independent_symbol_matches_pointwise_mul():
    f = SparseField(1, {(1,): 0.5, (-2,): 1.5j})
    u = SparseField(1, {(0,): 2.0, (4,): -1.0})
    assert apply(multiplication_symbol(f), u).coeffs == pointwise_mul(f, u).coeffs


def test_ching_on_vanishing_family_gives_harmonic_multiple():
    # Oracle: exact rational harmonic sums.
    for N in (5, 6):
        vN, v, j_hi = vanishing_family(N, 0.0, (1,))
        _, a = ching_symbol(0.0, (1,), N, j_hi)
        out = apply(a, vN)
        rN_exact = float(sum(Fraction(1, j) for j in range(N, N * N + 1))) / math.log(N)
        assert rel_coeff_diff(out, v.scale(rN_exact)) <= 1e-12
        assert abs(harmonic_ratio(N) - rN_exact) <= 1e-15 * rN_exact


def test_apply_budget():
    u = SparseField(1, {(k,): 1.0 for k in range(100)})
    a = multiplication_symbol(SparseField(1, {(k,): 1.0 for k in range(200)}))
    with pytest.raises(BudgetExceeded):
        apply(a, u, budget=1000)


def test_apply_with_support_budget_is_applys():
    # Both check the same nominal pair count before any scan: 20 * 100.
    u = SparseField(1, {(k,): 1.0 for k in range(100)})
    a = multiplication_symbol(SparseField(1, {(k,): 1.0 for k in range(20)}))
    for fn in (apply, apply_with_support):
        with pytest.raises(BudgetExceeded):
            fn(a, u, budget=1999)
        fn(a, u, budget=2000)
    with pytest.raises(DimensionMismatch):
        apply_with_support(identity_symbol(2), u)


def test_apply_is_bitwise_deterministic(rng):
    a = random_symbol(1, rng)
    u = random_band_limited(1, 12, 200, rng)
    assert apply(a, u).coeffs == apply(a, u).coeffs


def test_linearity_over_seeded_cases(rng):
    worst = 0.0
    for _ in range(200):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 6, 100, rng)
        v = random_band_limited(1, 6, 100, rng)
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        lhs = apply(a, u.scale(alpha).add(v.scale(beta)))
        rhs = apply(a, u).scale(alpha).add(apply(a, v).scale(beta))
        worst = max(worst, rel_coeff_diff(lhs, rhs))
    assert worst <= 1e-12


# -- modulated application -----------------------------------------------------------


def test_modulated_apply_stabilises_bitwise(profiles):
    _, a = ching_symbol(0.0, (1,), 3, 6)
    u = lacunary_field((1,), 0.5, 3, 6, delta_field((0,)))
    ref = apply(a, u)
    for prof in profiles:
        m_star = 8
        for m in (m_star, m_star + 1, m_star + 3):
            assert apply_modulated(a, u, prof, m).coeffs == ref.coeffs


def test_modulated_apply_empties_at_m_zero(profiles):
    _, a = ching_symbol(0.0, (1,), 4, 6)
    u = delta_field((2**5,))
    assert len(apply_modulated(a, u, profiles[0], 0)) == 0


def test_modulation_order_equivalence_over_seeded_cases(rng, profiles):
    # apply(a^m, u^m) must agree with applying the fully modulated symbol.
    # apply_modulated computes both routes and raises if they disagree.
    for trial in range(200):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 6, 150, rng)
        m = int(rng.integers(0, 9))
        apply_modulated(a, u, profiles[trial % 2], m)


def _hexed(f):
    return {xi: (c.real.hex(), c.imag.hex()) for xi, c in f.items()}


_DEFAULT_PROFILES = [fam.profile for fam in default_families()]


@st.composite
def _modulated_case(draw):
    n = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(0, 12))
    a = random_symbol(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    freq = st.tuples(*[st.integers(-48, 48)] * n)
    tiny = st.sampled_from([5e-324, -5e-324j, complex(1e-320, -3e-322)])
    coeffs = draw(st.dictionaries(freq, st.one_of(_COEFFS, tiny), max_size=30))
    # For m >= 3 both default profiles take a value in (0, 1/2) at this
    # radius, so the subnormal coefficient of u^m underflows to an exact zero.
    coeffs[(math.ceil(1.8 * 2**m),) + (0,) * (n - 1)] = 5e-324
    return a, SparseField(n, coeffs), draw(st.sampled_from(_DEFAULT_PROFILES)), m


@settings(max_examples=150, deadline=None)
@given(_modulated_case())
def test_apply_modulated_is_apply_of_the_modulations_bitwise(case):
    # apply_modulated scans u's windows with u^m's coefficients and skips the
    # exact zeros: it must give the apply of the field modulate builds.
    a, u, p, m = case
    x_only, um = symbol_modulate(a, m, p), modulate(u, m, p)
    assert _hexed(apply_modulated(a, u, p, m)) == _hexed(apply(x_only, um))


def test_vanishing_limit_ranks_u_once(profiles, monkeypatch):
    # The window table and all 2 x 13 steps share one ranking of u.
    import torspec.operator as op

    ranked = []
    rank = op._rank

    def counted(u):
        ranked.append(len(u))
        return rank(u)

    monkeypatch.setattr(op, "_rank", counted)
    vN, _, j_hi = vanishing_family(5, 0.0, (1,))
    _, a = ching_symbol(0.0, (1,), 5, j_hi)
    vanishing_limit(a, vN, profiles, (0, 12))
    assert ranked == [len(vN)]
    apply_modulated(a, vN, profiles[0], 3)
    assert ranked == [len(vN)] * 2


def test_modulation_index_checked_for_a_symbol_with_no_terms(profiles):
    # No term builds a Modulated multiplier, which would check m itself.
    empty = SeparableSymbol(0.0, 1, ())
    u = SparseField(1, {(1,): 1.0})
    with pytest.raises(ValueError):
        apply_modulated(empty, u, profiles[0], -1)
    with pytest.raises(ValueError):
        vanishing_limit(empty, u, profiles, (-1, 2))
    assert len(apply_modulated(empty, u, profiles[0], 0)) == 0


def test_modulation_run_checks_its_budget_before_the_window_table(profiles, monkeypatch):
    # 5,000 one-mode terms on a 2,001-mode u is 10,005,000 pairs: the run
    # used to fill every term's window (2.8 s, 343 MiB) before its first
    # step refused it.  The input is refused even at m = 0, where every
    # x-part but one modulates to nothing and the step alone would fit.
    evaluated = []
    monkeypatch.setattr(One, "radial", lambda self, rho: evaluated.append(rho))
    a = SeparableSymbol(0.0, 1, tuple(Term(delta_field((k,)), One()) for k in range(5000)))
    u = SparseField(1, {(k,): 1.0 for k in range(-1000, 1001)})
    for m in (20, 0):
        with pytest.raises(BudgetExceeded):
            apply_modulated(a, u, profiles[0], m)
    with pytest.raises(BudgetExceeded):
        vanishing_limit(a, u, profiles, (0, 20))
    assert evaluated == []


def _reference_run(a, u, profiles, m_range):
    # vanishing_limit with every step a fresh apply(a^m, u^m), as modulate and
    # symbol_modulate build them: nothing is kept from one step to the next,
    # no multiplier value is stored, and a covered step is computed like any other.
    hits = _support_hits(a, u)
    radii = (freq_abs(k) for xc, etas, _ in hits if etas for k in etas + list(xc))
    m_lo, m_hi = m_range
    seqs = {
        p.id: [apply(symbol_modulate(a, m, p), modulate(u, m, p)) for m in range(m_lo, m_hi + 1)]
        for p in profiles
    }
    r = min(p.r for p in profiles)
    return _diagnose(seqs, m_lo, m_hi, max(radii, default=0.0), r), seqs


def _flip_pair(n):
    # Two terms sharing lo = 0 and keyed below every random_symbol x-part:
    # s is saturated from m = 6 and leads while the far mode of t is pruned;
    # once that mode returns (m = 9 with one default profile, 10 with the
    # other) t leads, so the sums kept for s must be dropped.
    def e(k):
        return (k,) + (0,) * (n - 1)

    s = Term(SparseField(n, {e(-40): 0.75 - 0.5j}), Ball(1.0))
    t = Term(SparseField(n, {e(-1000): 1.25 + 0.25j, e(5): -0.5 + 1j}), Ball(1.0))
    return s, t


@st.composite
def _run_case(draw):
    n = draw(st.sampled_from([1, 2]))
    m_lo = draw(st.integers(0, 6))
    m_hi = draw(st.integers(10, 13))
    a = random_symbol(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    a = SeparableSymbol(a.d, n, a.terms + _flip_pair(n))
    freq = st.tuples(*[st.integers(-48, 48)] * n)
    tiny = st.sampled_from([5e-324, -5e-324j, complex(1e-320, -3e-322)])
    coeffs = draw(st.dictionaries(freq, st.one_of(_COEFFS, tiny), max_size=30))
    for k in (-1, 0, 1):  # modes in the flip pair's window
        coeffs[(k,) + (0,) * (n - 1)] = draw(_COEFFS)
    # A subnormal coefficient that u^m turns into an exact zero at some step.
    m = draw(st.integers(max(m_lo, 3), m_hi))
    coeffs[(math.ceil(1.8 * 2**m),) + (0,) * (n - 1)] = 5e-324
    return a, SparseField(n, coeffs), (m_lo, m_hi)


@settings(max_examples=40, deadline=None)
@given(_run_case())
def test_vanishing_limit_is_a_run_of_fresh_steps_bitwise(case):
    # Keeping the saturated prefix's sums across steps and reusing the first
    # covered step must give every step, the report and the limit of a run
    # whose steps each start from nothing and compare both orders.
    import torspec.operator as op

    a, u, m_range = case
    with mock.patch.object(op, "_diagnose", wraps=op._diagnose) as diagnose:
        got = vanishing_limit(a, u, _DEFAULT_PROFILES, m_range)
    want, want_seqs = _reference_run(a, u, _DEFAULT_PROFILES, m_range)
    got_seqs = diagnose.call_args.args[0]
    assert {p: [_hexed(f) for f in fs] for p, fs in got_seqs.items()} == {
        p: [_hexed(f) for f in fs] for p, fs in want_seqs.items()
    }
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert _hexed(got.limit) == _hexed(want.limit)


def test_vanishing_limit_covered_steps_are_one_object(profiles):
    # Every step whose plateau covers the run's radius, in either profile,
    # returns the field of the first covered step: it is computed once.
    import torspec.operator as op

    vN, _, j_hi = vanishing_family(5, 0.0, (1,))
    _, a = ching_symbol(0.0, (1,), 5, j_hi)
    m_range = (0, j_hi + 4)
    with mock.patch.object(op, "_diagnose", wraps=op._diagnose) as diagnose:
        diag = vanishing_limit(a, vN, profiles, m_range)
    seqs = diagnose.call_args.args[0]
    covered = {p.id: [] for p in profiles}
    uncovered = []
    for p in profiles:
        for m, f in zip(range(m_range[0], m_range[1] + 1), seqs[p.id]):
            (covered[p.id] if diag.cover_radius / 2.0**m <= p.r else uncovered).append(f)
    assert diag.passed and all(covered.values()) and uncovered
    first = covered[profiles[0].id][0]
    assert all(f is first for fs in covered.values() for f in fs)
    assert all(f is not first for f in uncovered)


def test_vanishing_limit_modulates_each_x_part_once_per_profile(profiles, monkeypatch):
    # An x-part wholly beyond R 2^m modulates to nothing and is skipped, and a
    # saturated term is modulated when it joins the prefix: on this run each
    # x-part is modulated at most once per profile and never comes back empty.
    import torspec.operator as op

    calls = []

    def counted(f, m, p):
        out = modulate(f, m, p)
        calls.append((id(f), p.id, len(out)))
        return out

    monkeypatch.setattr(op, "modulate", counted)
    vN, _, j_hi = vanishing_family(5, 0.0, (1,))
    _, a = ching_symbol(0.0, (1,), 5, j_hi)
    assert vanishing_limit(a, vN, profiles, (0, 27)).passed
    assert calls and all(size for _, _, size in calls)
    assert len({(x, p) for x, p, _ in calls}) == len(calls) <= len(a.terms) * len(profiles)


def test_vanishing_limit_scans_each_term_while_it_is_live(profiles, monkeypatch):
    # A step scans only the terms after its saturated prefix that pruning has
    # not emptied, so the window scans grow with terms + steps, not with
    # terms x steps as when every step scans every term in both orders.  The
    # window table fills one window per term, Multiplier.window bisecting its
    # lower end once; a step reads a scanned term's stored window once for
    # both orders, under the one Modulated it builds.
    import torspec.operator as op
    import torspec.symbols as sy

    scanned = []
    fill = sy.bisect_left

    def counted(ranked, lo):
        scanned.append(lo)
        return fill(ranked, lo)

    class Scanned(Modulated):
        def __post_init__(self):
            super().__post_init__()
            scanned.extend([self.inner] * 2)  # one read per order

    monkeypatch.setattr(sy, "bisect_left", counted)
    monkeypatch.setattr(op, "Modulated", Scanned)
    vN, _, j_hi = vanishing_family(5, 0.0, (1,))
    _, a = ching_symbol(0.0, (1,), 5, j_hi)
    for m_hi in (12, 27):
        scanned.clear()
        vanishing_limit(a, vN, profiles, (0, m_hi))
        scans, terms, steps, orders = len(scanned), len(a.terms), m_hi + 1, 2
        assert scans <= terms + orders * len(profiles) * (terms + steps)


def test_vanishing_limit_evaluates_each_multiplier_once_per_window_mode(profiles, monkeypatch):
    # The window table holds every term's multiplier on its window once,
    # and every step reads those values in both orders: the Corona values
    # number the window sizes, and no Modulated multiplier is evaluated.
    calls = {"corona": 0, "modulated": 0}
    corona, modulated = Corona.radial, Modulated.radial

    def corona_radial(self, rho):
        calls["corona"] += 1
        return corona(self, rho)

    def modulated_radial(self, rho):
        calls["modulated"] += 1
        return modulated(self, rho)

    vN, _, j_hi = vanishing_family(5, 0.0, (1,))
    _, a = ching_symbol(0.0, (1,), 5, j_hi)
    radii = sorted(freq_abs(xi) for xi in vN.spectrum())
    windows = sum(sum(t.mult.lo <= rho <= t.mult.hi for rho in radii) for t in a.terms)
    monkeypatch.setattr(Corona, "radial", corona_radial)
    monkeypatch.setattr(Modulated, "radial", modulated_radial)
    assert vanishing_limit(a, vN, profiles, (0, 27)).passed
    assert calls == {"corona": windows, "modulated": 0}
    assert windows == 63


def test_modulation_step_builds_one_field(profiles, monkeypatch):
    # A computed step builds its returned field and nothing else besides the
    # x-parts modulate builds: the full-modulation order is compared as a
    # coefficient dict, and the scanned terms are not wrapped in symbols.
    import torspec.operator as op

    vN, _, j_hi = vanishing_family(5, 0.0, (1,))
    _, a = ching_symbol(0.0, (1,), 5, j_hi)
    counts = {"fields": 0, "steps": 0, "modulate": 0}
    post_init, steps, modulate_ = SparseField.__post_init__, op._modulated_steps, op.modulate

    def built(self):
        counts["fields"] += 1
        post_init(self)

    def counted_steps(*args):
        step, cover = steps(*args)

        def counted(p, m):
            counts["steps"] += 1
            return step(p, m)

        return counted, cover

    def counted_modulate(*args):
        counts["modulate"] += 1
        return modulate_(*args)

    monkeypatch.setattr(SparseField, "__post_init__", built)
    monkeypatch.setattr(op, "_modulated_steps", counted_steps)
    monkeypatch.setattr(op, "modulate", counted_modulate)
    vanishing_limit(a, vN, profiles, (0, 12))
    assert counts == {"fields": 42, "steps": 26, "modulate": 16}  # 42 = 26 + 16


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_full_modulation_sum_raises(profiles, monkeypatch, bad):
    # Only the full-modulation order sees the blown-up multiplier; its sum is
    # never built as a field, so the step itself must reject it.
    import torspec.operator as op

    class Blown(Modulated):
        def from_inner(self, value, rho):
            return bad

    vN, _, j_hi = vanishing_family(5, 0.0, (1,))
    _, a = ching_symbol(0.0, (1,), 5, j_hi)
    assert len(apply_modulated(a, vN, profiles[0], 6)) == 3
    monkeypatch.setattr(op, "Modulated", Blown)
    with pytest.raises(ValueError, match="non-finite"):
        apply_modulated(a, vN, profiles[0], 6)


def test_vanishing_limit_passes_for_band_limited_inputs(rng, profiles):
    for _ in range(20):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 8, 200, rng)
        diag = vanishing_limit(a, u, profiles, (0, 12))
        assert diag.passed
        assert diag.cross_profile_max == 0.0
        top = max((freq_abs(x) for x in u.spectrum()), default=1.0)
        expected_star = math.ceil(math.log2(max(top, 1.0) / 1.05)) + 1
        assert diag.m_star <= max(expected_star, 1)


def test_vanishing_limit_zero_field(profiles):
    _, a = ching_symbol(0.0, (1,), 2, 5)
    diag = vanishing_limit(a, zero_field(1), profiles, (0, 4))
    assert diag.passed and len(diag.limit) == 0
    assert all(d == 0.0 for d in diag.delta)


def test_one_point_range_is_not_a_pass(profiles):
    # A range with no step gives no evidence of stabilisation.
    u = SparseField(1, {(1,): 1.0, (3,): -0.5j})
    diag = vanishing_limit(identity_symbol(1), u, profiles, (3, 3))
    prod, _ = pi_product(u, u, profiles, (3, 3))
    for d in (diag, prod):
        assert d.delta == [] and d.m_star == 3 and d.cross_profile_max == 0.0
        assert not d.passed
    assert vanishing_limit(identity_symbol(1), u, profiles, (3, 4)).passed
    assert pi_product(u, u, profiles, (3, 4))[0].passed


def test_reversed_range_is_rejected(profiles):
    # m_hi < m_lo holds no step: refused before any, like a repeated id.
    u = SparseField(1, {(1,): 1.0, (3,): -0.5j})
    steps = []
    with pytest.raises(ValueError):
        _modulation_run(lambda q, m: steps.append(m), profiles, (8, 0), 0.0)
    assert steps == []
    with pytest.raises(ValueError):
        pi_product(u, u, profiles, (8, 0))
    with pytest.raises(ValueError):
        vanishing_limit(identity_symbol(1), u, profiles, (1, 0))


def test_repeated_profile_id_is_rejected(profiles):
    # One id twice is one sequence: nothing to check psi-independence
    # against, so the run must refuse before any step rather than PASS.
    p = profiles[0]
    u = SparseField(1, {(1,): 1.0, (3,): -0.5j})
    for twins in ([p, p], [p, CutoffProfile(p.r, p.R, p.kind)]):
        steps = []
        with pytest.raises(ValueError):
            _modulation_run(lambda q, m: steps.append(m), twins, (0, 6), 0.0)
        assert steps == []
        with pytest.raises(ValueError):
            pi_product(u, u, twins, (0, 6))
        with pytest.raises(ValueError):
            vanishing_limit(identity_symbol(1), u, twins, (0, 6))
    assert pi_product(u, u, profiles, (0, 6))[0].passed


def test_uncovered_top_mode_is_not_a_pass(profiles):
    # No plateau r 2^m reaches 2^20 for m <= 5: the 2^20 mode is cut off at
    # every step, so the output is constant from m = 0 without evidence.
    u = SparseField(1, {(1,): 1, (2**20,): 1})
    diag = vanishing_limit(identity_symbol(1), u, profiles, (0, 5))
    assert diag.m_star == 0 and diag.cross_profile_max == 0.0
    assert list(diag.limit.coeffs) == [(1,)]
    assert diag.cover_radius == 2.0**20 and not diag.covered
    assert not diag.passed
    prod, _ = pi_product(u, u, profiles, (0, 5))
    assert prod.cover_radius == 2.0**20 and not prod.covered and not prod.passed
    # Once the range reaches the plateau the same input passes.
    assert vanishing_limit(identity_symbol(1), u, profiles, (17, 21)).passed
    assert pi_product(u, u, profiles, (17, 21))[0].passed


def test_run_settled_before_its_plateau_covers_can_pass(profiles):
    # Every step of 0 * delta(2) is the empty field, so m_star is 0, one step
    # before the plateaus cover radius 2; the covered top step m_hi shows
    # that the settled output is the exact limit.
    diag, limit = pi_product(zero_field(1), delta_field((2,)), profiles, (0, 8))
    assert diag.m_star == 0 and diag.plateau_radius == min(p.r for p in profiles)
    assert diag.cover_radius == 2.0 and diag.covered and diag.passed
    assert len(limit) == 0
    # A mode that no step covers still fails, however early the output settled.
    diag, _ = pi_product(zero_field(1), delta_field((2000,)), profiles, (0, 8))
    assert diag.m_star == 0 and not diag.covered and not diag.passed


def test_cover_radius_counts_only_hit_modes(profiles):
    # A multiplier that vanishes on the far mode leaves it out of the cover:
    # the term's x-part (|xi| = 3) and the hit mode 1 set the radius.
    a = SeparableSymbol(0.0, 1, (Term(delta_field((3,)), Ball(4.0)),))
    u = SparseField(1, {(1,): 1.0, (2**20,): 1.0})
    diag = vanishing_limit(a, u, profiles, (0, 5))
    assert diag.cover_radius == 3.0
    assert diag.covered and diag.passed


def test_diagnostic_json_reports_coverage(profiles):
    u = SparseField(1, {(0,): 1.0, (40,): 1.0})
    diag, _ = pi_product(u, u, profiles, (0, 9))
    blob = diag.to_json()
    assert list(blob) == [
        "profile_ids",
        "m_range",
        "delta",
        "m_star",
        "cross_profile_max",
        "covered",
        "cover_radius",
        "plateau_radius",
        "per_profile_norms",
        "pass",
    ]
    assert blob["covered"] and blob["pass"]
    assert blob["cover_radius"] == 40.0
    assert blob["plateau_radius"] == 1.05 * 2 ** diag.m_star
    assert blob["per_profile_norms"] == diag.per_profile_norms
    json.dumps(blob, allow_nan=False)


def test_vanishing_limit_unclosability_signature(profiles):
    # Norms of the limits approach ||v|| while the input norms shrink.
    limits, inputs = [], []
    for N in (5, 6):
        vN, v, j_hi = vanishing_family(N, 0.0, (1,))
        _, a = ching_symbol(0.0, (1,), N, j_hi)
        diag = vanishing_limit(a, vN, profiles, (0, j_hi + 2))
        assert diag.passed
        limits.append(sobolev_norm(diag.limit, 0.0))
        inputs.append(sobolev_norm(vN, 0.0))
    assert inputs[1] < inputs[0]
    # limit norm = r_N ||v|| -> ||v|| = 1 from above
    assert limits[0] > limits[1] > 1.0


# -- the adjoint ---------------------------------------------------------------------


def test_adjoint_single_mode_against_inner_product():
    data, a = ching_symbol(0.5, (1,), 4, 8)
    j = 5
    v = delta_field((2**j + 1,), 2.0 - 1.0j)
    out = adjoint_apply_ching(data, v)
    # (Bv)^(xi) = 2^(jd) chi(2^-j xi) v^(xi - 2^j theta)
    for xi, c in out.items():
        j_src = round(math.log2(freq_abs(xi)))
        expected = (
            2.0 ** (j_src * 0.5)
            * data.chi.radial(freq_abs(xi) / 2**j_src)
            * v.coeff((xi[0] - 2**j_src,))
        )
        assert abs(c - expected) <= 1e-14 * abs(expected)
    u = delta_field((2**j + 1 - 2**j,), 1.0)  # only mode the adjoint can see
    lhs = inner_product(apply(a, u), v)
    rhs = inner_product(u, out)
    assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1.0)


def test_adjointness_over_seeded_cases(rng):
    data, a = ching_symbol(0.25, (1,), 2, 9)
    worst = 0.0
    for _ in range(200):
        u = random_band_limited(1, 10, 600, rng)
        v = random_band_limited(1, 10, 600, rng)
        lhs = inner_product(apply(a, u), v)
        rhs = inner_product(u, adjoint_apply_ching(data, v))
        worst = max(
            worst,
            abs(lhs - rhs) / max(sobolev_norm(u, 0.0) * sobolev_norm(v, 0.0), 1e-300),
        )
    assert worst <= 1e-12


def test_adjoint_checks_the_direction_dimension():
    # A 2-d theta on a 1-d field is rejected, as apply of the same symbol
    # rejects it, instead of shifting by theta's first component alone.
    data, a = ching_symbol(0.0, (1, 0), 3, 5)
    v = delta_field((0,))
    with pytest.raises(DimensionMismatch):
        apply(a, v)
    with pytest.raises(DimensionMismatch):
        adjoint_apply_ching(data, v)


def test_adjoint_disjoint_spectrum_is_zero():
    data, _ = ching_symbol(0.0, (1,), 5, 8)
    # 10^6 + 2^j sits far above every corona at scale 2^j <= 2^8.
    v = delta_field((1_000_000,))
    assert len(adjoint_apply_ching(data, v)) == 0


def _adjoint_norm_by_coronas(b, v, s):
    """||B v||_{H^s}^2 grouped by the frequencies eta of v.

    The dyadic coronas are pairwise disjoint, so
    ||B v||^2 = sum_eta |v^(eta)|^2 sum_j <xi_j>^(2s) 2^(2jd) chi(2^-j xi_j)^2
    with xi_j = eta + 2^j theta.
    """
    acc = []
    for eta, cv in v.items():
        inner = []
        for j in range(b.j_lo, b.j_hi + 1):
            xi = tuple(e + 2**j * t for e, t in zip(eta, b.theta))
            chi_val = b.chi.radial(freq_abs(xi) / float(2**j))
            if chi_val != 0.0:
                inner.append((1.0 + freq_abs(xi) ** 2) ** s * 2.0 ** (2 * j * b.d) * chi_val**2)
        acc.append(math.fsum(inner) * abs(cv) ** 2)
    return math.fsum(acc)


def test_adjoint_norm_two_paths_agree(rng):
    data, _ = ching_symbol(0.5, (1,), 3, 9)
    for s in (-1.0, 0.0, 0.7):
        v = random_band_limited(1, 12, 500, rng)
        p1 = sobolev_norm(adjoint_apply_ching(data, v), s) ** 2
        p2 = _adjoint_norm_by_coronas(data, v, s)
        assert abs(p1 - p2) <= 1e-12 * max(p1, 1e-300)


# -- spectral kernels -------------------------------------------------------------------


def test_kernel_of_identity_is_identity_matrix():
    window = [(k,) for k in range(-3, 4)]
    K = spectral_kernel(identity_symbol(1), window, window)
    assert np.array_equal(K, np.eye(7, dtype=complex))


def test_kernel_matches_ching_formula():
    d, j_lo, j_hi = 0.5, 3, 6
    data, a = ching_symbol(d, (1,), j_lo, j_hi)
    etas = [(2**j + r,) for j in range(j_lo, j_hi + 1) for r in (-1, 0, 2)]
    zetas = [(e[0] - 2**j,) for e in etas for j in range(j_lo, j_hi + 1)]
    K = spectral_kernel(a, zetas, etas)
    for jj, eta in enumerate(etas):
        for ii, zeta in enumerate(zetas):
            expected = 0.0
            for j in range(j_lo, j_hi + 1):
                if zeta[0] - eta[0] == -(2**j):
                    expected += 2.0 ** (j * d) * data.chi.radial(
                        freq_abs(eta) / 2**j
                    )
            assert abs(K[ii, jj] - expected) <= 1e-14 * max(abs(expected), 1.0)


def test_kernel_action_equals_apply_on_random_symbols(rng):
    for _ in range(200):
        a = random_symbol(1, rng, max_terms=5)
        u = random_band_limited(1, 8, 120, rng)
        au = apply(a, u)
        ew = sorted(u.spectrum())
        zw = sorted(au.spectrum() | {(0,)})
        K = spectral_kernel(a, zw, ew)
        vec = K @ np.array([u.coeff(e) for e in ew])
        worst = max(abs(vec[i] - au.coeff(z)) for i, z in enumerate(zw))
        scale = max((abs(c) for _, c in au.items()), default=1.0)
        assert worst <= 1e-12 * max(scale, 1.0)


def test_kernel_window_budget():
    big = [(k,) for k in range(3000)]
    with pytest.raises(WindowTooLarge):
        spectral_kernel(identity_symbol(1), big, big)


# -- frequency-support transport ------------------------------------------------------------


def test_support_rule_identity_symbol():
    u = SparseField(1, {(2,): 1.0, (-7,): 1.0})
    assert support_rule_xi(identity_symbol(1), u) == u.spectrum()


def test_support_rule_flip_collapses_to_negative_cone():
    _, a2 = ching_symbol(0.0, (2,), 5, 12)
    w = lacunary_field((1,), 0.5, 5, 12, delta_field((0,)))
    xi_set = support_rule_xi(a2, w)
    assert xi_set == {(-(2**j),) for j in range(5, 13)}


def test_support_rule_strict_inclusion_by_cancellation():
    # Two terms cancel one output mode exactly; Xi keeps that mode, so it
    # is read off the lattice sum, not off the pruned output.
    cases = [
        ((3,), (5,), {(10,): 1.0, (8,): 1.0}, (13,)),
        ((1, 0), (0, 1), {(2, 3): 1.0, (3, 2): 1.0}, (3, 3)),
    ]
    for x1, x2, coeffs, cancelled in cases:
        t1 = Term(delta_field(x1, 1.0), One())
        t2 = Term(delta_field(x2, -1.0), One())
        a = SeparableSymbol(0.0, len(x1), (t1, t2))
        u = SparseField(len(x1), coeffs)
        au = apply(a, u)
        xi_set = support_rule_xi(a, u)
        assert cancelled in xi_set and cancelled not in au.spectrum()
        assert au.spectrum() < xi_set
        assert apply_with_support(a, u)[1] == _support_by_pairs(a, u)


def test_support_rule_containment_seeded(rng):
    for _ in range(500):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 10, 300, rng)
        support_rule_xi(a, u)  # raises on violation


def _apply_by_pairs(a, u):
    """Reference for apply: m_t evaluated by Term.mult_at on every (term, eta) pair."""
    out = {}
    for t in a.terms:
        weighted = []
        for eta, cu in u.items():
            mv = t.mult_at(eta)
            if mv != 0.0:
                weighted.append((eta, mv * cu))
        for xi, cx in t.xpart.items():
            for eta, wu in weighted:
                zeta = tuple(x + e for x, e in zip(xi, eta))
                out[zeta] = out.get(zeta, 0.0) + cx * wu
    return SparseField(u.n, out, u.tau)


def _support_by_pairs(a, u):
    """Reference for support_rule_xi's Xi, by the same per-pair loop."""
    return {
        tuple(x + e for x, e in zip(xi, eta))
        for t in a.terms
        for xi in t.xpart.spectrum()
        for eta in u.spectrum()
        if t.mult_at(eta) != 0.0
    }


# Every bound below is an integer radius k, so the boundary modes +-k e_1 and
# (3k/5, -4k/5) sit exactly on |eta| = lo or hi.
_PROFILE = CutoffProfile(1.0, 2.0)
_CHI = RadialBump(1.0, 2.5, 1.5, 2.0)
_PLAIN_MULTS = st.one_of(
    st.just(One()),
    st.builds(Corona, st.just(_CHI), st.integers(0, 3)),
    st.builds(Block, st.just(_PROFILE), st.integers(0, 4)),
    st.builds(Ball, st.sampled_from([0.0, 1.0, 2.0, 5.0, 10.0])),
)
_MULTS = st.one_of(
    _PLAIN_MULTS,
    st.builds(Modulated, _PLAIN_MULTS, st.integers(0, 3), st.just(_PROFILE)),
)
_COEFFS = st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False)


def _boundary_modes(a, n):
    modes = set()
    for t in a.terms:
        for r in (t.mult.lo, t.mult.hi):
            if math.isfinite(r) and r == int(r):
                k = int(r)
                modes.add((k,) + (0,) * (n - 1))
                modes.add((-k,) + (0,) * (n - 1))
                if n == 2 and k % 5 == 0:
                    modes.add((3 * k // 5, -4 * k // 5))
    return modes


@st.composite
def _symbol_and_field(draw):
    n = draw(st.sampled_from([1, 2]))
    freq = st.tuples(*[st.integers(-24, 24)] * n)
    terms = tuple(
        Term(SparseField(n, draw(st.dictionaries(freq, _COEFFS, min_size=1, max_size=3))), mult)
        for mult in draw(st.lists(_MULTS, min_size=1, max_size=6))
    )
    a = SeparableSymbol(0.0, n, terms)
    coeffs = draw(st.dictionaries(freq, _COEFFS, max_size=40))
    for eta in _boundary_modes(a, n):
        coeffs[eta] = draw(_COEFFS)
    return a, SparseField(n, coeffs)


@settings(max_examples=150, deadline=None)
@given(_symbol_and_field())
def test_windowed_apply_matches_per_pair_loop_bitwise(case):
    a, u = case
    got, want = apply(a, u), _apply_by_pairs(a, u)
    assert _hexed(got) == _hexed(want)
    assert support_rule_xi(a, u) == _support_by_pairs(a, u)
    au, xi_set = apply_with_support(a, u)
    assert _hexed(au) == _hexed(got)
    assert xi_set == _support_by_pairs(a, u)


@st.composite
def _mult_and_ranked(draw):
    # Radii from the multiplier's own ends, repeated, their neighbouring
    # doubles and anything in between; hi = inf is never a radius.
    mult = draw(_MULTS)
    ends = [r for r in (mult.lo, mult.hi) if math.isfinite(r)]
    near = [math.nextafter(r, d) for r in ends for d in (0.0, math.inf) if r > 0.0 or d > 0.0]
    top = max(ends) * 2.0 + 1.0
    radius = st.one_of(st.sampled_from(ends + near), st.floats(0.0, top))
    return mult, sorted(draw(st.lists(radius, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(_mult_and_ranked())
@example((One(), []))
@example((One(), [0.0, 0.0, 3.0]))
@example((Ball(2.0), [0.0, 2.0, 2.0, 2.0, 3.0]))
@example((Block(_PROFILE, 0), [0.0, 0.0, 2.0, 2.0, 2.5]))
@example((Corona(_CHI, 2), [4.0, 4.0, 7.0, 10.0, 10.0]))
@example((Modulated(Corona(_CHI, 3), 0, _PROFILE), [2.0, 8.0, 8.0]))
def test_multiplier_window_is_the_closed_filter(case):
    # window(ranked) = (i, j): ranked[:i] below lo, ranked[j:] above hi, so
    # ranked[i:j] is exactly the radii with lo <= rho <= hi, for a list and
    # for the numpy array of _radial_on_grid alike (empty when lo > hi, as
    # for a Modulated multiplier whose inner lo passes its cap).
    mult, ranked = case
    inside = [rho for rho in ranked if mult.lo <= rho <= mult.hi]
    i, j = mult.window(ranked)
    assert (i, j) == (sum(rho < mult.lo for rho in ranked), sum(rho <= mult.hi for rho in ranked))
    assert ranked[i:j] == inside
    assert mult.window(np.array(ranked, dtype=float)) == (i, j)


@settings(max_examples=150, deadline=None)
@given(_symbol_and_field())
def test_windows_are_the_closed_filter_of_u_in_key_order(case):
    # Per term, in order: u's modes with lo <= |eta| <= hi in key order, their
    # radii and coefficients.  The boundary modes sit exactly on integer ends,
    # so a window open at either end drops one of them.
    a, u = case
    rows = list(_windows(a, u))
    assert [t for t, *_ in rows] == list(a.terms)
    for t, keys, radii, coeffs in rows:
        want = [(xi, c) for xi, c in u.items() if t.mult.lo <= freq_abs(xi) <= t.mult.hi]
        assert list(zip(keys, coeffs)) == want
        assert [rho.hex() for rho in radii] == [freq_abs(xi).hex() for xi in keys]


# -- paradifferential splitting ---------------------------------------------------------------


def test_split_reconstructs_modulated_application(rng, fam):
    for _ in range(100):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 12, 400, rng)
        m = 12
        t1, t2, t3 = paradiff_split(a, u, fam, m)
        recon = t1.add(t2).add(t3)
        ref = apply_modulated(a, u, fam.profile, m)
        assert rel_coeff_diff(recon, ref) <= 1e-12


def test_split_blocks_isolate_lacunary_terms(fam):
    # With a unit direction every term's x-frequency -2^j sits alone in
    # block j, so the block localisation is computable in closed form.
    from torspec.symbols import symbol_block

    d = 0.5
    _, a = ching_symbol(d, (1,), 4, 9)
    for j in range(4, 10):
        aj = symbol_block(a, j, fam)
        assert len(aj.terms) == 1
        ((xi, c),) = aj.terms[0].xpart.items()
        assert xi == (-(2**j),)
        assert c == 2.0 ** (j * d)


def test_split_of_eta_independent_symbol_is_exact(fam, rng):
    f = random_band_limited(1, 6, 40, rng)
    a = multiplication_symbol(f)
    u = random_band_limited(1, 10, 300, rng)
    m = 11
    t1, t2, t3 = paradiff_split(a, u, fam, m)
    ref = apply_modulated(a, u, fam.profile, m)
    assert rel_coeff_diff(t1.add(t2).add(t3), ref) <= 1e-12


def test_single_mode_input_touches_few_pairs(fam):
    # With one input mode and one symbol x-mode, at most two field blocks
    # and two symbol blocks are active, so at most h + 1 = 4 products
    # a_j(x,D)u_k are nonzero.
    from torspec.symbols import symbol_block

    a = multiplication_symbol(SparseField(1, {(48,): 1.0}))
    u = delta_field((100,))
    m = 12
    nonzero = 0
    for j in range(m + 1):
        aj = symbol_block(a, j, fam)
        if not aj.terms:
            continue
        for k in range(m + 1):
            uk = lp_project(u, k, fam)
            if len(uk) and len(apply(aj, uk)):
                nonzero += 1
    assert nonzero <= fam.h + 1


def test_corona_bounds_on_lacunary_flip(fam):
    _, a2 = ching_symbol(0.0, (2,), 5, 12)
    w = lacunary_field((1,), 0.5, 5, 12, delta_field((0,)))
    ok, _ = __import__("torspec").twisted_diagonal_check(a2, 2.0)
    assert ok
    for k in range(0, 15):
        rep = corona_check(a2, w, fam, k, tdc_constant=2.0)
        assert rep.ok
        if rep.refined_lo is not None and rep.bounds.get("diagonal"):
            lo_m = rep.bounds["diagonal"][0]
            assert lo_m == math.inf or lo_m >= rep.refined_lo


def test_corona_random_instances(rng, fam):
    for _ in range(100):
        a = random_symbol(1, rng)
        u = random_band_limited(1, 10, 300, rng)
        for k in range(0, 11):
            assert corona_check(a, u, fam, k).ok


def test_corona_vacuous_on_empty_block(fam):
    _, a = ching_symbol(0.0, (1,), 2, 4)
    rep = corona_check(a, delta_field((2,)), fam, 9)
    assert rep.ok


@pytest.mark.parametrize("C", [math.nan, 0.5])
def test_corona_rejects_an_aperture_below_one(fam, C):
    # A NaN aperture skipped the refined bound and reported ok where C = 2
    # finds the diagonal summand inside it.
    _, a = ching_symbol(0.0, (1,), 3, 8)
    u = lacunary_field((1,), 0.0, 2, 9, delta_field((0,)))
    assert not corona_check(a, u, fam, 8, tdc_constant=2.0).ok
    with pytest.raises(ValueError):
        corona_check(a, u, fam, 8, tdc_constant=C)


# -- generalised product -----------------------------------------------------------------------


def test_pi_product_stabilises_to_pointwise_product(profiles, rng):
    u = random_band_limited(1, 6, 16, rng)
    v = random_band_limited(1, 6, 16, rng)
    diag, limit = pi_product(u, v, profiles, (0, 8))
    assert diag.passed
    assert rel_coeff_diff(limit, pointwise_mul(u, v)) == 0.0


def test_pi_product_partial_associativity(profiles, rng):
    worst = 0.0
    for _ in range(200):
        u = random_band_limited(1, 4, 12, rng)
        v = random_band_limited(1, 4, 12, rng)
        f = random_band_limited(1, 3, 12, rng)
        _, uv = pi_product(u, v, profiles, (0, 7))
        _, fu_v = pi_product(pointwise_mul(f, u), v, profiles, (0, 7))
        _, u_fv = pi_product(u, pointwise_mul(f, v), profiles, (0, 7))
        f_uv = pointwise_mul(f, uv)
        worst = max(worst, rel_coeff_diff(f_uv, fu_v), rel_coeff_diff(f_uv, u_fv))
    assert worst <= 1e-12


def test_pi_product_stabilisation_tracks_top_frequency(profiles):
    u = SparseField(1, {(0,): 1.0, (40,): 1.0})
    v = SparseField(1, {(0,): 1.0, (33,): 1.0})
    diag, _ = pi_product(u, v, profiles, (0, 9))
    assert diag.passed
    # plateau must reach 40: psi(2^-m 40) = 1 from m = ceil(log2(40/r))
    assert diag.m_star == math.ceil(math.log2(40 / 1.05))


def test_pi_product_disagrees_before_stabilisation(profiles):
    u = SparseField(1, {(0,): 1.0, (40,): 1.0})
    v = SparseField(1, {(0,): 1.0, (-40,): 1.0})
    prof = profiles[0]
    from torspec.cutoffs import modulate

    early = pointwise_mul(modulate(u, 2, prof), modulate(v, 2, prof))
    assert rel_coeff_diff(early, pointwise_mul(u, v)) > 0.1


def _bits(f):
    return tuple((xi, c.real.hex(), c.imag.hex()) for xi, c in f.items())


def _diagnosis_bits(diag):
    return (
        [d.hex() for d in diag.delta],
        {p: [x.hex() for x in row] for p, row in diag.per_profile_norms.items()},
        diag.m_star,
        diag.passed,
        diag.cross_profile_max.hex(),
        _bits(diag.limit),
    )


@pytest.mark.parametrize("top", [0, 3, 40, 1000])
def test_diagnose_of_repeated_objects_matches_fresh_copies(profiles, top):
    # Sequences that reuse one object for bitwise-equal steps (as a
    # modulation run does for its covered steps) are judged exactly like
    # sequences of distinct but equal fields.
    from torspec.cutoffs import modulate

    u = SparseField(1, {(0,): 1.0, (top,): complex(-0.0, -1.0), (-3,): 0.25 - 2j})
    m_lo, m_hi = 0, 11
    canon = {}

    def shared_step(p, m):
        f = modulate(u, m, p)
        return canon.setdefault(_bits(f), f)

    shared = {p.id: [shared_step(p, m) for m in range(m_lo, m_hi + 1)] for p in profiles}
    assert any(a is b for row in shared.values() for a, b in zip(row, row[1:]))
    fresh = {
        pid: [SparseField(f.n, dict(f.coeffs), f.tau) for f in row] for pid, row in shared.items()
    }
    r = min(p.r for p in profiles)
    got = _diagnose(shared, m_lo, m_hi, float(top), r)
    want = _diagnose(fresh, m_lo, m_hi, float(top), r)
    assert _diagnosis_bits(got) == _diagnosis_bits(want)


@pytest.mark.parametrize(
    "pattern, m_lo, m_star, passed",
    [
        ("aaaa", 2, 2, True),  # constant from the start
        ("abbb", 2, 3, True),  # one change mid-range
        ("ababb", 2, 5, True),  # the last change is one step before the top
        ("aaab", 2, None, False),  # a change at the last step is not settled
        ("ab", 0, None, False),  # the same on a one-step range
        ("a", 4, 4, False),  # a one-point range has m_star but no step
    ],
)
def test_diagnose_stabilisation_index(pattern, m_lo, m_star, passed):
    # One hand-made sequence per profile id, m = m_lo .. m_lo + len - 1.
    fields = {"a": delta_field((0,)), "b": delta_field((1,))}
    row = [fields[ch] for ch in pattern]
    diag = _diagnose({"p": row, "q": list(row)}, m_lo, m_lo + len(row) - 1, 0.0, 1.0)
    assert [d != 0.0 for d in diag.delta] == [f is not g for f, g in zip(row, row[1:])]
    assert diag.m_star == m_star
    assert diag.passed is passed
    assert diag.covered is (m_star is not None)


def test_pi_product_convolves_once_per_uncovered_step(profiles, monkeypatch):
    # Steps whose plateau covers both factors share one product.
    import torspec.operator as op

    calls = []
    convolve = op._convolve

    def counted(n, a, nb, b, *rest):
        calls.append((len(a), len(b)))
        return convolve(n, a, nb, b, *rest)

    monkeypatch.setattr(op, "_convolve", counted)
    u = SparseField(1, {(0,): 1.0, (40,): 1.0, (-7,): 0.5j})
    v = SparseField(1, {(0,): 1.0, (33,): 1.0})
    diag, limit = pi_product(u, v, profiles, (0, 9))
    uncovered = sum(40.0 / float(2**m) > p.r for p in profiles for m in range(10))
    assert 0 < uncovered < 20
    assert len(calls) == uncovered + 1
    assert diag.passed and rel_coeff_diff(limit, pointwise_mul(u, v)) == 0.0


def test_pi_product_builds_one_field_per_computed_step(profiles, monkeypatch):
    # The modulated factors, the step differences and the norms are read
    # from coefficients: each computed step builds its product alone.
    u = SparseField(1, {(0,): 1.0, (40,): 1.0, (-7,): 0.5j})
    v = SparseField(1, {(0,): 1.0, (33,): 1.0})
    built = []
    init = SparseField.__post_init__

    def counted(self):
        built.append(len(self.coeffs))
        init(self)

    monkeypatch.setattr(SparseField, "__post_init__", counted)
    diag, _ = pi_product(u, v, profiles, (0, 9))
    uncovered = sum(40.0 / float(2**m) > p.r for p in profiles for m in range(10))
    assert diag.passed
    assert len(built) == uncovered + 1 == 13


def test_pi_product_raises_range_errors_before_step_errors(profiles):
    u = SparseField(1, {(0,): 1.0, (3,): 0.5})
    w = SparseField(2, {(0, 1): 1.0})
    with pytest.raises(DimensionMismatch):
        pi_product(u, w, profiles, (0, 4))
    # One profile, a reversed range and a negative index are ValueErrors
    # proper, raised before any step multiplies the mismatched factors.
    for run_profiles, m_range in [(profiles[:1], (0, 4)), (profiles, (4, 0)), (profiles, (-1, 4))]:
        with pytest.raises(ValueError) as err:
            pi_product(u, w, run_profiles, m_range)
        assert type(err.value) is ValueError
    # A range whose 2^m_hi is no double is a resource limit, also raised first.
    steps = []
    with pytest.raises(RangeTooLarge, match=r"modulation range 0\.\.1024 passes m = 1023"):
        pi_product(u, w, profiles, (0, 1024))
    with pytest.raises(RangeTooLarge):
        _modulation_run(lambda q, m: steps.append(m), profiles, (1000, 1100), 0.0)
    assert steps == []


@st.composite
def _grid_factors(draw):
    # 1-d factors whose product spectrum lies in [-126, 126], inside an M = 256 grid.
    coeffs = st.complex_numbers(
        min_magnitude=1e-6, max_magnitude=1e3, allow_nan=False, allow_infinity=False
    )
    fields = st.dictionaries(st.integers(-63, 63).map(lambda k: (k,)), coeffs, max_size=8)
    return SparseField(1, draw(fields)), SparseField(1, draw(fields))


@settings(max_examples=100, deadline=None)
@given(_grid_factors())
def test_products_match_the_dense_grid_product(profiles, pair):
    # The oracle multiplies samples on the grid and transforms back: it
    # shares neither the lattice sums nor the dict sum with the sparse code.
    u, v = pair
    M = 256
    grid = DenseField(1, M, sparse_to_dense(u, M).samples * sparse_to_dense(v, M).samples)
    want = dense_to_sparse(grid)
    # sum |u^| sum |v^| bounds every coefficient and every sample of uv.
    scale = math.fsum(map(abs, u.coeffs.values())) * math.fsum(map(abs, v.coeffs.values()))
    _, limit = pi_product(u, v, profiles, (0, 8))
    for got in (pointwise_mul(u, v), limit):
        keys = got.coeffs.keys() | want.coeffs.keys()
        worst = max((abs(got.coeff(xi) - want.coeff(xi)) for xi in keys), default=0.0)
        assert worst <= 1e-12 * scale


@st.composite
def _grid_operands(draw):
    # A 1-d random_symbol (x-parts in [-32, 32]) and a field in [-63, 63]:
    # every lattice sum lies in [-95, 95], inside an M = 256 grid.
    a = random_symbol(1, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    coeffs = st.complex_numbers(
        min_magnitude=1e-6, max_magnitude=1e3, allow_nan=False, allow_infinity=False
    )
    u = draw(st.dictionaries(st.integers(-63, 63).map(lambda k: (k,)), coeffs, max_size=12))
    return a, SparseField(1, u), draw(st.sampled_from(_DEFAULT_PROFILES)), draw(st.integers(0, 8))


def _grid_apply(a, u, M=256):
    """a(x, D) u on the grid: per term, the x-part's samples times those of
    m_t(D) u, summed over terms; the error bound sum_t sum|c_t| sum|m_t u^|."""
    total = np.zeros(M, dtype=complex)
    scale = 0.0
    for t in a.terms:
        mu = SparseField(1, {eta: t.mult_at(eta) * c for eta, c in u.coeffs.items()})
        total += sparse_to_dense(t.xpart, M).samples * sparse_to_dense(mu, M).samples
        sums = [math.fsum(map(abs, f.coeffs.values())) for f in (t.xpart, mu)]
        scale += sums[0] * sums[1]
    return dense_to_sparse(DenseField(1, M, total)), scale


@settings(max_examples=60, deadline=None)
@given(_grid_operands())
def test_apply_matches_the_dense_grid_product(case):
    # The oracle shares neither the windows, the lattice sums nor the dict
    # sum with apply; apply_modulated is checked against the same oracle on
    # the modulated symbol and field.
    a, u, p, m = case
    cases = [
        (a, u, apply(a, u)),
        (symbol_modulate(a, m, p), modulate(u, m, p), apply_modulated(a, u, p, m)),
    ]
    for sym, field, got in cases:
        want, scale = _grid_apply(sym, field)
        keys = got.coeffs.keys() | want.coeffs.keys()
        worst = max((abs(got.coeff(xi) - want.coeff(xi)) for xi in keys), default=0.0)
        assert worst <= 1e-12 * scale


def _norm_of_difference(f, g):
    """Reference: the weighted H^0 norm of the field of per-key differences."""
    keys = f.coeffs.keys() | g.coeffs.keys()
    d = SparseField(f.n, {xi: f.coeff(xi) - g.coeff(xi) for xi in keys})
    return math.sqrt(math.fsum(angled(xi) ** 0.0 * abs(c) ** 2 for xi, c in d.items()))


@st.composite
def _overlapping_pair(draw):
    freqs = st.integers(-50, 50).map(lambda k: (k,))
    keys = draw(st.lists(freqs, min_size=2, max_size=12, unique=True))
    half = len(keys) // 2
    f_keys, g_keys = draw(
        st.sampled_from(
            [(keys, keys), (keys[: half + 1], keys[half - 1 :]), (keys[:half], keys[half:])]
        )
    )
    parts = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310]),
        st.floats(-1e150, 1e150, allow_nan=False),
    )
    coeffs = st.builds(complex, parts, parts)
    f = SparseField(1, {xi: draw(coeffs) for xi in f_keys})
    g = SparseField(1, {xi: draw(coeffs) for xi in g_keys})
    return f, g


@settings(max_examples=100, deadline=None)
@given(_overlapping_pair())
def test_diff_norm_matches_norm_of_per_key_difference_bitwise(pair):
    # Equal, overlapping and disjoint spectra, with subnormal and signed-zero parts.
    f, g = pair
    twin = SparseField(f.n, dict(f.coeffs))
    for a, b in ((f, g), (g, f), (f, f), (f, twin)):
        assert _diff_norm(a, b).hex() == _norm_of_difference(a, b).hex()
    assert _diff_norm(f, twin) == 0.0


@pytest.mark.parametrize("big", [1e308, -1e308, 1e308j, complex(-1e308, 1.0)])
def test_diff_norm_rejects_an_infinite_difference(big):
    # One coefficient's difference overflows; building f - g raises for it.
    f = SparseField(1, {(0,): big, (2,): 1.0})
    g = SparseField(1, {(0,): -big, (5,): 1.0})
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError):
            _diff_norm(a, b)


MODULATION_SHA256 = "70dd0ab135c3351c0f0e2f96a0774eb07d308fc40ceb4b1ef1baec711c09e324"


def _modulation_digest() -> str:
    """SHA-256 over vanishing_limit and pi_product outputs, floats as float.hex.

    vanishing_limit runs the ching symbol on vanishing-family member 5 over
    both default profiles and m = 0..27; pi_product runs one seeded pair of
    1-d fields.  Every delta, norm, verdict and limit coefficient enters.
    """
    h = hashlib.sha256()

    def feed(diag, limit):
        h.update(f"{diag.profile_ids}|{diag.m_star}|{diag.passed}|".encode())
        h.update(f"{diag.cross_profile_max.hex()}|".encode())
        h.update(",".join(d.hex() for d in diag.delta).encode())
        for pid, norms in diag.per_profile_norms.items():
            h.update(f"|{pid}:{','.join(x.hex() for x in norms)}".encode())
        for xi, c in limit.items():
            h.update(f"|{xi}:{c.real.hex()}:{c.imag.hex()}".encode())
        h.update(b";")

    profiles = [fam.profile for fam in default_families()]
    vN, _, j_hi = vanishing_family(5, 0.0, (1,))
    _, a = ching_symbol(0.0, (1,), 5, j_hi)
    diag = vanishing_limit(a, vN, profiles, (0, 27))
    feed(diag, diag.limit)
    rng = np.random.default_rng(11)
    u = random_band_limited(1, 12, 40, rng)
    v = random_band_limited(1, 12, 40, rng)
    feed(*pi_product(u, v, profiles, (0, 8)))
    return h.hexdigest()


def test_modulation_outputs_are_pinned():
    # Any change to the radius or the cutoff arithmetic that moves one bit of
    # a modulated coefficient, a norm or a verdict fails here.
    assert _modulation_digest() == MODULATION_SHA256


# -- norm ratios ----------------------------------------------------------------------------------


def test_identity_ratio_is_unity(rng):
    [probe] = norm_ratio_probe(identity_symbol(1), (0.5,), trials=10, J=8, seed=5)
    for _, ratio in probe.rows:
        assert ratio <= 1.0 + 1e-12
        assert ratio >= 1.0 - 1e-12


def test_plain_family_ratio_grows():
    # Frozen oracle (harmonic sums): 4.060 < 4.820 < 5.557 at N = 5, 6, 7.
    ratios = []
    for N in (5, 6, 7):
        vN, _, j_hi = vanishing_family(N, 0.0, (1,))
        _, a = ching_symbol(0.0, (1,), N, j_hi)
        [probe] = norm_ratio_probe(a, (0.0,), trials=0, J=10, seed=1, adversarial=[vN])
        ratios.append(probe.max_ratio)
    oracle = []
    for N in (5, 6, 7):
        num = math.fsum(1.0 / j for j in range(N, N * N + 1))
        den = math.sqrt(math.fsum(1.0 / (j * j) for j in range(N, N * N + 1)))
        oracle.append(num / den)
    for got, want in zip(ratios, oracle):
        assert abs(got - want) <= 1e-9 * want
    assert ratios[0] < ratios[1] < ratios[2]


def test_norm_ratio_probe_needs_a_row():
    # Zero trials and no adversarial input give no ratio at all, not 0.0.
    _, a2 = ching_symbol(0.0, (2,), 1, 10)
    with pytest.raises(ValueError):
        norm_ratio_probe(a2, (0.0,), trials=0, J=10, seed=1)
    [probe] = norm_ratio_probe(a2, (0.0,), trials=0, J=10, seed=1, adversarial=[delta_field((3,))])
    assert [label for label, _ in probe.rows] == ["adversarial-0"]


@pytest.mark.parametrize(
    "a, J, p, adversarial",
    [
        (ching_symbol(0.0, (2,), 1, 12)[1], 12, 2.0, [vanishing_family(5, 0.0, (1,))[0]]),
        (ching_symbol(0.0, (2,), 1, 8)[1], 8, 4.0, [delta_field((3,)), delta_field((-5,), 2.0)]),
    ],
)
def test_norm_ratio_probe_reads_every_exponent_off_one_draw(a, J, p, adversarial):
    # One probe over several exponents is, row by row and bit for bit, one
    # single-exponent probe per exponent.
    s_values = (-1.0, 0.0, 0.5, 1.0)
    probes = norm_ratio_probe(a, s_values, trials=4, J=J, seed=11, p=p, adversarial=adversarial)
    assert [probe.s for probe in probes] == list(s_values)
    for s, probe in zip(s_values, probes):
        [alone] = norm_ratio_probe(a, (s,), trials=4, J=J, seed=11, p=p, adversarial=adversarial)
        assert [(label, r.hex()) for label, r in probe.rows] == [
            (label, r.hex()) for label, r in alone.rows
        ]
        assert probe.max_ratio.hex() == alone.max_ratio.hex()
        assert probe.p == alone.p == p
    assert [label for label, _ in probes[0].rows][-len(adversarial) :] == [
        f"adversarial-{i}" for i in range(len(adversarial))
    ]


def test_norm_ratio_probe_needs_an_exponent(monkeypatch):
    # No exponent is refused before any input is drawn or applied.
    import torspec.operator as op

    drawn = []
    monkeypatch.setattr(op, "_probe_field", lambda *args: drawn.append(args))
    monkeypatch.setattr(op, "apply", lambda *args: drawn.append(args))
    _, a2 = ching_symbol(0.0, (2,), 1, 10)
    with pytest.raises(ValueError, match="exponent"):
        norm_ratio_probe(a2, (), trials=3, J=10, seed=1, adversarial=[delta_field((3,))])
    assert drawn == []


def test_twisted_family_ratio_bounded(rng):
    maxima = []
    for J in (10, 20, 30):
        _, a2 = ching_symbol(0.0, (2,), 1, J)
        [probe] = norm_ratio_probe(a2, (-1.0,), trials=6, J=J, seed=9)
        maxima.append(probe.max_ratio)
    assert maxima[-1] <= 2.0 * maxima[0]


# -- spatial kernels ----------------------------------------------------------------------------


def test_kernel_pairing_identity_symbol(profiles, rng):
    u = random_band_limited(1, 5, 10, rng)
    v = random_band_limited(1, 5, 10, rng)
    lhs, rhs = kernel_pairing_1d(identity_symbol(1), profiles[0], 4, 256, u, v)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)


def test_kernel_pairing_lacunary(profiles, rng):
    _, a = ching_symbol(0.5, (1,), 3, 5)
    # corona mass in u; v carries the mirrored modes so the bilinear
    # pairing sum_zeta (FAu)(zeta) v^(-zeta) picks them up.
    u = SparseField(1, {(9,): 1.0, (17,): 0.5, (33,): 0.25, (0,): 1.0})
    v = SparseField(1, {(-1,): 1.0, (-8,): 1.0, (2,): 0.5})
    lhs, rhs = kernel_pairing_1d(a, profiles[0], 6, 256, u, v)
    assert abs(lhs) > 0.0
    assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


def test_kernel_single_term_closed_form(profiles):
    prof = profiles[0]
    d, j, m, M = 0.5, 4, 6, 256
    _, single = ching_symbol(d, (1,), j, j)
    K = spatial_kernel_1d(single, prof, m, M)
    x = 2 * np.pi * np.arange(M) / M
    kz = np.zeros(M, dtype=complex)
    for eta in range(-128, 128):
        w = single.terms[0].mult_at((eta,))
        if w:
            kz += w * prof.radial(abs(eta) / 2**m) * np.exp(1j * x * eta)
    idx = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    closed = 2.0 ** (j * d) * np.exp(-1j * (2**j) * x)[:, None] * kz[idx]
    assert float(np.max(np.abs(K.samples - closed))) <= 1e-10


def test_kernel_pairing_zero_inputs(profiles):
    _, a = ching_symbol(0.0, (1,), 3, 5)
    lhs, rhs = kernel_pairing_1d(a, profiles[0], 5, 128, zero_field(1), delta_field((1,)))
    assert lhs == 0.0 and abs(rhs) <= 1e-14


def test_kernel_rejects_2d_symbols(profiles):
    _, a = ching_symbol(0.0, (1, 0), 2, 4)
    with pytest.raises(DimensionUnsupported):
        spatial_kernel_1d(a, profiles[0], 3, 64)


def test_kernel_band_guard(profiles):
    a = identity_symbol(1)
    with pytest.raises(FrequencyOutOfRange):
        spatial_kernel_1d(a, profiles[0], 8, 64)


# -- two-dimensional coverage ------------------------------------------------------------------


def test_apply_dimension_mismatch():
    from torspec.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        apply(identity_symbol(2), delta_field((1,)))


def test_vanishing_limit_2d(profiles, rng):
    _, a = ching_symbol(0.0, (0, 1), 2, 6)
    u = random_band_limited(2, 8, 40, rng)
    diag = vanishing_limit(a, u, profiles, (0, 9))
    assert diag.passed and diag.cross_profile_max == 0.0


def test_paradiff_reconstruction_2d(fam, rng):
    a = random_symbol(2, rng)
    u = random_band_limited(2, 10, 60, rng)
    m = 9
    t1, t2, t3 = paradiff_split(a, u, fam, m)
    ref = apply_modulated(a, u, fam.profile, m)
    assert rel_coeff_diff(t1.add(t2).add(t3), ref) <= 1e-12


def test_support_rule_2d(rng):
    for _ in range(50):
        a = random_symbol(2, rng)
        u = random_band_limited(2, 8, 60, rng)
        support_rule_xi(a, u)


def test_norm_ratio_probe_dense_lp_route():
    [probe] = norm_ratio_probe(identity_symbol(1), (0.5,), trials=6, J=6, seed=2, p=4.0)
    for _, ratio in probe.rows:
        assert ratio <= 1.0 + 1e-10
    with pytest.raises(FrequencyOutOfRange):
        norm_ratio_probe(identity_symbol(1), (0.0,), trials=1, J=30, seed=2, p=4.0)


def test_flip_identity_negative_order_and_deep_range():
    # The exact flip holds for growing coefficients (d = -1) and a deep
    # dyadic range, provided the carrier bandwidth condition holds.
    for d, J in ((-1.0, 40), (0.0, 40), (0.5, 30), (1.0, 20)):
        v = delta_field((0,))
        w = lacunary_field((1,), d, 5, J, v)
        _, a2 = ching_symbol(d, (2,), 5, J)
        out = apply(a2, w)
        expected = lacunary_field((-1,), 0.0, 5, J, v)
        assert rel_coeff_diff(out, expected) <= 1e-12
