"""Scripted reproductions of the named constructions, with verdicts.

Every experiment is a pure function of its parameters: deterministic given
(seed, parameters), it writes no file and returns an ExperimentReport whose
assertions are exactly its acceptance contract, plus metrics and its CSV
tables (report.tables, for the command line to write).
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .constructions import (
    ball_size,
    harmonic_ratio,
    harmonic_ratio_bracket,
    integer_draw,
    lacunary_field,
    random_band_limited,
    vanishing_family,
    weierstrass_field,
)
from .cutoffs import default_families, lp_project, telescope_check
from .errors import BudgetExceeded, FrequencyOutOfRange, RangeTooLarge, TorspecError
from .fields import (
    DEFAULT_PAIR_BUDGET,
    MAX_MODULATION_INDEX,
    DenseField,
    SparseField,
    check_grid_size,
    check_scale_index,
    delta_field,
    freq_abs,
    freq_scale,
    pointwise_mul,
    sparse_to_dense,
)
from .norms import _lp_of_moduli, bessel_potential, block_norms, cone_report, sobolev_norm
from .operator import (
    apply,
    apply_with_support,
    norm_ratio_probe,
    pi_product,
    rel_coeff_diff,
    vanishing_limit,
)
from .serialize import typed_param
from .symbols import (
    MAX_DYADIC,
    Ball,
    Corona,
    One,
    RadialBump,
    SeparableSymbol,
    Term,
    check_vanishes_at_zero,
    ching_symbol,
    dyadic_blocks,
    meyer_apply,
    meyer_symbol,
    twisted_diagonal_check,
)


@dataclass(frozen=True)
class Assertion:
    id: str
    measured: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class ExperimentReport:
    """One run's verdicts; tables maps a CSV file name to (header, rows), not in to_json()."""

    name: str
    params: dict
    metrics: dict = dc_field(default_factory=dict)
    assertions: list = dc_field(default_factory=list)
    artifacts: list = dc_field(default_factory=list)
    tables: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Every assertion passed, and there was at least one: none is no evidence."""
        return bool(self.assertions) and all(a.passed for a in self.assertions)

    def check(self, aid: str, measured: float, tolerance: float) -> None:
        """Record an error-style assertion: pass iff measured <= tolerance."""
        self.assertions.append(Assertion(aid, float(measured), float(tolerance), measured <= tolerance))

    def check_flag(self, aid: str, flag: bool) -> None:
        """Record a boolean assertion (measured 1.0 means true)."""
        self.assertions.append(Assertion(aid, 1.0 if flag else 0.0, 0.5, bool(flag)))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "metrics": self.metrics,
            "assertions": [a.to_json() for a in self.assertions],
            "artifacts": self.artifacts,
        }


def _need(test, text: str):
    """A rule: raise ValueError "<name> <text>, got <value>" unless test(value)."""

    def rule(name: str, value) -> None:
        if not test(value):
            got = list(value) if isinstance(value, tuple) else value
            raise ValueError(f"{name} {text}, got {got}")

    return rule


_AT_LEAST_ONE = _need(lambda v: v >= 1, "must be >= 1")  # zero trials or blocks prove nothing
# A sweep's verdicts compare its later points with its earlier ones.
_SWEEP = _need(
    lambda v: len(v) >= 2 and all(a < b for a, b in zip(v, v[1:])),
    "needs two or more strictly increasing values",
)
# Each list value names its own assertions and metrics; a d that is one order is no list.
_DISTINCT = _need(lambda v: not isinstance(v, tuple) or len(set(v)) == len(v), "repeats a value")

# One rule per parameter name, the same in every experiment that takes the
# name; _typed_params applies it to each given argument once typed_param has,
# so bad input is refused before any work.  Checks relating two parameters
# and resource limits (exit 3) stay in the experiments.
_RULES = {
    "seed": (_need(lambda v: v >= 0, "must be >= 0"),),  # numpy's own check names no parameter
    "trials": (_AT_LEAST_ONE,),
    "n_samples": (_AT_LEAST_ONE,),
    "m": (_AT_LEAST_ONE,),
    "j0": (_AT_LEAST_ONE,),
    "J": (_AT_LEAST_ONE,),
    "K": (_AT_LEAST_ONE,),
    "Q": (_need(lambda v: v >= 2, "must be >= 2 quadrature nodes"),),
    "n_modes": (_need(lambda v: v >= 3, "must be >= 3, the fewest modes a trial draws"),),
    "M": (lambda name, M: check_grid_size(M, f"{name}: grid size"),),
    "n_list": (_SWEEP,),
    "j_list": (_SWEEP,),
    "d": (_DISTINCT,),
    "s_list": (_DISTINCT,),
    # The grid quadrature rejects a p < 1 only once a field is on the grid.
    "p_list": (_DISTINCT, _need(lambda v: all(p >= 1 for p in v), "needs every p >= 1")),
    "f": (_need(lambda v: set(v) <= _COMPOSITE_F.keys(), "names an unknown function"), _DISTINCT),
    # A Lipschitz spread over one delta is 1 by construction.
    "delta_list": (
        _need(lambda v: all(delta > 0.0 for delta in v), "needs every delta > 0"),
        _need(lambda v: len(set(v)) >= 2, "needs two distinct values"),
    ),
    # Where chi vanishes the symbol annihilates the vanishing family or lacunary field.
    "theta": (
        _need(lambda v: RadialBump().radial(freq_abs(v)) != 0.0, "needs chi nonzero at |theta|"),
    ),
    "m_range": (
        _need(lambda v: len(v) == 2 and 0 <= v[0] < v[1], "must be two ints with 0 <= m_lo < m_hi"),
    ),
}


def _typed_params(fn):
    """fn with each given argument, in signature order, passed through
    typed_param and then through the _RULES of its name."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def run(*args, **kwargs):
        given = sig.bind(*args, **kwargs).arguments
        for key, value in given.items():
            given[key] = typed_param(value, sig.parameters[key].default, f"{fn.__name__} {key}")
            for rule in _RULES.get(key, ()):
                rule(key, given[key])
        return fn(**given)

    return run


def _params(args: dict) -> dict:
    """An experiment's record of its first locals(): its parameters, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in args.items()}


# -- 1. dyadic partition identity ------------------------------------------------


@_typed_params
def exp_partition_check(m: int = 8, n_samples: int = 10_000, seed: int = 0) -> ExperimentReport:
    """Telescoping partition identity on both default profiles.

    Each profile draws its samples from the window |k| <= ceil(R 2^m) + 2; an
    m whose window leaves int64 for either profile raises RangeTooLarge
    before any draw.
    """
    report = ExperimentReport("partition-check", _params(locals()))
    fams = default_families()
    tops = []
    for fam in fams:
        # R 2^m is exact while 2^m is a double, and a double below 2^63 is at
        # most 2^63 - 1024, so the window fits int64 exactly when this holds.
        scaled = fam.profile.R * 2.0**m if m <= MAX_MODULATION_INDEX else math.inf
        if not scaled < 2.0**63:
            raise RangeTooLarge(
                f"m = {m}: sample window ceil(R 2^m) + 2 leaves int64 at R = {fam.profile.R}"
            )
        tops.append(math.ceil(scaled) + 2)
    rng = np.random.default_rng(seed)
    rows = []
    for fam, top in zip(fams, tops):
        prof = fam.profile
        samples = [(int(k),) for k in rng.integers(-top, top + 1, size=n_samples)]
        dev = telescope_check(prof, m, samples)
        report.metrics[f"max_deviation[{prof.id}]"] = dev
        report.check(f"telescope<=1e-15[{prof.id}]", dev, 1e-15)
        rows.append((prof.id, dev))

        # Non-adjacent blocks never overlap: interval arithmetic and sampling.
        r, R = prof.r, prof.R
        interval_ok = all(
            R * 2**j < r * 2 ** (k - 1)
            for j in range(0, 12)
            for k in range(j + 2, 14)
        )
        # All 512 are drawn, which keeps the stream of the next profile; the
        # weights depend on |k| alone, so each distinct |k| is checked once.
        worst = 0.0
        for k in {abs(int(k)) for k in rng.integers(-top, top + 1, size=512)}:
            xi = (k,)
            for j in range(0, m):
                worst = max(
                    worst,
                    abs(fam.block_multiplier(j, xi) * fam.block_multiplier(j + 2, xi)),
                )
        report.check_flag(f"blocks-disjoint[{prof.id}]", interval_ok and worst == 0.0)
    report.tables["partition.csv"] = (["profile", "max_deviation"], rows)
    return report


# -- 2. unclosable graph ------------------------------------------------------------


@_typed_params
def exp_unclosable(
    d: float = 0.0,
    n_list: tuple[int, ...] = (5, 6, 7),
    theta: tuple[int, ...] = (1,),
) -> ExperimentReport:
    """The vanishing family: exact harmonic-ratio output and shrinking norms."""
    report = ExperimentReport("unclosable", _params(locals()))
    norms = []
    rows = []
    N0 = min(n_list)
    for N in n_list:
        vN, v, j_hi = vanishing_family(N, d, theta)
        _, a = ching_symbol(d, theta, N, j_hi)
        if N == N0:
            smallest = (vN, v, j_hi, a)
        out = apply(a, vN)
        rN = harmonic_ratio(N)
        expected = v.scale(rN)
        resid = rel_coeff_diff(out, expected)
        lo, hi = harmonic_ratio_bracket(N)
        vnorm = sobolev_norm(vN, d)
        report.metrics[f"harmonic_ratio[{N}]"] = rN
        report.metrics[f"input_norm[{N}]"] = vnorm
        report.metrics[f"residual[{N}]"] = resid
        report.check(f"output-equals-rN-v[{N}]", resid, 1e-12)
        report.check_flag(f"rN-in-bracket[{N}]", lo <= rN <= hi)
        norms.append(vnorm)
        rows.append((N, rN, lo, hi, vnorm, resid))
    strict = all(b < a for a, b in zip(norms, norms[1:]))
    report.check_flag("input-norm-strictly-decreasing", strict)

    # Stabilisation diagnostic on the smallest member, both profiles.
    vN, v, j_hi, a = smallest
    fams = default_families()
    diag = vanishing_limit(a, vN, [f.profile for f in fams], (0, j_hi + 3))
    report.metrics["diagnostic_m_star"] = float(diag.m_star if diag.m_star is not None else -1)
    report.metrics["diagnostic_cross_profile"] = diag.cross_profile_max
    report.metrics["limit_residual"] = rel_coeff_diff(diag.limit, v.scale(harmonic_ratio(N0)))
    report.check_flag("vanishing-limit-pass", diag.passed)
    report.tables["unclosable.csv"] = (
        ["N", "harmonic_ratio", "bracket_lo", "bracket_hi", "input_norm", "residual"],
        rows,
    )
    return report


# -- 3. wavefront flip ----------------------------------------------------------------


def _slope_at(groups, direction):
    """Slope of the cone_report group within distance 0.1 of the unit direction."""
    want = np.asarray(direction, dtype=float)
    want = want / np.linalg.norm(want)
    for rep, slope in groups:
        if np.linalg.norm(np.asarray(rep) - want) <= 0.1:
            return slope
    raise TorspecError(f"no spectral group near direction {direction}")


@_typed_params
def exp_wavefront_flip(
    d=(0.0, 0.5, 1.0),
    j0: int = 5,
    J: int = 20,
    theta: tuple[int, ...] = (1,),
    with_2d: bool = True,
) -> ExperimentReport:
    """Flip of the lacunary direction and the cross-direction generalisation."""
    report = ExperimentReport("flip", _params(locals()))
    rows = []

    def run_case(tag, n, theta_n, shift_dir, d_val):
        v = delta_field((0,) * n)
        w_in = lacunary_field(theta_n, d_val, j0, J, v)
        _, a2 = ching_symbol(d_val, freq_scale(2, shift_dir), j0, J)
        out = apply(a2, w_in)
        target_dir = tuple(t - 2 * s for t, s in zip(theta_n, shift_dir))
        expected = lacunary_field(target_dir, 0.0, j0, J, v)
        resid = rel_coeff_diff(out, expected)
        report.metrics[f"residual[{tag}]"] = resid
        report.check(f"flip-exact[{tag}]", resid, 1e-12)
        slope_in = _slope_at(cone_report(w_in), theta_n)
        slope_out = _slope_at(cone_report(out), target_dir)
        report.metrics[f"slope_in[{tag}]"] = slope_in
        report.metrics[f"slope_out[{tag}]"] = slope_out
        report.check(f"input-slope[{tag}]", abs(slope_in + d_val), 0.05)
        report.check(f"output-slope[{tag}]", abs(slope_out), 0.05)
        ok, _ = twisted_diagonal_check(a2, 2.0)
        report.check_flag(f"twisted-diagonal-C2[{tag}]", ok)
        rows.append((tag, d_val, slope_in, slope_out, resid))

    for d_val in d:
        run_case(f"1d,d={d_val}", len(theta), theta, theta, d_val)
        if with_2d:
            theta2 = (1, 0)
            run_case(f"2d-flip,d={d_val}", 2, theta2, theta2, d_val)
            run_case(f"2d-cross,d={d_val}", 2, theta2, (0, 1), d_val)
    report.tables["flip.csv"] = (["case", "d", "slope_in", "slope_out", "residual"], rows)
    return report


# -- 4. block norms of the lacunary exponential sum --------------------------------------


@_typed_params
def exp_weierstrass(
    d=(0.5, 1.0), J: int = 12, M: int = 2**15, p_list=(1.0, 2.0, 4.0)
) -> ExperimentReport:
    """Second microlocalisation and unit block norms of the lacunary sum."""
    report = ExperimentReport("weierstrass", _params(locals()))
    if not 2 ** (J + 1) < M // 2:
        raise TorspecError(f"need 2^(J+1) < M/2, got J={J}, M={M}")
    fam = default_families()[0]
    rows = []
    for d_val in d:
        f = weierstrass_field(d_val, J)
        worst = 0.0
        for k in range(1, J + 1):
            block = lp_project(f, k, fam)
            target = delta_field((2**k,), 2.0 ** (-k * d_val))
            worst = max(worst, rel_coeff_diff(block, target))
        report.metrics[f"block_isolation_error[d={d_val}]"] = worst
        report.check(f"block-isolates-one-mode[d={d_val}]", worst, 0.0)

        # For d <= 0 the untruncated sum has no pointwise realisation, so
        # only the spectral identities are asserted; norms stay metrics.
        assert_norms = d_val > 0.0
        if not assert_norms:
            report.metrics[f"negative_d_flag[d={d_val}]"] = 1.0
        # One pass puts each block on the grid once: the Besov (p = inf, q =
        # inf) norm is the largest block value, each Triebel norm an L_p
        # norm of the envelope.
        per_block, envelope = block_norms(f, d_val, math.inf, fam, M)
        bnorm = max(per_block, default=0.0)
        report.metrics[f"besov_norm[d={d_val}]"] = bnorm
        if assert_norms:
            report.check(f"besov-unit-norm[d={d_val}]", abs(bnorm - 1.0), 1e-10)
        rows.append((d_val, "besov", "inf", bnorm))
        for p in p_list:
            fnorm = _lp_of_moduli(envelope, p)
            report.metrics[f"triebel_norm[d={d_val},p={p}]"] = fnorm
            if assert_norms:
                report.check(f"triebel-unit-norm[d={d_val},p={p}]", abs(fnorm - 1.0), 1e-10)
            rows.append((d_val, "triebel", p, fnorm))
        del envelope  # free it before the next d's pass
    report.tables["weierstrass.csv"] = (["d", "kind", "p", "norm"], rows)
    return report


# -- 5. spectral support rule --------------------------------------------------------------


def random_symbol(n: int, rng: np.random.Generator, max_terms: int = 3) -> SeparableSymbol:
    """Seeded random separable symbol with structured multipliers."""
    draw = integer_draw(rng)
    terms = []
    for _ in range(draw(1, max_terms + 1)):
        xpart = random_band_limited(n, draw(1, 5), 32, rng)
        kind = ("corona", "one", "ball")[draw(0, 3)]  # rng.choice's draw
        if kind == "corona":
            terms.append(Term(xpart, Corona(RadialBump(), draw(1, 9))))
        elif kind == "one":
            terms.append(Term(xpart, One()))
        else:
            terms.append(Term(xpart, Ball(float(2 ** draw(2, 8)))))
    return SeparableSymbol(0.0, n, tuple(terms))


@_typed_params
def exp_spectral_support(seed: int = 7, trials: int = 500, n_modes: int = 25) -> ExperimentReport:
    """Random containment trials plus one engineered strict inclusion."""
    report = ExperimentReport("support", _params(locals()))
    rng = np.random.default_rng(seed)
    draw = integer_draw(rng)
    failures = 0
    strict = 0
    for trial in range(trials):
        n = 2 if trial % 4 == 3 else 1
        a = random_symbol(n, rng)
        u = random_band_limited(n, draw(3, n_modes + 1), 200, rng)
        try:
            au, xi_set = apply_with_support(a, u)
        except AssertionError:
            failures += 1
            continue
        if au.coeffs.keys() < xi_set:
            strict += 1
    report.metrics["containment_failures"] = float(failures)
    report.metrics["strict_inclusion_fraction"] = strict / trials
    report.check("containment-500-of-500", float(failures), 0.0)

    # Engineered cancellation: two terms wipe out one output mode exactly.
    t1 = Term(delta_field((3,), 1.0), One())
    t2 = Term(delta_field((5,), -1.0), One())
    a = SeparableSymbol(0.0, 1, (t1, t2))
    u = SparseField(1, {(10,): 1.0, (8,): 1.0})
    au, xi_set = apply_with_support(a, u)
    cancelled = (13,) not in au.spectrum() and (13,) in xi_set
    report.check_flag("engineered-strict-inclusion", cancelled and len(au))
    report.tables["support.csv"] = (
        ["trials", "failures", "strict_fraction"],
        [(trials, failures, strict / trials)],
    )
    return report


# -- 6. composite functions -------------------------------------------------------------


_COMPOSITE_F = {
    "sin": (np.sin, np.cos, 1e-8),
    "square": (lambda t: t * t, lambda t: 2.0 * t, 1e-10),
    "tanh": (np.tanh, lambda t: 1.0 - np.tanh(t) ** 2, 1e-8),
}


@_typed_params
def exp_composite(
    f=("sin", "square"),
    seed: int = 11,
    M: int = 4096,
    K: int = 7,
    Q: int = 32,
    s_list=(0.5, 1.0),
    p_list=(2.0, 4.0),
    delta_list=(1e-1, 1e-2, 1e-3, 1e-4),
) -> ExperimentReport:
    """Paraproduct factorisation of F(u) and the continuity probe.

    The draws take frequencies up to 2^(K-1), which must stay below the
    grid's M/2: a larger K raises FrequencyOutOfRange before any draw.
    """
    report = ExperimentReport("composite", _params(locals()))
    if K >= M.bit_length() - 1:  # 2^(K-1) >= M/2, by exponents: K may be huge
        raise FrequencyOutOfRange(f"need 2^(K-1) < M/2, got K={K}, M={M}")
    rng = np.random.default_rng(seed)
    fam = default_families()[0]
    window = 2 ** (K - 1)
    u_sparse = random_band_limited(1, 24, window, rng, hermitian=True)
    u_real = sparse_to_dense(u_sparse, M).samples.real
    u_dense = DenseField(1, M, (1.5 / float(np.max(np.abs(u_real)))) * u_real)
    u_real = u_dense.samples.real  # drops the drawn grid
    w_sparse = random_band_limited(1, 24, window, rng, hermitian=True)
    w = sparse_to_dense(w_sparse, M).samples.real
    w = w / float(np.max(np.abs(w)))  # drops the drawn grid

    # One set of dyadic blocks serves both functions' symbols and applies,
    # and one forward FFT per field serves every s; each potential is
    # reduced to its p-norms as soon as it is formed.
    blocks = dyadic_blocks(u_dense, fam, K)

    def pot_norms(samples) -> list[list[float]]:
        """lp_norm(<D>^s g, p) per s of s_list, per p of p_list, from one |<D>^s g| per s."""
        mods = (np.abs(pot.samples) for pot in bessel_potential(DenseField(1, M, samples), s_list))
        return [[_lp_of_moduli(m, p) for p in p_list] for m in mods]

    u_norms = pot_norms(u_dense.samples)
    norm_rows = []
    lip_rows = []
    for fname in f:
        F, Fp, tol = _COMPOSITE_F[fname]
        check_vanishes_at_zero(F)
        reproduced = meyer_apply(meyer_symbol(u_dense, Fp, blocks, Q), blocks)
        exact = F(u_real)
        err = float(np.max(np.abs(reproduced.samples - exact)))
        del reproduced
        report.metrics[f"sup_error[{fname}]"] = err
        report.check(f"factorisation-sup-error[{fname}]", err, tol)

        for s, fu_row, u_row in zip(s_list, pot_norms(exact), u_norms):
            for p, nf, nu in zip(p_list, fu_row, u_row):
                report.metrics[f"hsp[{fname},s={s},p={p}]"] = nf
                norm_rows.append((fname, s, p, nf, nu))

        # diff_norms[i][j][k]: the p_list[k]-norm at s_list[j] of delta_list[i]'s difference.
        diff_norms = [pot_norms(F(u_real + delta * w) - exact) for delta in delta_list]
        for j, s in enumerate(s_list):
            for k, p in enumerate(p_list):
                ratios = [norms[j][k] / delta for delta, norms in zip(delta_list, diff_norms)]
                lip_rows.extend((fname, s, p, delta, r) for delta, r in zip(delta_list, ratios))
                spread = max(ratios) / min(ratios)
                report.metrics[f"lipschitz_spread[{fname},s={s},p={p}]"] = spread
                report.check(f"lipschitz-bounded[{fname},s={s},p={p}]", spread, 2.0)
    report.tables["composite_norms.csv"] = (["f", "s", "p", "norm_Fu", "norm_u"], norm_rows)
    report.tables["composite_lipschitz.csv"] = (["f", "s", "p", "delta", "ratio"], lip_rows)
    return report


# -- 7. continuity dichotomy --------------------------------------------------------------


@_typed_params
def exp_continuity(
    seed: int = 23,
    d: float = 0.0,
    theta: tuple[int, ...] = (1,),
    n_list: tuple[int, ...] = (5, 6, 7, 8),
    j_list: tuple[int, ...] = (10, 20, 30, 40),
    trials: int = 6,
) -> ExperimentReport:
    """Unboundedness along the vanishing family vs twisted-diagonal boundedness.

    A u is computed once per input for both its exponents.  The exploratory
    member, the smallest, is built first, so its ValueError (N < 5) or
    RangeTooLarge (N^2 past MAX_DYADIC) comes before any other work; then,
    before any other member is built, an n_list member N past MAX_DYADIC
    raises RangeTooLarge and one whose apply would pass the pair budget
    raises BudgetExceeded (_vanishing_work)."""
    report = ExperimentReport("continuity", _params(locals()))
    rows = []
    v_zero, _, j_zero = vanishing_family(min(n_list), d, theta)
    for N in n_list:
        if N > MAX_DYADIC:
            raise RangeTooLarge(f"n_list member N = {N} > {MAX_DYADIC}: its dyadic range is empty")
        work = _vanishing_work(N, len(theta))
        if work > DEFAULT_PAIR_BUDGET:
            raise BudgetExceeded(
                f"n_list member N = {N} needs at least {work} coefficient products,"
                f" over budget {DEFAULT_PAIR_BUDGET}"
            )

    # (i) plain lacunary direction: ratios along the vanishing family.
    ratios_s0 = []
    ratios_s1 = []
    for N in n_list:
        vN, _, j_hi = vanishing_family(N, d, theta, allow_truncation=True)
        _, a = ching_symbol(d, theta, N, j_hi)
        au = apply(a, vN)
        for s, box in ((0.0, ratios_s0), (1.0, ratios_s1)):
            num = sobolev_norm(au, s)
            den = sobolev_norm(vN, s + d)
            box.append(num / den)
            rows.append(("plain", N, s, box[-1]))
    report.metrics.update(
        {f"plain_ratio[s=0,N={N}]": v for N, v in zip(n_list, ratios_s0)}
    )
    report.metrics.update(
        {f"plain_ratio[s=1,N={N}]": v for N, v in zip(n_list, ratios_s1)}
    )
    increasing = all(b > a for a, b in zip(ratios_s0, ratios_s0[1:]))
    report.check_flag("plain-s0-strictly-increasing", increasing)
    report.check("plain-s1-bounded", max(ratios_s1) / ratios_s1[0], 2.0)

    # (ii) twisted-diagonal direction: random probes across growing caps.
    two_theta = freq_scale(2, theta)
    maxima_sm1 = []
    maxima_s1 = []
    for J in j_list:
        _, a2 = ching_symbol(d, two_theta, 1, J)
        probe_m1, probe_p1 = norm_ratio_probe(a2, (-1.0, 1.0), trials, J, seed)
        maxima_sm1.append(probe_m1.max_ratio)
        maxima_s1.append(probe_p1.max_ratio)
        report.metrics[f"twisted_max_ratio[s=-1,J={J}]"] = probe_m1.max_ratio
        report.metrics[f"twisted_max_ratio[s=1,J={J}]"] = probe_p1.max_ratio
        rows.append(("twisted", J, -1.0, probe_m1.max_ratio))
        rows.append(("twisted", J, 1.0, probe_p1.max_ratio))
    report.check("twisted-sm1-no-growth", maxima_sm1[-1] / maxima_sm1[0], 2.0)
    report.check("twisted-s1-no-growth", maxima_s1[-1] / maxima_s1[0], 2.0)

    # Exploratory: an order-1 radial zero at the unit sphere (no assertion).
    chi_zero = RadialBump(zero_order=1)
    _, a_zero = ching_symbol(d, theta, min(n_list), j_zero, chi_zero)
    report.metrics["zero-order-1_ratio[s=0]"] = sobolev_norm(
        apply(a_zero, v_zero), 0.0
    ) / sobolev_norm(v_zero, d)

    report.tables["continuity.csv"] = (["family", "param", "s", "ratio"], rows)
    return report


def _vanishing_work(N: int, n: int) -> int:
    """apply's pair count for continuity's member N >= 5 in dimension n, without
    building the member or its symbol.

    vanishing_family(N, d, theta, allow_truncation=True) holds T = min(N^2,
    MAX_DYADIC) - N + 1 disjoint shifts of its carrier's C modes, and
    ching_symbol(d, theta, N, min(N^2, MAX_DYADIC)) T one-mode x-parts, so
    the count is T * T * C.  A 2-d C stops at its first row past the budget.
    """
    T = min(N * N, MAX_DYADIC) - N + 1
    return T * T * ball_size(n, max(1, 2**N // 20), DEFAULT_PAIR_BUDGET // (T * T))


# -- 8. generalised product -----------------------------------------------------------------


@_typed_params
def exp_product(
    seed: int = 3, m_range: tuple[int, int] = (0, 8), trials: int = 40
) -> ExperimentReport:
    """Stabilisation of the modulated product and partial associativity.

    all-diagnostics-pass needs the diagnostics of all three pi_product runs
    of every trial: pi(u, v), pi(f u, v) and pi(u, f v).
    """
    report = ExperimentReport("product", _params(locals()))
    check_scale_index(m_range[1], "m", f"m_range {list(m_range)}")
    rng = np.random.default_rng(seed)
    draw = integer_draw(rng)
    profiles = [f.profile for f in default_families()]
    worst_stab = 0.0
    worst_assoc = 0.0
    all_passed = True
    rows = []
    for trial in range(trials):
        u = random_band_limited(1, draw(2, 8), 16, rng)
        v = random_band_limited(1, draw(2, 8), 16, rng)
        f = random_band_limited(1, draw(2, 6), 16, rng)
        diag, limit = pi_product(u, v, profiles, m_range)
        stab = rel_coeff_diff(limit, pointwise_mul(u, v))
        worst_stab = max(worst_stab, stab)
        diag_fu_v, lim_fu_v = pi_product(pointwise_mul(f, u), v, profiles, m_range)
        diag_u_fv, lim_u_fv = pi_product(u, pointwise_mul(f, v), profiles, m_range)
        all_passed = all_passed and diag.passed and diag_fu_v.passed and diag_u_fv.passed
        f_uv = pointwise_mul(f, limit)
        assoc = max(rel_coeff_diff(f_uv, lim_fu_v), rel_coeff_diff(f_uv, lim_u_fv))
        worst_assoc = max(worst_assoc, assoc)
        rows.append((trial, diag.m_star, stab, assoc))
    report.metrics["worst_stabilisation_residual"] = worst_stab
    report.metrics["worst_associativity_residual"] = worst_assoc
    report.check_flag("all-diagnostics-pass", all_passed)
    report.check("stabilises-to-pointwise-product", worst_stab, 1e-12)
    report.check("partial-associativity", worst_assoc, 1e-12)
    report.tables["product.csv"] = (["trial", "m_star", "stab", "assoc"], rows)
    return report


REGISTRY = {
    "partition-check": exp_partition_check,
    "unclosable": exp_unclosable,
    "flip": exp_wavefront_flip,
    "weierstrass": exp_weierstrass,
    "support": exp_spectral_support,
    "composite": exp_composite,
    "continuity": exp_continuity,
    "product": exp_product,
}
