"""Operator application and its diagnostics.

The action of a separable symbol on a sparse field is the exact finite sum

    (Au)^(zeta) = sum_t sum_{xi + eta = zeta} c_t(xi) m_t(eta) u^(eta),

iterated in sorted (term, xi, eta) order so results are reproducible.  A
term's multiplier is evaluated only on the modes of u whose radius |eta|
lies in its support [lo, hi] (the spectral support rule): _windows ranks
the radii of u once (_rank) and yields each term's window modes, found by
Multiplier.window, the one bisection of that window.  _support_hits scans
the windows for apply, which sums its hit modes and weights, and for
apply_with_support, which also reads the support bound Xi off the keys of
that sum.  A vanishing-modulation run (_modulated_steps) builds one table
per run from the same windows, with each term's multiplier values.  The run's
cover radius and every step read that table, a step in both modulation
orders, skipping zero values, u^m coefficients that underflow to zero and
x-parts that modulate to nothing, and each profile sums the saturated
prefix of its terms once.  Every sum goes through fields.lattice_sum, one
(x-part coefficients, etas, weights) part per term.  Everything else here
is built on top of that kernel: frequency-modulated
approximants and their stabilisation diagnostics, the adjoint of the
lacunary family, spectral kernels, the frequency-support rule, the
paradifferential three-way split with corona checks, the generalised
product, norm-ratio probes (each input drawn and applied once for all its
exponents) and the one-dimensional spatial kernel.

vanishing_limit and pi_product share one modulation-run loop: each builds
a sequence per cutoff profile over its m range and _diagnose judges them,
from H^0 norms read off the coefficients (no difference field is built),
including whether the plateau reached the radius the caller must cover.
That loop is the one place covered steps are reused: every step whose
plateau already covers that radius, in any profile, returns the field of
the run's first covered step, and _diagnose treats a repeated object as a
step with no change, so each distinct modulation step is computed once.
The split localises fields with cutoffs.ball_diff, the one products-first
rule for u^j - u^k (lp_project is its block case j - k = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constructions import normal_sampler
from .cutoffs import (
    CutoffProfile,
    LPFamily,
    ball_diff,
    lp_project,
    modulate,
    modulated_coeffs,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionUnsupported,
    FrequencyOutOfRange,
    WindowTooLarge,
)
from .fields import (
    DEFAULT_PAIR_BUDGET,
    DenseField,
    Frequency,
    SparseField,
    _convolve,
    check_scale_index,
    freq_abs,
    freq_add,
    freq_radii,
    freq_scale,
    lattice_sum,
    sparse_to_dense,
)
from .norms import hsp_norm, sobolev_norm
from .symbols import (
    ChingData,
    Modulated,
    SeparableSymbol,
    Term,
    pow2,
    symbol_ball_diff,
    symbol_block,
    symbol_full_modulate,
)


def apply(a: SeparableSymbol, u: SparseField, budget: int = DEFAULT_PAIR_BUDGET) -> SparseField:
    """Exact operator application a(x, D) u on a sparse field.

    Each term evaluates its multiplier only on the modes inside its radius
    window (see _support_hits); every output coefficient still sums its
    (term, xi) contributions in the order of the full per-pair loop, so the
    result is bitwise the same.  The budget counts the nominal pairs
    sum_t |xpart_t| * |u|, inside the windows or not; more raise
    BudgetExceeded.  The windows are scanned as the sum goes and no support
    bound is built; apply_with_support returns one as well.
    """
    check_work(a, u, budget)
    return SparseField(u.n, lattice_sum(_support_hits(a, u)))


def apply_with_support(
    a: SeparableSymbol, u: SparseField, budget: int = DEFAULT_PAIR_BUDGET
) -> tuple[SparseField, set[Frequency]]:
    """a(x, D) u and its frequency-support bound Xi from one window scan.

    Xi = {xi + eta : c_t(xi) != 0, m_t(eta) u^(eta) != 0} is the key set of
    the lattice sum before SparseField prunes it, so a mode whose terms cancel
    stays in Xi, and spectrum(Au) within Xi is asserted before returning.
    The output is bitwise apply(a, u), under the same budget.
    """
    check_work(a, u, budget)
    sums = lattice_sum(_support_hits(a, u))
    au = SparseField(u.n, sums)
    xi_set = set(sums)
    if not au.coeffs.keys() <= xi_set:
        raise AssertionError("spectral support rule violated")
    return au, xi_set


def check_work(a: SeparableSymbol, u: SparseField, budget: int = DEFAULT_PAIR_BUDGET) -> None:
    """Raise unless a(x, D) u fits: the dimensions agree and the nominal
    pair count sum_t |xpart_t| * |u| is within budget (BudgetExceeded)."""
    if a.n != u.n:
        raise DimensionMismatch(f"symbol dimension {a.n} != field dimension {u.n}")
    work = sum(len(t.xpart) for t in a.terms) * len(u)
    if work > budget:
        raise BudgetExceeded(f"{work} coefficient products exceed budget {budget}")


def _rank(u: SparseField):
    """u's keys, their radii, the key indices stably sorted by radius, the sorted radii.

    The radii are one freq_radii pass over the keys: bitwise freq_abs of
    each, so the ranking is that of the per-key radii.
    """
    radii = freq_radii(u.n, u.coeffs)
    order = sorted(range(len(radii)), key=radii.__getitem__)
    return list(u.coeffs), radii, order, [radii[i] for i in order]


def _windows(a: SeparableSymbol, u: SparseField):
    """Yield (t, keys, radii, coeffs) per term t of a, in order: the modes eta of u
    with lo <= |eta| <= hi for t's multiplier, in key order, by t.mult.window on
    u's radii ranked once.  A window that covers all of u yields u's own lists."""
    keys, radii, order, ranked = _rank(u)
    coeffs = list(u.coeffs.values())
    for t in a.terms:
        i, j = t.mult.window(ranked)
        if j - i == len(ranked):
            yield t, keys, radii, coeffs
        else:
            w = sorted(order[i:j])
            yield t, [keys[k] for k in w], [radii[k] for k in w], [coeffs[k] for k in w]


def _support_hits(a: SeparableSymbol, u: SparseField):
    """Yield the lattice_sum part (t.xpart.coeffs, etas, weights) per term t of
    a: etas lists the modes eta of u (in key order) where m_t(eta) != 0,
    weights the products m_t(eta) u^(eta).  m_t is evaluated only on t's
    window (_windows): the scan of apply and apply_with_support.
    """
    for t, keys, radii, coeffs in _windows(a, u):
        radial = t.mult.radial
        etas, weights = [], []
        for key, rho, c in zip(keys, radii, coeffs):
            mv = complex(radial(rho))
            if mv != 0.0:
                etas.append(key)
                weights.append(mv * c)
        yield t.xpart.coeffs, etas, weights


def rel_coeff_diff(u: SparseField, v: SparseField) -> float:
    """Max coefficient difference over both spectra, relative to their largest magnitude."""
    return _rel_diff(u.coeffs, v.coeffs)


def _rel_diff(u: dict[Frequency, complex], v: dict[Frequency, complex]) -> float:
    """rel_coeff_diff of two coefficient dicts; a missing key counts as 0."""
    scale = max([abs(c) for f in (u, v) for c in f.values()] + [1e-300])
    worst = 0.0
    for xi in u.keys() | v.keys():
        worst = max(worst, abs(u.get(xi, 0.0 + 0.0j) - v.get(xi, 0.0 + 0.0j)))
    return worst / scale


def apply_modulated(
    a: SeparableSymbol, u: SparseField, profile: CutoffProfile, m: int
) -> SparseField:
    """a^m(x, D) u^m, bitwise apply(symbol_modulate(a, m), modulate(u, m)).

    One step of a fresh vanishing_limit run: a^m (1 x psi_m) applied to u is
    computed too, from the same window table, and asserted to agree (they
    are analytically identical); check_work(a, u) bounds both, before any
    table is built.
    """
    return _modulated_steps(a, u)[0](profile, m)


def _modulated_steps(a: SeparableSymbol, u: SparseField):
    """(step, cover) for one modulation run: step(p, m) = a^m(x, D) u^m, called in ascending m.

    check_work(a, u) comes first and bounds every step: each step's x-parts
    are a's own or subsets of them, so a run whose input is over budget is
    refused even if every step would fit.  Then one table row per term
    holds its window (_windows) and its multiplier's value at each mode.
    cover, the radius the run must reach, is the largest |eta| where some
    multiplier's value is not 0.0 and |xi| over those terms' x-parts.  A
    step reads only the table: each term it scans modulates its window's
    coefficients, and the x-order weight is complex(value) * u^m(eta),
    skipping a u^m(eta) that underflows to an exact zero, the full-order
    weight Modulated(t.mult, m, p).from_inner(value, rho) * u^(eta) for rho
    up to that multiplier's hi; both skip a zero value.
    A term is saturated at (p, m) when its x-part radii and the radii of u
    in its window have rho / 2^m <= p.r; its modulation keeps its keys and
    lo, so the term stands for itself in a^m's sort and is modulated only
    when a step scans it.  An x-part with every rho / 2^m >= p.R modulates
    to nothing and is skipped.  A step sorts its (term, table, saturated)
    rows by Term.sort_key, stably, which is the order of a^m's terms.  Per
    profile it keeps both orders' sums over the saturated prefix of its
    rows while it leads (pruning can reorder terms sharing a lo) and scans
    only the rows after it, so per key the sums keep their order.  The
    full-modulation sum stays a dict, checked by rel_coeff_diff's
    rule; a non-finite coefficient in it raises ValueError, as a field would.
    """
    check_work(a, u)
    rows = []  # (t, min x-part radius, max x-part or window radius of u, window table)
    cover = 0.0
    for t, ks, rs, cs in _windows(a, u):
        values = list(map(t.mult.radial, rs))
        xr = freq_radii(t.xpart.n, t.xpart.coeffs)
        near, reach = min(xr, default=math.inf), max(xr + rs, default=0.0)
        rows.append((t, near, reach, (ks, rs, cs, values)))
        hit = [rho for rho, value in zip(rs, values) if value != 0.0]
        if hit:
            cover = max(cover, *hit, *xr)
    runs: dict[CutoffProfile, tuple] = {}  # p -> (saturated prefix, x-only sums, full sums)

    def step(p: CutoffProfile, m: int) -> SparseField:
        check_scale_index(m, "m")  # with no term scanned, nothing else would check it
        scale = 2.0**m
        terms = []  # (term of a^m, its window table, saturated), sorted as a^m's terms
        for t, near, reach, table in rows:
            if reach / scale <= p.r:
                terms.append((t, table, True))
            elif near / scale < p.R and len(xp := modulate(t.xpart, m, p)):
                terms.append((Term(xp, t.mult), table, False))
        terms.sort(key=lambda row: row[0].sort_key())
        flat = next((i for i, row in enumerate(terms) if not row[2]), len(terms))
        held, first, second = runs.get(p, ((), {}, {}))
        if len(held) > flat or any(h is not row[0] for h, row in zip(held, terms)):
            held, first, second = (), {}, {}
        x_hits, f_hits = [], []
        for t, (ks, rs, cs, values), saturated in terms[len(held) :]:
            xp = modulate(t.xpart, m, p) if saturated else t.xpart
            full = Modulated(t.mult, m, p)
            x_etas, x_weights, f_etas, f_weights = [], [], [], []
            for key, rho, c, cm, value in zip(ks, rs, cs, modulated_coeffs(rs, cs, m, p), values):
                if cm and (mv := complex(value)) != 0.0:
                    x_etas.append(key)
                    x_weights.append(mv * cm)
                if rho <= full.hi and (mv := complex(full.from_inner(value, rho))) != 0.0:
                    f_etas.append(key)
                    f_weights.append(mv * c)
            x_hits.append((xp.coeffs, x_etas, x_weights))
            f_hits.append((xp.coeffs, f_etas, f_weights))
        new = flat - len(held)
        if new:
            first, second = lattice_sum(x_hits[:new], first), lattice_sum(f_hits[:new], second)
        runs[p] = ([row[0] for row in terms[:flat]], first, second)
        first = SparseField(u.n, lattice_sum(x_hits[new:], first))
        second = lattice_sum(f_hits[new:], second)
        if not all(abs(c) < math.inf for c in second.values()):  # as building it would
            raise ValueError("non-finite coefficient in the full-modulation sum")
        if not _rel_diff(first.coeffs, second) <= 1e-12:
            raise AssertionError("modulation-order equivalence violated beyond rounding")
        return first

    return step, cover


@dataclass
class ModulationDiagnostic:
    """Stabilisation record of a vanishing-modulation run.

    delta[i] is the largest successive H^0 difference norm across profiles at
    m = m_lo + i; m_star is the first index from which every profile's
    output stops changing; cross_profile_max is the largest discrepancy
    between profiles at the top of the range.  cover_radius is the largest
    radius the run must see (the caller's input spectrum), plateau_radius the
    smallest profile plateau r 2^m_star, and covered says that m_star is
    stable and cover_radius / 2^m_hi <= r for every profile, in modulate's
    float expression: every output from m_star on is then m_hi's, a covered
    step and so the exact limit.  passed needs at least one step (m_hi >
    m_lo: a one-point range is no evidence of stabilisation), agreement
    across profiles and coverage: a run whose plateau never reached the
    input's top mode stabilised only because that mode was cut off.
    """

    profile_ids: tuple[str, ...]
    m_lo: int
    m_hi: int
    delta: list[float]
    m_star: int | None
    cross_profile_max: float
    passed: bool
    limit: SparseField | None = None
    per_profile_norms: dict[str, list[float]] = field(default_factory=dict)
    cover_radius: float = 0.0
    plateau_radius: float | None = None
    covered: bool = False

    def to_json(self) -> dict:
        return {
            "profile_ids": list(self.profile_ids),
            "m_range": [self.m_lo, self.m_hi],
            "delta": self.delta,
            "m_star": self.m_star,
            "cross_profile_max": self.cross_profile_max,
            "covered": self.covered,
            "cover_radius": self.cover_radius,
            "plateau_radius": self.plateau_radius,
            "per_profile_norms": self.per_profile_norms,
            "pass": self.passed,
        }


def _diff_norm(f: SparseField, g: SparseField) -> float:
    """The H^0 norm of f - g, bitwise that of the built field (|c - c'| = |c + (-1.0 c')|
    and fsum is order-free); an infinite difference raises ValueError, as building it does."""
    if f is g:  # c - c is exactly 0 for finite c
        return 0.0
    diff = dict(f.coeffs)
    for xi, c in g.coeffs.items():
        diff[xi] = diff.get(xi, 0.0) - c
    norm = math.sqrt(math.fsum(abs(c) ** 2 for c in diff.values()))
    if norm == math.inf:  # only from an infinite |c - c'|; a finite one too big to square raises
        raise ValueError("non-finite coefficient in a difference of fields")
    return norm


def _h0_norms(seq: list[SparseField]) -> list[float]:
    norms: list[float] = []
    for i, f in enumerate(seq):
        norms.append(norms[-1] if i and f is seq[i - 1] else sobolev_norm(f, 0.0))
    return norms


def _diagnose(
    seqs: dict[str, list[SparseField]], m_lo: int, m_hi: int, cover: float, r: float
) -> ModulationDiagnostic:
    """Judge one sequence per profile id over m = m_lo..m_hi.

    cover is the radius the plateau must reach and r the smallest profile
    plateau.  A step that repeats the previous object counts as no change
    without a subtraction; that is bitwise what the subtraction gives.
    """
    ids = tuple(seqs)
    steps = m_hi - m_lo
    delta = [max(_diff_norm(seqs[p][i + 1], seqs[p][i]) for p in ids) for i in range(steps)]
    # A change at the last step leaves no step to show the output settled.
    last = max((i for i, d in enumerate(delta, 1) if d != 0.0), default=0)
    m_star = None if last == steps > 0 else m_lo + last
    cross = 0.0
    finals = [seqs[p][-1] for p in ids]
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            cross = max(cross, _diff_norm(finals[i], finals[j]))
    plateau = None if m_star is None else r * float(2**m_star)
    covered = m_star is not None and cover / float(2**m_hi) <= r
    passed = steps > 0 and covered and cross == 0.0
    norms = {p: _h0_norms(seqs[p]) for p in ids}
    return ModulationDiagnostic(
        ids, m_lo, m_hi, delta, m_star, cross, passed, finals[0], norms, cover, plateau, covered
    )


def _modulation_run(
    step, profiles: list[CutoffProfile], m_range: tuple[int, int], cover: float
) -> ModulationDiagnostic:
    """Diagnose the sequences step(p, m), m = m_lo..m_hi, one per profile p.

    cover is the largest radius that every profile's plateau must reach by
    m_hi for the run to pass.  A step is covered when cover / 2^m <= p.r
    (_diagnose's covered): every mode that contributes then holds 1.0 * c,
    so all covered steps are bitwise one field, and the run returns its
    first covered step's field for each later one without calling step
    (or its checks) again.  The sequences are keyed by profile id, so
    fewer than two distinct ids raise ValueError before any step: one
    profile given twice has nothing to be compared with.  So does a range
    with m_hi < m_lo, which holds no step at all.  Both ends pass
    check_scale_index before any step: an m_lo below 0 raises ValueError,
    an m_hi past 1023, where 2^m is no double, RangeTooLarge.
    """
    if len({p.id for p in profiles}) < 2:
        raise ValueError("need at least two distinct profile ids for independence checking")
    m_lo, m_hi = m_range
    if m_hi < m_lo:
        raise ValueError(f"modulation range {m_lo}..{m_hi} is reversed")
    for m in (m_lo, m_hi):
        check_scale_index(m, "m", f"modulation range {m_lo}..{m_hi}")
    seqs: dict[str, list[SparseField]] = {}
    plateau = None  # the field of the run's first covered step
    for p in profiles:
        seqs[p.id] = row = []
        for m in range(m_lo, m_hi + 1):
            covered = cover / 2.0**m <= p.r
            if covered and plateau is None:
                plateau = step(p, m)
            row.append(plateau if covered else step(p, m))
    return _diagnose(seqs, m_lo, m_hi, cover, min(p.r for p in profiles))


def vanishing_limit(
    a: SeparableSymbol,
    u: SparseField,
    profiles: list[CutoffProfile],
    m_range: tuple[int, int],
) -> ModulationDiagnostic:
    """Run a^m(x,D)u^m across m and profiles and report stabilisation.

    PASS means the outputs became constant in m within a range of at least
    one step, agree across every supplied profile and were reached once
    every plateau covers the radius that matters: the largest |eta| over the
    modes of u that some term's multiplier hits, and the largest |xi| over
    those terms' x-parts.  Each multiplier is evaluated once on its window,
    into the run's one window table (_modulated_steps), which gives that
    radius and which every step reads.  It is the executable rendering of
    membership of u in the operator domain.  A term whose x-part radii and
    radii of u in its window have rho / 2^m <= p.r (modulate's float
    expression) adds the same 1.0 * c products at every later m, so each
    profile's run sums that saturated prefix of the sorted terms once; once
    the plateau covers the radius that matters, every step is the first
    covered one (_modulation_run).
    """
    step, cover = _modulated_steps(a, u)
    return _modulation_run(step, profiles, m_range, cover)


def pi_product(
    u: SparseField,
    v: SparseField,
    profiles: list[CutoffProfile],
    m_range: tuple[int, int],
) -> tuple[ModulationDiagnostic, SparseField]:
    """Generalised product pi(u, v) = lim_m u^m v^m with its diagnostic.

    For trigonometric polynomials the sequence stabilises at the exact
    coefficient convolution of u and v.  The run covers top, the largest
    |xi| over both factors: on a covered step both modulated factors hold
    1.0 * c at every mode, so _modulation_run computes that product once.
    It is not pointwise_mul(u, v): 1.0 * c is not always c bitwise (a zero
    part can lose its sign).  A step convolves both factors' modulated
    coefficients, less exact zeros as in modulate, without building them.
    """
    parts = [(f.coeffs, freq_radii(f.n, f.coeffs)) for f in (u, v)]
    top = max((rho for _, rs in parts for rho in rs), default=0.0)

    def step(p: CutoffProfile, m: int) -> SparseField:
        a, b = (
            {xi: c for xi, c in zip(cs, modulated_coeffs(rs, cs.values(), m, p)) if c}
            for cs, rs in parts
        )
        return _convolve(u.n, a, v.n, b)

    diag = _modulation_run(step, profiles, m_range, top)
    return diag, diag.limit


# -- adjoint of the lacunary family ---------------------------------------------


def adjoint_apply_ching(b: ChingData, v: SparseField) -> SparseField:
    """Apply the adjoint of the lacunary operator by its closed coefficient form:

        (Bv)^(xi) = sum_j 2^(jd) conj(chi(2^-j xi)) v^(xi - 2^j theta).

    Adjointness <A u, v> = <u, B v> holds within rounding for all sparse u, v.
    A theta not of v's dimension raises DimensionMismatch, as apply does.
    """
    if len(b.theta) != v.n:
        raise DimensionMismatch(f"direction {b.theta} is not {v.n}-dimensional like the field")
    out: dict[Frequency, complex] = {}
    for j in range(b.j_lo, b.j_hi + 1):
        shift = freq_scale(2**j, b.theta)
        coeff = pow2(j * b.d)
        scale = float(2**j)
        for eta, cv in v.items():
            xi = freq_add(eta, shift)
            chi_val = b.chi.radial(freq_abs(xi) / scale)
            if chi_val == 0.0:
                continue
            w = coeff * chi_val  # chi is real-valued, so conjugation is trivial
            out[xi] = out.get(xi, 0.0) + w * cv
    return SparseField(v.n, out)


# -- spectral kernel and support rule --------------------------------------------


def spectral_kernel(
    a: SeparableSymbol,
    zeta_window: list[Frequency],
    eta_window: list[Frequency],
) -> np.ndarray:
    """Matrix K(zeta, eta) = a^(zeta - eta, eta) of the conjugated operator.

    For u supported in the eta window with image inside the zeta window,
    (F A u)(zeta) = sum_eta K(zeta, eta) u^(eta) agrees with apply().
    Windows of more than 4,000,000 entries raise WindowTooLarge.
    """
    if len(zeta_window) * len(eta_window) > 4_000_000:
        raise WindowTooLarge(
            f"{len(zeta_window)} x {len(eta_window)} window exceeds 4000000"
        )
    zw = [tuple(z) for z in zeta_window]
    ew = [tuple(e) for e in eta_window]
    K = np.zeros((len(zw), len(ew)), dtype=np.complex128)
    for jj, eta in enumerate(ew):
        for t in a.terms:
            mv = t.mult_at(eta)
            if mv == 0.0:
                continue
            for ii, zeta in enumerate(zw):
                c = t.xpart.coeff(tuple(z - e for z, e in zip(zeta, eta)))
                if c != 0.0:
                    K[ii, jj] += c * mv
    return K


def support_rule_xi(a: SeparableSymbol, u: SparseField) -> set[Frequency]:
    """The frequency-support bound Xi = {xi + eta : c_t(xi) != 0, m_t(eta) u^(eta) != 0}.

    This is apply_with_support(a, u)[1]: Xi is the key set of the lattice
    sum that computes a(x, D) u, exact-zero sums included, and the
    containment spectrum(Au) within Xi is asserted before returning.
    """
    return apply_with_support(a, u)[1]


# -- paradifferential splitting ---------------------------------------------------


def paradiff_split(
    a: SeparableSymbol,
    u: SparseField,
    fam: LPFamily,
    m: int,
) -> tuple[SparseField, SparseField, SparseField]:
    """Three-way split of a^m(x,D)u^m by dyadic block interaction.

    T1 collects symbol blocks lagging the field (j <= k - h), T2 the
    diagonal band |j - k| < h, T3 the transposed tail (k <= j - h); their sum
    reconstructs a^m(x,D)u^m exactly.  Each is summed over the levels
    k = 0..m of _level_pieces in ascending k; only exact zeros are dropped.
    """
    sums: dict[str, dict[Frequency, complex]] = {"lag_field": {}, "diagonal": {}, "lag_symbol": {}}
    for k in range(0, m + 1):
        for name, piece in _level_pieces(a, u, fam, k).items():
            acc = sums[name]
            for xi, c in piece.coeffs.items():
                acc[xi] = acc.get(xi, 0.0) + c
    return tuple(SparseField(u.n, acc) for acc in sums.values())


def _level_pieces(
    a: SeparableSymbol, u: SparseField, fam: LPFamily, k: int
) -> dict[str, SparseField]:
    """The nonempty level-k summands of the split, in T1, T3, T2 order.

    lag_field = a^(k-h) u_k (T1), lag_symbol = a_k u^(k-h) (T3) and
    diagonal = a_k (u^(k-1) - u^(k-h)) + (a^k - a^(k-h)) u_k (T2).  Each
    localisation is one products-first difference: ball_diff on u
    (u_k = lp_project(u, k)) and symbol_ball_diff on the x-parts of a.
    """
    h = fam.h
    pieces: dict[str, SparseField] = {}
    u_k = lp_project(u, k, fam)
    if len(u_k):
        low = symbol_ball_diff(a, k - h, -1, fam)
        if low.terms:
            pieces["lag_field"] = apply(low, u_k)
    a_k = symbol_block(a, k, fam)
    if a_k.terms:
        u_ball = ball_diff(u, k - h, -1, fam.profile)
        if len(u_ball):
            pieces["lag_symbol"] = apply(a_k, u_ball)
    mid = ball_diff(u, k - 1, k - h, fam.profile)
    if a_k.terms and len(mid):
        pieces["diagonal"] = apply(a_k, mid)
    a_band = symbol_ball_diff(a, k, k - h, fam)
    if a_band.terms and len(u_k):
        band = apply(a_band, u_k)
        pieces["diagonal"] = pieces["diagonal"].add(band) if "diagonal" in pieces else band
    return pieces


@dataclass(frozen=True)
class CoronaReport:
    """Measured spectral bounds of the split summands at one dyadic level."""

    k: int
    ok: bool
    annulus_lo: float
    annulus_hi: float
    ball_hi: float
    refined_lo: float | None
    bounds: dict[str, tuple[float, float]]


def corona_check(
    a: SeparableSymbol,
    u: SparseField,
    fam: LPFamily,
    k: int,
    tdc_constant: float | None = None,
) -> CoronaReport:
    """Verify the dyadic support bounds of the level-k split summands.

    The lagging summands must live in the annulus (r/4) 2^k <= |xi| <=
    (5R/4) 2^k; the diagonal summand in the ball |xi| <= 2R 2^k.  When the
    symbol satisfies the twisted-diagonal condition at aperture C
    (tdc_constant), the diagonal summand additionally obeys the refined
    lower bound (r / (2^{h+1} C)) 2^k once k >= h + 1 + log2(C/r).  An
    aperture that is not >= 1 (NaN included) raises ValueError, as in
    twisted_diagonal_check.
    """
    if tdc_constant is not None and not tdc_constant >= 1.0:
        raise ValueError("aperture constant C must be >= 1")
    h = fam.h
    r, R = fam.profile.r, fam.profile.R
    lo = (r / 4.0) * 2**k
    hi = (5.0 * R / 4.0) * 2**k
    ball_hi = 2.0 * R * 2**k

    pieces = _level_pieces(a, u, fam, k)
    bounds = {}
    ok = True
    refined_lo = None
    for name, piece in pieces.items():
        radii = [freq_abs(xi) for xi in piece.spectrum()]
        if not radii:
            bounds[name] = (math.inf, 0.0)
            continue
        lo_m, hi_m = min(radii), max(radii)
        bounds[name] = (lo_m, hi_m)
        if name in ("lag_field", "lag_symbol"):
            ok = ok and lo <= lo_m and hi_m <= hi
        else:
            ok = ok and hi_m <= ball_hi
    if tdc_constant is not None and "diagonal" in pieces:
        C = tdc_constant
        if k >= h + 1 + math.log2(C / r):
            refined_lo = (r / (2 ** (h + 1) * C)) * 2**k
            lo_m = bounds["diagonal"][0]
            ok = ok and (lo_m == math.inf or lo_m >= refined_lo)
    return CoronaReport(k, ok, lo, hi, ball_hi, refined_lo, bounds)


# -- norm-ratio probes -------------------------------------------------------------


@dataclass(frozen=True)
class RatioProbe:
    """Operator-to-input norm ratios for seeded random and adversarial inputs."""

    s: float
    p: float
    rows: list[tuple[str, float]]
    max_ratio: float


def norm_ratio_probe(
    a: SeparableSymbol,
    s_values: tuple[float, ...],
    trials: int,
    J: int,
    seed: int,
    p: float = 2.0,
    adversarial: list[SparseField] | None = None,
) -> list[RatioProbe]:
    """Ratios ||A u||_{H^s_p} / ||u||_{H^{s+d}_p} over seeded band-limited fields:
    one RatioProbe per exponent of s_values, in order.

    Random inputs draw frequencies inside the terms' eta supports (capped at
    2^J) plus a low-frequency background, so the probe actually exercises
    the operator.  Neither an input nor A u depends on s, so each is drawn
    and applied once for all the exponents.  p = 2 uses the exact
    weighted-l2 norm; other p go through the dense Bessel-potential route,
    which needs the spectra to fit a grid (J <= 16), sized once per input.
    Extra adversarial inputs can be appended explicitly; their rows are
    labelled adversarial-0, adversarial-1, ...  No exponent, or no row (zero
    trials and no adversarial input), raises ValueError.
    """
    if p != 2.0 and J > 16:
        raise FrequencyOutOfRange("dense L_p ratios need a grid: require J <= 16")
    if not s_values:
        raise ValueError("need at least one exponent s")
    rng = np.random.default_rng(seed)
    rows: list[list[tuple[str, float]]] = [[] for _ in s_values]

    def add_rows(label: str, u: SparseField) -> None:
        au = apply(a, u)
        if p == 2.0:
            pairs = [(sobolev_norm(au, s), sobolev_norm(u, s + a.d)) for s in s_values]
        else:
            top = max(
                [freq_abs(x) for x in u.spectrum()]
                + [freq_abs(x) for x in au.spectrum()]
                + [1.0]
            )
            M = 1 << max(4, math.ceil(math.log2(2.5 * top)))
            pairs = [(hsp_norm(au, s, p, M), hsp_norm(u, s + a.d, p, M)) for s in s_values]
        for box, (num, denom) in zip(rows, pairs):
            box.append((label, num / denom if denom > 0 else 0.0))

    for trial in range(trials):
        add_rows(f"random-{trial}", _probe_field(a, J, rng))
    for i, v in enumerate(adversarial or []):
        add_rows(f"adversarial-{i}", v)
    if not rows[0]:
        raise ValueError("need at least one trial or adversarial input: zero rows are no evidence")
    return [RatioProbe(s, p, box, max(v for _, v in box)) for s, box in zip(s_values, rows)]


def _probe_field(a: SeparableSymbol, J: int, rng) -> SparseField:
    n = a.n
    cap = 2.0**J
    coeffs: dict[Frequency, complex] = {}

    sample, bg = normal_sampler(rng)

    def put(xi):
        coeffs[xi] = complex(0.0 + sample(bg), 0.0 + sample(bg))

    for t in a.terms:
        lo, hi = t.mult.lo, t.mult.hi
        hi_eff = min(hi, cap) if math.isfinite(hi) else cap
        if hi_eff < max(lo, 1.0):
            continue
        for _ in range(3):
            rho = rng.uniform(max(lo, 1.0), hi_eff)
            direction = rng.normal(size=n)
            direction /= np.linalg.norm(direction) or 1.0
            xi = tuple(int(round(rho * c)) for c in direction)
            axi = freq_abs(xi)
            if axi > 0 and lo <= axi <= hi:
                put(xi)
    for _ in range(8):
        xi = tuple(int(c) for c in rng.integers(-8, 9, size=n))
        put(xi)
    if not coeffs:
        put((1,) + (0,) * (n - 1))
    return SparseField(n, coeffs)


# -- spatial kernel (n = 1) ---------------------------------------------------------


def spatial_kernel_1d(
    a: SeparableSymbol, profile: CutoffProfile, m: int, M: int
) -> DenseField:
    """Smooth approximating kernel K_m(x, y) of a^m(x,D)(.)^m on an M x M grid.

    Each term of symbol_full_modulate(a, m) contributes its x-part synthesised
    at x times the inverse transform of its multiplier evaluated at x - y.
    """
    if a.n != 1:
        raise DimensionUnsupported("spatial kernels are provided for n = 1 only")
    half = M // 2
    K = np.zeros((M, M), dtype=np.complex128)
    idx = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    for t in symbol_full_modulate(a, m, profile).terms:
        if t.xpart.max_abs_freq() >= half:
            raise FrequencyOutOfRange("modulated x-part exceeds the grid band")
        if t.mult.hi >= half:
            raise FrequencyOutOfRange(
                f"modulated eta band {t.mult.hi} does not fit below M/2 = {half}"
            )
        xs = sparse_to_dense(t.xpart, M).samples
        spec = np.zeros(M, dtype=np.complex128)
        top = int(math.floor(t.mult.hi))
        for eta in range(-top, top + 1):
            w = t.mult_at((eta,))
            if w != 0.0:
                spec[eta % M] = M * w
        kz = np.fft.ifft(spec)
        K += xs[:, None] * kz[idx]
    return DenseField(2, M, K)


def kernel_pairing_1d(
    a: SeparableSymbol,
    profile: CutoffProfile,
    m: int,
    M: int,
    u: SparseField,
    v: SparseField,
) -> tuple[complex, complex]:
    """Both sides of the kernel pairing <A_m u, v> = <K_m, v (x) u>.

    The left side is the bilinear dual pairing sum_zeta (F A_m u)(zeta)
    v^(-zeta); the right side is the double Riemann sum in the (2pi)^{-2}
    convention.  They agree for band-limited inputs.
    """
    au = apply(symbol_full_modulate(a, m, profile), u)
    lhs = complex(
        sum(c * v.coeff(tuple(-z for z in zeta)) for zeta, c in au.items())
    )
    K = spatial_kernel_1d(a, profile, m, M)
    vg = sparse_to_dense(v, M).samples
    ug = sparse_to_dense(u, M).samples
    rhs = complex(np.sum(K.samples * vg[:, None] * ug[None, :]) / M**2)
    return lhs, rhs
