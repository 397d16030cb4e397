"""Separable symbols a(x, eta) and the constructors used by the experiments.

A symbol is carried as a finite sum of terms, each the product of a sparse
x-part and a radial eta-multiplier:

    a(x, eta) = sum_t  ( sum_xi  c_t(xi) exp(i<x, xi>) ) * m_t(|eta|),

so the partial transform is a^(xi, eta) = sum_t c_t(xi) m_t(|eta|).  Every
multiplier is one small frozen dataclass (One, Corona, Block, Ball,
Modulated) whose support radii lo <= |eta| <= hi are derived from its own
parameters, not declared beside it.  Evaluation outside that support returns
exactly zero, which makes support reasoning (twisted-diagonal and corona
checks) decidable.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .cutoffs import BLENDS, CutoffProfile, LPFamily, ball_diff, falling_blend, modulate
from .errors import (
    BadRange,
    DimensionMismatch,
    FNotVanishingAtZero,
    NonRealInput,
    ZeroDirection,
)
from .fields import (
    DenseField,
    Frequency,
    SparseField,
    angled,
    check_scale_index,
    freq_abs,
    freq_scale,
    grid_frequencies,
)

# 2^(j*d) stays a normal double for |j*d| up to ~1020; keep a wide margin.
DYADIC_EXP_CAP = 900.0
# The largest dyadic index a lacunary construction or symbol takes.
MAX_DYADIC = 60


def pow2(e: float) -> float:
    if abs(e) > DYADIC_EXP_CAP:
        raise BadRange(f"dyadic exponent {e} beyond +/-{DYADIC_EXP_CAP}")
    return 2.0**e


@dataclass(frozen=True)
class RadialBump:
    """Radial bump: 0 outside [lo, hi], exactly 1 on the plateau [plo, phi].

    zero_order > 0 multiplies by (|eta| - 1)^zero_order, planting a radial
    zero of that order on the unit sphere (used to probe continuity
    thresholds); the plateau value is then no longer 1.  An unknown blend
    kind or a zero_order that is not a non-negative int raises ValueError.
    """

    lo: float = 0.75
    hi: float = 1.25
    plo: float = 0.9
    phi: float = 1.1
    kind: str = "exp"
    zero_order: int = 0

    def __post_init__(self):
        if not (0.0 < self.lo < self.plo < self.phi < self.hi):
            raise ValueError("need 0 < lo < plo < phi < hi")
        if self.kind not in BLENDS:
            raise ValueError(f"unknown blend kind {self.kind!r}")
        order = self.zero_order
        if isinstance(order, bool) or not isinstance(order, int) or order < 0:
            raise ValueError(f"zero_order must be a non-negative int, got {order!r}")

    def radial(self, rho: float) -> float:
        if rho <= self.lo or rho >= self.hi:
            return 0.0
        if rho < self.plo:
            base = falling_blend(self.kind, (self.plo - rho) / (self.plo - self.lo))
        elif rho <= self.phi:
            base = 1.0
        else:
            base = falling_blend(self.kind, (rho - self.phi) / (self.hi - self.phi))
        if self.zero_order:
            base *= (rho - 1.0) ** self.zero_order
        return base


@dataclass(frozen=True)
class Multiplier:
    """Radial eta-multiplier m(|eta|), exactly zero outside lo <= |eta| <= hi.

    Each subclass derives lo/hi from its own parameters once, in
    __post_init__, and serializes itself with to_json().
    """

    lo: float = field(init=False, repr=False, compare=False)
    hi: float = field(init=False, repr=False, compare=False)

    def _bound(self, lo: float, hi: float) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def window(self, ranked) -> tuple[int, int]:
        """(i, j): ranked[i:j] holds the lo <= rho <= hi of the ascending radii ranked."""
        return bisect_left(ranked, self.lo), bisect_right(ranked, self.hi)


@dataclass(frozen=True)
class One(Multiplier):
    """The constant multiplier 1 on all of eta-space."""

    def __post_init__(self):
        self._bound(0.0, math.inf)

    def radial(self, rho: float) -> float:
        return 1.0

    def to_json(self) -> dict:
        return {"kind": "one"}


@dataclass(frozen=True)
class Corona(Multiplier):
    """Lacunary corona chi(2^-j eta), 0 <= j <= 1023, supported in 2^j [chi.lo, chi.hi]."""

    chi: RadialBump
    j: int

    def __post_init__(self):
        check_scale_index(self.j, "j")
        scale = 2.0**self.j
        self._bound(self.chi.lo * scale, self.chi.hi * scale)

    def radial(self, rho: float) -> float:
        return self.chi.radial(rho / float(2**self.j))

    def to_json(self) -> dict:
        return {"kind": "corona", "j": self.j, "chi": asdict(self.chi)}


@dataclass(frozen=True)
class Block(Multiplier):
    """Dyadic block Phi_j of the Littlewood-Paley family built on `profile`.

    Phi_0 = psi lives in the ball |eta| <= R, Phi_j in the annulus
    r 2^(j-1) <= |eta| <= R 2^j; no family gap h is needed for that.
    """

    profile: CutoffProfile
    j: int

    def __post_init__(self):
        check_scale_index(self.j, "j")
        if self.j == 0:
            self._bound(0.0, self.profile.R)
        else:
            self._bound(self.profile.r * 2.0 ** (self.j - 1), self.profile.R * 2.0**self.j)

    def radial(self, rho: float) -> float:
        return self.profile.block_weight(rho, self.j)

    def to_json(self) -> dict:
        return {"kind": "block", "j": self.j, "profile": asdict(self.profile)}


@dataclass(frozen=True)
class Ball(Multiplier):
    """Indicator of the closed ball |eta| <= radius."""

    radius: float

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ValueError(f"ball radius must be >= 0, got {self.radius!r}")
        self._bound(0.0, self.radius)

    def radial(self, rho: float) -> float:
        return 1.0 if rho <= self.radius else 0.0

    def to_json(self) -> dict:
        return {"kind": "ball", "radius": self.radius}


@dataclass(frozen=True)
class Modulated(Multiplier):
    """inner(eta) psi(2^-m eta), 0 <= m <= 1023: the eta side of a^m (1 x psi_m)."""

    inner: Multiplier
    m: int
    profile: CutoffProfile

    def __post_init__(self):
        check_scale_index(self.m, "m")
        self._bound(self.inner.lo, min(self.inner.hi, self.profile.R * 2.0**self.m))

    def radial(self, rho: float) -> float:
        return self.from_inner(self.inner.radial(rho), rho)

    def from_inner(self, value: float, rho: float) -> float:
        """The value at rho given value = inner.radial(rho), so a caller that
        holds the inner values evaluates the product by this one formula."""
        return value * self.profile.radial(rho / 2**self.m)

    def to_json(self) -> dict:
        return {
            "kind": "modulated",
            "m": self.m,
            "profile": asdict(self.profile),
            "inner": self.inner.to_json(),
        }


@dataclass(frozen=True)
class Term:
    """One separable term: sparse x-part times a radial eta-multiplier."""

    xpart: SparseField
    mult: Multiplier

    def mult_at(self, eta) -> complex:
        """Multiplier value, exactly zero outside [mult.lo, mult.hi]."""
        rho = freq_abs(eta)
        if not self.mult.lo <= rho <= self.mult.hi:
            return 0.0
        return complex(self.mult.radial(rho))

    def sort_key(self):
        return (self.mult.lo, tuple(self.xpart.coeffs))


@dataclass(frozen=True)
class SeparableSymbol:
    """Finite-term symbol of declared order d on the n-torus."""

    d: float
    n: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.xpart.n != self.n:
                raise DimensionMismatch("term x-part dimension mismatch")
        object.__setattr__(
            self, "terms", tuple(sorted(self.terms, key=Term.sort_key))
        )


def identity_symbol(n: int) -> SeparableSymbol:
    """The symbol a == 1, whose operator is the identity."""
    one = SparseField(n, {(0,) * n: 1.0 + 0.0j})
    return SeparableSymbol(0.0, n, (Term(one, One()),))


def multiplication_symbol(f: SparseField) -> SeparableSymbol:
    """The eta-independent symbol a(x) = f(x); its operator is u -> f u."""
    return SeparableSymbol(0.0, f.n, (Term(f, One()),))


# -- lacunary counterexample family -------------------------------------------


@dataclass(frozen=True)
class ChingData:
    """Constructor data for the lacunary symbol sum_j 2^(jd) e^{-i 2^j x.theta} chi(2^-j eta)."""

    d: float
    theta: Frequency
    j_lo: int
    j_hi: int
    chi: RadialBump


def ching_symbol(
    d: float,
    theta: Frequency,
    j_lo: int,
    j_hi: int,
    chi: RadialBump | None = None,
) -> tuple[ChingData, SeparableSymbol]:
    """Build the lacunary counterexample symbol for direction theta.

    Term j has x-part {-2^j theta -> 2^(jd)} and multiplier chi(2^-j eta);
    distinct terms have disjoint eta-supports (dyadic coronas).
    """
    theta = tuple(int(c) for c in theta)
    if all(c == 0 for c in theta):
        raise ZeroDirection("theta must be a nonzero lattice vector")
    if not (1 <= j_lo <= j_hi <= MAX_DYADIC):
        raise BadRange(f"need 1 <= j_lo <= j_hi <= {MAX_DYADIC}, got [{j_lo}, {j_hi}]")
    if chi is None:
        chi = RadialBump()
    pow2(abs(d) * j_hi)  # fail early on coefficient under/overflow
    n = len(theta)
    terms = []
    for j in range(j_lo, j_hi + 1):
        coeff = pow2(j * d)
        xpart = SparseField(n, {freq_scale(-(2**j), theta): coeff})
        terms.append(Term(xpart, Corona(chi, j)))
    data = ChingData(d, theta, j_lo, j_hi, chi)
    return data, SeparableSymbol(d, n, tuple(terms))


# -- modulation and verification ----------------------------------------------


def _map_xparts(a: SeparableSymbol, f: Callable[[SparseField], SparseField]) -> SeparableSymbol:
    """a with f applied to each x-part, dropping the terms it empties."""
    new_terms = []
    for t in a.terms:
        xp = f(t.xpart)
        if len(xp):
            new_terms.append(Term(xp, t.mult))
    return SeparableSymbol(a.d, a.n, tuple(new_terms))


def symbol_modulate(a: SeparableSymbol, m: int, profile: CutoffProfile) -> SeparableSymbol:
    """Frequency modulation in x: scale each x-coefficient by psi(2^-m xi).

    Terms whose x-part is wiped out entirely are dropped; eta-multipliers are
    untouched.  Once the plateau covers every x-frequency the symbol is
    returned unchanged term by term.
    """
    return _map_xparts(a, lambda xp: modulate(xp, m, profile))


def symbol_full_modulate(a: SeparableSymbol, m: int, profile: CutoffProfile) -> SeparableSymbol:
    """Full modulation a^m (1 x psi_m): modulate x-parts and eta-multipliers."""
    base = symbol_modulate(a, m, profile)
    new_terms = [Term(t.xpart, Modulated(t.mult, m, profile)) for t in base.terms]
    return SeparableSymbol(a.d, a.n, tuple(new_terms))


def symbol_block(a: SeparableSymbol, j: int, fam: LPFamily) -> SeparableSymbol:
    """Dyadic x-localisation a_j = a^j - a^(j-1); coefficients formed products-first."""
    return symbol_ball_diff(a, j, j - 1, fam)


def symbol_ball_diff(a: SeparableSymbol, j: int, k: int, fam: LPFamily) -> SeparableSymbol:
    """a^j - a^k: ball_diff on each x-part, dropping the terms it empties.

    a^j alone is symbol_ball_diff(a, j, -1); j < 0 gives the empty symbol.
    """
    return _map_xparts(a, lambda xp: ball_diff(xp, j, k, fam.profile))


def twisted_diagonal_check(
    a: SeparableSymbol, C: float = 2.0
) -> tuple[bool, tuple[Frequency, Frequency] | None]:
    """Decide whether the symbol support avoids a conical neighbourhood of
    the twisted diagonal xi + eta = 0 at aperture C.

    True means no support pair (xi, eta) satisfies C(|xi+eta| + 1) < |eta|.
    Radial support descriptors allow an analytic certificate; otherwise
    lattice candidates near the worst radius are enumerated (plus 2000
    random samples per x-frequency from one generator seeded with 0), and
    the first violating pair is returned as a witness.  An aperture that is
    not >= 1 (NaN included) raises ValueError.
    """
    if not C >= 1.0:  # a NaN aperture fails too
        raise ValueError("aperture constant C must be >= 1")
    rng = np.random.default_rng(0)
    for t in a.terms:
        lo, hi = t.mult.lo, t.mult.hi
        for xi in t.xpart.coeffs:
            axi = freq_abs(xi)
            worst = min(max(axi, lo), hi) if math.isfinite(hi) else max(axi, lo)
            # Along any radius rho, |xi+eta| >= |rho - |xi||, so this is an
            # upper bound for rho - C(|xi+eta|+1) over the whole support.
            if worst - C * (abs(axi - worst) + 1.0) <= 0.0:
                continue
            witness = _find_lattice_witness(t, xi, C, rng)
            if witness is not None:
                return False, (xi, witness)
    return True, None


def _find_lattice_witness(t: Term, xi: Frequency, C: float, rng):
    n = len(xi)
    axi = freq_abs(xi)
    lo, hi = t.mult.lo, t.mult.hi
    hi_eff = hi if math.isfinite(hi) else max(axi * 2.0, lo + 1.0)
    candidates: list[Frequency] = []
    neg = tuple(-c for c in xi)
    candidates.append(neg)
    if axi > 0:
        unit = tuple(-float(c) / axi for c in xi)
        for rho in (lo, (lo + hi_eff) / 2.0, hi_eff, min(max(axi, lo), hi_eff)):
            base = tuple(int(round(rho * u)) for u in unit)
            for delta in _neighbourhood(n):
                candidates.append(tuple(b + d for b, d in zip(base, delta)))
    for _ in range(2000):
        rho = rng.uniform(lo, hi_eff)
        vec = rng.normal(size=n)
        nrm = float(np.linalg.norm(vec)) or 1.0
        candidates.append(tuple(int(round(rho * v / nrm)) for v in vec))
    seen = set()
    for eta in candidates:
        if eta in seen:
            continue
        seen.add(eta)
        aeta = freq_abs(eta)
        if aeta == 0.0 or t.mult_at(eta) == 0.0:
            continue
        if C * (freq_abs(tuple(x + e for x, e in zip(xi, eta))) + 1.0) < aeta:
            return eta
    return None


def _neighbourhood(n: int):
    if n == 1:
        return [(0,), (1,), (-1,)]
    out = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            out.append((dx, dy))
    return out


# -- symbol class verification -------------------------------------------------


@dataclass(frozen=True)
class SeminormReport:
    """Estimated class seminorms sup |D_eta^alpha D_x^beta a| <eta>^{-(d-|a|+|b|)}."""

    order: float
    entries: dict[tuple[tuple[int, ...], tuple[int, ...]], float]
    violations: list[tuple[tuple[int, ...], tuple[int, ...], float]]


def _multi_indices(n: int, total: int):
    if n == 1:
        return [(k,) for k in range(total + 1)]
    out = []
    for k in range(total + 1):
        for i in range(k + 1):
            out.append((i, k - i))
    return out


def _dx_factor(xi: Frequency, beta: tuple[int, ...]) -> complex:
    fac = 1.0 + 0.0j
    for c, b in zip(xi, beta):
        fac *= (1j * float(c)) ** b
    return fac


def _eta_derivative(t: Term, eta: tuple[float, ...], alpha: tuple[int, ...]) -> complex:
    if all(k == 0 for k in alpha):
        return t.mult_at(eta)
    axis = next(i for i, k in enumerate(alpha) if k > 0)
    lower = tuple(k - (1 if i == axis else 0) for i, k in enumerate(alpha))
    h = 1e-3 * max(1.0, freq_abs(eta))
    up = tuple(c + (h if i == axis else 0.0) for i, c in enumerate(eta))
    dn = tuple(c - (h if i == axis else 0.0) for i, c in enumerate(eta))
    return (_eta_derivative(t, up, lower) - _eta_derivative(t, dn, lower)) / (2.0 * h)


def class_verify(
    a: SeparableSymbol,
    alpha_max: int = 2,
    beta_max: int = 2,
    budget: int = 4000,
) -> SeminormReport:
    """Numerically estimate the symbol-class seminorms C_{alpha,beta}.

    x-derivatives are exact ((i xi)^beta factors on term coefficients);
    eta-derivatives use iterated central differences with step
    1e-3 * max(1, |eta|).  Report-only: entries beyond 1e6 are flagged,
    never raised.
    """
    n = a.n
    xs = [tuple(2.0 * math.pi * k / 8.0 for _ in range(n)) for k in range(8)]
    etas: list[tuple[float, ...]] = []
    for t in a.terms:
        lo, hi = t.mult.lo, t.mult.hi
        hi_eff = hi if math.isfinite(hi) else max(4.0 * max(lo, 1.0), 64.0)
        lo_eff = max(lo, 0.5)
        for frac in (0.05, 0.25, 0.5, 0.75, 0.95):
            rho = lo_eff + frac * (hi_eff - lo_eff)
            etas.append((rho,) + (0.0,) * (n - 1))
            if n == 2:
                etas.append((rho / math.sqrt(2.0),) * 2)
    if not etas:
        etas = [(1.0,) + (0.0,) * (n - 1)]
    # trim to budget
    max_eta = max(1, budget // max(1, len(xs)))
    etas = etas[:max_eta]

    entries: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
    violations = []
    for alpha in _multi_indices(n, alpha_max):
        for beta in _multi_indices(n, beta_max):
            worst = 0.0
            for eta in etas:
                ang = angled(eta)
                weight = ang ** -(a.d - sum(alpha) + sum(beta))
                deta = {id(t): _eta_derivative(t, eta, alpha) for t in a.terms}
                for x in xs:
                    val = 0.0 + 0.0j
                    for t in a.terms:
                        dm = deta[id(t)]
                        if dm == 0.0:
                            continue
                        xval = sum(
                            c * _dx_factor(xi, beta) * _cis(x, xi)
                            for xi, c in t.xpart.items()
                        )
                        val += xval * dm
                    worst = max(worst, abs(val) * weight)
            entries[(alpha, beta)] = worst
            if worst > 1e6:
                violations.append((alpha, beta, worst))
    return SeminormReport(a.d, entries, violations)


def _cis(x, xi: Frequency) -> complex:
    phase = math.fsum(p * float(q) for p, q in zip(x, xi))
    return complex(math.cos(phase), math.sin(phase))


# -- composite-function (paraproduct) symbols ----------------------------------


def dyadic_blocks(u: DenseField, fam: LPFamily, K: int) -> list[np.ndarray]:
    """Grid samples of the dyadic blocks Phi_k(D)u for k = 0..K, in order.

    One forward FFT of u serves all K+1 blocks, and each block's weighted
    spectrum is inverted in place.  The blocks are read-only, so one list
    can serve every meyer_symbol and meyer_apply call on u.  K < 0 leaves
    no block and raises ValueError.
    """
    if K < 0:
        raise ValueError(f"need a top block K >= 0, got {K}")
    spec = np.fft.fftn(u.samples)
    blocks = [_block_from_spectrum(spec, k, fam) for k in range(K + 1)]
    for block in blocks:
        block.flags.writeable = False
    return blocks


def meyer_symbol(
    u: DenseField,
    Fprime: Callable[[np.ndarray], np.ndarray],
    blocks: list[np.ndarray],
    Q: int = 32,
) -> list[tuple[DenseField, int]]:
    """Multiplier coefficients m_k of the composite-function symbol.

    m_k(x) = integral_0^1 F'(u^{k-1}(x) + t u_k(x)) dt, evaluated per grid
    point with Q-node Gauss-Legendre quadrature; u_k and u^{k-1} are the
    dyadic block and ball pieces of u, read from blocks = dyadic_blocks(u,
    fam, K), so the symbol costs no FFT.  The symbol they carry is
    sum_{k=0..K} m_k(x) Phi_k(eta).
    """
    real = _require_real(u)
    if Q < 2:
        raise ValueError("need at least two quadrature nodes")
    nodes, weights = np.polynomial.legendre.leggauss(Q)
    tnodes = 0.5 * (nodes + 1.0)
    tweights = 0.5 * weights
    out = []
    ball = np.zeros_like(real)
    for k, block in enumerate(blocks):
        uk = np.real(block)
        mk = np.zeros_like(real)
        for t, w in zip(tnodes, tweights):
            mk += w * np.asarray(Fprime(ball + t * uk), dtype=float)
        out.append((DenseField(u.n, u.M, mk), k))
        ball += uk
    return out


def meyer_apply(mks: list[tuple[DenseField, int]], blocks: list[np.ndarray]) -> DenseField:
    """Apply the dense multiplier-sum symbol: sum_k m_k(x) (Phi_k(D)u)(x).

    blocks = dyadic_blocks(u, fam, K) supplies each Phi_k(D)u, the same
    list that meyer_symbol read, so the apply costs no FFT either.
    """
    shape = blocks[0].shape
    acc = np.zeros(shape, dtype=np.complex128)
    for mk, k in mks:
        acc += mk.samples * blocks[k]
    return DenseField(len(shape), shape[0], acc)


def _require_real(u: DenseField) -> np.ndarray:
    """u's real samples, a read-only view; NonRealInput unless the imaginary part is negligible."""
    tol = 1e-12 * max(1.0, float(np.max(np.abs(u.samples))))
    if float(np.max(np.abs(u.samples.imag))) > tol:
        raise NonRealInput("field has a non-negligible imaginary part")
    return u.samples.real


def check_vanishes_at_zero(F: Callable[[float], float]) -> None:
    if abs(float(F(0.0))) > 1e-15:
        raise FNotVanishingAtZero("need F(0) = 0")


# -- grid-side dyadic projections (used by the composite machinery) -------------


def _radial_on_grid(mult: Block, M: int, n: int) -> np.ndarray:
    """mult.radial at every |xi| of the FFT grid.

    The profile is evaluated once per unique radius in mult.window, the
    closed support [mult.lo, mult.hi]; outside it the weight is the exact
    0.0 that block_weight returns there.
    """
    rho = grid_frequencies(M, n)
    uniq, inverse = np.unique(rho.ravel(), return_inverse=True)
    lo, hi = mult.window(uniq)
    vals = np.zeros(len(uniq))
    vals[lo:hi] = [mult.radial(float(r)) for r in uniq[lo:hi]]
    return vals[inverse].reshape(rho.shape)


def _block_from_spectrum(spec: np.ndarray, j: int, fam: LPFamily) -> np.ndarray:
    """Grid samples of Phi_j(D)g from spec = fftn(g.samples), for j >= 0.

    The weighted spectrum is this call's own array, so it is inverted in place.
    """
    weighted = _radial_on_grid(Block(fam.profile, j), spec.shape[0], spec.ndim) * spec
    return np.fft.ifftn(weighted, out=weighted)


def lp_project_dense(g: DenseField, j: int, fam: LPFamily) -> DenseField:
    """Grid counterpart of lp_project: Phi_j(D)g (zero for j < 0)."""
    if j < 0:
        return DenseField(g.n, g.M, np.zeros((g.M,) * g.n, dtype=np.complex128))
    return DenseField(g.n, g.M, _block_from_spectrum(np.fft.fftn(g.samples), j, fam))
