"""Radial plateau cutoffs, dyadic annulus bumps, and frequency projections.

The basic object is a smooth radial profile psi with

    psi(xi) = 1 for |xi| <= r,   psi(xi) = 0 for |xi| >= R,   0 <= psi <= 1,

from which the annulus bump phi = psi - psi(2 .) and the dyadic family
Phi_0 = psi, Phi_j = phi(2^{-j} .) are derived.  The plateau and support
branches return exact 0.0 / 1.0 so dyadic stabilisation is detectable as
bitwise equality downstream.

Every dyadic localisation of a field is one rule, ball_diff(u, j, k): the
products-first difference u^j - u^k of modulations u^i = psi(2^{-i} D) u,
with u^i empty for i < 0.  The ball u^j is ball_diff(u, j, -1) (or modulate)
and the block u_j = lp_project(u, j) is ball_diff(u, j, j - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadRadii
from .fields import Frequency, SparseField, check_scale_index, freq_abs, freq_radii

DEFAULT_R = 1.1
DEFAULT_BIG_R = 2.0


def _blend_exp(t: float) -> float:
    # C-infinity falling blend on [0, 1]: 1 at t=0, 0 at t=1.
    def h(s: float) -> float:
        return math.exp(-1.0 / s) if s > 0.0 else 0.0

    return h(1.0 - t) / (h(t) + h(1.0 - t))


def _blend_poly7(t: float) -> float:
    # Degree-7 smoothstep (C^3), falling orientation.
    s = 1.0 - t
    return s * s * s * s * (35.0 - 84.0 * s + 70.0 * s * s - 20.0 * s * s * s)


BLENDS = {"exp": _blend_exp, "poly7": _blend_poly7}


def falling_blend(kind: str, t: float) -> float:
    """Smooth transition from 1 (t <= 0) down to 0 (t >= 1)."""
    if t <= 0.0:
        return 1.0
    if t >= 1.0:
        return 0.0
    return BLENDS[kind](t)


@dataclass(frozen=True)
class CutoffProfile:
    """Radial plateau function: 1 inside radius r, 0 outside radius R."""

    r: float
    R: float
    kind: str = "exp"

    def __post_init__(self):
        if not (0.0 < self.r < self.R):
            raise BadRadii(f"need 0 < r < R, got r={self.r}, R={self.R}")
        if self.kind not in BLENDS:
            raise BadRadii(f"unknown smoothstep kind {self.kind!r}")

    @property
    def id(self) -> str:
        return f"{self.kind}(r={self.r},R={self.R})"

    def radial(self, rho: float) -> float:
        """Evaluate at radius rho >= 0; exactly 1 on the plateau, 0 outside."""
        if rho <= self.r:
            return 1.0
        if rho >= self.R:
            return 0.0
        return BLENDS[self.kind]((rho - self.r) / (self.R - self.r))

    def __call__(self, xi: Frequency) -> float:
        return self.radial(freq_abs(xi))

    def block_weight(self, rho: float, j: int) -> float:
        """Phi_j at radius rho: psi(rho) for j = 0, else psi(2^{-j} rho) - psi(2^{1-j} rho).

        This weight form is for multiplier values; coefficients use the
        products-first ball_diff, which is not bitwise the same.
        """
        if j == 0:
            return self.radial(rho)
        return self.radial(rho / 2**j) - self.radial(rho / 2 ** (j - 1))


def make_cutoff(r: float = DEFAULT_R, R: float = DEFAULT_BIG_R, kind: str = "exp") -> CutoffProfile:
    """Build a profile; the defaults put each dyadic 2^j alone in block j."""
    return CutoffProfile(r, R, kind)


@dataclass(frozen=True)
class LPFamily:
    """Dyadic Littlewood-Paley family derived from one cutoff profile.

    phi = psi - psi(2 .), Phi_0 = psi and Phi_j = phi(2^{-j} .) for j >= 1,
    so supp phi(2^{-k} .) lies in the annulus r 2^{k-1} <= |xi| <= R 2^k.
    The gap integer h satisfies R <= r 2^{h-2}.
    """

    profile: CutoffProfile
    h: int = 3

    def __post_init__(self):
        if self.profile.R > self.profile.r * 2 ** (self.h - 2):
            raise BadRadii(
                f"gap h={self.h} too small: R={self.profile.R} > "
                f"r*2^(h-2)={self.profile.r * 2 ** (self.h - 2)}"
            )

    def block_multiplier(self, j: int, xi: Frequency) -> float:
        """Phi_j(xi), for j that passes check_scale_index (0 <= j <= 1023)."""
        check_scale_index(j, "j")
        return self.profile.block_weight(freq_abs(xi), j)

    def top_block(self, u: SparseField) -> int:
        """Smallest j0 with Phi_j vanishing on spectrum(u) for all j > j0: the
        count of j with r 2^(j-1) <= rho grows with rho, so u's largest radius decides."""
        rho = max(map(freq_abs, u.coeffs), default=0.0)
        j = 0
        while self.profile.r * 2 ** (j - 1) <= rho and j < 70:
            j += 1
        return max(j - 1, 0)


def default_families() -> tuple[LPFamily, LPFamily]:
    """Two distinct profiles used for every psi-independence diagnostic."""
    return (
        LPFamily(make_cutoff(1.1, 2.0, "exp")),
        LPFamily(make_cutoff(1.05, 1.9, "poly7")),
    )


def telescope_check(profile: CutoffProfile, m: int, samples) -> float:
    """Max deviation of the dyadic telescoping identity over sample frequencies.

    Checks | psi(2^{-m} xi) - psi(xi) - sum_{k=1}^{m} phi(2^{-k} xi) |, which
    is algebraically zero; the return value measures floating cancellation.
    The deviation depends on the radius alone, so it is evaluated once per
    distinct |xi|; a max of non-negative floats does not depend on the order,
    so this is bitwise the per-sample loop.  The samples share one
    dimension, 1 or 2, and their radii are one freq_radii pass.  An empty
    sample set is no evidence and raises ValueError, like m < 1 (m > 1023: RangeTooLarge).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    check_scale_index(m, "m")
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample frequency")
    radii = set(freq_radii(len(samples[0]), samples))
    worst = 0.0
    for rho in radii:
        total = profile.block_weight(rho, 0)
        for k in range(1, m + 1):
            total += profile.block_weight(rho, k)
        worst = max(worst, abs(profile.radial(rho / 2**m) - total))
    return worst


def modulated_coeffs(radii, coeffs, m: int, profile: CutoffProfile) -> list[complex]:
    """psi(2^{-m} rho) * c for each rho, c of radii and coeffs, exact zeros kept."""
    check_scale_index(m, "m")
    radial = profile.radial
    scale = 2.0**m
    return [radial(rho / scale) * c for rho, c in zip(radii, coeffs)]


def modulate(u: SparseField, m: int, profile: CutoffProfile) -> SparseField:
    """Frequency modulation u^m: c at xi becomes psi(2^{-m} |xi|) * c (modulated_coeffs).
    Once the plateau covers the spectrum every coefficient is 1.0 * c: equal
    to c, and bitwise c except that a zero part can lose its sign, as
    (-0-1j) comes back as -1j and (1-0j) as (1+0j)."""
    coeffs = modulated_coeffs(freq_radii(u.n, u.coeffs), u.coeffs.values(), m, profile)
    return SparseField(u.n, dict(zip(u.coeffs, coeffs)))


def ball_diff(u: SparseField, j: int, k: int, profile: CutoffProfile) -> SparseField:
    """The dyadic difference u^j - u^k, where u^i is empty for i < 0.

    j < 0 gives the empty field and k < 0 gives modulate(u, j, profile).
    Otherwise each coefficient is psi(2^{-j} xi) c - psi(2^{-k} xi) c, the
    modulated_coeffs products first, never (psi(..) - psi(..)) c: only that
    form telescopes bitwise across dyadic levels.
    """
    if j < 0:
        return SparseField(u.n, {})
    if k < 0:
        return modulate(u, j, profile)
    radii = freq_radii(u.n, u.coeffs)
    hi, lo = (modulated_coeffs(radii, u.coeffs.values(), i, profile) for i in (j, k))
    return SparseField(u.n, {xi: x - y for xi, x, y in zip(u.coeffs, hi, lo)})


def lp_project(u: SparseField, j: int, fam: LPFamily) -> SparseField:
    """Dyadic block u_j = u^j - u^(j-1), which is u^0 for j = 0 and empty for j < 0.

    It is ball_diff(u, j, j - 1), so u^j - u^{j-1} = u_j holds bitwise, and
    sum_{j=0}^{m} u_j telescopes to u^m = modulate(u, m): exactly on plateau
    frequencies, to rounding in the transition zones.
    """
    return ball_diff(u, j, j - 1, fam.profile)
