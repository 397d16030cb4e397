"""Norms used throughout: weighted-l2 Sobolev, grid L_p, dyadic block norms.

Sobolev norms are exact weighted sums over the sparse spectrum with the
weight <xi> = (1 + |xi|^2)^(1/2).  L_p norms are Riemann sums over the grid
with weight M^{-n}, so the constant-1 field has norm one for every p.
Block norms aggregate dyadic pieces either as

    besov:    ( sum_j (2^{js} ||Phi_j(D)u||_p)^q )^{1/q}        (sup for q=inf)
    triebel:  || sup_j 2^{js} |Phi_j(D)u| ||_p                  (q = inf form)

Each dense transform is computed once and reduced many times:
block_norms puts every dyadic block on the grid once and returns the
per-block L_p norms and the real envelope sup_j 2^{js}|Phi_j(D)u|, whose
_lp_of_moduli is the Triebel value for any p; bessel_potential takes one
forward FFT of g and gives the grid field <D>^s g for each s.  block_norms
holds at most two complex grids' worth of memory at once: one block's
complex samples (sparse_to_dense inverts in place) while its moduli and
the envelope, half a grid each, are alive; a Triebel reduction holds one.
"""

from __future__ import annotations

import math

import numpy as np

from .cutoffs import LPFamily, lp_project
from .errors import EmptySpectrum, RangeTooLarge
from .fields import (
    DenseField,
    SparseField,
    angled,
    freq_abs,
    grid_frequencies,
    sparse_to_dense,
)


def sobolev_norm(u: SparseField, s: float) -> float:
    """Discrete H^s norm ( sum <xi>^{2s} |u^(xi)|^2 )^{1/2}; s = 0 computes no weight."""
    if s == 0.0:  # s = -0.0 too: every <xi>^{2s} is exactly 1.0, so the sum is bitwise the same
        return math.sqrt(math.fsum(abs(c) ** 2 for c in u.coeffs.values()))
    return math.sqrt(
        math.fsum(angled(xi) ** (2.0 * s) * abs(c) ** 2 for xi, c in u.items())
    )


def lp_norm(g: DenseField, p: float) -> float:
    """Grid quadrature of the L_p norm; p = inf gives the max modulus."""
    return _lp_of_moduli(np.abs(g.samples), p)


def _lp_of_moduli(mods: np.ndarray, p: float) -> float:
    """lp_norm of a grid field from its moduli |g| on the (M,)*n grid; a finite
    p whose sum of |g|^p is no double raises RangeTooLarge."""
    if math.isinf(p):
        return float(mods.max(initial=0.0))
    if p < 1:
        raise ValueError("p must be >= 1")
    weight = 1.0 / float(mods.size)
    norm = float((weight * np.sum(mods**p)) ** (1.0 / p))
    if not norm < math.inf:
        raise RangeTooLarge(f"L_{p} norm overflows: the largest modulus is {mods.max()}")
    return norm


def hsp_norm(u: SparseField, s: float, p: float, M: int) -> float:
    """Bessel-potential norm || <D>^s u ||_p evaluated on an M grid.

    For p = 2 this agrees with sobolev_norm up to grid rounding.
    """
    weighted = u.multiplier(lambda xi: angled(xi) ** s)
    return lp_norm(sparse_to_dense(weighted, M), p)


def bessel_potential(g: DenseField, s_values) -> list[DenseField]:
    """The grid fields <D>^s g (spectrally truncated at M/2), one per s of s_values.

    One forward FFT of g serves every s; each weighted spectrum belongs to
    this call and is inverted in place.  An empty s_values raises ValueError,
    and an s whose potential is not finite on the grid RangeTooLarge.
    """
    if not s_values:
        raise ValueError("bessel_potential needs at least one exponent s")
    rho = grid_frequencies(g.M, g.n)
    base = 1.0 + rho * rho
    spec = np.fft.fftn(g.samples)
    out = []
    for s in s_values:
        weighted = spec * base ** (0.5 * s)
        pot = np.fft.ifftn(weighted, out=weighted)
        if not np.isfinite(pot).all():
            raise RangeTooLarge(f"<D>^s g is not finite at s = {s} on the M = {g.M} grid")
        out.append(DenseField(g.n, g.M, pot))
    return out


def hsp_norm_dense(g: DenseField, s: float, p: float) -> float:
    """Bessel-potential norm of a grid field: lp_norm of bessel_potential(g, (s,)).

    A caller that needs several (s, p) for one g calls bessel_potential
    once with every s and reduces each field with lp_norm per p.
    """
    (pot,) = bessel_potential(g, (s,))
    return lp_norm(pot, p)


def block_norms(
    u: SparseField, s: float, p: float, fam: LPFamily, M: int
) -> tuple[list[float], np.ndarray]:
    """One pass over the nonempty dyadic blocks u_j of a sparse field.

    Each block goes through sparse_to_dense exactly once, and its moduli
    |u_j| are taken once: they give ||u_j||_p, are scaled by 2^{js} in
    place and are folded into the envelope in place.  Returns the
    per-block values 2^{js} ||u_j||_p in ascending j and the read-only float64
    envelope sup_j 2^{js} |u_j| on the M grid (zero when every block is empty).
    """
    env = np.zeros((M,) * u.n)
    per_block = []
    for j in range(fam.top_block(u) + 1):
        uj = lp_project(u, j, fam)
        if len(uj) == 0:
            continue
        mods = np.abs(sparse_to_dense(uj, M).samples)  # the complex grid dies here
        scale = 2.0 ** (j * s)
        per_block.append(scale * _lp_of_moduli(mods, p))
        np.multiply(mods, scale, out=mods)
        np.maximum(env, mods, out=env)
        del mods  # free it before the next block's grid is built
    env.flags.writeable = False
    return per_block, env


def besov_norm(
    u: SparseField,
    s: float,
    p: float,
    q: float,
    fam: LPFamily,
    M: int,
    aggregation: str = "besov",
) -> float:
    """Dyadic block norm of a sparse field, reduced from one block_norms pass.

    aggregation="besov" computes the B^s_{p,q} norm from per-block L_p norms;
    aggregation="triebel" computes the F^s_{p,inf} seminorm (q must be inf):
    the pointwise sup over blocks is taken before the L_p quadrature.  A
    caller that needs both aggregations or several p calls block_norms once.
    """
    if aggregation not in ("besov", "triebel"):
        raise ValueError(f"unknown aggregation {aggregation!r}")
    if aggregation == "triebel" and not math.isinf(q):
        raise ValueError("triebel aggregation is provided for q = inf only")
    per_block, env = block_norms(u, s, p, fam, M)
    if aggregation == "triebel":
        return _lp_of_moduli(env, p)
    if not per_block:
        return 0.0
    if math.isinf(q):
        return max(per_block)
    return float(math.fsum(v**q for v in per_block) ** (1.0 / q))


def cone_report(u: SparseField) -> list[tuple[tuple[float, ...], float]]:
    """Group the spectrum by direction and fit a decay exponent per group.

    Modes are clustered greedily by unit direction (largest radius first,
    merged within distance 0.05 of a group's first direction); each group
    gets the least-squares slope of log|u^| against log|xi|.  Returns
    (direction, slope) pairs sorted by direction.  The origin mode is ignored; a spectrum without nonzero
    frequencies raises EmptySpectrum.
    """
    modes = []
    for xi, c in u.items():
        rho = freq_abs(xi)
        if rho > 0.0:
            modes.append((rho, tuple(float(x) / rho for x in xi), abs(c)))
    if not modes:
        raise EmptySpectrum("cone report needs spectrum away from the origin")
    modes.sort(key=lambda t: (-t[0], t[1]))

    groups: list[tuple[tuple[float, ...], list[tuple[float, float]]]] = []
    for rho, direction, mag in modes:
        for rep, members in groups:
            if math.dist(rep, direction) <= 0.05:
                members.append((rho, mag))
                break
        else:
            groups.append((direction, [(rho, mag)]))

    report = []
    for rep, members in groups:
        xs = np.log([rho for rho, _ in members])
        ys = np.log([max(mag, 1e-300) for _, mag in members])
        if len(members) == 1 or float(np.ptp(xs)) == 0.0:
            slope = 0.0
        else:
            slope = float(np.polyfit(xs, ys, 1)[0])
        report.append((rep, slope))
    report.sort(key=lambda t: t[0])
    return report
