"""Symbol carriers: the lacunary family, paraproduct symbols, verification."""

import math

import numpy as np
import pytest

from torspec import experiments
from torspec.errors import (
    BadRange,
    FNotVanishingAtZero,
    NonRealInput,
    ZeroDirection,
)
from torspec.cutoffs import LPFamily, make_cutoff
from torspec.fields import (
    DenseField,
    SparseField,
    delta_field,
    freq_abs,
    grid_frequencies,
    sparse_to_dense,
)
from torspec.norms import bessel_potential, lp_norm
from torspec.constructions import random_band_limited
from torspec.symbols import (
    Block,
    RadialBump,
    SeparableSymbol,
    Term,
    _radial_on_grid,
    check_vanishes_at_zero,
    ching_symbol,
    class_verify,
    dyadic_blocks,
    identity_symbol,
    lp_project_dense,
    meyer_apply,
    meyer_symbol,
    multiplication_symbol,
    symbol_modulate,
    twisted_diagonal_check,
)


# -- the corona bump -------------------------------------------------------------


def test_bump_plateau_and_support():
    chi = RadialBump()
    assert chi.radial(1.0) == 1.0
    assert chi.radial(0.9) == 1.0
    assert chi.radial(1.1) == 1.0
    assert chi.radial(0.75) == 0.0
    assert chi.radial(1.25) == 0.0
    assert 0.0 < chi.radial(0.8) < 1.0


def test_bump_rejects_unknown_kind_and_bad_zero_order():
    # Checked at construction: not when a radius first lands in a blend band,
    # and no pole at |eta| = 1 from a negative order.
    for kwargs in (
        {"kind": "nosuch"},
        {"zero_order": -1},
        {"zero_order": True},
        {"zero_order": 1.0},
        {"zero_order": "1"},
    ):
        with pytest.raises(ValueError):
            RadialBump(**kwargs)


def test_bump_zero_order_plants_zero_at_unit_sphere():
    chi = RadialBump(zero_order=1)
    assert chi.radial(1.0) == 0.0
    assert chi.radial(1.05) > 0.0
    assert chi.radial(0.95) < 0.0  # odd-order zero changes sign


# -- the lacunary symbol ----------------------------------------------------------


def test_ching_partial_transform_matches_formula():
    d, j_lo, j_hi = 0.0, 5, 9
    data, a = ching_symbol(d, (1,), j_lo, j_hi)
    # a^(xi, eta) = sum_t c_t(xi) m_t(eta); term j (in ascending order) alone
    # carries the x-frequency -2^j.
    assert len(a.terms) == j_hi - j_lo + 1
    for j, t in zip(range(j_lo, j_hi + 1), a.terms):
        assert t.xpart.coeffs == {(-(2**j),): 1.0}
        for eta_val in (0.8 * 2**j, 2**j, 1.2 * 2**j):
            assert t.mult_at((eta_val,)) == data.chi.radial(eta_val / 2**j)
    # off the lattice of x-frequencies the transform vanishes
    assert all(t.xpart.coeff((-100,)) == 0.0 for t in a.terms)


def test_ching_outside_corona_is_exact_zero():
    _, a = ching_symbol(0.0, (1,), 5, 9)
    (t,) = [t for t in a.terms if t.xpart.coeff((-(2**7),)) != 0.0]
    assert t.mult_at((2**7 * 1.3,)) == 0.0
    assert t.mult_at((2**7 * 0.7,)) == 0.0


def test_ching_terms_have_disjoint_eta_supports():
    _, a = ching_symbol(0.5, (1,), 3, 12)
    bounds = sorted((t.mult.lo, t.mult.hi) for t in a.terms)
    for (lo1, hi1), (lo2, hi2) in zip(bounds, bounds[1:]):
        assert hi1 <= lo2


def test_ching_coefficients():
    d = 0.5
    _, a = ching_symbol(d, (1,), 4, 8)
    for t in a.terms:
        ((xi, c),) = t.xpart.items()
        j = int(math.log2(-xi[0]))
        assert c == 2.0 ** (j * d)


def test_ching_validation():
    with pytest.raises(ZeroDirection):
        ching_symbol(0.0, (0,), 1, 5)
    with pytest.raises(BadRange):
        ching_symbol(0.0, (1,), 0, 5)
    with pytest.raises(BadRange):
        ching_symbol(0.0, (1,), 5, 61)
    with pytest.raises(BadRange):
        ching_symbol(40.0, (1,), 1, 60)  # dyadic coefficient overflow guard


def test_double_direction_lies_in_outgoing_cone():
    # Every support pair of the doubled-direction symbol has |eta| <= 2|xi+eta|;
    # checked over the term x-frequencies and corona extremes.
    _, a = ching_symbol(0.0, (2,), 1, 20)
    for t in a.terms:
        ((xi, _),) = t.xpart.items()
        for rho in (t.mult.lo, t.mult.hi):
            for sign in (1.0, -1.0):
                eta = sign * rho
                dist = abs(xi[0] + eta)
                assert rho <= 2.0 * dist or t.mult_at((eta,)) == 0.0


# -- modulation of symbols ---------------------------------------------------------


def test_symbol_modulate_fixed_once_plateau_covers(fam):
    _, a = ching_symbol(0.0, (1,), 2, 5)
    am = symbol_modulate(a, 7, fam.profile)
    assert len(am.terms) == len(a.terms)
    for t, tm in zip(a.terms, am.terms):
        assert t.xpart.coeffs == tm.xpart.coeffs


def test_symbol_modulate_deletes_far_terms(fam):
    _, a = ching_symbol(0.0, (1,), 2, 10)
    am = symbol_modulate(a, 3, fam.profile)
    # terms with 2^j >= R 2^m = 16 disappear
    assert len(am.terms) == sum(
        1 for j in range(2, 11) if 2**j < fam.profile.R * 2**3
    )


def test_symbol_modulate_intermediate_scaling(fam):
    # Dyadic x-frequencies always sit on the plateau or outside the support
    # (2^(j-m) is never strictly between r and R), so probe the transition
    # zone with a non-dyadic frequency: 12 / 2^3 = 1.5.
    a = multiplication_symbol(SparseField(1, {(12,): 2.0}))
    m = 3
    factor = fam.profile.radial(12.0 / 2**m)
    assert 0.0 < factor < 1.0
    (term,) = symbol_modulate(a, m, fam.profile).terms
    assert term.xpart.coeff((12,)) == factor * 2.0


def test_symbol_modulate_stabilises_termwise(fam):
    _, a = ching_symbol(0.25, (1,), 1, 8)
    m_star = math.ceil(math.log2(2**8 / fam.profile.r)) + 1
    ref = symbol_modulate(a, m_star, fam.profile)
    for m in range(m_star, m_star + 4):
        am = symbol_modulate(a, m, fam.profile)
        assert [t.xpart.coeffs for t in am.terms] == [
            t.xpart.coeffs for t in ref.terms
        ]


# -- class verification -------------------------------------------------------------


def test_class_verify_unit_top_seminorm():
    _, a = ching_symbol(0.0, (1,), 3, 8)
    report = class_verify(a, alpha_max=0, beta_max=0)
    c00 = report.entries[((0,), (0,))]
    assert abs(c00 - 1.0) <= 1e-9


def test_class_verify_x_derivatives_stay_bounded_in_j():
    _, a = ching_symbol(0.0, (1,), 3, 10)
    report = class_verify(a, alpha_max=0, beta_max=2)
    # |D_x a| ~ 2^j on the corona |eta| ~ 2^j, weighted by <eta>^-1: O(1).
    assert report.entries[((0,), (1,))] <= 2.0
    assert report.entries[((0,), (2,))] <= 4.0


def test_class_verify_zero_symbol():
    a = multiplication_symbol(SparseField(1, {}))
    report = class_verify(a, alpha_max=1, beta_max=1)
    assert all(v == 0.0 for v in report.entries.values())


def test_order_slope_detects_rescaling():
    # The per-corona peak of |a| grows like 2^(jd); a log-log fit across the
    # dyadic terms recovers the declared order within 0.1.
    def fitted_order(symbol):
        js, peaks = [], []
        for t in symbol.terms:
            ((xi, c),) = t.xpart.items()
            j = round(math.log2(-xi[0]))
            peak = abs(c) * 1.0  # multiplier plateau value
            js.append(j)
            peaks.append(math.log2(peak))
        return np.polyfit(js, peaks, 1)[0]

    for d in (0.0, 0.5):
        for dprime in (0.0, 0.5, 1.0):
            _, a = ching_symbol(d + dprime, (1,), 3, 12)
            assert abs(fitted_order(a) - (d + dprime)) <= 0.1


# -- twisted diagonal ------------------------------------------------------------------


def test_twisted_diagonal_doubled_direction_passes():
    _, a2 = ching_symbol(0.0, (2,), 1, 20)
    ok, witness = twisted_diagonal_check(a2, 2.0)
    assert ok and witness is None


def test_twisted_diagonal_unit_direction_fails_with_witness():
    _, a1 = ching_symbol(0.0, (1,), 5, 12)
    ok, witness = twisted_diagonal_check(a1, 2.0)
    assert not ok
    xi, eta = witness
    # witness violates the implication: C(|xi+eta|+1) < |eta|
    assert 2.0 * (freq_abs(tuple(x + e for x, e in zip(xi, eta))) + 1.0) < freq_abs(eta)


def test_twisted_diagonal_vacuous_for_zero_symbol():
    a = multiplication_symbol(SparseField(1, {}))
    ok, witness = twisted_diagonal_check(a, 1.0)
    assert ok and witness is None


@pytest.mark.parametrize("C", [math.nan, 0.5])
def test_twisted_diagonal_rejects_an_aperture_below_one(C):
    # A NaN aperture used to pass the C < 1 guard and certify this symbol,
    # for which C = 2 finds the witness ((-8,), (8,)).
    _, a = ching_symbol(0.0, (1,), 3, 8)
    assert twisted_diagonal_check(a, 2.0) == (False, ((-8,), (8,)))
    with pytest.raises(ValueError):
        twisted_diagonal_check(a, C)


def test_twisted_diagonal_2d():
    _, a2 = ching_symbol(0.0, (0, 2), 1, 15)
    ok, _ = twisted_diagonal_check(a2, 2.0)
    assert ok
    _, a1 = ching_symbol(0.0, (0, 1), 5, 10)
    ok, witness = twisted_diagonal_check(a1, 2.0)
    assert not ok and witness is not None


# -- paraproduct (composite) symbols ---------------------------------------------------


def _real_dense(rng, M=512, window=16, sup=1.5):
    u = random_band_limited(1, 12, window, rng, hermitian=True)
    g = sparse_to_dense(u, M)
    scale = sup / float(np.max(np.abs(g.samples.real)))
    return DenseField(1, M, (scale * g.samples.real).astype(np.complex128))


def test_meyer_identity_function_reproduces_field(fam, rng):
    u = _real_dense(rng)
    blocks = dyadic_blocks(u, fam, K=6)
    mks = meyer_symbol(u, lambda t: np.ones_like(t), blocks, Q=8)
    for mk, _ in mks:
        assert float(np.max(np.abs(mk.samples - 1.0))) <= 1e-12
    out = meyer_apply(mks, blocks)
    assert float(np.max(np.abs(out.samples - u.samples))) <= 1e-10


def test_meyer_zero_function_gives_zero(fam, rng):
    u = _real_dense(rng)
    mks = meyer_symbol(u, lambda t: np.zeros_like(t), dyadic_blocks(u, fam, K=6), Q=4)
    for mk, _ in mks:
        assert float(np.max(np.abs(mk.samples))) == 0.0


def test_meyer_square_matches_pointwise_square(fam, rng):
    u = _real_dense(rng)
    blocks = dyadic_blocks(u, fam, K=6)
    mks = meyer_symbol(u, lambda t: 2.0 * t, blocks, Q=4)
    out = meyer_apply(mks, blocks)
    assert float(np.max(np.abs(out.samples - u.samples.real**2))) <= 1e-10


def test_meyer_multiplier_sup_bound(fam, rng):
    # sup |m_k| <= sup_{|t| <= ||u||_inf (1 + c_psi)} |F'(t)| with the
    # synthesis constant c_psi estimated from the grid kernel.
    u = _real_dense(rng)
    M = u.M
    m_big = 5
    kernel = np.zeros(M, dtype=complex)
    for xi in range(-M // 2, M // 2):
        w = fam.profile.radial(abs(xi) / 2**m_big)
        if w:
            kernel[xi % M] = M * w
    c_psi = lp_norm(DenseField(1, M, np.fft.ifft(kernel)), 1.0)
    sup_u = float(np.max(np.abs(u.samples.real)))
    fprime = lambda t: t  # F = t^2/2, unbounded slope
    mks = meyer_symbol(u, fprime, dyadic_blocks(u, fam, K=6), Q=8)
    bound = sup_u * (1.0 + c_psi)
    for mk, _ in mks:
        assert float(np.max(np.abs(mk.samples))) <= bound + 1e-12


def test_meyer_rejects_complex_input(fam):
    g = DenseField(1, 64, 1j * np.ones(64, dtype=complex))
    with pytest.raises(NonRealInput):
        meyer_symbol(g, np.cos, dyadic_blocks(g, fam, K=3))


def test_vanishing_at_zero_guard():
    check_vanishes_at_zero(np.sin)
    with pytest.raises(FNotVanishingAtZero):
        check_vanishes_at_zero(np.cos)


def test_meyer_term_conversion_applies_like_dense(fam, rng):
    from torspec.operator import apply
    from torspec.fields import dense_to_sparse

    # Small carrier and a pruned conversion keep the exact sparse product
    # inside the grid band; the two routes then agree to pruning accuracy.
    u = _real_dense(rng, M=256, window=8, sup=1.0)
    u_blocks = dyadic_blocks(u, fam, K=5)
    mks = meyer_symbol(u, np.cos, u_blocks, Q=16)
    dense_out = meyer_apply(mks, u_blocks)
    # The exact term form of sum_k m_k(x) Phi_k(eta), one Block term per m_k.
    blocks = [Term(dense_to_sparse(mk, 1e-10), Block(fam.profile, k)) for mk, k in mks]
    terms = SeparableSymbol(0.0, 1, tuple(t for t in blocks if len(t.xpart)))
    u_sparse = dense_to_sparse(u, tau=1e-13)
    sparse_out = apply(terms, u_sparse, budget=20_000_000)
    grid_out = sparse_to_dense(sparse_out, 256)
    assert float(np.max(np.abs(grid_out.samples - dense_out.samples))) <= 1e-6


def test_dense_block_prunes_match_sparse(fam, rng):
    u = random_band_limited(1, 10, 30, rng)
    g = sparse_to_dense(u, 256)
    from torspec.cutoffs import lp_project
    from torspec.fields import dense_to_sparse

    for j in (0, 2, 5):
        dense_block = dense_to_sparse(lp_project_dense(g, j, fam), 1e-12)
        sparse_block = lp_project(u, j, fam)
        for xi in dense_block.spectrum() | sparse_block.spectrum():
            assert abs(dense_block.coeff(xi) - sparse_block.coeff(xi)) <= 1e-10


def test_identity_symbol_structure():
    a = identity_symbol(1)
    (t,) = a.terms
    assert t.xpart.coeff((0,)) * t.mult_at((17.0,)) == 1.0
    assert t.xpart.coeff((1,)) == 0.0


def test_class_verify_2d_symbol():
    _, a = ching_symbol(0.0, (0, 1), 3, 6)
    report = class_verify(a, alpha_max=1, beta_max=1, budget=800)
    assert abs(report.entries[((0, 0), (0, 0))] - 1.0) <= 1e-9
    assert report.entries[((0, 0), (0, 1))] <= 2.0
    assert not report.violations


# -- one transform, many blocks: bitwise against the per-call forms ----------------------


def _radial_every_radius(fn, M, n):
    """fn at every unique grid radius, with no support window."""
    rho = grid_frequencies(M, n)
    uniq, inverse = np.unique(rho.ravel(), return_inverse=True)
    vals = np.array([fn(float(r)) for r in uniq])
    return vals[inverse].reshape(rho.shape)


def _block_by_own_fft(g, j, fam):
    w = _radial_every_radius(lambda r: fam.profile.block_weight(r, j), g.M, g.n)
    return np.fft.ifftn(w * np.fft.fftn(g.samples))


def _meyer_reference(u, Fprime, blocks, Q):
    """meyer_symbol's m_k samples as computed before it accumulated in place:
    a copy of u's real part, new m_k and ball arrays per node and per block,
    and an explicit complex128 copy of each m_k."""
    nodes, weights = np.polynomial.legendre.leggauss(Q)
    tnodes, tweights = 0.5 * (nodes + 1.0), 0.5 * weights
    real = np.real(u.samples).copy()
    out, ball = [], np.zeros_like(real)
    for block in blocks:
        uk = np.real(block)
        mk = np.zeros_like(real)
        for t, w in zip(tnodes, tweights):
            mk = mk + w * np.asarray(Fprime(ball + t * uk), dtype=float)
        out.append(mk.astype(np.complex128))
        ball = ball + uk
    return out


def _meyer_by_own_ffts(u, Fprime, fam, K, Q):
    return _meyer_reference(u, Fprime, [_block_by_own_fft(u, k, fam) for k in range(K + 1)], Q)


def test_meyer_symbol_matches_the_out_of_place_reference_bitwise(families, rng):
    fprimes = [fp for _, fp, _ in experiments._COMPOSITE_F.values()]
    for fam in families:
        for n, M, K in ((1, 512, 7), (2, 32, 4)):
            u = random_band_limited(n, 12, 2 ** (K - 1) if n == 1 else 6, rng, hermitian=True)
            g = sparse_to_dense(u, M)  # its imaginary part is rounding noise
            blocks = dyadic_blocks(g, fam, K)
            for Fprime in fprimes:
                for Q in (2, 7, 32):
                    got = [mk.samples.tobytes() for mk, _ in meyer_symbol(g, Fprime, blocks, Q)]
                    assert got == [w.tobytes() for w in _meyer_reference(g, Fprime, blocks, Q)]


# r = 1 and r = 1.5 put both window ends r 2^(j-1) and R 2^j on grid radii;
# the last family needs the wider gap h = 4.
_EDGE_FAMILIES = (
    LPFamily(make_cutoff(1.0, 2.0, "exp")),
    LPFamily(make_cutoff(1.5, 3.0, "poly7")),
    LPFamily(make_cutoff(1.0, 3.0, "exp"), h=4),
)


def test_windowed_radial_weights_match_every_radius_bitwise(families):
    for fam in (*families, *_EDGE_FAMILIES):
        for n, M in ((1, 64), (1, 128), (2, 32)):
            for j in range(8):
                got = _radial_on_grid(Block(fam.profile, j), M, n)
                want = _radial_every_radius(lambda r: fam.profile.block_weight(r, j), M, n)
                assert got.tobytes() == want.tobytes(), (fam.profile.id, n, M, j)


def test_radial_weights_evaluate_exactly_the_closed_window():
    seen = []

    class Recording(Block):
        def radial(self, rho):
            seen.append(rho)
            return 1.0 + rho

    for fam in _EDGE_FAMILIES:
        for n, M in ((1, 64), (2, 64)):
            radii = np.unique(grid_frequencies(M, n))
            for j in (2, 3):
                mult = Recording(fam.profile, j)
                assert mult.lo in radii and mult.hi in radii
                seen.clear()
                got = _radial_on_grid(mult, M, n)
                inside = [float(r) for r in radii if mult.lo <= r <= mult.hi]
                assert seen == inside
                want = _radial_every_radius(
                    lambda r: 1.0 + r if mult.lo <= r <= mult.hi else 0.0, M, n
                )
                assert got.tobytes() == want.tobytes()


def test_one_transform_blocks_match_per_block_ffts_bitwise(families, rng):
    for fam in (*families, *_EDGE_FAMILIES):
        for n, M in ((1, 256), (2, 32)):
            u = random_band_limited(n, 10, 12 if n == 1 else 6, rng, hermitian=True)
            g = sparse_to_dense(u, M)
            g = DenseField(n, M, g.samples.real.astype(np.complex128))
            for j in range(-1, 7):
                got = lp_project_dense(g, j, fam).samples
                want = np.zeros_like(got) if j < 0 else _block_by_own_fft(g, j, fam)
                assert got.tobytes() == want.tobytes()
            blocks = dyadic_blocks(g, fam, K=5)
            mks = meyer_symbol(g, np.cos, blocks, Q=6)
            want = _meyer_by_own_ffts(g, np.cos, fam, K=5, Q=6)
            assert [mk.samples.tobytes() for mk, _ in mks] == [w.tobytes() for w in want]
            acc = np.zeros((M,) * n, dtype=np.complex128)
            for mk, k in mks:
                acc = acc + mk.samples * _block_by_own_fft(g, k, fam)
            assert meyer_apply(mks, blocks).samples.tobytes() == acc.tobytes()


def test_in_place_transforms_match_out_of_place_ffts_bitwise(families, rng):
    # References call np.fft.fftn/ifftn themselves and never pass out=.
    for n, M in ((1, 8), (1, 256), (1, 4096), (2, 8), (2, 64)):
        u = random_band_limited(n, 10, M // 4, rng)
        spec = np.zeros((M,) * n, dtype=np.complex128)
        for xi, c in u.items():
            spec[tuple(k % M for k in xi)] += float(M) ** n * c
        g = sparse_to_dense(u, M)
        assert g.samples.tobytes() == np.fft.ifftn(spec).tobytes()

        s_values = (-1.0, 0.0, 0.5, 2.0)
        rho = grid_frequencies(M, n)
        for s, pot in zip(s_values, bessel_potential(g, s_values), strict=True):
            want = np.fft.ifftn(np.fft.fftn(g.samples) * (1.0 + rho * rho) ** (0.5 * s))
            assert pot.samples.tobytes() == want.tobytes(), (n, M, s)

        for fam in families:
            blocks = dyadic_blocks(g, fam, 6)
            assert len(blocks) == 7
            for k, block in enumerate(blocks):
                assert block.tobytes() == _block_by_own_fft(g, k, fam).tobytes()
                assert not block.flags.writeable


def test_dyadic_blocks_need_a_top_block(fam):
    # With no block the factorisation would be an empty sum: no evidence.
    g = DenseField(1, 64, np.ones(64, dtype=complex))
    with pytest.raises(ValueError):
        dyadic_blocks(g, fam, -1)
