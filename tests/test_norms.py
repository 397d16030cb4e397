"""Sobolev, L_p, block norms and the directional decay report."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torspec.constructions import lacunary_field, vanishing_family, weierstrass_field
from torspec.cutoffs import lp_project
from torspec.errors import EmptySpectrum, RangeTooLarge
from torspec.fields import (
    DenseField,
    SparseField,
    angled,
    delta_field,
    grid_frequencies,
    sparse_to_dense,
)
from torspec.norms import (
    _lp_of_moduli,
    bessel_potential,
    besov_norm,
    block_norms,
    cone_report,
    hsp_norm,
    hsp_norm_dense,
    lp_norm,
    sobolev_norm,
)


# -- Sobolev ---------------------------------------------------------------------


def test_constant_has_unit_norm_for_every_s():
    one = delta_field((0,))
    for s in (-3.0, 0.0, 0.5, 4.0):
        assert sobolev_norm(one, s) == 1.0


@pytest.mark.parametrize("j", [0, 3, 7, 15])
@pytest.mark.parametrize("s", [-1.0, 0.5, 2.0])
def test_single_dyadic_mode_closed_form(j, s):
    u = delta_field((2**j,))
    expected = (1.0 + 4.0**j) ** (s / 2.0)
    assert abs(sobolev_norm(u, s) - expected) <= 1e-14 * expected


def test_per_mode_weight_is_exact():
    c = 3.0 - 4.0j
    u = delta_field((7,), c)
    assert sobolev_norm(u, 1.0) == abs(c) * math.sqrt(1.0 + 49.0)


def test_squares_add_across_disjoint_spectra():
    u = SparseField(1, {(1,): 2.0})
    v = SparseField(1, {(5,): 1.0j})
    s = 0.75
    total = sobolev_norm(u.add(v), s) ** 2
    assert abs(total - sobolev_norm(u, s) ** 2 - sobolev_norm(v, s) ** 2) <= 1e-15 * total


def _weighted_norm(u, s):
    """Reference: the H^s sum with a weight <xi>^(2s) on every mode."""
    return math.sqrt(math.fsum(angled(xi) ** (2.0 * s) * abs(c) ** 2 for xi, c in u.items()))


_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308]),
    st.floats(-1e150, 1e150, allow_nan=False),
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.dictionaries(
            st.tuples(*[st.integers(-(2**40), 2**40)] * n),
            st.builds(complex, _parts, _parts),
            max_size=8,
        ).map(lambda d: SparseField(n, d))
    )
)
@example(SparseField(2, {(0, 0): complex(-0.0, 5e-324), (3, -1): complex(1e-310, -0.0), (1, 1): -2j}))
def test_h0_norm_matches_weighted_sum_bitwise(u):
    # <xi>^0 is exactly 1.0, so the unweighted H^0 sum must equal the
    # weighted one bit for bit, subnormal and signed-zero parts included.
    for s in (0.0, -0.0):
        assert sobolev_norm(u, s).hex() == _weighted_norm(u, s).hex()


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(-50, 50).filter(lambda k: k != 0).map(lambda k: (k,)),
        st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=10, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=6,
    ),
    st.floats(-2, 2),
    st.floats(0, 1.5),
)
def test_monotone_in_s_off_the_origin(coeffs, s, ds):
    u = SparseField(1, coeffs)
    assert sobolev_norm(u, s + ds) >= sobolev_norm(u, s) * (1 - 1e-12)


def test_vanishing_family_norm_closed_form():
    # Oracle: with the one-mode carrier, ||v_N||_{H^0} = (sum j^-2)^(1/2)/log N.
    for N in (5, 6, 7):
        vN, _, _ = vanishing_family(N, 0.0, (1,), v=delta_field((0,)))
        oracle = (
            math.sqrt(math.fsum(1.0 / (j * j) for j in range(N, N * N + 1)))
            / math.log(N)
        )
        assert abs(sobolev_norm(vN, 0.0) - oracle) <= 1e-14 * oracle


def test_vanishing_family_norm_bound_with_fitted_constant():
    # Fit the constant once at N = 5, then the bound holds along the family.
    def tail(N):
        return math.sqrt(math.fsum(1.0 / (j * j) for j in range(N, N * N + 1)))

    norms = {}
    for N in (5, 6, 7):
        vN, _, _ = vanishing_family(N, 0.0, (1,))
        norms[N] = sobolev_norm(vN, 0.0)
    c = norms[5] / tail(5)
    for N in (6, 7):
        assert norms[N] <= c * tail(N) * (1 + 1e-12)


# -- L_p on the grid ----------------------------------------------------------------


def test_constant_has_unit_lp_norm():
    g = DenseField(1, 16, np.ones(16, dtype=complex))
    for p in (1.0, 2.0, 4.0, math.inf):
        assert abs(lp_norm(g, p) - 1.0) <= 1e-15


def test_cosine_l2_closed_form():
    # Oracle: (2pi)^-1 integral cos^2 = 1/2, so the L_2 norm is 2^(-1/2).
    g = sparse_to_dense(SparseField(1, {(1,): 0.5, (-1,): 0.5}), 4096)
    assert abs(lp_norm(g, 2.0) - 2.0**-0.5) <= 1e-12


def test_cosine_sup_norm_hits_grid_point():
    g = sparse_to_dense(SparseField(1, {(1,): 0.5, (-1,): 0.5}), 64)
    assert abs(lp_norm(g, math.inf) - 1.0) <= 1e-14


def test_lp_rejects_p_below_one():
    g = DenseField(1, 8, np.ones(8, dtype=complex))
    with pytest.raises(ValueError):
        lp_norm(g, 0.5)


def test_hsp_agrees_with_sobolev_at_p_two():
    u = SparseField(1, {(0,): 1.0, (3,): -2j, (-5,): 0.5})
    for s in (-1.0, 0.0, 1.5):
        assert abs(hsp_norm(u, s, 2.0, 64) - sobolev_norm(u, s)) <= 1e-10


def test_hsp_dense_matches_sparse_route():
    u = SparseField(1, {(1,): 1.0, (-1,): 1.0, (4,): 0.25j})
    g = sparse_to_dense(u, 128)
    for s, p in ((0.5, 2.0), (1.0, 4.0)):
        assert abs(hsp_norm_dense(g, s, p) - hsp_norm(u, s, p, 128)) <= 1e-12


# -- block norms -------------------------------------------------------------------------


def test_single_mode_besov_norm(fam):
    j, d = 6, 0.75
    u = delta_field((2**j,))
    out = besov_norm(u, d, math.inf, math.inf, fam, 1024)
    assert abs(out - 2.0 ** (j * d)) <= 1e-12 * 2.0 ** (j * d)


def test_empty_field_norm_is_zero(fam):
    assert besov_norm(SparseField(1, {}), 0.5, 2.0, 2.0, fam, 64) == 0.0


def test_weierstrass_unit_norms_small_grid(fam):
    f = weierstrass_field(0.5, 6)
    assert abs(besov_norm(f, 0.5, math.inf, math.inf, fam, 1024) - 1.0) <= 1e-10
    for p in (1.0, 2.0, 4.0):
        fn = besov_norm(f, 0.5, p, math.inf, fam, 1024, aggregation="triebel")
        assert abs(fn - 1.0) <= 1e-10


def test_finite_q_aggregation(fam):
    u = SparseField(1, {(2,): 1.0, (16,): 1.0})
    # Two isolated blocks of unit sup norm: B^0_{inf,q} = 2^(1/q).
    out = besov_norm(u, 0.0, math.inf, 2.0, fam, 256)
    assert abs(out - math.sqrt(2.0)) <= 1e-10


def test_triebel_needs_q_infinity(fam):
    with pytest.raises(ValueError):
        besov_norm(delta_field((2,)), 0.0, 2.0, 2.0, fam, 64, aggregation="triebel")


# Brute-force references: one sparse_to_dense per block per pass and per p,
# the loops that block_norms and bessel_potential replace.


def _besov_by_passes(u, s, p, q, fam, M, aggregation="besov"):
    blocks = [(j, lp_project(u, j, fam)) for j in range(fam.top_block(u) + 1)]
    if aggregation == "triebel":
        env = np.zeros((M,) * u.n)
        for j, uj in blocks:
            if len(uj) == 0:
                continue
            env = np.maximum(env, 2.0 ** (j * s) * np.abs(sparse_to_dense(uj, M).samples))
        return lp_norm(DenseField(u.n, M, env.astype(np.complex128)), p)
    per_block = []
    for j, uj in blocks:
        if len(uj) == 0:
            continue
        per_block.append(2.0 ** (j * s) * lp_norm(sparse_to_dense(uj, M), p))
    if not per_block:
        return 0.0
    if math.isinf(q):
        return max(per_block)
    return float(math.fsum(v**q for v in per_block) ** (1.0 / q))


def _potential_by_pass(g, s):
    rho = grid_frequencies(g.M, g.n)
    return np.fft.ifftn(np.fft.fftn(g.samples) * (1.0 + rho * rho) ** (0.5 * s))


def _gapped_fields():
    """n = 1 and n = 2 fields whose block ranges contain empty blocks."""
    rng = np.random.default_rng(6)
    yield SparseField(1, {(1,): 1.0, (-3,): 0.5j, (40,): 0.25 - 0.5j})
    yield SparseField(1, {(0,): 2.0, (33,): 1.0})
    yield SparseField(1, {})
    yield SparseField(2, {(1, 0): 1.0, (0, -1): 0.5, (20, 5): 1j, (-6, 25): 0.3})
    for n, window in ((1, 30), (2, 12)):
        for _ in range(2):
            keys = rng.integers(-window, window + 1, size=(5, n))
            coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
            yield SparseField(n, {tuple(int(k) for k in key): c for key, c in zip(keys, coeffs)})


def test_block_pass_matches_per_pass_loops_bitwise(families):
    gapped = set()
    for fam in families:
        for u in _gapped_fields():
            M = 128 if u.n == 1 else 64
            blocks = [lp_project(u, j, fam) for j in range(fam.top_block(u) + 1)]
            if len(u) and not all(blocks):
                gapped.add(u.n)
            for s in (0.0, 0.75, -0.5):
                for p in (1.0, 2.0, 3.5, math.inf):
                    per_block, env = block_norms(u, s, p, fam, M)
                    assert env.dtype == np.float64 and env.shape == (M,) * u.n
                    assert not env.flags.writeable
                    want = [
                        2.0 ** (j * s) * lp_norm(sparse_to_dense(uj, M), p)
                        for j, uj in enumerate(blocks)
                        if len(uj)
                    ]
                    assert [v.hex() for v in per_block] == [v.hex() for v in want]
                    triebel = _besov_by_passes(u, s, p, math.inf, fam, M, "triebel")
                    assert _lp_of_moduli(env, p).hex() == triebel.hex()
                    got = besov_norm(u, s, p, math.inf, fam, M, aggregation="triebel")
                    assert got.hex() == triebel.hex()
                    for q in (1.0, 2.0, math.inf):
                        got = besov_norm(u, s, p, q, fam, M)
                        assert got.hex() == _besov_by_passes(u, s, p, q, fam, M).hex()
    assert gapped == {1, 2}


def test_bessel_potential_split_matches_one_pass_bitwise():
    for u in _gapped_fields():
        M = 128 if u.n == 1 else 64
        g = sparse_to_dense(u, M)
        for s in (-1.0, 0.0, 0.5, 2.0):
            (field,) = bessel_potential(g, (s,))
            want = _potential_by_pass(g, s)
            assert field.samples.tobytes() == want.tobytes()
            for p in (1.0, 2.0, 4.0, math.inf):
                ref = lp_norm(DenseField(u.n, M, want), p).hex()
                assert lp_norm(field, p).hex() == ref
                assert hsp_norm_dense(g, s, p).hex() == ref


def test_an_exponent_too_large_for_the_grid_is_refused_where_it_overflows():
    # <xi>^s at the top frequency 4 of an M = 8 grid is 17^(s/2): a double
    # for s = 400, infinite for s = 600, where the inverse FFT gave nan.
    g = sparse_to_dense(SparseField(1, {(3,): 1.0, (-4,): 0.5}), 8)
    (pot,) = bessel_potential(g, (400.0,))
    with pytest.raises(RangeTooLarge, match=r"not finite at s = 600.0 on the M = 8 grid"):
        bessel_potential(g, (400.0, 600.0))
    # Finite moduli whose p-th powers overflow: the norm was inf, which no
    # report can hold.
    top = float(np.abs(pot.samples).max())
    assert lp_norm(pot, math.inf) == top
    with pytest.raises(RangeTooLarge, match=r"L_2.0 norm overflows: the largest modulus is"):
        lp_norm(pot, 2.0)
    with pytest.raises(RangeTooLarge, match=r"L_4.0 norm overflows"):
        _lp_of_moduli(np.abs(pot.samples), 4.0)


def test_dense_passes_hold_only_their_own_grids(fam):
    # Traced peaks in complex grids of M = 2^14: sparse_to_dense inverts its
    # spectrum in place (one grid, not two), and block_norms holds one
    # block's samples plus its moduli and the envelope, half a grid each
    # (two grids, not the 2.5 of a pass that keeps the last moduli alive).
    # The Triebel reductions of the real envelope add one power of it, half a
    # grid; reading a complex copy of it, they also took its moduli, one grid.
    import tracemalloc

    M = 2**14
    grid = 16 * M
    w = weierstrass_field(0.5, 10)
    _, env = block_norms(w, 0.5, math.inf, fam, M)
    for bound, run in (
        (1.25, lambda: sparse_to_dense(w, M)),
        (2.25, lambda: block_norms(w, 0.5, math.inf, fam, M)),
        (0.75, lambda: [_lp_of_moduli(env, p) for p in (1.0, 2.0, 4.0, math.inf)]),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * grid, (bound, peak / grid)


# -- directional decay ----------------------------------------------------------------------


def test_cone_report_slope_matches_order():
    w = lacunary_field((1,), 0.5, 5, 20, delta_field((0,)))
    report = cone_report(w)
    assert len(report) == 1
    direction, slope = report[0]
    assert direction == (1.0,)
    assert abs(slope + 0.5) <= 0.05


def test_cone_report_flat_after_flip():
    w = lacunary_field((-1,), 0.0, 5, 20, delta_field((0,)))
    ((direction, slope),) = cone_report(w)
    assert direction == (-1.0,)
    assert abs(slope) <= 0.05


def test_cone_report_two_directions():
    w = lacunary_field((1, 0), 1.0, 5, 14, delta_field((0, 0))).add(
        lacunary_field((0, 1), 0.25, 5, 14, delta_field((0, 0)))
    )
    report = dict(cone_report(w))
    assert abs(report[(0.0, 1.0)] + 0.25) <= 0.05
    assert abs(report[(1.0, 0.0)] + 1.0) <= 0.05


def test_cone_report_rejects_origin_only():
    with pytest.raises(EmptySpectrum):
        cone_report(delta_field((0,)))


def test_cone_report_groups_nearby_directions():
    v = SparseField(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    w = lacunary_field((1,), 0.5, 6, 16, v)
    report = cone_report(w)
    assert len(report) == 1
    assert abs(report[0][1] + 0.5) <= 0.05


def test_vanishing_family_norm_bound_at_half_order():
    # Same fitted-constant bound at a nonzero order index.
    def tail(N):
        return math.sqrt(math.fsum(1.0 / (j * j) for j in range(N, N * N + 1)))

    d = 0.5
    norms = {}
    for N in (5, 6, 7):
        vN, _, _ = vn_fam(N, d)
        norms[N] = sobolev_norm(vN, d)
    c = norms[5] / tail(5)
    for N in (6, 7):
        assert norms[N] <= c * tail(N) * (1 + 1e-9)


def vn_fam(N, d):
    from torspec.constructions import vanishing_family

    return vanishing_family(N, d, (1,))


def test_sobolev_norm_2d_single_mode():
    from torspec.fields import delta_field as df

    u = df((3, 4), 2.0)
    assert abs(sobolev_norm(u, 1.0) - 2.0 * math.sqrt(26.0)) <= 1e-14 * 2.0 * math.sqrt(26.0)
