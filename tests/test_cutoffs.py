"""Plateau cutoffs, the dyadic family and frequency projections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torspec.cutoffs import (
    CutoffProfile,
    LPFamily,
    ball_diff,
    default_families,
    lp_project,
    make_cutoff,
    modulate,
    telescope_check,
)
from torspec.errors import BadRadii
from torspec.fields import SparseField, delta_field, freq_abs
from torspec.norms import sobolev_norm


def test_plateau_and_support_values():
    psi = make_cutoff(1.1, 2.0)
    assert psi((0,)) == 1.0
    assert psi.radial(1.1) == 1.0
    assert psi.radial(2.0) == 0.0
    assert psi.radial(5.0) == 0.0
    assert 0.0 < psi.radial(1.5) < 1.0


def test_default_radii_isolate_dyadic_modes():
    # Oracle: direct evaluation.  psi(1) = 1 and psi(2) = 0 force
    # Phi_j(2^j) = psi(1) - psi(2) = 1 for every j >= 1.
    fam = default_families()[0]
    for j in range(1, 12):
        assert fam.block_multiplier(j, (2**j,)) == 1.0


def test_bad_radii_rejected():
    with pytest.raises(BadRadii):
        make_cutoff(2.0, 1.0)
    with pytest.raises(BadRadii):
        make_cutoff(0.0, 1.0)
    with pytest.raises(BadRadii):
        make_cutoff(1.0, 2.0, kind="cubic")


def test_gap_parameter_checked():
    with pytest.raises(BadRadii):
        LPFamily(make_cutoff(1.0, 8.0), h=3)


def test_profiles_are_radial_and_monotone():
    for fam in default_families():
        prof = fam.profile
        radii = np.linspace(0.0, 3.0, 400)
        vals = [prof.radial(r) for r in radii]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


# -- telescoping -----------------------------------------------------------------------


def test_telescope_at_origin():
    prof = make_cutoff()
    assert telescope_check(prof, 5, [(0,)]) == 0.0


def test_telescope_sampled(rng):
    for prof in (make_cutoff(1.1, 2.0, "exp"), make_cutoff(1.05, 1.9, "poly7")):
        top = int(prof.R * 2**8) + 1
        samples = [(int(k),) for k in rng.integers(-top, top, size=10_000)]
        assert telescope_check(prof, 8, samples) <= 1e-15


def _telescope_per_sample(profile, m, samples):
    # The identity evaluated sample by sample, in the order given.
    worst = 0.0
    for xi in samples:
        rho = freq_abs(xi)
        total = profile.block_weight(rho, 0)
        for k in range(1, m + 1):
            total += profile.block_weight(rho, k)
        worst = max(worst, abs(profile.radial(rho / 2**m) - total))
    return worst


# Both defaults round to exactly 0; the wide profiles (R > 4r, so several
# blocks overlap) leave 2^-53 at some radii and not at others.
_TELESCOPE_PROFILES = [f.profile for f in default_families()] + [
    CutoffProfile(0.3, 7.7, "exp"),
    CutoffProfile(0.9, 3.3, "poly7"),
]
# Distinct frequencies of one radius.
_RADIUS_FIVE = [(3, 4), (5, 0), (-4, 3), (0, -5), (4, -3)]


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.sampled_from([1, 2]),
    st.integers(1, 7),
    st.sampled_from(range(len(_TELESCOPE_PROFILES))),
)
def test_telescope_matches_per_sample_loop_bitwise(data, n, m, which):
    prof = _TELESCOPE_PROFILES[which]
    top = int(prof.R * 2**m) + 2
    freq = st.tuples(*[st.integers(-top, top)] * n)
    if n == 2:
        freq = st.one_of(freq, st.sampled_from(_RADIUS_FIVE))
    samples = data.draw(st.lists(freq, min_size=1, max_size=30))
    samples += data.draw(st.lists(st.sampled_from(samples), max_size=10))  # duplicates
    got = telescope_check(prof, m, samples)
    assert got.hex() == _telescope_per_sample(prof, m, samples).hex()


def test_telescope_wide_profile_has_nonzero_deviation():
    # Keeps the bitwise test above from comparing only zeros.
    prof = _TELESCOPE_PROFILES[2]
    samples = [(k,) for k in range(64)]
    dev = telescope_check(prof, 3, samples)
    assert dev == _telescope_per_sample(prof, 3, samples) == 2.0**-53
    assert sum(telescope_check(prof, 3, [xi]) > 0.0 for xi in samples) < len(samples)


def test_telescope_needs_samples():
    # No sample is no evidence, the same rule as m < 1.
    with pytest.raises(ValueError):
        telescope_check(make_cutoff(), 3, [])
    with pytest.raises(ValueError):
        telescope_check(make_cutoff(), 0, [(1,)])


def test_telescope_outside_support_all_zero():
    prof = make_cutoff()
    m = 6
    xi = (int(prof.R * 2**m) + 5,)
    assert len(modulate(delta_field(xi), m, prof)) == 0
    assert prof(xi) == 0.0
    assert telescope_check(prof, m, [xi]) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**13, 2**13), st.integers(1, 10))
def test_partition_of_unity_inside_plateau(k, m):
    prof = make_cutoff()
    xi = (k,)
    if abs(k) <= prof.r * 2**m:
        total = prof(xi)
        for j in range(1, m + 1):
            total += prof.radial(abs(k) / 2**j) - prof.radial(abs(k) / 2 ** (j - 1))
        assert abs(total - 1.0) <= 1e-15


def test_blocks_disjoint_when_two_apart(rng):
    for fam in default_families():
        r, R = fam.profile.r, fam.profile.R
        # Interval arithmetic on the support radii.
        for j in range(0, 10):
            for k in range(j + 2, 12):
                assert R * 2**j < r * 2 ** (k - 1)
        # And by sampling.
        for k in rng.integers(-4096, 4096, size=500):
            for j in range(0, 8):
                prod = fam.block_multiplier(j, (int(k),)) * fam.block_multiplier(
                    j + 2, (int(k),)
                )
                assert prod == 0.0


# -- projections -----------------------------------------------------------------------


def test_block_isolates_a_dyadic_mode(fam):
    u = delta_field((2**5,))
    assert lp_project(u, 5, fam).coeffs == u.coeffs
    for j in (0, 1, 4, 6, 9):
        assert len(lp_project(u, j, fam)) == 0


def test_block_sum_telescopes_to_ball(fam, rng):
    coeffs = {
        (int(k),): complex(rng.normal(), rng.normal())
        for k in rng.integers(-500, 500, size=30)
    }
    u = SparseField(1, coeffs)
    m = 10
    total = SparseField(1, {})
    for j in range(m + 1):
        total = total.add(lp_project(u, j, fam))
    ball = ball_diff(u, m, -1, fam.profile)
    scale = max(abs(c) for _, c in u.items())
    worst = max(
        abs(total.coeff(x) - ball.coeff(x)) for x in total.spectrum() | ball.spectrum()
    )
    assert worst <= 1e-15 * scale


def test_ball_difference_equals_block_bitwise(fam, rng):
    coeffs = {
        (int(k),): complex(rng.normal(), rng.normal())
        for k in rng.integers(-500, 500, size=30)
    }
    u = SparseField(1, coeffs)
    for j in range(1, 10):
        lhs = ball_diff(u, j, -1, fam.profile).add(ball_diff(u, j - 1, -1, fam.profile).scale(-1.0))
        rhs = lp_project(u, j, fam)
        assert lhs.coeffs == rhs.coeffs
        # every products-first difference u^j - u^k, not only k = j - 1
        for k in range(j):
            lhs = ball_diff(u, j, -1, fam.profile).add(ball_diff(u, k, -1, fam.profile).scale(-1.0))
            assert ball_diff(u, j, k, fam.profile).coeffs == lhs.coeffs


def test_negative_index_gives_empty_field(fam):
    u = delta_field((3,))
    assert len(lp_project(u, -1, fam)) == 0
    assert len(ball_diff(u, -2, -1, fam.profile)) == 0
    assert len(ball_diff(u, -1, 3, fam.profile)) == 0


def test_ball_mode_is_identity_once_plateau_covers(fam):
    u = SparseField(1, {(3,): 1 + 1j, (-17,): 2.0})
    assert ball_diff(u, 6, -1, fam.profile).coeffs == u.coeffs
    assert ball_diff(u, 2, -1, fam.profile).coeffs == modulate(u, 2, fam.profile).coeffs


def test_ball_at_zero_equals_block_at_zero(fam):
    u = SparseField(1, {(0,): 1.0, (1,): 2.0, (40,): 3.0})
    assert ball_diff(u, 0, -1, fam.profile).coeffs == lp_project(u, 0, fam).coeffs


def _top_block_by_modes(fam, u):
    """Reference for LPFamily.top_block: its former loop over every mode."""
    top = 0
    for xi in u.spectrum():
        rho = freq_abs(xi)
        j = 0
        while fam.profile.r * 2 ** (j - 1) <= rho and j < 70:
            j += 1
        top = max(top, j - 1)
    return top


def test_top_block_matches_per_mode_loop(rng):
    # r = 1.25 puts r 2^(j-1) on integer radii: 5 = |(3, 4)|, 10 = |(-6, 8)|, 20.
    wide = LPFamily(make_cutoff(1.25, 5.0), h=4)
    fams = [*default_families(), wide]
    fields = [SparseField(1, {}), SparseField(2, {}), delta_field((0,)), delta_field((0, 0))]
    fields += [delta_field((3, 4)), delta_field((-6, 8))]
    fields.append(SparseField(2, {(12, -16): 1.0, (1, 1): 2.0}))
    for fam in fams:
        for j in range(12):
            edge = fam.profile.r * 2 ** (j - 1)
            for k in {math.floor(edge), math.ceil(edge)}:
                fields += [delta_field((-k,)), delta_field((0, k))]
                fields.append(SparseField(1, {(1,): 1.0, (k,): 2.0}))
    for _ in range(20):
        n = int(rng.integers(1, 3))
        keys = rng.integers(-300, 300, size=(int(rng.integers(1, 8)), n))
        fields.append(SparseField(n, {tuple(int(x) for x in key): 1.0 for key in keys}))
    for fam in fams:
        for u in fields:
            assert fam.top_block(u) == _top_block_by_modes(fam, u), (fam.profile.id, u.coeffs)
    assert wide.top_block(delta_field((3, 4))) == 3
    assert wide.top_block(SparseField(2, {})) == 0


# -- modulation ------------------------------------------------------------------------


def test_modulate_is_bitwise_identity_on_plateau(fam):
    # On the plateau each coefficient is 1.0 * c: bitwise c, except that a
    # zero part can lose its sign.
    def hexed(f):
        return {xi: (c.real.hex(), c.imag.hex()) for xi, c in f.items()}

    u = SparseField(1, {(3,): 1.234 + 5j, (-9,): -2.0})
    assert hexed(modulate(u, 4, fam.profile)) == hexed(u)
    signed = SparseField(1, {(2,): complex(-0.0, -1.0), (5,): complex(1.0, -0.0)})
    assert hexed(modulate(signed, 4, fam.profile)) == {
        (2,): ((0.0).hex(), (-1.0).hex()),
        (5,): ((1.0).hex(), (0.0).hex()),
    }


def test_modulate_kills_far_frequencies(fam):
    prof = fam.profile
    m = 3
    xi = (int(prof.R * 2**m) + 1,)
    assert len(modulate(SparseField(1, {xi: 1.0}), m, prof)) == 0


def test_modulate_intermediate_scaling_matches_profile(fam):
    prof = fam.profile
    xi, m = (12,), 3
    expected = prof.radial(12.0 / 2**m)
    assert 0.0 < expected < 1.0
    out = modulate(SparseField(1, {xi: 2.0}), m, prof)
    assert out.coeff(xi) == expected * 2.0


def _ref_abs(xi) -> float:
    # Reference radius: math.fsum of the float squares.
    return math.sqrt(math.fsum(float(c) * float(c) for c in xi))


def _transition_field(n: int, rng) -> SparseField:
    """Modes on every profile's plateau, transition and support edges for m = 0..60."""
    radii = [0.0, 1.0, 1.05, 1.1, 1.3, 1.5, 1.7, 1.9, 2.0, 2.5]
    coeffs = {}
    for m in range(61):
        for rho in radii:
            k = int(rho * 2**m)
            for dk in (-1, 0, 1):
                if n == 1:
                    xi = (k + dk,)
                else:
                    t = rng.uniform(0.0, math.pi / 2)
                    xi = (int(k * math.cos(t)) + dk, int(k * math.sin(t)))
                coeffs[xi] = complex(rng.normal(), rng.normal())
    return SparseField(n, coeffs)


def test_modulate_matches_per_mode_multiplier_bitwise(rng):
    for n in (1, 2):
        u = _transition_field(n, rng)
        for fam in default_families():
            profile = fam.profile
            for m in range(61):
                want = u.multiplier(lambda xi: profile.radial(_ref_abs(xi) / float(2**m)))
                got = modulate(u, m, profile)
                assert list(got.coeffs) == list(want.coeffs), (n, m)
                for xi, c in want.items():
                    d = got.coeff(xi)
                    assert (d.real.hex(), d.imag.hex()) == (c.real.hex(), c.imag.hex()), xi


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(-300, 300).map(lambda k: (k,)),
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=10,
    ),
    st.integers(0, 9),
    st.floats(-2.0, 2.0),
)
def test_modulation_contracts_every_sobolev_norm(coeffs, m, s):
    u = SparseField(1, coeffs)
    fam = default_families()[0]
    assert sobolev_norm(modulate(u, m, fam.profile), s) <= sobolev_norm(u, s) * (
        1 + 1e-12
    )
