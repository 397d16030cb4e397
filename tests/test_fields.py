"""Sparse/dense field algebra, conversions and their exactness contracts."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torspec.constructions import lacunary_field
from torspec.cutoffs import ball_diff, default_families, make_cutoff, modulate
from torspec.errors import BudgetExceeded, DimensionMismatch, FrequencyOutOfRange
from torspec.fields import (
    DenseField,
    SparseField,
    _derived_field,
    angled,
    check_frequency,
    delta_field,
    dense_to_sparse,
    freq_abs,
    freq_add,
    freq_radii,
    grid_points,
    inner_product,
    pointwise_mul,
    shifted,
    sparse_to_dense,
    zero_field,
)
from torspec.operator import (
    _rank,
    adjoint_apply_ching,
    apply,
    apply_with_support,
    paradiff_split,
)
from torspec.symbols import One, SeparableSymbol, Term, ching_symbol, multiplication_symbol


def direct_samples(u, M):
    """Independent oracle: evaluate the series term by term at grid points."""
    xs = grid_points(M)
    out = np.zeros(M, dtype=complex)
    for xi, c in u.items():
        out += c * np.exp(1j * xi[0] * xs)
    return out


coeff_st = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


def sparse_fields(max_freq=40, max_modes=8):
    return st.dictionaries(
        st.integers(-max_freq, max_freq).map(lambda k: (k,)),
        coeff_st,
        min_size=1,
        max_size=max_modes,
    ).map(lambda d: SparseField(1, d))


# -- construction and validation ------------------------------------------------


def test_prune_threshold_drops_small_coefficients():
    u = SparseField(1, {(0,): 1.0, (1,): 1e-300}, tau=1e-200)
    assert u.spectrum() == {(0,)}


def test_nan_or_negative_prune_threshold_rejected():
    # NaN fails every compare: it passed a `tau < 0` guard and then dropped
    # every coefficient, so the field came out empty without an error.
    for tau in (math.nan, -math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError):
            SparseField(1, {(1,): 1.0}, tau)


def test_prune_threshold_applies_only_to_the_field_built_with_it():
    # Every operation builds its result with the default threshold, so a
    # derived field equals the same operation on an unpruned twin of u and
    # keeps coefficients at or below u's tau.
    u = SparseField(1, {(0,): 1.0, (1,): 0.6}, tau=0.5)
    twin = SparseField(1, dict(u.coeffs))
    half = multiplication_symbol(SparseField(1, {(0,): 0.5}))
    fam = default_families()[0]
    data, _ = ching_symbol(-2.0, (1,), 3, 4)
    ops = {
        "scale": lambda f: f.scale(0.5),
        "add": lambda f: f.add(SparseField(1, {(1,): -0.3})),
        "add a negation": lambda f: f.add(f.scale(0.9).scale(-1.0)),
        "conjugate": lambda f: f.conjugate(),
        "multiplier": lambda f: f.multiplier(lambda xi: 0.5),
        "pointwise_mul": lambda f: pointwise_mul(f, SparseField(1, {(0,): 0.5})),
        "modulate": lambda f: modulate(f, 0, make_cutoff(0.5, 2.0)),
        "ball_diff": lambda f: ball_diff(f, 1, 0, make_cutoff(0.5, 2.0)),
        "lacunary_field": lambda f: lacunary_field((1,), 1.0, 5, 6, f),
        "apply": lambda f: apply(half, f),
        "apply_with_support": lambda f: apply_with_support(half, f)[0],
        "adjoint_apply_ching": lambda f: adjoint_apply_ching(data, f),
        "paradiff_split": lambda f: paradiff_split(half, f, fam, 1)[1],  # the diagonal
    }
    for name, op in ops.items():
        got, want = op(u), op(twin)
        assert len(got) > 0, name
        assert got.coeffs == want.coeffs, name
        assert got.tau == 0.0, name
    assert min(abs(c) for c in u.scale(0.5).coeffs.values()) <= u.tau
    assert u.add(u.scale(0.9).scale(-1.0)).spectrum() == {(0,), (1,)}


def test_frequency_cap_enforced():
    with pytest.raises(FrequencyOutOfRange):
        SparseField(1, {(2**62,): 1.0})


def test_dimension_checked():
    with pytest.raises(DimensionMismatch):
        SparseField(1, {(1, 2): 1.0})
    with pytest.raises(DimensionMismatch):
        SparseField(3, {(1, 2, 3): 1.0})


def test_non_integer_frequency_rejected():
    with pytest.raises(FrequencyOutOfRange):
        SparseField(1, {(1.5,): 1.0})


def test_bool_frequency_component_rejected():
    # Python's bool subclasses int, but a truth value is no lattice point,
    # as np.bool_ is not: neither (True,) nor (3, False) becomes (1,) or (3, 0).
    for n, xi in ((1, (True,)), (2, (np.int64(3), False)), (2, (0, np.bool_(True)))):
        with pytest.raises(FrequencyOutOfRange, match="non-integer"):
            SparseField(n, {xi: 1.0})
        with pytest.raises(FrequencyOutOfRange):
            check_frequency(xi, n)


def test_non_finite_coefficient_rejected():
    # NaN fails the prune compare and inf passes it; neither may be dropped or kept.
    for c in (math.nan, complex(0.0, math.nan), math.inf, complex(1.0, -math.inf)):
        for tau in (0.0, 1.0):
            with pytest.raises(ValueError):
                SparseField(1, {(0,): 1.0, (1,): c}, tau)


def _checked_coeffs(n, coeffs):
    """Reference construction: every kept key goes through check_frequency."""
    clean = {}
    for xi in sorted(coeffs):
        c = complex(coeffs[xi])
        if abs(c) > 0.0:
            clean[check_frequency(xi, n)] = c
    return clean


def _outcome(build):
    try:
        return build(), None
    except Exception as exc:  # the class is what must match
        return None, type(exc)


_EDGE = (2**62 - 1, -(2**62 - 1), 2**62, -(2**62), 0, 1, -1)
frequency_component_st = st.one_of(
    st.sampled_from(_EDGE),
    st.integers(-40, 40),
    st.booleans(),
    st.sampled_from(_EDGE).map(np.int64),
    st.integers(-40, 40).map(np.int64),
    st.sampled_from((0.0, 2.0, -1.5, 2.0**62)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((1, 2)),
    st.dictionaries(
        st.lists(frequency_component_st, min_size=1, max_size=3).map(tuple),
        st.sampled_from((1.0, -2.5 + 0.5j, 1e-300j, 0.0)),
        max_size=6,
    ),
)
def test_plain_int_fast_path_matches_checked_construction(n, coeffs):
    ref, ref_exc = _outcome(lambda: _checked_coeffs(n, coeffs))
    got, got_exc = _outcome(lambda: SparseField(n, coeffs).coeffs)
    assert got_exc is ref_exc
    if ref_exc is None:
        assert list(got) == list(ref)
        assert all(type(k) is int for xi in got for k in xi)
        for (xi, c), d in zip(got.items(), ref.values()):
            assert (c.real.hex(), c.imag.hex()) == (d.real.hex(), d.imag.hex()), xi


def _build(build):
    """(n, tau and the items with each coefficient as float.hex), or the error
    type and message, of the field build() makes."""
    try:
        u = build()
    except Exception as exc:  # the class and the message are what must match
        return None, (type(exc), str(exc))
    items = [(xi, c.real.hex(), c.imag.hex()) for xi, c in u.coeffs.items()]
    return (u.n, u.tau, items), None


# Lattice sums of in-cap components: 2^61 + 2^61 = 2^62 and 2^62 - 1 + 1
# reach the cap from inside it, as xi + eta does in apply.
_SUM_EDGE = (0, 1, -1, 2**61, -(2**61), 2**62 - 1, -(2**62 - 1))
_summand_st = st.one_of(st.sampled_from(_SUM_EDGE), st.integers(-40, 40))
_derived_value_st = st.one_of(
    st.sampled_from(
        (
            1.0 + 0j,
            -2.5 + 0.5j,
            1e-300j,
            0j,
            complex(-0.0, 0.0),
            complex(0.0, -0.0),
            complex(-0.0, -0.0),
            complex(math.nan, 0.0),
            complex(0.0, -math.inf),
            complex(1e308, 1e308),  # finite parts, infinite magnitude
        )
    ),
    st.complex_numbers(max_magnitude=1e300),
)


@st.composite
def _derived_input(draw):
    """n and a coefficient dict keyed by lattice sums xi + eta of plain-int
    n-tuples inside the cap, the keys a producer hands the derived build."""
    n = draw(st.sampled_from((1, 2)))
    pairs = draw(st.lists(st.tuples(*[st.tuples(*[_summand_st] * n)] * 2), max_size=8))
    return n, {shifted(xi, [eta])[0]: draw(_derived_value_st) for xi, eta in pairs}


@settings(max_examples=500, deadline=None)
@given(_derived_input())
@example((1, {(2,): complex(math.nan, 0.0), (1,): 1.0 + 0j}))
@example((2, {(0, 1): 1.0 + 0j, (3, -4): complex(0.0, math.inf)}))
@example((1, {(5,): 0j, (-7,): complex(-0.0, -0.0), (1,): 1.0 + 0j}))
@example((2, {(1, 2): complex(-0.0, 0.0)}))
@example((1, {shifted((2**61,), [(2**61,)])[0]: 1.0 + 0j, (0,): 2.0 + 0j}))
@example((1, {shifted((-(2**61),), [(-(2**61),)])[0]: 1.0 + 0j}))
@example((2, {shifted((3, 2**62 - 1), [(-3, 1)])[0]: 1.0 + 0j, (0, 0): 1j}))
@example((2, {shifted((0, -(2**62 - 1)), [(0, -1)])[0]: 1.0 + 0j, (9, 9): 1j}))
@example((2, {shifted((2**61, 0), [(2**61, 0)])[0]: 0j, (1, 1): 1.0 + 0j}))
def test_derived_build_is_the_constructor(case):
    # The per-field checks of the derived build keep the constructor's
    # items, their order and bits, and every error type and message: a NaN
    # or infinite value, exact zeros of either sign, a key at +-2^62.
    n, coeffs = case
    got = _build(lambda: _derived_field(n, dict(coeffs)))
    assert got == _build(lambda: SparseField(n, dict(coeffs)))


# Reference forms: math.fsum of the float squares.
def _ref_abs(xi) -> float:
    return math.sqrt(math.fsum(float(c) * float(c) for c in xi))


def _ref_angled(xi) -> float:
    return math.sqrt(1.0 + math.fsum(float(c) * float(c) for c in xi))


_EDGES = (0, 1, -1, 2**62 - 1, -(2**62 - 1))
component_st = st.one_of(st.sampled_from(_EDGES), st.integers(-(2**62) + 1, 2**62 - 1))


def _assert_radii_match_fsum(xi):
    assert freq_abs(xi).hex() == _ref_abs(xi).hex(), xi
    assert angled(xi).hex() == _ref_angled(xi).hex(), xi


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(*[component_st] * n)))
def test_radii_match_fsum_bitwise(xi):
    _assert_radii_match_fsum(xi)


def test_radii_match_fsum_bitwise_on_edges():
    for x in _EDGES:
        _assert_radii_match_fsum((x,))
        for y in _EDGES:
            _assert_radii_match_fsum((x, y))


def test_radii_need_one_or_two_components():
    for xi in ((), (1, 2, 3)):
        with pytest.raises(DimensionMismatch):
            freq_abs(xi)
        with pytest.raises(DimensionMismatch):
            angled(xi)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[component_st] * n), max_size=12))
    )
)
def test_freq_radii_matches_freq_abs(case):
    # One pass per key list gives the per-key radii bitwise, so _rank sorts
    # the same radii into the same order.
    n, keys = case
    got = freq_radii(n, keys)
    assert [r.hex() for r in got] == [freq_abs(xi).hex() for xi in keys]
    u = SparseField(n, {xi: 1.0 for xi in keys})
    _, radii, order, ranked = _rank(u)
    per_key = [freq_abs(xi) for xi in u.coeffs]
    assert [r.hex() for r in radii] == [r.hex() for r in per_key]
    assert order == sorted(range(len(per_key)), key=per_key.__getitem__)
    assert ranked == [per_key[i] for i in order]


def test_freq_radii_edges_and_dimensions():
    assert freq_radii(1, []) == [] and freq_radii(2, []) == []
    for n, keys in ((1, [(x,) for x in _EDGES]), (2, [(x, y) for x in _EDGES for y in _EDGES])):
        assert [r.hex() for r in freq_radii(n, keys)] == [freq_abs(xi).hex() for xi in keys]
    for n in (0, 3):
        with pytest.raises(DimensionMismatch):
            freq_radii(n, [(1, 2, 3)])
        with pytest.raises(DimensionMismatch):
            freq_radii(n, [])


def test_apply_output_frequency_cap():
    # Inputs just inside the cap whose sum xi + eta reaches it: the guard
    # lives in SparseField construction and must survive the fast path.
    for k in (2**61, -(2**61)):
        a = SeparableSymbol(0.0, 1, (Term(SparseField(1, {(k,): 1.0}), One()),))
        with pytest.raises(FrequencyOutOfRange):
            apply(a, SparseField(1, {(k,): 1.0}))


_BIG = 2**62 - 1


@st.composite
def _shift_case(draw):
    n = draw(st.sampled_from([1, 2]))
    freq = st.tuples(*[st.integers(-_BIG, _BIG)] * n)
    return draw(freq), draw(st.lists(freq, max_size=8))


@settings(max_examples=200, deadline=None)
@given(_shift_case())
def test_shifted_matches_freq_add(case):
    xi, etas = case
    got = shifted(xi, etas)
    assert got == [freq_add(xi, eta) for eta in etas]
    assert all(type(c) is int for zeta in got for c in zeta)


def test_shifted_needs_one_or_two_components():
    for xi in ((), (1, 2, 3)):
        with pytest.raises(DimensionMismatch):
            shifted(xi, [xi])


def _mul_by_pairs(u, v):
    """Reference for pointwise_mul: one freq_add per coefficient pair."""
    out = {}
    for xi, cu in u.items():
        for eta, cv in v.items():
            zeta = freq_add(xi, eta)
            out[zeta] = out.get(zeta, 0.0) + cu * cv
    return SparseField(u.n, out, max(u.tau, v.tau))


@st.composite
def _field_pair(draw):
    n = draw(st.sampled_from([1, 2]))
    freq = st.tuples(*[st.integers(-12, 12)] * n)
    coeffs = st.dictionaries(freq, coeff_st, max_size=10)
    return SparseField(n, draw(coeffs)), SparseField(n, draw(coeffs))


@settings(max_examples=100, deadline=None)
@given(_field_pair())
def test_pointwise_mul_matches_per_pair_loop_bitwise(pair):
    u, v = pair

    def hexed(f):
        return {xi: (c.real.hex(), c.imag.hex()) for xi, c in f.items()}

    assert hexed(pointwise_mul(u, v)) == hexed(_mul_by_pairs(u, v))


def test_product_output_frequency_cap():
    # The sum xi + eta reaches the cap only in the product; construction
    # must still reject it.
    for xi in ((2**61,), (-(2**61),), (0, 2**61), (-(2**61), 1)):
        u = SparseField(len(xi), {xi: 1.0})
        with pytest.raises(FrequencyOutOfRange):
            pointwise_mul(u, u)


@settings(max_examples=40, deadline=None)
@given(
    sparse_fields(max_freq=12, max_modes=8),
    sparse_fields(max_freq=12, max_modes=5),
    st.randoms(use_true_random=False),
)
def test_coefficient_order_is_set_at_construction(u, v, rnd):
    shuffled = list(u.coeffs.items())
    rnd.shuffle(shuffled)
    w = SparseField(1, dict(shuffled))
    assert w.coeffs == u.coeffs
    results = (
        w,
        w.add(v),
        w.add(v.scale(-1.0)),
        w.scale(-0.5j),
        w.conjugate(),
        w.multiplier(lambda xi: xi[0] - 3),
        pointwise_mul(w, v),
    )
    for out in results:
        assert list(out.coeffs) == sorted(out.coeffs)


# -- sparse_to_dense -------------------------------------------------------------


def test_constant_field_renders_constant():
    g = sparse_to_dense(delta_field((0,)), 8)
    assert np.allclose(g.samples, 1.0, atol=1e-15)


def test_cosine_field_matches_cos():
    u = SparseField(1, {(1,): 0.5, (-1,): 0.5})
    g = sparse_to_dense(u, 8)
    expected = np.cos(grid_points(8))
    assert np.max(np.abs(g.samples - expected)) < 1e-14


def test_half_grid_boundary_is_one_sided():
    # -M/2 is representable, +M/2 is not.
    sparse_to_dense(delta_field((-4,), 1j), 8)
    with pytest.raises(FrequencyOutOfRange):
        sparse_to_dense(delta_field((4,), 1j), 8)
    with pytest.raises(FrequencyOutOfRange):
        sparse_to_dense(delta_field((5,), 1j), 8)


@settings(max_examples=60, deadline=None)
@given(sparse_fields(max_freq=30))
def test_dense_rendering_matches_direct_evaluation(u):
    M = 64
    g = sparse_to_dense(u, M)
    oracle = direct_samples(u, M)
    scale = max(1.0, np.max(np.abs(oracle)))
    assert np.max(np.abs(g.samples - oracle)) <= 1e-12 * scale


# -- dense_to_sparse and round trips ------------------------------------------------


def test_dense_field_owns_the_conversion_to_read_only_complex():
    # Any real or complex (M,)*n array is accepted as given; the stored
    # samples are contiguous, read-only complex128 with the same values.
    real = np.linspace(-1.0, 1.0, 16)
    for samples in (real, real[::-1], np.float32(real), real.astype(np.complex64)):
        g = DenseField(1, 16, samples)
        assert g.samples.dtype == np.complex128 and g.samples.flags.c_contiguous
        assert not g.samples.flags.writeable
        assert g.samples.tobytes() == samples.astype(np.complex128).tobytes()
    # A contiguous complex128 array is kept, not copied.
    own = np.zeros((8, 8), dtype=np.complex128)
    assert DenseField(2, 8, own).samples is own
    for M in (0, 1, 3, 6, 100):
        with pytest.raises(ValueError, match="not a power of two >= 2"):
            DenseField(1, M, np.zeros(M))


def test_constant_inverts_to_delta():
    g = DenseField(1, 8, np.ones(8, dtype=complex))
    u = dense_to_sparse(g, tau=1e-13)
    assert u.spectrum() == {(0,)}
    assert abs(u.coeff((0,)) - 1.0) < 1e-15


def test_cosine_inverts_to_two_modes():
    g = DenseField(1, 16, np.cos(grid_points(16)).astype(complex))
    u = dense_to_sparse(g, tau=1e-13)
    assert u.spectrum() == {(1,), (-1,)}
    assert abs(u.coeff((1,)) - 0.5) < 1e-14
    assert abs(u.coeff((-1,)) - 0.5) < 1e-14


@settings(max_examples=60, deadline=None)
@given(sparse_fields(max_freq=30))
def test_round_trip_is_identity_within_tolerance(u):
    M = 64
    back = dense_to_sparse(sparse_to_dense(u, M))
    scale = max(abs(c) for _, c in u.items())
    worst = max(
        abs(back.coeff(xi) - u.coeff(xi))
        for xi in back.spectrum() | u.spectrum()
    )
    assert worst <= 1e-12 * scale


# -- coefficient algebra --------------------------------------------------------------


def test_add_zero_is_identity():
    u = SparseField(1, {(2,): 1 + 2j, (-3,): 0.25})
    assert u.add(zero_field(1)).coeffs == u.coeffs


def test_scale_doubles_coefficient():
    assert SparseField(1, {(1,): 1.0}).scale(2.0).coeffs == {(1,): 2.0 + 0.0j}


def test_add_negation_cancels_exactly():
    u = SparseField(1, {(2,): 1 + 2j, (-3,): 0.25})
    assert len(u.add(u.scale(-1.0))) == 0


def test_add_requires_matching_dimension():
    with pytest.raises(DimensionMismatch):
        SparseField(1, {(1,): 1.0}).add(SparseField(2, {(1, 0): 1.0}))


def test_conjugate_conjugates_the_function():
    u = SparseField(1, {(2,): 1 + 2j, (-1,): 0.5j})
    v = u.conjugate()
    x = (0.7,)
    assert abs(v.evaluate(x) - u.evaluate(x).conjugate()) < 1e-14


# -- pointwise multiplication -----------------------------------------------------------


def test_multiplication_by_one_is_bitwise_identity():
    u = SparseField(1, {(2,): 1 + 2j, (-3,): 0.25})
    assert pointwise_mul(u, delta_field((0,))).coeffs == u.coeffs


def test_character_product_adds_frequencies():
    out = pointwise_mul(delta_field((1,)), delta_field((2,)))
    assert out.coeffs == {(3,): 1.0 + 0.0j}


def test_cosine_squared_trig_identity():
    # Oracle: cos^2 x = 1/2 + cos(2x)/2, i.e. {0: 1/2, +/-2: 1/4}, exactly.
    c = SparseField(1, {(1,): 0.5, (-1,): 0.5})
    out = pointwise_mul(c, c)
    assert out.coeffs == {(0,): 0.5 + 0j, (2,): 0.25 + 0j, (-2,): 0.25 + 0j}


def test_budget_exceeded():
    u = SparseField(1, {(k,): 1.0 for k in range(40)})
    with pytest.raises(BudgetExceeded):
        pointwise_mul(u, u, budget=100)


@settings(max_examples=40, deadline=None)
@given(sparse_fields(max_freq=12, max_modes=5), sparse_fields(max_freq=12, max_modes=5))
def test_multiplication_commutes(u, v):
    uv, vu = pointwise_mul(u, v), pointwise_mul(v, u)
    scale = max(abs(c) for _, c in uv.items()) if len(uv) else 1.0
    worst = max(
        (abs(uv.coeff(x) - vu.coeff(x)) for x in uv.spectrum() | vu.spectrum()),
        default=0.0,
    )
    assert worst <= 1e-12 * max(scale, 1.0)


@settings(max_examples=25, deadline=None)
@given(
    sparse_fields(max_freq=8, max_modes=4),
    sparse_fields(max_freq=8, max_modes=4),
    sparse_fields(max_freq=8, max_modes=4),
)
def test_multiplication_associates(u, v, w):
    left = pointwise_mul(pointwise_mul(u, v), w)
    right = pointwise_mul(u, pointwise_mul(v, w))
    scale = max((abs(c) for _, c in left.items()), default=1.0)
    worst = max(
        (abs(left.coeff(x) - right.coeff(x)) for x in left.spectrum() | right.spectrum()),
        default=0.0,
    )
    assert worst <= 1e-12 * max(scale, 1.0)


# -- inner products -------------------------------------------------------------------


def test_inner_product_of_constants():
    one = delta_field((0,))
    assert inner_product(one, one) == 1.0 + 0.0j


def test_inner_product_orthogonality():
    assert inner_product(delta_field((1,)), delta_field((2,))) == 0.0


def test_parseval_is_exact():
    u = SparseField(1, {(0,): 1 + 1j, (3,): -2.5j, (-7,): 0.125})
    ip = inner_product(u, u)
    oracle = math.fsum((c * c.conjugate()).real for _, c in u.items())
    assert ip.imag == 0.0
    assert ip.real == oracle


def test_grid_parseval_within_tolerance():
    u = SparseField(1, {(0,): 1 + 1j, (3,): -2.5j, (-7,): 0.125})
    from torspec.norms import lp_norm

    grid = lp_norm(sparse_to_dense(u, 64), 2.0) ** 2
    assert abs(grid - inner_product(u, u).real) <= 1e-10 * grid


# -- determinism ------------------------------------------------------------------------


def test_construction_order_does_not_matter():
    items = [((3,), 1.0 + 1j), ((-1,), 2.0), ((5,), -1j)]
    a = SparseField(1, dict(items))
    b = SparseField(1, dict(reversed(items)))
    assert a.items() == b.items()


def test_repeated_multiplication_is_bitwise_stable():
    u = SparseField(1, {(k,): complex(k, -k) / 7.0 for k in range(-5, 6)})
    first = pointwise_mul(u, u)
    second = pointwise_mul(u, u)
    assert first.coeffs == second.coeffs


def test_dense_round_trip_reproduces_samples():
    rng = np.random.default_rng(7)
    samples = rng.normal(size=32) + 1j * rng.normal(size=32)
    g = DenseField(1, 32, samples)
    back = sparse_to_dense(dense_to_sparse(g), 32)
    scale = float(np.max(np.abs(samples)))
    assert float(np.max(np.abs(back.samples - g.samples))) <= 1e-12 * scale


def test_sparse_to_dense_2d_matches_direct_evaluation():
    u = SparseField(2, {(1, 0): 0.5, (0, -2): 1j, (3, 3): -0.25})
    M = 16
    g = sparse_to_dense(u, M)
    xs = grid_points(M)
    for i in (0, 3, 7):
        for j in (1, 5, 11):
            direct = u.evaluate((xs[i], xs[j]))
            assert abs(g.samples[i, j] - direct) <= 1e-13
