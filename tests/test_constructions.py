"""Lacunary constructions: spectra, norms, brackets, range guards."""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from torspec.constructions import (
    ball_carrier,
    bandwidth,
    harmonic_ratio,
    harmonic_ratio_bracket,
    integer_draw,
    lacunary_field,
    normal_sampler,
    random_band_limited,
    vanishing_family,
    weierstrass_field,
)
from torspec.errors import BandwidthViolation, DimensionMismatch, RangeTooLarge
from torspec.experiments import random_symbol
from torspec.fields import SparseField, delta_field, sparse_to_dense
from torspec.norms import sobolev_norm


def test_lacunary_spectrum_matches_direct_construction():
    # Oracle: the spectrum is exactly {2^j theta + xi : xi in supp v^}.
    v = SparseField(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.25})
    w = lacunary_field((1,), 0.5, 5, 12, v)
    oracle = {
        (2**j + xi[0],) for j in range(5, 13) for xi in v.spectrum()
    }
    assert w.spectrum() == oracle
    for j in range(5, 13):
        for xi, c in v.items():
            assert w.coeff((2**j + xi[0],)) == 2.0 ** (-j * 0.5) * c


def test_lacunary_coefficients_are_exact_dyadics():
    w = lacunary_field((1,), 1.0, 3, 10, delta_field((0,)))
    for j in range(3, 11):
        assert w.coeff((2**j,)) == 2.0**-j


def test_bandwidth_guard():
    wide = SparseField(1, {(0,): 1.0, (3,): 1.0})
    with pytest.raises(BandwidthViolation):
        lacunary_field((1,), 0.0, 5, 10, wide)  # 3 > 32/20
    lacunary_field((1,), 0.0, 6, 10, wide)  # 3 <= 64/20


def test_vanishing_family_bandwidth_guard():
    # Chunks of a carrier wider than 2^N/20 would overlap; at N = 5 this
    # 81-mode carrier has bandwidth 40 > 1.6.
    with pytest.raises(BandwidthViolation):
        vanishing_family(5, 0.0, (1,), v=ball_carrier(1, 40))


def test_direction_must_match_carrier_dimension():
    with pytest.raises(DimensionMismatch):
        lacunary_field((1, 0), 0.0, 5, 10, delta_field((0,)))
    with pytest.raises(DimensionMismatch):
        vanishing_family(5, 0.0, (1,), v=delta_field((0, 0)))


def test_lacunary_range_cap():
    with pytest.raises(RangeTooLarge):
        lacunary_field((1,), 0.0, 5, 61, delta_field((0,)))


def test_weierstrass_spectrum():
    f = weierstrass_field(0.5, 10)
    assert f.spectrum() == {(2**j,) for j in range(1, 11)}
    assert f.coeff((4,)) == 2.0**-1.0


def test_harmonic_ratio_against_exact_rational_oracle():
    for N in (5, 6, 7):
        oracle = float(sum(Fraction(1, j) for j in range(N, N * N + 1))) / math.log(N)
        assert abs(harmonic_ratio(N) - oracle) <= 1e-15 * oracle


def test_harmonic_ratio_sits_in_bracket():
    for N in (5, 6, 7, 9, 12):
        if N * N <= 60:
            lo, hi = harmonic_ratio_bracket(N)
            assert lo <= harmonic_ratio(N) <= hi


def test_vanishing_family_structure():
    N = 5
    vN, v, j_hi = vanishing_family(N, 0.0, (1,))
    assert j_hi == 25
    B = max(1, 2**N // 20)
    assert bandwidth(v) <= B
    # Chunk j carries v^ scaled by 1/(j log N).
    logN = math.log(N)
    for xi, c in v.items():
        assert vN.coeff((xi[0] + 2**N,)) == c / (N * logN)


def test_vn_rejects_small_n_and_large_range():
    with pytest.raises(ValueError, match="N=4"):
        vanishing_family(4, 0.0, (1,))
    with pytest.raises(RangeTooLarge):
        vanishing_family(8, 0.0, (1,))


def test_vn_truncation_for_probes():
    vN, _, j_hi = vanishing_family(8, 0.0, (1,), allow_truncation=True)
    assert j_hi == 60
    assert max(xi[0] for xi in vN.spectrum()) >= 2**60


def test_family_norm_strictly_decreasing():
    norms = [sobolev_norm(vanishing_family(N, 0.0, (1,))[0], 0.0) for N in (5, 6, 7)]
    assert norms[0] > norms[1] > norms[2]


def test_ball_carrier_unit_norm():
    for n, B in ((1, 3), (2, 2)):
        v = ball_carrier(n, B)
        assert abs(sobolev_norm(v, 0.0) - 1.0) <= 1e-14


def test_hermitian_randoms_are_real(rng):
    u = random_band_limited(1, 12, 20, rng, hermitian=True)
    g = sparse_to_dense(u, 128)
    assert float(np.max(np.abs(g.samples.imag))) <= 1e-12 * max(
        1.0, float(np.max(np.abs(g.samples)))
    )


def test_random_fields_are_seed_deterministic():
    a = random_band_limited(1, 10, 50, np.random.default_rng(99))
    b = random_band_limited(1, 10, 50, np.random.default_rng(99))
    assert a.coeffs == b.coeffs


DRAW_STREAM_SHA256 = "dc4c1dfca124e320945db8a64ca31fc76bd0da52f9989933fbea709b1df5cdc8"


def _draw_stream_digest() -> str:
    """SHA-256 over seeded random fields and symbols, and the next raw draw.

    Every frequency, coefficient (as float.hex), term kind, x-part and
    radius enters the hash, followed by one more draw from the generator,
    which pins how many values each construction consumed.
    """
    h = hashlib.sha256()

    def feed(u, rng):
        for xi, c in u.items():
            h.update(f"{xi}:{c.real.hex()}:{c.imag.hex()};".encode())
        h.update(f"|{int(rng.integers(0, 2**62))}|".encode())

    for seed in range(4):
        for n in (1, 2):
            for hermitian in (False, True):
                rng = np.random.default_rng(seed)
                feed(random_band_limited(n, 30, 50, rng, hermitian=hermitian), rng)
    for seed in range(12):
        for n in (1, 2):
            rng = np.random.default_rng(seed)
            for term in random_symbol(n, rng).terms:
                h.update(json.dumps(term.mult.to_json(), sort_keys=True).encode())
                feed(term.xpart, rng)
    return h.hexdigest()


def test_random_draw_stream_is_pinned():
    # Computed with the sized rng.integers(..., size=n) and rng.choice draws;
    # the scalar draws must reproduce it, and a numpy release that changes the
    # stream must fail here rather than shift every seeded experiment.
    assert _draw_stream_digest() == DRAW_STREAM_SHA256


def test_zero_plus_standard_normal_is_numpy_normal():
    # random_band_limited draws 0.0 + standard_normal() for normal(): numpy
    # computes loc + scale * z, which at loc 0 and scale 1 is that sum.
    for seed in range(10):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        draw, normal = ours.standard_normal, theirs.normal
        got = [(0.0 + draw()).hex() for _ in range(10**5)]
        assert got == [normal().hex() for _ in range(10**5)], seed


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64,
                  np.random.PCG64DXSM)
# 1 draws nothing, 3 * 2^30 + 1 rejects about a quarter of its words, 2^32 is
# numpy's plain next_uint32 and 2^32 + 5 goes to rng.integers itself.
SPANS = (1, 2, 17, 401, 3 * 2**30 + 1, 2**32, 2**32 + 5)


def _plain(state):
    """A bit_generator.state with every array as a list, so == compares it."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _pcg64_about_to_give(word: int) -> np.random.Generator:
    """A PCG64 generator whose next next_uint32 is word: the output of state
    word (high half 0, so no rotation), stepped back once."""
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": word, "inc": 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator.advance(-1)
    return np.random.Generator(bit_generator)


def test_integer_draw_rejects_exactly_below_the_threshold():
    # A random word lands on the threshold once in 2^32 draws, so these
    # words are built: the low product word is threshold - 1 (rejected),
    # threshold (kept) and threshold + 1 (kept).
    for span in (3, 17, 401, 3 * 2**30 + 1):
        threshold = (2**32 - span) % span
        for low in (threshold - 1, threshold, threshold + 1):
            if low < 0:
                continue
            word = low * pow(span, -1, 2**32) % 2**32
            ours, theirs = _pcg64_about_to_give(word), _pcg64_about_to_give(word)
            assert integer_draw(ours)(0, span) == int(theirs.integers(0, span)), (span, low)
            assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)


def test_integer_draw_is_numpy_integers_bitwise():
    # Values and the whole state, has_uint32 and uinteger included, which
    # the pinned stream hash cannot see, with standard_normal draws between.
    for bit_generator in BIT_GENERATORS:
        for seed in range(3):
            ours = np.random.Generator(bit_generator(seed))
            theirs = np.random.Generator(bit_generator(seed))
            draw = integer_draw(ours)
            for i in range(3000):
                lo = (i * 7919) % 1001 - 500
                hi = lo + SPANS[i % len(SPANS)]
                got = draw(lo, hi)
                assert type(got) is int
                assert got == int(theirs.integers(lo, hi)), (bit_generator, seed, i)
                if i % 3 == 0:
                    assert ours.standard_normal() == theirs.standard_normal()
                if i % 250 == 0:
                    assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)
            assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)


def _counting(rng: np.random.Generator) -> tuple[SimpleNamespace, list]:
    """rng's integers and bit generator, with every next_uint32 call counted."""
    ct = rng.bit_generator.ctypes
    calls = []

    def next_uint32(state):
        calls.append(1)
        return ct.next_uint32(state)

    counted = ct._replace(next_uint32=next_uint32)
    return SimpleNamespace(bit_generator=SimpleNamespace(ctypes=counted), integers=rng.integers), calls


def test_integer_draw_rejection_branch_runs():
    # At 3 * 2^30 + 1 a quarter of the words fall below the threshold
    # 2^30 - 1, so 4,000 draws take about 5,333 words.
    span = 3 * 2**30 + 1
    rng, calls = _counting(np.random.default_rng(5))
    theirs = np.random.default_rng(5)
    draw = integer_draw(rng)
    for _ in range(4000):
        assert draw(0, span) == int(theirs.integers(0, span))
    assert 5000 < len(calls) < 5700
    # A span of 2^32 never rejects and one of 1 draws nothing.
    rng, calls = _counting(np.random.default_rng(5))
    draw = integer_draw(rng)
    for _ in range(100):
        draw(0, 2**32)
        draw(7, 8)
    assert len(calls) == 100


def test_integer_draw_bounds():
    # numpy integer bounds are read as Python ints: an int64 product of a
    # word and a span of 2^32 would overflow.
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    draw = integer_draw(ours)
    for lo, hi in [(-5, 7), (-(2**31), 2**31), (2**62, 2**62 + 3 * 2**30 + 1), (-(2**63), 2**31)]:
        lo64, hi64 = np.int64(lo), np.int64(hi)
        for _ in range(50):
            got = draw(lo64, hi64)
            assert type(got) is int
            assert got == int(theirs.integers(lo64, hi64))
    assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)
    # An empty range raises numpy's own ValueError.
    for lo, hi in [(5, 5), (5, 3), (0, -(2**40))]:
        with pytest.raises(ValueError) as ours_error:
            draw(lo, hi)
        with pytest.raises(ValueError) as numpy_error:
            theirs.integers(lo, hi)
        assert str(ours_error.value) == str(numpy_error.value)


def test_normal_sampler_is_numpy_standard_normal_bitwise():
    # Values as float.hex and the whole state, interleaved with the other
    # draws a seeded input makes: integer_draw, sized normal and uniform.
    for bit_generator in BIT_GENERATORS:
        ours = np.random.Generator(bit_generator(0))
        theirs = np.random.Generator(bit_generator(0))
        sample, bg = normal_sampler(ours)
        draw = integer_draw(ours)
        for i in range(4000):
            assert sample(bg).hex() == theirs.standard_normal().hex(), (bit_generator, i)
            if i % 3 == 0:
                assert draw(-200, 201) == int(theirs.integers(-200, 201))
            if i % 5 == 1:
                assert ours.normal(size=2).tolist() == theirs.normal(size=2).tolist()
            if i % 7 == 2:
                assert ours.uniform(1.0, 9.0).hex() == theirs.uniform(1.0, 9.0).hex()
            if i % 11 == 3:
                assert (0.0 + sample(bg)).hex() == theirs.normal().hex()
            if i % 500 == 0:
                assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)
        assert _plain(ours.bit_generator.state) == _plain(theirs.bit_generator.state)


def test_normal_sampler_is_resolved_on_first_use():
    # Importing torspec opens no library, so workloads that never draw a
    # normal pay nothing at set-up; the first seeded field opens it once.
    script = """
import ctypes
opened = []
real = ctypes.PyDLL
ctypes.PyDLL = lambda *args, **kwargs: opened.append(args) or real(*args, **kwargs)
import numpy as np
import torspec, torspec.cli
from torspec import constructions
assert opened == [] and constructions._standard_normal.cache_info().currsize == 0
torspec.random_band_limited(1, 3, 5, np.random.default_rng(0))
torspec.random_band_limited(2, 3, 5, np.random.default_rng(1))
assert len(opened) == 1 and constructions._standard_normal.cache_info().currsize == 1
"""
    # conftest puts src/ on PYTHONPATH for subprocesses.
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
