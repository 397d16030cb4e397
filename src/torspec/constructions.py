"""Named lacunary constructions shared by the experiments and tests, and the
seeded draws behind their random inputs: integer_draw, span_draws and
normal_sampler run numpy's own samplers on the bit generator, bitwise
rng.integers and rng.standard_normal without numpy's per-call wrapper."""

from __future__ import annotations

import ctypes
import functools
import math
from typing import Callable, Iterator

import numpy as np

from .errors import BandwidthViolation, DimensionMismatch, RangeTooLarge
from .fields import (
    Frequency,
    SparseField,
    _derived_field,
    check_dimension,
    delta_field,
    freq_abs,
    freq_scale,
    shifted,
)
from .symbols import MAX_DYADIC, pow2


def bandwidth(u: SparseField) -> float:
    """Largest Euclidean frequency radius in the spectrum (0 if empty)."""
    return max((freq_abs(xi) for xi in u.spectrum()), default=0.0)


def ball_carrier(n: int, B: int) -> SparseField:
    """Constant-coefficient carrier with spectrum {|xi| <= B}, unit H^0 norm."""
    pts: list[Frequency] = []
    rng = range(-B, B + 1)
    if n == 1:
        pts = [(k,) for k in rng if k * k <= B * B]
    else:
        pts = [(k, l) for k in rng for l in rng if k * k + l * l <= B * B]
    c = 1.0 / math.sqrt(len(pts))
    return SparseField(n, {xi: c for xi in pts})


def ball_size(n: int, B: int, stop: int) -> int:
    """The mode count of ball_carrier(n, B), without building it: 2B + 1 in
    1-d; in 2-d a sum of row lengths that ends at the first row past stop."""
    if n == 1:
        return 2 * B + 1
    size = 0
    for k in range(-B, B + 1):
        size += 2 * math.isqrt(B * B - k * k) + 1
        if size > stop:
            break
    return size


def _dyadic_sum(
    theta: Frequency, j_lo: int, j_hi: int, weight: Callable[[int], float], v: SparseField
) -> SparseField:
    """sum_{j=j_lo..j_hi} weight(j) v shifted to 2^j theta.  Raises RangeTooLarge past
    the dyadic cap, DimensionMismatch for a theta not of v's dimension and
    BandwidthViolation for a carrier wider than 2^{j_lo}/20, the bound that
    keeps the chunks apart with the same margin at every scale."""
    if j_hi > MAX_DYADIC:
        raise RangeTooLarge(f"top dyadic index {j_hi} > {MAX_DYADIC}")
    if len(theta) != v.n:
        raise DimensionMismatch(f"direction {theta} is not {v.n}-dimensional like the carrier")
    B = bandwidth(v)
    if B > 2.0**j_lo / 20.0:
        raise BandwidthViolation(
            f"carrier bandwidth {B} exceeds 2^{j_lo}/20 = {2.0 ** j_lo / 20.0}"
        )
    etas = list(v.coeffs)
    out: dict[Frequency, complex] = {}
    for j in range(j_lo, j_hi + 1):
        w = weight(j)
        for zeta, c in zip(shifted(freq_scale(2**j, theta), etas), v.coeffs.values()):
            # A mode of one chunk is w * c itself (0.0 + w * c would lose a -0.0 part).
            out[zeta] = out[zeta] + w * c if zeta in out else w * c
    return SparseField(v.n, out)


def lacunary_field(
    theta: Frequency, d: float, j_lo: int, j_hi: int, v: SparseField
) -> SparseField:
    """w(theta, d): w^(eta) = sum_j 2^(-jd) v^(eta - 2^j theta), under _dyadic_sum's guards."""
    return _dyadic_sum(theta, j_lo, j_hi, lambda j: pow2(-j * d), v)


def weierstrass_field(d: float, J: int) -> SparseField:
    """Truncated lacunary exponential sum f_J(t) = sum_{j=1..J} 2^(-jd) e^{i 2^j t}."""
    return lacunary_field((1,), d, 1, J, delta_field((0,)))


def harmonic_ratio(N: int) -> float:
    """r_N = (1/N + 1/(N+1) + ... + 1/N^2) / log N."""
    return math.fsum(1.0 / j for j in range(N, N * N + 1)) / math.log(N)


def harmonic_ratio_bracket(N: int) -> tuple[float, float]:
    """The two-sided bracket [1, log(N^2/(N-1)) / log N] containing r_N."""
    return 1.0, math.log(N * N / (N - 1.0)) / math.log(N)


def vanishing_family(
    N: int,
    d: float,
    theta: Frequency,
    v: SparseField | None = None,
    allow_truncation: bool = False,
) -> tuple[SparseField, SparseField, int]:
    """Member N of the vanishing family, with its carrier and top index.

    Coefficients: out^(xi) = (1/log N) sum_{j=N..N^2} (2^(-jd)/j) v^(xi - 2^j theta), with
    default carrier the ball of radius B = max(1, floor(2^N / 20)), under the
    guards of _dyadic_sum.  Needs N >= 5 (ValueError otherwise) so the
    scaled bandwidth admits at least the frequencies {-1, 0, 1}.  When N^2
    exceeds the dyadic cap the construction raises RangeTooLarge, unless
    allow_truncation is set, in which case the sum stops at the cap (used
    only for norm-ratio probes, where the exact limit identity is not
    asserted).
    """
    if N < 5:
        raise ValueError(f"vanishing family needs N >= 5 for a usable scaled bandwidth, got N={N}")
    j_hi = N * N
    if j_hi > MAX_DYADIC:
        if not allow_truncation:
            raise RangeTooLarge(f"N^2 = {N * N} > {MAX_DYADIC}")
        j_hi = MAX_DYADIC
    if v is None:
        v = ball_carrier(len(theta), max(1, (2**N) // 20))
    return _dyadic_sum(theta, N, j_hi, lambda j: pow2(-j * d) / (j * math.log(N)), v), v, j_hi


def integer_draw(rng: np.random.Generator) -> Callable[[int, int], int]:
    """draw(lo, hi), bitwise int(rng.integers(lo, hi)) at under half its cost.

    A span hi - lo in (1, 2^32] runs numpy's own 32-bit Lemire rejection
    (buffered_bounded_lemire_uint32) over the bit generator's next_uint32,
    so the values and the generator state, its buffered half-word included,
    are exactly those rng.integers leaves (at 2^32 the threshold is 0, so one
    plain next_uint32, as numpy draws there).  Any other span is rng.integers
    itself: a span of 1 draws nothing and an empty range raises numpy's
    ValueError.  Bounds are read as Python ints, so numpy integers cannot
    overflow the 64-bit product.  Unlike rng.integers, draw takes no lock:
    one thread at a time may draw from rng.
    """
    ct = rng.bit_generator.ctypes
    next_uint32, state = ct.next_uint32, ct.state
    integers = rng.integers  # also keeps the generator that state points into alive

    def draw(lo: int, hi: int) -> int:
        lo = int(lo)
        span = int(hi) - lo
        if 1 < span <= 1 << 32:
            m = next_uint32(state) * span
            if m & 0xFFFFFFFF < span:
                threshold = ((1 << 32) - span) % span
                while m & 0xFFFFFFFF < threshold:
                    m = next_uint32(state) * span
            return lo + (m >> 32)
        return int(integers(lo, hi))

    return draw


def span_draws(rng: np.random.Generator, lo: int, hi: int) -> Iterator[int]:
    """Endless draws, each bitwise integer_draw(rng)(lo, hi), with the bounds fixed once.

    For a span hi - lo in (1, 2^32] the span, numpy's Lemire threshold
    (2^32 - span) % span and the bit generator's next_uint32 are bound
    before the first draw, and a draw redraws while the low word of
    next_uint32 * span is below that threshold.  The threshold is below the
    span, so this is the rejection integer_draw runs after comparing with
    the span, with the same values and generator state.  Any other span
    draws through integer_draw itself.  Nothing is read or drawn before the
    first next(); the iterator holds rng, whose state next_uint32 advances,
    and one thread at a time may draw from rng.
    """
    lo = int(lo)
    span = int(hi) - lo
    if not 1 < span <= 1 << 32:
        draw = integer_draw(rng)
        while True:
            yield draw(lo, hi)
    ct = rng.bit_generator.ctypes
    next_uint32, state = ct.next_uint32, ct.state
    threshold = ((1 << 32) - span) % span
    while True:
        m = next_uint32(state) * span
        while m & 0xFFFFFFFF < threshold:
            m = next_uint32(state) * span
        yield lo + (m >> 32)


@functools.cache
def _standard_normal():
    """numpy's own C sampler random_standard_normal(bitgen_t *), the ziggurat
    behind Generator.standard_normal and Generator.normal, opened from
    numpy.random._generator as numpy's cffi example opens it.  PyDLL keeps
    the GIL held during the call.  Looked up on the first draw, not at import.
    """
    sample = ctypes.PyDLL(np.random._generator.__file__).random_standard_normal
    sample.argtypes = [ctypes.c_void_p]
    sample.restype = ctypes.c_double
    return sample


def normal_sampler(
    rng: np.random.Generator,
) -> tuple[Callable[[ctypes.c_void_p], float], ctypes.c_void_p]:
    """(sample, bg): sample(bg) is bitwise rng.standard_normal() at under half its cost.

    sample is numpy's own C sampler and bg rng's bitgen_t, so the values and
    the generator state are exactly those rng.standard_normal() leaves, and
    0.0 + sample(bg) is bitwise rng.normal() (loc + scale * z at loc 0 and
    scale 1).  bg points into rng's bit generator: the caller keeps rng alive
    while it draws.  Unlike rng.standard_normal, sample takes no lock: one
    thread at a time may draw from rng.
    """
    return _standard_normal(), rng.bit_generator.ctypes.bit_generator


def random_band_limited(
    n: int,
    n_modes: int,
    window: int,
    rng: np.random.Generator,
    hermitian: bool = False,
) -> SparseField:
    """Seeded random trigonometric polynomial with i.i.d. Gaussian coefficients.

    Frequencies are drawn uniformly from the cube [-window, window]^n, one
    span_draws draw per component, the span fixed once per field (the same
    stream and state as one rng.integers draw of size n); each coefficient
    part is 0.0 + sample(bg) of normal_sampler, which is exactly numpy's
    normal() at loc 0 and scale 1 (loc + scale * z, so -0.0 becomes +0.0),
    drawn by numpy's own C sampler without a Python frame per draw.  With
    hermitian=True the spectrum is symmetrised so the field is real-valued.
    n must be 1 or 2 (DimensionMismatch otherwise).  The keys are plain
    ints drawn in the window, so the field is a derived build.
    """
    check_dimension(n)
    draw = span_draws(rng, -window, window + 1).__next__
    sample, bg = normal_sampler(rng)
    coeffs: dict[Frequency, complex] = {}
    for _ in range(n_modes):
        xi = (draw(),) if n == 1 else (draw(), draw())  # drawn before its coefficient
        coeffs[xi] = complex(0.0 + sample(bg), 0.0 + sample(bg))
    if hermitian:
        sym: dict[Frequency, complex] = {}
        for xi in sorted(coeffs):
            neg = tuple(-c for c in xi)
            if neg in sym or xi in sym:
                continue
            if xi == neg:
                sym[xi] = complex(coeffs[xi].real, 0.0)
            else:
                sym[xi] = coeffs[xi]
                sym[neg] = coeffs[xi].conjugate()
        coeffs = sym
    return _derived_field(n, coeffs)
