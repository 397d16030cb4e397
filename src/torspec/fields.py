"""Exact sparse and grid-based dense fields on the torus (R/2piZ)^n, n in {1, 2}.

A sparse field stores the finite Fourier series

    u(x) = sum_xi  c(xi) * exp(i <x, xi>),        xi in Z^n,

with the series convention  c(xi) = (2pi)^{-n} integral u(x) exp(-i<x,xi>) dx.
Coefficients are sorted by frequency once, at construction, and never
mutated, so every reduction walks them in one fixed order and is bitwise
reproducible.  Construction validates every kept frequency: a tuple of n
plain ints inside the 2^62 cap, which is what every operation here builds,
is stored as given; any other key goes through check_frequency: numpy
integers become ints, and bools, floats, a wrong length and a component at
or past the cap are rejected.  A field whose keys a producer here made
itself (lattice sums of stored keys, a field's own keys, draws in a window)
is built by _derived_field, which skips the per-key type and length checks
that its producer guarantees and checks the cap and finiteness once per
field, handing anything that fails to the constructor.
A prune threshold applies only to the field built with it: every operation
here builds its result with the default, which drops exact zeros only.
Every sparse product here and in operator sums into xi + eta in lattice_sum.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, FrequencyOutOfRange, RangeTooLarge

Frequency = tuple[int, ...]

# Components must leave headroom for dyadic shifts in 64-bit arithmetic.
FREQ_CAP = 1 << 62

# Pair budget of the exact sparse products (apply, pointwise_mul).
DEFAULT_PAIR_BUDGET = 10_000_000

# A scale 2.0**k is a double up to k = 1023 and overflows from 1024.
MAX_MODULATION_INDEX = 1023


def check_frequency(xi: Frequency, n: int) -> Frequency:
    """Validate one lattice frequency: an n-tuple of ints (not bools) below the 2^62 cap."""
    if len(xi) != n:
        raise DimensionMismatch(f"frequency {xi} is not {n}-dimensional")
    for c in xi:
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise FrequencyOutOfRange(f"non-integer frequency component {c!r}")
        if abs(int(c)) >= FREQ_CAP:
            raise FrequencyOutOfRange(f"|{c}| >= 2^62")
    return tuple(int(c) for c in xi)


def check_dimension(n: int) -> None:
    """Raise DimensionMismatch unless n is 1 or 2, the dimensions of every field here."""
    if n not in (1, 2):
        raise DimensionMismatch(f"dimension {n} not in {{1, 2}}")


def check_scale_index(k: int, name: str, lead: str = "") -> None:
    """Raise ValueError for k < 0 and RangeTooLarge for k > 1023, so the scale 2^k is a
    double >= 1; each message names the index, and a lead replaces "<name> = <k>"."""
    if k < 0:
        raise ValueError(f"{name} must be >= 0, got {k}")
    if k > MAX_MODULATION_INDEX:
        lead = lead or f"{name} = {k}"
        raise RangeTooLarge(f"{lead} passes {name} = {MAX_MODULATION_INDEX}: 2^{k} is no double")


def freq_add(a: Frequency, b: Frequency) -> Frequency:
    return tuple(map(operator.add, a, b))


def shifted(xi: Frequency, etas: list[Frequency]) -> list[Frequency]:
    """The lattice sums xi + eta for each eta of etas, in order.

    The same tuples as freq_add(xi, eta), built by one comprehension per
    dimension instead of one call per pair (lattice_sum, _dyadic_sum).
    Every eta must have the length of xi, which must be 1 or 2; any other
    length of xi raises DimensionMismatch.
    """
    if len(xi) == 1:
        x = xi[0]
        return [(x + e[0],) for e in etas]
    if len(xi) == 2:
        x, y = xi
        return [(x + e[0], y + e[1]) for e in etas]
    raise DimensionMismatch(f"frequency {xi} is not 1- or 2-dimensional")


def freq_neg(a: Frequency) -> Frequency:
    return tuple(-x for x in a)


def freq_scale(k: int, a: Frequency) -> Frequency:
    return tuple(k * x for x in a)


def _square_sum(a: Frequency) -> float:
    """|xi|^2 in floats: x*x for n = 1, x*x + y*y for n = 2.

    This is bitwise math.fsum of the float squares: fsum of one float is
    that float, and fsum of two is their correctly rounded sum, which one
    IEEE addition already gives.  Components are below 2^62, so no square
    overflows.
    """
    if len(a) == 1:
        x = float(a[0])
        return x * x
    if len(a) == 2:
        x = float(a[0])
        y = float(a[1])
        return x * x + y * y
    raise DimensionMismatch(f"frequency {a} is not 1- or 2-dimensional")


def freq_abs(a: Frequency) -> float:
    """Euclidean length, computed in floats (components may exceed 2^31)."""
    return math.sqrt(_square_sum(a))


def freq_radii(n: int, keys) -> list[float]:
    """[freq_abs(xi) for xi in keys], in order, for n-dimensional keys.

    The same floats as freq_abs, by the float operations of _square_sum,
    built by one comprehension per dimension instead of one call per key
    (_rank, the modulation steps, pi_product, modulate, ball_diff,
    telescope_check).  n must be 1 or 2 (DimensionMismatch otherwise).
    """
    check_dimension(n)
    if n == 1:
        return [math.sqrt(x * x) for (k,) in keys for x in (float(k),)]
    return [math.sqrt(x * x + y * y) for k, l in keys for x, y in ((float(k), float(l)),)]


def angled(a: Frequency) -> float:
    """The weight (1 + |xi|^2)^(1/2); |xi|^2 is rounded before the 1 is added."""
    return math.sqrt(1.0 + _square_sum(a))


@dataclass(frozen=True)
class SparseField:
    """Finite frequency -> coefficient mapping; an exact trigonometric polynomial.

    Coefficients of magnitude <= tau are dropped at construction; tau = 0 keeps
    everything but exact zeros; a NaN or infinite coefficient, and a negative
    or NaN tau, raise ValueError.  No operation reads tau: a field derived
    from this one keeps its small coefficients unless it is built with a
    threshold of its own.  A kept key that is a plain-int n-tuple inside the
    cap skips re-validation; every other key is checked and normalised by
    check_frequency, so the stored keys are always plain-int tuples.  The
    fields whose keys the package made itself (lattice sums, modulations,
    seeded draws) bypass this per-key pass through _derived_field, whose
    keys are plain-int tuples by construction: its once-per-field check of
    the sorted ends and the second components keeps the cap guard on sums
    such as apply's xi + eta, and a field that fails it is built here.
    Instances are treated as immutable: operations return new fields.
    """

    n: int
    coeffs: dict[Frequency, complex]
    tau: float = 0.0

    def __post_init__(self):
        check_dimension(self.n)
        if not self.tau >= 0:  # a NaN tau would drop every coefficient
            raise ValueError(f"prune threshold must be >= 0, got {self.tau!r}")
        n = self.n
        clean: dict[Frequency, complex] = {}
        for xi in sorted(self.coeffs):
            c = complex(self.coeffs[xi])
            mag = abs(c)  # inf if a part is infinite, else nan if a part is nan
            if mag > self.tau:
                if mag == math.inf:
                    raise ValueError(f"non-finite coefficient {c!r} at {xi}")
                if type(xi) is tuple and len(xi) == n:
                    for k in xi:  # a loop, not all(...): ~2x cheaper per key
                        if type(k) is not int or not -FREQ_CAP < k < FREQ_CAP:
                            break
                    else:  # already a valid plain-int frequency
                        clean[xi] = c
                        continue
                clean[check_frequency(xi, n)] = c
            elif mag != mag:
                raise ValueError(f"non-finite coefficient {c!r} at {xi}")
        object.__setattr__(self, "coeffs", clean)

    # -- basic queries ------------------------------------------------------

    def items(self):
        """Coefficients in lexicographic frequency order."""
        return list(self.coeffs.items())

    def spectrum(self) -> set[Frequency]:
        """Frequencies with coefficient magnitude above the prune threshold."""
        return set(self.coeffs)

    def coeff(self, xi: Frequency) -> complex:
        return self.coeffs.get(tuple(xi), 0.0 + 0.0j)

    def max_abs_freq(self) -> int:
        """Largest component magnitude over the spectrum (0 for the empty field)."""
        if not self.coeffs:
            return 0
        return max(abs(c) for xi in self.coeffs for c in xi)

    def __len__(self) -> int:
        return len(self.coeffs)

    # -- exact coefficient algebra -------------------------------------------

    def add(self, other: "SparseField") -> "SparseField":
        if self.n != other.n:
            raise DimensionMismatch("cannot add fields of different dimension")
        out = dict(self.coeffs)
        for xi, c in other.coeffs.items():
            out[xi] = out.get(xi, 0.0) + c
        return SparseField(self.n, out)

    def scale(self, a: complex) -> "SparseField":
        return SparseField(self.n, {xi: a * c for xi, c in self.coeffs.items()})

    def conjugate(self) -> "SparseField":
        """The field conj(u); coefficient at xi becomes conj(c(-xi))."""
        return SparseField(self.n, {freq_neg(xi): c.conjugate() for xi, c in self.coeffs.items()})

    def multiplier(self, m) -> "SparseField":
        """Scale each coefficient by m(xi); m maps a frequency to a scalar."""
        return SparseField(self.n, {xi: m(xi) * c for xi, c in self.coeffs.items()})

    def evaluate(self, x) -> complex:
        """Direct series evaluation at a point x (tuple of floats)."""
        acc_re, acc_im = [], []
        for xi, c in self.items():
            z = c * cmath.exp(1j * math.fsum(p * float(q) for p, q in zip(x, xi)))
            acc_re.append(z.real)
            acc_im.append(z.imag)
        return complex(math.fsum(acc_re), math.fsum(acc_im))


def _derived_field(n: int, coeffs: dict[Frequency, complex]) -> SparseField:
    """SparseField(n, coeffs) for complex coefficients a producer here keyed by
    plain-int n-tuples itself: lattice sums of stored keys (apply,
    apply_with_support, _convolve, the modulation step), a field's own keys
    (modulate, ball_diff) and draws in a window (random_band_limited).

    The keys are sorted and exact zeros dropped, as the constructor does.
    The key types are the producer's, so only the 2^62 cap and finiteness
    are checked, once per field: the sorted ends of the first components,
    the min and max of the second ones (over every key, kept or not) and
    one sum of the kept magnitudes.  If a check fails, SparseField(n,
    coeffs) builds the field, so every error and its message is the
    constructor's.
    """
    keys = sorted(coeffs)
    kept = {xi: c for xi in keys if (c := coeffs[xi])}
    if keys and not (
        -FREQ_CAP < keys[0][0]
        and keys[-1][0] < FREQ_CAP
        and sum(map(abs, kept.values())) < math.inf
    ):
        return SparseField(n, coeffs)
    if n == 2 and keys:  # two passes, not a list: a big sum's peak memory stays put
        y = operator.itemgetter(1)
        if not (-FREQ_CAP < min(map(y, keys)) and max(map(y, keys)) < FREQ_CAP):
            return SparseField(n, coeffs)
    u = object.__new__(SparseField)
    u.__dict__.update(n=n, coeffs=kept, tau=0.0)  # frozen: set as __post_init__ would leave it
    return u


def zero_field(n: int) -> SparseField:
    return SparseField(n, {})


def delta_field(xi: Frequency, c: complex = 1.0) -> SparseField:
    """Single-mode field c * exp(i<x, xi>)."""
    return SparseField(len(xi), {tuple(xi): c})


def pointwise_mul(
    u: SparseField, v: SparseField, budget: int = DEFAULT_PAIR_BUDGET
) -> SparseField:
    """Exact product of trigonometric polynomials by coefficient convolution.

    (uv)^(zeta) = sum_{xi + eta = zeta} u^(xi) v^(eta).  Raises BudgetExceeded
    when |u| * |v| passes the pair budget; callers should switch to a grid.
    It is _convolve on the two coefficient dicts, as pi_product's steps are.
    """
    return _convolve(u.n, u.coeffs, v.n, v.coeffs, budget)


def _convolve(n: int, a: dict, nb: int, b: dict, budget: int = DEFAULT_PAIR_BUDGET) -> SparseField:
    """pointwise_mul of n- and nb-dimensional coefficient dicts a and b, by lattice_sum."""
    if n != nb:
        raise DimensionMismatch("cannot multiply fields of different dimension")
    if len(a) * len(b) > budget:
        raise BudgetExceeded(f"{len(a)} * {len(b)} coefficient pairs exceed {budget}")
    return _derived_field(n, lattice_sum([(a, list(b), list(b.values()))]))


def lattice_sum(parts, start=()) -> dict[Frequency, complex]:
    """Sum c * w into xi + eta for each (coeffs, etas, weights) of parts, in
    (part, xi, eta) order, onto a copy of start: the one lattice-sum loop, a
    part per term in operator, one per product in _convolve.  A key starts
    from 0.0 + c * w, not c * w, which fixes the sign of a zero part."""
    out: dict[Frequency, complex] = dict(start)
    get = out.get
    for coeffs, etas, weights in parts:
        if not etas:
            continue
        for xi, c in coeffs.items():
            for zeta, w in zip(shifted(xi, etas), weights):
                out[zeta] = get(zeta, 0.0) + c * w
    return out


def inner_product(u: SparseField, v: SparseField) -> complex:
    """<u, v> = sum_xi u^(xi) conj(v^(xi)), i.e. (2pi)^{-n} integral of u vbar."""
    if u.n != v.n:
        raise DimensionMismatch("inner product needs matching dimension")
    re, im = [], []  # fsum is exactly rounded, so the visiting order is free
    for xi in u.coeffs.keys() & v.coeffs.keys():
        z = u.coeffs[xi] * v.coeffs[xi].conjugate()
        re.append(z.real)
        im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im))


# -- dense grid realization ---------------------------------------------------


def check_grid_size(M: int, what: str = "grid size") -> None:
    """Raise ValueError "<what> M is not ..." unless the grid size M is a power of two >= 2."""
    if M < 2 or M & (M - 1):
        raise ValueError(f"{what} {M} is not a power of two >= 2")


@dataclass(frozen=True)
class DenseField:
    """Samples at x_k = 2 pi k / M, k in {0..M-1}^n, kept as contiguous, read-only complex128."""

    n: int
    M: int
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_dimension(self.n)
        check_grid_size(self.M)
        arr = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if arr.shape != (self.M,) * self.n:
            raise ValueError(f"sample shape {arr.shape} != {(self.M,) * self.n}")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


def grid_points(M: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(M) / M


def grid_frequencies(M: int, n: int) -> np.ndarray:
    """|xi| on the FFT index grid, shape (M,)*n."""
    k = np.fft.fftfreq(M) * M
    if n == 1:
        return np.abs(k)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return np.sqrt(kx * kx + ky * ky)


def _grid_index(xi: Frequency, M: int) -> tuple[int, ...]:
    half = M // 2
    for c in xi:
        if not (-half <= c < half):
            raise FrequencyOutOfRange(f"frequency {xi} outside [-{half}, {half})")
    return tuple(c % M for c in xi)


def sparse_to_dense(u: SparseField, M: int) -> DenseField:
    """Evaluate the trigonometric polynomial on the grid via an inverse FFT.

    Every frequency component must lie in [-M/2, M/2); otherwise the embedding
    would alias and FrequencyOutOfRange is raised.  The spectrum grid belongs
    to this call, so it is inverted in place and becomes the samples: one
    complex grid is alive, not two.
    """
    shape = (M,) * u.n
    spec = np.zeros(shape, dtype=np.complex128)
    scale = float(M) ** u.n
    for xi, c in u.items():
        spec[_grid_index(xi, M)] += scale * c
    return DenseField(u.n, M, np.fft.ifftn(spec, out=spec))


def dense_to_sparse(g: DenseField, tau: float = 0.0) -> SparseField:
    """Forward FFT to series coefficients, pruned at tau."""
    spec = np.fft.fftn(g.samples) / float(g.M) ** g.n
    half = g.M // 2
    keep = np.argwhere(np.abs(spec) > tau)
    coeffs: dict[Frequency, complex] = {}
    for idx in keep:
        xi = tuple(int(i) if i < half else int(i) - g.M for i in idx)
        coeffs[xi] = complex(spec[tuple(idx)])
    return SparseField(g.n, coeffs, tau)
