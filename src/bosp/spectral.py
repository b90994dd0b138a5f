"""Fourier-side operator calculus on the circle of circumference 2*pi*lam.

Conventions
-----------
A function on the circle is represented by its Fourier coefficients

    C_q(f) = (1 / 2*pi*lam) * integral_0^{2*pi*lam} f(x) exp(-i q x) dx,

where the physical frequency q = m / lam runs over the integer modes
m = 0, 1, ..., n/2, -n/2 + 1, ..., -1 in standard transform order.  The
single self-conjugate slot at index n/2 is labelled +n/2 (positive
frequency); for real fields it must be real.

Odd multipliers (sgn q, odd powers of iq, 1/(iq), the bo group generator
-iq|q|) zero that Nyquist slot so that real fields map to real fields
exactly, and so does H d_x = |D|; see
http://math.mit.edu/~stevenj/fft-deriv.pdf for the standard argument.
Every Fourier multiplier is defined once, in ``_symbol``, which builds a
read-only array per grid and kind: ``d_dx`` (iq)^j, ``abs_d`` |q|^s,
``bessel`` (1 + q^2)^(s/2) (the H^s weights), ``hilbert_dx`` the |q| of
H d_x, ``antiderivative`` 1/(iq), ``hilbert`` -i sgn q, the free-group
generators ``bo_group`` -iq|q| and ``schrodinger_group`` -iq^2, and the
masks ``plus`` and ``minus`` of P_+ and P_-.  ``differentiate``,
``antiderivative``, ``hilbert``, ``project``, the H^s norms, the
invariants' H d_x, ``lingroup.group_symbol`` and the solver's iq and linear
phase read it, and so do the stacked gauge kernels, which act on
coefficient rows (..., n) without SpectralFields.  Only the cutoff masks
(``project``'s ``leq`` and ``gt``, bernstein's high pass), the Parseval
weights of the invariants and the integer resonance keys of ``lingroup``
are formed from the frequencies where they are used.

Products and quadratures are formed on a zero-padded grid of nbig >= n
points (Boyd, *Chebyshev and Fourier Spectral Methods*, 2001, ch. 11).
When nbig > n, real synthesis splits the slot n/2 half-half between +n/2
and -n/2, by one rule, ``_split``, which ``_real_values``, the solver's
state and its allocating flux apply; complex synthesis
(``_complex_values``) keeps the whole slot at +n/2; analysis on either path
folds -n/2 back into +n/2.  Real fields: rfft half spectrum (modes
0..n/2); complex: padded fft.  The real pair on nbig points,
``_real_transforms(nbig)``, is the bare transform pair: it writes into
arrays it is given, takes split input and returns unfolded output.  Its
allocating calls ``_real_values`` and ``_real_coeffs`` add the split and
the fold.  The solver's flux, built once per equation, calls the bare pair
with arrays it allocated once: its state is split once, on entry
(``evolve``), and the flux's iq is zero on the slot n/2, where the fold
would only choose the sign of a zero.  ``_real_pair_synthesis``
synthesizes two real fields, c and a real even multiplier times c, as the
real and imaginary parts of one padded complex transform, with the same
split.  This module's private transforms and ``_split`` are the one place
that layout lives; the solver, the invariants and the gauge frames call
them on stacks of shape (..., n/2+1) or (..., n), and the exact L^4
resonance sum in ``lingroup`` places the slot n/2 the same way.

The real pair, the paired synthesis and the kernels ``_complex_values`` and
``_complex_coeffs`` make the library's only transforms, through the set
``_FFTS``.  It calls numpy's pocketfft gufuncs
(``numpy.fft._pocketfft_umath``) directly, with
the factors that ``numpy.fft`` passes for ``norm="forward"`` and an
``out`` the kernel allocates or is given, so the results are numpy.fft's
bit for bit.  The reason is per-call cost: the solver transforms one row
of a few hundred points at a time, and there numpy.fft's Python wrapper
(argument checks, normalization, output allocation) costs more than the
transform; one 400-point synthesis at n = 256, with its Nyquist split,
into given arrays took 4.0 us against 6.8 us through ``numpy.fft.irfft``,
best of 7 (numpy 2.4, 2-core Xeon VM).
The module is private to numpy, present in every numpy >= 2.0 but free
to move: when it lacks one of the five gufuncs, ``_FFTS`` is the public
``numpy.fft`` set ``_NUMPY_FFTS``, which the tests also hold the gufunc
set equal to, bit for bit.  Every transform is in float64 (complex128)
whatever the input dtype: the gufuncs get float64 factors, and
``analyze_values_padded`` (so ``analyze``) casts its values.

A ``Trajectory`` is one half-spectrum stack, expanded a snapshot at a time
on indexing; kernels take many rows in chunks of ``_STACK_POINTS``.

Each scalar parameter of the public API has one rule, a ``_Rule`` (a test,
and the text that completes "<name> must be ..."), whose ``check`` raises
the one message "<name> must be <text>, got <value>"; no entry point words
a scalar check of its own.  ``_integer`` and ``_finite`` take no bool,
and ``_finite`` no int beyond float range; every numeric rule is built on
one of them, so none takes a bool.  A module's table ``_RULES``
lists the parameters that share a name with a config key (here n, lam,
k, equation and variant), checked with ``_check_values``, where a name
no table lists need only be finite; ``experiments._RULES`` merges the
tables, which share no key, with the keys only experiments have, so a
config key and the library parameter it feeds are refused in the same
words.  Any other parameter (a ``kind``, ``order``, ``cutoff``, ``p``,
``s``, ``which``, ``sign``, ``level``, ``count``) is checked by an
inline rule, and an ``order`` or ``s`` also by ``_finite_symbol``: a
finite one can overflow its multiplier on the grid.  ``_check_equation``
is the one rule for which (tag, k) pairs name a right-hand side; every
constructor that names one applies it.  Beside it, each input rule is one
function that every entry point calls: ``_check_zero_mean`` (|C_0| <
``ZERO_MEAN_TOL``, which no other code compares), ``_check_one_grid``,
``_check_finite``, ``_check_real`` (finite real fields) and
``_check_gauge_variant`` (``bo`` with k = 1, ``gbo`` with an integer
k >= 1).  Each raises ``ValueError`` with one message, naming the caller.
``_refusing_overflow`` is the one overflow rule, which every kernel that
can overflow a float from finite coefficients runs under.
``norm`` is the one-row case of the per-row ``_parseval_norms`` (L^2, H^s)
and ``_lp_norms`` (L^1, L^4 and the sup norm).  ``_conjugate_symmetric``
is the one exact test that coefficient rows are real fields, one bool per
row; no flag is stored: ``SpectralField.is_real`` and the kernels read it.

Norm conventions follow the coefficient-space definitions used throughout:

* ``||f||_{L^2}^2 = 2*pi*lam * sum |C_q|^2``  (Parseval with the circle
  measure),
* ``||f||_{H^s}^2 = sum (1 + q^2)^s |C_q|^2``  (plain coefficient sum, no
  measure factor) -- note the deliberate mismatch between the two, which is
  documented here once and respected everywhere.

Polynomial quadratures are exact: a product of ``degree`` fields of n
modes has its top mode at degree * n/2, so its rectangle-rule mean on N
points is exact once N > degree * n/2 (Orszag, J. Atmos. Sci. 28 (1971)
1074).  ``_alias_free_points(n, degree)`` is the one rule for that N, the
smallest such size >= n with no prime factor above 5.  The L^4 norm sums
on it with degree 4, the invariants with degree max(4, k + 2) and the gbo
renormalization with degree k.  A product truncated to n modes is exact on
it too, since each kept coefficient is the mean of the product times one
mode: ``multiply`` forms f g with degree 3.  The gauge forms its e^{-iF}
products on it too, with degree max(k + 3, 2k): e^{-iF} counts as one
n-mode factor there (``gauge._frame_points``).  Both keep the slot n/2, so
both need the strict rule.  The solver's ``alias_free`` flux u^{k+1} does
not: iq is zero on the slot n/2, and on N points the slots 0..n/2-1 take
the aliases of modes below -(k+1) n/2, past the product's top mode, once
N >= (k + 2) n/2.  ``_smooth_points``, the rule's search for a size with
no prime factor above 5, sizes it there (``evolve.Equation``): 384 points
rather than 400 at n = 256 and k = 1.  The L^1 and sup norms, whose
integrands are no polynomials, sample a 4x zero-padded grid.

Integer powers of signed value arrays (the u^{k+1} flux of the solver, the
u^{k+2} energy density, the M(v^k) gauge phase) multiply by repeated
squaring in the one order ``_power_steps`` gives: ``_power`` runs it into
new arrays, the solver's flux into a pair of its own.  numpy's
``values ** p`` squares with one multiply at p = 2 but calls the
vectorized ``pow`` for p >= 3, which drops to a slow path on negative
bases: with numpy 2.4 on one Xeon
core, ``v ** 3`` on 1024 signed doubles takes about 87 us against 1.5 us
for ``v * v * v`` (and 4.6 us for ``** 3`` on the non-negative ``abs(v)``).
The products agree with ``pow`` to (p - 1) eps relative and are
bit-identical for p <= 2.  Powers of non-negative bases (the L^p
quadratures) keep ``**``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "ZERO_MEAN_TOL",
    "PeriodicGrid",
    "SpectralField",
    "Trajectory",
    "analyze",
    "synthesize",
    "analyze_values_padded",
    "hilbert",
    "project",
    "differentiate",
    "antiderivative",
    "mean_remove",
    "norm",
    "multiply",
]

# Absolute tolerance on |C_0| below which a field counts as zero-mean.
ZERO_MEAN_TOL = 1e-10

_DEFAULT_PAD = 4

# Padded points per stack of rows a kernel transforms at once.  A work array
# of 2^14 doubles (128 KB) stays in a core's cache: 75 rows at n = 128 padded
# to 4n (512 points) stepped 1.5x faster in stacks of 32 rows than in one
# stack of 75.  On the solver's 200-point alias-free rows (the same 75 rows,
# 250 steps, 2-core Xeon, median of 12 alternating rounds) one stack of 75
# took 0.35 s, stacks of 40 (2^13) 0.40 s and of 20 (2^12) 0.47 s; at 150
# rows, 2^14 and 2^15 points per stack were within noise (0.67, 0.68 s).
_STACK_POINTS = 1 << 14


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform collocation grid x_j = 2*pi*lam*j/n on the circle.

    ``lam`` is the period parameter, finite and positive, with a finite
    circumference 2*pi*lam; ``n`` is the number of collocation points, even
    and at least 8.
    """

    lam: float
    n: int

    def __post_init__(self):
        _check_values(_RULES, n=self.n, lam=self.lam)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "n", int(self.n))

    @property
    def circumference(self) -> float:
        return 2.0 * np.pi * self.lam

    @property
    def dx(self) -> float:
        return self.circumference / self.n

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.n)

    @functools.cached_property
    def modes(self) -> np.ndarray:
        """Integer mode labels in transform order, Nyquist labelled +n/2 (read-only)."""
        m = np.arange(self.n)
        modes = np.where(m <= self.n // 2, m, m - self.n)
        modes.flags.writeable = False
        return modes

    @functools.cached_property
    def freqs(self) -> np.ndarray:
        """Physical frequencies q = m / lam (read-only)."""
        q = self.modes / self.lam
        q.flags.writeable = False
        return q


class SpectralField:
    """One snapshot of a function on the circle, stored as coefficients.

    Coefficients are the truth; physical values are always derived.  A
    field is real when its coefficients are exactly conjugate symmetric
    (``is_real``), whatever made them.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: PeriodicGrid, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.n,):
            raise ValueError(
                f"coefficient array has shape {coeffs.shape}, expected ({grid.n},)"
            )
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    @classmethod
    def from_function(cls, grid: PeriodicGrid, fn) -> "SpectralField":
        return analyze(fn(grid.x), grid)

    @classmethod
    def zero(cls, grid: PeriodicGrid) -> "SpectralField":
        return cls(grid, np.zeros(grid.n, dtype=np.complex128))

    @property
    def is_real(self) -> bool:
        """Whether the coefficients are exactly conjugate symmetric (``_conjugate_symmetric``)."""
        return bool(_conjugate_symmetric(self.coeffs))

    @property
    def mean(self):
        """C_0, the mean value over the circle."""
        c0 = self.coeffs[0]
        return float(c0.real) if self.is_real else complex(c0)

    def __add__(self, other):
        _check_one_grid((self, other), "field arithmetic")
        return self._arithmetic((self.coeffs, other.coeffs), lambda: self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_one_grid((self, other), "field arithmetic")
        return self._arithmetic((self.coeffs, other.coeffs), lambda: self.coeffs - other.coeffs)

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return self._arithmetic(np.append(self.coeffs, scalar), lambda: self.coeffs * scalar)

    def _arithmetic(self, inputs, compute) -> "SpectralField":
        """The field of the coefficients ``compute()`` forms from ``inputs``, refused
        by ``_refusing_overflow`` if they overflow a float."""
        return SpectralField(self.grid, _refusing_overflow("field arithmetic", inputs, compute))

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"SpectralField(lam={self.grid.lam:.6g}, n={self.grid.n}, "
            f"{'real' if self.is_real else 'complex'})"
        )


# ---------------------------------------------------------------------------
# transforms and padding
# ---------------------------------------------------------------------------


def analyze(samples, grid: PeriodicGrid) -> SpectralField:
    """Point values on ``grid`` -> coefficients; C_0 is the sample mean."""
    samples = np.asarray(samples)
    if samples.shape != (grid.n,):
        raise ValueError(
            f"sample array has shape {samples.shape}, expected ({grid.n},)"
        )
    return analyze_values_padded(samples, grid)


@functools.cache
def _nyquist_split(n: int) -> np.ndarray:
    split = np.ones(n // 2 + 1)
    split[n // 2] = 0.5
    split.flags.writeable = False
    return split


class _Transforms(NamedTuple):
    """The transforms along the last axis, each ``(a, out) -> out``.

    ``sized_rfft(nbig)`` returns the forward real one for rows of nbig
    points, so that a set makes its choices for that size once.  ``out``
    is caller-owned and its last axis sets the output size (nbig points for
    ``irfft``); the forward transforms scale by 1/nbig, numpy's
    ``norm="forward"``, and the inverse ones by 1.
    """

    sized_rfft: Callable
    irfft: Callable
    fft: Callable
    ifft: Callable


_NUMPY_FFTS = _Transforms(
    sized_rfft=lambda nbig: lambda a, out: np.fft.rfft(a, norm="forward", out=out),
    irfft=lambda a, out: np.fft.irfft(a, out.shape[-1], norm="forward", out=out),
    fft=lambda a, out: np.fft.fft(a, norm="forward", out=out),
    ifft=lambda a, out: np.fft.ifft(a, norm="forward", out=out),
)


_GUFUNC_NAMES = ("rfft_n_even", "rfft_n_odd", "irfft", "fft", "ifft")


def _gufunc_transforms(pfu) -> _Transforms | None:
    """The pocketfft gufuncs of ``pfu`` with the factors numpy.fft gives them,
    or None unless ``pfu`` has all five.

    Each factor is a float64 scalar, so every input transforms in double
    precision.  numpy.fft's last-axis ``axes`` are the gufuncs' default and
    ``out`` goes by position: the two keywords cost about 0.5 us a call at
    400 points (numpy 2.4, 2-core Xeon VM).
    """
    if not all(hasattr(pfu, name) for name in _GUFUNC_NAMES):
        return None
    one = np.float64(1.0)
    rfft_even, rfft_odd, irfft, fft, ifft = (getattr(pfu, name) for name in _GUFUNC_NAMES)

    def sized_rfft(nbig):
        kernel, factor = rfft_odd if nbig % 2 else rfft_even, np.float64(1 / nbig)
        return lambda a, out: kernel(a, factor, out)

    return _Transforms(
        sized_rfft=sized_rfft,
        irfft=lambda a, out: irfft(a, one, out),
        fft=lambda a, out: fft(a, np.float64(1 / a.shape[-1]), out),
        ifft=lambda a, out: ifft(a, one, out),
    )


_GUFUNC_FFTS = _gufunc_transforms(getattr(np.fft, "_pocketfft_umath", None))
# the transforms every kernel calls
_FFTS = _NUMPY_FFTS if _GUFUNC_FFTS is None else _GUFUNC_FFTS


def _real_transforms(nbig: int) -> tuple:
    """The bare real pair on nbig points, of the transform set ``_FFTS`` at the call.

    ``values(half, out)`` writes the values (..., nbig) of half spectra
    (..., n/2+1), n <= nbig, into ``out``, taking them as given: when
    nbig > n they must already be split (their ``_split``), since the slot
    stands for +n/2 alone.
    ``coeffs(values, out)`` writes the modes 0..nbig/2 into ``out``
    (..., nbig/2+1) and returns it; its first n/2+1 slots are the half
    spectrum with -n/2 not folded into +n/2 (``_real_coeffs`` folds it).
    """
    return _FFTS.irfft, _FFTS.sized_rfft(nbig)


def _split(half: np.ndarray, nbig: int) -> np.ndarray:
    """Half spectra (..., n/2+1) as real synthesis on nbig >= n points takes
    them: when nbig > n, a new array whose slot n/2 is halved, its two halves
    standing for +n/2 and -n/2; else ``half`` itself."""
    n = 2 * (half.shape[-1] - 1)
    return half * _nyquist_split(n) if nbig > n else half


def _real_values(half: np.ndarray, nbig: int) -> np.ndarray:
    """Half spectra (..., n/2+1) -> real values (..., nbig), nbig >= n, as a new
    array, synthesized from their ``_split``."""
    values, _ = _real_transforms(nbig)
    return values(_split(half, nbig), np.empty(half.shape[:-1] + (nbig,)))


def _real_pair_synthesis(symbol: np.ndarray, nbig: int, rows: int) -> Callable:
    """For half spectra c of real fields u and a real even multiplier ``symbol``
    (n/2+1,), the synthesis ``values(half) -> (m, nbig)`` of m <= ``rows``
    half spectra (m, n/2+1) on nbig > n points, whose real part is u and
    imaginary part the real field v of ``symbol * c``: one complex inverse
    transform makes both (Press et al., *Numerical Recipes*, 3rd ed.,
    sec. 12.3).  It reads ``_FFTS`` at each call.

    Mode m >= 0 of u + iv is (1 + i symbol) c_m and mode -m is
    (1 + i symbol) conj(c_m), with the slot n/2 split half-half between
    +n/2 and -n/2 as ``_split`` splits it; the modes between stay
    zero.  The spectrum and the values are arrays allocated once, so each
    call overwrites the values the last one returned.  Each part matches
    the real synthesis of its field to round-off, not bit for bit.
    """
    nyq = len(symbol) - 1
    pair = _nyquist_split(2 * nyq) * (1.0 + 1j * symbol)
    spec = np.zeros((rows, nbig), dtype=np.complex128)
    out = np.empty_like(spec)

    def values(half):
        padded = spec[: len(half)]
        np.multiply(half, pair, out=padded[:, : nyq + 1])
        np.multiply(np.conj(half[:, nyq:0:-1]), pair[nyq:0:-1], out=padded[:, nbig - nyq:])
        return _FFTS.ifft(padded, out[: len(half)])
    return values


def _real_coeffs(values: np.ndarray, n: int) -> np.ndarray:
    """Real values (..., nbig) -> half spectra (..., n/2+1) of n modes, -n/2 folded into +n/2."""
    nbig, nyq = values.shape[-1], n // 2
    _, coeffs = _real_transforms(nbig)
    half = coeffs(values, np.empty(values.shape[:-1] + (nbig // 2 + 1,),
                                   dtype=np.complex128))[..., : nyq + 1]
    if nbig > n:
        half[..., nyq] = 2.0 * half[..., nyq].real
    return half


def _complex_values(coeffs: np.ndarray, nbig: int) -> np.ndarray:
    """Coefficients (..., n) in transform order -> values (..., nbig)."""
    n = coeffs.shape[-1]
    if nbig > n:
        big = np.zeros(coeffs.shape[:-1] + (nbig,), dtype=np.complex128)
        big[..., : n // 2 + 1] = coeffs[..., : n // 2 + 1]
        big[..., nbig - n // 2 + 1:] = coeffs[..., n // 2 + 1:]
        coeffs = big
    return _FFTS.ifft(coeffs, np.empty(coeffs.shape, dtype=np.complex128))


def _complex_coeffs(values: np.ndarray, n: int) -> np.ndarray:
    """Values (..., nbig) -> coefficients (..., n) in transform order."""
    big = _FFTS.fft(values, np.empty(values.shape, dtype=np.complex128))
    nbig = big.shape[-1]
    out = np.concatenate((big[..., : n // 2 + 1], big[..., nbig - n // 2 + 1:]), axis=-1)
    if nbig > n:
        out[..., n // 2] += big[..., nbig - n // 2]
    return out


def _row_chunks(rows: int, points: int) -> list:
    """Slices covering range(rows), each of at most _STACK_POINTS // points rows
    (at least one)."""
    per_stack = max(1, _STACK_POINTS // points)
    return [slice(start, start + per_stack) for start in range(0, rows, per_stack)]


@functools.cache
def _alias_free_points(n: int, degree: int) -> int:
    """Points of a trapezoid sum exact for a degree-``degree`` product of n-mode fields.

    The product's top mode is degree * n/2, so a sum on N points is exact
    once N > degree * n/2 (Orszag 1971; Boyd 2001, sec. 11.5).  Returns the
    smallest such N >= n with no prime factor above 5.
    """
    return _smooth_points(max(n, degree * n // 2 + 1))


def _smooth_points(points: int) -> int:
    """The smallest N >= ``points`` with no prime factor above 5, which
    pocketfft transforms on its fast radices."""
    while True:
        rest = points
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return points
        points += 1


def _full_spectrum(half_coeffs: np.ndarray, n: int) -> np.ndarray:
    """Half spectra (..., n/2+1) -> conjugate-symmetric transform order (..., n)."""
    full = np.empty(half_coeffs.shape[:-1] + (n,), dtype=np.complex128)
    full[..., : n // 2 + 1] = half_coeffs
    full[..., n // 2 + 1:] = np.conj(half_coeffs[..., n // 2 - 1: 0: -1])
    return full


def _real_rows(values: np.ndarray, n: int) -> np.ndarray:
    """Real values (..., nbig) -> conjugate-symmetric coefficient rows (..., n)."""
    return _full_spectrum(_real_coeffs(values, n), n)


def _conjugate_symmetric(coeffs: np.ndarray) -> np.ndarray:
    """Per coefficient row (..., n), whether it is exactly conjugate symmetric.

    Slots 0 and n/2 must be real, and mode -m the exact conjugate of mode m;
    a NaN anywhere makes the row complex.  The one rule of realness.
    """
    n = coeffs.shape[-1]
    return (~coeffs[..., [0, n // 2]].imag.any(axis=-1)
            & (coeffs[..., n // 2 + 1:] == np.conj(coeffs[..., n // 2 - 1: 0: -1])).all(axis=-1))


def synthesize(f: SpectralField, oversample: int = 1) -> np.ndarray:
    """Coefficients -> point values, optionally on an oversampled grid.

    ``oversample`` is an integer >= 1.  Returns a real array for real fields.
    """
    _integer(1).check("oversample", oversample)
    return _refusing_overflow("the synthesis", f.coeffs,
                              lambda: _values(f, oversample * f.grid.n))


def _values(f: SpectralField, nbig: int) -> np.ndarray:
    """Values of f on nbig >= n points; real for a real field."""
    if f.is_real:
        return _real_values(f.coeffs[: f.grid.n // 2 + 1], nbig)
    return _complex_values(f.coeffs, nbig)


def analyze_values_padded(values, grid: PeriodicGrid) -> SpectralField:
    """Values on nbig >= grid.n points -> field truncated to grid.n modes.

    Real values give an exactly conjugate-symmetric field.  Values of any
    dtype are transformed in float64 (complex128).  Anything but a 1-D
    array of at least grid.n points is refused by name.
    """
    values = np.asarray(values)
    if values.ndim != 1 or len(values) < grid.n:
        raise ValueError(f"padded values must be a 1-D array of at least grid.n = {grid.n} "
                         f"points, got shape {values.shape}")
    if np.isrealobj(values):
        values, rows = values.astype(np.float64, copy=False), _real_rows
    else:
        values, rows = values.astype(np.complex128, copy=False), _complex_coeffs
    return SpectralField(grid, _refusing_overflow("the analysis", values,
                                                  lambda: rows(values, grid.n), "values"))


@functools.cache
def _power_steps(p: int) -> tuple:
    """The multiplies of values ** p (p >= 1) by repeated squaring, and the slot of the result.

    Slot 0 holds the values (read only), slots 1 and 2 the running product
    and square; each step ``(a, b, dest)`` is ``slots[dest] = slots[a] *
    slots[b]``.  The one order of the products: ``_power`` runs the steps
    into new arrays and the solver's flux into a pair of its own.
    """
    steps, acc, base = [], None, 0
    while True:
        if p & 1:
            if acc is None:
                acc = base
            else:  # into acc's own slot, or the one base is not in
                dest = acc or 3 - base
                steps.append((acc, base, dest))
                acc = dest
        p >>= 1
        if not p:
            return tuple(steps), acc
        dest = base if base and base != acc else (2 if acc == 1 else 1)
        steps.append((base, base, dest))
        base = dest


def _power(values: np.ndarray, p: int) -> np.ndarray:
    """values ** p for an integer p >= 0 by repeated squaring, as a new array."""
    if p < 0:
        raise ValueError(f"_power needs an integer p >= 0, got {p!r}")
    if p == 0:
        return np.ones_like(values)
    steps, last = _power_steps(p)
    slots = [values, None, None]
    for a, b, dest in steps:
        slots[dest] = np.multiply(slots[a], slots[b], out=slots[dest])
    return slots[last] if last else values.copy()


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product truncated to n modes, formed on the alias-free grid of
    degree 3, where every kept coefficient is exact.  A product that overflows
    a float is refused by ``_refusing_overflow``."""
    _check_one_grid((f, g), "multiply")
    nbig = _alias_free_points(f.grid.n, 3)
    return _refusing_overflow("the product", (f.coeffs, g.coeffs), lambda: (
        analyze_values_padded(_values(f, nbig) * _values(g, nbig), f.grid)))


# ---------------------------------------------------------------------------
# multiplier operators
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _symbol(grid: PeriodicGrid, kind: str, order: float = 1) -> np.ndarray:
    """The read-only multiplier or mask ``kind`` in transform order, built once per grid.

    ``d_dx`` is (iq)^order, ``abs_d`` |q|^order, ``bessel``
    (1 + q^2)^(order/2), ``hilbert_dx`` the |q| of H d_x, ``antiderivative``
    1/(iq) away from q = 0, ``hilbert`` -i sgn q, and ``bo_group`` -iq|q| and
    ``schrodinger_group`` -iq^2 the generators of the free groups; the odd
    ones, and H d_x, zero the slot n/2.  ``plus`` and ``minus`` are the
    masks q > 0 and q < 0 of P_+ and P_-.
    """
    q, nyq = grid.freqs, grid.n // 2
    if kind == "d_dx":
        mult = (1j * q) ** order
    elif kind == "abs_d":
        mult = np.abs(q) ** order
    elif kind == "hilbert_dx":
        mult = np.abs(q)
    elif kind == "bessel":
        mult = (1.0 + q * q) ** (order / 2.0)
    elif kind == "antiderivative":
        mult = np.zeros(grid.n, dtype=np.complex128)
        nz = q != 0
        mult[nz] = 1.0 / (1j * q[nz])
    elif kind == "hilbert":
        mult = -1j * np.sign(grid.modes).astype(np.complex128)
    elif kind == "bo_group":
        mult = -1j * q * np.abs(q)
    elif kind == "schrodinger_group":
        mult = -1j * q * q
    elif kind in ("plus", "minus"):
        mult = q > 0 if kind == "plus" else q < 0
    else:
        raise ValueError(f"unknown symbol {kind!r}")
    if kind in ("antiderivative", "hilbert", "hilbert_dx", "bo_group") or (
            kind == "d_dx" and order % 2 == 1):
        mult = mult.copy()
        mult[nyq] = 0.0
    mult.flags.writeable = False
    return mult


def _primitive(coeffs: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Zero-mean primitive of coefficient rows (..., n): 1/(iq), mean slot set to 0."""
    out = _symbol(grid, "antiderivative") * coeffs
    out[..., 0] = 0.0
    return out


def hilbert(f: SpectralField) -> SpectralField:
    """Hilbert transform: multiplier -i*sgn(q), zero on the mean mode."""
    return SpectralField(f.grid, _symbol(f.grid, "hilbert") * f.coeffs)


def project(f: SpectralField, kind: str, cutoff: float | None = None) -> SpectralField:
    """Frequency projection.

    kind:
      ``plus``  -- strictly positive frequencies (Nyquist slot included),
      ``minus`` -- strictly negative frequencies,
      ``zero``  -- the mean mode only,
      ``leq``   -- 0 < |q| <= cutoff (cutoff in physical frequency units),
      ``gt``    -- q > cutoff, one-sided.

    ``leq`` + ``gt`` + the negative mirror of ``gt`` + ``zero`` reassemble
    the identity exactly.
    """
    _choice("plus", "minus", "zero", "leq", "gt").check("kind", kind)
    q = f.grid.freqs
    if kind in ("plus", "minus"):
        mask = _symbol(f.grid, kind)
    elif kind == "zero":
        mask = q == 0
    else:
        _NONNEGATIVE.check("cutoff", cutoff)
        mask = (q != 0) & (np.abs(q) <= cutoff) if kind == "leq" else q > cutoff
    return SpectralField(f.grid, np.where(mask, f.coeffs, 0.0))


def differentiate(f: SpectralField, kind: str = "d_dx", order: float = 1) -> SpectralField:
    """Derivative-type multipliers.

    kind:
      ``d_dx``   -- (i q)^order with integer order >= 0; odd orders zero the
                    Nyquist slot,
      ``abs_d``  -- |q|^order with order >= 0 (zeroes q = 0 when order > 0),
      ``bessel`` -- (1 + q^2)^(order/2) with order >= 0.

    All three map real fields to real fields.
    """
    _choice("d_dx", "abs_d", "bessel").check("kind", kind)
    if kind == "d_dx":
        _Rule(lambda v: _NONNEGATIVE.test(v) and v == int(v), "a whole number >= 0").check(
            "order", order)
        order = int(order)
    else:
        _NONNEGATIVE.check("order", order)
    _finite_symbol(f.grid, kind).check("order", order)
    return SpectralField(f.grid, _symbol(f.grid, kind, order) * f.coeffs)


def antiderivative(f: SpectralField) -> SpectralField:
    """Zero-mean primitive: multiplier 1/(i q) away from q = 0.

    Requires |C_0| < ZERO_MEAN_TOL; the Nyquist slot is zeroed (odd symbol).
    """
    _check_zero_mean(f.coeffs, "antiderivative")
    return SpectralField(f.grid, _primitive(f.coeffs, f.grid))


def mean_remove(f: SpectralField):
    """Split f into (mean, f - mean); the sum reassembles f exactly."""
    mean = f.mean
    out = f.coeffs.copy()
    out[0] = 0.0
    return mean, SpectralField(f.grid, out)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _parseval_norms(coeffs: np.ndarray, grid: PeriodicGrid, s: float | None = None):
    """Per-row L^2 norms of coefficient rows (..., n), or their H^s norms given s."""
    sq = np.abs(coeffs) ** 2
    if s is None:
        return np.sqrt(grid.circumference * np.sum(sq, axis=-1))
    return np.sqrt(np.sum(_symbol(grid, "bessel", 2 * s) * sq, axis=-1))


def _lp_norms(rows: np.ndarray, grid: PeriodicGrid, p: float) -> np.ndarray:
    """Per-row L^p norms (p = 1, 4 or inf) of coefficient rows (R, n).

    p = 4 is the rectangle rule on the alias-free grid of degree 4, exact
    since |f|^4 is a polynomial in f and conj f; p = 1 is the rectangle rule
    and p = inf the largest |value| on the 4x oversampled grid.  A stack of
    real rows is synthesized from its half spectra, any other as complex.
    Rows go in stacks of at most ``_STACK_POINTS`` points.
    """
    n, real = grid.n, _conjugate_symmetric(rows).all()
    nbig = _alias_free_points(n, 4) if p == 4 else _DEFAULT_PAD * n
    out = np.empty(len(rows))
    for chunk in _row_chunks(len(rows), nbig):
        vals = (_real_values(rows[chunk, : n // 2 + 1], nbig) if real
                else _complex_values(rows[chunk], nbig))
        if p == np.inf:
            out[chunk] = np.max(np.abs(vals), axis=-1)
            continue
        sums = grid.circumference / nbig * np.sum(np.abs(vals) ** p, axis=-1)
        # roots as scalars: numpy's vectorized pow can differ from libm's by an ulp
        out[chunk] = [total ** (1.0 / p) for total in sums.tolist()]
    return out


def norm(f: SpectralField, kind: str, p: int | None = None, s: float | None = None) -> float:
    """Norms on the circle.

    kind:
      ``lp``     -- L^p over [0, 2*pi*lam]; p in {1, 2, 4}.  p = 2 uses
                    Parseval, p = 4 the rectangle rule on the alias-free
                    grid of degree 4 (exact), and p = 1 the rectangle rule
                    on the 4x oversampled grid.
      ``hs``     -- (sum (1+q^2)^s |C_q|^2)^(1/2); pass s.
      ``hs_dot`` -- (sum |q|^(2s) |C_q|^2)^(1/2); pass s.
      ``linf``   -- max |f| on the 4x oversampled grid.

    A norm that overflows a float is refused by ``_refusing_overflow``.
    """
    _choice("lp", "hs", "hs_dot", "linf").check("kind", kind)
    if kind == "lp":
        _Rule(lambda v: _finite(v) and v in (1, 2, 4), "1, 2 or 4").check("p", p)
    elif kind != "linf":
        _FINITE.check("s", s)
        _finite_symbol(f.grid, "bessel" if kind == "hs" else "abs_d", 2).check("s", s)

    def value():
        if kind == "hs" or (kind == "lp" and p == 2):
            return _parseval_norms(f.coeffs, f.grid, s if kind == "hs" else None)
        if kind == "hs_dot":
            return np.sqrt(np.sum(_symbol(f.grid, "abs_d", 2 * s) * np.abs(f.coeffs) ** 2))
        return _lp_norms(f.coeffs[None], f.grid, np.inf if kind == "linf" else p)[0]
    return float(_refusing_overflow(f"the {kind} norm", f.coeffs, value))


# ---------------------------------------------------------------------------
# input rules and trajectories
# ---------------------------------------------------------------------------


class _Rule(NamedTuple):
    """What a parameter must be: ``test`` decides, and ``text`` completes "<name>
    must be ..." in the message of a broken rule and a config key's ``--help`` line."""

    test: Callable
    text: str

    def check(self, name: str, value) -> None:
        """Raise the ``ValueError`` of this rule broken by ``value``, if it is."""
        if not self.test(value):
            raise ValueError(f"{name} must be {self.text}, got {value!r}")


def _finite(value) -> bool:
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond float range
        return False


def _integer(least: int) -> _Rule:
    return _Rule(lambda v: (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                            and v >= least), f"an integer >= {least}")


def _finite_symbol(grid: PeriodicGrid, kind: str, scale: float = 1) -> _Rule:
    """The rule that the multiplier ``_symbol(grid, kind, scale * v)`` is finite on
    ``grid``: a large order overflows it, and ``abs_d`` of a negative one is infinite at 0."""
    def test(v) -> bool:
        with np.errstate(over="ignore", divide="ignore"):
            return bool(np.isfinite(_symbol(grid, kind, scale * v)).all())
    return _Rule(test, "such that the multiplier is finite on this grid")


def _choice(*options: str) -> _Rule:
    return _Rule(lambda v: isinstance(v, str) and v in options,
                 f"one of {', '.join(options)}")


_FINITE = _Rule(_finite, "finite")  # the rule of a name a table does not list
_POSITIVE = _Rule(lambda v: _finite(v) and v > 0, "finite and positive")
_NONNEGATIVE = _Rule(lambda v: _finite(v) and v >= 0, "finite and nonnegative")


def _check_values(rules: dict, **values) -> None:
    """Check each value in order by its rule in ``rules``, ``_FINITE`` if unlisted."""
    for name, value in values.items():
        rules.get(name, _FINITE).check(name, value)


def _check_zero_mean(coeffs: np.ndarray, who: str) -> None:
    """Raise ``ValueError`` unless every coefficient row (..., n) has |C_0| < ZERO_MEAN_TOL.

    The one zero-mean rule: a primitive is periodic only for zero-mean
    data.  ``who`` names the caller in the message.
    """
    c0 = np.abs(np.asarray(coeffs)[..., 0]).reshape(-1)
    bad = np.flatnonzero(c0 >= ZERO_MEAN_TOL)
    if len(bad):
        raise ValueError(f"{who} needs zero-mean data: field {bad[0]} has "
                         f"|C_0| = {c0[bad[0]]:.3e} >= {ZERO_MEAN_TOL:.0e}")


def _check_one_grid(fields, who: str) -> PeriodicGrid:
    """The grid every field lives on; ``ValueError`` if two differ."""
    grid = fields[0].grid
    for i, f in enumerate(fields):
        if f.grid != grid:
            raise ValueError(f"{who} needs fields on one grid: field {i} is on "
                             f"{f.grid}, field 0 on {grid}")
    return grid


def _check_finite(coeffs, who: str, fields: str = "finite fields") -> None:
    """Raise ``ValueError`` naming the first coefficient row (..., n) with a NaN
    or infinite coefficient; the message says the caller needs ``fields``."""
    bad = np.flatnonzero(~np.isfinite(coeffs).all(axis=-1).reshape(-1))
    if len(bad):
        raise ValueError(f"{who} needs {fields}: field {bad[0]} is non-finite "
                         "(a coefficient is NaN or infinite)")


def _refusing_overflow(who, coeffs, compute, inputs="coefficients"):
    """``compute()`` with numpy's overflow warnings silenced, refused if it overflows.

    A result (each item of a tuple, named by the items of a tuple ``who``;
    a field by its coefficients) that is not finite although every one of
    ``coeffs`` is overflowed a float: ``ValueError("<who> overflows a float
    at <inputs> up to <max |c|>")``.  Non-finite coefficients keep
    numpy's result (NaN in, NaN out)."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = compute()
    if np.isfinite(coeffs).all():
        items = result if isinstance(result, tuple) else (result,)
        names = (who,) * len(items) if isinstance(who, str) else who
        for name, values in zip(names, items):
            if not np.isfinite(getattr(values, "coeffs", values)).all():
                raise ValueError(f"{name} overflows a float at {inputs} up to "
                                 f"{np.max(np.abs(coeffs)):.3g}")
    return result


def _check_real(coeffs: np.ndarray, who: str) -> None:
    """Raise ``ValueError`` naming the first coefficient row (..., n) that is no
    finite real field: exactly conjugate symmetric, and finite, which
    symmetric infinite coefficients are not.  The message says whether that
    row is non-finite (``_check_finite`` up to the first complex row) or complex.
    """
    coeffs = np.asarray(coeffs)
    rows = coeffs.reshape(-1, coeffs.shape[-1])
    complex_rows = np.flatnonzero(~_conjugate_symmetric(rows))
    first = complex_rows[0] if len(complex_rows) else len(rows)
    _check_finite(rows[: first + 1], who, "real fields")
    if len(complex_rows):
        raise ValueError(f"{who} needs real fields: field {first} is complex "
                         "(its coefficients are not exactly conjugate symmetric)")


def _check_gauge_variant(variant, k) -> None:
    """Raise ``ValueError`` unless (variant, k) names a gauge and its degree.

    The one rule for the gauge transform, the dilations and the configs
    that name a variant: the ``variant`` and ``k`` rules, then k = 1 for
    ``bo``.
    """
    _check_values(_RULES, variant=variant, k=k)
    if variant == "bo" and k != 1:
        raise ValueError(f"the bo variant has k = 1, got k = {k!r}")


def _check_equation(equation, k) -> None:
    """Raise ``ValueError`` unless the tag and degree ``k`` name a right-hand side.

    The one rule for every constructor that names one (``SolverConfig``,
    ``evolve.Equation``, ``Trajectory``): the ``equation`` and ``k`` rules,
    then k = 1 for ``linear`` and ``bo2``.
    """
    _check_values(_RULES, equation=equation, k=k)
    if k != 1 and equation in ("linear", "bo2"):
        raise ValueError(f"k applies to gbo and renormalized_gbo only, "
                         f"got k = {k} for {equation}")


class Trajectory:
    """Uniformly sampled time history of one real field.

    ``half_coeffs`` is one read-only (S, n/2+1) stack of finite rfft half
    spectra (modes 0..n/2), S >= 2, with real slots 0 and n/2; every tagged
    equation is real.  A NaN or infinite coefficient is refused by
    ``_check_finite``, naming its snapshot.  ``traj[i]`` and
    iteration expand a row to the full, exactly conjugate-symmetric
    spectrum, so a finite row is a real field.

    ``equation`` tags which right-hand side produced the data: one of
    ``linear``, ``bo2`` (u_t + H u_xx = 2 u u_x), ``gbo``
    (u_t + H u_xx = u^k u_x) or ``renormalized_gbo``
    (v_t + H v_xx = 2 (v^k - mean v^k) v_x), with the degree ``k``; a pair
    that ``_check_equation`` refuses is a ``ValueError``.  The solver
    settings that produced the data are not kept.
    """

    EQUATIONS = ("linear", "bo2", "gbo", "renormalized_gbo")

    def __init__(self, grid, times, half_coeffs, equation, k=1):
        times = np.array(times, dtype=float)
        half = np.array(half_coeffs, dtype=np.complex128)
        if half.ndim != 2 or half.shape[1] != grid.n // 2 + 1:
            raise ValueError(f"half-spectrum stack has shape {half.shape}, "
                             f"expected (S, {grid.n // 2 + 1})")
        if len(half) < 2:
            raise ValueError("a trajectory needs at least 2 snapshots")
        _check_finite(half, "Trajectory")
        if half[:, [0, grid.n // 2]].imag.any():
            raise ValueError("slots 0 and n/2 (mean and Nyquist) of a real field's "
                             "half spectrum must be real")
        if times.shape != (len(half),):
            raise ValueError("times and snapshots must have equal length")
        if not np.isfinite(times).all():
            raise ValueError("sample times must be finite")
        steps = np.diff(times)
        h = steps[0]
        if h <= 0 or np.max(np.abs(steps - h)) > 1e-12 * max(abs(h), 1e-300):
            raise ValueError("sample times must be uniformly increasing")
        _check_equation(equation, k)
        half.flags.writeable = False
        self.grid = grid
        self.times = times
        self.half_coeffs = half
        self.equation = equation
        self.k = int(k)

    @property
    def sample_dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self):
        return len(self.half_coeffs)

    def __getitem__(self, i) -> SpectralField:
        return SpectralField(self.grid, _full_spectrum(self.half_coeffs[i], self.grid.n))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self):
        return (
            f"Trajectory({self.equation}, k={self.k}, lam={self.grid.lam:.6g}, "
            f"n={self.grid.n}, samples={len(self)}, T={self.times[-1]:.6g})"
        )


# Rules shared with config keys (module docstring).
_RULES = {
    "n": _Rule(lambda v: _integer(8).test(v) and v % 2 == 0, "an even integer >= 8"),
    # the circle's circumference 2 pi lam, and so its dx and points, must be finite
    "lam": _Rule(lambda v: _POSITIVE.test(v) and math.isfinite(2.0 * math.pi * float(v)),
                 "finite and positive, with 2 * pi * lam finite"),
    "k": _integer(1),
    "equation": _choice(*Trajectory.EQUATIONS),
    "variant": _choice("bo", "gbo"),
}
