"""Free propagators of the linear problems, as unimodular multipliers.

``bo_group`` evolves u_t + H u_xx = 0: the symbol of H d_xx is i*q|q|, so
the propagator multiplies mode q by exp(-i*q|q|*t).  ``schrodinger_group``
evolves w_t = i w_xx, multiplier exp(-i*q^2*t).  Both satisfy the exact
group law and are unitary on every H^s.  Their generators are kinds of the
one multiplier table, ``spectral._symbol``: ``group_symbol`` returns its
cached read-only array, the same one the solver's linear phase reads.

The mixed space-time L^4 norm of a free wave, (integral_0^T ||u(t)||_L4^4
dt)^(1/4), is evaluated exactly by a resonance sum.  With u(t) = sum_a C_a
exp(-i phi_a t) exp(i a x / lam),

    ||u(t)||_L4^4 = 2*pi*lam * sum_m |S_m(t)|^2,
    S_m(t) = sum_{a+b=m} C_a C_b exp(-i (phi_a + phi_b) t),

so the time integral is a sum over pairs of pairs of
integral_0^T exp(-i Omega t) dt with Omega = phi_a + phi_b - phi_c - phi_d:
T on the resonance set Omega = 0, (1 - exp(-i Omega T)) / (i Omega)
elsewhere (the counting behind Bourgain's periodic L^4 estimate, GAFA 3
(1993) 107-156).  Resonances are classified on integer keys lam^2 * phi_a,
so Omega = 0 is detected exactly.

``strichartz_norms`` evaluates a stack of fields on one grid at once, over
the union of the rows' supports.  The pairs a <= b, sorted by (m, key), and
their key groups depend on the support and the integer keys only, not on
lam: ``_pair_table`` builds them once per support (cached, so the circles
of a scan share one table), and each chunk of m is a slice of it.  The
lam^2/Omega kernel, which grows as the square of the pairs, is formed per
chunk and call.  Every row then costs only its products C_a C_b, group
sums and one kernel product.  The chunk bound counts the kernel and every
array the rows' sums hold at once, and a chunk spans at least a few m; a
stack that a chunk of that width cannot hold is evaluated in smaller
stacks (the comment at ``_EXACT_ENTRIES``).
``strichartz_norm`` is the one-row case.
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import (_POSITIVE, PeriodicGrid, SpectralField, _Rule, _check_finite,
                       _check_one_grid, _check_values, _choice, _conjugate_symmetric, _finite,
                       _refusing_overflow, _symbol)

__all__ = ["GROUP_KINDS", "group_symbol", "propagate", "strichartz_norm", "strichartz_norms"]

GROUP_KINDS = ("bo_group", "schrodinger_group")
_KIND = _choice(*GROUP_KINDS)  # the rule of every ``kind`` argument

# Rules shared with config keys (see spectral); t need only be finite.
_RULES = {"horizon": _POSITIVE}


def group_symbol(grid: PeriodicGrid, kind: str) -> np.ndarray:
    """Frequency-domain generator: d/dt C_q = symbol_q * C_q.

    The cached read-only ``spectral._symbol`` array of a kind in
    ``GROUP_KINDS``; any other kind is a ``ValueError``.  The odd bo symbol
    is zeroed on the self-conjugate Nyquist slot so real fields stay real.
    """
    _KIND.check("kind", kind)
    return _symbol(grid, kind)


def propagate(f: SpectralField, t: float, kind: str = "bo_group") -> SpectralField:
    """Apply the free group at a finite time t (exact multiplier)."""
    _check_values(_RULES, t=t)
    # the bo multiplier is exactly conjugate symmetric, so real fields stay real
    return SpectralField(f.grid, np.exp(group_symbol(f.grid, kind) * t) * f.coeffs)


# Chunk sizing.  A chunk of w values of m, each with at most `pairs` key
# groups (no m has more unordered pairs), and a stack of s rows holds at
# once w * pairs * (pairs + _ROW_ENTRIES * s) float entries:
# - the lam^2/Omega kernel, pairs^2 per m;
# - per row and padded slot, 16 at the peak of `_chunk_sums`: d and z
#   (complex, 2 each), dz (two complex columns, 4), the Re and Im planes
#   (2 each), the kernel product and its product with Im (2 each).  The
#   pair products before the reduceat are freed before that peak.
# _EXACT_ENTRIES bounds that count: 2 MiB of float64, which a core's L2
# cache holds.  A chunk is at least _MIN_WIDTH values of m wide.  Its fixed
# set-up is about 70 us (two dozen numpy calls), and where the floor binds
# each m holds over _EXACT_ENTRIES / 4 entries, about 60 us of arithmetic
# (Xeon, numpy 2.4, n = 128 and 256): the set-up is half of a one-m chunk
# and about a fifth of a four-m one.  Rows are cut into smaller stacks only
# where a chunk of the floor's width cannot hold them all.
_EXACT_ENTRIES = 1 << 18
_ROW_ENTRIES = 16
_MIN_WIDTH = 4


def _wave_stack(grid: PeriodicGrid, rows: np.ndarray, kind: str):
    """Ascending modes a, coefficients C_a (one column per row of ``rows``),
    keys lam^2*phi_a and whether every row is a real bo row.

    Follows the padded transforms' Nyquist convention row by row: real bo
    rows split the slot n/2 into +-n/2 halves (as ``_real_values``), other
    rows keep it whole at +n/2 (as ``_complex_values``); the bo key there is
    0, as in ``group_symbol``.  The modes are the union of the rows'
    supports: a mode is dropped only where every row is zero, and a row that
    is zero at a kept mode adds exact zeros.
    """
    n = grid.n
    split = _conjugate_symmetric(rows) & (kind == "bo_group")
    coeffs = np.zeros((n + 1, len(rows)), dtype=np.complex128)  # one column per row
    coeffs[1:] = rows.T[np.argsort(grid.modes)]
    coeffs[n] *= np.where(split, 0.5, 1.0)
    coeffs[0] = np.where(split, np.conj(coeffs[n]), 0.0)
    modes = np.arange(-(n // 2), n // 2 + 1)
    if kind == "bo_group":
        keys = modes * np.abs(modes)
        keys[np.abs(modes) == n // 2] = 0
    else:
        keys = modes * modes
    support = (coeffs != 0).any(axis=1)
    return modes[support], coeffs[support], keys[support], bool(split.all())


@functools.lru_cache(maxsize=8)
def _pair_table(modes: bytes, keys: bytes):
    """Every unordered pair i <= j of a support, sorted by (m, psi), and its key groups.

    ``modes`` and ``keys`` are the bytes of the support's ascending int64
    modes a and keys lam^2*phi_a; the table is free of lam, so the circles
    of one support share it.  Returns read-only arrays: per pair its mode
    indices i, j and weight (1 on the diagonal, 2 for a <-> b); the start
    of each (m, psi) group, closed by the pair count; per group its m and
    key psi = lam^2 (phi_a + phi_b).  Sorted stably, so a group keeps its
    pairs in (i, j) order and an m-chunk is a contiguous slice.
    """
    a, key = np.frombuffer(modes, dtype=np.int64), np.frombuffer(keys, dtype=np.int64)
    i, j = np.triu_indices(a.size)
    m, psi = a[i] + a[j], key[i] + key[j]
    # S_m(t) = sum_k D_k exp(-i psi_k t / lam^2) over the distinct keys psi_k
    order = np.lexsort((psi, m))
    i, j, m, psi = i[order], j[order], m[order], psi[order]
    first = np.flatnonzero(np.r_[True, (m[1:] != m[:-1]) | (psi[1:] != psi[:-1])])
    table = (i, j, np.where(i == j, 1.0, 2.0), np.r_[first, i.size], m[first], psi[first])
    for array in table:
        array.flags.writeable = False
    return table


def _chunk_structure(table, m_lo, m_hi, lam2):
    """The pairs, key groups and lam^2/Omega kernel of m_lo <= m < m_hi.

    A slice of the support's pair table, so one structure serves every row;
    only the padded keys and the kernel, which grows as pairs^2, are formed
    here, per call.  Returns None when no pair falls in the chunk.
    """
    i, j, weight, edges, group_m, group_psi = table
    g_lo, g_hi = np.searchsorted(group_m, (m_lo, m_hi))
    if g_lo == g_hi:
        return None
    p_lo, p_hi = edges[g_lo], edges[g_hi]
    first = edges[g_lo:g_hi] - p_lo
    m, psi = group_m[g_lo:g_hi], group_psi[g_lo:g_hi]
    # one zero-padded row of keys per m
    starts = np.flatnonzero(np.r_[True, m[1:] != m[:-1]])
    sizes = np.diff(np.r_[starts, m.size])
    row = np.repeat(np.arange(sizes.size), sizes)
    col = np.arange(m.size) - np.repeat(starts, sizes)
    psi_rows = np.zeros((sizes.size, sizes.max()), dtype=np.int64)
    psi_rows[row, col] = psi
    omega = psi_rows[:, :, None] - psi_rows[:, None, :]
    inv = np.divide(lam2, omega, out=np.zeros(omega.shape), where=omega != 0)
    return (i[p_lo:p_hi], j[p_lo:p_hi], weight[p_lo:p_hi], first, psi, row, col, inv,
            m[starts] > 0)


def _chunk_sums(chunk, coeffs, horizon, lam2, real_rows) -> np.ndarray:
    """Per column of coeffs, the sum over the chunk's m of w_m * integral_0^T |S_m(t)|^2 dt."""
    i, j, weight, first, psi, row, col, inv, positive = chunk
    d = np.add.reduceat(weight[:, None] * coeffs[i] * coeffs[j], first, axis=0)
    z = d * np.exp(-1j * (horizon / lam2) * psi)[:, None]
    # columns D, z of row 0, then of row 1, ...: one kernel product for the stack
    dz = np.stack((d, z), axis=-1).reshape(psi.size, -1)
    re = np.zeros(inv.shape[:2] + dz.shape[1:])
    im = np.zeros(re.shape)
    re[row, col], im[row, col] = dz.real, dz.imag
    # kernel (D inv D* - z inv z*) / i with inv = 1 / Omega off resonance;
    # inv is real antisymmetric, so W inv W* = 2i Im(W)^T inv Re(W)
    forms = np.sum(im * (inv @ re), axis=1)
    per_m = 2.0 * (forms[:, 0::2] - forms[:, 1::2])
    # the resonant part: distinct keys within one m, so only the diagonal
    bins = (row[:, None] * d.shape[1] + np.arange(d.shape[1])).ravel()
    per_m += horizon * np.bincount(bins, weights=(d.real ** 2 + d.imag ** 2).ravel(),
                                   minlength=per_m.size).reshape(per_m.shape)
    if real_rows:  # S_{-m} = conj(S_m): m > 0 stands for both
        per_m[positive] *= 2.0
    return np.ascontiguousarray(per_m.T).sum(axis=1)


def _resonance_integrals(grid: PeriodicGrid, rows: np.ndarray, horizon: float,
                         kind: str) -> np.ndarray:
    """integral_0^T ||V(t) f||_{L^4}^4 dt of each coefficient row, chunked over m and rows."""
    modes, coeffs, keys, real_rows = _wave_stack(grid, rows, kind)
    totals = np.zeros(len(rows))
    if modes.size == 0:
        return totals
    lam2 = grid.lam ** 2
    table = _pair_table(modes.tobytes(), keys.tobytes())
    # sizes by the comment at _EXACT_ENTRIES: the widest stack that a chunk
    # of _MIN_WIDTH values of m holds, then the widest chunk for that stack
    pairs = (modes.size + 1) // 2
    stack = min(len(rows), max(1, (_EXACT_ENTRIES // (_MIN_WIDTH * pairs) - pairs)
                               // _ROW_ENTRIES))
    width = max(_MIN_WIDTH, _EXACT_ENTRIES // (pairs * (pairs + _ROW_ENTRIES * stack)))
    m_first = 0 if real_rows else 2 * int(modes[0])
    for m_lo in range(m_first, 2 * int(modes[-1]) + 1, width):
        chunk = _chunk_structure(table, m_lo, m_lo + width, lam2)
        if chunk is None:
            continue
        for r in range(0, len(rows), stack):
            totals[r: r + stack] += _chunk_sums(chunk, coeffs[:, r: r + stack], horizon,
                                                lam2, real_rows)
    return grid.circumference * totals


def strichartz_norms(fields, horizon: float, kind: str = "bo_group") -> list[float]:
    """Mixed norms (integral_0^T ||V(t) f||_{L^4}^4 dt)^(1/4) of a stack of fields.

    The fields share one grid; real and complex ones may mix.  Evaluated
    exactly by the resonance sum (module docstring) over the union of the
    fields' supports, each row with the Nyquist convention of the padded
    transforms.  A field with a NaN or infinite coefficient is refused by
    name, a grid whose lam ** 2 (the scale of the resonance keys) overflows
    a float or underflows to zero by the rule of ``lam``, and a stack whose
    norms overflow a float by ``_refusing_overflow``.
    The rows are stacked once, and every check and the sum read that
    stack.  The pairs and key groups of the union support come from one
    cached pair table, each m-chunk's kernel is built once and applied to
    every row; ``_EXACT_ENTRIES`` bounds a chunk's kernel plus every array
    its rows' sums hold at once, with a floor of ``_MIN_WIDTH`` values of m
    per chunk, so a large stack is cut into stacks of fewer rows.  No
    fields give [].
    """
    _check_values(_RULES, horizon=horizon)
    _KIND.check("kind", kind)
    fields = list(fields)
    if not fields:
        return []
    grid = _check_one_grid(fields, "strichartz_norms")
    _Rule(lambda v: _finite(v * v) and v * v != 0,
          "such that lam ** 2 is finite and nonzero").check("lam", grid.lam)
    rows = np.array([f.coeffs for f in fields])
    _check_finite(rows, "strichartz_norms")
    totals = _refusing_overflow("the strichartz norm", rows,
                                lambda: _resonance_integrals(grid, rows, horizon, kind))
    return [float(total) ** 0.25 for total in totals.tolist()]


def strichartz_norm(f: SpectralField, horizon: float, kind: str = "bo_group") -> float:
    """Mixed norm (integral_0^T ||V(t) f||_{L^4}^4 dt)^(1/4) of one field.

    The one-row case of ``strichartz_norms``: the union support is the
    field's own, and the chunk bound counts one row.
    """
    return strichartz_norms([f], horizon, kind)[0]
