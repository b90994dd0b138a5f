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

``strichartz_norms`` evaluates a stack of fields on one grid at once.  The
pairs, key groups and lam^2/Omega kernel depend on the modes only, so each
chunk of m builds them once, over the union of the rows' supports, and every
row costs only its products C_a C_b, group sums and one kernel product.  The
chunk bound counts the kernel and the rows it is applied to; a stack whose
rows would overflow it on a single m is evaluated in smaller stacks.
``strichartz_norm`` is the one-row case.
"""

from __future__ import annotations

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


# bounds one chunk's padded (m, psi, psi') kernel plus the (m, psi) planes
# of the rows it is applied to at once
_EXACT_ENTRIES = 1 << 18


def _wave_stack(fields, kind: str):
    """Ascending modes a, coefficients C_a (one column per row), keys lam^2*phi_a
    and whether every row is a real bo row.

    Follows the padded transforms' Nyquist convention row by row: real bo
    rows split the slot n/2 into +-n/2 halves (as ``_real_values``), other
    rows keep it whole at +n/2 (as ``_complex_values``); the bo key there is
    0, as in ``group_symbol``.  The modes are the union of the rows'
    supports: a mode is dropped only where every row is zero, and a row that
    is zero at a kept mode adds exact zeros.
    """
    grid = fields[0].grid
    n = grid.n
    rows = np.array([f.coeffs for f in fields])
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


def _chunk_structure(modes, keys, m_lo, m_hi, lam2):
    """The pairs, key groups and lam^2/Omega kernel of m_lo <= m < m_hi.

    Depends on the modes only, so one structure serves every row.  Returns
    None when no pair falls in the chunk.
    """
    idx = np.arange(modes.size)
    # unordered pairs i <= j with m_lo <= a_i + a_j < m_hi (modes ascending)
    lo = np.maximum(np.searchsorted(modes, m_lo - modes), idx)
    hi = np.maximum(np.searchsorted(modes, m_hi - modes), lo)
    counts = hi - lo
    if not counts.any():
        return None
    i = np.repeat(idx, counts)
    j = np.arange(i.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    m = modes[i] + modes[j]
    psi = keys[i] + keys[j]
    # S_m(t) = sum_k D_k exp(-i psi_k t / lam^2) over the distinct keys psi_k
    order = np.lexsort((psi, m))
    i, j, m, psi = i[order], j[order], m[order], psi[order]
    weight = np.where(i == j, 1.0, 2.0)  # a <-> b
    first = np.flatnonzero(np.r_[True, (m[1:] != m[:-1]) | (psi[1:] != psi[:-1])])
    m, psi = m[first], psi[first]
    # one zero-padded row of keys per m
    starts = np.flatnonzero(np.r_[True, m[1:] != m[:-1]])
    sizes = np.diff(np.r_[starts, m.size])
    row = np.repeat(np.arange(sizes.size), sizes)
    col = np.arange(m.size) - np.repeat(starts, sizes)
    psi_rows = np.zeros((sizes.size, sizes.max()), dtype=np.int64)
    psi_rows[row, col] = psi
    omega = psi_rows[:, :, None] - psi_rows[:, None, :]
    inv = np.divide(lam2, omega, out=np.zeros(omega.shape), where=omega != 0)
    return i, j, weight, first, psi, row, col, inv, m[starts] > 0


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


def _resonance_integrals(fields, horizon: float, kind: str) -> np.ndarray:
    """integral_0^T ||V(t) f||_{L^4}^4 dt of each field, chunked over m and rows."""
    modes, coeffs, keys, real_rows = _wave_stack(fields, kind)
    totals = np.zeros(len(fields))
    if modes.size == 0:
        return totals
    lam2 = fields[0].grid.lam ** 2
    # no m has more than (size + 1) // 2 unordered pairs, so one m costs at
    # most pairs^2 kernel entries plus 4 * pairs per row (Re, Im of D and z)
    pairs = (modes.size + 1) // 2
    stack = min(len(fields), max(1, (_EXACT_ENTRIES // pairs - pairs) // 4))
    width = max(1, _EXACT_ENTRIES // (pairs * (pairs + 4 * stack)))
    m_first = 0 if real_rows else 2 * int(modes[0])
    for m_lo in range(m_first, 2 * int(modes[-1]) + 1, width):
        chunk = _chunk_structure(modes, keys, m_lo, m_lo + width, lam2)
        if chunk is None:
            continue
        for r in range(0, len(fields), stack):
            totals[r: r + stack] += _chunk_sums(chunk, coeffs[:, r: r + stack], horizon,
                                                lam2, real_rows)
    return fields[0].grid.circumference * totals


def strichartz_norms(fields, horizon: float, kind: str = "bo_group") -> list[float]:
    """Mixed norms (integral_0^T ||V(t) f||_{L^4}^4 dt)^(1/4) of a stack of fields.

    The fields share one grid; real and complex ones may mix.  Evaluated
    exactly by the resonance sum (module docstring) over the union of the
    fields' supports, each row with the Nyquist convention of the padded
    transforms.  A field with a NaN or infinite coefficient is refused by
    name, a grid whose lam ** 2 (the scale of the resonance keys) overflows
    a float by the rule of ``lam``, and a stack whose norms overflow a float
    by ``_refusing_overflow``.
    The pairs, key groups and kernel of each m-chunk are built once and
    applied to every row; ``_EXACT_ENTRIES`` bounds a chunk's kernel plus
    the planes of the rows it meets, so a large stack is cut into stacks of
    fewer rows.  No fields give [].
    """
    _check_values(_RULES, horizon=horizon)
    _KIND.check("kind", kind)
    fields = list(fields)
    if not fields:
        return []
    _check_one_grid(fields, "strichartz_norms")
    _Rule(lambda v: _finite(v * v), "such that lam ** 2 is finite").check(
        "lam", fields[0].grid.lam)
    coeffs = [f.coeffs for f in fields]
    _check_finite(coeffs, "strichartz_norms")
    totals = _refusing_overflow("the strichartz norm", coeffs,
                                lambda: _resonance_integrals(fields, horizon, kind))
    return [float(total) ** 0.25 for total in totals.tolist()]


def strichartz_norm(f: SpectralField, horizon: float, kind: str = "bo_group") -> float:
    """Mixed norm (integral_0^T ||V(t) f||_{L^4}^4 dt)^(1/4) of one field.

    The one-row case of ``strichartz_norms``: the union support is the
    field's own, and the chunk bound counts one row.
    """
    return strichartz_norms([f], horizon, kind)[0]
