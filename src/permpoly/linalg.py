"""Exact linear algebra over the rationals.

Matrices are dense lists of rows, entries fractions.Fraction (ints are
coerced).  Everything here is deterministic: row echelon forms pick the
first usable pivot, kernels are emitted in ascending free-column order,
so equal subspaces always produce identical bases.
"""

from __future__ import annotations

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


def as_fraction_rows(rows):
    return [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped, pivot
    entries are 1 and are the only nonzero entries in their columns.
    """
    m = as_fraction_rows(rows)
    if not m:
        return [], []
    return _rref(m, len(m[0]))


def rref_with_transform(rows):
    """rref plus the transform T with reduced = T @ rows (T is rank x nrows)."""
    n = len(rows)
    if n == 0:
        return [], [], []
    ncols = len(rows[0])
    aug = [list(row) + [F1 if j == i else F0 for j in range(n)]
           for i, row in enumerate(as_fraction_rows(rows))]
    red, pivots = _rref(aug, ncols)
    reduced = [row[:ncols] for row in red]
    transform = [row[ncols:] for row in red]
    return reduced, pivots, transform


def _rref(m, ncols):
    """Gauss-Jordan on m in place with pivots only in the first ncols
    columns; later columns ride along.  Returns (nonzero rows, pivots)."""
    total = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = F1 / m[r][c]
        if inv != 1:
            m[r] = [x * inv for x in m[r]]
        row_r = m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                row_i = m[i]
                # the pivot row is zero left of column c
                for j in range(c, total):
                    if row_r[j]:
                        row_i[j] -= f * row_r[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def kernel_sparse(rows):
    """Rank of the matrix and a canonical basis of {x : rows @ x = 0}.

    The kernel basis is the standard one read off the reduced echelon
    form: one vector per free column f, with entry 1 at f and the negated
    reduced-form entries at the pivot columns.  Vectors are ordered by
    free column, which makes the basis a canonical invariant of the row
    space.  Each vector is a sorted list of (index, value) pairs.
    """
    if not rows:
        return 0, []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        entries = [(f, F1)]
        for i, p in enumerate(pivots):
            if red[i][f]:
                entries.append((p, -red[i][f]))
        entries.sort()
        basis.append(entries)
    return len(pivots), basis


def express_in_rowspace(reduced, pivots, vec):
    """Coefficients c with c @ reduced == vec, or None if vec is outside.

    reduced must come from rref (pivot columns are unit columns), so the
    candidate coefficients are just vec's entries at the pivots.
    """
    coeffs = [vec[p] if isinstance(vec[p], Fraction) else Fraction(vec[p]) for p in pivots]
    ncols = len(vec)
    for j in range(ncols):
        s = F0
        for i, row in enumerate(reduced):
            if coeffs[i] and row[j]:
                s += coeffs[i] * row[j]
        if s != vec[j]:
            return None
    return coeffs


def mat_vec(rows, vec):
    out = []
    for row in rows:
        s = F0
        for a, b in zip(row, vec):
            if a and b:
                s += a * b
        out.append(s)
    return out


def dot(u, v):
    s = F0
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def is_zero_vector(vec) -> bool:
    return all(not x for x in vec)
