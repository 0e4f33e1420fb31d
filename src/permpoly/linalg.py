"""Exact linear algebra over the rationals.

Matrices are dense lists of rows with int or fractions.Fraction entries.
Row reduction runs fraction-free in one integer core, _rref_int, which
returns integer rows with their pivots; pivot_columns and rank read
those rows directly, and no elimination emits a Fraction.  The kernel
basis is read off reduced rows by kernel_from_rref, so a caller that
keeps its reduced rows (reps.AffineKernel) builds the basis only when
it is read.
Everything here is deterministic: row echelon forms pick the first
usable pivot, kernels are emitted in ascending free-column order, so
equal subspaces always produce identical bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

F0 = Fraction(0)
F1 = Fraction(1)


def _integer_row(row):
    """row (ints and Fractions) scaled by the lcm of its denominators."""
    scale = 1
    for x in row:
        if x.denominator != 1:
            scale = lcm(scale, x.denominator)
    if scale == 1:
        return [x.numerator for x in row]
    return [x.numerator * (scale // x.denominator) for x in row]


def _rref_int(rows, ncols):
    """Gauss-Jordan with pivots only in the first ncols columns; later
    columns ride along.  Returns (nonzero integer rows, pivots).

    The caller's rows are left alone.  Each row is scaled to integers
    and elimination is fraction-free, as in Bareiss (Math. Comp. 1968),
    but kept small by gcds instead of his exact divisions: with pivot p
    and entry a = row_i[c], g = gcd(p, a), row_i becomes
    (p/g)*row_i - (a/g)*row_r, and a row scaled by p/g != 1 is divided
    by its content.  Each final row is a nonzero multiple of its row in
    the rational reduced form, which is unique, so dividing by the
    pivot gives exactly that form.
    """
    m = [_integer_row(row) for row in rows]
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
        row_r = m[r]
        p = row_r[c]
        # the pivot row is zero left of column c
        support = [(j, row_r[j]) for j in range(c, total) if row_r[j]]
        for i, row_i in enumerate(m):
            a = row_i[c]
            if not a or i == r:
                continue
            g = gcd(p, a)
            pg, ag = p // g, a // g
            if pg != 1:
                row_i = [x * pg for x in row_i]
            for j, x in support:
                row_i[j] -= ag * x
            if pg != 1:
                content = gcd(*row_i)
                if content > 1:
                    row_i = [x // content for x in row_i]
                m[i] = row_i
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def pivot_columns(rows):
    """The pivot columns of the reduced row echelon form: each column
    not in the span of the columns before it."""
    if not rows:
        return []
    return _rref_int(rows, len(rows[0]))[1]


def rank(rows) -> int:
    """Rank, counted as the pivot columns."""
    return len(pivot_columns(rows))


def kernel_from_rref(red, pivots, ncols):
    """The canonical kernel basis read off rows reduced by _rref_int.

    The basis is the standard one read off the reduced echelon form, one
    vector per free column f: 1 at f and the negated reduced-form
    entries at the pivot columns, scaled to the primitive integer vector
    with a positive entry at f.  Vectors are ordered by free column,
    which makes the basis a canonical invariant of the row space.  Each
    vector is a sorted list of (index, int) pairs; its last pair is its
    free column, since reduced rows vanish left of their pivots.
    """
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        # x_p = -row[f] / row[p] for each row with row[f] != 0, x_f = 1,
        # times the lcm of those pivots, then divided by the content
        terms = [(p, row[f], row[p]) for row, p in zip(red, pivots) if row[f]]
        scale = lcm(*(b for _, _, b in terms))
        entries = [(p, -a * (scale // b)) for p, a, b in terms]
        content = gcd(scale, *(c for _, c in entries))
        if content > 1:
            entries = [(p, c // content) for p, c in entries]
        entries.append((f, scale // content))
        basis.append(entries)
    return basis


def dot(u, v):
    s = F0
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s
