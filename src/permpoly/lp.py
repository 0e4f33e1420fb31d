"""Exact linear programming over the rationals (tableau simplex, Bland's rule).

One solver, maximize: two-phase simplex for max c.x subject to A x = b,
x >= 0.  It returns an optimal dual y alongside the optimal x, read off
the artificial columns of phase 1, which phase 2 keeps as B^-1 and
never lets enter.  Before it returns, maximize checks both exactly
(A x = b, x >= 0, y A >= c, c.x = y.b), so each optimum is a certificate:
x is a feasible point reaching the value and y bounds every feasible
point by it.

Bland's anti-cycling pivot (lowest eligible index on entry and exit)
keeps every run finite and deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import F0, F1, dot


class LPError(Exception):
    pass


def _pivot(tab, z, basis, r, c):
    row = tab[r]
    inv = F1 / row[c]
    if inv != 1:
        tab[r] = row = [x * inv for x in row]
    width = len(row)
    for i, other in enumerate(tab):
        if i != r and other[c]:
            f = other[c]
            tab[i] = [a - f * b if b else a for a, b in zip(other, row)]
    if z[c]:
        f = z[c]
        for j in range(width):
            if row[j]:
                z[j] -= f * row[j]
    basis[r] = c


def _bland_max(tab, z, basis, width):
    """Maximize with reduced-cost row z (last entry = -objective value);
    only the first width columns may enter."""
    while True:
        enter = None
        for j in range(width):
            if z[j] > 0:
                enter = j
                break
        if enter is None:
            return
        leave = None
        best = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise LPError("unbounded objective")
        _pivot(tab, z, basis, leave, enter)


def _reduced_costs(tab, basis, obj, width):
    z = list(obj) + [F0] * (width - len(obj)) + [F0]
    for i, b in enumerate(basis):
        if z[b]:
            f = z[b]
            row = tab[i]
            for j in range(width + 1):
                if row[j]:
                    z[j] -= f * row[j]
    return z


def _drive_out_artificials(tab, basis, n_real):
    """Pivot zero-valued artificial basics onto real columns; drop the
    rows of redundant constraints."""
    i = 0
    while i < len(tab):
        if basis[i] >= n_real:
            col = None
            for j in range(n_real):
                if tab[i][j]:
                    col = j
                    break
            if col is None:
                if tab[i][-1]:
                    raise LPError("inconsistent artificial row")
                del tab[i]
                del basis[i]
                continue
            zdummy = [F0] * (len(tab[i]))
            _pivot(tab, zdummy, basis, i, col)
        i += 1


def _check_optimum(rows, rhs, obj, x, y, value):
    """Raise LPError unless x and y are feasible and both reach value."""
    if any(v < 0 for v in x) or any(dot(row, x) != b
                                    for row, b in zip(rows, rhs)):
        raise LPError("primal solution fails its check")
    ya = [F0] * len(obj)
    for yi, row in zip(y, rows):
        if yi:
            for j, a in enumerate(row):
                if a:
                    ya[j] += yi * a
    if any(s < c for s, c in zip(ya, obj)):
        raise LPError("dual solution fails its check")
    if dot(obj, x) != value or dot(y, rhs) != value:
        raise LPError("primal and dual objectives disagree")


def maximize(eq_rows, rhs, obj):
    """max obj . x subject to eq_rows @ x = rhs, x >= 0.

    Returns (value, x, y) with y an optimal dual: y @ eq_rows >= obj
    componentwise and y . rhs = value, one entry per row, redundant rows
    included.  Returns None when infeasible.  Raises LPError when the
    objective is unbounded.
    """
    rows = [[Fraction(v) for v in row] for row in eq_rows]
    rhs = [Fraction(v) for v in rhs]
    obj = [Fraction(v) for v in obj]
    m = len(rows)
    n = len(obj)
    tab = []
    basis = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if b < 0:
            row = [-v for v in row]
            b = -b
        art = [F1 if k == i else F0 for k in range(m)]
        tab.append(row + art + [b])
        basis.append(n + i)
    width = n + m
    phase1 = [F0] * n + [Fraction(-1)] * m
    z = _reduced_costs(tab, basis, phase1, width)
    _bland_max(tab, z, basis, width)
    if z[-1] != 0:
        return None
    _drive_out_artificials(tab, basis, n)
    z = _reduced_costs(tab, basis, obj, width)
    _bland_max(tab, z, basis, n)
    x = [F0] * n
    for i, b in enumerate(basis):
        x[b] = tab[i][-1]
    # artificial column i holds column i of B^-1 for the row as entered
    # (negated when its rhs was), so its reduced cost is -y_i
    y = [z[n + i] if b < 0 else -z[n + i] for i, b in enumerate(rhs)]
    value = -z[-1]
    _check_optimum(rows, rhs, obj, x, y, value)
    return value, x, y
