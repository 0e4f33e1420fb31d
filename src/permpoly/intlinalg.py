"""Integer lattice computations on one elimination, the Hermite form.

Row style throughout: the rows of a matrix generate a sublattice of
Z^n, and hermite_form returns the canonical basis of that lattice
(positive pivots, entries above each pivot reduced into [0, pivot)).
Only the lattice layer (polytopes.lattice_structure and
point_membership) calls it.

The saturation is read off the rank-r Hermite basis H through the dual
of the lattice in Z^r spanned by H's columns (see saturation).  Every
entry must equal an integer: any other raises ValueError.
"""

from __future__ import annotations


def _check_int_rows(rows):
    """The rows as fresh lists of ints; ValueError on any entry that is
    not equal to an integer."""
    m = []
    for row in rows:
        ints = [int(x) for x in row]
        if ints != list(row):
            raise ValueError("matrix entries must be integers, got %r"
                             % (list(row),))
        m.append(ints)
    return m


def hermite_form(rows):
    """Canonical row-style Hermite normal form; zero rows are dropped."""
    m = _check_int_rows(rows)
    if not m:
        return []
    return [row for row in _hermite_left_block(m, len(m[0])) if any(row)]


def _hermite_left_block(m, ncols):
    """Row-style Hermite reduction of m in place, pivoting only in the
    first ncols columns; rows past the rank end up zero there."""
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
        # chain gcd row operations to leave a single nonzero entry in
        # column c at row r
        for i in range(r + 1, len(m)):
            while m[i][c]:
                q = m[r][c] // m[i][c]
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m


def saturation(rows):
    """Hermite basis of span_Q(rows) intersected with Z^ncols.

    With H the rank-r Hermite basis of the rows and K the r x r Hermite
    basis of the lattice C in Z^r spanned by H's columns, cH is integral
    iff c lies in the dual lattice C*, whose basis is the rows of
    K^-T = adj(K)^T / det K.  When det K = 1 (all pivots 1, so K = I)
    H is already saturated.  Otherwise the rows Y = adj(K)^T H / det K
    are found by forward substitution through the lower triangular K^T,
    each division checked to be exact, and their Hermite form returned.
    """
    h = hermite_form(rows)
    if not h:
        return []
    # C is spanned by H's distinct columns
    k = hermite_form(set(zip(*h)))
    if all(k[i][i] == 1 for i in range(len(h))):
        return h
    y = []
    for i, row in enumerate(h):
        acc = row
        for j in range(i):
            if k[j][i]:
                acc = [a - k[j][i] * b for a, b in zip(acc, y[j])]
        piv = k[i][i]
        if any(a % piv for a in acc):
            raise RuntimeError("dual-lattice row %d is not integral" % i)
        y.append([a // piv for a in acc])
    return hermite_form(y)


def solve_in_lattice(hermite_rows, target):
    """Integer coefficients c with c @ hermite_rows == target, else None.

    hermite_rows must be a Hermite basis (echelon, positive pivots);
    the target must be integral and as long as its rows.
    """
    if not hermite_rows:
        return [] if not any(target) else None
    ncols = len(hermite_rows[0])
    if len(target) != ncols:
        raise ValueError("target has length %d, lattice rows have %d"
                         % (len(target), ncols))
    pivots = []
    for row in hermite_rows:
        for j in range(ncols):
            if row[j]:
                pivots.append(j)
                break
    (residue,) = _check_int_rows([target])
    coeffs = []
    for row, p in zip(hermite_rows, pivots):
        if residue[p] % row[p]:
            return None
        q = residue[p] // row[p]
        coeffs.append(q)
        if q:
            residue = [a - q * b for a, b in zip(residue, row)]
    if any(residue):
        return None
    return coeffs
