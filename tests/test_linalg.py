import random
from fractions import Fraction

import sympy

from permpoly.linalg import (express_in_rowspace, is_zero_vector, kernel_sparse,
                             mat_vec, rank, rref, rref_with_transform)


def rand_matrix(rng, nrows, ncols, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(ncols)]
            for _ in range(nrows)]


def test_rref_known():
    red, piv = rref([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert piv == [0, 1]
    assert red == [[Fraction(1), Fraction(0), Fraction(-1)],
                   [Fraction(0), Fraction(1), Fraction(2)]]


def test_rref_empty_and_zero():
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])


def test_rref_pivot_columns_are_unit():
    rng = random.Random(11)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        red, piv = rref(m)
        for i, p in enumerate(piv):
            col = [row[p] for row in red]
            assert col[i] == 1
            assert all(col[j] == 0 for j in range(len(red)) if j != i)
        # pivots strictly increase and each row starts at its pivot
        assert piv == sorted(piv)
        for i, p in enumerate(piv):
            assert all(red[i][c] == 0 for c in range(p))


def test_rank_matches_sympy():
    rng = random.Random(23)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == sympy.Matrix(m).rank()


def test_rowspace_preserved():
    rng = random.Random(5)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, piv = rref(m)
        for row in m:
            assert express_in_rowspace(red, piv, row) is not None


def dense(entries, ncols):
    v = [Fraction(0)] * ncols
    for idx, val in entries:
        v[idx] = val
    return v


def test_kernel_annihilates_and_is_complete():
    rng = random.Random(7)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(2, 6))
        r, basis = kernel_sparse(m)
        assert r + len(basis) == len(m[0])
        for entries in basis:
            assert is_zero_vector(mat_vec(m, dense(entries, len(m[0]))))
        assert len(sympy.Matrix(m).nullspace()) == len(basis)


def test_kernel_sparse_matches_dense():
    rng = random.Random(9)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(2, 6))
        r, sparse = kernel_sparse(m)
        assert r == sympy.Matrix(m).rank()
        _, pivots = rref(m)
        free = [c for c in range(len(m[0])) if c not in pivots]
        rebuilt = []
        for entries in sparse:
            assert entries == sorted(entries)
            rebuilt.append(dense(entries, len(m[0])))
        # canonical: 1 at its own free column, 0 at the other free columns
        assert [[v[c] for c in free] for v in rebuilt] == [
            [int(c == f) for c in free] for f in free]
        # sympy's nullspace is the same canonical basis, read off its rref
        expected = [[Fraction(int(x.p), int(x.q)) for x in vec]
                    for vec in sympy.Matrix(m).nullspace()]
        assert rebuilt == expected


def test_rref_with_transform_reconstructs():
    rng = random.Random(13)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, piv, t = rref_with_transform(m)
        assert (red, piv) == rref(m)
        assert len(t) == len(red)
        for row, coeffs in zip(red, t):
            built = [sum(c * m[k][j] for k, c in enumerate(coeffs))
                     for j in range(len(m[0]))]
            assert built == row


def test_express_in_rowspace_rejects_outside():
    red, piv = rref([[1, 0, 0], [0, 1, 0]])
    assert express_in_rowspace(red, piv, [2, 3, 0]) == [2, 3]
    assert express_in_rowspace(red, piv, [0, 0, 1]) is None
