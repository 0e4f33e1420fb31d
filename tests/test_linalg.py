import random
from fractions import Fraction

import sympy
from oracles import (fraction_kernel, fraction_rref, integer_rref,
                     is_zero_vector, kernel_sparse, mat_vec,
                     primitive_integer, rowspace_coords)

from permpoly import FiniteGroup, PermRep
from permpoly.linalg import pivot_columns, rank


def rand_matrix(rng, nrows, ncols, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(ncols)]
            for _ in range(nrows)]


def test_rref_known():
    red, piv = integer_rref([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert piv == [0, 1]
    assert red == [[Fraction(1), Fraction(0), Fraction(-1)],
                   [Fraction(0), Fraction(1), Fraction(2)]]


def test_rref_empty_and_zero():
    assert integer_rref([]) == ([], [])
    assert integer_rref([[0, 0], [0, 0]]) == ([], [])
    assert kernel_sparse([]) == (0, [])
    assert kernel_sparse([[0, 0], [0, 0]]) == (0, [[(0, 1)], [(1, 1)]])


def test_rref_pivot_columns_are_unit():
    rng = random.Random(11)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        red, piv = integer_rref(m)
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
        red, piv = integer_rref(m)
        for row in m:
            assert rowspace_coords(red, piv, row) is not None


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
        _, pivots = integer_rref(m)
        free = [c for c in range(len(m[0])) if c not in pivots]
        for f, entries in zip(free, sparse):
            assert entries == sorted(entries)
            # canonical: positive at its own free column, which comes
            # last, and 0 at the other free columns
            assert entries[-1][0] == f and entries[-1][1] > 0
            assert not set(free) & {i for i, _ in entries[:-1]}
        # sympy's nullspace is the same canonical basis, read off its
        # rref with 1 at the free column, up to primitive integer scale
        expected = [primitive_integer([(i, Fraction(int(x.p), int(x.q)))
                                       for i, x in enumerate(vec) if x])
                    for vec in sympy.Matrix(m).nullspace()]
        assert sparse == expected


def oracle_matrices(rng, count):
    """Seeded matrices for the integer core: 0/1, signed and large ints,
    Fractions and mixtures; zero rows, all-zero matrices, negative
    pivots; tall, square and wide shapes."""
    for k in range(count):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        kind = k % 6
        if kind == 0:
            draw = lambda: rng.randint(0, 1)
        elif kind == 1:
            draw = lambda: rng.randint(-9, 9)
        elif kind == 2:
            draw = lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 9))
        elif kind == 3:
            draw = lambda: rng.choice([0, 0, 0, rng.randint(-10**12, 10**12)])
        elif kind == 4:
            draw = lambda: rng.choice([0, rng.randint(-3, 3),
                                       Fraction(rng.randint(-3, 3), 7)])
        else:
            draw = lambda: 0
        m = [[draw() for _ in range(ncols)] for _ in range(nrows)]
        if kind != 5 and rng.random() < 0.3:
            m[rng.randrange(nrows)] = [0] * ncols
        if rng.random() < 0.3:
            m[0][0] = -rng.randint(1, 5)  # a negative first pivot
        yield m


def check_against_oracle(m):
    """kernel_sparse is fraction_kernel scaled to primitive integers, the
    integer core's rows divided by their pivots are fraction_rref, and
    pivot_columns are its pivots."""
    snapshot = [list(row) for row in m]
    reduced = fraction_rref(m)
    rank_, basis = fraction_kernel(*reduced, len(m[0]))
    expected = (rank_, [primitive_integer(v) for v in basis])
    for rows in (m, tuple(tuple(row) for row in m)):
        kernel = kernel_sparse(rows)
        assert kernel == expected
        assert integer_rref(rows) == reduced
        assert pivot_columns(rows) == reduced[1]
        assert all(type(x) is int for entries in kernel[1] for _, x in entries)
        # the caller's rows are never touched
        assert [list(row) for row in m] == snapshot
        assert all(type(x) is type(y) for row, old in zip(m, snapshot)
                   for x, y in zip(row, old))


def test_integer_core_matches_fraction_oracle():
    rng = random.Random(1968)
    for m in oracle_matrices(rng, 3000):
        check_against_oracle(m)
    check_against_oracle([[0, 0, 0], [0, 0, 0]])


def test_integer_core_matches_oracle_on_group_systems():
    """Affine-kernel constraint rows and difference rows of natural A5,
    S5, A6 and the order-48 group Z2 x Z2 x Z4 x Z3."""
    specs = [(["(1 2 3 4 5)", "(3 4 5)"], 5), (["(1 2 3 4 5)", "(1 2)"], 5),
             (["(1 2 3 4 5)", "(4 5 6)"], 6),
             (["(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"], 11)]
    for gens, degree in specs:
        rep = PermRep.natural(FiniteGroup.from_cycle_strings(gens, degree))
        verts = rep.vertices
        constraints = [[1] * len(verts)] + [[v[k] for v in verts]
                                            for k in range(degree ** 2)]
        differences = [[a - b for a, b in zip(v, verts[0])]
                       for v in verts[1:]]
        for m in (constraints, differences):
            reduced = fraction_rref(m)
            assert integer_rref(m) == reduced
            assert pivot_columns(m) == reduced[1]
            rank_, basis = fraction_kernel(*reduced, len(m[0]))
            assert kernel_sparse(m) == (
                rank_, [primitive_integer(v) for v in basis])
