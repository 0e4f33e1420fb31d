import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from oracles import double_kernel_saturation, integer_kernel
from permpoly.intlinalg import hermite_form, saturation, solve_in_lattice


def rand_rows(rng, nrows, ncols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_hermite_form_known():
    assert hermite_form([[2, 4], [4, 2]]) == [[2, 4], [0, 6]]
    assert hermite_form([[0, 0], [0, 0]]) == []
    assert hermite_form([[0, 3]]) == [[0, 3]]
    assert hermite_form([[-1, 0], [0, -1]]) == [[1, 0], [0, 1]]


def test_hermite_form_is_echelon_with_reduced_columns():
    rng = random.Random(3)
    for _ in range(50):
        m = rand_rows(rng, rng.randint(1, 5), rng.randint(1, 5))
        h = hermite_form(m)
        pivots = []
        for row in h:
            p = next(j for j, v in enumerate(row) if v)
            assert row[p] > 0
            if pivots:
                assert p > pivots[-1]
            pivots.append(p)
        for i, p in enumerate(pivots):
            for k in range(i):
                assert 0 <= h[k][p] < h[i][p]


def test_hermite_form_spans_same_lattice_as_sympy():
    rng = random.Random(17)
    for _ in range(40):
        m = rand_rows(rng, rng.randint(1, 4), rng.randint(1, 4))
        mine = hermite_form(m)
        if not mine:
            assert all(all(v == 0 for v in row) for row in m)
            continue
        # sympy is column-style: transpose in and out
        theirs = hermite_normal_form(sympy.Matrix(m).T).T.tolist()
        for row in theirs:
            assert solve_in_lattice(mine, list(row)) is not None
        for row in mine:
            assert solve_in_lattice(hermite_form(theirs), row) is not None


def test_integer_kernel_is_saturated_and_complete():
    rng = random.Random(41)
    for _ in range(40):
        m = rand_rows(rng, rng.randint(1, 4), rng.randint(1, 5))
        k = integer_kernel(m)
        for v in k:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
        assert len(k) == len(m[0]) - sympy.Matrix(m).rank()
        if k:
            snf = smith_normal_form(sympy.Matrix(k))
            assert all(abs(snf[i, i]) == 1 for i in range(len(k)))


def test_saturation_contains_rows_with_finite_index():
    rng = random.Random(43)
    for _ in range(40):
        m = rand_rows(rng, rng.randint(1, 4), rng.randint(1, 5))
        s = saturation(m)
        for row in m:
            assert solve_in_lattice(s, row) is not None
        if s:
            # saturated lattices are their own saturation
            assert saturation(s) == s


def test_saturation_matches_the_double_kernel_oracle():
    """Zero, rank-deficient and full-rank matrices, many of index > 1
    in their saturation."""
    rng = random.Random(59)
    seen = {"zero": 0, "deficient": 0, "full": 0, "index>1": 0}
    for _ in range(400):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        m = [[rng.randint(-3, 3) * rng.choice((1, 2, 3)) for _ in range(ncols)]
             for _ in range(nrows)]
        if m and rng.random() < 0.2:
            m = [[0] * ncols for _ in m]
        if len(m) > 1 and rng.random() < 0.4:
            m[-1] = [2 * a - b for a, b in zip(m[0], m[1])]
        sat = saturation(m)
        assert sat == double_kernel_saturation(m)
        rank = len(hermite_form(m))
        if rank == 0:
            seen["zero"] += 1
            continue
        seen["full" if rank == ncols else "deficient"] += 1
        coords = [solve_in_lattice(sat, row) for row in hermite_form(m)]
        if abs(sympy.Matrix(coords).det()) > 1:
            seen["index>1"] += 1
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("call, rows", [
    (hermite_form, [[Fraction(1, 2), 1]]),
    (saturation, [[Fraction(1, 2), 0]]),
], ids=["hermite_form", "saturation"])
def test_non_integer_entries_are_rejected(call, rows):
    with pytest.raises(ValueError):
        call(rows)
    # entries equal to integers are taken as those integers
    assert call([[Fraction(4, 2) if x else 0.0 for x in row] for row in rows]) \
        == call([[2 if x else 0 for x in row] for row in rows])


def test_solve_in_lattice_round_trip():
    rng = random.Random(47)
    for _ in range(40):
        h = hermite_form(rand_rows(rng, rng.randint(1, 4), 5))
        if not h:
            continue
        coeffs = [rng.randint(-3, 3) for _ in h]
        target = [sum(c * row[j] for c, row in zip(coeffs, h))
                  for j in range(5)]
        assert solve_in_lattice(h, target) == coeffs


def test_solve_in_lattice_rejects_non_members():
    h = hermite_form([[2, 0], [0, 2]])
    assert solve_in_lattice(h, [1, 0]) is None
    assert solve_in_lattice(h, [2, 2]) == [1, 1]
    assert solve_in_lattice([], [0, 0]) == []
    assert solve_in_lattice([], [1, 0]) is None


def test_solve_in_lattice_checks_the_target():
    for target in ([1, 0, 5], [1], [Fraction(1, 2), 0]):
        with pytest.raises(ValueError):
            solve_in_lattice([[1, 0]], target)


def test_index_equals_product_of_divisors():
    # index of the row lattice inside its saturation
    rng = random.Random(53)
    for _ in range(30):
        m = rand_rows(rng, 3, 3)
        d = int(sympy.Matrix(m).det())
        if d == 0:
            continue
        sat = saturation(m)
        coords = [solve_in_lattice(sat, row) for row in hermite_form(m)]
        assert all(c is not None for c in coords)
        assert abs(sympy.Matrix(coords).det()) == abs(d)
