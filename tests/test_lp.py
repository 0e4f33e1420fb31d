import random
from fractions import Fraction

import pytest

from permpoly import lp
from permpoly.lp import LPError, maximize


def test_maximize_known_optimum():
    # max x + y subject to x + y + s = 1
    val, x, _ = maximize([[1, 1, 1]], [1], [1, 1, 0])
    assert val == 1
    assert sum(a * b for a, b in zip([1, 1, 1], x)) == 1
    assert all(v >= 0 for v in x)


def test_maximize_infeasible():
    # x + y = -1 with x, y >= 0
    assert maximize([[1, 1]], [-1], [1, 0]) is None


def test_maximize_unbounded():
    with pytest.raises(LPError):
        maximize([[1, -1]], [0], [1, 0])


def test_maximize_transport_square():
    # doubly stochastic 2x2: four entries, row/col sums 1, max trace = 2
    rows = [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
    ]
    val, x, _ = maximize(rows, [1, 1, 1], [1, 0, 0, 1])
    assert val == 2
    assert x == [1, 0, 0, 1]


def test_maximize_random_feasible_systems():
    rng = random.Random(61)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(m)]
        rhs = [sum(r * v for r, v in zip(row, x0)) for row in rows]
        obj = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        try:
            out = maximize(rows, rhs, obj)
        except LPError:
            continue  # unbounded direction exists; nothing to verify
        assert out is not None, "a feasible point exists by construction"
        val, x, y = out
        assert all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum(r * v for r, v in zip(row, x)) == b
        assert val >= sum(o * v for o, v in zip(obj, x0))
        assert val == sum(o * v for o, v in zip(obj, x))
        assert_dual_certificate(rows, rhs, obj, val, y)


def assert_dual_certificate(rows, rhs, obj, val, y):
    """y @ rows >= obj componentwise and y . rhs = val, checked here
    independently of maximize's own guard."""
    assert len(y) == len(rows)
    for j, c in enumerate(obj):
        assert sum(yi * row[j] for yi, row in zip(y, rows)) >= c
    assert sum(yi * b for yi, b in zip(y, rhs)) == val


def test_maximize_random_duals_with_redundant_rows():
    # rows that repeat or combine others, and rows whose rhs is negative
    rng = random.Random(29)
    checked = 0
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(2, 6)
        x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(m)]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.randint(-2, 2)
            rows.append([u + k * v for u, v in zip(a, b)])
        rng.shuffle(rows)
        rhs = [sum(r * v for r, v in zip(row, x0)) for row in rows]
        obj = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        try:
            out = maximize(rows, rhs, obj)
        except LPError:
            continue  # unbounded
        val, x, y = out
        assert all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum(r * v for r, v in zip(row, x)) == b
        assert val == sum(o * v for o, v in zip(obj, x))
        assert_dual_certificate(rows, rhs, obj, val, y)
        checked += 1
    assert checked > 100


def test_maximize_without_rows():
    # no constraints: x = 0 is optimal for a nonpositive objective, with
    # the empty dual; a positive entry is unbounded
    assert maximize([], [], [0, -1]) == (0, [0, 0], [])
    with pytest.raises(LPError):
        maximize([], [], [0, 1])


def test_maximize_checks_its_optimum(monkeypatch):
    # stop phase 2 before its first pivot: x is feasible but not optimal,
    # so its dual fails, and maximize must refuse to return it
    rows, rhs, obj = [[1, 1, 1]], [1], [1, 2, 0]
    assert maximize(rows, rhs, obj)[0] == 2
    real = lp._bland_max
    calls = []

    def phase1_only(tab, z, basis, width):
        calls.append(width)
        if len(calls) == 1:
            real(tab, z, basis, width)

    monkeypatch.setattr(lp, "_bland_max", phase1_only)
    with pytest.raises(LPError):
        maximize(rows, rhs, obj)


# the barycenter LP of a vertex set S of the unit square: weights on the
# four vertices reaching S's barycenter, maximizing the weight off S
SQUARE = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}


def barycenter_lp(inside):
    rows = [[1] * 4, [SQUARE[v][0] for v in range(4)],
            [SQUARE[v][1] for v in range(4)]]
    rhs = [1] + [Fraction(sum(SQUARE[v][k] for v in inside), len(inside))
                 for k in range(2)]
    obj = [0 if v in inside else 1 for v in range(4)]
    val, x, y = maximize(rows, rhs, obj)
    assert_dual_certificate(rows, rhs, obj, val, y)
    return val, x, y


def assert_dual_separates(inside, y):
    # y0 + w.p is 0 on S and >= 1 off it: -w with offset y0 separates
    y0, w1, w2 = y
    for v, (px, py) in SQUARE.items():
        level = y0 + w1 * px + w2 * py
        if v in inside:
            assert level == 0
        else:
            assert level >= 1


def test_separation_square_edge():
    val, _, y = barycenter_lp([0, 1])
    assert val == 0
    assert_dual_separates([0, 1], y)


def test_separation_square_diagonal_fails():
    # the diagonal's midpoint is also the other diagonal's
    val, x, _ = barycenter_lp([0, 3])
    assert val == 1
    assert x == [0, Fraction(1, 2), Fraction(1, 2), 0]


def test_separation_single_vertex():
    for v in range(4):
        val, _, y = barycenter_lp([v])
        assert val == 0
        assert_dual_separates([v], y)


def test_separation_whole_set_is_improper_face():
    # nothing lies off S: the dual is tight on every vertex
    val, _, y = barycenter_lp([0, 1, 2, 3])
    assert val == 0
    assert_dual_separates([0, 1, 2, 3], y)
