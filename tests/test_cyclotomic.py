import random
from fractions import Fraction

import pytest
import sympy

from permpoly.cyclotomic import (
    cyclo,
    cyclo_rational,
    cyclotomic_polynomial,
    root_log,
    root_order,
)


def test_polynomial_known_values():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_polynomial_matches_sympy():
    x = sympy.Symbol("x")
    for m in range(1, 31):
        ours = cyclotomic_polynomial(m)
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        assert ours == list(reversed(theirs))


def test_field_degree_is_totient():
    for m in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15):
        assert len(cyclo(m).coeffs) == sympy.totient(m)


def test_root_satisfies_its_polynomial():
    for m in (1, 2, 3, 4, 5, 6, 8, 12, 15):
        z = cyclo(m)
        acc = cyclo_rational(m, 0)
        zk = cyclo_rational(m, 1)
        for c in cyclotomic_polynomial(m):
            acc = acc + c * zk
            zk = zk * z
        assert acc == 0


def test_power_arithmetic():
    rng = random.Random(23)
    for m in (2, 3, 4, 6, 8, 12):
        assert cyclo(m, m) == 1
        for _ in range(10):
            a, b = rng.randrange(2 * m), rng.randrange(2 * m)
            assert cyclo(m, a) * cyclo(m, b) == cyclo(m, a + b)


def test_root_sum_vanishes():
    for m in (2, 3, 4, 5, 6, 8, 12):
        total = cyclo_rational(m, 0)
        for k in range(m):
            total = total + cyclo(m, k)
        assert total == 0


def test_is_rational():
    assert cyclo(5, 0).is_rational() == 1
    assert cyclo(4, 1).is_rational() is None
    assert cyclo(2, 1) == -1
    assert cyclo(3, 1) + cyclo(3, 2) == -1
    assert cyclo(4, 1) + cyclo(4, 3) == 0
    assert (cyclo(8) * cyclo(8, 7)).is_rational() == 1


def test_root_log_round_trip():
    for m in (1, 2, 6, 8, 12):
        for k in range(m):
            assert root_log(cyclo(m, k)) == k
    assert root_log(2 * cyclo(12)) is None
    assert root_log(cyclo_rational(12, 1) + cyclo(12)) is None


def test_root_order():
    assert root_order(12, 0) == 1
    assert root_order(12, 4) == 3
    assert root_order(12, 8) == 3
    assert root_order(8, 6) == 4
    for k in range(12):
        o = root_order(12, k)
        z = cyclo(12, k)
        acc = cyclo_rational(12, 1)
        seen_one_early = False
        for _ in range(o - 1):
            acc = acc * z
            seen_one_early = seen_one_early or acc == 1
        assert not seen_one_early
        assert acc * z == 1


def test_mixed_conductors_raise():
    with pytest.raises(ValueError):
        cyclo(3) + cyclo(4)
    with pytest.raises(ValueError):
        cyclo(3) * cyclo(4)


def test_rational_coercion():
    z = cyclo(4)
    assert Fraction(1, 2) + z == z + Fraction(1, 2)
    assert 2 * z == z + z
