import pytest

from permpoly import FiniteGroup, PermRep
from permpoly.scenarios import klein_volume_reps, main_example_reps


def build(gens, degree, label=None):
    return FiniteGroup.from_cycle_strings(gens, degree, label=label)


@pytest.fixture(scope="session")
def klein():
    return build(["(1 2)", "(3 4)"], 4, "klein")


@pytest.fixture(scope="session")
def z4():
    return build(["(1 2 3 4)"], 4, "z4")


@pytest.fixture(scope="session")
def s3():
    return build(["(1 2)", "(1 2 3)"], 3, "s3")


@pytest.fixture(scope="session")
def s4():
    return build(["(1 2)", "(1 2 3 4)"], 4, "s4")


@pytest.fixture(scope="session")
def a4():
    return build(["(1 2 3)", "(2 3 4)"], 4, "a4")


@pytest.fixture(scope="session")
def d4():
    return build(["(1 2 3 4)", "(1 3)"], 4, "d4")


@pytest.fixture(scope="session")
def d6():
    return build(["(1 2 3 4 5 6)", "(2 6)(3 5)"], 6, "d6")


@pytest.fixture(scope="session")
def q8():
    return build(["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8, "q8")


@pytest.fixture(scope="session")
def q16():
    """Generalized quaternion group of order 16, regular."""
    return build(["(1 2 3 4 5 6 7 8)(9 10 11 12 13 14 15 16)",
                  "(1 9 5 13)(2 16 6 12)(3 15 7 11)(4 14 8 10)"], 16, "q16")


@pytest.fixture(scope="session")
def dic12():
    """Dicyclic group Z3 x| Z4 of order 12 on 3 + 4 points."""
    return build(["(1 2 3)", "(2 3)(4 5 6 7)"], 7, "dic12")


@pytest.fixture(scope="session")
def a5():
    return build(["(1 2 3 4 5)", "(3 4 5)"], 5, "a5")


@pytest.fixture(scope="session")
def klein_pair():
    """Regular degree-4 and stably equivalent degree-6 Klein reps."""
    _, rep1, rep2 = klein_volume_reps()
    return rep1, rep2


@pytest.fixture(scope="session")
def main_pair():
    """The two degree-16 coset-sum reps of the order-48 group."""
    _, rep1, rep2 = main_example_reps()
    return rep1, rep2


@pytest.fixture(scope="session")
def z4_family():
    from permpoly.scenarios import z4_family_reps
    return z4_family_reps()


@pytest.fixture(scope="session")
def small_polytopes(klein, z4, s3, klein_pair, z4_family):
    """Corpus polytopes of dimension <= 4 for exhaustive face checks."""
    from permpoly import build_polytope
    z5 = build(["(1 2 3 4 5)"], 5, "z5")
    reps = [PermRep.natural(klein), PermRep.natural(z4), PermRep.natural(s3),
            PermRep.natural(z5), klein_pair[0], klein_pair[1]] + list(z4_family)
    polys = [build_polytope(r) for r in reps]
    assert all(p.dim <= 4 for p in polys)
    return polys
