"""Seeded random groups against the brute-force oracles.

Each group is generated by one or two random permutations of degree 1
to 7, with order at most 120, so the draws include trivial, degree-1
and intransitive groups and groups with repeated orbits that no
hand-picked corpus holds.  Three representations of each are checked:
the natural one, a sum of coset actions, and that sum with its points
shuffled, given as a plain action.  Up to order 24 the polytope's chart
is checked against the dense oracles, and its face tests on seeded
subsets against the vertex scan and the LP, with every certificate
verified.
"""

import random

from oracles import (assert_matches_scan, brute_force_orbit_count,
                     check_against_dense, cycle_divisor_loop,
                     cyclotomic_constituents, exhaustive_effectively_equivalent,
                     own_sets_kernel)
from permpoly.characters import (character_table, constituents,
                                 predicted_dimension)
from permpoly.groups import FiniteGroup, Permutation, SizeCapError
from permpoly.polytopes import _is_face_lp, build_polytope, is_face
from permpoly.reps import (PermRep, _action_sets, _incidence_sets,
                           affine_kernel, effectively_equivalent)

SEEDS = (1, 2)
GROUPS_PER_SEED = 200
MAX_ORDER = 120
# effective equivalence, the chart and the face tests are checked against
# their oracles up to here
MAX_SEARCH_ORDER = 24
# seeded vertex subsets of 1 to 6 labels face-tested per representation
FACE_SUBSETS = 2
MAX_SUBGROUP_INDEX = 12


def random_groups(seed):
    rng = random.Random(seed)
    found = 0
    while found < GROUPS_PER_SEED:
        degree = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(1, 2)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(images)
        try:
            group = FiniteGroup.generate(gens, degree=degree, cap=MAX_ORDER)
        except SizeCapError:
            continue
        found += 1
        yield rng, group


def coset_sum(rng, group):
    """The point stabilizers' coset actions, one per orbit of the natural
    action, which make the sum faithful, with up to two coset actions of
    random small-index subgroups, in a shuffled order."""
    bases = {}
    for b in range(group.degree):
        orbit = frozenset(p[b] for p in group.elements)
        bases.setdefault(orbit, b)
    actions = [group.coset_action(group.point_stabilizer(b + 1))
               for b in bases.values()]
    for _ in range(rng.randint(0, 2)):
        sub = group.subgroup(rng.sample(range(group.order),
                                        min(2, group.order)))
        if group.order // sub.order <= MAX_SUBGROUP_INDEX:
            actions.append(group.coset_action(sub))
    rng.shuffle(actions)
    return PermRep.from_coset_actions(group, actions)


def shuffled(rng, rep):
    """rep with its points relabelled by a random sigma, as the plain
    action g -> sigma rep(g) sigma^-1."""
    sigma = list(range(rep.degree))
    rng.shuffle(sigma)
    action = []
    for p in rep.action:
        images = [0] * rep.degree
        for x, y in enumerate(p):
            images[sigma[x]] = sigma[y]
        action.append(Permutation(images))
    return PermRep(rep.group, action)


def check_against_oracles(rep, table):
    assert sorted(_incidence_sets(rep)) == sorted(_action_sets(rep.action))
    kernel, oracle = affine_kernel(rep), own_sets_kernel(rep)
    assert (kernel.rank, kernel.pivots, kernel.sparse_int) == \
        (oracle.rank, oracle.pivots, oracle.sparse_int)
    assert kernel == oracle
    assert rep.cycle_divisors() == cycle_divisor_loop(rep)
    assert rep.orbit_count() == brute_force_orbit_count(rep.action,
                                                        rep.degree)
    cons = constituents(rep, table)
    assert (tuple(cons.multiplicities), tuple(cons.character)) == \
        cyclotomic_constituents(rep, table)
    assert build_polytope(rep).dim == predicted_dimension(rep, table)[0]


def check_faces(rng, rep):
    """The chart against the dense oracles; is_face on seeded subsets
    against the vertex scan (route and certificate, verified) and the
    LP (verdict)."""
    check_against_dense(rep)
    poly = build_polytope(rep)
    order = rep.group.order
    for _ in range(FACE_SUBSETS):
        subset = sorted(rng.sample(range(order), rng.randint(1, min(6, order))))
        assert_matches_scan(poly, subset)
        assert is_face(poly, subset).is_face == \
            _is_face_lp(poly, subset).is_face


def witness_images(phi):
    return None if phi is None else phi.images


def test_random_groups_match_the_oracles():
    for seed in SEEDS:
        # face subsets are drawn apart, leaving the groups' draws as they are
        subsets = random.Random(seed)
        for rng, group in random_groups(seed):
            table = character_table(group)
            summed = coset_sum(rng, group)
            reps = [PermRep.natural(group), summed, shuffled(rng, summed)]
            for rep in reps:
                check_against_oracles(rep, table)
            if group.order <= MAX_SEARCH_ORDER:
                for rep in reps:
                    check_faces(subsets, rep)
                for a, b in zip(reps, reps[1:] + reps[:1]):
                    assert witness_images(effectively_equivalent(a, b)) == \
                        witness_images(exhaustive_effectively_equivalent(a, b))
