import itertools
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

import permpoly.reps as reps_module
from oracles import (annihilation_stably_equivalent, bareiss_rref,
                     brute_force_orbit_count, check_against_dense,
                     cycle_divisor_loop, cyclotomic_constituents,
                     dense_affine_kernel,
                     dense_difference_space, dict_lambda_annihilates,
                     divisor_filter_effectively_equivalent,
                     eager_coset_sum_action, equivariant_apply,
                     exhaustive_effectively_equivalent, first_independent,
                     fraction_rref, integer_difference_space,
                     integer_rowspace_coords, is_homomorphism_all_pairs,
                     kernel_sparse, own_sets_kernel, pivot_walk_trace,
                     relabelled, rowspace_coords, u_action_trace)
from permpoly.groups import (CosetAction, FiniteGroup, GroupMap, Permutation,
                             SizeCapError, generator_correspondence,
                             isomorphisms, isomorphisms_iter, parse_cycles)
from permpoly.characters import (character_table, constituents,
                                  stably_equivalent_by_characters,
                                  verify_isotype)
from permpoly.linalg import rank
from permpoly.polytopes import build_polytope, is_face
from permpoly.reps import (
    MAX_VERTEX_ENTRIES,
    NotFaithfulError,
    NotStablyEquivalentError,
    PermRep,
    _action_sets,
    _annihilates_kernel,
    _dense_vector,
    _incidence_sets,
    _largest_norm,
    _set_rows,
    _summand_rows,
    _unannihilated,
    affine_kernel,
    build_equivariant_map,
    compose_with_map,
    cycle_divisor_obstruction,
    divisors_of_mask,
    effectively_equivalent,
    kernel_traces,
    stably_equivalent_by_kernel,
)
from permpoly.scenarios import alt6_reps, main_example_reps


def regular(group):
    return PermRep.from_coset_actions(
        group, [group.coset_action(group.subgroup([]))])


def matmul(u, v, n):
    out = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            out[i * n + j] = sum(u[i * n + k] * v[k * n + j] for k in range(n))
    return tuple(out)


def test_vertices_are_permutation_matrices(s3, klein_pair):
    for rep in (PermRep.natural(s3), klein_pair[1]):
        n = rep.degree
        for v in rep.vertices:
            assert set(v) <= {0, 1}
            for i in range(n):
                assert sum(v[i * n + j] for j in range(n)) == 1
                assert sum(v[j * n + i] for j in range(n)) == 1


def test_vertex_product_is_group_product(s3, klein_pair):
    for rep in (PermRep.natural(s3), klein_pair[1]):
        n = rep.degree
        table = rep.group.table
        for a in range(rep.group.order):
            for b in range(rep.group.order):
                prod = matmul(rep.vertices[a], rep.vertices[b], n)
                assert prod == rep.vertices[table[a][b]]


def test_regular_rep(s3):
    rep = regular(s3)
    assert rep.degree == 6
    assert rep.orbit_count() == 1
    assert affine_kernel(rep).dim == 0


def test_not_faithful(s4, z4):
    normal = s4.subgroups_of_order(12)[0]
    with pytest.raises(NotFaithfulError) as exc:
        PermRep.from_coset_actions(s4, [s4.coset_action(normal)])
    assert len(exc.value.kernel) == 12
    # quotient map z4 -> z2 extends as a homomorphism but is not faithful
    with pytest.raises(NotFaithfulError):
        PermRep.from_generator_images(z4, [parse_cycles("(1 2)", 2)])


def test_coset_action_is_kept_per_subgroup(s4):
    a = s4.subgroup([s4.element_index(parse_cycles("(1 2 3 4)", 4))])
    b = s4.subgroup([s4.element_index(parse_cycles("(1 4 3 2)", 4))])
    assert a.elements == b.elements and a.gens != b.gens
    assert s4.coset_action(a) is s4.coset_action(b)


def test_hand_built_coset_actions_are_fully_validated(s4):
    """A hand-built CosetAction is refused, alone or beside a kept one,
    before any kernel or elimination is made: a tampered action, one
    with a false kernel and a faithful copy alike. Only the group's own
    actions make a coset sum."""
    a4 = s4.subgroups_of_order(12)[0]
    kept = s4.coset_action(s4.subgroup([]))
    quotient = s4.coset_action(a4)
    images = list(kept.images)
    images[1], images[2] = images[2], images[1]
    tampered = CosetAction(s4, kept.subgroup, kept.degree, tuple(images),
                           kept.kernel)
    lying = CosetAction(s4, a4, quotient.degree, quotient.images, (0,))
    copy = CosetAction(s4, kept.subgroup, kept.degree, kept.images,
                       kept.kernel)
    for bad in (tampered, lying, copy):
        for summands in ([bad], [kept, bad]):
            with pytest.raises(ValueError, match="FiniteGroup.coset_action"):
                PermRep.from_coset_actions(s4, summands)
    # the kept action itself makes the regular representation
    assert affine_kernel(PermRep.from_coset_actions(s4, [kept])) == \
        affine_kernel(regular(s4))


def test_hand_built_coset_actions_skip_the_kernel_memo():
    """A refused sum reads no kernel memo entry and leaves the kernel
    and action memos as they were; the kept sums then fill the memo."""
    g = fresh_s4()
    kept = g.coset_action(g.subgroup([]))
    other = g.coset_action(g.point_stabilizer(1))
    copy = CosetAction(g, kept.subgroup, kept.degree, kept.images,
                       kept.kernel)
    actions = dict(g._coset_actions)
    # a planted entry for the copy's set is not read
    planted = object()
    g._kernels[frozenset([copy])] = planted
    with pytest.raises(ValueError, match="FiniteGroup.coset_action"):
        PermRep.from_coset_actions(g, [copy])
    assert g._kernels == {frozenset([copy]): planted}
    del g._kernels[frozenset([copy])]
    with pytest.raises(ValueError, match="FiniteGroup.coset_action"):
        PermRep.from_coset_actions(g, [other, copy])
    assert g._kernels == {} and g._coset_actions == actions
    assert kept.rows is None and other.rows is None
    # nor filled: the kept sums make their own entries
    affine_kernel(PermRep.from_coset_actions(g, [kept]))
    affine_kernel(PermRep.from_coset_actions(g, [other, kept]))
    assert len(g._kernels) == 2


def test_coset_sum_kernel_is_the_summands_kernels_meet(s4):
    """S4 on the cosets of A4 and of the normal Klein four-group: the
    trusted path reads the kernel off the summands, and it is the one
    the full check finds."""
    a4 = s4.subgroups_of_order(12)[0]
    (v4,) = [sub for sub in s4.subgroups_of_order(4)
             if s4.coset_action(sub).kernel == sub.elements]
    actions = [s4.coset_action(a4), s4.coset_action(v4)]
    with pytest.raises(NotFaithfulError) as exc:
        PermRep.from_coset_actions(s4, actions)
    assert exc.value.kernel == (0, 5, 15, 21)
    # a permutation does not concatenate: p + q raises TypeError
    combined = [Permutation((*a.images, *(x + 2 for x in b.images)))
                for a, b in zip(*(act.images for act in actions))]
    with pytest.raises(NotFaithfulError) as exc:
        PermRep(s4, combined)
    assert exc.value.kernel == (0, 5, 15, 21)


def test_coset_sum_needs_own_actions(s3, s4):
    with pytest.raises(ValueError, match="at least one"):
        PermRep.from_coset_actions(s3, [])
    trivial = FiniteGroup.from_cycle_strings([], 1)
    with pytest.raises(ValueError, match="at least one"):
        PermRep.from_coset_actions(trivial, [])
    z3 = FiniteGroup.from_cycle_strings(["(1 2 3)"], 3)
    for other in (z3, s4):
        action = other.coset_action(other.subgroup([]))
        with pytest.raises(ValueError, match="different group"):
            PermRep.from_coset_actions(s3, [action])
    # a subgroup where its coset action belongs, or no action at all
    for bad in ([s3.subgroup([])], [3],
                [s3.coset_action(s3.subgroup([])), s3.subgroup([])]):
        with pytest.raises(ValueError, match="FiniteGroup.coset_action"):
            PermRep.from_coset_actions(s3, bad)


def test_degree_zero_actions_are_refused():
    """An action on no points has no orbit to decompose and no affine
    kernel to eliminate."""
    trivial = FiniteGroup.generate([], degree=0)
    with pytest.raises(ValueError, match="at least one point"):
        PermRep.natural(trivial)
    with pytest.raises(ValueError, match="at least one point"):
        PermRep(trivial, [Permutation(())])


def test_checked_actions_take_plain_image_tuples():
    """The generator-image route and the checked constructor read
    degrees with len, so plain image tuples work and are kept as
    Permutations; the natural representation keeps the group's own."""
    z3 = FiniteGroup.from_cycle_strings(["(1 2 3)"], 3)
    rep = PermRep.from_generator_images(z3, [(1, 2, 0)])
    assert rep.action == PermRep.from_generator_images(
        z3, [parse_cycles("(1 2 3)", 3)]).action
    plain = PermRep(z3, [tuple(p) for p in z3.elements])
    assert all(type(p) is Permutation for p in plain.action)
    assert plain.cycle_divisors() == PermRep.natural(z3).cycle_divisors()
    with pytest.raises(ValueError, match="mixed degrees"):
        PermRep(z3, [(0, 1, 2), (1, 2, 0), (2, 0, 1, 3)])
    assert all(p is e for p, e in
               zip(PermRep.natural(z3).action, z3.elements))


def test_generator_images_inconsistent(klein):
    images = [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)(2 4)", 4)]
    with pytest.raises(ValueError, match="inconsistent"):
        PermRep.from_generator_images(klein, images)



def memo_state(group):
    """Copies of the group's coset-action, subgroup, family and kernel
    memos."""
    return [dict(m) for m in (group._coset_actions, group._generated,
                              group._families, group._kernels)]


def test_images_must_be_permutations():
    """Images that are not permutations of range(degree), with a point
    repeated, past the degree or not an int, raise ValueError naming
    them, not NotFaithfulError, IndexError or TypeError, in the
    constructor and the generator-image route, and leave every memo of
    the group as it was."""
    z2 = FiniteGroup.generate([(1, 0)], degree=2)
    PermRep.natural(z2)
    kept = memo_state(z2)
    for action in ([(0, 0), (0, 0)], [(0, 1, 2), (5, 6, 7)],
                   [(0, 1), (1, 2)], [(0, 1), (None, 0)],
                   [(0, 1), (1.0, 0)], [(0, 1), ("1", 0)]):
        with pytest.raises(ValueError, match="not a permutation") as exc:
            PermRep(z2, action)
        assert not isinstance(exc.value, NotFaithfulError)
        with pytest.raises(ValueError, match="not a permutation"):
            PermRep.from_generator_images(z2, action[1:])
    assert memo_state(z2) == kept

def test_validate_matches_oracle_on_swaps(s3, q8, a4, klein, klein_pair):
    verdicts = set()
    for rep in (PermRep.natural(s3), regular(s3), PermRep.natural(q8),
                PermRep.natural(a4), PermRep.natural(klein), klein_pair[1]):
        n = rep.group.order
        ident = Permutation.identity(rep.degree)
        for i in range(n):
            for j in range(i + 1, n):
                action = list(rep.action)
                action[i], action[j] = action[j], action[i]
                expected = (is_homomorphism_all_pairs(rep.group, action)
                            and action.count(ident) == 1)
                try:
                    PermRep(rep.group, action)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_trivial_group_generator_image():
    trivial = FiniteGroup.generate([], degree=2)
    rep = PermRep.from_generator_images(trivial, [parse_cycles("id", 2)])
    assert rep.action == (Permutation.identity(2),)
    with pytest.raises(ValueError, match="inconsistent"):
        PermRep.from_generator_images(trivial, [parse_cycles("(1 2)", 2)])


def test_vertex_entry_cap(z4):
    # 4 * 1582^2 is just over the cap; the check precedes the vertices
    degree = 1582
    assert z4.order * degree ** 2 > MAX_VERTEX_ENTRIES
    with pytest.raises(SizeCapError):
        PermRep.from_generator_images(
            z4, [parse_cycles("(1 2 3 4)", degree)])


def test_vertices_are_built_when_read(s4):
    from permpoly.characters import constituents
    rep = PermRep.from_coset_actions(
        s4, [s4.coset_action(s4.subgroup([])),
             s4.coset_action(s4.point_stabilizer(1))])
    # the kernel route, the divisors, the character route, the
    # polytope's dimension and the combinatorial face routes need no
    # vertex matrix
    assert stably_equivalent_by_kernel(rep, regular(s4))
    rep.cycle_divisors()
    constituents(rep)
    poly = build_polytope(rep)
    assert poly.dim == 23
    assert is_face(poly, (0, 1)) and is_face(poly, range(24))
    assert "vertices" not in vars(rep)
    n = rep.degree
    verts = rep.vertices
    assert verts == [tuple(int(p.images[k % n] == k // n)
                           for k in range(n * n)) for p in rep.action]
    assert rep.vertices is verts


def test_orbit_count(s3, klein, s4):
    assert PermRep.natural(s3).orbit_count() == 1
    assert PermRep.natural(klein).orbit_count() == 2
    rep = PermRep.from_generator_images(
        klein, [parse_cycles("(1 2)(3 4)", 6), parse_cycles("(1 2)(5 6)", 6)])
    assert rep.orbit_count() == 3
    # trivial groups: every point is its own orbit
    trivials = [PermRep.natural(FiniteGroup.generate([], degree=d))
                for d in (1, 3)]
    assert [t.orbit_count() for t in trivials] == [1, 3]
    # a coset sum has one orbit per summand
    subs = [s4.point_stabilizer(1), s4.subgroups_of_order(12)[0],
            s4.subgroup([])]
    coset_sum = PermRep.from_coset_actions(
        s4, [s4.coset_action(sub) for sub in subs])
    assert coset_sum.orbit_count() == 3
    for r in [rep, coset_sum, regular(s4), PermRep.natural(s4)] + trivials:
        assert r.orbit_count() == brute_force_orbit_count(r.action, r.degree)


def test_affine_kernel_dims(s3, klein, z4, klein_pair):
    assert affine_kernel(PermRep.natural(klein)).dim == 1
    assert affine_kernel(PermRep.natural(s3)).dim == 1
    assert affine_kernel(PermRep.natural(z4)).dim == 0
    assert affine_kernel(klein_pair[0]).dim == 0
    assert affine_kernel(klein_pair[1]).dim == 0
    # dim kernel + dim span{M_g} = |G|
    for rep in (PermRep.natural(s3), PermRep.natural(klein), klein_pair[1]):
        k = affine_kernel(rep)
        assert k.dim == rep.group.order - k.rank


def test_affine_kernel_vectors_annihilate(s3, klein):
    for rep in (PermRep.natural(s3), PermRep.natural(klein)):
        kern = affine_kernel(rep)
        n2 = rep.degree ** 2
        dense = [_dense_vector(v, rep.group.order) for v in kern.sparse_int]
        for vec in dense:
            assert sum(vec) == 0
            acc = [Fraction(0)] * n2
            for lam, v in zip(vec, rep.vertices):
                if lam:
                    for k in range(n2):
                        if v[k]:
                            acc[k] += lam
            assert all(x == 0 for x in acc)
        # sparse form carries the same vectors up to scale
        for entries, vec in zip(kern.sparse_int, dense):
            support = {i for i, c in entries if c}
            assert support == {i for i, c in enumerate(vec) if c}


def test_affine_kernel_is_canonical(klein):
    a = affine_kernel(PermRep.natural(klein))
    b = affine_kernel(PermRep.natural(klein))
    assert a == b and hash(a) == hash(b)
    # the square relation: e + (1 2)(3 4) = (1 2) + (3 4)
    (entries,) = a.sparse_int
    vec = _dense_vector(entries, 4)
    assert sorted(vec) == [-1, -1, 1, 1]


def test_u_action_trace_matches_matrix_trace(s3, s4, a5, klein_pair,
                                             main_pair):
    """The trace read off the affine kernel equals the trace of left
    multiplication on the dense basis of span{M_h - M_e}."""
    coset_sum = PermRep.from_coset_actions(
        s4, [s4.coset_action(s4.point_stabilizer(1)),
             s4.coset_action(s4.subgroups_of_order(8)[0])])
    for rep in (PermRep.natural(s3), klein_pair[1], PermRep.natural(a5),
                main_pair[0], coset_sum):
        basis, pivots = dense_difference_space(rep)
        n = rep.degree
        assert u_action_trace(rep, 0) == len(basis)
        for g in range(rep.group.order):
            ginv = rep.action[rep.group.inverse[g]].images
            total = Fraction(0)
            for k, vec in enumerate(basis):
                moved = [vec[ginv[i] * n + j]
                         for i in range(n) for j in range(n)]
                coeffs = rowspace_coords(basis, pivots, moved)
                assert coeffs is not None
                total += coeffs[k]
            assert u_action_trace(rep, g) == total
        for bad in (-1, rep.group.order, 1.5, "1"):
            with pytest.raises(ValueError):
                u_action_trace(rep, bad)


def test_stable_equivalence_by_kernel(s3, klein, klein_pair):
    assert stably_equivalent_by_kernel(*klein_pair)
    assert stably_equivalent_by_kernel(klein_pair[1], klein_pair[0])
    natural = PermRep.natural(s3)
    assert not stably_equivalent_by_kernel(natural, regular(s3))
    with pytest.raises(ValueError):
        stably_equivalent_by_kernel(natural, PermRep.natural(klein))
    # separately built copies of one group still compare
    klein2 = FiniteGroup.from_cycle_strings(["(1 2)", "(3 4)"], 4)
    assert stably_equivalent_by_kernel(
        PermRep.natural(klein), PermRep.natural(klein2))


def test_effectively_equivalent(s3, z4, klein, z4_family):
    phi = effectively_equivalent(z4_family[0], z4_family[3])
    assert phi is not None and phi.validate() and phi.is_bijective()
    assert effectively_equivalent(PermRep.natural(s3), regular(s3)) is None
    assert effectively_equivalent(
        PermRep.natural(klein), PermRep.natural(z4)) is None
    # equal kernel dimensions but non-isomorphic groups
    assert effectively_equivalent(regular(klein), regular(z4)) is None


def test_compose_with_map(s3, z4):
    from permpoly.groups import automorphisms
    natural = PermRep.natural(s3)
    for phi in automorphisms(s3):
        composed = compose_with_map(natural, phi)
        assert composed.action == tuple(
            natural.action[phi(g)] for g in range(6))
        assert stably_equivalent_by_kernel(composed, natural)
    squaring = GroupMap(z4, z4, [0, 2, 0, 2])
    assert squaring.validate()
    with pytest.raises(NotFaithfulError):
        compose_with_map(PermRep.natural(z4), squaring)
    with pytest.raises(ValueError):
        compose_with_map(natural, GroupMap.identity(z4))
    # swapping elements 1 and 2 is a bijection but no homomorphism
    swap = GroupMap(s3, s3, [0, 2, 1, 3, 4, 5])
    assert swap.is_bijective() and not swap.validate()
    with pytest.raises(ValueError, match="inconsistent"):
        compose_with_map(natural, swap)



@pytest.mark.parametrize("images", [[0, 1], [0, 1, 2, 0], [0, 1, 3],
                                    [0, 1, -1], [0, 1, 2.5]])
def test_compose_with_map_rejects_malformed_maps(images):
    """Images of the wrong length, out of range, negative or not integers
    raise ValueError, not IndexError, and -1 does not wrap round."""
    c3 = FiniteGroup.from_cycle_strings(["(1 2 3)"], 3)
    with pytest.raises(ValueError) as exc:
        compose_with_map(PermRep.natural(c3), GroupMap(c3, c3, images))
    assert not isinstance(exc.value, NotFaithfulError)

def equivariant_pairs(klein_pair, z4_family, s4):
    """((rep_A, rep_B), phi) for the Klein pair, every effectively
    equivalent pair of the Z4 family with its witness, and natural S4
    with itself."""
    pairs = [(klein_pair, GroupMap.identity(klein_pair[0].group))]
    for i, repA in enumerate(z4_family):
        for repB in z4_family[i + 1:]:
            phi = effectively_equivalent(repA, repB)
            if phi is not None:
                pairs.append(((repA, repB), phi))
    natural = PermRep.natural(s4)
    pairs.append(((natural, natural), GroupMap.identity(s4)))
    assert len(pairs) == 12
    return pairs


def left_multiply(rep, h, u):
    """M_h u for a flattened matrix u: row i of M_h u is row h^-1(i) of u."""
    n = rep.degree
    hinv = rep.action[h].inverse().images
    return tuple(u[hinv[i] * n + j] for i in range(n) for j in range(n))


def test_build_equivariant_map(klein_pair, z4_family, s4):
    """The map built from the kernel test and phi.validate() sends every
    vertex M_g to M_phi(g) and barycenter to barycenter, and is
    equivariant on the generators, tested on the basis vertices and the
    barycenter.  Vectors off the span are refused, and so is a
    bijection that is no homomorphism."""
    refused = 0
    for (repA, repB), phi in equivariant_pairs(klein_pair, z4_family, s4):
        emap = build_equivariant_map(repA, repB, phi)
        assert emap.vertex_map == phi.images
        order = repA.group.order
        for g in range(order):
            assert equivariant_apply(emap, repA.vertices[g]) \
                == repB.vertices[phi(g)]
        baryA, baryB = (tuple(Fraction(sum(col), order)
                              for col in zip(*rep.vertices))
                        for rep in (repA, repB))
        assert equivariant_apply(emap, baryA) == baryB
        points = [repA.vertices[g] for g in emap.basis_elements] + [baryA]
        for h in repA.group.gens:
            for u in points:
                assert equivariant_apply(emap, left_multiply(repA, h, u)) \
                    == left_multiply(repB, phi(h), equivariant_apply(emap, u))
        # unequal row sums place a point outside the span
        off = list(baryA)
        off[0] += 1
        with pytest.raises(ValueError, match="outside"):
            equivariant_apply(emap, off)
        for a, b in itertools.combinations(range(1, order), 2):
            images = list(phi.images)
            images[a], images[b] = images[b], images[a]
            swapped = GroupMap(repA.group, repB.group, images)
            if not swapped.validate():
                with pytest.raises(ValueError, match="isomorphism"):
                    build_equivariant_map(repA, repB, swapped)
                refused += 1
                break
    # every bijection of the Klein group fixing e is an automorphism
    assert refused == 11


def test_equivariant_map_basis_is_first_independent(klein_pair, z4_family, s4):
    for (repA, repB), phi in equivariant_pairs(klein_pair, z4_family, s4):
        emap = build_equivariant_map(repA, repB, phi)
        assert emap.basis_elements == first_independent(repA.vertices)
    # S4 spans 10 of 24 dimensions, so the choice is a proper subset
    assert len(emap.basis_elements) == 10


def test_equivariant_map_rejects_unequal_kernels(s3):
    natural, reg = PermRep.natural(s3), regular(s3)
    ident = GroupMap.identity(s3)
    with pytest.raises(NotStablyEquivalentError) as exc:
        build_equivariant_map(natural, reg, ident)
    witness = exc.value.witness
    assert witness and sum(witness) == 0
    for rep, vanishes in ((natural, True), (reg, False)):
        n2 = rep.degree ** 2
        acc = [Fraction(0)] * n2
        for lam, v in zip(witness, rep.vertices):
            if lam:
                for k in range(n2):
                    if v[k]:
                        acc[k] += lam
        assert (all(x == 0 for x in acc)) is vanishes
    # reverse orientation: the composed kernel is strictly larger
    with pytest.raises(NotStablyEquivalentError) as exc2:
        build_equivariant_map(reg, natural, ident)
    assert exc2.value.witness


def test_equivariant_map_argument_errors(s3, klein, klein_pair):
    repA, repB = klein_pair
    with pytest.raises(ValueError):
        build_equivariant_map(repA, repB, GroupMap.identity(s3))
    collapse = GroupMap(repA.group, repA.group, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        build_equivariant_map(repA, repB, collapse)


def first_moved(rep, h):
    """The first point rep(h) moves: the first column in which
    M_e - M_h is nonzero."""
    return next(j for j, i in enumerate(rep.action[h].images) if i != j)


def plus(lam, g, h):
    """lam + e_g - e_h as a sorted sparse vector."""
    acc = dict(lam)
    acc[g] = acc.get(g, 0) + 1
    acc[h] = acc.get(h, 0) - 1
    return sorted((i, c) for i, c in acc.items() if c)


def packed_annihilates(rep, lam, phi=None):
    return _unannihilated(rep, [lam], _largest_norm([lam]), phi) is None


def test_packed_check_matches_dict_oracle(main_pair, klein_pair, z4_family,
                                          s4):
    """The packed kernel test agrees with the dict-accumulating oracle on
    every kernel basis vector of both reps of a pair, tested against
    either rep under every isomorphism, and on vectors whose sum
    vanishes in every matrix column before a late one."""
    pairs = [main_pair, klein_pair, (PermRep.natural(s4), regular(s4))]
    pairs += [(a, b) for i, a in enumerate(z4_family) for b in z4_family[i:]]
    verdicts = set()
    for pair in pairs:
        for src in pair:
            order = src.group.order
            kernels = [list(lam) for rep in pair if rep.group is src.group
                       for lam in affine_kernel(rep).sparse_int]
            # e_e - e_h vanishes on the columns before rep(h)'s first
            # moved point; take every h on small groups, else the latest
            late = max(range(1, order), key=lambda h: first_moved(src, h))
            moved = range(1, order) if order <= 24 else [late]
            failing = [plus([], 0, h) for h in moved]
            failing.append(plus(kernels[0] if kernels else [], 0, late))
            for lam in failing:
                assert packed_annihilates(src, lam) is False
            for dst in pair:
                for phi in isomorphisms(src.group, dst.group):
                    for lam in kernels + failing:
                        got = packed_annihilates(dst, lam, phi)
                        assert got == dict_lambda_annihilates(dst, lam, phi)
                        verdicts.add(got)
    assert verdicts == {True, False}
    # the main pair's latest failures start in column 12 of 16, the
    # natural S4 rep's in column 2 of 4
    latest = [max(first_moved(rep, h) for h in range(1, rep.group.order))
              for rep in (main_pair[0], main_pair[1], pairs[2][0])]
    assert latest == [12, 12, 2]


def test_packed_check_is_exact_at_its_width(s4, d6, q8):
    """On a regular representation every incidence set is one element,
    so a vertex packs into a single field.  With h's set next after g's,
    lam = 2^w e_g - e_h sums to zero in w-bit fields, a carry; its L1
    norm 2^w + 1 gives the test w + 2 bits, and it rejects lam, as the
    oracle does."""
    for group in (s4, d6, q8):
        summed = regular(group)
        for rep in (summed, PermRep(group, summed.action)):
            sets = _incidence_sets(rep)
            assert sorted(sets) == [(g,) for g in range(group.order)]
            for w in (1, 2, 3, 7, 30):
                fields = {g: 1 << (w * s) for s, (g,) in enumerate(sets)}
                for (g,), (h,) in zip(sets, sets[1:]):
                    lam = sorted([(g, 2 ** w), (h, -1)])
                    assert sum(c * fields[x] for x, c in lam) == 0
                    assert not dict_lambda_annihilates(rep, lam)
                    assert not packed_annihilates(rep, lam)


def with_norm(rng, order, norm):
    """A seeded sparse integer vector over the group with L1 norm
    exactly norm, signs at random."""
    support = sorted(rng.sample(range(order), rng.randint(1, min(order, 6))))
    cuts = sorted(rng.sample(range(1, norm), len(support) - 1)) \
        if norm >= len(support) else None
    if cuts is None:
        support, cuts = support[:1], []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [norm])]
    return [(g, rng.choice((1, -1)) * c) for g, c in zip(support, parts)]


def corrupted(phi, rng):
    """phi with two images swapped, or one image moved onto another's:
    no longer an isomorphism, a bijection only in the first case."""
    images = list(phi.images)
    a, b = rng.sample(range(1, len(images)), 2)
    if rng.random() < 0.5:
        images[a], images[b] = images[b], images[a]
    else:
        images[a] = images[b]
    return GroupMap(phi.source, phi.target, images)


def test_packed_check_matches_dict_oracle_on_seeded_vectors_and_maps(
        s4, a4, d6, q8):
    """Seeded vectors of L1 norm 2^k - 1 and 2^k, single-element vectors
    and kernel vectors, those of norm 2^j scaled to a norm 2^k, under
    seeded isomorphisms onto a relabelled twin and corrupted copies of
    them.  rep_B is rep_A carried to the twin along one of the
    isomorphisms, so that map annihilates every kernel vector."""
    rng = random.Random(31)
    verdicts = set()
    boundary = set()
    for seed, group in enumerate((s4, a4, d6, q8, fresh_g48())):
        twin = relabelled(group, seed)
        order = group.order
        maps = isomorphisms(group, twin)
        for repA in coset_sums(group)[::9]:
            psi = rng.choice(maps)
            back = [0] * order
            for g, h in enumerate(psi.images):
                back[h] = g
            repB = compose_with_map(repA, GroupMap(twin, group, back))
            vectors = [with_norm(rng, order, 2 ** k - d)
                       for k in (1, 2, 3, 5, 8, 13, 40) for d in (1, 0)]
            vectors += [[(rng.randrange(order), c)]
                        for c in (1, -1, 2 ** 7, -(2 ** 9 - 1))]
            for lam in affine_kernel(repA).sparse_int:
                vectors.append(lam)
                norm = sum(abs(c) for _, c in lam)
                if norm & (norm - 1) == 0:
                    scale = 2 ** rng.randint(1, 20)
                    vectors.append([(g, scale * c) for g, c in lam])
            for phi in [psi] + rng.sample(maps, min(3, len(maps))):
                for chi in (phi, corrupted(phi, rng), corrupted(phi, rng)):
                    for lam in vectors:
                        got = packed_annihilates(repB, lam, chi)
                        assert got == dict_lambda_annihilates(repB, lam, chi)
                        verdicts.add(got)
                        norm = sum(abs(c) for _, c in lam)
                        # 2^k or 2^k - 1
                        if norm > 1 and 0 in (norm & (norm - 1),
                                              norm & (norm + 1)):
                            boundary.add(got)
                    # the first failing vector of a list is the first
                    # the oracle rejects
                    first = next((lam for lam in vectors
                                  if not dict_lambda_annihilates(repB, lam,
                                                                 chi)), None)
                    assert _unannihilated(repB, vectors,
                                          _largest_norm(vectors), chi) == first
            kernel = affine_kernel(repA)
            assert kernel.norm == max(
                (sum(abs(c) for _, c in lam) for lam in kernel.sparse_int),
                default=0)
            assert _unannihilated(repB, kernel.sparse_int, kernel.norm,
                                  psi) is None
    # norms 2^k - 1 are odd, so never annihilated; norms 2^k both ways
    assert verdicts == boundary == {True, False}


def coset_sums(group, max_degree=12):
    """Every faithful coset sum of group with one or two summands and
    degree at most max_degree, each followed by the same sum with its
    first summand repeated and with the trivial summand (the action on
    the cosets of the whole group) appended."""
    subs = [sub for k in range(1, group.order + 1) if group.order % k == 0
            for sub in group.subgroups_of_order(k)]
    actions = [group.coset_action(sub) for sub in subs]
    trivial = actions[-1]
    assert trivial.degree == 1
    combos = [(a,) for a in actions]
    combos += itertools.combinations_with_replacement(actions, 2)
    out = []
    for combo in combos:
        if sum(a.degree for a in combo) > max_degree:
            continue
        try:
            rep = PermRep.from_coset_actions(group, list(combo))
        except NotFaithfulError:
            continue
        out.append(rep)
        for extra in (combo[0], trivial):
            out.append(PermRep.from_coset_actions(group, list(combo) + [extra]))
    return out


@pytest.fixture(scope="module")
def sums(s4, a4, d6, q8):
    """coset_sums of S4, A4, D6 and Q8, built once for the module: the
    dense-oracle samples, shared with every test here that walks the
    same sums, so each representation keeps what it computes."""
    return {g: coset_sums(g) for g in (s4, a4, d6, q8)}


@pytest.fixture(scope="module")
def small_reps(s3, s4, d6, q8, a4, klein, a5):
    return [rep for g in (s3, s4, d6, q8, a4, klein, a5)
            for rep in (PermRep.natural(g), regular(g))]


def test_incidence_sets_reconstruct_vertices(small_reps, main_pair):
    """The polytope's entry masks give back every vertex, and their
    distinct nonzero masks are the representation's incidence sets:
    distinct, nonempty and ascending."""
    for rep in small_reps + list(main_pair):
        masks = build_polytope(rep)._entry_masks
        assert len(masks) == rep.degree ** 2
        for g, v in enumerate(rep.vertices):
            assert v == tuple(m >> g & 1 for m in masks)
        sets = _incidence_sets(rep)
        assert len(set(sets)) == len(sets)
        assert all(list(s) == sorted(s) and s for s in sets)
        assert set(sets) == {tuple(g for g in range(rep.group.order)
                                   if m >> g & 1) for m in masks if m}


def test_kernel_and_chart_match_dense_on_small_groups(small_reps):
    for rep in small_reps:
        check_against_dense(rep)
        kern = affine_kernel(rep)
        # the rank of the vertex matrix with a ones column appended
        if rep.group.order * rep.degree ** 2 <= 15_000:
            ones = sympy.Matrix([list(v) + [1] for v in rep.vertices])
            assert kern.rank == ones.rank()
        assert kern.dim == rep.group.order - kern.rank


def test_kernel_and_chart_match_dense_on_coset_sums(sums):
    counts = []
    for g, reps in sums.items():
        counts.append(len(reps))
        for i, rep in enumerate(reps):
            # full checks on the plain sums, sympy ranks on the smallest
            check_against_dense(rep, full=i % 3 == 0)
            if rep.degree <= 5:
                ones = sympy.Matrix([list(v) + [1] for v in rep.vertices])
                assert affine_kernel(rep).rank == ones.rank()
        # a repeated summand adds entries but no set, the trivial
        # summand at most the set of all elements
        everything = tuple(range(g.order))
        for rep, dup, triv in zip(reps[::3], reps[1::3], reps[2::3]):
            sets = _incidence_sets(rep)
            assert _incidence_sets(dup) == sets
            assert set(_incidence_sets(triv)) == set(sets) | {everything}
    assert counts == [3 * 174, 3 * 50, 3 * 94, 3 * 6]


def test_integer_oracles_match_the_fraction_oracles(sums):
    """bareiss_rref divided by its pivots is fraction_rref, and
    integer_rowspace_coords gives rowspace_coords's answer, on the
    vertex columns and vertex differences of a few sums and on seeded
    integer matrices, whose pivots are not all units."""
    matrices = []
    for rep in [rep for reps in sums.values() for rep in reps[::90]]:
        matrices.append(list(zip(*rep.vertices)))
        base = rep.vertices[0]
        rows = [[a - b for a, b in zip(v, base)] for v in rep.vertices[1:]]
        matrices.append(rows)
        integer, pivots = integer_difference_space(rep)
        basis, fraction_pivots = dense_difference_space(rep)
        assert pivots == fraction_pivots
        assert [tuple(Fraction(x, row[p]) for x in row)
                for row, p in zip(integer, pivots)] == basis
    rng = random.Random(1968)
    for _ in range(40):
        ncols = rng.randint(1, 9)
        m = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(ncols)]
             for _ in range(rng.randint(1, 7))]
        m.append([a - 2 * b for a, b in zip(m[0], m[-1])])
        matrices.append(m)
    for m in matrices:
        integer, pivots = bareiss_rref(m)
        reduced, fraction_pivots = fraction_rref(m)
        assert pivots == fraction_pivots
        assert [[Fraction(x, row[p]) for x in row]
                for row, p in zip(integer, pivots)] == reduced
        # each row lies in the row space, and a unit vector may not
        for vec in m + [[int(j == k) for j in range(len(m[0]))]
                        for k in range(len(m[0]))]:
            assert integer_rowspace_coords(integer, pivots, vec) == \
                rowspace_coords(reduced, pivots, vec)


def test_kernel_and_chart_match_dense_on_scenario_pairs(main_pair):
    _, _, _, _, a6_1, a6_2 = alt6_reps()
    for rep in (*main_pair, a6_1, a6_2):
        check_against_dense(rep)


def test_coset_sum_kernels_match_their_incidence_sets(sums, main_pair):
    """The kernel eliminated on the summands' reduced rows is the one
    eliminated on the sum's own incidence sets (own_sets_kernel), and so
    is that of the sum's action given plainly, decomposed again."""
    _, _, _, _, a6_1, a6_2 = alt6_reps()
    reps = [rep for reps in sums.values() for rep in reps]
    for rep in reps + [*main_pair, a6_1, a6_2]:
        slow = own_sets_kernel(rep)
        for fast in (affine_kernel(rep),
                     affine_kernel(PermRep(rep.group, rep.action))):
            assert (fast.rank, fast.sparse_int, fast.pivots) == \
                (slow.rank, slow.sparse_int, slow.pivots)
            assert fast == slow and hash(fast) == hash(slow)


def test_stable_equivalence_matches_the_annihilation_oracle(
        a4, q8, sums, klein_pair, main_pair):
    _, _, _, _, a6_1, a6_2 = alt6_reps()
    pairs = [pair for g in (a4, q8)
             for pair in itertools.product(sums[g], repeat=2)]
    pairs += [main_pair, (a6_1, a6_2), klein_pair]
    # ppt stable's pairs: the first natural rep and the second pulled
    # back along the generator correspondence
    specs = [((["(1 2 3 4)"], 4), (["(1 2 3 4)(5 6)"], 6)),
             ((["(1 2)", "(3 4)"], 4), (["(1 2)(3 4)", "(1 3)(2 4)"], 4)),
             ((["(1 2 3 4)"], 4), (["(1 3 2 4)"], 4))]
    for (gens1, n1), (gens2, n2) in specs:
        g1 = FiniteGroup.from_cycle_strings(gens1, n1)
        g2 = FiniteGroup.from_cycle_strings(gens2, n2)
        pulled = compose_with_map(PermRep.natural(g2),
                                  generator_correspondence(g1, g2))
        pairs.append((PermRep.natural(g1), pulled))
    verdicts = []
    for repA, repB in pairs + [pair[::-1] for pair in pairs[-6:]]:
        answer = stably_equivalent_by_kernel(repA, repB)
        assert answer == annihilation_stably_equivalent(repA, repB)
        if answer:
            assert hash(affine_kernel(repA)) == hash(affine_kernel(repB))
        verdicts.append(answer)
    # the named pairs, each way round
    assert verdicts[-12:] == [False, False, True, True, False, True] * 2
    # each sum is stably equivalent to itself and its two twins at least
    assert sum(verdicts[:-12]) >= 3 * (len(sums[a4]) + len(sums[q8]))


def fresh_s4():
    return FiniteGroup.from_cycle_strings(["(1 2 3 4)", "(1 2)"], 4)


def fresh_g48():
    """Z2 x Z2 x Z4 x Z3, the search corpus's order-48 group."""
    return FiniteGroup.from_cycle_strings(
        ["(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"], 11)


def test_coset_sums_of_one_summand_set_share_one_kernel(monkeypatch):
    g = fresh_s4()
    a = g.coset_action(g.point_stabilizer(1))
    b = g.coset_action(g.subgroups_of_order(8)[0])
    trivial = g.coset_action(g.subgroup(g.gens))
    assert trivial.degree == 1
    raw = reps_module._rref_int
    calls = []

    def counted(*args):
        calls.append(args)
        return raw(*args)

    monkeypatch.setattr(reps_module, "_rref_int", counted)

    def kernel(*actions):
        return affine_kernel(PermRep.from_coset_actions(g, list(actions)))

    # one summand: its reduced rows are the kernel's, eliminated once
    single = kernel(a)
    assert len(calls) == 1 and single.rows is a.rows[0]
    for twin in ([a, a], [a, trivial], [trivial, a, a]):
        assert kernel(*twin) is single
    assert len(calls) == 1
    # two summands: b's own rows, then one stacked elimination
    pair = kernel(a, b)
    assert len(calls) == 3
    for twin in ([b, a], [a, b, a], [a, b, trivial], [trivial, b, a, b]):
        assert kernel(*twin) is pair
    assert len(calls) == 3
    assert g._kernels == {frozenset([a.family]): single,
                          frozenset([a.family, b.family]): pair}
    # an unfaithful sum raises before any kernel and leaves no entry
    a4_quotient = g.coset_action(g.subgroups_of_order(12)[0])
    with pytest.raises(NotFaithfulError):
        PermRep.from_coset_actions(g, [a4_quotient, trivial])
    assert len(g._kernels) == 2


def test_kernel_basis_is_built_only_when_read():
    g, rep1, rep2 = main_example_reps()
    table = character_table(g)
    assert not stably_equivalent_by_kernel(rep1, rep2)
    for rep in (rep1, rep2):
        assert build_polytope(rep, table).dim == 14
        kern = affine_kernel(rep)
        assert kern.dim == 33
        assert "sparse_int" not in vars(kern)
    # read later, the basis is kernel_sparse's on the sum's own sets
    a4 = FiniteGroup.from_cycle_strings(["(1 2 3)", "(2 3 4)"], 4)
    for rep in [rep1, rep2] + coset_sums(a4):
        kern = affine_kernel(rep)
        rows = _set_rows(_incidence_sets(rep), rep.group.order)
        assert kernel_sparse(rows) == (kern.rank, kern.sparse_int)


def conjugate_action(action):
    """The kept coset action on a conjugate x H x^-1 of the action's
    subgroup H, the one for the greatest x that moves H; the action
    itself when H is normal."""
    group, sub = action.group, action.subgroup
    table, inverse = group.table, group.inverse
    for x in reversed(range(group.order)):
        conj = group.subgroup([table[table[x][h]][inverse[x]]
                               for h in sub.gens])
        if conj.elements != sub.elements:
            return group.coset_action(conj)
    return action


def test_conjugate_summands_share_their_family_kernel(sums):
    """A sum with each summand replaced by the action on a conjugate
    subgroup, an isomorphic G-set, has the same family and so the same
    kept kernel, and that kernel is the dense oracle's for the
    conjugate sum's own vertices."""
    conjugated = 0
    for g, reps in sums.items():
        for rep in reps:
            twin = PermRep.from_coset_actions(
                g, [conjugate_action(a) for a in rep._summands])
            if any(a is not b for a, b in zip(rep._summands, twin._summands)):
                conjugated += 1
            for a, b in zip(rep._summands, twin._summands):
                assert _summand_rows(a)[1] is _summand_rows(b)[1]
                assert a.family is b.family
                assert b.family == frozenset(_action_sets(b.images))
            kern = affine_kernel(rep)
            assert affine_kernel(twin) is kern
            dense = [_dense_vector(v, g.order) for v in kern.sparse_int]
            assert (kern.dim, kern.rank, dense, kern.sparse_int) == \
                dense_affine_kernel(twin)
    assert conjugated > 900


def test_conjugate_summands_share_one_elimination(monkeypatch):
    """One elimination per family: a sum of two conjugate point
    stabilizers of S4 is eliminated once, as a one-family sum with no
    stacked elimination, and conjugates met later eliminate nothing."""
    g = fresh_s4()
    stabilizers = [g.coset_action(g.point_stabilizer(i)) for i in range(1, 5)]
    a, b = stabilizers[:2]
    d4s = [g.coset_action(sub) for sub in g.subgroups_of_order(8)]
    assert len({c.subgroup.elements for c in d4s}) == 3
    raw = reps_module._rref_int
    calls = []

    def counted(*args):
        calls.append(args)
        return raw(*args)

    monkeypatch.setattr(reps_module, "_rref_int", counted)

    def kernel(*actions):
        return affine_kernel(PermRep.from_coset_actions(g, list(actions)))

    pair = kernel(a, b)
    assert len(calls) == 1 and pair.rows is a.rows[0]
    assert a.rows is b.rows and a.family is b.family
    for twin in stabilizers:
        assert kernel(twin) is pair
    assert kernel(*stabilizers) is pair
    assert len(calls) == 1
    # a second family: its own elimination, then one stacked
    mixed = kernel(a, d4s[0])
    assert len(calls) == 3
    for s, d in itertools.product(stabilizers, d4s):
        assert kernel(d, s) is mixed
    assert len(calls) == 3
    assert len({id(c.rows) for c in d4s}) == 1
    assert g._families.keys() == {a.family, d4s[0].family}
    assert g._kernels.keys() == {frozenset([a.family]),
                                 frozenset([a.family, d4s[0].family])}


def fresh_sum(rep):
    """A new sum of rep's summands, with nothing computed yet."""
    return PermRep.from_coset_actions(rep.group, rep._summands)


def test_summed_action_matches_the_eager_concatenation(sums):
    for reps in sums.values():
        for rep in reps:
            action = rep.action
            assert type(action) is tuple
            assert all(type(p) is Permutation for p in action)
            assert action == eager_coset_sum_action(rep._summands)
            assert rep.degree == len(action[0])
            assert fresh_sum(rep).orbit_count() == \
                brute_force_orbit_count(action, rep.degree)


def test_stable_route_leaves_the_summed_action_unassembled(sums, main_pair):
    """Stable equivalence by kernel and by characters, polytope and
    kernel dimensions read nothing of a coset sum's action."""
    pairs = [(fresh_sum(a), fresh_sum(b)) for reps in sums.values()
             for a, b in zip(reps[::7], reps[3::7])]
    pairs.append(tuple(map(fresh_sum, main_pair)))
    for repA, repB in pairs:
        table = character_table(repA.group)
        stably_equivalent_by_kernel(repA, repB)
        stably_equivalent_by_characters(repA, repB, table)
        for rep in (repA, repB):
            assert build_polytope(rep, table).dim == \
                rep.group.order - 1 - affine_kernel(rep).dim
            assert "action" not in rep.__dict__
    # any reader assembles it, and keeps it
    assert repA.vertices and repA.__dict__["action"] is repA.action


def test_summed_sets_and_divisors_match_the_summed_action(sums, main_pair):
    """A coset sum's incidence sets and cycle divisors, put together from
    its summands', are _action_sets, as sorted lists, and the per-element
    cycle loop on its assembled action: on every sum of the corpus,
    repeats and the degree-1 summand among them, the main pair, the A6
    representations, sums of conjugate summands, the degree-1 summand
    first, and the trivial group's lone degree-1 summand."""
    _, _, _, _, a6_1, a6_2 = alt6_reps()
    reps = [rep for reps in sums.values() for rep in reps]
    reps += list(main_pair) + [a6_1, a6_2]
    for rep in reps[::3]:
        g, summands = rep.group, rep._summands
        reps.append(PermRep.from_coset_actions(
            g, [conjugate_action(a) for a in summands]))
        reps.append(PermRep.from_coset_actions(
            g, [g.coset_action(g.subgroup(g.gens))] + list(summands)))
    trivial = FiniteGroup.generate([], degree=1)
    reps.append(PermRep.from_coset_actions(
        trivial, [trivial.coset_action(trivial.subgroup([]))]))
    for rep in reps:
        fresh = fresh_sum(rep)
        sets = _incidence_sets(fresh)
        divisors = fresh.cycle_divisors()
        assert "action" not in vars(fresh)
        assert sorted(sets) == sorted(_action_sets(rep.action))
        assert divisors == cycle_divisor_loop(rep)
    assert len(reps) == 1629


def test_effective_route_leaves_the_summed_action_unassembled():
    """The cycle-divisor obstruction, effective equivalence with a
    witness and without one, and an equivariant map across equal kernel
    dimensions read nothing of a coset sum's action."""
    _, main1, main2 = main_example_reps()
    assert cycle_divisor_obstruction(main1, main2) is not None
    assert effectively_equivalent(main1, main2) is None
    late1, late2 = g48_late_witness_pair()
    phi = effectively_equivalent(late1, late2)
    assert phi is not None
    assert build_equivariant_map(late1, late2, phi).phi is phi
    # Klein four and cyclic point stabilizers of S4: no obstruction and
    # equal kernel dimensions, so the search runs, and no witness
    g = fresh_s4()
    klein = g.subgroup([g.element_index(parse_cycles(c, 4))
                        for c in ("(1 2)", "(3 4)")])
    cyclic = g.subgroup([g.element_index(parse_cycles("(1 2 3 4)", 4))])
    rep_k, rep_c = (PermRep.from_coset_actions(g, [g.coset_action(sub)])
                    for sub in (klein, cyclic))
    assert cycle_divisor_obstruction(rep_k, rep_c) is None
    assert affine_kernel(rep_k).dim == affine_kernel(rep_c).dim
    assert effectively_equivalent(rep_k, rep_c) is None
    with pytest.raises(NotStablyEquivalentError):
        build_equivariant_map(rep_k, rep_c, GroupMap.identity(g))
    for rep in (main1, main2, late1, late2, rep_k, rep_c):
        assert "action" not in vars(rep)


def test_unassembled_sum_pickles_and_assembles_later(main_pair):
    rep = fresh_sum(main_pair[0])
    kern = affine_kernel(rep)
    copied = pickle.loads(pickle.dumps(rep))
    assert "action" not in copied.__dict__
    assert copied.degree == rep.degree
    assert affine_kernel(copied) == kern
    assert copied.action == eager_coset_sum_action(rep._summands)
    assert copied.action == rep.action


def test_coset_sum_over_the_vertex_cap_raises():
    """The cap is checked on the summed degree before anything is
    assembled: S5's regular action summed thrice has 120 * 360^2
    entries, over the cap, twice 120 * 240^2, under it."""
    s5 = FiniteGroup.from_cycle_strings(["(1 2)", "(1 2 3 4 5)"], 5)
    regular_s5 = s5.coset_action(s5.subgroup([]))
    assert s5.order * 240 ** 2 <= MAX_VERTEX_ENTRIES < s5.order * 360 ** 2
    with pytest.raises(SizeCapError):
        PermRep.from_coset_actions(s5, [regular_s5] * 3)
    twice = PermRep.from_coset_actions(s5, [regular_s5] * 2)
    assert twice.degree == 240 and "action" not in twice.__dict__


def test_coset_sum_constituents_match_their_action(sums):
    """The constituents a sum of kept coset actions adds up from its
    summands, with one more repeated summand too, are those computed on
    its own action."""
    for g, reps in sums.items():
        table = character_table(g)
        for rep in reps:
            again = PermRep.from_coset_actions(
                g, rep._summands + rep._summands[-1:])
            for summed in (rep, again):
                cons = constituents(summed, table)
                assert all(a.constituents[0] is table for a in summed._summands)
                assert (cons.multiplicities, cons.character) \
                    == cyclotomic_constituents(summed, table)


def g48_equal_dimension_pairs():
    """Every pair of faithful sums of two coset actions of Z2 x Z2 x Z4 x
    Z3, of degree at most 16, with equal affine kernel dimensions."""
    g = FiniteGroup.from_cycle_strings(
        ["(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"], 11)
    actions = [g.coset_action(sub) for k in range(1, 49) if 48 % k == 0
               for sub in g.subgroups_of_order(k)]
    by_dim = {}
    for a, b in itertools.combinations_with_replacement(actions, 2):
        if a.degree + b.degree > 16:
            continue
        try:
            rep = PermRep.from_coset_actions(g, [a, b])
        except NotFaithfulError:
            continue
        by_dim.setdefault(affine_kernel(rep).dim, []).append(rep)
    return [pair for _, reps in sorted(by_dim.items())
            for pair in itertools.combinations(reps, 2)]


def test_effectively_equivalent_matches_exhaustive_oracle(
        s3, klein, z4, z4_family, main_pair):
    _, _, _, _, a6_1, a6_2 = alt6_reps()
    pairs = list(itertools.product(z4_family, repeat=2))
    pairs += [(PermRep.natural(s3), regular(s3)),
              (PermRep.natural(klein), PermRep.natural(z4)),
              main_pair, main_pair[::-1], (a6_1, a6_2)]
    g48_pairs = g48_equal_dimension_pairs()
    assert len(g48_pairs) == 772
    answers = []
    for repA, repB in pairs + g48_pairs:
        expected = exhaustive_effectively_equivalent(repA, repB)
        phi = effectively_equivalent(repA, repB)
        assert (phi is None) == (expected is None)
        if phi is not None:
            assert phi.images == expected.images
            # a witness leaves no obstruction
            assert cycle_divisor_obstruction(repA, repB) is None
        answers.append(phi is not None)
    # both kinds of answer occur, in the scenarios and among the g48 pairs
    assert answers[25:30] == [False, False, False, False, True]
    assert sum(answers[30:]) == 516


def test_cycle_divisor_obstruction_certifies_the_main_example(main_pair):
    # 16 elements of order 12 act on the first with a 12-cycle, none on
    # the second
    assert cycle_divisor_obstruction(*main_pair) == \
        (12, (1, 2, 3, 4, 6, 12), 16, 0)
    assert cycle_divisor_obstruction(main_pair[1], main_pair[0]) == \
        (12, (1, 2, 3, 4, 6, 12), 0, 16)
    assert cycle_divisor_obstruction(main_pair[0], main_pair[0]) is None


def test_effectively_equivalent_obstruction_runs_no_search(main_pair):
    # the exhaustive search raises under a one-node cap; the obstruction
    # answers before any search starts
    with pytest.raises(SizeCapError):
        isomorphisms(main_pair[0].group, main_pair[0].group, node_cap=1)
    assert effectively_equivalent(*main_pair, node_cap=1) is None


def test_kernel_traces_match_the_pivot_walk(sums, main_pair):
    _, _, _, _, a6_1, a6_2 = alt6_reps()
    reps = [rep for reps in sums.values() for rep in reps]
    for rep in reps + list(main_pair) + [a6_1, a6_2]:
        traces = kernel_traces(rep)
        assert all(type(t) is int for t in traces)
        assert traces[0] == affine_kernel(rep).rank - 1
        assert list(traces) == [pivot_walk_trace(rep, g)
                                for g in range(rep.group.order)]
        assert kernel_traces(rep) is traces
        assert u_action_trace(rep, 1) == Fraction(traces[1])


def test_kernel_traces_build_no_kernel_vector():
    """The traces, and the isotype check that reads them, come off the
    reduced rows: on fresh representations no kernel vector is built."""
    g = fresh_s4()
    table = character_table(g)
    for rep in [PermRep.natural(g)] + coset_sums(g):
        kernel_traces(rep)
        assert verify_isotype(rep, table).ok
        assert "sparse_int" not in vars(affine_kernel(rep))


def test_witnesses_match_the_divisor_filter_walk_on_relabelled_twins(
        s4, a4, d6, q8, sums):
    late_nones = 0
    for seed, group in enumerate((s4, a4, d6, q8)):
        twin = relabelled(group, seed)
        # a repeated or trivial summand leaves the kernel as it is, so
        # the sums of distinct summands, every third of coset_sums, do
        reps_b = coset_sums(twin)[::3]
        for repA in sums[group][::3]:
            for repB in reps_b:
                expected, tests = divisor_filter_effectively_equivalent(
                    repA, repB)
                phi = effectively_equivalent(repA, repB)
                if expected is None:
                    assert phi is None
                    late_nones += tests > 0
                else:
                    assert phi.images == expected.images
    # Nones that the old walk reached only after kernel tests occur
    assert late_nones


def g48_late_witness_pair():
    """Two sums of coset actions of Z2 x Z2 x Z4 x Z3 whose first witness
    comes late: the divisor-filter walk runs 57 kernel tests to reach
    it."""
    g = FiniteGroup.from_cycle_strings(
        ["(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"], 11)

    def coset_sum(*keys):
        return PermRep.from_coset_actions(
            g, [g.coset_action(g.subgroups_of_order(k)[i]) for k, i in keys])

    return coset_sum((4, 0), (12, 10)), coset_sum((4, 6), (12, 1))


def test_effectively_equivalent_runs_one_kernel_test_per_witness(
        monkeypatch):
    repA, repB = g48_late_witness_pair()
    expected, tests = divisor_filter_effectively_equivalent(repA, repB)
    assert expected is not None and tests == 57
    calls = []

    def counted(*args):
        calls.append(args)
        return _annihilates_kernel(*args)

    monkeypatch.setattr(reps_module, "_annihilates_kernel", counted)
    phi = effectively_equivalent(repA, repB)
    assert phi.images == expected.images
    assert len(calls) == 1


def test_effectively_equivalent_audits_the_traces_by_the_kernel():
    repA, repB = g48_late_witness_pair()
    first = next(isomorphisms_iter(repA.group, repB.group))
    assert not _annihilates_kernel(repB, affine_kernel(repA), first)
    # equal constant traces pass the first map to the kernel test
    repA._traces = repB._traces = (0,) * repA.group.order
    with pytest.raises(RuntimeError, match="kernel test fails"):
        effectively_equivalent(repA, repB)


def euler_phi(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def cyclic_span_dims(rep, drop_largest=False):
    """(sum of phi(d) over D(g), minus 1, and the exact rank of
    {M_(g^k) - M_e}) for every element g."""
    group = rep.group
    identity = rep.vertices[0]
    out = []
    for g, mask in enumerate(rep.cycle_divisors()):
        divisors = divisors_of_mask(mask)
        if drop_largest:
            divisors = divisors[:-1]
        rows = [[a - b for a, b in zip(rep.vertices[group.power_index(g, k)],
                                       identity)]
                for k in range(1, group.orders[g])]
        out.append((sum(euler_phi(d) for d in divisors) - 1,
                    rank(rows) if rows else 0))
    return out


def test_cycle_divisors_give_cyclic_span_dimensions(
        small_reps, klein_pair, z4_family, main_pair):
    _, _, _, _, a6_1, a6_2 = alt6_reps()
    reps = small_reps + list(klein_pair) + list(z4_family) + list(main_pair)
    for rep in reps + [a6_1, a6_2]:
        # D(g) read independently off the cycles, fixed points included
        for p, mask in zip(rep.action, rep.cycle_divisors()):
            lengths = [len(c) for c in p.cycles()]
            if sum(lengths) < rep.degree:
                lengths.append(1)
            assert divisors_of_mask(mask) == tuple(
                d for d in range(1, rep.degree + 1)
                if any(length % d == 0 for length in lengths))
        for predicted, actual in cyclic_span_dims(rep):
            assert predicted == actual
        # a divisor set missing its largest divisor predicts too little
        for predicted, actual in cyclic_span_dims(rep, drop_largest=True):
            assert predicted < actual
