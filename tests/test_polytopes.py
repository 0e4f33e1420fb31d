import itertools
import random
from fractions import Fraction

import pytest

from oracles import (assert_matches_scan, brute_force_faces,
                     dense_lattice_structure, dense_point_membership,
                     indecomposable, regularity_shape, verify_face_result)
import permpoly.polytopes as polytopes
from permpoly.groups import FiniteGroup, Permutation, parse_cycles
from permpoly.polytopes import (
    FaceResult,
    UnsupportedShapeError,
    _is_face_lp,
    build_polytope,
    is_face,
    lattice_structure,
    normalized_volume,
    point_membership,
    polytopes_equal,
    shape_descriptor,
    subgroup_face_census,
)
from permpoly.reps import NotFaithfulError, PermRep, affine_kernel


def test_face_tests_match_brute_force(small_polytopes):
    routes = set()
    for poly in small_polytopes:
        expected = brute_force_faces(poly)
        n = poly.vertex_count
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                res = is_face(poly, subset)
                assert res.is_face == (frozenset(subset) in expected), \
                    "disagreement on %r of %r" % (subset, poly)
                verify_face_result(poly, subset, res)
                routes.add(res.route)
    assert routes == {"support", "pair", "barycenter", "lp"}


def test_lp_face_test_matches_brute_force(small_polytopes):
    # the LP route alone on every subset: its verdict against the oracle,
    # its dual functional or its barycenter combination checked exactly
    for poly in small_polytopes:
        expected = brute_force_faces(poly)
        n = poly.vertex_count
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                res = _is_face_lp(poly, subset)
                assert res.route == "lp"
                assert res.is_face == (frozenset(subset) in expected), \
                    "disagreement on %r of %r" % (subset, poly)
                verify_face_result(poly, subset, res)


def test_pair_routes_agree_with_lp_and_oracle(s4, d6, q8, a4, main_pair):
    # every vertex pair of four natural polytopes, and the identity pairs
    # of the two degree-16 representations; left multiplication by a^-1
    # is a linear automorphism of the polytope taking {a, b} to
    # {e, a^-1 b}, so the LP and the oracle run once per translate
    cases = [(build_polytope(PermRep.natural(g)), True)
             for g in (s4, d6, q8, a4)]
    cases += [(build_polytope(rep), False) for rep in main_pair]
    for poly, every_pair in cases:
        group, n = poly.group, poly.vertex_count
        lp = {h: _is_face_lp(poly, [0, h]).is_face for h in range(1, n)}
        edge = {h: indecomposable(poly.rep, h) for h in range(1, n)}
        if every_pair:
            pairs = itertools.combinations(range(n), 2)
        else:
            pairs = [(0, h) for h in range(1, n)]
        for a, b in pairs:
            h = group.table[group.inverse[a]][b]
            res = is_face(poly, (a, b))
            assert res.route in ("support", "pair")
            assert res.is_face == lp[h] == edge[h], (a, b, poly)
            verify_face_result(poly, (a, b), res)


def test_subgroup_faces_need_no_lp(s4, d6, main_pair):
    for rep in (PermRep.natural(s4), PermRep.natural(d6), main_pair[0]):
        poly = build_polytope(rep)
        group = rep.group
        for k in range(1, group.order + 1):
            if group.order % k:
                continue
            for sub in group.subgroups_of_order(k):
                res = is_face(poly, sub.elements)
                assert res.route != "lp"
                assert res.is_face == _is_face_lp(poly, sub.elements).is_face
                verify_face_result(poly, sub.elements, res)
    with pytest.raises(AttributeError):
        res.route = "lp"


def test_barycenters_matching_in_some_columns_go_to_the_lp(s4):
    # a few columns of S carry the image counts of its support closure
    # in proportion, the others do not: no combinatorial certificate
    poly = build_polytope(PermRep.natural(s4))
    subset = [s4.element_index(parse_cycles(c, 4))
              for c in ("id", "(1 2)", "(1 2 3 4)", "(1 2 4 3)")]
    res = is_face(poly, subset)
    assert res.route == "lp" and not res.is_face
    verify_face_result(poly, subset, res)


def test_is_face_input_errors(small_polytopes):
    poly = small_polytopes[0]
    with pytest.raises(ValueError):
        is_face(poly, [])
    with pytest.raises(ValueError):
        is_face(poly, [-1])
    with pytest.raises(ValueError):
        is_face(poly, [poly.vertex_count])
    for subset in ([0, 1.5], [0, "1"]):
        with pytest.raises(ValueError, match="must be integers"):
            is_face(poly, subset)


@pytest.mark.parametrize("subset", [[float("inf")], [None, 1], [[1]],
                                    [0, 1j]])
def test_labels_that_are_not_integers_raise_value_error(klein, subset):
    poly = build_polytope(PermRep.natural(klein))
    for call in (lambda: is_face(poly, subset),
                 lambda: shape_descriptor(poly, subset),
                 lambda: klein.subgroup(subset)):
        with pytest.raises(ValueError, match="must be integers"):
            call()


def test_bit_index_matches_the_scan(s3, klein, z4, a4, s4, d6, q8, main_pair):
    """The bit-index face test against the vertex scan it replaced, on
    every vertex pair, every subgroup and seeded random 3-6 subsets of
    the corpus polytopes and of a coset sum whose action is assembled by
    the first face test."""
    z2_4 = FiniteGroup.from_cycle_strings(
        ["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8)
    g48 = main_pair[0].group
    reps = [PermRep.natural(g) for g in
            (s3, klein, z4, a4, s4, d6, q8, z2_4, g48)] + list(main_pair)
    # S4 on the cosets of a 3-cycle and of a double transposition
    s4_copy = FiniteGroup.from_cycle_strings(["(1 2)", "(1 2 3 4)"], 4)
    summed = PermRep.from_coset_actions(s4_copy, [
        s4_copy.coset_action(s4_copy.subgroup(gens)) for gens in ([3], [5])])
    polys = [build_polytope(rep) for rep in reps + [summed]]
    assert "action" not in vars(summed)
    rng = random.Random(33)
    routes = set()
    for poly in polys:
        group = poly.group
        n = group.order
        subsets = list(itertools.combinations(range(n), 2))
        subsets += [sub.elements for k in range(1, n + 1) if n % k == 0
                    for sub in group.subgroups_of_order(k)]
        subsets += [rng.sample(range(n), rng.randint(3, min(6, n)))
                    for _ in range(8)]
        for subset in subsets:
            routes.add(assert_matches_scan(poly, subset))
    assert "action" in vars(summed)
    assert routes == {"support", "pair", "barycenter", "lp"}


def test_bit_index_on_natural_s6_and_the_6_cube():
    """Seeded vertex pairs of natural S6 (720 vertices) against the scan;
    the shapes of S6 and of the 6-cube, which run pair face tests at the
    anchor, stay unclassified."""
    s6 = FiniteGroup.from_cycle_strings(["(1 2)", "(1 2 3 4 5 6)"], 6)
    poly = build_polytope(PermRep.natural(s6))
    rng = random.Random(6)
    routes = {assert_matches_scan(poly, rng.sample(range(720), 2))
              for _ in range(100)}
    assert routes == {"support", "pair"}
    assert str(shape_descriptor(poly)) == "unclassified"
    cube = FiniteGroup.from_cycle_strings(
        ["(%d %d)" % (i, i + 1) for i in range(1, 12, 2)], 12)
    desc = shape_descriptor(build_polytope(PermRep.natural(cube)))
    assert str(desc) == "unclassified" and desc.dim == 6


def test_subgroup_face_census_square(klein, z4):
    census = subgroup_face_census(PermRep.natural(klein), 2)
    assert [e.elements for e in census] == [(0, 1), (0, 2), (0, 3)]
    assert [e.is_face for e in census] == [True, True, False]
    for entry in census:
        if entry.is_face:
            assert entry.face_dim == 1 and entry.witness is not None
        else:
            assert entry.face_dim is None and entry.witness is None
    # every vertex pair of a simplex is an edge
    census4 = subgroup_face_census(PermRep.natural(z4), 2)
    assert len(census4) == 1
    assert census4[0].is_face and census4[0].face_dim == 1
    with pytest.raises(ValueError):
        subgroup_face_census(PermRep.natural(klein), 3)
    for order in (0, -2):
        with pytest.raises(ValueError):
            subgroup_face_census(PermRep.natural(klein), order)
    # 4 % 1.5 is 0.0, which used to pass the divisibility test
    for order in (1.5, "1"):
        with pytest.raises(ValueError, match="must be an integer"):
            subgroup_face_census(PermRep.natural(klein), order)


def test_lattice_structure_klein_pair(klein_pair):
    lat1 = lattice_structure(build_polytope(klein_pair[0]))
    lat2 = lattice_structure(build_polytope(klein_pair[1]))
    assert (lat1.index, lat2.index) == (1, 2)
    assert lat1.euclidean_volume == Fraction(1, 6)
    assert lat2.euclidean_volume == Fraction(1, 3)
    assert (lat1.normalized_volume, lat2.normalized_volume) == (1, 2)


def test_simplex_volume_equals_lattice_index(small_polytopes):
    # the edge vectors of a vertex-count = dim+1 polytope generate the
    # vertex-difference lattice, so the saturation determinant is the index
    simplices = [p for p in small_polytopes if p.vertex_count == p.dim + 1]
    assert simplices
    for poly in simplices:
        assert normalized_volume(poly) == lattice_structure(poly).index


def test_normalized_volume_needs_a_simplex(s3, klein):
    for group in (s3, klein):
        poly = build_polytope(PermRep.natural(group))
        assert lattice_structure(poly).normalized_volume is None
        assert lattice_structure(poly).euclidean_volume is None
        with pytest.raises(UnsupportedShapeError):
            normalized_volume(poly)


def test_point_membership(klein_pair):
    poly = build_polytope(klein_pair[1])
    n2 = poly.degree ** 2
    verts = poly.vertices
    assert point_membership(poly, verts[2]).as_tuple() == \
        (True, True, True, True)
    half = [Fraction(a + b + c - e, 2) for a, b, c, e in
            zip(verts[1], verts[2], verts[3], verts[0])]
    assert point_membership(poly, half).as_tuple() == \
        (True, True, True, False)
    bary = [Fraction(sum(v[k] for v in verts), 4) for k in range(n2)]
    assert point_membership(poly, bary).as_tuple() == \
        (True, False, False, False)
    assert point_membership(poly, [0] * n2).as_tuple() == \
        (False, True, False, False)
    with pytest.raises(ValueError):
        point_membership(poly, [0] * (n2 - 1))


def membership_points(poly, rng, count):
    """Seeded points of every membership kind: integral affine
    combinations of vertices, half-integral ones (midpoints and
    (v_a + v_b + v_c - v_d) / 2), and integral or half-integral points
    off the hull."""
    verts = poly.vertices
    n2 = len(verts[0])
    points = []
    for _ in range(count):
        labels = [rng.randrange(len(verts)) for _ in range(4)]
        ks = [rng.choice((-2, -1, 1, 2)) for _ in range(3)]
        ks.append(1 - sum(ks))
        points.append([sum(k * v[j] for k, v in zip(ks, (verts[g] for g in labels)))
                       for j in range(n2)])
        a, b, c, d = (verts[g] for g in labels)
        points.append([Fraction(x + y, 2) for x, y in zip(a, b)])
        points.append([Fraction(x + y + z - w, 2)
                       for x, y, z, w in zip(a, b, c, d)])
        off = list(a)
        off[rng.randrange(n2)] += rng.choice((-1, 1))
        points.append(off)
        points.append([Fraction(rng.randint(-2, 2), 2) for _ in range(n2)])
    return points


def test_lattice_route_matches_the_dense_double_kernel_route(
        klein_pair, klein, z4, s3, a4, s4, d4, d6, q8):
    """LatticeData and point_membership against the old route: the
    vertex differences saturated by a double integer kernel over all
    ambient columns, and the affine hull decided in the dense Fraction
    basis.  The reps are every census lattice rep (the Klein volume pair
    and natural Klein, Z4, S3, A4, S4, D6, Q8), natural S5, A6 and
    Z2^4, and regular D8."""
    build = FiniteGroup.from_cycle_strings
    s5 = build(["(1 2)", "(1 2 3 4 5)"], 5)
    a6 = build(["(1 2 3)", "(2 3 4 5 6)"], 6)
    z2_4 = build(["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8)
    trivial = d4.subgroup_from_elements([0])
    reps = list(klein_pair) + [
        PermRep.natural(g) for g in (klein, z4, s3, a4, s4, d6, q8, s5, a6, z2_4)]
    reps.append(PermRep.from_coset_actions(d4, [d4.coset_action(trivial)]))
    rng = random.Random(61)
    kinds = set()
    for rep in reps:
        poly = build_polytope(rep)
        data = lattice_structure(poly)
        assert (data.vertex_lattice, data.saturation_lattice, data.index,
                data.normalized_volume, data.dim) == dense_lattice_structure(poly)
        oracle = dense_point_membership(poly)
        for point in membership_points(poly, rng, 8):
            got = point_membership(poly, point).as_tuple()
            assert got == oracle(point)
            kinds.add(got)
    assert kinds == {(True, True, True, True), (True, True, True, False),
                     (True, False, False, False), (False, True, False, False),
                     (False, False, False, False)}


def test_single_vertex_polytope():
    trivial = FiniteGroup.generate([], degree=2)
    poly = build_polytope(PermRep.natural(trivial))
    data = lattice_structure(poly)
    assert (data.vertex_lattice, data.saturation_lattice, data.index,
            data.normalized_volume, data.dim) == ([], [], 1, 1, 0)
    vertex = poly.vertices[0]
    assert point_membership(poly, vertex).as_tuple() == (True, True, True, True)
    off = [1 - x for x in vertex]
    assert point_membership(poly, off).as_tuple() == (False, True, False, False)
    half = [Fraction(x, 2) for x in vertex]
    assert point_membership(poly, half).as_tuple() == (False, False, False, False)


def test_repeated_vertices_are_refused(s3, klein):
    """An action that repeats a vertex is not faithful, and is refused
    before any polytope is built."""
    for group in (s3, klein):
        ident = Permutation.identity(group.degree)
        with pytest.raises(NotFaithfulError):
            PermRep(group, [ident] * group.order)


def test_shape_descriptor(klein, z4, s3):
    square = build_polytope(PermRep.natural(klein))
    assert str(shape_descriptor(square)) == "product(1, 1)"
    tetra = build_polytope(PermRep.natural(z4))
    assert str(shape_descriptor(tetra)) == "simplex(3)"
    birkhoff = build_polytope(PermRep.natural(s3))
    desc = shape_descriptor(birkhoff)
    assert desc.kind == "unclassified"
    assert str(desc) == "unclassified"
    assert desc.vertex_count == 6 and desc.dim == 4
    # faces classify too: an edge of the square is a 1-simplex
    assert str(shape_descriptor(square, (0, 1))) == "simplex(1)"
    assert str(shape_descriptor(square, range(4))) == "product(1, 1)"
    assert shape_descriptor(square).labelling == ((0, 2), (1, 3))
    assert desc.labelling is None and shape_descriptor(tetra).labelling is None


def check_labelling(poly, subset, desc):
    """A product's labelling on the vertex matrices: a + 1 rows of b + 1
    distinct labels covering the set, with M_ij = M_i0 + M_0j - M_00."""
    a, b = desc.params
    grid = desc.labelling
    assert a <= b and len(grid) == a + 1
    assert all(len(row) == b + 1 for row in grid)
    labels = [g for row in grid for g in row]
    assert len(set(labels)) == len(labels)
    assert set(labels) == set(range(poly.vertex_count) if subset is None
                              else subset)
    m = poly.vertices
    for row in grid:
        for j, g in enumerate(row):
            assert m[g] == tuple(x + y - z for x, y, z in
                                 zip(m[row[0]], m[grid[0][j]], m[grid[0][0]]))


def test_shape_matches_the_regularity_oracle(klein, z4, s3, a4, s4, d6, q8,
                                             main_pair):
    """The labelling against the regularity heuristic it replaced, on
    every corpus polytope, every subgroup vertex set of every order and
    seeded random subsets.  Where they differ the labelling found a
    product, and every product's labelling is checked."""
    z2_4 = FiniteGroup.from_cycle_strings(
        ["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8)
    g48 = main_pair[0].group
    reps = [PermRep.natural(g) for g in
            (s3, klein, z4, a4, s4, d6, q8, z2_4, g48)] + list(main_pair)
    rng = random.Random(30)
    shapes = set()
    for rep in reps:
        poly = build_polytope(rep)
        group = rep.group
        subsets = [None] + [sub.elements for k in range(1, group.order + 1)
                            if group.order % k == 0
                            for sub in group.subgroups_of_order(k)]
        subsets += [rng.sample(range(group.order),
                              rng.randint(3, min(8, group.order)))
                    for _ in range(60)]
        for subset in subsets:
            desc = shape_descriptor(poly, subset)
            shapes.add(desc.kind)
            if desc.kind == "product":
                check_labelling(poly, subset, desc)
            if str(desc) != regularity_shape(poly, subset):
                assert desc.kind == "product"
    assert shapes == {"simplex", "product", "unclassified"}


def test_prism_subset_is_a_product():
    """Six vertices of the 4-cube spanning a triangular prism: the
    regularity heuristic counted the whole polytope's edges and left it
    unclassified."""
    z2_4 = FiniteGroup.from_cycle_strings(
        ["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8)
    poly = build_polytope(PermRep.natural(z2_4))
    prism = (0, 1, 3, 4, 6, 8)
    desc = shape_descriptor(poly, prism)
    assert str(desc) == "product(1, 2)"
    check_labelling(poly, prism, desc)
    assert regularity_shape(poly, prism) == "unclassified"


def test_flipped_anchor_edge_leaves_the_shape_unclassified(
        monkeypatch, klein, main_pair):
    """Dropping one edge at the anchor or adding one gives unclassified,
    never a wrong product."""
    face = polytopes.is_face
    cases = [(build_polytope(PermRep.natural(klein)), None),
             (build_polytope(main_pair[0]), None)]
    census = subgroup_face_census(main_pair[0], 24, poly=cases[1][0])
    cases += [(cases[1][0], e.elements) for e in census if e.is_face][:1]
    for poly, subset in cases:
        assert shape_descriptor(poly, subset).kind == "product"
        anchor, *others = sorted(range(poly.vertex_count) if subset is None
                                 else subset)
        for h in others:
            def flipped(p, pair, h=h):
                res = face(p, pair)
                if sorted(pair) == [anchor, h]:
                    return FaceResult(not res.is_face)
                return res
            monkeypatch.setattr(polytopes, "is_face", flipped)
            assert str(shape_descriptor(poly, subset)) == "unclassified"
            monkeypatch.undo()


@pytest.mark.parametrize("subset", [[999], [-1, 0], [], [0, 1.5], [0, "1"]])
def test_shape_descriptor_rejects_bad_labels(klein, subset):
    square = build_polytope(PermRep.natural(klein))
    with pytest.raises(ValueError):
        shape_descriptor(square, subset)


def test_polytopes_equal(klein, z4, klein_pair):
    nat = PermRep.natural(klein)
    klein2 = FiniteGroup.from_cycle_strings(["(1 2)", "(3 4)"], 4)
    assert polytopes_equal(nat, PermRep.natural(klein2))
    assert not polytopes_equal(nat, PermRep.natural(z4))
    assert not polytopes_equal(nat, klein_pair[1])


def test_polytope_dim_builds_no_chart(monkeypatch, s4, main_pair):
    from permpoly.characters import character_table

    def refuse(*args):
        raise AssertionError("the chart was built")

    monkeypatch.setattr(polytopes, "_chart_pivots", refuse)
    for rep in (PermRep.natural(s4), main_pair[0]):
        poly = build_polytope(rep, character_table(rep.group))
        assert poly.dim == rep.group.order - 1 - affine_kernel(rep).dim
        assert "pivots" not in vars(poly) and "coords" not in vars(poly)
        with pytest.raises(AssertionError, match="chart was built"):
            poly.coords


def test_chart_is_checked_before_it_is_kept(monkeypatch, s4):
    chart_pivots = polytopes._chart_pivots
    monkeypatch.setattr(polytopes, "_chart_pivots",
                        lambda *args: chart_pivots(*args)[:-1])
    poly = build_polytope(PermRep.natural(s4))
    for _ in range(2):
        with pytest.raises(RuntimeError, match="chart has 8 pivots for "
                                               "dimension 9"):
            poly.coords
    assert "pivots" not in vars(poly) and "coords" not in vars(poly)
    monkeypatch.undo()
    assert len(poly.pivots) == poly.dim == 9
    assert len(poly.coords) == 24


def test_build_polytope_character_cross_check(s3, klein):
    from permpoly.characters import character_table
    for group in (s3, klein):
        poly = build_polytope(PermRep.natural(group), character_table(group))
        assert poly.dim == len(poly.coords[0])
