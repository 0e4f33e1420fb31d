"""Bundled end-to-end scenarios with pinned expected outcomes.

Each scenario builds its groups and representations from scratch, runs
the full pipeline, and compares every computed quantity against a
frozen expectation inside a Report.  All comparisons are exact.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .characters import (character_table, constituents, invariant_factors,
                         real_irreducibles, stably_equivalent_by_characters,
                         verify_isotype)
from .groups import (DEFAULT_NODE_CAP, DEFAULT_ORDER_CAP, FiniteGroup,
                     isomorphisms, parse_cycles)
from .polytopes import (build_polytope, is_face, lattice_structure,
                        point_membership, polytopes_equal, shape_descriptor,
                        subgroup_face_census)
from .report import Report
from .reps import (PermRep, affine_kernel, build_equivariant_map,
                   compose_with_map, effectively_equivalent,
                   stably_equivalent_by_kernel)


def _group(gen_strings, degree, cap, label):
    return FiniteGroup.from_cycle_strings(gen_strings, degree, cap=cap,
                                          label=label)


def klein_volume_reps(cap=DEFAULT_ORDER_CAP):
    """The Klein group with its regular degree-4 embedding and a
    stably equivalent degree-6 representation."""
    g = _group(["(1 2)", "(3 4)"], 4, cap, "klein")
    rep1 = PermRep.from_generator_images(
        g, [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    rep2 = PermRep.from_generator_images(
        g, [parse_cycles("(1 2)(3 4)", 6), parse_cycles("(1 2)(5 6)", 6)])
    return g, rep1, rep2


def z4_family_reps(cap=DEFAULT_ORDER_CAP):
    """Five 4-element cyclic permutation groups on 4 to 8 points."""
    specs = [
        (["(1 2 3 4)"], 4),
        (["(1 2 3 4)"], 5),
        (["(1 2 3 4)(5 6)"], 6),
        (["(1 2 3 4)(5 6)(7 8)"], 8),
        (["(1 2 3 4)(5 6 7 8)"], 8),
    ]
    reps = []
    for i, (gens, degree) in enumerate(specs):
        g = _group(gens, degree, cap, "z4-%d" % (i + 1))
        reps.append(PermRep.natural(g))
    return reps


def main_example_reps(cap=DEFAULT_ORDER_CAP):
    """The order-48 group (Z2 x Z2) x Z4 x Z3 with its two degree-16
    coset-sum representations."""
    g = _group(["(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"], 11, cap,
               "z2xz2xz4xz3")
    a1, a2, b, c = g.gens
    sub_a = g.subgroup([a1, a2])
    sub_b = g.subgroup([b])
    sub_bc = g.subgroup([b, c])
    sub_ac = g.subgroup([a1, a2, c])
    rep1 = PermRep.from_coset_actions(
        g, [g.coset_action(sub_a), g.coset_action(sub_bc)])
    rep2 = PermRep.from_coset_actions(
        g, [g.coset_action(sub_b), g.coset_action(sub_ac)])
    return g, rep1, rep2


def alt6_reps(cap=DEFAULT_ORDER_CAP, node_cap=DEFAULT_NODE_CAP):
    """Alt(6) with the coset representations on a point stabilizer and
    on a transitive subgroup of order 60."""
    g = _group(["(1 2 3 4 5)", "(4 5 6)"], 6, cap, "alt6")
    h1 = g.point_stabilizer(1)
    subs = g.subgroups_of_order(60, node_cap=node_cap)
    transitive = [s for s in subs if s.is_transitive()]
    if not transitive:
        raise RuntimeError("no transitive subgroup of order 60 found")
    h2 = transitive[0]
    rep1 = PermRep.from_coset_actions(g, [g.coset_action(h1)])
    rep2 = PermRep.from_coset_actions(g, [g.coset_action(h2)])
    return g, h1, h2, subs, rep1, rep2


def _closed_under_composition(maps):
    """Is the set S of image tuples closed under composition?

    Grows T inside S, adding an element of S outside the closure <T>
    until <T> = S, and fails as soon as a product leaves S.  The closure
    of T is a group inside S, so S is closed exactly when some <T>
    reaches it; each added element at least doubles <T>, so there are
    O(log |S|) rounds of |<T>| * |T| products.
    """
    members = set(maps)
    identity = tuple(range(len(maps[0])))
    if identity not in members:
        return False
    gens = []
    closure = {identity}
    while len(closure) < len(members):
        gens.append(next(m for m in maps if m not in closure))
        closure = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for x in frontier:
                for t in gens:
                    y = tuple(map(x.__getitem__, t))
                    if y not in members:
                        return False
                    if y not in closure:
                        closure.add(y)
                        nxt.append(y)
            frontier = nxt
    return True


def _constituent_max_order(rep, table):
    cons = constituents(rep, table)
    orders = [table.char_order(i) for i in cons.nontrivial]
    return max(o for o in orders if o is not None)


# ---------------------------------------------------------------------------


def scenario_intro_pair(cap=DEFAULT_ORDER_CAP, node_cap=DEFAULT_NODE_CAP):
    rep = Report("intro-pair")
    g1 = _group(["(1 2)", "(3 4)"], 4, cap, "klein-intransitive")
    g2 = _group(["(1 2)(3 4)", "(1 3)(2 4)"], 4, cap, "klein-regular")
    nat1 = PermRep.natural(g1)
    nat2 = PermRep.natural(g2)
    poly1 = build_polytope(nat1, character_table(g1))
    poly2 = build_polytope(nat2, character_table(g2))
    rep.check("orders", (4, 4), (g1.order, g2.order))
    rep.check("vertex-counts", (4, 4), (poly1.vertex_count, poly2.vertex_count))
    rep.check("dims", (2, 3), (poly1.dim, poly2.dim))
    rep.check("quadrangle-shape", "product(1, 1)", str(shape_descriptor(poly1)))
    rep.check("tetrahedron-shape", "simplex(3)", str(shape_descriptor(poly2)))
    isos = isomorphisms(g1, g2, node_cap=node_cap)
    rep.check("isomorphism-count", 6, len(isos))
    verdicts = [stably_equivalent_by_kernel(nat1, compose_with_map(nat2, phi))
                for phi in isos]
    rep.check("stable-under-each-isomorphism", [False] * 6, verdicts)
    rep.check("effective-witness", None,
              effectively_equivalent(nat1, nat2, node_cap=node_cap))
    return rep


def scenario_z4_family(cap=DEFAULT_ORDER_CAP, node_cap=DEFAULT_NODE_CAP):
    rep = Report("z4-family")
    reps = z4_family_reps(cap)
    polys = [build_polytope(r, character_table(r.group)) for r in reps]
    rep.check("vertex-counts", [4] * 5, [p.vertex_count for p in polys])
    rep.check("dims", [3] * 5, [p.dim for p in polys])
    rep.check("shapes", ["simplex(3)"] * 5,
              [str(shape_descriptor(p)) for p in polys])
    for i in range(5):
        for j in range(i + 1, 5):
            phi = effectively_equivalent(reps[i], reps[j], node_cap=node_cap)
            name = "pair-%d-%d" % (i + 1, j + 1)
            if phi is None:
                rep.check(name + "-witness", "isomorphism", None)
                continue
            rep.check(name + "-witness-valid", True,
                      stably_equivalent_by_kernel(
                          reps[i], compose_with_map(reps[j], phi)))
            emap = build_equivariant_map(reps[i], reps[j], phi)
            images = sorted(emap.vertex_map)
            rep.check(name + "-vertex-bijection", list(range(4)), images)
    return rep


def scenario_klein_volume(cap=DEFAULT_ORDER_CAP, node_cap=DEFAULT_NODE_CAP):
    rep = Report("klein-volume")
    g, rep1, rep2 = klein_volume_reps(cap)
    table = character_table(g)
    poly1 = build_polytope(rep1, table)
    poly2 = build_polytope(rep2, table)
    rep.check("vertex-counts", (4, 4), (poly1.vertex_count, poly2.vertex_count))
    rep.check("dims", (3, 3), (poly1.dim, poly2.dim))
    lat1 = lattice_structure(poly1)
    lat2 = lattice_structure(poly2)
    rep.check("index-regular", 1, lat1.index)
    rep.check("index-degree6", 2, lat2.index)
    rep.check("volume-regular", Fraction(1, 6), lat1.euclidean_volume)
    rep.check("volume-degree6", Fraction(2, 6), lat2.euclidean_volume)
    # half the sum of the three involution vertices minus the identity
    v = [Fraction(a + b + c - d, 2) for a, b, c, d in
         zip(rep2.vertices[1], rep2.vertices[2], rep2.vertices[3],
             rep2.vertices[0])]
    membership = point_membership(poly2, v)
    rep.check("half-sum-membership", (True, True, True, False),
              membership.as_tuple())
    rep.check("stable-by-kernel", True, stably_equivalent_by_kernel(rep1, rep2))
    rep.check("stable-by-characters", True,
              stably_equivalent_by_characters(rep1, rep2, table))
    return rep


def scenario_a6_almost(cap=DEFAULT_ORDER_CAP, node_cap=DEFAULT_NODE_CAP):
    rep = Report("a6-almost")
    g, h1, h2, subs, rep1, rep2 = alt6_reps(cap, node_cap)
    rep.check("group-order", 360, g.order)
    rep.check("order-60-subgroups", 12, len(subs))
    rep.check("transitive-order-60-subgroups", 6,
              len([s for s in subs if s.is_transitive()]))
    rep.check("stabilizer-intransitive", False, h1.is_transitive())
    rep.check("degrees", (6, 6), (rep1.degree, rep2.degree))
    rep.check("equal-vertex-sets", True, polytopes_equal(rep1, rep2))
    rep.check("vertex-count", 360, len(set(rep1.vertices)))
    k1 = affine_kernel(rep1)
    k2 = affine_kernel(rep2)
    rep.check("kernel-dims", (334, 334), (k1.dim, k2.dim))
    rep.check("stable-by-kernel", False, stably_equivalent_by_kernel(rep1, rep2))
    table = character_table(g)
    rep.check("stable-by-characters", False,
              stably_equivalent_by_characters(rep1, rep2, table))
    cons1 = constituents(rep1, table)
    cons2 = constituents(rep2, table)
    deg5 = [i for i in range(table.count) if table.degrees[i] == 5]
    rep.check("constituents-are-distinct-degree-5",
              (True, True, True),
              (len(cons1.nontrivial) == 1 and set(cons1.nontrivial) <= set(deg5),
               len(cons2.nontrivial) == 1 and set(cons2.nontrivial) <= set(deg5),
               cons1.nontrivial != cons2.nontrivial))
    phi = effectively_equivalent(rep1, rep2, node_cap=node_cap)
    rep.check("effective-witness-found", True, phi is not None)
    if phi is not None:
        rep.check("witness-verifies", True,
                  stably_equivalent_by_kernel(
                      rep1, compose_with_map(rep2, phi)))
    return rep


def scenario_main_example(cap=DEFAULT_ORDER_CAP, node_cap=DEFAULT_NODE_CAP):
    rep = Report("main-example")
    g, rep1, rep2 = main_example_reps(cap)
    rep.check("group-order", 48, g.order)
    rep.check("invariant-factors", (2, 2, 12), invariant_factors(g))
    table = character_table(g)
    poly1 = build_polytope(rep1, table)
    poly2 = build_polytope(rep2, table)
    rep.check("degrees", (16, 16), (rep1.degree, rep2.degree))
    rep.check("vertex-counts", (48, 48),
              (poly1.vertex_count, poly2.vertex_count))
    rep.check("dims", (14, 14), (poly1.dim, poly2.dim))
    rep.check("max-constituent-orders", (12, 6),
              (_constituent_max_order(rep1, table),
               _constituent_max_order(rep2, table)))
    rep.check("shapes", ("product(3, 11)", "product(3, 11)"),
              (str(shape_descriptor(poly1)), str(shape_descriptor(poly2))))
    rep.check("stable-by-kernel", False, stably_equivalent_by_kernel(rep1, rep2))
    rep.check("stable-by-characters", False,
              stably_equivalent_by_characters(rep1, rep2, table))
    autos = isomorphisms(g, g, node_cap=node_cap)
    rep.check("automorphism-count", 384, len(autos))
    rep.check("automorphisms-closed-under-composition", True,
              _closed_under_composition([phi.images for phi in autos]))
    rep.check("effective-witness", None,
              effectively_equivalent(rep1, rep2, node_cap=node_cap))
    return rep


def scenario_face_census(cap=DEFAULT_ORDER_CAP, node_cap=DEFAULT_NODE_CAP):
    rep = Report("face-census")
    g, rep1, rep2 = main_example_reps(cap)
    rep.check("order-24-subgroup-count", 7,
              len(g.subgroups_of_order(24, node_cap=node_cap)))
    poly1 = build_polytope(rep1)
    poly2 = build_polytope(rep2)
    census1 = subgroup_face_census(rep1, 24, node_cap=node_cap, poly=poly1)
    census2 = subgroup_face_census(rep2, 24, node_cap=node_cap, poly=poly2)
    faces1 = [e for e in census1 if e.is_face]
    faces2 = [e for e in census2 if e.is_face]
    rep.check("face-counts", (4, 4), (len(faces1), len(faces2)))
    rep.check("face-dims-first", (8, 12, 12, 12),
              tuple(sorted(e.face_dim for e in faces1)))
    rep.check("face-dims-second", (8, 8, 8, 12),
              tuple(sorted(e.face_dim for e in faces2)))
    shapes1 = sorted(str(shape_descriptor(poly1, e.elements)) for e in faces1)
    shapes2 = sorted(str(shape_descriptor(poly2, e.elements)) for e in faces2)
    rep.check("face-shapes-first",
              ["product(1, 11)"] * 3 + ["product(3, 5)"], shapes1)
    rep.check("face-shapes-second",
              ["product(1, 11)"] + ["product(3, 5)"] * 3, shapes2)
    return rep


def scenario_isotype_suite(cap=DEFAULT_ORDER_CAP, node_cap=DEFAULT_NODE_CAP):
    rep = Report("isotype-suite")
    z4 = _group(["(1 2 3 4)"], 4, cap, "z4-regular")
    klein = _group(["(1 2)", "(3 4)"], 4, cap, "klein-natural")
    _, klein_regular, _ = klein_volume_reps(cap)
    s3 = _group(["(1 2)", "(1 2 3)"], 3, cap, "sym3")
    s3_regular = PermRep.from_coset_actions(
        s3, [s3.coset_action(s3.subgroup([]))])
    q8 = _group(["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8, cap, "q8")
    a5 = _group(["(1 2 3 4 5)", "(3 4 5)"], 5, cap, "alt5")
    _, main1, main2 = main_example_reps(cap)
    cases = [
        ("z4-regular", PermRep.natural(z4), 3),
        ("klein-natural", PermRep.natural(klein), 2),
        ("klein-regular", klein_regular, 3),
        ("sym3-natural", PermRep.natural(s3), 4),
        ("sym3-regular", s3_regular, 5),
        ("q8-regular", PermRep.natural(q8), 7),
        ("alt5-natural", PermRep.natural(a5), 16),
        ("main-example-first", main1, 14),
        ("main-example-second", main2, 14),
    ]
    for name, r, dim_expected in cases:
        table = character_table(r.group)
        result = verify_isotype(r, table)
        rep.check(name + "-dim", dim_expected, result.dim_actual)
        rep.check(name + "-identities", True, result.ok)
    q8_table = character_table(q8)
    from .characters import real_irreducibles
    quaternionic = [r for r in real_irreducibles(q8_table)
                    if r.indicator == -1]
    rep.check("q8-quaternionic-constituent", 1, len(quaternionic))
    rep.check("q8-quarter-fraction", Fraction(1, 4),
              quaternionic[0].schur_fraction if quaternionic else None)
    return rep


SCENARIOS = {
    "intro-pair": scenario_intro_pair,
    "z4-family": scenario_z4_family,
    "klein-volume": scenario_klein_volume,
    "a6-almost": scenario_a6_almost,
    "main-example": scenario_main_example,
    "face-census": scenario_face_census,
    "isotype-suite": scenario_isotype_suite,
}


def run_scenario(name: str, cap=DEFAULT_ORDER_CAP,
                 node_cap=None) -> Report:
    if name not in SCENARIOS:
        raise KeyError("unknown scenario %r; known: %s"
                       % (name, ", ".join(sorted(SCENARIOS))))
    if node_cap is None:
        node_cap = 10_000 * cap
    start = time.monotonic()
    report = SCENARIOS[name](cap=cap, node_cap=node_cap)
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    return report
