import gc
import hashlib
import pickle
import random
from fractions import Fraction

import pytest
from sympy.combinatorics import Permutation as SPerm
from sympy.combinatorics import PermutationGroup

from oracles import (all_pairs_table, brute_force_isomorphisms,
                     brute_force_orbit_count, exhaustive_isomorphisms,
                     exhaustive_subgroups_of_order, is_homomorphism_all_pairs,
                     relabelled, scanning_parse_cycles)
from permpoly.groups import (
    CycleParseError,
    FiniteGroup,
    GroupMap,
    Permutation,
    SizeCapError,
    _CYCLE_TOKEN,
    _extend_closure,
    automorphisms,
    generator_correspondence,
    isomorphisms,
    isomorphisms_iter,
    parse_cycles,
)
from permpoly.scenarios import _closed_under_composition


def sympy_twin(group):
    gens = [SPerm(list(group.elements[i].images), size=group.degree)
            for i in group.gens]
    return PermutationGroup(gens)


def test_parse_round_trip():
    rng = random.Random(7)
    assert parse_cycles("id", 5).is_identity()
    assert parse_cycles("()", 5).is_identity()
    assert parse_cycles("(1 2 3)(4 5)", 5).cycle_string() == "(1 2 3)(4 5)"
    for _ in range(40):
        images = list(range(rng.randint(1, 9)))
        rng.shuffle(images)
        p = Permutation(images)
        assert parse_cycles(p.cycle_string(), p.degree) == p


def test_permutation_is_its_image_tuple(s4):
    rng = random.Random(11)
    perms, plain = [], []
    for _ in range(40):
        images = list(range(rng.randint(1, 6)))
        rng.shuffle(images)
        perms.append(Permutation(images))
        plain.append(tuple(images))
    for p, t in zip(perms, plain):
        assert p == t and t == p and hash(p) == hash(t)
        assert p.images is p and p.degree == len(p) == len(t)
    assert sorted(perms) == sorted(plain)
    assert {p: i for i, p in enumerate(perms)} == \
        {t: i for i, t in enumerate(plain)}
    for i, e in enumerate(s4.elements):
        assert s4.element_index(tuple(e)) == i
    p, q = s4.elements[1], s4.elements[2]
    assert p * q == tuple(p[i] for i in q) and type(p * q) is Permutation
    for misuse in (lambda: p + q, lambda: 3 * p, lambda: p * 3):
        with pytest.raises(TypeError):
            misuse()


def test_plain_tuple_plus_permutation_raises(s4):
    """A plain tuple or list on the left of + does not concatenate a
    permutation; the permutation refuses through __radd__."""
    p = s4.elements[1]
    for misuse in (lambda: (1, 2) + p, lambda: () + p, lambda: [0] + p,
                   lambda: sum([p], ())):
        with pytest.raises(TypeError):
            misuse()
    assert tuple(p) + (1,) == (*p, 1)


def test_parse_errors():
    bad = [
        ("(1 2", 4),          # unclosed
        ("(1 2)(2 3)", 4),    # repeated point
        ("(5)", 4),           # out of range
        ("(0 1)", 4),         # points are 1-based
        ("abc", 4),
        ("1 2 3", 4),
        ("()(1 2)", 4),       # "()" must stand alone
        ("id x", 4),
        ("", 4),
        ("(1 x)", 4),
    ]
    for text, degree in bad:
        with pytest.raises(CycleParseError) as exc:
            parse_cycles(text, degree)
        assert exc.value.position >= 0


def parse_outcome(parse, text, degree):
    """The Permutation parsed, or the CycleParseError's message and
    position."""
    try:
        return parse(text, degree)
    except CycleParseError as exc:
        return str(exc), exc.position


def test_parse_matches_the_scanner_oracle():
    """The one-scan tokenizer gives the character scanner's Permutation,
    or its error message and position, on a table of inputs and on
    seeded random strings."""
    table = [
        "id", "  id\t", "id x", "idx", "id(1 2)", "i", "d", "()", " ( ) ",
        "()()", "() (1 2)", "(1 2)()", "(1 2)(3 4)", "\t(1\t2)\n(3 4)\r",
        "(01 002)", "(0 1)", "(007)", "(000)", "(12)", "(1 2", "(1 2 x",
        "(1 2)(3", "(3 x 4", "(1 1)", "(1 2)(2 3)", "(" + "9" * 5000 + ")",
        "(" + "0" * 5000 + "3)", "(" + "0" * 5000 + ")", "(\uff11 2)",
        "\uff11", "(1 2)x", "", "   ", "\u3000(1 2)\u2028", "(1\xa02)",
        "(1\x1c2)", "(1\u200b2)", "(1)(2)", "((1 2)", "(1 2))", ")",
        "(1 2 3 4)(5 6)", "(4 3 2 1)(12 11)",
    ]
    outcomes = set()
    for text in table:
        for degree in (0, 1, 4, 12):
            got = parse_outcome(parse_cycles, text, degree)
            assert got == parse_outcome(scanning_parse_cycles, text, degree)
            outcomes.add(got if type(got) is tuple else "parsed")
    rng = random.Random(34)
    pieces = ["(", ")", " ", "\t", "\n", "\u3000", "1", "2", "3", "0", "12",
              "007", "\uff11", "id", "x", "99999999999"]
    for _ in range(4000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
        degree = rng.randint(0, 12)
        got = parse_outcome(parse_cycles, text, degree)
        assert got == parse_outcome(scanning_parse_cycles, text, degree)
        outcomes.add(got if type(got) is tuple else "parsed")
    # valid products of cycles, spaced and zero-padded at random
    def space():
        return rng.choice(["", " ", "\t\n", "\u3000"])

    for _ in range(400):
        images = list(range(rng.randint(1, 12)))
        rng.shuffle(images)
        p = Permutation(images)
        text = space() + "".join(
            "(" + space() + " ".join(
                rng.choice(["", "0", "00"]) + str(point) + space()
                for point in cycle) + ")" + space()
            for cycle in p.cycles()) if p.cycles() else "()"
        assert parse_cycles(text, p.degree) == p
        assert scanning_parse_cycles(text, p.degree) == p
    messages = {m.split(" (at")[0].split(" ")[0] for m, _ in
                (o for o in outcomes if o != "parsed")}
    assert "parsed" in outcomes
    assert messages == {"unexpected", "expected", "point", "unclosed",
                        "empty"}
    for parse in (parse_cycles, scanning_parse_cycles):
        with pytest.raises(ValueError, match="nonnegative"):
            parse("id", -1)


def test_cycle_tokens_skip_exactly_the_isspace_characters():
    """finditer skips what _CYCLE_TOKEN does not match: on every code
    point, exactly the characters str.isspace accepts."""
    for c in range(0x110000):
        ch = chr(c)
        assert (_CYCLE_TOKEN.match(ch) is None) == ch.isspace(), hex(c)


def test_orders_match_sympy(klein, z4, s3, s4, a4, d4, q8, a5):
    expected = {klein: 4, z4: 4, s3: 6, s4: 24, a4: 12, d4: 8, q8: 8, a5: 60}
    for group, n in expected.items():
        assert group.order == n
        assert sympy_twin(group).order() == n


def test_canonical_element_order(s4):
    assert s4.elements[0].is_identity()
    for i, e in enumerate(s4.elements):
        assert s4.element_index(e) == i
    rebuilt = FiniteGroup.generate([s4.elements[i] for i in s4.gens], degree=4)
    assert rebuilt.elements == s4.elements


def test_table_matches_composition(s4, q8):
    rng = random.Random(11)
    for group in (s4, q8):
        n = group.order
        for _ in range(60):
            i, j = rng.randrange(n), rng.randrange(n)
            assert group.elements[group.mult(i, j)] == \
                group.elements[i] * group.elements[j]
        for i in range(n):
            assert group.mult(i, group.inv(i)) == 0
            assert group.orders[i] == group.elements[i].order()
        for _ in range(20):
            i, s = rng.randrange(n), rng.randrange(12)
            assert group.elements[group.power_index(i, s)] == \
                group.elements[i] ** s


def test_is_abelian_and_exponent(klein, z4, s3, q8):
    assert klein.is_abelian() and z4.is_abelian()
    assert not s3.is_abelian() and not q8.is_abelian()
    assert klein.exponent() == 2
    assert z4.exponent() == 4
    assert s3.exponent() == 6
    assert q8.exponent() == 4


def test_conjugacy_classes(s3, s4, a4, d4, q8, a5):
    counts = {s3: 3, s4: 5, a4: 4, d4: 5, q8: 5, a5: 5}
    for group, k in counts.items():
        classes = group.conjugacy_classes()
        assert len(classes) == k
        assert len(sympy_twin(group).conjugacy_classes()) == k
        assert classes[0] == (0,)
        assert sum(len(c) for c in classes) == group.order
        of = group.class_of()
        for cid, cls in enumerate(classes):
            for x in cls:
                assert of[x] == cid
        # classes are closed under conjugation by generators
        for cls in classes:
            members = set(cls)
            for g in group.gens:
                gi = group.inv(g)
                for x in cls:
                    assert group.mult(group.mult(g, x), gi) in members


def test_element_order_profile_vs_sympy(a5):
    ours = sorted(a5.orders)
    theirs = sorted(p.order() for p in sympy_twin(a5).elements)
    assert ours == theirs


def test_subgroups_of_order_s4(s4):
    counts = {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}
    for k, expected in counts.items():
        subs = s4.subgroups_of_order(k)
        assert len(subs) == expected
        assert len({sub.elements for sub in subs}) == expected
        for sub in subs:
            assert sub.order == k
            # closure: re-admitting the element set must succeed
            assert s4.subgroup_from_elements(sub.elements).elements == sub.elements
    with pytest.raises(ValueError):
        s4.subgroups_of_order(5)


def test_subgroup_search_node_cap(s4):
    with pytest.raises(SizeCapError):
        s4.subgroups_of_order(4, node_cap=1)


def test_point_stabilizer(s4, a5):
    stab = s4.point_stabilizer(1)
    assert stab.order == 6
    assert all(s4.elements[i].images[0] == 0 for i in stab.elements)
    assert a5.point_stabilizer(3).order == 12
    for bad in (0, -1, 5, 1.5, "1", None):
        with pytest.raises(ValueError, match="out of range"):
            s4.point_stabilizer(bad)
    assert s4.point_stabilizer(2.0) == s4.point_stabilizer(2)


def test_coset_action(s4):
    stab = s4.point_stabilizer(1)
    act = s4.coset_action(stab)
    assert act.degree == 4
    assert act.kernel == (0,)
    # coset 0 is the subgroup itself: its stabilizer
    assert tuple(g for g in range(24) if act.images[g][0] == 0) \
        == stab.elements
    # action homomorphism: image of a product is the product of images
    rng = random.Random(13)
    for _ in range(40):
        i, j = rng.randrange(24), rng.randrange(24)
        assert act.images[s4.mult(i, j)] == act.images[i] * act.images[j]
    normal = s4.subgroups_of_order(12)[0]
    act2 = s4.coset_action(normal)
    assert act2.degree == 2
    assert act2.kernel == normal.elements


def test_subgroup_properties(s4):
    stab = s4.point_stabilizer(1)
    assert not stab.is_transitive()
    assert stab.order == 6
    whole = s4.subgroup(s4.gens)
    assert whole.order == 24 and whole.is_transitive()
    assert 0 in stab
    assert s4.subgroup([]).elements == (0,)
    # transitivity is read off the stored generators: check it against
    # the orbits under all elements, on every subgroup of S4 and on
    # trivial groups of degree 1 and 3
    subs = [sub for k in (1, 2, 3, 4, 6, 8, 12, 24)
            for sub in s4.subgroups_of_order(k)]
    subs += [FiniteGroup.generate([], degree=d).subgroup([]) for d in (1, 3)]
    for sub in subs:
        group = sub.parent
        elems = [group.elements[i] for i in sub.elements]
        assert sub.is_transitive() == (
            brute_force_orbit_count(elems, group.degree) == 1)
    assert [sub.is_transitive() for sub in subs[-2:]] == [True, False]
    # some are transitive on fewer generators than elements, as Z4 is
    assert any(sub.is_transitive() and len(sub.gens) < sub.order
               for sub in subs)
    for bad in ([-1], [24], [1.7], [0, "1"], [Fraction(3, 2)]):
        with pytest.raises(ValueError):
            s4.subgroup(bad)
    # indices equal to integers are taken as those integers
    assert s4.subgroup([1.0]).elements == s4.subgroup([1]).elements


def test_subgroup_memo_keeps_one_subgroup_per_generator_tuple():
    group = fresh("s4")
    sub = group.subgroup([1, 2])
    assert group.subgroup((1, 2)) is sub and sub.gens == (1, 2)
    # keyed on the tuple as given, so the gens are the caller's
    swapped = group.subgroup([2, 1])
    assert swapped is not sub and swapped.gens == (2, 1)
    assert swapped.elements == sub.elements
    # an index equal to an integer is kept under that integer
    assert group.subgroup([1.0]) is group.subgroup([1])
    for bad in ([-1], [24], [1.7], [0, "1"], [Fraction(3, 2)]):
        with pytest.raises(ValueError):
            group.subgroup(bad)
    assert sorted(group._generated) == [(1,), (1, 2), (2, 1)]


def test_subgroup_from_elements_errors(s3):
    with pytest.raises(ValueError):
        s3.subgroup_from_elements([1, 2])  # no identity
    transposition = next(i for i in range(6) if s3.orders[i] == 2)
    threecycle = next(i for i in range(6) if s3.orders[i] == 3)
    with pytest.raises(ValueError):
        s3.subgroup_from_elements([0, transposition, threecycle])
    sub = s3.subgroup_from_elements([0, transposition])
    assert sub.order == 2
    for bad in ([0, 1.7], [0, "1"], [Fraction(1, 2)], [0, 6], [0, -1]):
        with pytest.raises(ValueError):
            s3.subgroup_from_elements(bad)
    assert s3.subgroup_from_elements([0.0]).elements == (0,)


def test_group_map_operations(s3):
    ident = GroupMap.identity(s3)
    assert ident.validate() and ident.is_bijective()
    # sending the identity element elsewhere breaks the homomorphism law
    broken = GroupMap(s3, s3, [1, 0, 2, 3, 4, 5])
    assert not broken.validate()
    # images that are not one target element index per source element
    # make no homomorphism either: False, not an exception
    for images in ([0], [0] * 7, [0, 1, 2, 3, 4, 6], [0, 1, 2, 3, 4, -1],
                   [0.0, 1, 2, 3, 4, 5]):
        assert not GroupMap(s3, s3, images).validate()


def test_automorphism_counts(s3, z4, klein, q8):
    for group, n in ((s3, 6), (z4, 2), (klein, 6), (q8, 24)):
        autos = automorphisms(group)
        assert len(autos) == n
        for phi in autos:
            assert phi.validate() and phi.is_bijective()
        images = {phi.images for phi in autos}
        assert len(images) == n
        for a in autos:
            for b in autos:
                assert tuple(a.images[x] for x in b.images) in images


def test_isomorphisms(klein, z4, s3):
    klein2 = FiniteGroup.from_cycle_strings(
        ["(1 2)(3 4)", "(1 3)(2 4)"], 4)
    isos = isomorphisms(klein, klein2)
    assert len(isos) == 6
    for phi in isos:
        assert phi.validate() and phi.is_bijective()
    assert isomorphisms(z4, klein) == []
    z6 = FiniteGroup.from_cycle_strings(["(1 2 3 4 5 6)"], 6)
    assert isomorphisms(s3, z6) == []


def test_isomorphism_node_cap(q8):
    with pytest.raises(SizeCapError):
        isomorphisms(q8, q8, node_cap=1)


def test_generator_correspondence(z4, klein, s3):
    z4b = FiniteGroup.from_cycle_strings(["(1 3 2 4)"], 4)
    phi = generator_correspondence(z4, z4b)
    assert phi is not None and phi.validate() and phi.is_bijective()
    assert phi(z4.gens[0]) == z4b.gens[0]
    assert generator_correspondence(klein, z4) is None  # gen counts differ
    s3b = FiniteGroup.from_cycle_strings(["(1 2 3)", "(1 2)"], 3)
    assert generator_correspondence(s3, s3b) is None  # order 2 gen vs order 3
    assert generator_correspondence(s3, s3) is not None


def test_generator_correspondence_needs_a_homomorphism(klein):
    # (1 2) -> (1 2 3 4), (3 4) -> (1 3)(2 4) fills in bijectively along
    # the spanning tree, but (1 2)^2 = id while (1 2 3 4)^2 is not
    z4 = FiniteGroup.from_cycle_strings(["(1 2 3 4)", "(1 3)(2 4)"], 4)
    assert len(z4.gens) == 2
    assert generator_correspondence(klein, z4) is None


def test_order_cap():
    with pytest.raises(SizeCapError):
        FiniteGroup.from_cycle_strings(["(1 2 3 4 5)", "(3 4 5)"], 5, cap=30)


def corpus_extras():
    return [FiniteGroup.from_cycle_strings(gens, degree, label=label)
            for gens, degree, label in (
                (["(1 2 3 4 5)", "(1 2)"], 5, "s5"),
                (["(1 2 3 4 5)", "(4 5 6)"], 6, "a6"),
                (["(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"], 11, "g48"))]


def test_table_matches_all_pairs_oracle(klein, z4, s3, s4, a4, d4, d6, q8, a5):
    for group in [klein, z4, s3, s4, a4, d4, d6, q8, a5] + corpus_extras():
        assert group.table == all_pairs_table(group), group.label


def test_spanning_tree(s4, q8, a5):
    for group in (s4, q8, a5):
        n = group.order
        for s, col in zip(group.gens, group.gen_columns):
            assert col == [group.mult(x, s) for x in range(n)]
        children = [y for y, _, _ in group.tree]
        assert sorted(children) == list(range(1, n))
        placed = {0}
        for y, x, pos in group.tree:
            assert x in placed  # parents come before their children
            assert group.mult(x, group.gens[pos]) == y
            placed.add(y)


def test_generators_must_reach_every_element(s3):
    transposition = next(i for i in range(6) if s3.orders[i] == 2)
    with pytest.raises(ValueError, match="reach"):
        FiniteGroup(3, s3.elements, [transposition])


def test_isomorphisms_match_brute_force(s3, s4, d6, q8, a4, klein):
    for group in (s3, s4, d6, q8, a4, klein):
        found = [phi.images for phi in isomorphisms(group, group)]
        assert found == brute_force_isomorphisms(group, group), group.label


def swapped(images, i, j):
    out = list(images)
    out[i], out[j] = out[j], out[i]
    return out


def test_group_map_validate_matches_oracle_on_swaps(s3, q8, a4, klein):
    verdicts = set()
    for group in (s3, q8, a4, klein):
        for phi in automorphisms(group)[:2]:
            n = group.order
            for i in range(n):
                for j in range(i + 1, n):
                    images = swapped(phi.images, i, j)
                    expected = is_homomorphism_all_pairs(
                        group, [group.elements[k] for k in images])
                    assert GroupMap(group, group, images).validate() \
                        == expected
                    verdicts.add(expected)
    assert verdicts == {True, False}


# fresh copies of the memo-test groups: the session fixtures keep their
# searches, so a fresh search needs a newly built group
MEMO_GROUPS = {
    "s3": (["(1 2)", "(1 2 3)"], 3),
    "s4": (["(1 2)", "(1 2 3 4)"], 4),
    "d6": (["(1 2 3 4 5 6)", "(2 6)(3 5)"], 6),
    "q8": (["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8),
    "a4": (["(1 2 3)", "(2 3 4)"], 4),
    "klein": (["(1 2)", "(3 4)"], 4),
    "a5": (["(1 2 3 4 5)", "(3 4 5)"], 5),
    "s5": (["(1 2 3 4 5)", "(1 2)"], 5),
    "g48": (["(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"], 11),
    "a6": (["(1 2 3 4 5)", "(4 5 6)"], 6),
    "z2^4": (["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8),
}
# the groups whose automorphisms brute_force_isomorphisms checks
ORACLE_CHECKED = ("s3", "s4", "d6", "q8", "a4", "klein")


def fresh(name):
    gens, degree = MEMO_GROUPS[name]
    return FiniteGroup.from_cycle_strings(gens, degree, label=name)


def capped_automorphisms(group, cap):
    """The images yielded under node_cap=cap, and whether it raised."""
    out = []
    try:
        for phi in isomorphisms_iter(group, group, node_cap=cap):
            out.append(phi.images)
    except SizeCapError:
        return out, True
    return out, False


def test_automorphism_replay_repeats_the_search():
    for name in MEMO_GROUPS:
        group = fresh(name)
        first = [phi.images for phi in isomorphisms(group, group)]
        assert group._automorphisms is not None, name
        again = isomorphisms(group, group)
        assert [phi.images for phi in again] == first, name
        assert all(phi.source is group and phi.target is group
                   for phi in again)
        if name in ORACLE_CHECKED:
            assert first == brute_force_isomorphisms(group, group), name


def test_automorphism_replay_honours_node_cap():
    for name in ("s3", "q8", "a4", "s4", "g48", "a6", "z2^4"):
        kept = fresh(name)
        full = [phi.images for phi in isomorphisms(kept, kept)]
        total = kept._automorphisms[1]
        oracle, oracle_total = exhaustive_isomorphisms(kept, kept)
        assert total == oracle_total, name
        caps = {0, 1, 2, 3, 5, 8, total // 3, total // 2, total - 1,
                total, total + 1, 10 * total}
        if name == "z2^4":
            # below |Aut| = 20,160 the automorphism closure stops growing
            # at node_cap maps
            caps |= {100, 1000, 20_159}
        for cap in sorted(caps):
            expected = capped_automorphisms(fresh(name), cap)
            assert capped_automorphisms(kept, cap) == expected, (name, cap)
            assert expected[0] == [images for nodes, images in oracle
                                   if nodes <= cap], (name, cap)
            assert expected[1] == (cap < total)
            if cap >= total:
                assert expected[0] == full
        # a capped replay keeps the memo whole
        assert [phi.images for phi in isomorphisms(kept, kept)] == full


def test_partial_automorphism_search_keeps_nothing():
    for name in ORACLE_CHECKED:
        oracle = brute_force_isomorphisms(fresh(name), fresh(name))
        # a consumer that stops after the first map
        group = fresh(name)
        it = isomorphisms_iter(group, group)
        next(it)
        it.close()
        assert group._automorphisms is None
        assert [phi.images for phi in isomorphisms(group, group)] == oracle
        # a search stopped by its node cap
        group = fresh(name)
        assert capped_automorphisms(group, 2)[1]
        assert group._automorphisms is None
        assert [phi.images for phi in isomorphisms(group, group)] == oracle


def test_subgroup_memo_matches_a_fresh_search():
    for name in ("s4", "a4", "q8", "s5", "g48", "a6", "d6"):
        kept = fresh(name)
        orders = [k for k in range(1, kept.order + 1) if kept.order % k == 0]
        first = {k: [s.elements for s in kept.subgroups_of_order(k)]
                 for k in orders}
        for k in orders:
            subs = kept.subgroups_of_order(k)
            assert [s.elements for s in subs] == first[k]
            assert [s.elements for s in fresh(name).subgroups_of_order(k)] \
                == first[k], (name, k)
            assert all(s.parent is kept and s.order == k for s in subs)
            # the returned list is the caller's own
            subs.clear()
            assert [s.elements for s in kept.subgroups_of_order(k)] == first[k]
            if k == 1:
                continue
            total = kept._subgroups[k][1]
            for cap in sorted({0, 1, total // 2, total - 1, total, total + 1}):
                try:
                    fresh(name).subgroups_of_order(k, node_cap=cap)
                    raised = False
                except SizeCapError:
                    raised = True
                assert raised == (cap < total), (name, k, cap)
                if raised:
                    with pytest.raises(SizeCapError):
                        kept.subgroups_of_order(k, node_cap=cap)
                else:
                    assert [s.elements for s in kept.subgroups_of_order(
                        k, node_cap=cap)] == first[k]


def test_node_caps_hold_after_full_search():
    s4 = fresh("s4")
    assert len(s4.subgroups_of_order(4)) == 7
    with pytest.raises(SizeCapError):
        s4.subgroups_of_order(4, node_cap=1)
    q8 = fresh("q8")
    assert len(isomorphisms(q8, q8)) == 24
    with pytest.raises(SizeCapError):
        isomorphisms(q8, q8, node_cap=1)


# the 13 benchmark corpus groups, each with its automorphism count and a
# digest of its automorphism image list as the search yielded it when the
# memo kept generator images; a replay from the kept image tuples must match
CORPUS_AUTOMORPHISMS = {
    "klein": ((["(1 2)", "(3 4)"], 4), 6, "0181b97d88286082"),
    "klein-regular": ((["(1 2)(3 4)", "(1 3)(2 4)"], 4), 6,
                      "3006c2cfe12e0c32"),
    "s3": ((["(1 2)", "(1 2 3)"], 3), 6, "edf88ad112cc8e5d"),
    "z4": ((["(1 2 3 4)"], 4), 2, "1ec34c76cfeb77c7"),
    "a4": ((["(1 2 3)", "(2 3 4)"], 4), 24, "7681092ad4389585"),
    "s4": ((["(1 2)", "(1 2 3 4)"], 4), 24, "9209ff710cbe2ee1"),
    "d6": ((["(1 2 3 4 5 6)", "(2 6)(3 5)"], 6), 12, "32e49df6abc830db"),
    "q8": ((["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"], 8), 24,
           "db89668f4d2d5e24"),
    "z2^4": ((["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8), 20160,
             "79c9bf7b7b37c528"),
    "g48": ((["(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"], 11), 384,
            "b833b71002514eff"),
    "a5": ((["(1 2 3 4 5)", "(3 4 5)"], 5), 120, "e3decf54b4b7aa76"),
    "s5": ((["(1 2 3 4 5)", "(1 2)"], 5), 120, "9b82b312d1e96be8"),
    "a6": ((["(1 2 3 4 5)", "(4 5 6)"], 6), 1440, "77bcb7ad69ad7766"),
}


def test_memo_replays_pinned_automorphism_lists():
    for name, ((gens, degree), count, digest) in CORPUS_AUTOMORPHISMS.items():
        group = FiniteGroup.from_cycle_strings(gens, degree)
        first = [phi.images for phi in isomorphisms(group, group)]
        kept, _, _ = group._automorphisms
        # the memo keeps each map as a GroupMap on the group
        assert all(type(phi) is GroupMap and phi.source is group
                   and phi.target is group for phi in kept), name
        maps = isomorphisms(group, group)
        # a replay returns the memo's own maps, not copies, in a new list
        assert all(phi is kept_phi for phi, kept_phi in zip(maps, kept)), name
        assert len(maps) == len(kept), name
        replayed = [phi.images for phi in maps]
        assert replayed == first, name
        assert all(type(images) is tuple for images in replayed)
        assert len(replayed) == count, name
        assert hashlib.sha256(repr(replayed).encode()).hexdigest()[:16] \
            == digest, name


def closed_all_pairs(maps):
    members = set(maps)
    return all(tuple(map(a.__getitem__, b)) in members
               for a in members for b in members)


def test_closure_check_matches_all_pairs(s4, q8, d6):
    rng = random.Random(5)
    for group in (s4, q8, d6, fresh("g48")):
        autos = [phi.images for phi in automorphisms(group)]
        identity = tuple(range(group.order))
        assert _closed_under_composition(autos)
        # without one map, or with a bijection that is no automorphism
        assert not _closed_under_composition(autos[:-1])
        stranger = tuple(swapped(autos[0], 1, 2))
        assert stranger not in autos
        assert not _closed_under_composition(autos + [stranger])
        if group.order > 24:
            continue
        verdicts = set()
        for _ in range(30):
            subset = rng.sample(autos, rng.randint(1, 4))
            if rng.random() < 0.5:
                # close it into a subgroup by the all-pairs products
                members = {identity} | set(subset)
                while not closed_all_pairs(members):
                    members |= {tuple(map(a.__getitem__, b))
                                for a in members for b in members}
                subset = sorted(members)
            verdict = _closed_under_composition(subset)
            assert verdict == (identity in subset and closed_all_pairs(subset))
            verdicts.add(verdict)
        assert verdicts == {True, False}


def test_subgroups_match_the_exhaustive_search():
    # the search up to conjugacy against the search of every subgroup
    fewer = 0
    for name in ("s4", "a4", "d6", "q8", "a5", "s5", "a6", "g48"):
        group = fresh(name)
        for k in range(1, group.order + 1):
            if group.order % k:
                continue
            expected, oracle_nodes = exhaustive_subgroups_of_order(group, k)
            subs = group.subgroups_of_order(k)
            assert [s.elements for s in subs] \
                == [s.elements for s in expected], (name, k)
            for sub in subs:
                # each conjugate's generators close to its elements
                assert group.subgroup(sub.gens).elements == sub.elements
            if k > 1:
                nodes = group._subgroups[k][1]
                assert nodes <= oracle_nodes, (name, k)
                fewer += nodes < oracle_nodes
                if (name, k) == ("a6", 60):
                    assert (nodes, oracle_nodes) == (667, 10_329)
    assert fewer


def test_automorphism_memo_matches_the_exhaustive_search():
    # closure acceptance and the order-checked fill keep every map and
    # the node count at which the search reaches it
    for name, ((gens, degree), count, _) in CORPUS_AUTOMORPHISMS.items():
        group = FiniteGroup.from_cycle_strings(gens, degree)
        automorphisms(group)
        maps, total, found_at = group._automorphisms
        oracle, oracle_total = exhaustive_isomorphisms(group, group)
        assert len(oracle) == count, name
        assert [(nodes, tuple(phi.images))
                for nodes, phi in zip(found_at, maps)] == oracle
        assert total == oracle_total, name


def test_isomorphisms_to_a_relabelled_group_match_the_exhaustive_search():
    for seed, name in enumerate(("s4", "a4", "d6", "q8")):
        group = fresh(name)
        twin = relabelled(group, seed)
        assert twin.elements != group.elements
        oracle, _ = exhaustive_isomorphisms(group, twin)
        assert oracle, name
        assert [phi.images for phi in isomorphisms(group, twin)] \
            == [images for _, images in oracle], name
        # transported from Aut(group), which is kept, and kept on group
        assert twin._automorphisms is None
        assert group._automorphisms is not None
        assert list(group._isomorphisms) == [twin]


def test_automorphism_closure_holds_the_generated_group_up_to_its_limit():
    group = fresh("z2^4")
    autos = [phi.images for phi in automorphisms(group)]
    identity = tuple(range(group.order))
    for limit in (100, 20_159):
        closure, proven = {group.gens: identity}, []
        for phi in autos:
            if len(closure) >= limit:
                break
            if tuple(phi[g] for g in group.gens) not in closure:
                _extend_closure(closure, proven, phi, group.gens, limit)
        assert len(closure) == min(limit, len(autos)), limit
        assert set(closure.values()) <= set(autos)
        assert all(key == tuple(images[g] for g in group.gens)
                   for key, images in closure.items())
    # each completed extension yields a group, at least twice the last
    closure, proven = {group.gens: identity}, []
    for phi in autos:
        if tuple(phi[g] for g in group.gens) not in closure:
            _extend_closure(closure, proven, phi, group.gens, 10 ** 6)
            assert _closed_under_composition(list(closure.values()))
            assert len(closure) >= 2 ** len(proven)
    assert len(closure) == len(autos)


def test_transported_isomorphisms_match_the_exhaustive_search():
    """Iso(g1, g2) transported from Aut(g1) is the full search's list in
    its order, whether Aut(g1) was kept before or not; the image tuples
    are kept on g1 and a later call, under any node_cap, replays them."""
    for seed, name in enumerate(("s4", "a4", "d6", "q8", "g48")):
        for aut_first in (False, True):
            group = fresh(name)
            twin = relabelled(group, seed + 10)
            oracle, _ = exhaustive_isomorphisms(group, twin)
            expected = [images for _, images in oracle]
            if aut_first:
                automorphisms(group)
            maps = isomorphisms(group, twin)
            assert [phi.images for phi in maps] == expected, name
            assert all(phi.source is group and phi.target is twin
                       for phi in maps)
            assert all(phi.validate() and phi.is_bijective()
                       for phi in maps[::7])
            assert list(group._isomorphisms[twin]) == expected
            assert twin._automorphisms is None
            again = isomorphisms(group, twin, node_cap=0)
            assert [phi.images for phi in again] == expected
    # groups that are not isomorphic keep an empty list: orders differ,
    # then Z4 x Z4 and Q8 x Z2, whose element orders agree, so the
    # search for psi0 runs to its end
    z4z4 = FiniteGroup.from_cycle_strings(["(1 2 3 4)", "(5 6 7 8)"], 8)
    q8z2 = FiniteGroup.from_cycle_strings(
        MEMO_GROUPS["q8"][0] + ["(9 10)"], 10)
    assert sorted(z4z4.orders) == sorted(q8z2.orders)
    for g1, g2 in ((fresh("klein"), fresh("s3")), (z4z4, q8z2)):
        assert isomorphisms(g1, g2) == []
        assert g1._isomorphisms[g2] == ()
        assert g1._automorphisms is None


def test_transport_past_the_node_cap_keeps_nothing():
    for seed, name in enumerate(("s4", "q8", "g48")):
        group = fresh(name)
        twin = relabelled(group, seed)
        expected = [phi.images for phi in isomorphisms(fresh(name), twin)]
        oracle, _ = exhaustive_isomorphisms(group, twin)
        first_nodes = oracle[0][0]
        _, aut_total = exhaustive_isomorphisms(group, group)
        assert first_nodes < aut_total, name
        # the search for psi0 trips, then the search of Aut(group)
        for cap in (0, first_nodes - 1, first_nodes, aut_total - 1):
            with pytest.raises(SizeCapError):
                isomorphisms(group, twin, node_cap=cap)
            assert twin not in group._isomorphisms, (name, cap)
            assert group._automorphisms is None, (name, cap)
        # with Aut(group) kept only the search for psi0 is bounded
        automorphisms(group)
        with pytest.raises(SizeCapError):
            isomorphisms(group, twin, node_cap=first_nodes - 1)
        assert twin not in group._isomorphisms
        maps = isomorphisms(group, twin, node_cap=first_nodes)
        assert [phi.images for phi in maps] == expected, name


def test_transported_isomorphisms_hold_the_target_weakly():
    group = fresh("s4")
    twin = relabelled(group, 3)
    maps = isomorphisms(group, twin)
    assert len(maps) == 24 and len(group._isomorphisms) == 1
    del maps, twin
    gc.collect()
    assert len(group._isomorphisms) == 0


def test_automorphism_lists_are_fresh_lists_of_the_kept_maps():
    for name in ("s3", "q8", "g48"):
        group = fresh(name)
        first, second = automorphisms(group), automorphisms(group)
        assert first == second and first is not second, name
        assert all(a is b for a, b in zip(first, second))
        first.pop()
        assert automorphisms(group) == second


def test_generate_takes_plain_image_tuples():
    group = FiniteGroup.generate([(1, 0, 2)], degree=3)
    assert group.order == 2
    assert all(type(p) is Permutation for p in group.elements)
    assert group.elements == FiniteGroup.generate(
        [Permutation((1, 0, 2))]).elements
    assert FiniteGroup.generate([(1, 2, 0), (1, 0, 2)]).order == 6
    for bad in ([(1, 1, 2)], [(0, 3, 1)], [(0, 1, -1)],
                [(1, 0, 2), (0, 0, 0)]):
        with pytest.raises(ValueError, match="not a permutation"):
            FiniteGroup.generate(bad, degree=3)
    with pytest.raises(ValueError, match="mixed degrees"):
        FiniteGroup.generate([(1, 0, 2), (1, 0)])
    with pytest.raises(ValueError, match="mixed degrees"):
        FiniteGroup.generate([(1, 0)], degree=3)


def test_a_group_with_kept_isomorphisms_pickles():
    group = fresh("s4")
    twin = relabelled(group, 1)
    expected = [phi.images for phi in isomorphisms(group, twin)]
    copied = pickle.loads(pickle.dumps(group))
    assert copied.elements == group.elements
    # the automorphisms come along, the weakly held isomorphisms do not
    assert [phi.images for phi in copied._automorphisms[0]] \
        == [phi.images for phi in automorphisms(group)]
    assert all(phi.source is copied for phi in copied._automorphisms[0])
    assert len(copied._isomorphisms) == 0
    assert [phi.images for phi in isomorphisms(copied, twin)] == expected
