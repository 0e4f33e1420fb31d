import copy
import itertools
import random
from fractions import Fraction
from math import prod

import pytest

import permpoly.characters as characters
from permpoly.characters import (
    CharacterTable,
    Constituents,
    RealIrreducible,
    character_table,
    constituents,
    invariant_factors,
    permutation_character,
    predicted_dimension,
    real_irreducibles,
    stably_equivalent_by_characters,
    verify_isotype,
)
from permpoly.cyclotomic import Cyclotomic, cyclo, cyclo_rational, root_powers
from permpoly.groups import FiniteGroup, SizeCapError, parse_cycles
from permpoly.reps import NotFaithfulError, PermRep, stably_equivalent_by_kernel

from oracles import (cyclotomic_class_matrix_values, cyclotomic_constituents,
                     cyclotomic_indicators, cyclotomic_isotype,
                     cyclotomic_orthogonality, pairwise_class_constants,
                     per_entry_coordinate_columns, per_entry_real_irreducibles,
                     relation_lattice_invariant_factors,
                     with_cyclotomic_indicators)


def build(gens, degree):
    return FiniteGroup.from_cycle_strings(gens, degree)


def check_row_orthogonality(table):
    n = table.group.order
    m = table.conductor
    for i in range(table.count):
        for k in range(table.count):
            s = cyclo_rational(m, 0)
            for j, size in enumerate(table.sizes):
                s = s + size * (table.values[i][j]
                                * table.values[k][table.inverse_class[j]])
            assert s == (n if i == k else 0)


def check_column_orthogonality(table):
    n = table.group.order
    m = table.conductor
    for j in range(table.count):
        for l in range(table.count):
            s = cyclo_rational(m, 0)
            for i in range(table.count):
                s = s + (table.values[i][j]
                         * table.values[i][table.inverse_class[l]])
            assert s == (n // table.sizes[j] if j == l else 0)


def test_abelian_tables(klein):
    groups = [
        klein,
        build(["(1 2 3 4 5 6)"], 6),
        build(["(1 2)", "(3 4 5 6)"], 6),
        build(["(1 2 3 4 5 6 7 8 9 10 11 12)"], 12),
    ]
    for group in groups:
        table = character_table(group)
        assert table.route == "cyclic-chain"
        assert table.count == group.order
        assert all(d == 1 for d in table.degrees)
        assert all(v == 1 for v in table.values[0])
        check_row_orthogonality(table)
        check_column_orthogonality(table)


def test_table_is_cached(s3):
    assert character_table(s3) is character_table(s3)


def test_order_profiles(klein, z4):
    """The sorted orders of the linear characters of an abelian group
    are its sorted element orders: the dual group is isomorphic to G."""
    z6 = build(["(1 2 3 4 5 6)"], 6)
    z2xz4 = build(["(1 2)", "(3 4 5 6)"], 6)
    z12 = build(["(1 2 3 4 5 6 7 8 9 10 11 12)"], 12)
    for group, profile in [
            (klein, (1, 2, 2, 2)),
            (z4, (1, 2, 4, 4)),
            (z6, (1, 2, 3, 3, 6, 6)),
            (z2xz4, (1, 2, 2, 2, 4, 4, 4, 4)),
            (z12, (1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12))]:
        table = character_table(group)
        orders = tuple(sorted(table.char_order(i) for i in range(table.count)))
        assert orders == profile
        assert list(orders) == sorted(group.orders)


def test_invariant_factors(klein, s3):
    assert invariant_factors(build(["(1 2 3 4 5 6)"], 6)) == (6,)
    assert invariant_factors(build(["(1 2)", "(3 4 5 6)"], 6)) == (2, 4)
    assert invariant_factors(klein) == (2, 2)
    assert invariant_factors(FiniteGroup.generate([], degree=1)) == ()
    with pytest.raises(ValueError):
        invariant_factors(s3)


def _cyclic_product(lengths):
    """Z/l1 x Z/l2 x ... as cycles on disjoint points."""
    cycles, start = [], 1
    for n in lengths:
        cycles.append("(%s)" % " ".join(map(str, range(start, start + n))))
        start += n
    return build(cycles, max(start - 1, 1))


def _abelian_groups():
    """Cyclic groups, 2- and 3-groups and mixed products on their cycle
    generators, then some of them again on scrambled generators."""
    types = [(n,) for n in range(1, 41)]
    for powers, cap in (((2, 4, 8, 16, 32), 64), ((3, 9, 27), 81)):
        for k in range(2, 7):
            for t in itertools.combinations_with_replacement(powers, k):
                if prod(t) <= cap:
                    types.append(t)
    for t in itertools.combinations_with_replacement((2, 3, 4, 5, 6, 9, 10), 3):
        if prod(t) <= 150:
            types.append(t)
    groups = [_cyclic_product(t) for t in types]
    rng = random.Random(61)
    for group in rng.sample(groups[40:], 40):
        # random non-identity elements until they generate the group
        picks = []
        while len(group.subgroup(picks).elements) < group.order:
            picks.append(rng.randrange(1, group.order))
        groups.append(FiniteGroup.generate(
            [group.elements[i] for i in picks], degree=group.degree))
    return groups


def test_invariant_factors_match_the_relation_lattice_oracle():
    groups = _abelian_groups()
    assert len(groups) >= 150
    seen = set()
    for group in groups:
        factors = invariant_factors(group)
        assert factors == relation_lattice_invariant_factors(group)
        assert prod(factors) == group.order
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        seen.add(factors)
    assert () in seen and (2, 2, 12) in seen


def test_class_matrix_degrees(s3, s4, a4, d4, q8, a5):
    expected = {
        s3: (1, 1, 2),
        s4: (1, 1, 2, 3, 3),
        a4: (1, 1, 1, 3),
        d4: (1, 1, 1, 1, 2),
        q8: (1, 1, 1, 1, 2),
        a5: (1, 3, 3, 4, 5),
    }
    for group, degrees in expected.items():
        table = character_table(group)
        assert table.route == "class-matrix"
        assert table.degrees == degrees
        assert sum(d * d for d in degrees) == group.order
        for i, d in enumerate(degrees):
            assert table.values[i][0] == d


def test_orthogonality_nonabelian(s4, q8, a5):
    for group in (s4, q8, a5):
        table = character_table(group)
        check_row_orthogonality(table)
        check_column_orthogonality(table)


def real_data(reals):
    return [(r.complex_indices, r.values, r.degree, r.indicator,
             r.schur_fraction) for r in reals]


def test_character_layer_matches_cyclotomic_oracles(s3, d4, d6, q8, a4, s4,
                                                    a5, klein, main_pair):
    """The class constants counted per representative, the tables lifted
    in integers, the real irreducibles paired on value numbers and the
    coordinate columns read per value object equal the pairwise class
    constants, the Cyclotomic lift and the per-entry oracles."""
    s5 = build(["(1 2 3 4 5)", "(1 2)"], 5)
    a6 = build(["(1 2 3 4 5)", "(4 5 6)"], 6)
    g48 = main_pair[0].group
    for group in (s3, d4, d6, q8, a4, s4, a5, s5, a6, g48, klein):
        table = character_table(group)
        assert characters._class_constants(group) \
            == pairwise_class_constants(group)
        # the oracle's orthogonality sum takes about 2 s at g48's 48
        # classes; its values are compared with a table verified anyway
        oracle = CharacterTable(
            group, cyclotomic_class_matrix_values(group, check=group is not g48),
            table.route)
        assert oracle.values == table.values
        assert oracle.degrees == table.degrees
        assert real_data(real_irreducibles(table)) \
            == real_data(per_entry_real_irreducibles(table))
        assert characters._coordinate_columns(table) \
            == per_entry_coordinate_columns(table)


def test_integer_orthogonality_rejects_a_conjugated_value(monkeypatch):
    """Conjugating one non-real lifted value keeps its multiplicities and
    their sum, so only the exact orthogonality check can catch it; the
    Cyclotomic oracle rejects the same values."""
    lift = characters._lift_counts
    lifted = []

    def conjugated(group, fmod, degrees, reps, m, p):
        counts = lift(group, fmod, degrees, reps, m, p)
        i, j, terms = next(
            (i, j, terms) for i, row in enumerate(counts)
            for j, terms in enumerate(row)
            if sorted(terms) != sorted(((-e) % m, c) for e, c in terms))
        counts[i][j] = tuple(sorted(((-e) % m, c) for e, c in terms))
        lifted.append(counts)
        return counts

    # A4 and the dicyclic group of order 12 have non-real values
    for gens, degree in ((["(1 2 3)", "(2 3 4)"], 4),
                         (["(1 2 3)", "(2 3)(4 5 6 7)"], 7)):
        group = build(gens, degree)
        monkeypatch.setattr(characters, "_lift_counts", conjugated)
        with pytest.raises(RuntimeError, match="orthogonality failed"):
            character_table(group)
        monkeypatch.undo()
        classes = group.conjugacy_classes()
        jstar = [group.class_of()[group.inverse[c[0]]] for c in classes]
        m = group.exponent()
        values = characters._cyclotomic_values(lifted[-1], root_powers(m))
        with pytest.raises(characters._SplitFailure):
            cyclotomic_orthogonality(values, [len(c) for c in classes], jstar,
                                     group.order, m)
        assert character_table(group).count == len(classes)


def test_tables_make_one_cyclotomic_per_distinct_value(monkeypatch):
    """Building the A6 table (class matrices) and the order-48 table
    (cyclic chain) constructs at most r^2 + m Cyclotomic objects."""
    made = []
    init = Cyclotomic.__init__

    def counted(self, m, coeffs):
        made.append(m)
        init(self, m, coeffs)

    for gens, degree in ((["(1 2 3 4 5)", "(4 5 6)"], 6),
                         (["(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"], 11)):
        group = build(gens, degree)
        group.conjugacy_classes()
        monkeypatch.setattr(Cyclotomic, "__init__", counted)
        del made[:]
        table = character_table(group)
        monkeypatch.undo()
        assert 0 < len(made) <= table.count ** 2 + table.conductor
        # entries holding equal values hold one object
        entries = [v for row in table.values for v in row]
        assert len({id(v) for v in entries}) == len({v.key() for v in entries})


def test_s3_table_values(s3):
    table = character_table(s3)
    # classes: identity, transpositions, 3-cycles; rows: trivial, sign, standard
    assert table.sizes == (1, 3, 2)
    assert tuple(table.values[1]) == tuple(
        cyclo_rational(table.conductor, v) for v in (1, -1, 1))
    assert tuple(table.values[2]) == tuple(
        cyclo_rational(table.conductor, v) for v in (2, 0, -1))


def test_indicators(s3, a4, q8, a5, klein):
    for group in (s3, a5, klein):
        table = character_table(group)
        assert all(table.indicator(i) == 1 for i in range(table.count))
    t_a4 = character_table(a4)
    assert sorted(t_a4.indicator(i) for i in range(4)) == [0, 0, 1, 1]
    t_q8 = character_table(q8)
    two = next(i for i, d in enumerate(t_q8.degrees) if d == 2)
    assert t_q8.indicator(two) == -1
    assert all(t_q8.indicator(i) == 1 for i in range(5) if i != two)


def test_char_order(s3, z4):
    t = character_table(s3)
    assert t.char_order(0) == 1
    assert t.char_order(1) == 2  # sign
    assert t.char_order(2) is None  # degree 2
    tz = character_table(z4)
    assert sorted(tz.char_order(i) for i in range(4)) == [1, 2, 4, 4]


def test_power_class(s4, q8):
    for group in (s4, q8):
        table = character_table(group)
        for j in range(table.count):
            assert table.power_class(j, 1) == j
            assert table.power_class(j, group.orders[table.reps[j]]) == 0


def test_real_irreducibles(s3, a4, q8, a5):
    cases = {
        s3: ((1, 1), (1, 1), (2, 1)),
        a4: ((1, 1), (2, Fraction(1, 2)), (3, 1)),
        q8: ((1, 1), (1, 1), (1, 1), (1, 1), (4, Fraction(1, 4))),
        a5: ((1, 1), (3, 1), (3, 1), (4, 1), (5, 1)),
    }
    for group, spec in cases.items():
        table = character_table(group)
        reals = real_irreducibles(table)
        assert reals[0].is_trivial
        assert tuple((r.degree, r.schur_fraction) for r in reals) == spec
        assert sum(r.schur_fraction * r.degree ** 2 for r in reals) \
            == group.order
        covered = sorted(i for r in reals for i in r.complex_indices)
        assert covered == list(range(table.count))
    pair = next(r for r in real_irreducibles(character_table(a4))
                if r.indicator == 0)
    assert len(pair.complex_indices) == 2


def test_permutation_character(s3, a5):
    assert permutation_character(
        PermRep.natural(s3), character_table(s3)) == [3, 1, 0]
    pi = permutation_character(PermRep.natural(a5), character_table(a5))
    assert pi[0] == 5 and sorted(pi) == [0, 0, 1, 2, 5]


def test_constituents(s3, a5, klein):
    assert constituents(PermRep.natural(s3)).multiplicities == (1, 0, 1)
    assert constituents(PermRep.natural(a5)).multiplicities == (1, 0, 0, 1, 0)
    cons = constituents(PermRep.natural(klein))
    assert cons.trivial_multiplicity == 2
    assert len(cons.nontrivial) == 2
    with pytest.raises(ValueError):
        constituents(PermRep.natural(s3), character_table(klein))


def test_constituents_match_cyclotomic_oracle(s3, s4, a4, d4, d6, q8, a5,
                                              klein_pair, main_pair,
                                              z4_family):
    s5 = build(["(1 2 3 4 5)", "(1 2)"], 5)
    a6 = build(["(1 2 3 4 5)", "(4 5 6)"], 6)
    groups = [s3, s4, a4, d4, d6, q8,
              build(["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 8),
              build(["(1 2 3)", "(4 5 6)"], 6), a5, s5, a6]
    reps = list(klein_pair) + list(main_pair) + list(z4_family)
    for group in groups:
        reps.append(PermRep.natural(group))
        if group is a6:
            # the regular rep would need 360^3 vertex entries, over the
            # cap; act on the cosets of a subgroup of order 9 instead
            sub = a6.subgroup([a6.element_index(parse_cycles(c, 6))
                               for c in ("(1 2 3)", "(4 5 6)")])
        else:
            sub = group.subgroup([])
        reps.append(PermRep.from_coset_actions(
            group, [group.coset_action(sub)]))
    g48 = main_pair[0].group
    rng = random.Random(48)
    sums = 0
    while sums < 12:
        subs = [g48.subgroup(rng.sample(range(g48.order), rng.randint(1, 2)))
                for _ in range(rng.randint(1, 3))]
        try:
            reps.append(PermRep.from_coset_actions(
                g48, [g48.coset_action(h) for h in subs]))
        except NotFaithfulError:
            continue
        sums += 1
    for rep in reps:
        table = character_table(rep.group)
        cons = constituents(rep, table)
        assert (cons.multiplicities, cons.character) \
            == cyclotomic_constituents(rep, table)


def test_indicators_and_isotypes_match_cyclotomic_oracles(
        s3, s4, a4, d4, d6, q8, q16, dic12, a5, main_pair):
    """Indicators, real irreducibles, predicted dimensions and isotype
    reports on 15 groups, four of them with quaternionic characters."""
    s5 = build(["(1 2 3 4 5)", "(1 2)"], 5)
    a6 = build(["(1 2 3 4 5)", "(4 5 6)"], 6)
    z12 = build(["(1 2 3 4 5 6 7 8 9 10 11 12)"], 12)
    z3xs3 = build(["(1 2 3)", "(4 5)", "(4 5 6)"], 6)
    z2xq8 = build(["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)", "(9 10)"], 10)
    g48 = main_pair[0].group
    groups = [s3, s4, s5, a4, a5, a6, d4, d6, z12, z3xs3, g48,
              q8, q16, dic12, z2xq8]
    quaternionic = 0
    reps = list(main_pair)
    rng = random.Random(17)
    for group in groups:
        table = character_table(group)
        indicators = tuple(table.indicator(i) for i in range(table.count))
        assert indicators == cyclotomic_indicators(table)
        quaternionic += -1 in indicators
        oracle = with_cyclotomic_indicators(table)
        assert [(r.complex_indices, r.values, r.degree, r.indicator)
                for r in real_irreducibles(table)] \
            == [(r.complex_indices, r.values, r.degree, r.indicator)
                for r in real_irreducibles(oracle)]
        reps.append(PermRep.natural(group))
        # faithful sums of coset actions of small cyclic subgroups
        sums = 0
        while group.order <= 48 and sums < 5:
            subs = [group.subgroup([rng.randrange(group.order)])
                    for _ in range(rng.randint(1, 2))]
            actions = [group.coset_action(h) for h in subs]
            if sum(a.degree for a in actions) > 24:
                continue
            try:
                reps.append(PermRep.from_coset_actions(group, actions))
            except NotFaithfulError:
                continue
            sums += 1
    assert quaternionic == 4
    for rep in reps:
        table = character_table(rep.group)
        dim, occurring = predicted_dimension(rep, table)
        odim, ooccurring = predicted_dimension(
            rep, with_cyclotomic_indicators(table))
        assert (dim, [r.complex_indices for r in occurring]) \
            == (odim, [r.complex_indices for r in ooccurring])
        report = verify_isotype(rep, table)
        assert report.ok
        assert (report.dim_expected, report.dim_actual, report.real_degrees) \
            == cyclotomic_isotype(rep, table)


def corrupted(table, i, j, value):
    """A copy of a verified table with chi_i(g_j) replaced by value."""
    bad = copy.copy(table)
    rows = [list(row) for row in table.values]
    rows[i][j] = value
    bad.values = tuple(tuple(row) for row in rows)
    bad._coordinate_columns = None
    bad._indicators = None
    bad._reals = None
    return bad


def test_constituents_reject_corrupted_tables(s3, q8, a5):
    for group in (s3, q8, a5):
        rep = PermRep.natural(group)
        table = character_table(group)
        m = table.conductor
        constituents(rep, table)
        for i in range(1, table.count):
            # pi is nonzero at the identity class, whose inverse is itself
            value = table.values[i][0]
            twisted = corrupted(table, i, 0, value * cyclo(m))
            with pytest.raises(RuntimeError, match="not rational"):
                constituents(rep, twisted)
            # every element squares into some class, the identity too
            with pytest.raises(RuntimeError, match="not rational"):
                twisted.indicator(i)
            halved = corrupted(table, i, 0, value + cyclo(m) * Fraction(1, 2))
            with pytest.raises(RuntimeError, match="not an algebraic integer"):
                constituents(rep, halved)
            with pytest.raises(RuntimeError, match="not an algebraic integer"):
                halved.indicator(i)
        # the corrupted copies left the verified table's columns alone
        assert constituents(rep, table).multiplicities \
            == cyclotomic_constituents(rep, table)[0]


def test_constituents_are_kept_per_table(s3, a5):
    for group in (s3, a5):
        table = character_table(group)
        rep = PermRep.natural(group)
        found = constituents(rep, table)
        assert constituents(rep, table) is found
        assert constituents(rep) is found
        assert stably_equivalent_by_characters(rep, rep, table)
        assert constituents(rep, table) is found
        # a copy is another table: it is checked again, and a corrupted
        # one raises although the verified table's result is kept
        value = table.values[1][0]
        bad = corrupted(table, 1, 0, value * cyclo(table.conductor))
        with pytest.raises(RuntimeError, match="not rational"):
            constituents(rep, bad)
        assert constituents(rep, table) is found
        again = constituents(rep, corrupted(table, 1, 0, value))
        assert again is not found
        assert again.multiplicities == found.multiplicities


def test_failed_constituents_keep_no_memo(s3, q8):
    for group in (s3, q8):
        table = character_table(group)
        value = table.values[1][0]
        for bad, message in (
                (corrupted(table, 1, 0, value * cyclo(table.conductor)),
                 "not rational"),
                (corrupted(table, 1, 0, value + cyclo(table.conductor)
                           * Fraction(1, 2)), "not an algebraic integer")):
            rep = PermRep.natural(group)
            with pytest.raises(RuntimeError, match=message):
                constituents(rep, bad)
            assert rep._constituents is None
            with pytest.raises(RuntimeError, match=message):
                constituents(rep, bad)
        # a table whose inner products pass but whose degrees do not sum
        # to the action degree
        rep = PermRep.natural(group)
        wrong = copy.copy(table)
        wrong.degrees = (table.degrees[0] + 1,) + table.degrees[1:]
        with pytest.raises(RuntimeError, match="degrees do not sum"):
            constituents(rep, wrong)
        assert rep._constituents is None
        assert constituents(rep, table).multiplicities \
            == cyclotomic_constituents(rep, table)[0]


def test_failed_summand_constituents_keep_no_memo():
    """A kept coset action keeps its constituents for a table only once
    its own checks pass; a failure leaves no memo on it or on the sum."""
    group = build(["(1 2)", "(1 2 3)"], 3)
    table = character_table(group)
    m = table.conductor
    regular = group.coset_action(group.subgroup([]))
    points = group.coset_action(group.subgroup(
        [group.element_index(parse_cycles("(1 2)", 3))]))
    actions = [regular, points]
    transpositions = table.class_of[group.element_index(parse_cycles("(1 2)", 3))]
    value = table.values[1][0]
    wrong = copy.copy(table)
    wrong.degrees = (table.degrees[0] + 1,) + table.degrees[1:]
    for bad, message in (
            (corrupted(table, 1, 0, value * cyclo(m)), "not rational"),
            (corrupted(table, 1, 0, value + cyclo(m) * Fraction(1, 2)),
             "not an algebraic integer"),
            (wrong, "degrees do not sum")):
        rep = PermRep.from_coset_actions(group, actions)
        with pytest.raises(RuntimeError, match=message):
            constituents(rep, bad)
        assert rep._constituents is None
        assert regular.constituents is None and points.constituents is None
    # the regular character vanishes off the identity, so a value
    # corrupted at the transpositions fails only the second summand
    bad = corrupted(table, 1, transpositions,
                    table.values[1][transpositions] * cyclo(m))
    rep = PermRep.from_coset_actions(group, actions)
    with pytest.raises(RuntimeError, match="not rational"):
        constituents(rep, bad)
    assert rep._constituents is None and points.constituents is None
    assert regular.constituents[0] is bad
    cons = constituents(rep, table)
    assert (cons.multiplicities, cons.character) \
        == cyclotomic_constituents(rep, table)
    assert regular.constituents[0] is table and points.constituents[0] is table


def test_conjugate_constituents_must_occur_together(monkeypatch):
    for gens, degree in ((["(1 2 3)"], 3), (["(1 2 3 4)"], 4)):
        group = build(gens, degree)
        rep = PermRep.from_coset_actions(
            group, [group.coset_action(group.subgroup([]))])
        table = character_table(group)
        assert predicted_dimension(rep, table)[0] == group.order - 1
        pair = next(real.complex_indices for real in real_irreducibles(table)
                    if len(real.complex_indices) == 2)
        found = constituents(rep, table)
        for dropped in pair:
            mults = list(found.multiplicities)
            mults[dropped] = 0
            monkeypatch.setattr(characters, "constituents",
                                lambda *args: Constituents(mults, found.character))
            with pytest.raises(RuntimeError, match="asymmetrically"):
                predicted_dimension(rep, table)
            monkeypatch.undo()


def test_isotype_trace_must_be_rational(monkeypatch):
    group = build(["(1 2 3)"], 3)
    rep = PermRep.from_coset_actions(
        group, [group.coset_action(group.subgroup([]))])
    table = character_table(group)
    assert verify_isotype(rep, table).ok
    # one character of the conjugate pair, passed off as a real one
    half = RealIrreducible((1,), table.values[1], 2, 0)
    monkeypatch.setattr(characters, "predicted_dimension",
                        lambda *args: (2, [half]))
    with pytest.raises(RuntimeError, match="not rational"):
        verify_isotype(rep, table)


def test_stable_equivalence_by_characters(s3, z4, klein, klein_pair):
    assert stably_equivalent_by_characters(*klein_pair)
    natural = PermRep.natural(s3)
    regular = PermRep.from_coset_actions(
        s3, [s3.coset_action(s3.subgroup([]))])
    assert stably_equivalent_by_characters(natural, natural)
    assert not stably_equivalent_by_characters(natural, regular)
    # one group, two degrees: (1 2 3 4) alongside its copy with a 2-cycle
    z4six = PermRep.from_generator_images(
        z4, [parse_cycles("(1 2 3 4)(5 6)", 6)])
    assert stably_equivalent_by_characters(PermRep.natural(z4), z4six)
    with pytest.raises(ValueError):
        stably_equivalent_by_characters(natural, PermRep.natural(klein))
    # the two routes agree on every pair above
    for a, b in [klein_pair, (natural, regular),
                 (PermRep.natural(z4), z4six)]:
        assert stably_equivalent_by_characters(a, b) \
            == stably_equivalent_by_kernel(a, b)


def test_verify_isotype(s3, klein, a5):
    rep = PermRep.natural(s3)
    report = verify_isotype(rep)
    assert report.ok
    assert report.dim_expected == report.dim_actual == 4
    assert report.real_degrees == (2,)
    report2 = verify_isotype(PermRep.natural(klein))
    assert report2.ok and report2.dim_actual == 2
    assert report2.real_degrees == (1, 1)
    report3 = verify_isotype(PermRep.natural(a5))
    assert report3.ok and report3.dim_actual == 16
    assert report3.real_degrees == (4,)


def test_class_matrix_route_is_capped():
    # S3 x Z11: nonabelian with 3 * 11 = 33 classes, over the cap of 30
    group = build(["(1 2)", "(1 2 3)", "(4 5 6 7 8 9 10 11 12 13 14)"], 14)
    with pytest.raises(SizeCapError,
                       match="capped at 30 classes; group has 33"):
        character_table(group)
