"""Seeded inputs for the permpoly benchmark.

Nothing here imports permpoly, so the inputs a seed produces do not
depend on the code being measured.  Every input is plain data: group
generators and subgroup generators as cycle strings, representation
specs built from those, and vertex-label tuples.

Each workload is a fixed part (the paper's worked instances with their
pinned answers) followed by a seeded part.  In edges, each seeded query
is a vertex pair drawn uniformly from all pairs of the corpus
polytopes.  In the other workloads the polytopes, groups and kinds of
query take equal turns in a fixed cycle, so every run has the same mix,
and the seed picks what is asked of each: subgroups, coset sums, subgroup
orders, relabellings.  Where a few costly inputs would otherwise decide a
run, the seeded part walks the whole list of inputs (_Walk) instead of
drawing them independently.
"""

from __future__ import annotations

import bisect
import itertools
import random
import re

# name: (generators, degree).  Orders are pinned in ORDERS and checked by
# the worker against the library's closure.
GROUPS = {
    "klein": (("(1 2)", "(3 4)"), 4),
    "klein-regular": (("(1 2)(3 4)", "(1 3)(2 4)"), 4),
    "s3": (("(1 2)", "(1 2 3)"), 3),
    "z4": (("(1 2 3 4)",), 4),
    "a4": (("(1 2 3)", "(2 3 4)"), 4),
    "s4": (("(1 2)", "(1 2 3 4)"), 4),
    "d6": (("(1 2 3 4 5 6)", "(2 6)(3 5)"), 6),
    "q8": (("(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"), 8),
    "z2^4": (("(1 2)", "(3 4)", "(5 6)", "(7 8)"), 8),
    "g48": (("(1 2)", "(3 4)", "(5 6 7 8)", "(9 10 11)"), 11),
    "a5": (("(1 2 3 4 5)", "(3 4 5)"), 5),
    "s5": (("(1 2 3 4 5)", "(1 2)"), 5),
    "a6": (("(1 2 3 4 5)", "(4 5 6)"), 6),
}

ORDERS = {"klein": 4, "klein-regular": 4, "s3": 6, "z4": 4, "a4": 12,
          "s4": 24, "d6": 12, "q8": 8, "z2^4": 16, "g48": 48, "a5": 60,
          "s5": 120, "a6": 360}

# |Aut(G)|: S4, D6 = D_12 (n*phi(n) = 12), Q8 and A4 (Aut = S4), A5 and
# S5 (S5), A6 (PGammaL(2,9)), Z2 x Z2 x Z4 x Z3 (the paper's 384).
AUTOMORPHISM_COUNTS = {"s4": 24, "a4": 24, "d6": 12, "q8": 24, "a5": 120,
                       "s5": 120, "a6": 1440, "g48": 384}

# number of subgroups of a given order, from the subgroup lattices of
# these groups (Sylow counts, conjugacy class sizes of maximal subgroups)
SUBGROUP_COUNTS = {
    ("s4", 4): 7, ("s4", 6): 4, ("s4", 8): 3,
    ("d6", 2): 7, ("d6", 4): 3, ("d6", 6): 3,
    ("a5", 4): 5, ("a5", 6): 10, ("a5", 10): 6, ("a5", 12): 5,
    ("s5", 6): 30, ("s5", 8): 15, ("s5", 12): 15, ("s5", 20): 6,
    ("s5", 24): 5,
    ("g48", 8): 7, ("g48", 12): 11, ("g48", 24): 7,
    ("a6", 10): 36, ("a6", 36): 10, ("a6", 60): 12,
}

# the paper's degree-16 coset-sum representations of Z2 x Z2 x Z4 x Z3
MAIN1 = {"kind": "cosets", "group": "g48",
         "subgroups": [["(1 2)", "(3 4)"], ["(5 6 7 8)", "(9 10 11)"]]}
MAIN2 = {"kind": "cosets", "group": "g48",
         "subgroups": [["(5 6 7 8)"], ["(1 2)", "(3 4)", "(9 10 11)"]]}
# Alt(6) on the cosets of a point stabilizer and of a transitive A5
A6_STAB = {"kind": "cosets", "group": "a6",
           "subgroups": [["(2 3 4 5 6)", "(4 5 6)"]]}
A6_TRANS = {"kind": "cosets", "group": "a6",
            "subgroups": [["(1 3)(4 5)", "(1 4 3 6 2)"]]}
KLEIN_REGULAR = {"kind": "images", "group": "klein", "degree": 4,
                 "images": ["(1 2)(3 4)", "(1 3)(2 4)"]}
KLEIN_DEGREE6 = {"kind": "images", "group": "klein", "degree": 6,
                 "images": ["(1 2)(3 4)", "(1 2)(5 6)"]}

# the seven index-2 subgroups of Z2 x Z2 x Z4 x Z3: kernels of the
# nonzero characters to Z2 on (a1, a2, b) = ((1 2), (3 4), (5 6 7 8))
G48_INDEX2 = [
    ["(3 4)", "(5 6 7 8)", "(9 10 11)"],
    ["(1 2)", "(5 6 7 8)", "(9 10 11)"],
    ["(1 2)", "(3 4)", "(5 7)(6 8)", "(9 10 11)"],
    ["(1 2)(3 4)", "(5 6 7 8)", "(9 10 11)"],
    ["(3 4)", "(1 2)(5 6 7 8)", "(9 10 11)"],
    ["(1 2)", "(3 4)(5 6 7 8)", "(9 10 11)"],
    ["(1 2)(3 4)", "(1 2)(5 6 7 8)", "(9 10 11)"],
]

# aggregate pins over the fixed part: the number of edges at the
# identity vertex (product(3, 11) has degree 3 + 11 at every vertex; the
# Klein quadrangle 2, the tetrahedron 3), and the face dimensions of
# the seven index-2 subgroups of the paper's face census
PINS = {
    "edges-at-identity-main1": 14, "edges-at-identity-main2": 14,
    "edges-at-identity-klein": 2, "edges-at-identity-klein-regular": 3,
    "face-dims-main1": [8, 12, 12, 12], "face-dims-main2": [8, 8, 8, 12],
}

# degree caps for coset sums: the affine kernel eliminates a
# (degree^2 + 1) x |G| system, so larger degrees cost minutes
DEGREE_CAP = {"s4": 12, "a4": 12, "d6": 12, "q8": 12, "g48": 16}


RELABELLINGS = 6
# coset sums per group in the search workload's seeded pools
POOL = 8


def natural(group):
    return {"kind": "natural", "group": group}


# ---------------------------------------------------------------------------
# a minimal permutation toolkit, independent of permpoly


def parse(text, degree):
    images = list(range(degree))
    for cyc in re.findall(r"\(([^)]*)\)", text):
        pts = [int(p) - 1 for p in cyc.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def mul(p, q):
    """p after q, matching permpoly's Permutation.__mul__."""
    return tuple(p[i] for i in q)


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycle_string(p):
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = []
        j = i
        while j not in seen:
            seen.add(j)
            cyc.append(str(j + 1))
            j = p[j]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "()"


def closure(gens, degree):
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


def relabel(text, sigma):
    """Rename the points of a cycle string by the 0-based map sigma."""
    return re.sub(r"\d+", lambda m: str(sigma[int(m.group()) - 1] + 1), text)


class _Group:
    """A corpus group as the set of its image tuples, for drawing inputs."""

    def __init__(self, name):
        gens, degree = GROUPS[name]
        self.degree = degree
        self.gens = [parse(s, degree) for s in gens]
        self.elements = sorted(closure(self.gens, degree))
        self._subgroups = None

    def random_subgroup(self, rng, max_gens=2):
        picks = [rng.choice(self.elements)
                 for _ in range(rng.randint(1, max_gens))]
        picks = [p for p in picks if p != self.elements[0]]
        return ([cycle_string(p) for p in picks],
                closure(picks, self.degree))

    def subgroups(self):
        """Every subgroup generated by at most two elements, in a fixed
        order, as (generator strings, elements, core)."""
        if self._subgroups is None:
            found = {}
            for i, x in enumerate(self.elements):
                for y in self.elements[i:]:
                    gens = [p for p in dict.fromkeys((x, y)) if p != self.elements[0]]
                    sub = closure(gens, self.degree)
                    if sub not in found:
                        found[sub] = [cycle_string(p) for p in gens]
            self._subgroups = [(gens, sub, self._core(sub))
                               for sub, gens in found.items()]
        return self._subgroups

    def _core(self, sub):
        core = set(sub)
        for g in self.elements:
            ginv = inverse(g)
            core &= {mul(mul(g, h), ginv) for h in sub}
        return frozenset(core)


# ---------------------------------------------------------------------------
# workloads


def _edges(rng, groups):
    corpus = ["g48", "s4", "d6", "q8", "a4", "z2^4", "klein", "klein-regular"]
    fixed = []
    for name, spec in (("main1", MAIN1), ("main2", MAIN2)):
        for h in range(1, 48):
            fixed.append({"kind": "pair", "poly": name, "rep": spec,
                          "labels": [0, h], "pin": "edges-at-identity-" + name})
    for name in ("klein", "klein-regular"):
        for h in range(1, 4):
            fixed.append({"kind": "pair", "poly": name, "rep": natural(name),
                          "labels": [0, h], "pin": "edges-at-identity-" + name})
    # Seeded pairs are drawn uniformly from all vertex pairs of these
    # polytopes, so each polytope is drawn in proportion to its number of
    # pairs.  A5 and S5 are left out: at 50-900 ms per pair, and with
    # more pairs than the rest together, they would decide every run.
    specs = [(name, natural(name)) for name in corpus]
    specs[1:1] = [("main1", MAIN1), ("main2", MAIN2)]
    orders = [ORDERS[spec["group"]] for _, spec in specs]
    pair_counts = list(itertools.accumulate(n * (n - 1) // 2 for n in orders))

    def draw(i):
        k = rng.randrange(pair_counts[-1])
        j = bisect.bisect_right(pair_counts, k)
        name, spec = specs[j]
        return {"kind": "pair", "poly": name, "rep": spec,
                "labels": rng.sample(range(orders[j]), 2)}

    return corpus, fixed, draw, {}


def _census(rng, groups):
    corpus = ["g48", "s4", "d6", "z2^4", "a4", "q8", "klein", "z4", "s3"]
    fixed = []
    for name, spec in (("main1", MAIN1), ("main2", MAIN2)):
        for sub in G48_INDEX2:
            fixed.append({"kind": "subgroup", "poly": name, "rep": spec,
                          "group": "g48", "subgroup": sub,
                          "pin": "face-dims-" + name})
    fixed.append({"kind": "lattice", "rep": KLEIN_REGULAR,
                  "point": [[0, "-1/2"], [1, "1/2"], [2, "1/2"], [3, "1/2"]],
                  "expect": {"index": 1, "volume": "1/6",
                             "membership": [True, False, False, False]}})
    fixed.append({"kind": "lattice", "rep": KLEIN_DEGREE6,
                  "point": [[0, "-1/2"], [1, "1/2"], [2, "1/2"], [3, "1/2"]],
                  "expect": {"index": 2, "volume": "1/3",
                             "membership": [True, True, True, False]}})
    # Every polytope takes its turn in each round, and a lattice query on
    # a fresh polytope ends the round.  Equal turns, rather than seeded
    # picks, give every run the same mix; the seed picks the subgroups.
    cycle = ["main1", "main2", "g48", "s4", "d6", "z2^4", "a4", "q8", "lattice"]
    lattice_reps = [KLEIN_REGULAR, KLEIN_DEGREE6, natural("z4"), natural("s3"),
                    natural("a4"), natural("s4"), natural("d6"),
                    natural("q8"), natural("klein")]
    specs = {"main1": MAIN1, "main2": MAIN2}

    def draw(i):
        name = cycle[i % len(cycle)]
        if name == "lattice":
            return _lattice_query(rng, rng.choice(lattice_reps))
        spec = specs.get(name, natural(name))
        grp = groups[spec["group"]]
        while True:
            gens, sub = grp.random_subgroup(rng)
            if 1 < len(sub) < len(grp.elements):
                break
        return {"kind": "subgroup", "poly": name, "rep": spec,
                "group": spec["group"], "subgroup": gens}

    return corpus, fixed, draw, {}


def _lattice_query(rng, spec):
    """A membership query whose answer is known by construction: an
    integral affine combination of vertices lies in the vertex lattice;
    the midpoint of two distinct vertices is not integral."""
    order = ORDERS[spec["group"]]
    if rng.random() < 0.5:
        labels = rng.sample(range(1, order), min(3, order - 1))
        ks = [rng.choice((-2, -1, 1, 2)) for _ in labels]
        point = [[0, str(1 - sum(ks))]] + [[g, str(k)]
                                            for g, k in zip(labels, ks)]
        membership = [True, True, True, True]
    else:
        a, b = rng.sample(range(order), 2)
        point = [[a, "1/2"], [b, "1/2"]]
        membership = [True, False, False, False]
    return {"kind": "lattice", "rep": spec, "point": point,
            "expect": {"membership": membership}}


def _faithful_sums(grp, cap):
    """Every faithful sum of the coset actions on one or two subgroups
    with degree at most cap, in a fixed order, as (generator strings of
    each subgroup, element set of each subgroup)."""
    order = len(grp.elements)
    menu = [s for s in grp.subgroups() if order // len(s[1]) <= cap]
    sums = []
    for i, (gens_a, sub_a, core_a) in enumerate(menu):
        if len(core_a) == 1:
            sums.append(([gens_a], [sub_a]))
        for gens_b, sub_b, core_b in menu[i:]:
            if (order // len(sub_a) + order // len(sub_b) <= cap
                    and len(core_a & core_b) == 1):
                sums.append(([gens_a, gens_b], [sub_a, sub_b]))
    return sums


class _Walk:
    """Draws from a list without replacement in a seeded order, pass
    after pass, so that every run covers the list evenly: drawing
    independently would let the share of the costly members, and with
    it a run's percentiles, swing from seed to seed."""

    def __init__(self, rng, items):
        self.rng, self.items, self.left = rng, items, []

    def next(self):
        if not self.left:
            self.left = self.rng.sample(self.items, len(self.items))
        return self.left.pop()


def _equivalence(rng, groups):
    corpus = ["a6", "g48", "klein", "s4", "a4", "d6", "q8"]
    fixed = [
        {"kind": "stable", "group": "a6", "A": A6_STAB, "B": A6_TRANS,
         "expect": {"stable": False, "kernel_dims": [334, 334]}},
        {"kind": "stable", "group": "g48", "A": MAIN1, "B": MAIN2,
         "expect": {"stable": False, "dims": [14, 14]}},
        {"kind": "stable", "group": "klein", "A": KLEIN_REGULAR,
         "B": KLEIN_DEGREE6, "expect": {"stable": True, "dims": [3, 3]}},
    ]
    # The groups take equal turns.  Even-numbered queries pair a sum with
    # a reordering of itself, odd ones two independent sums; with five
    # groups, each group gets both kinds in every ten queries.  Each
    # group walks all its faithful sums up to its degree cap.
    cycle = ["s4", "a4", "g48", "d6", "q8"]
    walks = {name: _Walk(rng, _faithful_sums(groups[name], DEGREE_CAP[name]))
             for name in cycle}

    def draw(i):
        name = cycle[i % len(cycle)]
        order = len(groups[name].elements)
        cap = DEGREE_CAP[name]
        gens_a, subs_a = walks[name].next()
        query = {"kind": "stable", "group": name,
                 "A": {"kind": "cosets", "group": name, "subgroups": gens_a}}
        if i % 2 == 0:
            # same constituents by construction: reorder the summands
            # and add a trivial one or a repeat
            gens_b = list(gens_a)
            rng.shuffle(gens_b)
            degree = sum(order // len(s) for s in subs_a)
            extra = rng.randrange(len(gens_a))
            if degree + order // len(subs_a[extra]) <= cap:
                gens_b.append(gens_a[extra])
            else:
                gens_b.append(list(GROUPS[name][0]))
            query["B"] = {"kind": "cosets", "group": name, "subgroups": gens_b}
            query["expect"] = {"stable": True}
        else:
            gens_b, _ = walks[name].next()
            query["B"] = {"kind": "cosets", "group": name, "subgroups": gens_b}
        return query

    return corpus, fixed, draw, {}


def _abelian_kernel_dim(order, subs):
    """dim of the affine kernel of the sum of the coset actions of an
    abelian group on two subgroups meeting trivially: |G| minus the
    characters trivial on either, |G/H1| + |G/H2| - |G/H1H2|."""
    a, b = (len(s) for s in subs)
    return order - order // a - order // b + order // (a * b)


def _search(rng, groups):
    corpus = ["g48", "a6", "s4", "a4", "d6", "q8", "a5", "s5"]
    fixed = [
        {"kind": "automorphisms", "group": "g48"},
        {"kind": "automorphisms", "group": "a6"},
        {"kind": "subgroups", "group": "a6", "order": 60},
        {"kind": "effective", "A": MAIN1, "B": MAIN2, "expect": "none"},
    ]
    # Alt(6) searches stay in the fixed part: at 0.1-0.5 s each, their
    # seeded share would decide a run's average
    subgroup_orders = {}
    for name, k in sorted(SUBGROUP_COUNTS):
        if name != "a6":
            subgroup_orders.setdefault(name, []).append(k)
    # The three kinds of query take equal turns, and within a kind the
    # groups take turns, so every run has the same mix and the seed picks
    # only what is asked of each group.
    cycle = ["auto", "subgroups", "effective"]
    turns = {"auto": ["s4", "a4", "d6", "q8", "a5", "s5", "g48"],
             "subgroups": sorted(subgroup_orders),
             "effective": ["g48", "s4", "a4", "d6", "q8"]}
    taken = dict.fromkeys(turns, 0)
    orders = {name: _Walk(rng, ks) for name, ks in subgroup_orders.items()}
    # RELABELLINGS point relabellings per group: B lives on a conjugate
    # permutation group, so its canonical element order, and with it how
    # far the search runs before a witness, differs from A's
    sigmas = {}
    extra = {}
    relabelled = turns["effective"][1:]
    for name in relabelled:
        gens, degree = GROUPS[name]
        for k in range(RELABELLINGS):
            sigma = list(range(degree))
            rng.shuffle(sigma)
            alias = "%s~%d" % (name, k)
            sigmas[alias] = sigma
            extra[alias] = (tuple(relabel(s, sigma) for s in gens), degree)
    aliases = {name: _Walk(rng, ["%s~%d" % (name, k) for k in range(RELABELLINGS)])
               for name in relabelled}
    # The worker keeps the representations of effective queries across
    # queries, the way a REPL user keeps them in variables, so these
    # queries measure the isomorphism search rather than affine kernels.
    # Each query takes the next member of a pool of POOL faithful sums:
    # every k-th sum in order of degree from a seeded start, so that every
    # pool spans the degrees alike.
    pools = {}
    for name in relabelled:
        order = len(groups[name].elements)
        sums = sorted(_faithful_sums(groups[name], DEGREE_CAP[name]),
                      key=lambda s: sum(order // len(sub) for sub in s[1]))
        step = len(sums) / min(POOL, len(sums))
        start = rng.random() * step
        pools[name] = _Walk(rng, [sums[int(start + k * step)][0]
                                  for k in range(min(POOL, len(sums)))])
    # every faithful sum of coset actions of Z2 x Z2 x Z4 x Z3 of degree
    # at most 16 (56 of them, each on two subgroups), grouped by kernel
    # dimension; a pair with equal dimensions makes the search run until
    # a witness or through all 384 maps
    by_dim = {}
    for gens, subs in _faithful_sums(groups["g48"], DEGREE_CAP["g48"]):
        by_dim.setdefault(_abelian_kernel_dim(48, subs), []).append(gens)
    # the few pairs with no witness cost ten times the rest
    pairs = _Walk(rng, [pair for _, members in sorted(by_dim.items())
                        for pair in itertools.combinations(members, 2)])

    def draw(i):
        kind = cycle[i % len(cycle)]
        name = turns[kind][taken[kind] % len(turns[kind])]
        taken[kind] += 1
        if kind == "auto":
            return {"kind": "automorphisms", "group": name}
        if kind == "subgroups":
            return {"kind": "subgroups", "group": name,
                    "order": orders[name].next()}
        if kind == "effective" and name != "g48":
            alias = aliases[name].next()
            gens_a = pools[name].next()
            gens_b = [[relabel(s, sigmas[alias]) for s in gens] for gens in gens_a]
            return {"kind": "effective", "expect": "witness",
                    "A": {"kind": "cosets", "group": name, "subgroups": gens_a},
                    "B": {"kind": "cosets", "group": alias, "subgroups": gens_b}}
        # the Z2 x Z2 x Z4 x Z3 turn takes the next equal-dimension pair
        gens_a, gens_b = pairs.next()
        if rng.random() < 0.5:
            gens_a, gens_b = gens_b, gens_a
        return {"kind": "effective",
                "A": {"kind": "cosets", "group": "g48", "subgroups": gens_a},
                "B": {"kind": "cosets", "group": "g48", "subgroups": gens_b}}

    return corpus, fixed, draw, extra


WORKLOADS = {"edges": _edges, "census": _census, "equivalence": _equivalence,
             "search": _search}


class Inputs:
    """The inputs of one workload under one seed.

    groups maps every corpus group name to (generators, degree); fixed
    is the list of pinned scenario queries; draw(i) is the i-th seeded
    query.  Draws must be taken in order, since they share one stream.
    """

    def __init__(self, workload, seed):
        rng = random.Random("%s:%d" % (workload, seed))
        toolkit = {name: _Group(name) for name in GROUPS}
        corpus, self.fixed, self.draw, extra = WORKLOADS[workload](rng, toolkit)
        self.groups = {name: GROUPS[name] for name in corpus}
        self.groups.update(extra)

    def queries(self, count):
        """The first count queries: the fixed part, then seeded draws."""
        out = list(self.fixed)
        out.extend(self.draw(i) for i in range(max(0, count - len(out))))
        return out[:count]
