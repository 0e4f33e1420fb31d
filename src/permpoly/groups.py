"""Finite permutation groups, element-complete.

Groups are stored as the full element list in a canonical order (BFS
layers from the identity under right multiplication by the generators,
each layer sorted lexicographically by image tuple).  Each group keeps
one BFS spanning tree of its Cayley graph over the stored generators
(every element's parent and generator position) and the generator
columns x -> x*s.  The multiplication table is filled along that tree
from the columns.  Everything downstream (classes, subgroups, coset
actions, isomorphism search) works on the table, so results are
deterministic for a fixed input.

A map defined on a group is proved a homomorphism on generator edges
only: if f(x*s) = f(x)*f(s) for every element x and every stored
generator s, induction on word length gives f(x*y) = f(x)*f(y) for all
x and y.

A FiniteGroup is immutable, so its two exhaustive searches are kept on
it once they complete: the automorphisms (each as its full image array,
an array('H') or, past 65,535 elements, an array('I'), copied into a
tuple on replay) and the subgroups of each order.  Each is computed
once per group; a replay honours node_cap exactly as a fresh search
would, and a search stopped early keeps nothing.

Intended scale is |G| <= 1000 or so; generate() enforces a hard cap.
"""

from __future__ import annotations

from array import array
from math import gcd

DEFAULT_ORDER_CAP = 1000
DEFAULT_NODE_CAP = 10_000_000


class SizeCapError(RuntimeError):
    """A closure or search exceeded its configured budget."""


class CycleParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class Permutation:
    """A permutation of {1..degree}, stored 0-based as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q) applies q first, then p."""
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        p = self.images
        return Permutation(map(p.__getitem__, other.images))

    def inverse(self) -> "Permutation":
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return Permutation(out)

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(len(self.images))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def order(self) -> int:
        n = 1
        for c in self.cycles():
            n = n * len(c) // gcd(n, len(c))
        return n

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        """Nontrivial cycles as tuples of 1-based points, canonical order."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r)" % (list(self.images),)


_DIGITS = frozenset("0123456789")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation: "id", "()", or a product of cycles.

    Cycles are parenthesized runs of whitespace-separated 1-based
    integers in ASCII digits, e.g. "(1 2 3 4)(5 6)".  A point may appear
    at most once in the whole expression; out-of-range and malformed
    input raise CycleParseError with the offending position.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n = len(text)
    i = 0

    def skip_ws(k):
        while k < n and text[k].isspace():
            k += 1
        return k

    i = skip_ws(i)
    if text[i:i + 2] == "id":
        rest = skip_ws(i + 2)
        if rest != n:
            raise CycleParseError("unexpected input after 'id'", rest)
        return Permutation.identity(degree)

    images = list(range(degree))
    seen_points = set()
    parsed_any = False
    while True:
        i = skip_ws(i)
        if i == n:
            break
        if text[i] != "(":
            raise CycleParseError("expected '('", i)
        open_pos = i
        i = skip_ws(i + 1)
        points = []
        while i < n and text[i] != ")":
            if text[i] not in _DIGITS:
                raise CycleParseError("expected integer or ')'", i)
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            # a run with more significant digits than the degree is out
            # of range; rejecting it here keeps int() off long input
            digits = text[start:i].lstrip("0")
            if len(digits) > len(str(degree)):
                raise CycleParseError(
                    "point out of range 1..%d" % degree, start)
            val = int(digits or "0")
            if val < 1 or val > degree:
                raise CycleParseError(
                    "point %d out of range 1..%d" % (val, degree), start)
            if val in seen_points:
                raise CycleParseError("point %d repeated" % val, start)
            seen_points.add(val)
            points.append(val)
            i = skip_ws(i)
        if i == n:
            raise CycleParseError("unclosed cycle", open_pos)
        i += 1  # ')'
        if not points:
            # "()" denotes the identity and must stand alone
            rest = skip_ws(i)
            if parsed_any or rest != n:
                raise CycleParseError("empty cycle", open_pos)
            return Permutation.identity(degree)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
        parsed_any = True
    if not parsed_any:
        raise CycleParseError("empty input", 0)
    return Permutation(images)


class FiniteGroup:
    """An element-complete permutation group with a multiplication table.

    tree lists (element, parent, generator position) in BFS order from
    the identity, each element being parent * gens[position];
    gen_columns[k][x] is the index of x * gens[k].
    """

    def __init__(self, degree, elements, gen_indices, label=None):
        self.degree = degree
        self.elements = list(elements)
        self.label = label
        self._index = {p.images: i for i, p in enumerate(self.elements)}
        if not self.elements[0].is_identity():
            raise ValueError("element 0 must be the identity")
        self.gens = tuple(gen_indices)
        n = len(self.elements)
        idx = self._index
        columns = []
        for s in self.gens:
            q = self.elements[s].images
            columns.append([idx[tuple(map(p.images.__getitem__, q))]
                            for p in self.elements])
        self.gen_columns = tuple(columns)
        seen = bytearray(n)
        seen[0] = 1
        tree = []
        order = [0]
        for x in order:
            for pos, col in enumerate(columns):
                y = col[x]
                if not seen[y]:
                    seen[y] = 1
                    order.append(y)
                    tree.append((y, x, pos))
        if len(order) != n:
            raise ValueError("the stored generators reach %d of %d elements"
                             % (len(order), n))
        self.tree = tuple(tree)
        # column y of the table is x -> x*y; column y*s is column y
        # followed by the generator column of s
        cols = [None] * n
        cols[0] = list(range(n))
        for y, x, pos in tree:
            col = columns[pos]
            cols[y] = [col[c] for c in cols[x]]
        table = [list(row) for row in zip(*cols)]
        self.table = table
        self.inverse = [row.index(0) for row in table]
        orders = [1] * n
        for i in range(1, n):
            o, x = 1, i
            while x:
                x = table[x][i]
                o += 1
            orders[i] = o
        self.orders = orders
        self._classes = None
        self._class_of = None
        # exhaustive searches, kept once complete (see isomorphisms_iter
        # and subgroups_of_order): ((nodes, image array) per
        # automorphism, total nodes), and order -> (subgroups, nodes)
        self._automorphisms = None
        self._subgroups = {}

    @classmethod
    def generate(cls, gens, degree=None, cap=DEFAULT_ORDER_CAP, label=None):
        """Closure of the generators, canonically ordered.

        Elements appear BFS layer by layer (layer = shortest word
        length), each layer sorted by image tuple; the identity is
        element 0.  Raises SizeCapError when the closure exceeds cap.
        """
        gens = list(gens)
        if degree is None:
            if not gens:
                raise ValueError("need generators or an explicit degree")
            degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators have mixed degrees")
        ident = Permutation.identity(degree)
        seen = {ident.images}
        ordered = [ident]
        layer = [ident]
        while layer:
            nxt = set()
            for x in layer:
                for g in gens:
                    y = x * g
                    if y.images not in seen:
                        nxt.add(y.images)
            if len(seen) + len(nxt) > cap:
                raise SizeCapError(
                    "group order exceeds cap %d" % cap)
            layer = [Permutation(t) for t in sorted(nxt)]
            seen.update(nxt)
            ordered.extend(layer)
        index = {p.images: i for i, p in enumerate(ordered)}
        gen_indices = []
        for g in gens:
            gi = index[g.images]
            if gi not in gen_indices and gi != 0:
                gen_indices.append(gi)
        if not gen_indices:
            gen_indices = [0]
        return cls(degree, ordered, gen_indices, label=label)

    @classmethod
    def from_cycle_strings(cls, gen_strings, degree, cap=DEFAULT_ORDER_CAP, label=None):
        gens = [parse_cycles(s, degree) for s in gen_strings]
        return cls.generate(gens, degree=degree, cap=cap, label=label)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def element_index(self, perm: Permutation) -> int:
        return self._index[perm.images]

    def power_index(self, i: int, s: int) -> int:
        """Index of elements[i] ** s."""
        o = self.orders[i]
        s %= o
        out = 0
        x = i
        while s:
            if s & 1:
                out = self.table[out][x]
            x = self.table[x][x]
            s >>= 1
        return out

    def is_abelian(self) -> bool:
        for a in self.gens:
            for b in self.gens:
                if self.table[a][b] != self.table[b][a]:
                    return False
        return True

    def exponent(self) -> int:
        m = 1
        for o in self.orders:
            m = m * o // gcd(m, o)
        return m

    def conjugacy_classes(self):
        """Classes as sorted index tuples; the identity class comes first,
        the rest are ordered by minimal element index."""
        if self._classes is None:
            n = self.order
            table = self.table
            inverse = self.inverse
            assigned = [-1] * n
            classes = []
            for g in range(n):
                if assigned[g] >= 0:
                    continue
                orbit = set()
                for x in range(n):
                    orbit.add(table[table[x][g]][inverse[x]])
                cid = len(classes)
                for y in orbit:
                    assigned[y] = cid
                classes.append(tuple(sorted(orbit)))
            self._classes = classes
            self._class_of = assigned
        return self._classes

    def class_of(self):
        self.conjugacy_classes()
        return self._class_of

    def subgroup(self, gen_indices) -> "Subgroup":
        """Closure of the given element indices inside this group."""
        gen_indices = [int(i) for i in gen_indices]
        if any(not 0 <= i < self.order for i in gen_indices):
            raise ValueError("element index out of range")
        # capped at |G|, so never None
        elements = _close_capped(self.table, gen_indices, self.order)
        return Subgroup(self, tuple(sorted(elements)), tuple(gen_indices))

    def subgroup_from_elements(self, indices) -> "Subgroup":
        indices = tuple(sorted(set(int(i) for i in indices)))
        elems = set(indices)
        if 0 not in elems:
            raise ValueError("subgroup must contain the identity")
        for a in indices:
            for b in indices:
                if self.table[a][b] not in elems:
                    raise ValueError("element set is not closed")
        gens = _find_generators(self.table, indices)
        return Subgroup(self, indices, gens)

    def point_stabilizer(self, point: int) -> "Subgroup":
        """Stabilizer of a 1-based point."""
        p = point - 1
        idxs = [i for i, e in enumerate(self.elements) if e.images[p] == p]
        sub = tuple(sorted(idxs))
        return Subgroup(self, sub, _find_generators(self.table, sub))

    def subgroups_of_order(self, k: int, node_cap=DEFAULT_NODE_CAP):
        """All subgroups of order k, exhaustively.

        Closure-pruned breadth-first search: subgroups of order dividing
        k are grown one generator at a time, trying one representative
        per double coset and aborting closures that outgrow k.  Raises
        SizeCapError past node_cap closure attempts.

        A completed search is kept on the group with its node count, so
        each order is searched once per group; a later call returns a
        new list of the same subgroups, and raises SizeCapError exactly
        when the kept count exceeds its node_cap, as a fresh search
        would.
        """
        n = self.order
        if k < 1 or n % k:
            raise ValueError("order %d does not divide |G| = %d" % (k, n))
        trivial = Subgroup(self, (0,), ())
        if k == 1:
            return [trivial]
        if k in self._subgroups:
            subs, nodes = self._subgroups[k]
            if nodes > node_cap:
                raise SizeCapError(
                    "subgroup search exceeded %d nodes" % node_cap)
            return list(subs)
        table = self.table
        orders = self.orders
        usable = [g for g in range(1, n) if k % orders[g] == 0]
        seen = {(0,)}
        found = {}
        queue = [trivial]
        nodes = 0
        while queue:
            sub = queue.pop()
            h = sub.elements
            hsize = len(h)
            covered = bytearray(n)
            for x in h:
                covered[x] = 1
            for g in usable:
                if covered[g]:
                    continue
                # mark the double coset HgH before deciding anything else
                for h1 in h:
                    t1 = table[h1][g]
                    for h2 in h:
                        covered[table[t1][h2]] = 1
                nodes += 1
                if nodes > node_cap:
                    raise SizeCapError(
                        "subgroup search exceeded %d nodes" % node_cap)
                gens = sub.gens + (g,)
                closure = _close_capped(table, gens, k)
                if closure is None:
                    continue
                if k % len(closure):
                    continue
                key = tuple(sorted(closure))
                if key in seen:
                    continue
                seen.add(key)
                cand = Subgroup(self, key, gens)
                if len(key) == k:
                    found[key] = cand
                else:
                    queue.append(cand)
        subs = tuple(found[key] for key in sorted(found))
        self._subgroups[k] = (subs, nodes)
        return list(subs)

    def coset_action(self, sub: "Subgroup") -> "CosetAction":
        """Left-multiplication action on left cosets of sub.

        Cosets are numbered by their minimal element index, so coset 0
        is the subgroup itself.
        """
        if sub.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        n = self.order
        table = self.table
        h = sub.elements
        coset_of = [-1] * n
        cosets = []
        for x in range(n):
            if coset_of[x] >= 0:
                continue
            row = table[x]
            members = tuple(sorted(row[y] for y in h))
            cid = len(cosets)
            for m in members:
                coset_of[m] = cid
            cosets.append(members)
        reps = [c[0] for c in cosets]
        images = []
        for g in range(n):
            row = table[g]
            images.append(Permutation(coset_of[row[r]] for r in reps))
        ident = Permutation.identity(len(cosets))
        kernel = tuple(g for g in range(n) if images[g] == ident)
        return CosetAction(self, sub, len(cosets), tuple(images), kernel,
                           len(kernel) == 1, tuple(cosets))

    def __repr__(self):
        name = self.label or "FiniteGroup"
        return "<%s: degree %d, order %d>" % (name, self.degree, self.order)


def _close_capped(table, gens, cap):
    """Closure of gens, or None once it exceeds cap elements."""
    elems = {0}
    frontier = list(gens)
    for g in gens:
        elems.add(g)
    if len(elems) > cap:
        return None
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in elems:
                    if len(elems) >= cap:
                        return None
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def _find_generators(table, indices):
    """A small generating sequence for a closed element set."""
    gens = []
    have = {0}
    for x in indices:
        if x not in have:
            gens.append(x)
            # the closure stays inside the closed set, so never passes its size
            have = _close_capped(table, gens, len(indices))
            if len(have) == len(indices):
                break
    return tuple(gens)


class Subgroup:
    """A subgroup as a closed element-index set inside a parent group."""

    __slots__ = ("parent", "elements", "gens")

    def __init__(self, parent: FiniteGroup, elements, gens):
        self.parent = parent
        self.elements = tuple(elements)
        self.gens = tuple(gens)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, idx: int) -> bool:
        return idx in set(self.elements)

    def contains_all(self, idxs) -> bool:
        s = set(self.elements)
        return all(i in s for i in idxs)

    def as_group(self) -> FiniteGroup:
        """Materialize as a standalone FiniteGroup (same degree)."""
        perms = [self.parent.elements[g] for g in self.gens] or \
            [Permutation.identity(self.parent.degree)]
        grp = FiniteGroup.generate(perms, degree=self.parent.degree,
                                   cap=max(len(self.elements), 1))
        if grp.order != len(self.elements):
            raise RuntimeError("generator bookkeeping is inconsistent")
        return grp

    def is_transitive(self) -> bool:
        """Transitivity of the parent-degree point action restricted here."""
        deg = self.parent.degree
        reached = {0}
        frontier = [0]
        elems = [self.parent.elements[i] for i in self.elements]
        while frontier:
            nxt = []
            for p in frontier:
                for e in elems:
                    q = e.images[p]
                    if q not in reached:
                        reached.add(q)
                        nxt.append(q)
            frontier = nxt
        return len(reached) == deg

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.elements == self.elements)

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __repr__(self):
        return "<Subgroup: order %d of %r>" % (self.order, self.parent)


class CosetAction:
    """The data of a coset action: degree, images, kernel, faithfulness."""

    __slots__ = ("group", "subgroup", "degree", "images", "kernel",
                 "faithful", "cosets")

    def __init__(self, group, subgroup, degree, images, kernel, faithful, cosets):
        self.group = group
        self.subgroup = subgroup
        self.degree = degree
        self.images = images
        self.kernel = kernel
        self.faithful = faithful
        self.cosets = cosets


class GroupMap:
    """A homomorphism between element-complete groups, as an image array."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images):
        self.source = source
        self.target = target
        self.images = tuple(images)

    @classmethod
    def identity(cls, group: FiniteGroup) -> "GroupMap":
        return cls(group, group, range(group.order))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_bijective(self) -> bool:
        return (self.source.order == self.target.order
                and len(set(self.images)) == self.source.order)

    def compose(self, inner: "GroupMap") -> "GroupMap":
        """self after inner."""
        if inner.target is not self.source:
            raise ValueError("maps do not chain")
        return GroupMap(inner.source, self.target,
                        tuple(map(self.images.__getitem__, inner.images)))

    def inverted(self) -> "GroupMap":
        if not self.is_bijective():
            raise ValueError("map is not bijective")
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return GroupMap(self.target, self.source, out)

    def validate(self) -> bool:
        """Homomorphism check on the source's generator edges."""
        return _respects_generators(self.source, self.target, self.images)

    def __eq__(self, other):
        return (isinstance(other, GroupMap) and other.source is self.source
                and other.target is self.target and other.images == self.images)

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "<GroupMap on %d elements>" % len(self.images)


def _respects_generators(g1: FiniteGroup, g2: FiniteGroup, f) -> bool:
    """Does f(x*s) = f(x)*f(s) hold for every x in g1 and every stored
    generator s?  That makes f a homomorphism, by induction on word
    length; each generator edge is one whole-column comparison."""
    t2 = g2.table
    for s, col in zip(g1.gens, g1.gen_columns):
        fs = f[s]
        if [f[c] for c in col] != [t2[y][fs] for y in f]:
            return False
    return True


def _hom_from_gen_images(g1: FiniteGroup, g2: FiniteGroup, imgs):
    """Extend g1.gens -> imgs to a homomorphism, or None on inconsistency.

    The images are filled in along g1's spanning tree, f(x*s) =
    f(x)*imgs[s], and then proved on every generator edge, so a returned
    image array is a genuine homomorphism.
    """
    t2 = g2.table
    f = [0] * g1.order
    for y, x, pos in g1.tree:
        f[y] = t2[f[x]][imgs[pos]]
    return f if _respects_generators(g1, g2, f) else None


def isomorphisms_iter(g1: FiniteGroup, g2: FiniteGroup, node_cap=DEFAULT_NODE_CAP):
    """Yield all isomorphisms g1 -> g2 in a canonical order.

    Backtracking over generator images, candidates filtered by element
    order and conjugacy-class size; each leaf is extended along g1's
    spanning tree and proved a homomorphism on the generator edges.
    Deterministic: generators in stored order, candidate images in
    ascending element index.

    Automorphisms (g1 is g2) are enumerated once per group: a search
    that runs to completion keeps each map's full image array (an
    array('H'), or array('I') past 65,535 elements), with the node
    count at which it was found and the search's total, on the group.
    A later call replays them, each map's images copied from its array
    (the search proved it on every generator edge).  node_cap behaves
    as for a fresh search: the maps found within node_cap nodes are
    yielded, then SizeCapError is raised if the search took more.  A
    search stopped early (a caller's break, a close, or SizeCapError)
    keeps nothing.
    """
    if g1 is g2 and g1._automorphisms is not None:
        found, total = g1._automorphisms
        for nodes, images in found:
            if nodes > node_cap:
                break
            yield GroupMap(g1, g1, images)
        if total > node_cap:
            raise SizeCapError("isomorphism search exceeded %d nodes" % node_cap)
        return
    if g1.order != g2.order:
        return
    if sorted(g1.orders) != sorted(g2.orders):
        return
    gens = g1.gens
    cls1 = g1.conjugacy_classes()
    cls2 = g2.conjugacy_classes()
    of1 = g1.class_of()
    of2 = g2.class_of()
    size_of2 = [len(cls2[of2[y]]) for y in range(g2.order)]
    candidates = []
    for a in gens:
        profile = (g1.orders[a], len(cls1[of1[a]]))
        candidates.append([y for y in range(g2.order)
                           if (g2.orders[y], size_of2[y]) == profile])
    nodes = 0
    t1, t2 = g1.table, g2.table
    chosen = [0] * len(gens)
    found = []
    typecode = "H" if g1.order <= 65_535 else "I"

    def descend(depth):
        nonlocal nodes
        if depth == len(gens):
            hom = _hom_from_gen_images(g1, g2, chosen)
            if hom is not None and len(set(hom)) == g2.order:
                if g1 is g2:
                    found.append((nodes, array(typecode, hom)))
                yield GroupMap(g1, g2, hom)
            return
        a = gens[depth]
        for y in candidates[depth]:
            nodes += 1
            if nodes > node_cap:
                raise SizeCapError("isomorphism search exceeded %d nodes" % node_cap)
            # ab and ba are conjugate, so one order comparison per
            # earlier generator suffices
            ok = True
            for j in range(depth):
                if g1.orders[t1[gens[j]][a]] != g2.orders[t2[chosen[j]][y]]:
                    ok = False
                    break
            if not ok:
                continue
            chosen[depth] = y
            yield from descend(depth + 1)

    yield from descend(0)
    if g1 is g2:
        g1._automorphisms = (tuple(found), nodes)


def generator_correspondence(g1: FiniteGroup, g2: FiniteGroup):
    """The isomorphism sending the i-th stored generator of g1 to the
    i-th stored generator of g2, or None when that map does not extend
    to an isomorphism."""
    if len(g1.gens) != len(g2.gens) or g1.order != g2.order:
        return None
    images = _hom_from_gen_images(g1, g2, g2.gens)
    if images is None:
        return None
    phi = GroupMap(g1, g2, images)
    return phi if phi.is_bijective() else None


def isomorphisms(g1: FiniteGroup, g2: FiniteGroup, node_cap=DEFAULT_NODE_CAP):
    return list(isomorphisms_iter(g1, g2, node_cap=node_cap))


def automorphisms(group: FiniteGroup, node_cap=DEFAULT_NODE_CAP):
    return isomorphisms(group, group, node_cap=node_cap)
