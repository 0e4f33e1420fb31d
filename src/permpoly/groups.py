"""Finite permutation groups, element-complete.

A permutation is the tuple of its 0-based images.  Groups are stored as
the full element list in a canonical order (BFS layers from the
identity under right multiplication by the generators, each layer
sorted lexicographically).  Each group keeps one BFS spanning tree of
its Cayley graph over the stored generators (every element's parent and
generator position) and the generator columns x -> x*s.  The
multiplication table is filled along that tree from the columns.
Everything downstream (classes, subgroups, coset actions, isomorphism
search) works on the table, so results are deterministic for a fixed
input.

A map defined on a group is proved a homomorphism on generator edges
only: if f(x*s) = f(x)*f(s) for every element x and every stored
generator s, induction on word length gives f(x*y) = f(x)*f(y) for all
x and y.

Both exhaustive searches work up to the group's symmetry.  The
subgroups of an order are searched one conjugacy class at a time, each
class being the orbit of a subgroup under conjugation by the stored
generators.  The isomorphism search fills each leaf along the spanning
tree and rejects it at the first element whose order its image does not
share; for automorphisms it keeps the group generated by the maps
proven so far (at most node_cap of them) and accepts a leaf found in it
without a fill.

A FiniteGroup is immutable, so its two exhaustive searches are kept on
it once they complete: the automorphisms, as the GroupMaps the search
yielded, which a replay yields again, and the subgroups of each order.
Each is computed once per group; a replay honours node_cap exactly as a
fresh search would, and a search stopped early keeps nothing.  The
isomorphisms onto another group object are not searched for in full:
one isomorphism psi0 is, and Iso(g1, g2) = psi0 o Aut(g1) is
transported from the kept automorphisms, in the order a full search
would give, and kept on g1 per g2 as image tuples (see
isomorphisms_iter).  Subgroups generated by given indices are kept per
generator tuple.

Intended scale is |G| <= 1000 or so; generate() enforces a hard cap.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from math import lcm
from operator import itemgetter
from weakref import WeakKeyDictionary

DEFAULT_ORDER_CAP = 1000
DEFAULT_NODE_CAP = 10_000_000


class SizeCapError(RuntimeError):
    """A closure or search exceeded its configured budget."""


class CycleParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class Permutation(tuple):
    """A permutation of {1..degree}: the tuple of its 0-based images, so
    it compares, sorts and hashes as that tuple.  p * q is composition;
    p + q, t + p for a plain tuple t, and n * p raise TypeError rather
    than concatenate or repeat.  t + p asks p's __radd__ first, as p's
    type subclasses tuple, and must raise there: NotImplemented would
    let tuple concatenation run."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self)

    @property
    def images(self) -> "Permutation":
        """The permutation itself, its image tuple."""
        return self

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q) applies q first, then p."""
        if len(self) != len(other):
            raise ValueError("degree mismatch")
        return Permutation(map(self.__getitem__, other))

    def __add__(self, other):
        return NotImplemented

    __rmul__ = __add__

    def __radd__(self, other):
        raise TypeError("a permutation cannot be concatenated to %s"
                        % type(other).__name__)

    def inverse(self) -> "Permutation":
        out = [0] * len(self)
        for i, j in enumerate(self):
            out[j] = i
        return Permutation(out)

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(len(self))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self))

    def cycles(self):
        """Nontrivial cycles as tuples of 1-based points, canonical order."""
        seen = [False] * len(self)
        out = []
        for i, image in enumerate(self):
            if seen[i] or image == i:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = self[j]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __repr__(self):
        return "Permutation(%r)" % (list(self),)


def _check_permutations(images, degree: int):
    """ValueError unless each image is a permutation of range(degree),
    a sequence of ints."""
    points = list(range(degree))
    for p in images:
        if any(type(i) is not int for i in p) or sorted(p) != points:
            raise ValueError("%r is not a permutation of range(%d)"
                             % (tuple(p), degree))


def count_orbits(perms, degree: int) -> int:
    """Orbits on {0..degree-1} of the group generated by perms, counted
    in one walk over their images."""
    seen = bytearray(degree)
    count = 0
    for start in range(degree):
        if seen[start]:
            continue
        count += 1
        seen[start] = 1
        reached = [start]
        for point in reached:
            for p in perms:
                q = p[point]
                if not seen[q]:
                    seen[q] = 1
                    reached.append(q)
    return count


# a run of ASCII digits, or any other character that is not whitespace;
# what finditer skips between tokens is exactly the str.isspace runs
_CYCLE_TOKEN = re.compile(r"([0-9]+)|\S")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation: "id", "()", or a product of cycles.

    Cycles are parenthesized runs of whitespace-separated 1-based
    integers in ASCII digits, e.g. "(1 2 3 4)(5 6)".  A point may appear
    at most once in the whole expression; out-of-range and malformed
    input raise CycleParseError with the offending position.  The text
    is read in one scan of _CYCLE_TOKEN, token by token.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    width = len(str(degree))
    tokens = _CYCLE_TOKEN.finditer(text)
    tok = next(tokens, None)
    if tok is not None and text.startswith("id", tok.start()):
        next(tokens)  # the 'd'
        rest = next(tokens, None)
        if rest is not None:
            raise CycleParseError("unexpected input after 'id'", rest.start())
        return Permutation.identity(degree)

    images = list(range(degree))
    seen_points = set()
    parsed_any = False
    while tok is not None:
        if tok[0] != "(":
            raise CycleParseError("expected '('", tok.start())
        open_pos = tok.start()
        points = []
        for tok in tokens:
            run = tok[1]
            if run is None:
                if tok[0] == ")":
                    break
                raise CycleParseError("expected integer or ')'", tok.start())
            # a run with more significant digits than the degree is out
            # of range; rejecting it here keeps int() off long input
            digits = run.lstrip("0")
            if len(digits) > width:
                raise CycleParseError(
                    "point out of range 1..%d" % degree, tok.start())
            val = int(digits or "0")
            if val < 1 or val > degree:
                raise CycleParseError(
                    "point %d out of range 1..%d" % (val, degree), tok.start())
            if val in seen_points:
                raise CycleParseError("point %d repeated" % val, tok.start())
            seen_points.add(val)
            points.append(val)
        else:
            raise CycleParseError("unclosed cycle", open_pos)
        if not points:
            # "()" denotes the identity and must stand alone
            if parsed_any or next(tokens, None) is not None:
                raise CycleParseError("empty cycle", open_pos)
            return Permutation.identity(degree)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
        parsed_any = True
        tok = next(tokens, None)
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
        self._index = {p: i for i, p in enumerate(self.elements)}
        if not self.elements[0].is_identity():
            raise ValueError("element 0 must be the identity")
        self.gens = tuple(gen_indices)
        n = len(self.elements)
        idx = self._index
        columns = []
        for s in self.gens:
            q = self.elements[s]
            columns.append([idx[tuple(map(p.__getitem__, q))]
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
        # and subgroups_of_order): (GroupMap per automorphism, total
        # nodes, nodes at which each map was found), the image tuples of
        # the isomorphisms onto each other group, held weakly, and order
        # -> (subgroups, nodes); coset actions, kept per subgroup
        # elements, the summands of every representation (see
        # coset_action and reps._orbit_summands); generated subgroups,
        # kept per generator tuple (see subgroup); the family of each
        # coset action's incidence sets with the family's reduced rows,
        # kept per family, so isomorphic G-sets share one elimination
        # (see reps._summand_rows); affine kernels of representations,
        # kept per set of summand families (see reps.affine_kernel)
        self._automorphisms = None
        self._isomorphisms = WeakKeyDictionary()
        self._subgroups = {}
        self._coset_actions = {}
        self._generated = {}
        self._families = {}
        self._kernels = {}

    def __getstate__(self):
        # weak references do not pickle: a copy starts with no
        # isomorphisms onto other groups kept
        state = dict(self.__dict__)
        del state["_isomorphisms"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._isomorphisms = WeakKeyDictionary()

    @classmethod
    def generate(cls, gens, degree=None, cap=DEFAULT_ORDER_CAP, label=None):
        """Closure of the generators, canonically ordered.

        Elements appear BFS layer by layer (layer = shortest word
        length), each layer sorted by image tuple; the identity is
        element 0.  Generators are Permutations or plain image tuples;
        ValueError on mixed lengths or on a tuple that is not a
        permutation of range(degree).  Raises SizeCapError when the
        closure exceeds cap.
        """
        gens = [Permutation(g) for g in gens]
        if degree is None:
            if not gens:
                raise ValueError("need generators or an explicit degree")
            degree = len(gens[0])
        if any(len(g) != degree for g in gens):
            raise ValueError("generators have mixed degrees")
        _check_permutations(gens, degree)
        ident = Permutation.identity(degree)
        seen = {ident}
        ordered = [ident]
        layer = [ident]
        while layer:
            nxt = set()
            for x in layer:
                for g in gens:
                    y = x * g
                    if y not in seen:
                        nxt.add(y)
            if len(seen) + len(nxt) > cap:
                raise SizeCapError(
                    "group order exceeds cap %d" % cap)
            layer = sorted(nxt)
            seen.update(nxt)
            ordered.extend(layer)
        index = {p: i for i, p in enumerate(ordered)}
        gen_indices = []
        for g in gens:
            gi = index[g]
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
        """Index of a permutation, or of the plain tuple of its images."""
        return self._index[perm]

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
        return lcm(*self.orders)

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
        """Closure of the given element indices inside this group, kept
        per generator tuple as given: a repeat call returns the same
        Subgroup, whose gens are those indices in that order."""
        gens = tuple(_element_indices(gen_indices, self.order))
        sub = self._generated.get(gens)
        if sub is None:
            # capped at |G|, so never None
            elements = _close_capped(self.table, gens, self.order)
            sub = self._generated[gens] = Subgroup(
                self, tuple(sorted(elements)), gens)
        return sub

    def subgroup_from_elements(self, indices) -> "Subgroup":
        indices = tuple(sorted(set(_element_indices(indices, self.order))))
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
        """Stabilizer of a 1-based point, an integer in 1..degree."""
        if point not in range(1, self.degree + 1):
            raise ValueError("point %r out of range 1..%d"
                             % (point, self.degree))
        p = int(point) - 1
        sub = tuple(i for i, e in enumerate(self.elements) if e[p] == p)
        return Subgroup(self, sub, _find_generators(self.table, sub))

    def subgroups_of_order(self, k: int, node_cap=DEFAULT_NODE_CAP):
        """All subgroups of order k, exhaustively, sorted by elements.

        Closure-pruned search up to conjugacy (the cyclic-extension
        method): subgroups of order dividing k are grown one generator
        at a time, trying one representative per double coset and
        aborting closures that outgrow k.  Each new subgroup's whole
        conjugacy class, its orbit under conjugation by the stored
        generators, is marked seen and only the subgroup itself is grown
        further; the classes of order k are returned in full, each
        conjugate generated by the conjugated chain generators.  This
        stays complete: if H' = <H, x> and cHc^-1 was grown instead of
        H, then cH'c^-1 = <cHc^-1, cxc^-1> is found from it.  Abelian
        groups skip the conjugation.  Raises SizeCapError past node_cap
        closure attempts; one closure attempt per class rather than per
        subgroup makes a cap trip later than a search of every subgroup
        would (Alt(6), order 60: 667 nodes where that takes 10,329).

        Raises ValueError unless k is an integer dividing |G|.  A
        completed search is kept on the group with its node count, so
        each order is searched once per group; a later call returns a
        new list of the same subgroups, and raises SizeCapError exactly
        when the kept count exceeds its node_cap, as a fresh search
        would.
        """
        n = self.order
        if int(k) != k:
            raise ValueError("subgroup order must be an integer: %r" % (k,))
        k = int(k)
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
        # x -> s x s^-1 per stored generator s; in an abelian group every
        # subgroup is its own class
        conjugations = [] if self.is_abelian() else [
            [table[table[s][x]][self.inverse[s]] for x in range(n)]
            for s in self.gens]
        seen = {(0,)}
        found = []
        queue = [trivial]
        nodes = 0
        while queue:
            sub = queue.pop()
            h = sub.elements
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
                # a class is marked whole, so none of key's is seen yet
                conjugates = _conjugacy_class(conjugations, key, gens)
                seen.update(conjugates)
                if len(key) == k:
                    found.extend(Subgroup(self, elements, cgens)
                                 for elements, cgens in conjugates.items())
                else:
                    queue.append(Subgroup(self, key, gens))
        found.sort(key=lambda sub: sub.elements)
        subs = tuple(found)
        self._subgroups[k] = (subs, nodes)
        return list(subs)

    def coset_action(self, sub: "Subgroup") -> "CosetAction":
        """Left-multiplication action on left cosets of sub.

        Cosets are numbered by their minimal element index, so coset 0
        is the subgroup itself.  The action depends only on the
        subgroup's elements, so it is built once per subgroup and kept
        on the group, keyed by sub.elements as subgroups_of_order keeps
        its searches: an equal subgroup built again, with other
        generators, gets the same object.  PermRep.from_coset_actions
        takes only these kept actions, homomorphisms by construction.
        """
        if sub.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        h = sub.elements
        action = self._coset_actions.get(h)
        if action is not None:
            return action
        n = self.order
        table = self.table
        # each coset's representative is its least element, the first
        # one the walk meets
        coset_of = [-1] * n
        reps = []
        for x in range(n):
            if coset_of[x] < 0:
                row = table[x]
                for y in h:
                    coset_of[row[y]] = len(reps)
                reps.append(x)
        images = [Permutation([coset_of[row[r]] for r in reps])
                  for row in table]
        ident = Permutation.identity(len(reps))
        kernel = tuple(g for g in range(n) if images[g] == ident)
        action = CosetAction(self, sub, len(reps), tuple(images), kernel)
        self._coset_actions[h] = action
        return action

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


def _conjugacy_class(conjugations, elements, gens):
    """The orbit of a subgroup (sorted elements, generators) under the
    conjugation maps x -> s x s^-1 given, as a dict from sorted elements
    to the conjugated generators.  For the maps of a generating set the
    orbit is the whole conjugacy class; a normal subgroup costs one pass
    per map."""
    out = {elements: gens}
    frontier = [(elements, gens)]
    for sub, sub_gens in frontier:
        for conj in conjugations:
            image = tuple(sorted(map(conj.__getitem__, sub)))
            if image not in out:
                image_gens = tuple(map(conj.__getitem__, sub_gens))
                out[image] = image_gens
                frontier.append((image, image_gens))
    return out


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


def _element_indices(indices, bound):
    """The indices as ints; ValueError on one not equal to an integer or
    outside 0..bound-1."""
    indices = list(indices)
    try:
        ints = [int(i) for i in indices]
    except (TypeError, ValueError, OverflowError):
        ints = None  # not an int-like label: unequal below
    if ints != indices:
        raise ValueError("element indices must be integers: %r" % (indices,))
    if ints and not 0 <= min(ints) <= max(ints) < bound:
        raise ValueError("element index out of range 0..%d" % (bound - 1))
    return ints


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

    def is_transitive(self) -> bool:
        """Transitivity of the parent-degree point action restricted
        here, read off the stored generators."""
        group = self.parent
        return count_orbits([group.elements[g] for g in self.gens],
                            group.degree) == 1

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.elements == self.elements)

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __repr__(self):
        return "<Subgroup: order %d of %r>" % (self.order, self.parent)


class CosetAction:
    """The data of a coset action: degree, images and kernel.

    Made and kept by FiniteGroup.coset_action, the only source of the
    summands a PermRep is kept as.  sets, divisors, family, rows and
    constituents start as None, and a representation reads each off
    its summands.  reps keeps in sets the action's distinct nonempty
    incidence sets, as reps._action_sets gives them (see
    reps._summand_sets); in divisors the cycle divisors D(g) of its
    images as bitmasks (see reps._summand_divisors); in family the
    frozenset of its distinct nonempty incidence sets; and in rows the
    reduced elimination rows and pivots of that family, one object
    shared by every action of the family (see reps._summand_rows).
    characters keeps the action's checked constituents, with their
    table (see characters.constituents).
    """

    __slots__ = ("group", "subgroup", "degree", "images", "kernel", "sets",
                 "divisors", "family", "rows", "constituents")

    def __init__(self, group, subgroup, degree, images, kernel):
        self.group = group
        self.subgroup = subgroup
        self.degree = degree
        self.images = images
        self.kernel = kernel
        self.sets = None
        self.divisors = None
        self.family = None
        self.rows = None
        self.constituents = None


class GroupMap:
    """A homomorphism between element-complete groups, as an image tuple."""

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

    def validate(self) -> bool:
        """Homomorphism check on the generator edges; False on bad images."""
        n = self.target.order
        return (len(self.images) == self.source.order
                and all(type(i) is int and 0 <= i < n for i in self.images)
                and _respects_generators(self.source, self.target, self.images))

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


def _fill_isomorphism(g1: FiniteGroup, g2: FiniteGroup, imgs):
    """Extend g1.gens -> imgs to an isomorphism onto g2, of the same
    order as g1, or None when it does not extend.

    The images are filled in along g1's spanning tree, f(x*s) =
    f(x)*imgs[s], stopping at the first element whose order differs
    from its image's (an isomorphism keeps orders).  A complete fill is
    checked bijective and proved a homomorphism on every generator
    edge, so a returned image list is a genuine isomorphism.
    """
    t2 = g2.table
    o1, o2 = g1.orders, g2.orders
    f = [0] * g1.order
    for y, x, pos in g1.tree:
        image = t2[f[x]][imgs[pos]]
        if o2[image] != o1[y]:
            return None
        f[y] = image
    if len(set(f)) != g2.order or not _respects_generators(g1, g2, f):
        return None
    return f


def _extend_closure(closure, proven, phi, gens, limit):
    """Grow closure, the group generated by the automorphisms in proven,
    by the automorphism phi, which joins proven; stop once closure holds
    limit maps.

    closure maps generator images (the images of gens) to full image
    tuples, and a product x*s sends i to x[s[i]].  The old maps are
    multiplied by phi alone, being closed under the others already, and
    each map the closure gains by every proven map; each product is
    looked up by its generator images before it is composed.
    """
    proven.append(phi)
    fresh, factors = list(closure.values()), (phi,)
    while fresh:
        gained = []
        for x in fresh:
            for s in factors:
                key = tuple([x[s[g]] for g in gens])
                if key not in closure:
                    if len(closure) >= limit:
                        return
                    y = tuple([x[i] for i in s])
                    closure[key] = y
                    gained.append(y)
        fresh, factors = gained, proven


def isomorphisms_iter(g1: FiniteGroup, g2: FiniteGroup, node_cap=DEFAULT_NODE_CAP):
    """Yield all isomorphisms g1 -> g2 in a canonical order: by their
    images of g1's stored generators, compared in stored order.

    Automorphisms (g1 is g2) are enumerated once per group by _search.
    A search that runs to completion keeps each GroupMap it yielded,
    with the node count at which it was found and the search's total, on
    the group, and a later call yields the kept maps themselves.
    node_cap behaves as for a fresh search: the maps found within
    node_cap nodes are yielded, then SizeCapError is raised if the
    search took more.  A search stopped early (a caller's break, a
    close, or SizeCapError) keeps nothing.

    Isomorphisms between two group objects are transported from Aut(g1):
    with psi0 any one isomorphism, found by the same search stopped at
    its first leaf, Iso(g1, g2) = {psi0 o alpha : alpha in Aut(g1)}.
    Sorted by generator images, the maps come in the order the search
    would yield them, as a homomorphism is fixed by its generator images
    and the search tries candidate images in ascending order.  Their
    image tuples are kept on g1 per g2, an empty tuple when the groups
    are not isomorphic, and each call yields new GroupMaps of them; the
    image tuples do not refer to g2, so g1 holds it weakly.  node_cap
    bounds the searches that run, each counted on its own: the search
    for psi0, and that of Aut(g1) when it is not kept yet.  Past it
    SizeCapError is raised before any map is yielded, and nothing is
    kept for g2 (nor Aut(g1), if its search stopped).  A kept list is
    yielded whole whatever node_cap is.
    """
    if g1 is g2:
        kept = g1._automorphisms
        if kept is None:
            yield from _search(g1, g1, node_cap)
            return
        maps, total, nodes = kept
        yield from maps[:bisect_right(nodes, node_cap)]
        if total > node_cap:
            raise SizeCapError("isomorphism search exceeded %d nodes" % node_cap)
        return
    kept = g1._isomorphisms.get(g2)
    if kept is None:
        kept = g1._isomorphisms[g2] = _transported(g1, g2, node_cap)
    for images in kept:
        yield GroupMap(g1, g2, images)


def _transported(g1: FiniteGroup, g2: FiniteGroup, node_cap):
    """The image tuples of Iso(g1, g2), g1 is not g2, in canonical
    order: one isomorphism psi0 composed with each automorphism of g1
    (see isomorphisms_iter)."""
    search = _search(g1, g2, node_cap)
    psi0 = next(search, None)
    search.close()
    if psi0 is None:
        return ()
    if g1._automorphisms is None:
        for _ in _search(g1, g1, node_cap):
            pass
    first = psi0.images
    images = [tuple(map(first.__getitem__, alpha.images))
              for alpha in g1._automorphisms[0]]
    images.sort(key=itemgetter(*g1.gens))
    return tuple(images)


def _search(g1: FiniteGroup, g2: FiniteGroup, node_cap):
    """The backtracking search behind isomorphisms_iter.

    Backtracking over generator images, candidates filtered by element
    order and conjugacy-class size.  Each leaf is filled in along g1's
    spanning tree, rejected at the first element whose order its image
    does not share, and proved bijective and a homomorphism on the
    generator edges.  Deterministic: generators in stored order,
    candidate images in ascending element index.  SizeCapError past
    node_cap nodes.

    Automorphisms (g1 is g2) form a group, so the search keeps the
    group generated by the maps it has proven, keyed by generator
    images: a leaf whose generator images lie in it is that product of
    proven automorphisms (a homomorphism is fixed by its generator
    images) and is accepted without a fill; a leaf outside it is proven
    in full and, if it passes, extends it.  It never holds more than
    node_cap maps; past that, leaves outside it are proven in full.  The
    tree, and with it the order and node count of every map, is the
    same either way.  A completed automorphism search is kept on g1.
    """
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
    maps, found_at = [], []
    if g1 is g2:
        # generator images -> image tuple of every automorphism in the
        # group generated by proven, starting from the identity
        closure = {gens: tuple(range(g1.order))}
        proven = []

    def descend(depth):
        nonlocal nodes
        if depth == len(gens):
            if g1 is g2:
                images = closure.get(tuple(chosen))
                if images is None:
                    images = _fill_isomorphism(g1, g2, chosen)
                    if images is None:
                        return
                    images = tuple(images)
                    if len(closure) < node_cap:
                        _extend_closure(closure, proven, images, gens,
                                        node_cap)
                phi = GroupMap(g1, g1, images)
                maps.append(phi)
                found_at.append(nodes)
            else:
                images = _fill_isomorphism(g1, g2, chosen)
                if images is None:
                    return
                phi = GroupMap(g1, g2, images)
            yield phi
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
        g1._automorphisms = (tuple(maps), nodes, tuple(found_at))


def generator_correspondence(g1: FiniteGroup, g2: FiniteGroup):
    """The isomorphism sending the i-th stored generator of g1 to the
    i-th stored generator of g2, or None when that map does not extend
    to an isomorphism."""
    if len(g1.gens) != len(g2.gens) or g1.order != g2.order:
        return None
    images = _fill_isomorphism(g1, g2, g2.gens)
    return None if images is None else GroupMap(g1, g2, images)


def isomorphisms(g1: FiniteGroup, g2: FiniteGroup, node_cap=DEFAULT_NODE_CAP):
    return list(isomorphisms_iter(g1, g2, node_cap=node_cap))


def automorphisms(group: FiniteGroup, node_cap=DEFAULT_NODE_CAP):
    return isomorphisms(group, group, node_cap=node_cap)
