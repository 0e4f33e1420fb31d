"""Permutation representations and their affine kernels.

A PermRep sends each element of an element-complete group to a
permutation of {1..degree}; the vertex of an element is its flattened
0/1 permutation matrix in Z^(degree^2), with M[i][j] = 1 iff the
permutation maps j to i (so M_g M_h = M_gh).

The affine kernel of a representation is the space of coefficient
vectors lambda over the group with sum(lambda) = 0 and
sum(lambda_g M_g) = 0.  Two representations of one group are stably
equivalent iff their affine kernels coincide; effective equivalence
additionally allows precomposing one side with a group isomorphism.

The kernel trace t(g) of an element is the trace of left multiplication
by g on span{M_h - M_e}.  That space carries each
nontrivial constituent chi of the representation chi(1) times, so
t(g) = sum over the set S of nontrivial constituents of chi(1) chi(g),
and t is read off the reduced rows in integers (kernel_traces).  The
functions sum(chi(1) chi) over distinct sets S differ, the irreducible
characters being independent, so t determines S.  Precomposing B with
an isomorphism phi gives the traces t_B o phi, hence phi is a witness
of effective equivalence, S_B o phi = S_A, exactly when t_B o phi =
t_A.  The trace comparison is an exact filter: the first map that
passes it is the first witness, and the kernel test run on it audits
the character identity.

The cycle divisors D(g) of an element are the divisors of the cycle
lengths of rep(g).  The span of the powers of a permutation matrix P has
dimension sum(phi(d) for d in D), the degree of the minimal polynomial
of P, and stable equivalence restricts to subgroups: the affine kernel
of A restricted to <g> is its affine kernel meet Q^<g>, which is fixed
by the Q-irreducibles of <g> occurring in A, indexed by D_A(g).  So an
isomorphism phi can witness effective equivalence only if D_A(g) =
D_B(phi(g)) for every g, and two representations whose multisets
{(order g, D(g))} differ are not effectively equivalent.  Equal traces
along phi imply equal D, so D serves only as the up-front obstruction,
which needs no elimination and names the element order at which the
two representations part.

Entry (i, j) of M_g is 1 exactly for g in the incidence set S_ij, the
elements sending j to i, and only a few distinct sets occur among the
degree^2 entries.  The affine kernel eliminates one row per distinct
nonempty set: dropping zero and repeated rows keeps the row space, and
the sets of any one column j partition G, so their rows sum to the
all-ones row of sum(lambda) = 0 and the reduced form is that of the
full system.  This is the one elimination a representation needs: its
pivot columns P pick the greedy first independent vertices, a basis of
span{M_g}, and the reduced row of pivot p holds the coefficient of
M_p in every free vertex M_f, as R_p[f] / R_p[p].  The polytope chart
and the kernel traces are read off it; the kernel vectors are built
only for the kernel test.

The kernel test asks whether B o phi annihilates a kernel vector lambda
of A, sum(lambda_g M_B(phi g)) = 0.  Entry k of that sum is the sum of
lambda_g over the g with phi(g) in S_k, so the test is one sum per
distinct nonempty set of B.  They are summed together: each vertex of B
is packed into one int with a W-bit field per set, 1 where the element
lies in the set, and the test is whether sum(lambda_g P(phi g)) is 0.
With W the bit length of the largest L1 norm among the vectors tested,
plus 1, no field total reaches 2^(W-1) in absolute value.  The lowest
nonzero field of a packed sum would then leave it a nonzero remainder
modulo 2^W times that field's place, so the packed sum is 0 exactly
when every field is: the test is exact (_unannihilated).

Every representation is kept as a direct sum of the group's own coset
actions, the one FiniteGroup.coset_action keeps per subgroup
(PermRep): an orbit with base point b is G-isomorphic to G/Stab(b).
Relabelling the points permutes the entries of every M_g alike, which
changes neither the distinct incidence sets nor the cycle lengths, so
a representation is read as that sum, whose M_g is block diagonal: an
entry outside the diagonal blocks has the empty incidence set, and an
entry inside block i has the set it has in the i-th summand.  The
distinct sets are thus the union of the summands' sets, and the row
space the sum of theirs.  The rows of a summand depend only on its
family, the frozenset of its distinct nonempty incidence sets, and the
group keeps the reduced rows once per family.  Isomorphic G-sets, G/H
and G/xHx^-1 among them, have the same family, since an isomorphism f
carries the set of entry (i, j) to that of (f(i), f(j)); so they share
one elimination, which is exact because equal families put the same
rows in.  The kernel of a representation is eliminated on its distinct
families' reduced rows stacked; the reduced echelon form of a row space
is unique, so the kernel, rank and pivots are those of its own sets.
Order, repeats, isomorphic summands and a degree-1 summand beside
others (its one row is the all-ones row, which the sets of any one
column add up to) leave that row space as it is, so a representation
shares its kernel through the group with every one of the same other
families, and one of a single family reads its kernel off that
family's rows.

The other data of a representation are its summands' too.  A point's
cycle under rep(g) is its cycle in the summand it lies in, so D(g) is
the union of the summands' D(g), and the distinct incidence sets are
the union of the summands' (_incidence_sets).  Each kept coset action
computes its sets and cycle divisors once, and a representation only
combines them.  So no step of the kernel route, the character route or
effective equivalence (the cycle-divisor obstruction, the kernel traces
and the kernel test on packed vertices) reads the action: a coset sum
assembles it from its summands only when it is read (PermRep.action),
by its vertices, the polytope's entry index and face tests, or
compose_with_map.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from math import gcd, lcm
from operator import or_

from .groups import (CosetAction, FiniteGroup, GroupMap, Permutation,
                     SizeCapError, Subgroup, _check_permutations,
                     _element_indices, _find_generators, isomorphisms_iter)
from .linalg import F0, _rref_int, kernel_from_rref


# bound on |G| * degree^2, the entries of all vertices together; checked
# before anything of that size is allocated
MAX_VERTEX_ENTRIES = 10_000_000


class NotFaithfulError(ValueError):
    def __init__(self, kernel):
        self.kernel = kernel
        super().__init__(
            "action is not faithful; kernel has %d elements: %s"
            % (len(kernel), list(kernel)))


class NotStablyEquivalentError(ValueError):
    """Raised when an equivariant map is requested across unequal kernels."""

    def __init__(self, witness, message=None):
        self.witness = tuple(witness)
        super().__init__(message or
                         "affine kernels differ; witness coefficient vector attached")


class PermRep:
    """A faithful permutation representation of an element-complete group.

    Every representation is kept as the direct sum of the group's own
    coset actions, G-isomorphic to its action.  A coset sum keeps its
    summands as given, repeats included; natural and the constructor
    decompose their action, one summand per orbit (_orbit_summands).
    The vertex matrices and everything derived (affine kernel, kernel
    traces, cycle divisors and their counts, constituents, the packed
    vertices of the kernel test) are computed on first read and kept,
    all but the vertices from the summands: affine_kernel reads the
    kernel off the rows of their distinct families, sharing it through
    the group with every representation of the same families,
    characters.constituents adds up all of them, and cycle_divisors and
    the incidence sets combine theirs.  So neither stable nor effective
    equivalence reads the action; a coset sum assembles it on first read
    and keeps it, like the vertices.  The size cap on the vertex entries
    is checked at construction all the same.
    """

    def __init__(self, group: FiniteGroup, action):
        self.action = tuple(map(Permutation, action))
        if len(self.action) != group.order:
            raise ValueError("need one permutation per group element")
        degree = len(self.action[0])
        if any(len(p) != degree for p in self.action):
            raise ValueError("action images have mixed degrees")
        self._validate(group)
        self._start(group, _orbit_summands(group, self.action), degree)

    def _start(self, group, summands, degree):
        """Check the degree, the size cap and faithfulness, the kernel
        being the meet of the summands' (NotFaithfulError carries it);
        then set the group, summands and degree, every memo empty."""
        if not degree:
            raise ValueError("a representation needs at least one point")
        entries = group.order * degree ** 2
        if entries > MAX_VERTEX_ENTRIES:
            raise SizeCapError(
                "%d vertices of degree %d need %d entries, over the cap of "
                "%d vertex entries"
                % (group.order, degree, entries, MAX_VERTEX_ENTRIES))
        kernel = set(summands[0].kernel).intersection(
            *(a.kernel for a in summands[1:]))
        if len(kernel) != 1:
            raise NotFaithfulError(tuple(sorted(kernel)))
        self.group = group
        self.degree = degree
        self._summands = summands
        self._kernel = None
        self._traces = None
        self._divisors = None
        self._divisor_counts = None
        self._constituents = None
        self._packed = None

    @cached_property
    def action(self):
        """A coset sum's action, assembled on first read and kept: each
        summand acts on its own points, shifted past those before it.
        The other constructors set the action they are given."""
        offsets = []
        offset = 0
        for a in self._summands:
            offsets.append(offset)
            offset += a.degree
        return tuple(Permutation(chain.from_iterable(
                         map(shift.__add__, a.images[g])
                         for shift, a in zip(offsets, self._summands)))
                     for g in range(self.group.order))

    @cached_property
    def vertices(self):
        """The flattened 0/1 matrices M_g, one tuple per element, built on
        first read and kept."""
        n = self.degree
        verts = []
        for p in self.action:
            flat = [0] * (n * n)
            for j, i in enumerate(p):
                flat[i * n + j] = 1
            verts.append(tuple(flat))
        return verts

    def _validate(self, group):
        """The images of the stored generators must be permutations of
        range(degree), and the action must respect every generator edge,
        act[a*s] = act[a]*act[s]: the edges at the identity make act[e]
        the identity, and then every image is a product of generator
        images, so the action is a homomorphism into permutations.
        ValueError otherwise, before anything is built or kept.
        from_coset_actions and natural do not call it: a sum of the
        group's own coset actions is one by construction, and so is the
        group's own action."""
        act = self.action
        _check_permutations([act[s] for s in group.gens], len(act[0]))
        for s, col in zip(group.gens, group.gen_columns):
            ps = act[s]
            for a, y in enumerate(col):
                if act[y] != tuple(map(act[a].__getitem__, ps)):
                    raise ValueError(
                        "images are inconsistent at element %d times "
                        "generator %d" % (a, s))

    @classmethod
    def natural(cls, group: FiniteGroup) -> "PermRep":
        """The group acting through its own permutations, trusted as a
        homomorphism."""
        rep = cls.__new__(cls)
        rep.action = tuple(group.elements)
        rep._start(group, _orbit_summands(group, rep.action), group.degree)
        return rep

    @classmethod
    def from_generator_images(cls, group: FiniteGroup, images) -> "PermRep":
        """Extend generator images, Permutations or plain tuples, along
        the spanning tree; ValueError first unless they are permutations
        of one degree.  The constructor checks the generator edges."""
        images = list(images)
        if len(images) != len(group.gens):
            raise ValueError("need one image per generator")
        _check_permutations(images, len(images[0]))
        act = [None] * group.order
        act[0] = Permutation.identity(len(images[0]))
        for y, x, pos in group.tree:
            act[y] = act[x] * images[pos]
        # the tree reaches each generator through its own image, except
        # the trivial group's generator, the identity
        for s, b in zip(group.gens, images):
            if act[s] != b:
                raise ValueError(
                    "generator images are inconsistent at element %d" % s)
        return cls(group, act)

    @classmethod
    def from_coset_actions(cls, group: FiniteGroup, actions) -> "PermRep":
        """Direct sum of coset actions, acting on the disjoint union of points.

        Takes only the actions FiniteGroup.coset_action returned for
        this group: ValueError on an empty list, an action of another
        group, or anything else, before anything is built or kept.  A
        sum of homomorphisms is one, so only faithfulness is checked,
        with the size cap on the summed degree, and
        characters.constituents sums the summands' own checked
        constituents.  The summed action is not built here: it is
        assembled when first read (see action).
        """
        actions = list(actions)
        kept = group._coset_actions
        for a in actions:
            if isinstance(a, CosetAction) and a.group is not group:
                raise ValueError("coset action belongs to a different group")
            if (not isinstance(a, CosetAction)
                    or kept.get(a.subgroup.elements) is not a):
                raise ValueError("coset sums take only the actions returned "
                                 "by FiniteGroup.coset_action")
        rep = cls.__new__(cls)
        rep._start(group, actions, sum(a.degree for a in actions))
        return rep

    def cycle_divisors(self):
        """D(g) for each element g, as one bitmask int: bit d is set when
        d divides the length of some cycle of rep(g).  Made once and
        kept, as the OR of the distinct summands' masks
        (_summand_divisors): a point's cycle under rep(g) is its cycle in
        the summand it lies in, so the action is not read."""
        if self._divisors is None:
            masks = [_summand_divisors(a)
                     for a in dict.fromkeys(self._summands)]
            self._divisors = tuple(reduce(or_, column)
                                   for column in zip(*masks))
        return self._divisors

    def orbit_count(self) -> int:
        """One orbit per summand, a coset action being transitive."""
        return len(self._summands)

    def __repr__(self):
        return "<PermRep: order %d on %d points>" % (self.group.order, self.degree)


def _orbit_summands(group: FiniteGroup, action):
    """The summands of a homomorphism's action: the kept coset action on
    each orbit, in order of its least point b, which acts on G/Stab(b),
    G-isomorphic to the orbit by gStab(b) -> g(b).  Stab(b) is a
    subgroup, so its closure is not checked."""
    seen = bytearray(len(action[0]))
    summands = []
    for b in range(len(seen)):
        if seen[b]:
            continue
        images = [p[b] for p in action]
        stab = tuple(g for g, q in enumerate(images) if q == b)
        summand = group._coset_actions.get(stab)
        if summand is None:
            summand = group.coset_action(
                Subgroup(group, stab, _find_generators(group.table, stab)))
        for q in images:
            seen[q] = 1
        summands.append(summand)
    return summands


def _summand_divisors(action):
    """D(g) as a bitmask for each image of a coset action, made once and
    kept on the action: the cycle lengths are counted by one walk over
    the points, and each cycle sets the bits of its length's divisors,
    1 among them."""
    if action.divisors is None:
        of_length = {}
        out = []
        for p in action.images:
            seen = bytearray(len(p))
            mask = 0
            for start in range(len(p)):
                length = 0
                j = start
                while not seen[j]:
                    seen[j] = 1
                    j = p[j]
                    length += 1
                if length:
                    if length not in of_length:
                        of_length[length] = sum(
                            1 << d for d in range(1, length + 1)
                            if length % d == 0)
                    mask |= of_length[length]
            out.append(mask)
        action.divisors = tuple(out)
    return action.divisors


def divisors_of_mask(mask):
    """The ascending tuple of the d with bit d set in mask."""
    return tuple(d for d in range(mask.bit_length()) if mask >> d & 1)


class AffineKernel:
    """The affine kernel of a representation, kept as reduced rows.

    The kernel is {lambda : sum(lambda) = 0, lambda . row(S) = 0 for each
    distinct nonempty incidence set S}.  rows and pivots are the system's
    reduced rows as linalg._rref_int gives them, each a nonzero multiple
    of its row in the unique rational reduced form, and dim = |G| - rank.
    The pivots are the greedy first independent vertices, since the
    vertices satisfy the same linear relations (each matrix column sums
    to 1, so the all-ones row is implied), and R_p[f] / R_p[p] is the
    coefficient of M_p in a free vertex M_f.  sparse_int, built on
    first read by the kernel test and its certificates, holds the
    kernel vectors as linalg.kernel_from_rref gives them, one per free
    column in ascending order, each a sorted list of (element, int),
    primitive and positive at its free column, its last entry; it is
    canonical.  norm, the largest L1 norm among them, which sizes the
    kernel test's fields, is kept beside them.  Equality and hashing
    compare the rows made primitive with a positive pivot, a canonical
    form of the row space.
    """

    def __init__(self, order, rows, pivots):
        self.rows = rows
        self.pivots = pivots
        self.rank = len(pivots)
        self.dim = order - self.rank

    @cached_property
    def sparse_int(self):
        return kernel_from_rref(self.rows, self.pivots, self.rank + self.dim)

    @cached_property
    def norm(self):
        return _largest_norm(self.sparse_int)

    @cached_property
    def _canonical_rows(self):
        """The reduced rows, each primitive with a positive pivot."""
        out = []
        for row, p in zip(self.rows, self.pivots):
            content = gcd(*row)
            if row[p] < 0:
                content = -content
            out.append(tuple(x // content for x in row))
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, AffineKernel):
            return NotImplemented
        return self is other or (
            self.pivots == other.pivots
            and self._canonical_rows == other._canonical_rows)

    def __hash__(self):
        return hash(self._canonical_rows)


def _largest_norm(vectors):
    """The largest L1 norm among sparse integer vectors, 0 for none."""
    return max((sum(abs(c) for _, c in lam) for lam in vectors), default=0)


def _dense_vector(entries, order):
    """A sparse_int kernel vector over Q^order, 1 at its free column."""
    scale = entries[-1][1]
    vec = [F0] * order
    for i, c in entries:
        vec[i] = Fraction(c, scale)
    return tuple(vec)


def _incidence_sets(rep: PermRep):
    """The distinct nonempty incidence sets of a representation, the
    union of its summands' (_summand_sets) in summand order, so its
    action is not read.

    Entry (i, j) has the incidence set S = {g : rep(g) sends j to i}, so
    M_g has a one there exactly for g in S.  affine_kernel eliminates one
    row per set in place of the all-ones row and the degree^2 entry
    rows, which only adds zero and repeated rows and the sum of one
    column's rows, so the reduced form does not change; the kernel test
    packs one field per set, and is exact in any field order.
    """
    return list(dict.fromkeys(chain.from_iterable(
        map(_summand_sets, rep._summands))))


def _action_sets(action):
    """The distinct nonempty incidence sets of an image list, one
    Permutation per group element: a representation's action or a coset
    action's images.  Each is an ascending tuple of elements, and they
    come in order of their first entry (i, j), flattened to
    i*degree + j.  One pass over the images, O(|G| * degree).
    """
    n = action[0].degree
    members = {}
    for g, p in enumerate(action):
        for j, i in enumerate(p):
            k = i * n + j
            if k in members:
                members[k].append(g)
            else:
                members[k] = [g]
    return list(dict.fromkeys(tuple(members[k]) for k in sorted(members)))


def _summand_sets(action):
    """_action_sets of a coset action's images, made once and kept on
    the action."""
    if action.sets is None:
        action.sets = _action_sets(action.images)
    return action.sets


def _set_rows(sets, order):
    """One 0/1 row over the group per incidence set."""
    rows = []
    for elems in sets:
        row = [0] * order
        for g in elems:
            row[g] = 1
        rows.append(row)
    return rows


def _summand_rows(action):
    """(family, (reduced integer rows, pivots)) of a coset action: its
    family is the frozenset of its distinct nonempty incidence sets,
    and the rows are those sets' reduced rows.  Kept on the group per
    family, so actions with one family share one elimination and one
    rows object, and on the action as its family and rows."""
    if action.rows is None:
        group = action.group
        sets = _summand_sets(action)
        family = frozenset(sets)
        kept = group._families.get(family)
        if kept is None:
            order = group.order
            kept = group._families[family] = (
                family, _rref_int(_set_rows(sets, order), order))
        action.family, action.rows = kept
    return action.family, action.rows


def affine_kernel(rep: PermRep) -> AffineKernel:
    """The AffineKernel of a representation, made once and kept on it,
    on its summands' families' reduced rows, a degree-1 summand left
    out beside others, and kept on the group per set of families (see
    the module docstring)."""
    if rep._kernel is not None:
        return rep._kernel
    group = rep.group
    order = group.order
    summands = rep._summands
    families = (dict(_summand_rows(a) for a in summands if a.degree > 1)
                or dict([_summand_rows(summands[0])]))
    key = frozenset(families)
    memo = group._kernels
    kernel = memo.get(key)
    if kernel is None:
        if len(families) == 1:
            (rows, pivots), = families.values()
        else:
            rows, pivots = _rref_int(
                [row for part, _ in families.values() for row in part],
                order)
        kernel = memo[key] = AffineKernel(order, rows, pivots)
    rep._kernel = kernel
    return kernel


def _packed_vertices(rep: PermRep, width: int):
    """Each vertex M_g as one int: a width-bit field per distinct
    nonempty incidence set (_incidence_sets), holding 1 when g lies in
    the set.  Kept on the representation with its width and made again
    only for a wider one: wider fields keep the kernel test exact."""
    kept = rep._packed
    if kept is None or kept[0] < width:
        packed = [0] * rep.group.order
        for s, elems in enumerate(_incidence_sets(rep)):
            field = 1 << (width * s)
            for g in elems:
                packed[g] += field
        kept = rep._packed = (width, packed)
    return kept[1]


def _unannihilated(rep: PermRep, vectors, norm,
                   phi: GroupMap | None = None):
    """The first sparse integer vector lam in the list vectors for which
    sum over (g, c) in lam of c * M_rep(phi(g)) is not zero, or None.

    norm is the largest L1 norm among the vectors (_largest_norm; an
    AffineKernel keeps its own) and phi defaults to the identity
    correspondence.  Each sum is one integer sum over the packed
    vertices, with fields of W bits, W the bit length of norm plus 1,
    which is exact (see the module docstring).
    """
    packed = _packed_vertices(rep, norm.bit_length() + 1)
    if phi is not None:
        f = phi.images
        packed = [packed[h] for h in f]
    for lam in vectors:
        if sum([c * packed[g] for g, c in lam]):
            return lam
    return None


def kernel_traces(rep: PermRep):
    """The kernel traces t(g) of every element, the traces of left
    multiplication by g on span{M_h - M_e}, as a tuple of ints, made once
    per representation and kept.

    The pivot vertices M_p of the affine kernel are a basis of span{M_h},
    and g sends M_p to M_gp, whose coefficient on M_p is the reduced-row
    entry R_p[gp] / R_p[p].  At the identity every pivot is fixed; for
    g != e no element is, and R_p vanishes at every other pivot, so the
    trace is the sum over pivots p of R_p[gp] / R_p[p].  The hull misses
    the origin, so span{M_h} is span{M_h - M_e} plus Q M_e, and g acts
    trivially on the quotient: the trace on span{M_h - M_e} is one
    less, rank - 1 at the identity.

    The sums run over the pivots, in integers scaled by the lcm of the
    pivot entries, so no kernel vector is built; each trace is
    sum(chi(1) chi(g)) over the nontrivial constituents, a rational
    algebraic integer, and RuntimeError is raised if a scaled sum does
    not divide out.
    """
    if rep._traces is not None:
        return rep._traces
    kernel = affine_kernel(rep)
    table = rep.group.table
    scale = lcm(*(row[p] for row, p in zip(kernel.rows, kernel.pivots)))
    columns = []
    for row, p in zip(kernel.rows, kernel.pivots):
        factor = scale // row[p]
        columns.append([row[t[p]] * factor for t in table])
    traces = [kernel.rank - 1]
    for g, total in enumerate(map(sum, zip(*columns))):
        if g:
            quotient, rest = divmod(total, scale)
            if rest:
                raise RuntimeError(
                    "kernel trace at element %d is not an integer" % g)
            traces.append(quotient - 1)
    rep._traces = tuple(traces)
    return rep._traces


def compose_with_map(rep: PermRep, phi: GroupMap) -> PermRep:
    """The representation g -> rep(phi(g)) of phi's source group.

    Always validated: raises ValueError when phi does not give one
    element index of its target per source element, or is not a
    homomorphism, and NotFaithfulError when it is not injective.
    """
    if phi.target is not rep.group:
        raise ValueError("map target does not match the representation's group")
    if len(phi.images) != phi.source.order:
        raise ValueError("need one image per source element")
    images = _element_indices(phi.images, rep.group.order)
    return PermRep(phi.source, [rep.action[h] for h in images])


def _same_group(repA: PermRep, repB: PermRep) -> bool:
    return repA.group is repB.group or (
        repA.group.degree == repB.group.degree
        and repA.group.elements == repB.group.elements)


def stably_equivalent_by_kernel(repA: PermRep, repB: PermRep) -> bool:
    """Equality of affine kernels (representations of one group), as
    equality of their canonical reduced rows; no kernel vector is built."""
    if not _same_group(repA, repB):
        raise ValueError("stable equivalence needs representations of one group")
    return affine_kernel(repA) == affine_kernel(repB)


def _annihilates_kernel(rep: PermRep, kernel: AffineKernel,
                        phi: GroupMap | None = None) -> bool:
    """The kernel test: does rep o phi annihilate every vector of kernel,
    the affine kernel of a representation of phi's source?"""
    return _unannihilated(rep, kernel.sparse_int, kernel.norm, phi) is None


def cycle_divisor_obstruction(repA: PermRep, repB: PermRep):
    """None when the multisets {(order g, D_A(g))} and {(order g, D_B(g))}
    agree; otherwise (order, divisors, count_a, count_b) for the greatest
    (order, D) key whose counts differ, D compared as its bitmask and
    given as its ascending divisors: count_a elements of rep_A against
    count_b of rep_B.  Taking the greatest names the highest element
    order at which the two part, as the paper's argument by constituent
    orders does.

    A witness phi of effective equivalence keeps element orders and has
    D_A(g) = D_B(phi(g)) (see the module docstring), so an obstruction
    certifies that no isomorphism is a witness.  O(|G| * degree), with no
    elimination.
    """
    count_a, count_b = _divisor_counts(repA), _divisor_counts(repB)
    if count_a == count_b:
        return None
    key = max(k for k in count_a.keys() | count_b.keys()
              if count_a[k] != count_b[k])
    return key[0], divisors_of_mask(key[1]), count_a[key], count_b[key]


def _divisor_counts(rep: PermRep) -> Counter:
    """The multiset {(order g, D(g))} as a Counter, made once per
    representation and kept."""
    if rep._divisor_counts is None:
        rep._divisor_counts = Counter(
            zip(rep.group.orders, rep.cycle_divisors()))
    return rep._divisor_counts


def effectively_equivalent(repA: PermRep, repB: PermRep,
                           node_cap=10_000_000) -> GroupMap | None:
    """First isomorphism phi with rep_A stably equivalent to rep_B o phi.

    Isomorphisms are enumerated in the canonical backtracking order, so
    the returned witness is deterministic; None when no isomorphism
    works (or the groups are not isomorphic).

    The cycle-divisor invariant runs first: when
    cycle_divisor_obstruction finds one, the answer is None with no
    affine kernel and no search, so no SizeCapError is raised whatever
    node_cap is.  Unequal kernel dimensions answer None next.  In the
    search, a map phi passes when the kernel traces agree along it,
    t_B(phi(g)) = t_A(g) for every g, compared on the stored generators
    first; that holds exactly for the witnesses (see the module
    docstring), so the first map to pass is the first witness.  The
    kernel test runs on that map alone and audits the trace identity:
    RuntimeError if it fails.

    node_cap bounds the isomorphism search as isomorphisms_iter does.
    With one group, the maps found within it are tried, then
    SizeCapError.  Between two group objects the whole of Iso(G_A, G_B)
    is transported before the first map is tried: node_cap bounds the
    search for one isomorphism and, while Aut(G_A) is not kept, its full
    enumeration, each on its own.  So SizeCapError can come where a
    witness early in the order lies within node_cap nodes; once the list
    is kept on G_A, node_cap no longer applies to it.
    """
    if cycle_divisor_obstruction(repA, repB) is not None:
        return None
    kA = affine_kernel(repA)
    kB = affine_kernel(repB)
    if kA.dim != kB.dim:
        return None
    tA = kernel_traces(repA)
    tB = kernel_traces(repB)
    at_gens = [(s, tA[s]) for s in repA.group.gens]
    for phi in isomorphisms_iter(repA.group, repB.group, node_cap=node_cap):
        f = phi.images
        if any(tB[f[s]] != t for s, t in at_gens):
            continue
        if tuple(map(tB.__getitem__, f)) != tA:
            continue
        if _annihilates_kernel(repB, kA, phi):
            return phi
        raise RuntimeError(
            "kernel traces agree along an isomorphism whose kernel test "
            "fails")
    return None


class EquivariantMap:
    """A linear map between spans of vertex matrices, equivariant for phi.

    The map is determined by M_g -> M_(phi g); because every point of
    the affine hull has matrix row sums 1, the hull misses the origin
    and the affine vertex correspondence lifts to this unique linear
    map.  basis_elements are the source kernel's pivots, the greedy
    first independent vertices.
    """

    def __init__(self, source: PermRep, target: PermRep, phi: GroupMap,
                 basis_elements):
        self.source = source
        self.target = target
        self.phi = phi
        self.basis_elements = basis_elements

    @property
    def vertex_map(self):
        return self.phi.images


def build_equivariant_map(repA: PermRep, repB: PermRep, phi: GroupMap) -> EquivariantMap:
    """Construct the linear map M_g -> M_(phi g) for an isomorphism phi.

    The kernel test certifies it: every kernel vector of rep_A is
    annihilated by rep_B o phi, so each linear relation among the M_g
    holds among the M_(phi g), and the map, fixed on rep_A's pivot
    vertices, sends every vertex to its phi-image.  As phi is a
    homomorphism, M_h M_g = M_hg goes to M_(phi h) M_(phi g), so the map
    is equivariant.  Raises ValueError unless phi is a bijective
    homomorphism, and NotStablyEquivalentError with a witness
    coefficient vector when the kernels differ.
    """
    if phi.source is not repA.group or phi.target is not repB.group:
        raise ValueError("phi must map the source group to the target group")
    if not (phi.is_bijective() and phi.validate()):
        raise ValueError("phi must be an isomorphism")
    kA = affine_kernel(repA)
    order = repA.group.order
    lam = _unannihilated(repB, kA.sparse_int, kA.norm, phi)
    if lam is not None:
        raise NotStablyEquivalentError(_dense_vector(lam, order))
    kB = affine_kernel(repB)
    if kA.dim != kB.dim:
        # the reverse inclusion fails: find a kernel vector of rep_B o phi
        # that rep_A does not annihilate
        composed = compose_with_map(repB, phi)
        kC = affine_kernel(composed)
        lam = _unannihilated(repA, kC.sparse_int, kC.norm)
        if lam is not None:
            raise NotStablyEquivalentError(
                _dense_vector(lam, order),
                "kernel of the composed representation is larger")
        raise NotStablyEquivalentError((), "kernel dimensions differ")
    return EquivariantMap(repA, repB, phi, kA.pivots)
