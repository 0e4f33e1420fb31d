"""Geometry of permutation polytopes with exact rational arithmetic.

The polytope of a representation is the convex hull of its vertex
matrices.  A face test first takes the support closure of the vertex
set S: every vertex whose 0/1 matrix has its ones only where some
vertex of S has a one, i.e. the vertices on the smallest face of the
Birkhoff polytope containing S.  The closure, the complementary vertex
and the column counts below are AND/OR/popcount on a kept bitmask of
vertices per matrix entry, with a vertex scan's routes and
certificates.  Four routes then decide, each with a certificate that is
checked exactly:

* support: the closure is S, so S is a face; the indicator of S's
  support, with offset degree, is the separating functional.
* pair: S = {a, b} and the closure holds another vertex x; then
  M_a + M_b - M_x is the vertex M_y of the complementary cycle product
  (Guralnick and Perkinson, JCTA 2006), and x, y with weight 1/2 each
  reach the barycenter of S.
* barycenter: S and its closure have one barycenter (always so for a
  subgroup, by orbit-stabilizer); the uniform combination over the
  closure is the non-face certificate.
* lp: otherwise, one LP in the polytope's chart (dim+1 rows, not
  degree^2) maximizes the weight off S of a convex combination equal
  to S's barycenter.  A positive optimum is the non-face combination;
  at optimum 0 the LP dual is the separating functional, lifted back to
  ambient coordinates through the chart pivots.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from itertools import islice
from math import factorial, lcm
from operator import and_

from .groups import _element_indices
from .intlinalg import hermite_form, saturation, solve_in_lattice
from .linalg import F0, F1, pivot_columns, rank
from .lp import maximize
from .reps import PermRep, affine_kernel


class UnsupportedShapeError(ValueError):
    pass


class PermutationPolytope:
    """Vertices are the flattened 0/1 matrices of a faithful representation,
    labelled by group-element index; vertex 0 (identity) is the base point.

    dim is |G| - 1 minus the dimension of the affine kernel, set at
    construction.  The chart is built on first read and kept: pivots
    are the pivot entries of the reduced echelon form of the rows
    M_g - M_e, and coords the vertices' coordinates in its basis.  Every
    M_g is a combination of the kernel's pivot vertices M_p with
    coefficients summing to 1, so the rows M_p - M_e, p != e, span the
    same space and have the same reduced form.  The entry index, one int
    per entry with bit g set when M_g has a one there, is built from the
    representation's action on the first face test or chart read and
    kept; the chart eliminates one column per distinct nonzero int of
    it.  vertices reads through to the representation.
    """

    def __init__(self, rep: PermRep):
        self.rep = rep
        self.group = rep.group
        self.degree = rep.degree
        self.dim = rep.group.order - 1 - affine_kernel(rep).dim
        self._lattice = None

    @property
    def vertices(self):
        return self.rep.vertices

    @cached_property
    def pivots(self):
        pivots = _chart_pivots(self._entry_masks,
                               affine_kernel(self.rep).pivots)
        if len(pivots) != self.dim:
            raise RuntimeError("chart has %d pivots for dimension %d"
                               % (len(pivots), self.dim))
        return pivots

    @cached_property
    def coords(self):
        # affine coordinates: with an echelon basis, the coefficient on
        # basis vector k is just the pivot entry of v - v_base
        pivots = self.pivots
        base = self.vertices[0]
        return [tuple(v[p] - base[p] for p in pivots) for v in self.vertices]

    @cached_property
    def _entry_masks(self):
        """Per entry k = i*degree + j, the labels g with M_g[k] = 1, those
        whose rep(g) sends j to i, as the bits of one int: one pass over
        the action."""
        n = self.degree
        masks = [0] * (n * n)
        for g, p in enumerate(self.rep.action):
            bit = 1 << g
            for j, i in enumerate(p):
                masks[i * n + j] |= bit
        return masks

    @property
    def vertex_count(self) -> int:
        return self.group.order

    def __repr__(self):
        return "<PermutationPolytope: %d vertices, dim %d, ambient %d^2>" % (
            self.vertex_count, self.dim, self.degree)


def _chart_pivots(masks, vertex_pivots):
    """Pivot entries of the rows M_p - M_e over the pivot vertices p != e,
    given the entry masks.  Entry k of M_p - M_e depends only on its mask
    m, as (m >> p & 1) - (m & 1), so the rows are eliminated on one
    column per distinct nonzero mask, at its first entry: a repeated or
    zero column is never a pivot."""
    first = {}
    for k, m in enumerate(masks):
        if m and m not in first:
            first[m] = k
    rows = [[(m >> p & 1) - (m & 1) for m in first]
            for p in vertex_pivots if p]
    entries = list(first.values())
    return [entries[c] for c in pivot_columns(rows)]


def build_polytope(rep: PermRep, table=None) -> PermutationPolytope:
    """Polytope model of a representation; when a character table is
    supplied the rank-based dimension is cross-checked against
    characters.predicted_dimension."""
    poly = PermutationPolytope(rep)
    if table is not None:
        from .characters import predicted_dimension
        pred = predicted_dimension(rep, table)[0]
        if pred != poly.dim:
            raise RuntimeError(
                "rank dimension %d disagrees with character prediction %d"
                % (poly.dim, pred))
    return poly


def polytopes_equal(repA: PermRep, repB: PermRep) -> bool:
    """Equality of vertex sets as sets of integer vectors; differing
    ambient degrees simply compare unequal."""
    if repA.degree != repB.degree:
        return False
    return set(repA.vertices) == set(repB.vertices)


class FaceResult:
    """Outcome of a face test.

    For faces, functional is an ambient pair (vector a, offset beta)
    with a.v = beta on the subset and a.v < beta off it.  For
    non-faces, counterexample lists (element, weight) pairs: a convex
    combination of vertices equal to the subset barycenter that puts
    positive weight outside the subset.  route names the step of
    is_face that decided: "support", "pair", "barycenter" or "lp"; it
    is None on a result built by hand.
    """

    def __init__(self, is_face, functional=None, counterexample=None, *,
                 route=None):
        self.is_face = is_face
        self.functional = functional
        self.counterexample = counterexample
        self._route = route

    @property
    def route(self):
        return self._route

    def __bool__(self):
        return self.is_face


def _checked_labels(poly, subset):
    """Sorted distinct labels of a nonempty set of the polytope's vertices;
    ValueError on a label not equal to an integer or out of range."""
    labels = sorted(set(_element_indices(subset, poly.vertex_count)))
    if not labels:
        raise ValueError("empty vertex subset")
    return labels


def _vertex_sum(base, p, q):
    """Images of M_p + M_q - M_base: q's where p agrees with base, p's
    where q does; None if in some column neither does (a -1 entry)."""
    out = tuple(j if i == b else i if j == b else None
                for b, i, j in zip(base, p, q))
    return None if None in out else out


def is_face(poly: PermutationPolytope, subset) -> FaceResult:
    """Decide whether the given vertex labels are exactly the vertex set
    of a face (the full set counts: improper face).

    Routes, in order, with F the support closure of the subset S:
    "support" when F = S (functional: indicator of S's support, offset
    degree); "pair" when |S| = 2 and F is larger (weight 1/2 on some x
    in F - S and on the complementary vertex y = a + b - x); "barycenter"
    when F is larger with the same barycenter (weight 1/|F| on each
    vertex of F); "lp" otherwise (one barycenter LP: its optimum is
    the non-face combination, its dual the face functional).
    """
    labels = _checked_labels(poly, subset)
    action = poly.rep.action
    n = poly.degree
    entry = poly._entry_masks
    # the entries where S has a one: the support of the smallest Birkhoff
    # face containing S, whose vertices F take one of them in each column
    support = {i * n + j for g in labels for j, i in enumerate(action[g])}
    cols = [0] * n
    for k in support:
        cols[k % n] |= entry[k]
    f = reduce(and_, cols)
    s = sum(1 << g for g in labels)

    if f == s:
        a = [F0] * (n * n)
        for k in support:
            a[k] = F1
        return FaceResult(True, functional=(tuple(a), Fraction(n)),
                          route="support")

    if len(labels) == 2:
        rest = f & ~s  # F - S; x is its least vertex
        x = (rest & -rest).bit_length() - 1
        # x follows a or b in each column: y is the complementary product
        img_y = _vertex_sum(action[x], *(action[g] for g in labels))
        y = 0 if img_y is None else reduce(
            and_, (entry[i * n + j] for j, i in enumerate(img_y)), f)
        if not y:
            raise RuntimeError("vertex pair %r: M_a + M_b - M_%d is not a "
                               "vertex" % (tuple(labels), x))
        half = Fraction(1, 2)
        return FaceResult(False, counterexample=tuple(sorted(
            ((x, half), (y.bit_length() - 1, half)))), route="pair")

    # every incidence set on the support holds the same share of S and F
    m, size = len(labels), f.bit_count()
    if all((s & e).bit_count() * size == (f & e).bit_count() * m
           for e in {entry[k] for k in support}):
        w = Fraction(1, size)
        return FaceResult(False, counterexample=tuple(
            (g, w) for g in range(poly.vertex_count) if f >> g & 1),
            route="barycenter")

    return _is_face_lp(poly, labels)


def _is_face_lp(poly: PermutationPolytope, labels) -> FaceResult:
    """The LP face test on sorted distinct in-range labels: the general
    fallback of is_face and the oracle its certificates are tested
    against.

    One LP, in affine coordinates x_g: the largest weight off S that a
    convex combination equal to the barycenter b of S can carry.  A
    positive optimum is the non-face combination.  At optimum 0 the dual
    (y0, w) has y0 + w.x_g >= 0 on every vertex, >= 1 off S, and
    y0 + w.b = 0, the mean over S; so it vanishes on S, and -w with
    offset y0 separates S strictly.
    """
    inside = [False] * poly.vertex_count
    for g in labels:
        inside[g] = True
    m = len(labels)
    bary = [sum(poly.coords[g][k] for g in labels) / Fraction(m)
            for k in range(poly.dim)]
    eq_rows = [[1] * poly.vertex_count]
    for k in range(poly.dim):
        eq_rows.append([c[k] for c in poly.coords])
    obj = [0 if flag else 1 for flag in inside]
    sol = maximize(eq_rows, [F1] + bary, obj)
    if sol is None:
        raise RuntimeError("the subset barycenter is not a convex combination")
    value, weights, dual = sol
    if value > 0:
        return FaceResult(False, counterexample=tuple(
            (g, w) for g, w in enumerate(weights) if w), route="lp")
    # lift -w to ambient coordinates through the basis pivots
    base = poly.vertices[0]
    a = [F0] * (poly.degree * poly.degree)
    beta = dual[0]
    for w, p in zip(dual[1:], poly.pivots):
        a[p] = -w
        beta -= w * base[p]
    return FaceResult(True, functional=(tuple(a), beta), route="lp")


class FaceCensusEntry:
    def __init__(self, elements, is_face, face_dim, witness):
        self.elements = tuple(elements)
        self.is_face = is_face
        self.face_dim = face_dim
        self.witness = witness

    @property
    def vertex_count(self) -> int:
        return len(self.elements)

    def __repr__(self):
        if self.is_face:
            return "<FaceCensusEntry: %d vertices, face of dim %d>" % (
                self.vertex_count, self.face_dim)
        return "<FaceCensusEntry: %d vertices, not a face>" % self.vertex_count


def subgroup_face_census(rep: PermRep, order: int, node_cap=10_000_000,
                         poly: PermutationPolytope | None = None):
    """Test every subgroup of the given order for being a vertex set of
    a face; entries come back in canonical subgroup order."""
    if poly is None:
        poly = build_polytope(rep)
    entries = []
    for sub in rep.group.subgroups_of_order(order, node_cap=node_cap):
        res = is_face(poly, sub.elements)
        fdim = _subset_dim(poly, sub.elements) if res.is_face else None
        entries.append(FaceCensusEntry(sub.elements, res.is_face, fdim,
                                       res.functional))
    return entries


class LatticeData:
    """Vertex-difference lattice vs its saturation.

    vertex_lattice and saturation_lattice are Hermite bases of
    Z-span{v - v_base} and of (R-span of the same) intersected with the
    integer lattice; index is the subgroup index of the first in the
    second; normalized_volume is set only for simplices.
    """

    def __init__(self, vertex_lattice, saturation_lattice, index,
                 normalized_volume, dim):
        self.vertex_lattice = vertex_lattice
        self.saturation_lattice = saturation_lattice
        self.index = index
        self.normalized_volume = normalized_volume
        self.dim = dim

    @property
    def euclidean_volume(self):
        if self.normalized_volume is None:
            return None
        return Fraction(self.normalized_volume, factorial(self.dim))


def lattice_structure(poly: PermutationPolytope) -> LatticeData:
    """Vertex lattice, its saturation, index and simplex volume, cached
    on the polytope.

    One Hermite form of the |G| - 1 vertex differences gives the vertex
    lattice; its saturation is taken on that rank-dim basis.  Both are
    echelon bases of one rational space, so they have the same pivot
    columns, and the coordinates of the vertex-lattice rows in the
    saturation form an upper triangular matrix, checked, whose diagonal
    product is the index.  A simplex's vertex differences are a basis of
    its vertex lattice, so its normalized volume is that index.
    """
    if poly._lattice is not None:
        return poly._lattice
    base = poly.vertices[0]
    diffs = [[a - b for a, b in zip(v, base)] for v in poly.vertices[1:]]
    vlat = hermite_form(diffs)
    sat = saturation(vlat)
    index = 1
    for i, row in enumerate(vlat):
        c = solve_in_lattice(sat, row)
        if c is None:
            raise RuntimeError("vertex lattice escapes its saturation")
        if any(c[:i]):
            raise RuntimeError("vertex lattice coordinates are not triangular")
        index *= c[i]
    vol = index if poly.vertex_count == poly.dim + 1 else None
    data = LatticeData(vlat, sat, index, vol, poly.dim)
    poly._lattice = data
    return data


def normalized_volume(poly: PermutationPolytope) -> int:
    data = lattice_structure(poly)
    if data.normalized_volume is None:
        raise UnsupportedShapeError(
            "normalized volume supports simplices only; polytope has "
            "%d vertices and dimension %d" % (poly.vertex_count, poly.dim))
    return data.normalized_volume


class Membership:
    def __init__(self, in_affine_hull, integral, in_saturation, in_vertex_lattice):
        self.in_affine_hull = in_affine_hull
        self.integral = integral
        self.in_saturation = in_saturation
        self.in_vertex_lattice = in_vertex_lattice

    def as_tuple(self):
        return (self.in_affine_hull, self.integral,
                self.in_saturation, self.in_vertex_lattice)

    def __repr__(self):
        return "Membership(aff=%s, integral=%s, saturation=%s, vertex=%s)" % \
            self.as_tuple()


def point_membership(poly: PermutationPolytope, point) -> Membership:
    """Four exact membership tests for an ambient rational vector.

    Integers only: the point minus the base vertex, scaled by the lcm
    of its denominators, lies in the rational span of the vertex
    differences exactly when it lies in their saturation, so one solve
    there decides the affine hull.  For an integral point (scale 1) the
    same solve is the saturation answer.  Every point, integral or
    not, builds the polytope's lattice_structure (cached).
    """
    n2 = poly.degree * poly.degree
    pt = [Fraction(v) for v in point]
    if len(pt) != n2:
        raise ValueError("point must have length %d" % n2)
    data = lattice_structure(poly)
    diff = [v - b for v, b in zip(pt, poly.vertices[0])]
    scale = lcm(*(v.denominator for v in diff))
    idiff = [v.numerator * (scale // v.denominator) for v in diff]
    in_aff = solve_in_lattice(data.saturation_lattice, idiff) is not None
    integral = scale == 1
    in_sat = integral and in_aff
    in_vert = in_sat and solve_in_lattice(data.vertex_lattice, idiff) is not None
    return Membership(in_aff, integral, in_sat, in_vert)


class ShapeDescriptor:
    """kind "simplex" (params (d,)), "product" (params (a, b), a <= b)
    or "unclassified".  A product's labelling holds the labels v_ij as
    a + 1 rows of b + 1, with M_ij = M_i0 + M_0j - M_00; else None."""

    def __init__(self, kind, params, vertex_count, dim, labelling=None):
        self.kind = kind
        self.params = tuple(params)
        self.vertex_count = vertex_count
        self.dim = dim
        self.labelling = labelling

    def __str__(self):
        if self.kind == "simplex":
            return "simplex(%d)" % self.params
        if self.kind == "product":
            return "product(%d, %d)" % self.params
        return "unclassified"

    def __repr__(self):
        return "<ShapeDescriptor: %s, %d vertices, dim %d>" % (
            str(self), self.vertex_count, self.dim)


def _subset_dim(poly, labels):
    base = labels[0]
    rows = [[a - b for a, b in zip(poly.coords[h], poly.coords[base])]
            for h in labels[1:]]
    return rank(rows) if rows else 0


def shape_descriptor(poly: PermutationPolytope, subset=None) -> ShapeDescriptor:
    """Classify a polytope or the hull of some of its vertices, by one
    path: simplex when v = d + 1, product when a labelling is found,
    unclassified otherwise.  The anchor is the least label and X, Y split
    its d polytope edges: h joins the first edge's end x unless
    M_x + M_h - M_anchor is a vertex of the set.  Each such corner for
    x in X, y in Y must be one, and the anchor, X, Y and the corners v
    distinct labels.  They span at most |X| + |Y| = d dimensions, so the
    edge vectors are independent: a proof, whatever the edge tests said.
    """
    if subset is None:
        labels, d = list(range(poly.vertex_count)), poly.dim
    else:
        labels = _checked_labels(poly, subset)
        d = _subset_dim(poly, labels)
    v = len(labels)
    if v == d + 1:
        return ShapeDescriptor("simplex", (d,), v, d)
    shape = ShapeDescriptor("unclassified", (), v, d)
    anchor = labels[0]
    near = list(islice((h for h in labels[1:]
                        if is_face(poly, (anchor, h)).is_face), d + 1))
    if len(near) != d:
        return shape
    action = poly.rep.action
    label_of = {action[g]: g for g in labels}

    def corner(x, y):
        return label_of.get(_vertex_sum(action[anchor], action[x], action[y]))

    xs = [near[0]] + [y for y in near[1:] if corner(near[0], y) is None]
    ys = [y for y in near if y not in xs]
    if len(xs) > len(ys):
        xs, ys = ys, xs
    if len(xs) * len(ys) != v - d - 1:
        return shape
    grid = ((anchor, *ys),) + tuple((x, *(corner(x, y) for y in ys))
                                    for x in xs)
    flat = [g for row in grid for g in row]
    if None in flat or len(set(flat)) != v:
        return shape
    return ShapeDescriptor("product", (len(xs), len(ys)), v, d, grid)
