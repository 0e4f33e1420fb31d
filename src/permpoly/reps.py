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
"""

from __future__ import annotations

from fractions import Fraction

from .groups import (FiniteGroup, GroupMap, Permutation, SizeCapError,
                     isomorphisms_iter)
from .linalg import (F0, express_in_rowspace, kernel_sparse, rref,
                     rref_with_transform)


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
    """A faithful permutation representation of an element-complete group."""

    def __init__(self, group: FiniteGroup, action, check=True):
        self.group = group
        self.action = tuple(action)
        if len(self.action) != group.order:
            raise ValueError("need one permutation per group element")
        self.degree = self.action[0].degree
        if any(p.degree != self.degree for p in self.action):
            raise ValueError("action images have mixed degrees")
        entries = group.order * self.degree ** 2
        if entries > MAX_VERTEX_ENTRIES:
            raise SizeCapError(
                "%d vertices of degree %d need %d entries, over the cap of "
                "%d vertex entries"
                % (group.order, self.degree, entries, MAX_VERTEX_ENTRIES))
        if check:
            self._validate()
        n = self.degree
        verts = []
        for p in self.action:
            flat = [0] * (n * n)
            for j, i in enumerate(p.images):
                flat[i * n + j] = 1
            verts.append(tuple(flat))
        self.vertices = verts
        self._kernel = None
        self._diff = None

    def _validate(self):
        """The action must respect every generator edge,
        act[a*s] = act[a]*act[s], which makes it a homomorphism, and
        must be faithful."""
        group = self.group
        act = self.action
        for s, col in zip(group.gens, group.gen_columns):
            ps = act[s].images
            for a, y in enumerate(col):
                if act[y].images != tuple(map(act[a].images.__getitem__, ps)):
                    raise ValueError(
                        "images are inconsistent at element %d times "
                        "generator %d" % (a, s))
        ident = Permutation.identity(self.degree)
        kernel = tuple(g for g in range(group.order) if act[g] == ident)
        if len(kernel) != 1:
            raise NotFaithfulError(kernel)

    @classmethod
    def natural(cls, group: FiniteGroup) -> "PermRep":
        """The group acting through its own permutations."""
        return cls(group, group.elements, check=False)

    @classmethod
    def from_generator_images(cls, group: FiniteGroup, images) -> "PermRep":
        """Extend generator images along the group's spanning tree; the
        constructor then checks consistency on the generator edges."""
        images = list(images)
        if len(images) != len(group.gens):
            raise ValueError("need one image per generator")
        act = [None] * group.order
        act[0] = Permutation.identity(images[0].degree)
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
        """Direct sum of coset actions, acting on the disjoint union of points."""
        total = sum(a.degree for a in actions)
        combined = []
        for g in range(group.order):
            imgs = []
            offset = 0
            for a in actions:
                imgs.extend(v + offset for v in a.images[g].images)
                offset += a.degree
            combined.append(Permutation(imgs))
        return cls(group, combined)

    def orbit_count(self) -> int:
        seen = [False] * self.degree
        count = 0
        for start in range(self.degree):
            if seen[start]:
                continue
            count += 1
            frontier = [start]
            seen[start] = True
            while frontier:
                nxt = []
                for p in frontier:
                    for g in self.group.gens:
                        q = self.action[g].images[p]
                        if not seen[q]:
                            seen[q] = True
                            nxt.append(q)
                frontier = nxt
        return count

    def epsilon(self):
        """Sum of all vertex matrices (a strictly positive lattice vector)."""
        n2 = self.degree * self.degree
        out = [0] * n2
        for v in self.vertices:
            for k in range(n2):
                out[k] += v[k]
        return tuple(out)

    def __repr__(self):
        return "<PermRep: order %d on %d points>" % (self.group.order, self.degree)


class AffineKernel:
    """Canonical basis of the affine kernel of a representation.

    basis rows are in reduced echelon form over Q^|G| (one vector per
    free column of the constraint system); sparse_int holds the same
    vectors scaled to integers for fast membership tests.
    """

    def __init__(self, dim, basis, sparse_int, rank):
        self.dim = dim
        self.basis = basis
        self.sparse_int = sparse_int
        self.rank = rank

    def __eq__(self, other):
        if not isinstance(other, AffineKernel):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self):
        return hash(tuple(self.basis))


def _constraint_rows(rep: PermRep):
    """The (degree^2 + 1) x |G| stacked system: all-ones row, then one
    row per matrix entry."""
    n = rep.degree
    order = rep.group.order
    rows = [[1] * order]
    for k in range(n * n):
        rows.append([v[k] for v in rep.vertices])
    return rows

def affine_kernel(rep: PermRep) -> AffineKernel:
    if rep._kernel is not None:
        return rep._kernel
    rows = _constraint_rows(rep)
    rank, sparse = kernel_sparse(rows)
    order = rep.group.order
    dense = []
    sparse_int = []
    for entries in sparse:
        vec = [F0] * order
        denom = 1
        for i, c in entries:
            vec[i] = c
            denom = denom * c.denominator // _gcd(denom, c.denominator)
        dense.append(tuple(vec))
        sparse_int.append([(i, int(c * denom)) for i, c in entries])
    kernel = AffineKernel(len(sparse), dense, sparse_int, rank)
    rep._kernel = kernel
    return kernel


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _lambda_annihilates(rep: PermRep, lam, phi: GroupMap | None = None) -> bool:
    """Does sum over (g, c) in lam of c * M_rep(phi(g)) vanish?

    lam is a sparse integer vector over the source group; phi defaults
    to the identity correspondence.  Column j of the sum holds c at row
    images[j] for each term, so the columns are summed one at a time
    and the first nonzero one rejects; the answer is True only when
    every entry of every column vanishes.
    """
    action = rep.action
    f = phi.images if phi is not None else range(len(action))
    terms = [(action[f[g]].images, c) for g, c in lam]
    n = rep.degree
    for j in range(n):
        col = [0] * n
        for images, c in terms:
            col[images[j]] += c
        if any(col):
            return False
    return True


class DifferenceSpace:
    """Reduced-echelon basis of span{M_g - M_e}, with pivot bookkeeping."""

    def __init__(self, basis, pivots):
        self.basis = basis
        self.pivots = pivots
        self.dim = len(basis)


def difference_space(rep: PermRep) -> DifferenceSpace:
    if rep._diff is not None:
        return rep._diff
    base = rep.vertices[0]
    rows = []
    for v in rep.vertices[1:]:
        rows.append([a - b for a, b in zip(v, base)])
    reduced, pivots = rref(rows)
    space = DifferenceSpace([tuple(r) for r in reduced], list(pivots))
    rep._diff = space
    return space


def u_action_trace(rep: PermRep, g: int) -> Fraction:
    """Trace of left multiplication by element g on span{M_h - M_e}.

    Left multiplication by a permutation matrix permutes rows, so the
    image of a basis vector is a reindexing; with a reduced-echelon
    basis the trace is a sum of single coordinates.
    """
    space = difference_space(rep)
    n = rep.degree
    ginv = rep.action[rep.group.inverse[g]].images
    total = F0
    for vec, p in zip(space.basis, space.pivots):
        i, j = divmod(p, n)
        total += vec[ginv[i] * n + j]
    return total


def compose_with_map(rep: PermRep, phi: GroupMap) -> PermRep:
    """The representation g -> rep(phi(g)) of phi's source group."""
    if phi.target is not rep.group:
        raise ValueError("map target does not match the representation's group")
    action = [rep.action[phi.images[g]] for g in range(phi.source.order)]
    return PermRep(phi.source, action, check=not phi.is_bijective())


def _same_group(repA: PermRep, repB: PermRep) -> bool:
    return repA.group is repB.group or (
        repA.group.degree == repB.group.degree
        and repA.group.elements == repB.group.elements)


def stably_equivalent_by_kernel(repA: PermRep, repB: PermRep) -> bool:
    """Equality of affine kernels (representations of one group)."""
    if not _same_group(repA, repB):
        raise ValueError("stable equivalence needs representations of one group")
    kA = affine_kernel(repA)
    kB = affine_kernel(repB)
    if kA.dim != kB.dim:
        return False
    return all(_lambda_annihilates(repB, lam) for lam in kA.sparse_int)


def effectively_equivalent(repA: PermRep, repB: PermRep,
                           node_cap=10_000_000) -> GroupMap | None:
    """First isomorphism phi with rep_A stably equivalent to rep_B o phi.

    Isomorphisms are enumerated in the canonical backtracking order, so
    the returned witness is deterministic; None when no isomorphism
    works (or the groups are not isomorphic).
    """
    kA = affine_kernel(repA)
    kB = affine_kernel(repB)
    if kA.dim != kB.dim:
        return None
    for phi in isomorphisms_iter(repA.group, repB.group, node_cap=node_cap):
        if all(_lambda_annihilates(repB, lam, phi) for lam in kA.sparse_int):
            return phi
    return None


class EquivariantMap:
    """A linear map between spans of vertex matrices, equivariant for phi.

    The map is determined by M_g -> M_(phi g); because every point of
    the affine hull has matrix row sums 1, the hull misses the origin
    and the affine vertex correspondence lifts to this unique linear
    map.  As an affine map on ambient coordinates the translation part
    is zero.
    """

    def __init__(self, source: PermRep, target: PermRep, phi: GroupMap,
                 basis_elements, reduced, pivots, transform):
        self.source = source
        self.target = target
        self.phi = phi
        self.basis_elements = basis_elements
        self._reduced = reduced
        self._pivots = pivots
        self._transform = transform
        self.translation = tuple([F0] * (target.degree * target.degree))

    @property
    def vertex_map(self):
        return self.phi.images

    def apply(self, vec):
        """Image of a vector of span{M_g}; raises if vec is outside."""
        coeffs = express_in_rowspace(self._reduced, self._pivots, vec)
        if coeffs is None:
            raise ValueError("vector is outside the source span")
        in_chosen = [F0] * len(self.basis_elements)
        for c, trow in zip(coeffs, self._transform):
            if c:
                for k in range(len(in_chosen)):
                    if trow[k]:
                        in_chosen[k] += c * trow[k]
        n2 = self.target.degree * self.target.degree
        out = [F0] * n2
        for c, g in zip(in_chosen, self.basis_elements):
            if c:
                v = self.target.vertices[self.phi.images[g]]
                for k in range(n2):
                    if v[k]:
                        out[k] += c
        return tuple(out)


def build_equivariant_map(repA: PermRep, repB: PermRep, phi: GroupMap) -> EquivariantMap:
    """Construct the linear map M_g -> M_(phi g), verifying it is well
    defined (equal affine kernels) and equivariant on basis vectors.

    Raises NotStablyEquivalentError with a witness coefficient vector
    when the kernels differ.
    """
    if phi.source is not repA.group or phi.target is not repB.group:
        raise ValueError("phi must map the source group to the target group")
    if not phi.is_bijective():
        raise ValueError("phi must be an isomorphism")
    kA = affine_kernel(repA)
    for lam, dense in zip(kA.sparse_int, kA.basis):
        if not _lambda_annihilates(repB, lam, phi):
            raise NotStablyEquivalentError(dense)
    kB = affine_kernel(repB)
    if kA.dim != kB.dim:
        # the reverse inclusion fails: find a kernel vector of rep_B o phi
        # that rep_A does not annihilate
        composed = compose_with_map(repB, phi)
        for lam, dense in zip(affine_kernel(composed).sparse_int,
                              affine_kernel(composed).basis):
            if not _lambda_annihilates(repA, lam):
                raise NotStablyEquivalentError(
                    dense, "kernel of the composed representation is larger")
        raise NotStablyEquivalentError((), "kernel dimensions differ")

    # the pivot columns of the matrix whose columns are the vertices are
    # the greedy first maximal independent set of vertex matrices
    _, chosen = rref(list(zip(*repA.vertices)))
    basis_rows = [repA.vertices[g] for g in chosen]
    reduced, pivs, transform = rref_with_transform(basis_rows)
    emap = EquivariantMap(repA, repB, phi, chosen, reduced, pivs, transform)

    # vertex consistency: the map must send every vertex to its phi-image
    for g in range(repA.group.order):
        if emap.apply(repA.vertices[g]) != tuple(
                Fraction(x) for x in repB.vertices[phi.images[g]]):
            raise RuntimeError("vertex image mismatch despite equal kernels")
    # equivariance on basis vectors, map(h . u) == phi(h) . map(u), for
    # generators h: the span is closed under left multiplication, so
    # equivariance for generators gives it for every product of them
    nB = repB.degree
    tableA = repA.group.table
    for h in repA.group.gens:
        act_h = repB.action[phi.images[h]]
        hinv = act_h.inverse().images
        for g in chosen:
            lhs = emap.apply(repA.vertices[tableA[h][g]])
            img = emap.apply(repA.vertices[g])
            rhs = tuple(img[hinv[i] * nB + j]
                        for i in range(nB) for j in range(nB))
            if lhs != rhs:
                raise RuntimeError("equivariance check failed")
    return emap
