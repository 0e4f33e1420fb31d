"""Exact checks of permpoly's answers, run outside the timed region.

Each check returns a list of problems; an empty list means the answer
verified.  The checks use only the data the library hands back (vertex
vectors, group tables, certificates) and their own arithmetic, so a
wrong answer cannot verify itself through the code that produced it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# beyond this many cycles of a^-1 b the indecomposability oracle is
# skipped (2^cycles subsets); the corpus representations stay below it
ORACLE_MAX_CYCLES = 12


def face_certificate(vertices, labels, result):
    """A face must come with a functional a, beta: a.v = beta on the
    subset and a.v < beta off it.  A non-face must come with a convex
    combination equal to the subset barycenter that puts positive weight
    outside the subset."""
    inside = set(labels)
    n = len(vertices[0])
    if result.is_face:
        if result.functional is None:
            return ["face without a functional"]
        a, beta = result.functional
        if len(a) != n:
            return ["functional has %d coordinates, vertices have %d"
                    % (len(a), n)]
        for g, v in enumerate(vertices):
            s = sum(Fraction(x) * y for x, y in zip(a, v) if x and y)
            if g in inside and s != beta:
                return ["functional is not tight at vertex %d" % g]
            if g not in inside and not s < beta:
                return ["functional does not separate vertex %d" % g]
        return []
    weights = result.counterexample
    if not weights:
        return ["non-face without a convex combination"]
    if any(not 0 <= g < len(vertices) for g, _ in weights):
        return ["counterexample names a vertex that does not exist"]
    if any(w <= 0 for _, w in weights) or sum(w for _, w in weights) != 1:
        return ["counterexample weights are not a convex combination"]
    if sum(w for g, w in weights if g not in inside) <= 0:
        return ["counterexample puts no weight outside the subset"]
    combo = [Fraction(0)] * n
    for g, w in weights:
        for k, x in enumerate(vertices[g]):
            if x:
                combo[k] += w * x
    m = len(inside)
    bary = [Fraction(sum(vertices[g][k] for g in inside), m) for k in range(n)]
    if combo != bary:
        return ["counterexample does not reach the subset barycenter"]
    return []


def _cycles(images):
    seen = [False] * len(images)
    out = []
    for i, j in enumerate(images):
        if seen[i] or j == i:
            continue
        cyc = []
        k = i
        while not seen[k]:
            seen[k] = True
            cyc.append(k)
            k = images[k]
        out.append(cyc)
    return out


def indecomposable(action_images, g_images):
    """Guralnick-Perkinson: M_a, M_b span an edge iff g = a^-1 b is
    indecomposable, i.e. no product of a nonempty proper subset of g's
    cycles lies in the group.  action_images is the set of all image
    tuples of the group; returns None past ORACLE_MAX_CYCLES."""
    cycles = _cycles(g_images)
    if len(cycles) > ORACLE_MAX_CYCLES:
        return None
    n = len(g_images)
    for size in range(1, len(cycles)):
        for subset in combinations(cycles, size):
            h = list(range(n))
            for cyc in subset:
                for p in cyc:
                    h[p] = g_images[p]
            if tuple(h) in action_images:
                return False
    return True


def pair_is_edge(rep, labels):
    """The oracle's verdict on a vertex pair (None when skipped)."""
    a, b = labels
    group = rep.group
    g = group.table[group.inverse[a]][b]
    return indecomposable({p.images for p in rep.action},
                          rep.action[g].images)


def integer_rank(rows):
    """Exact rank of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [x * p[c] - f * y for x, y in zip(m[i], p)]
        rank += 1
    return rank


def face_dim(vertices, labels):
    base = vertices[labels[0]]
    return integer_rank([[x - y for x, y in zip(vertices[h], base)]
                         for h in labels[1:]])


def is_isomorphism(src, dst, images):
    """A bijective homomorphism, checked on generators: f(x s) = f(x) f(s)
    for every element x and every generator s of the source."""
    if len(images) != src.order or sorted(images) != list(range(dst.order)):
        return False
    t1, t2 = src.table, dst.table
    return all(images[t1[x][s]] == t2[images[x]][images[s]]
               for x in range(src.order) for s in src.gens)


def annihilates(rep, sparse_vectors, phi_images=None):
    """Does every integer vector lam kill sum(lam_g M_rep(phi g))?"""
    n = rep.degree
    for lam in sparse_vectors:
        acc = {}
        for g, c in lam:
            h = phi_images[g] if phi_images is not None else g
            for j, i in enumerate(rep.action[h].images):
                acc[i * n + j] = acc.get(i * n + j, 0) + c
        if any(acc.values()):
            return False
    return True


class CharacterIndex:
    """The rows of a character table keyed by their values on a few
    classes that already tell the rows apart, so that the character a
    class permutation produces can be looked up quickly."""

    def __init__(self, table):
        self.table = table
        self.keys = [tuple(v.key() for v in row) for row in table.values]
        self.classes = []
        while len({self._restrict(k) for k in self.keys}) < len(self.keys):
            self.classes.append(max(
                (j for j in range(len(table.reps)) if j not in self.classes),
                key=lambda j: len({self._restrict(k) + (k[j],) for k in self.keys})))
        self.index = {self._restrict(k): i for i, k in enumerate(self.keys)}

    def _restrict(self, key):
        return tuple(key[j] for j in self.classes)


def pulled_constituents(cons_b, index_a, index_b, phi_images):
    """Nontrivial constituents of rep_B o phi, as indices of A's table:
    chi o phi for every constituent chi of rep_B.  phi must be an
    isomorphism, so that chi o phi is an irreducible of A's group."""
    class_of_b = index_b.table.class_of
    reps_a = index_a.table.reps
    cmap = [class_of_b[phi_images[reps_a[j]]] for j in index_a.classes]
    return {index_a.index.get(tuple(index_b.keys[i][c] for c in cmap))
            for i in cons_b}


# ---------------------------------------------------------------------------
# per-query checks, shared by the worker and the negative tests


def check_pair(rep, labels, result):
    problems = face_certificate(rep.vertices, labels, result)
    verdict = pair_is_edge(rep, labels)
    if verdict is not None and verdict != result.is_face:
        problems.append("pair verdict disagrees with the indecomposability "
                        "oracle")
    return problems


def check_subgroup(rep, labels, result, dim):
    problems = face_certificate(rep.vertices, labels, result)
    if result.is_face and dim != face_dim(rep.vertices, labels):
        problems.append("face dimension %s is wrong" % dim)
    return problems


def check_stable(answer, order):
    """answer: kernel and characters verdicts, kernel_dims and dims of
    the two polytopes, and the optional pinned expectation."""
    problems = []
    if answer["kernel"] != answer["characters"]:
        problems.append("kernel route and character route disagree")
    for kd, d in zip(answer["kernel_dims"], answer["dims"]):
        if kd != order - 1 - d:
            problems.append("kernel dim %d and polytope dim %d do not add "
                            "up to |G| - 1" % (kd, d))
    for key, want in answer.get("expect", {}).items():
        got = answer[key] if key != "stable" else answer["kernel"]
        if got != want:
            problems.append("%s is %r, pinned %r" % (key, got, want))
    return problems


def check_witness(rep_a, rep_b, kernel_a, kernel_b, phi_images,
                  cons_a, cons_b, index_a, index_b):
    """An effective-equivalence witness must be an isomorphism that makes
    the representations stably equivalent by both routes."""
    if not is_isomorphism(rep_a.group, rep_b.group, phi_images):
        return ["witness is not an isomorphism"]
    problems = []
    if kernel_a.dim != kernel_b.dim or not annihilates(
            rep_b, kernel_a.sparse_int, phi_images):
        problems.append("witness fails the kernel route")
    if pulled_constituents(cons_b, index_a, index_b, phi_images) != set(cons_a):
        problems.append("witness fails the character route")
    return problems


def check_no_witness(isomorphisms, cons_a, cons_b, index_a, index_b):
    """A None answer with equal kernel dimensions: no isomorphism may
    carry rep_B's constituents onto rep_A's."""
    for k, phi in enumerate(isomorphisms):
        if pulled_constituents(cons_b, index_a, index_b,
                               phi.images) == set(cons_a):
            return ["isomorphism %d is a witness by characters" % k]
    return []
