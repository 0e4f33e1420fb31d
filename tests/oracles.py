"""Independent brute-force oracles used by the test suite only."""

import itertools

import sympy


def brute_force_faces(poly):
    """All nonempty vertex sets of faces, as frozensets of labels.

    Every supporting hyperplane spanned by vertices is enumerated
    directly (sympy nullspace, no LP); equality sets of supporting
    hyperplanes are exposed faces, and intersecting them closes the
    family into the full face lattice.  Feasible for tiny polytopes.
    """
    n = poly.vertex_count
    d = poly.dim
    pts = [list(c) for c in poly.coords]
    full = frozenset(range(n))
    if d == 0:
        return {full}
    supports = set()
    for idxs in itertools.combinations(range(n), d):
        rows = [pts[i] + [-1] for i in idxs]
        null = sympy.Matrix(rows).nullspace()
        if len(null) != 1:
            continue  # the d points do not span a unique hyperplane
        vec = null[0]
        vals = [sum(vec[k] * pts[v][k] for k in range(d)) - vec[d]
                for v in range(n)]
        if all(x <= 0 for x in vals) or all(x >= 0 for x in vals):
            supports.add(frozenset(v for v in range(n) if vals[v] == 0))
    faces = set(supports)
    faces.add(full)
    while True:
        fresh = {x & y for x in faces for y in faces} - faces
        fresh.discard(frozenset())
        if not fresh:
            return faces
        faces |= fresh


def indecomposable(rep, g):
    """Guralnick and Perkinson's edge criterion by brute force: M_e and
    M_g span an edge iff no product of a nonempty proper subset of the
    cycles of g's permutation is the image of a group element."""
    images = {p.images for p in rep.action}
    cycles = rep.action[g].cycles()
    for size in range(1, len(cycles)):
        for chosen in itertools.combinations(cycles, size):
            h = list(range(rep.degree))
            for cyc in chosen:
                for p, q in zip(cyc, cyc[1:] + cyc[:1]):
                    h[p - 1] = q - 1
            if tuple(h) in images:
                return False
    return True


def first_independent(vectors):
    """Indices of the greedy first maximal linearly independent subset:
    keep each vector that raises the rank of those kept (rank by sympy)."""
    chosen = []
    for i, v in enumerate(vectors):
        rows = [list(vectors[k]) for k in chosen] + [list(v)]
        if sympy.Matrix(rows).rank() == len(rows):
            chosen.append(i)
    return chosen
