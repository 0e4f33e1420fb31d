"""Independent brute-force oracles used by the test suite only."""

import copy
import itertools
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm

import sympy
from sympy.matrices.normalforms import smith_normal_form

from permpoly.characters import (RealIrreducible, _SplitFailure,
                                  _central_characters, _lift_primes,
                                  _primitive_root, permutation_character,
                                  predicted_dimension)
from permpoly.cyclotomic import cyclo, cyclo_rational
from permpoly.groups import (CycleParseError, FiniteGroup, GroupMap,
                             Permutation, Subgroup, _close_capped,
                             _element_indices, _respects_generators,
                             isomorphisms_iter)
from permpoly.intlinalg import (_hermite_left_block, hermite_form,
                                solve_in_lattice)
from permpoly.linalg import F0, F1, _rref_int, kernel_from_rref
from permpoly.polytopes import (FaceResult, _checked_labels, _is_face_lp,
                                _subset_dim, _vertex_sum, is_face)
from permpoly.reps import (EquivariantMap, PermRep, affine_kernel,
                           cycle_divisor_obstruction, kernel_traces)


def kernel_sparse(rows):
    """Rank of the matrix and a canonical basis of {x : rows @ x = 0}:
    _rref_int, then kernel_from_rref."""
    if not rows:
        return 0, []
    ncols = len(rows[0])
    red, pivots = _rref_int(rows, ncols)
    return len(pivots), kernel_from_rref(red, pivots, ncols)


def u_action_trace(rep: PermRep, g: int) -> Fraction:
    """Trace of left multiplication by element g on span{M_h - M_e},
    read off kernel_traces: sum(chi(1) chi(g)) over the nontrivial
    constituents chi.  ValueError on an index that is not an integer in
    0..|G|-1."""
    (g,) = _element_indices([g], rep.group.order)
    return Fraction(kernel_traces(rep)[g])


def equivariant_apply(emap: EquivariantMap, vec):
    """Image of a vector of span{M_g} under an EquivariantMap; raises
    ValueError if vec is outside.

    One kernel_sparse of the columns M_p | vec, p over the basis
    elements: the M_p are independent, so the kernel is empty when vec
    is outside their span and is otherwise one vector x, positive at
    vec, with vec = -sum(x_p M_p) / x_vec.  Its image is
    -sum(x_p M_(phi p)) / x_vec.
    """
    cols = [emap.source.vertices[g] for g in emap.basis_elements]
    if len(vec) != len(cols[0]):
        raise ValueError("vector is outside the source span: wrong length")
    rows = [[v[k] for v in cols] + [x] for k, x in enumerate(vec)]
    _, kernel = kernel_sparse(rows)
    if not kernel:
        raise ValueError("vector is outside the source span")
    (lam,) = kernel
    scale = lam[-1][1]
    out = [0] * (emap.target.degree * emap.target.degree)
    for i, c in lam[:-1]:
        v = emap.target.vertices[emap.phi.images[emap.basis_elements[i]]]
        for k, x in enumerate(v):
            if x:
                out[k] -= c
    return tuple(Fraction(x, scale) for x in out)


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


def scan_is_face(poly, subset):
    """polytopes.is_face by scanning the vertices: the support closure
    as the list of every vertex whose image in each column is one of
    S's, the complementary vertex of the pair route found by a linear
    search of the closure, and the barycenter route's column counts
    compared as Counters.  Same routes and certificates."""
    labels = _checked_labels(poly, subset)
    action = poly.rep.action
    n = poly.degree
    # the images each column takes on S: the support of the smallest
    # Birkhoff face containing S
    allowed = [set() for _ in range(n)]
    for g in labels:
        for col, i in zip(allowed, action[g]):
            col.add(i)
    closure = [x for x in range(poly.vertex_count)
               if all(i in col for col, i in zip(allowed, action[x]))]

    if len(closure) == len(labels):
        support = {i * n + j for j, col in enumerate(allowed) for i in col}
        a = tuple(F1 if k in support else F0 for k in range(n * n))
        return FaceResult(True, functional=(a, Fraction(n)), route="support")

    if len(labels) == 2:
        x = next(g for g in closure if g not in labels)
        # x follows a or b in each column: y is the complementary product
        img_y = _vertex_sum(action[x], *(action[g] for g in labels))
        y = next((g for g in closure if action[g] == img_y), None)
        if y is None:
            raise RuntimeError("vertex pair %r: M_a + M_b - M_%d is not a "
                               "vertex" % (tuple(labels), x))
        half = Fraction(1, 2)
        return FaceResult(False, counterexample=tuple(sorted(
            ((x, half), (y, half)))), route="pair")

    def column_counts(members):
        return Counter((j, i) for g in members
                       for j, i in enumerate(action[g]))

    m, f = len(labels), len(closure)
    in_s = column_counts(labels)
    if all(in_s[k] * f == c * m for k, c in column_counts(closure).items()):
        w = Fraction(1, f)
        return FaceResult(False, counterexample=tuple((g, w) for g in closure),
                          route="barycenter")

    return _is_face_lp(poly, labels)


def brute_force_orbit_count(perms, degree):
    """Orbits on range(degree) of a permutation group given by all of its
    elements: the orbit of a point is its set of images."""
    return len({frozenset(p.images[i] for p in perms)
                for i in range(degree)})


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


def fraction_rref(rows, ncols=None):
    """Reference Gauss-Jordan in Fraction arithmetic: pivots only in the
    first ncols columns (default all), the first nonzero entry at or
    below the current row as pivot, each pivot row divided by its pivot
    before it clears its column.  Returns (nonzero rows, pivots)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    total = len(m[0])
    ncols = total if ncols is None else ncols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        if inv != 1:
            m[r] = [x * inv for x in m[r]]
        row_r = m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                row_i = m[i]
                for j in range(c, total):
                    if row_r[j]:
                        row_i[j] -= f * row_r[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def fraction_kernel(reduced, pivots, ncols):
    """Rank and the kernel basis read off a reduced form: per free column
    f, 1 at f and the negated reduced entries at the pivots, as sorted
    (index, value) pairs."""
    basis = []
    for f in range(ncols):
        if f not in pivots:
            entries = [(f, Fraction(1))] + [(p, -reduced[i][f])
                                            for i, p in enumerate(pivots)
                                            if reduced[i][f]]
            basis.append(sorted(entries))
    return len(pivots), basis


def primitive_integer(entries):
    """The primitive integer vector that is a positive multiple of a
    sparse rational vector: times the lcm of the denominators, then
    divided by the gcd of the results."""
    scale = 1
    for _, c in entries:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [(i, int(c * scale)) for i, c in entries]
    content = 0
    for _, c in ints:
        content = gcd(content, c)
    return [(i, c // content) for i, c in ints]


def integer_rref(rows):
    """(reduced rows, pivots): the library's integer core with each row
    divided by its pivot, which is the reduced echelon form as Fractions
    (the core is checked against fraction_rref in test_linalg)."""
    if not rows:
        return [], []
    m, pivots = _rref_int(rows, len(rows[0]))
    return [[Fraction(x, row[c]) if x else F0 for x in row]
            for row, c in zip(m, pivots)], pivots


def rowspace_coords(reduced, pivots, vec):
    """Coefficients c with c @ reduced == vec, or None if vec is outside.

    reduced is a reduced echelon form (unit pivot columns), so the
    candidate coefficients are vec's entries at the pivots; vec is
    inside exactly when their combination of the rows, summed row by
    row over the nonzero coefficients, equals vec in every entry."""
    coeffs = [Fraction(vec[p]) for p in pivots]
    combination = [F0] * len(vec)
    for c, row in zip(coeffs, reduced):
        if c:
            for j, x in enumerate(row):
                if x:
                    combination[j] += c * x
    return coeffs if combination == list(vec) else None


def bareiss_rref(rows, ncols=None):
    """Integer form of fraction_rref, with its pivot choice: fraction-free
    Gauss-Jordan, each step replacing every other row by (p * row_i -
    a * row_r) / d, with p the new pivot, a = row_i[c] and d the pivot
    before it, a division that is exact (Bareiss, Math. Comp. 1968).
    Returns (nonzero integer rows, pivots); every pivot entry is the
    last pivot, so the rows divided by it are fraction_rref's."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0]) if ncols is None else ncols
    pivots = []
    r = 0
    d = 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        row_r = m[r]
        p = row_r[c]
        for i, row_i in enumerate(m):
            a = row_i[c]
            if i != r and (a or p != d):
                m[i] = [(p * x - a * y) // d for x, y in zip(row_i, row_r)]
        d = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def integer_rowspace_coords(reduced, pivots, vec):
    """Integer form of rowspace_coords, on integer rows that are
    multiples of a reduced echelon form: the coefficients on the rows
    divided by their pivot entries are vec's entries at the pivots, and
    vec is inside exactly when that combination, scaled by the lcm of
    the pivot entries, equals vec so scaled in every entry."""
    scale = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    combination = [0] * len(vec)
    for row, p in zip(reduced, pivots):
        c = vec[p] * (scale // row[p])
        if c:
            for j, x in enumerate(row):
                if x:
                    combination[j] += c * x
    if combination != [scale * x for x in vec]:
        return None
    return [vec[p] for p in pivots]


def mat_vec(rows, vec):
    out = []
    for row in rows:
        s = F0
        for a, b in zip(row, vec):
            if a and b:
                s += a * b
        out.append(s)
    return out


def is_zero_vector(vec) -> bool:
    return all(not x for x in vec)


def first_independent(vectors):
    """Indices of the greedy first maximal linearly independent subset:
    keep each vector that raises the rank of those kept (rank by sympy)."""
    chosen = []
    for i, v in enumerate(vectors):
        rows = [list(vectors[k]) for k in chosen] + [list(v)]
        if sympy.Matrix(rows).rank() == len(rows):
            chosen.append(i)
    return chosen


def all_pairs_table(group):
    """The multiplication table from all |G|^2 permutation products."""
    index = {p.images: i for i, p in enumerate(group.elements)}
    return [[index[(p * q).images] for q in group.elements]
            for p in group.elements]


def is_homomorphism_all_pairs(group, images):
    """Does images[a*b] == images[a] * images[b] hold on all pairs?

    images holds one permutation per element of group; a*b is found
    from the permutation product, not from the group's table."""
    index = {p.images: i for i, p in enumerate(group.elements)}
    for a, pa in enumerate(group.elements):
        for b, pb in enumerate(group.elements):
            if images[index[(pa * pb).images]] != images[a] * images[b]:
                return False
    return True


def brute_force_isomorphisms(g1, g2):
    """Image arrays of all isomorphisms g1 -> g2, by brute force.

    Every tuple of generator images is tried in lexicographic order; the
    map it defines on words (one BFS word per element, built from
    permutation products) is kept when it is bijective and passes the
    all-pairs homomorphism check."""
    ident = g1.elements[0]
    gens = [g1.elements[s] for s in g1.gens]
    words = {ident.images: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for pos, s in enumerate(gens):
                q = p * s
                if q.images not in words:
                    words[q.images] = words[p.images] + (pos,)
                    nxt.append(q)
        frontier = nxt
    order = [words[p.images] for p in g1.elements]
    out = []
    for imgs in itertools.product(range(g2.order), repeat=len(gens)):
        perms = []
        for word in order:
            p = g2.elements[0]
            for pos in word:
                p = p * g2.elements[imgs[pos]]
            perms.append(p)
        if (len(set(perms)) == g2.order
                and is_homomorphism_all_pairs(g1, perms)):
            out.append(tuple(g2.element_index(p) for p in perms))
    return out


def exhaustive_subgroups_of_order(group, k):
    """(subgroups, nodes): every subgroup of order k, sorted by elements.

    Every subgroup of order dividing k is grown one generator at a time,
    one per double coset, with closures aborted past k elements; no use
    is made of conjugacy.  nodes counts the closures tried."""
    n = group.order
    table = group.table
    usable = [g for g in range(1, n) if k % group.orders[g] == 0]
    if k == 1:
        return [Subgroup(group, (0,), ())], 0
    seen = {(0,)}
    found = {}
    queue = [Subgroup(group, (0,), ())]
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
            for h1 in h:
                t1 = table[h1][g]
                for h2 in h:
                    covered[table[t1][h2]] = 1
            nodes += 1
            gens = sub.gens + (g,)
            closure = _close_capped(table, gens, k)
            if closure is None or k % len(closure):
                continue
            key = tuple(sorted(closure))
            if key in seen:
                continue
            seen.add(key)
            cand = Subgroup(group, key, gens)
            if len(key) == k:
                found[key] = cand
            else:
                queue.append(cand)
    return [found[key] for key in sorted(found)], nodes


def exhaustive_isomorphisms(g1, g2):
    """([(nodes, images)] per isomorphism g1 -> g2, total nodes).

    The same backtracking tree over generator images as
    isomorphisms_iter (candidates by element order and class size, one
    order comparison per earlier generator), but every leaf is filled in
    along g1's spanning tree with no order check, proved on every
    generator edge and checked bijective: no automorphism is taken from
    the closure of others."""
    if g1.order != g2.order or sorted(g1.orders) != sorted(g2.orders):
        return [], 0
    gens = g1.gens
    cls1, cls2 = g1.conjugacy_classes(), g2.conjugacy_classes()
    of1, of2 = g1.class_of(), g2.class_of()
    candidates = [[y for y in range(g2.order)
                   if (g2.orders[y], len(cls2[of2[y]]))
                   == (g1.orders[a], len(cls1[of1[a]]))] for a in gens]
    t1, t2 = g1.table, g2.table
    chosen = [0] * len(gens)
    found = []
    nodes = 0

    def descend(depth):
        nonlocal nodes
        if depth == len(gens):
            f = [0] * g1.order
            for y, x, pos in g1.tree:
                f[y] = t2[f[x]][chosen[pos]]
            if (_respects_generators(g1, g2, f)
                    and len(set(f)) == g2.order):
                found.append((nodes, tuple(f)))
            return
        a = gens[depth]
        for y in candidates[depth]:
            nodes += 1
            if all(g1.orders[t1[gens[j]][a]] == g2.orders[t2[chosen[j]][y]]
                   for j in range(depth)):
                chosen[depth] = y
                descend(depth + 1)

    descend(0)
    return found, nodes


def pairwise_class_constants(group):
    """Class constants a[i][j][l] counted over all |G|^2 pairs (x, y) at
    (class of x, class of y, class of xy), each count divided by |C_l|."""
    classes = group.conjugacy_classes()
    cls = group.class_of()
    r = len(classes)
    sizes = [len(c) for c in classes]
    counts = [[[0] * r for _ in range(r)] for _ in range(r)]
    table = group.table
    for x in range(group.order):
        cx = counts[cls[x]]
        row = table[x]
        for y in range(group.order):
            cx[cls[y]][cls[row[y]]] += 1
    for i in range(r):
        for j in range(r):
            for l in range(r):
                q, rem = divmod(counts[i][j][l], sizes[l])
                if rem:
                    raise RuntimeError("class constant is not integral")
                counts[i][j][l] = q
    return counts


def cyclotomic_lift(group, fmod, degrees, reps, m, p):
    """chi_i(g_j) by discrete Fourier inversion mod p, one eigenvalue
    multiplicity at a time, each value summed as a Cyclotomic."""
    r = len(reps)
    w = _primitive_root(p)
    cls = group.class_of()
    values = []
    for i in range(r):
        row = []
        for j in range(r):
            o = group.orders[reps[j]]
            z = pow(w, (p - 1) // o, p)
            f = [fmod[i][cls[group.power_index(reps[j], s)]]
                 for s in range(o)]
            inv_o = pow(o, p - 2, p)
            val = cyclo_rational(m, 0)
            total = 0
            for t in range(o):
                nt = sum(f[s] * pow(z, (-s * t) % (p - 1), p)
                         for s in range(o)) * inv_o % p
                if nt >= p // 2:
                    raise _SplitFailure("eigenvalue multiplicity too large")
                total += nt
                if nt:
                    val = val + nt * cyclo(m, (m // o) * t)
            if total != degrees[i]:
                raise _SplitFailure("multiplicities do not sum to the degree")
            row.append(val)
        values.append(row)
    return values


def cyclotomic_orthogonality(values, sizes, jstar, n, m):
    """Row orthogonality summed in Q(zeta_m); _SplitFailure if it fails."""
    r = len(values)
    for i in range(r):
        for k in range(i, r):
            s = cyclo_rational(m, 0)
            for j in range(r):
                s = s + sizes[j] * (values[i][j] * values[k][jstar[j]])
            if s != (n if i == k else 0):
                raise _SplitFailure("orthogonality failed after lifting")


def cyclotomic_class_matrix_values(group, check=True):
    """Value rows of the class-matrix route for any group, with no class
    cap: pairwise class constants, the same primes and mod-p split as
    the library, then the Cyclotomic lift and, with check, the Cyclotomic
    orthogonality check (r^3 / 2 products, about 2 s at 48 classes)."""
    classes = group.conjugacy_classes()
    r = len(classes)
    n = group.order
    m = group.exponent()
    sizes = [len(c) for c in classes]
    reps = [c[0] for c in classes]
    cls = group.class_of()
    jstar = [cls[group.inverse[rep]] for rep in reps]
    constants = pairwise_class_constants(group)
    for p in _lift_primes(n, m, r):
        try:
            degrees, fmod = _central_characters(constants, sizes, jstar, n, r, p)
            values = cyclotomic_lift(group, fmod, degrees, reps, m, p)
            if check:
                cyclotomic_orthogonality(values, sizes, jstar, n, m)
        except _SplitFailure:
            continue
        return values
    raise RuntimeError("character construction failed")


def per_entry_real_irreducibles(table):
    """Real irreducibles paired, summed and sorted entry by entry, with
    Cyclotomic equality and keys."""
    r = table.count
    used = [False] * r
    items = []
    for i in range(r):
        if used[i]:
            continue
        used[i] = True
        ind = table.indicator(i)
        row = table.values[i]
        if ind == 1:
            items.append(RealIrreducible((i,), row, table.degrees[i], 1))
            continue
        if ind == -1:
            vals = [2 * v for v in row]
            items.append(RealIrreducible((i,), vals, 2 * table.degrees[i], -1))
            continue
        conj_row = tuple(row[table.inverse_class[j]] for j in range(len(row)))
        partner = next((k for k in range(i + 1, r)
                        if not used[k] and table.values[k] == conj_row), None)
        if partner is None:
            raise RuntimeError("complex character is missing its conjugate")
        used[partner] = True
        vals = [a + b for a, b in zip(row, table.values[partner])]
        items.append(RealIrreducible((i, partner), vals,
                                     2 * table.degrees[i], 0))
    trivial = next(k for k, it in enumerate(items) if it.is_trivial)
    first = items.pop(trivial)
    items.sort(key=lambda it: (it.degree, tuple(v.key() for v in it.values)))
    return tuple([first] + items)


def per_entry_coordinate_columns(table):
    """The integer coordinate columns read entry by entry: column
    i * phi(m) + k lists coordinate k of size_j * conj(chi_i(g_j))."""
    columns = []
    for values in table.values:
        coords = []
        for j, size in enumerate(table.sizes):
            value = values[table.inverse_class[j]]
            if any(c.denominator != 1 for c in value.coeffs):
                raise RuntimeError("character value is not an algebraic integer")
            coords.append([size * c.numerator for c in value.coeffs])
        columns.extend(zip(*coords))
    return tuple(columns)


def cyclotomic_constituents(rep, table):
    """(multiplicities, character) by inner products summed in Q(zeta_m):
    |G| <pi, chi> = sum over classes j of size_j * pi_j * chi(g_j^-1),
    with Cyclotomic arithmetic and no integer coordinates."""
    pi = permutation_character(rep, table)
    n = rep.group.order
    m = table.conductor
    mults = []
    for row in table.values:
        s = cyclo_rational(m, 0)
        for j, size in enumerate(table.sizes):
            if pi[j]:
                s = s + (size * pi[j]) * row[table.inverse_class[j]]
        val = s.is_rational()
        if val is None:
            raise RuntimeError("inner product is not rational")
        mult = val / n
        if mult.denominator != 1 or mult < 0:
            raise RuntimeError("multiplicity %s is not a nonnegative integer" % mult)
        mults.append(int(mult))
    return tuple(mults), tuple(pi)


def cyclotomic_indicators(table):
    """Frobenius-Schur indicators by sum over classes j of size_j *
    chi(g_j^2), summed in Q(zeta_m) and divided by |G|."""
    n = table.group.order
    sq = [table.power_class(j, 2) for j in range(len(table.classes))]
    out = []
    for row in table.values:
        total = cyclo_rational(table.conductor, 0)
        for j, size in enumerate(table.sizes):
            total = total + size * row[sq[j]]
        val = total.is_rational()
        if val is None or val.denominator != 1 or int(val) % n:
            raise RuntimeError("indicator sum is not divisible by |G|")
        ind = int(val) // n
        if ind not in (-1, 0, 1):
            raise RuntimeError("indicator outside {-1, 0, 1}")
        out.append(ind)
    return tuple(out)


def with_cyclotomic_indicators(table):
    """A copy of the table whose indicators come from the cyclotomic
    oracle; its real irreducibles are rebuilt from them."""
    copied = copy.copy(table)
    copied._indicators = cyclotomic_indicators(table)
    copied._reals = None
    return copied


def cyclotomic_isotype(rep, table):
    """(dim_expected, dim_actual, real_degrees) of the isotype check on
    the oracle indicators, with the trace identity summed per element
    in Q(zeta_m): the trace of g on span{M_h - M_e} equals the sum of
    schur_fraction * degree * value(g) over the occurring reals."""
    dim_pred, occurring = predicted_dimension(
        rep, with_cyclotomic_indicators(table))
    dim = rep.group.order - 1 - affine_kernel(rep).dim
    if dim != dim_pred:
        raise RuntimeError("span dimension %d differs from predicted %d"
                           % (dim, dim_pred))
    cls = table.class_of
    for g in range(rep.group.order):
        rhs = cyclo_rational(table.conductor, 0)
        for real in occurring:
            rhs = rhs + (real.schur_fraction * real.degree) * real.values[cls[g]]
        val = rhs.is_rational()
        if val is None or val != u_action_trace(rep, g):
            raise RuntimeError("trace identity failed at element %d" % g)
    return dim_pred, dim, tuple(real.degree for real in occurring)


def eager_coset_sum_action(actions):
    """The action of the direct sum of coset actions, concatenated for
    every element at once: each summand's images shifted past the
    points of the summands before it."""
    parts = []
    offset = 0
    for a in actions:
        shift = offset.__add__
        parts.append([tuple(map(shift, p)) for p in a.images])
        offset += a.degree
    return tuple(Permutation(sum(imgs, ())) for imgs in zip(*parts))


def scanning_parse_cycles(text: str, degree: int) -> Permutation:
    """groups.parse_cycles as a character scanner: whitespace skipped by
    str.isspace, digit runs read by hand.

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
            if text[i] not in "0123456789":
                raise CycleParseError("expected integer or ')'", i)
            start = i
            while i < n and text[i] in "0123456789":
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


def cycle_divisor_loop(rep: PermRep):
    """D(g) for each element as a bitmask, read off the nontrivial
    cycles of rep.action one element at a time: bit d is set when d
    divides some cycle length, bit 1 always."""
    out = []
    for p in rep.action:
        mask = 2
        for length in {len(c) for c in p.cycles()}:
            for d in range(2, length + 1):
                if length % d == 0:
                    mask |= 1 << d
        out.append(mask)
    return tuple(out)


def dict_lambda_annihilates(rep: PermRep, lam, phi: GroupMap | None = None) -> bool:
    """Does sum over (g, c) in lam of c * M_rep(phi(g)) vanish?

    lam is a sparse integer vector over the source group; phi defaults
    to the identity correspondence.  Every matrix entry is accumulated
    in a dict before any is compared.
    """
    n = rep.degree
    acc = {}
    for g, c in lam:
        h = phi.images[g] if phi is not None else g
        imgs = rep.action[h].images
        for j in range(n):
            key = imgs[j] * n + j
            acc[key] = acc.get(key, 0) + c
    return all(v == 0 for v in acc.values())


def constraint_rows(rep: PermRep):
    """The (degree^2 + 1) x |G| stacked system: all-ones row, then one
    row per matrix entry."""
    n = rep.degree
    order = rep.group.order
    rows = [[1] * order]
    for k in range(n * n):
        rows.append([v[k] for v in rep.vertices])
    return rows


def dense_affine_kernel(rep: PermRep):
    """(dim, rank, basis, sparse_int) of the affine kernel, eliminated on
    every row of constraint_rows, zero and repeated rows included."""
    rows = constraint_rows(rep)
    rank, sparse_int = kernel_sparse(rows)
    order = rep.group.order
    dense = []
    for entries in sparse_int:
        vec = [F0] * order
        for i, c in entries:
            vec[i] = Fraction(c, entries[-1][1])
        dense.append(tuple(vec))
    return len(sparse_int), rank, dense, sparse_int


def dense_difference_space(rep: PermRep):
    """(basis, pivots) of span{M_g - M_e}, eliminated on the |G| - 1
    dense degree^2-long rows M_g - M_e."""
    base = rep.vertices[0]
    rows = []
    for v in rep.vertices[1:]:
        rows.append([a - b for a, b in zip(v, base)])
    reduced, pivots = integer_rref(rows)
    return [tuple(r) for r in reduced], pivots


def integer_difference_space(rep: PermRep):
    """(integer rows, pivots) of span{M_g - M_e}, the rows of
    dense_difference_space before they are divided by their pivots."""
    base = rep.vertices[0]
    rows = [[a - b for a, b in zip(v, base)] for v in rep.vertices[1:]]
    if not rows:
        return [], []
    return _rref_int(rows, len(rows[0]))


def pivot_walk_trace(rep: PermRep, g: int) -> Fraction:
    """Trace of left multiplication by g on span{M_h - M_e}, walked over
    the affine kernel's pivots p in Fractions: a pivot gp contributes
    [gp = p], a free gp minus the coefficient of p in its kernel vector
    scaled to 1 at gp; minus one for the quotient by Q M_e."""
    kernel = affine_kernel(rep)
    pivots = kernel.pivots
    row = rep.group.table[g]
    total = Fraction(-1)
    for p in pivots:
        gp = row[p]
        k = bisect_left(pivots, gp)
        if k < len(pivots) and pivots[k] == gp:
            total += gp == p
        else:
            # k pivots lie below gp, so its vector is the (gp - k)-th
            lam = kernel.sparse_int[gp - k]
            for i, c in lam:
                if i == p:
                    total -= Fraction(c, lam[-1][1])
                    break
    return total


def annihilation_stably_equivalent(repA: PermRep, repB: PermRep) -> bool:
    """Stable equivalence by the kernel test: equal kernel dimensions,
    and rep_B annihilates every kernel vector of rep_A, so rep_A's
    kernel lies in rep_B's and the two are equal."""
    kA = affine_kernel(repA)
    kB = affine_kernel(repB)
    if kA.dim != kB.dim:
        return False
    return all(dict_lambda_annihilates(repB, lam) for lam in kA.sparse_int)


def divisor_filter_effectively_equivalent(repA: PermRep, repB: PermRep):
    """(first witness or None, kernel tests run): the isomorphisms in the
    canonical order, each with the same cycle divisors D_B(phi(g)) =
    D_A(g) on every element tested on the kernel, after the
    cycle-divisor obstruction and the kernel dimensions."""
    if cycle_divisor_obstruction(repA, repB) is not None:
        return None, 0
    kA = affine_kernel(repA)
    kB = affine_kernel(repB)
    if kA.dim != kB.dim:
        return None, 0
    dA = repA.cycle_divisors()
    dB = repB.cycle_divisors()
    tests = 0
    for phi in isomorphisms_iter(repA.group, repB.group):
        if tuple(map(dB.__getitem__, phi.images)) != dA:
            continue
        tests += 1
        if all(dict_lambda_annihilates(repB, lam, phi)
               for lam in kA.sparse_int):
            return phi, tests
    return None, tests


def relabelled(group, seed):
    """The same abstract group on points permuted by a seeded shuffle."""
    sigma = list(range(group.degree))
    random.Random(seed).shuffle(sigma)
    inv = Permutation(sigma).inverse()
    gens = [Permutation(sigma) * group.elements[s] * inv for s in group.gens]
    return FiniteGroup.generate(gens, degree=group.degree)


def exhaustive_effectively_equivalent(repA: PermRep, repB: PermRep):
    """First isomorphism phi with rep_A stably equivalent to rep_B o phi,
    found by testing every isomorphism's kernel in the canonical order,
    with no cycle-divisor invariant; None when none works."""
    kA = affine_kernel(repA)
    kB = affine_kernel(repB)
    if kA.dim != kB.dim:
        return None
    for phi in isomorphisms_iter(repA.group, repB.group):
        if all(dict_lambda_annihilates(repB, lam, phi)
               for lam in kA.sparse_int):
            return phi
    return None


def integer_kernel(rows):
    """Basis of {x in Z^ncols : rows @ x = 0}; the kernel lattice is saturated.

    Found by row-reducing [rows^T | I]: rows whose left block vanishes
    carry kernel vectors in their right block.
    """
    m = [[int(x) for x in row] for row in rows]
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    aug = [[m[i][j] for i in range(nrows)] + [1 if k == j else 0 for k in range(ncols)]
           for j in range(ncols)]
    reduced = _hermite_left_block(aug, nrows)
    out = []
    for row in reduced:
        if any(row[:nrows]):
            continue
        vec = row[nrows:]
        if any(vec):
            out.append(vec)
    return hermite_form(out)


def double_kernel_saturation(rows):
    """Basis of span_Q(rows) intersected with Z^ncols, as the integer
    kernel of the integer kernel over all ambient columns."""
    m = [[int(x) for x in row] for row in rows]
    if not m or not any(any(row) for row in m):
        return []
    ncols = len(m[0])
    k = integer_kernel(m)
    if not k:
        return [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    return integer_kernel(k)


def dense_lattice_structure(poly):
    """(vertex_lattice, saturation_lattice, index, normalized_volume,
    dim) by the double-kernel saturation of all |G| - 1 vertex
    differences, with the same certificates as lattice_structure."""
    base = poly.vertices[0]
    diffs = [[a - b for a, b in zip(v, base)] for v in poly.vertices[1:]]
    if not diffs:
        return [], [], 1, 1, 0
    vlat = hermite_form(diffs)
    sat = double_kernel_saturation(diffs)
    coords = [solve_in_lattice(sat, row) for row in vlat]
    assert all(c is not None for c in coords)
    index = abs(int(sympy.Matrix(coords).det()))
    vol = None
    if poly.vertex_count == poly.dim + 1:
        simplex = [solve_in_lattice(sat, row) for row in diffs]
        vol = abs(int(sympy.Matrix(simplex).det()))
    return vlat, sat, index, vol, poly.dim


def dense_point_membership(poly):
    """A function of a point giving point_membership's four answers, the
    affine hull decided in the dense Fraction basis of span{M_g - M_e}
    and the lattices taken from dense_lattice_structure."""
    base = poly.vertices[0]
    basis, pivots = dense_difference_space(poly.rep)
    vlat, sat = dense_lattice_structure(poly)[:2]

    def membership(point):
        pt = [Fraction(v) for v in point]
        diff = [v - b for v, b in zip(pt, base)]
        in_aff = rowspace_coords(basis, pivots, diff) is not None
        integral = all(v.denominator == 1 for v in pt)
        in_sat = in_vert = False
        if integral:
            idiff = [int(v) for v in diff]
            in_sat = solve_in_lattice(sat, idiff) is not None
            in_vert = solve_in_lattice(vlat, idiff) is not None
        return in_aff, integral, in_sat, in_vert

    return membership


def relation_lattice_invariant_factors(group):
    """Invariant factors of an abelian group as the Smith form of the
    relation lattice of its generators (sympy): a breadth-first walk
    labels each element by a word vector, and every edge that reaches
    an element already labelled gives a relation."""
    gens = group.gens
    k = len(gens)
    labels = [None] * group.order
    labels[0] = (0,) * k
    relations = set()
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for idx, a in enumerate(gens):
                y = group.table[x][a]
                vy = tuple(c + (t == idx) for t, c in enumerate(labels[x]))
                if labels[y] is None:
                    labels[y] = vy
                    nxt.append(y)
                elif vy != labels[y]:
                    relations.add(tuple(p - q for p, q in zip(vy, labels[y])))
        frontier = nxt
    if not k:
        return ()
    snf = smith_normal_form(sympy.Matrix(sorted(relations)))
    divisors = [abs(int(snf[i, i])) for i in range(k)]
    assert all(divisors), "relation lattice does not have full rank"
    return tuple(d for d in divisors if d != 1)


def regularity_shape(poly, subset=None):
    """The shape string of the regularity heuristic that the labelling
    replaced: product(a, b) when (a+1)(b+1) = v and a + b = d have a
    root pair and the edge graph is (a+b)-regular, by the degree at the
    identity for a subgroup vertex set and at every vertex otherwise."""
    if subset is None:
        labels = list(range(poly.vertex_count))
    else:
        labels = _checked_labels(poly, subset)
    v = len(labels)
    d = _subset_dim(poly, labels) if subset is not None else poly.dim
    if v == d + 1:
        return "simplex(%d)" % d
    disc = d * d - 4 * (v - d - 1)
    if disc < 0 or isqrt(disc) ** 2 != disc:
        return "unclassified"
    root = isqrt(disc)
    if (d - root) % 2:
        return "unclassified"
    a, b = (d - root) // 2, (d + root) // 2
    if a < 1 or (a + 1) * (b + 1) != v:
        return "unclassified"
    members = set(labels)
    table = poly.group.table
    if 0 in members and all(table[x][y] in members
                            for x in labels for y in labels):
        centres = labels[:1]
    else:
        centres = labels
    for x in centres:
        degree = sum(1 for y in labels
                     if y != x and is_face(poly, (x, y)).is_face)
        if degree != a + b:
            return "unclassified"
    return "product(%d, %d)" % (a, b)
