"""Exact complex character tables of finite permutation groups.

Two construction routes share one verified table format.  Abelian
groups get the cyclic-chain construction: characters of a subgroup
chain are extended one generator at a time, tracked as discrete logs of
root-of-unity values.  Everything else goes through class matrices
(Dixon, Numer. Math. 10, 1967): the class constants are counted in one
pass over G per class, the common eigenvectors of the class matrices
over a suitable prime field determine the central characters, degrees
are recovered from the second orthogonality residue, and actual
character values are lifted by exact discrete Fourier inversion over
the eigenvalue lattice.  The lift stays in integers: each value is kept
as the multiplicities of the powers of zeta_m among its eigenvalues, the
row orthogonality check convolves those counts and reduces each sum
once through the field's integer power table, and only the final
values become Cyclotomic objects, one per distinct value.

All values are elements of the cyclotomic field whose conductor is the
group exponent.  Tables are canonically ordered (trivial character
first, the rest by degree then value key) and checked against the
orthogonality relations before use, so downstream equivalence tests do
not depend on which route produced the table.  Both routes share one
Cyclotomic among the entries holding the same value, and sort keys,
conjugate partners, pair sums and integer coordinates are found once
per distinct value object.

Constituents, indicators and isotype traces are found with Python ints.
Character values are algebraic integers, so their power-basis
coordinates are integers: each table keeps, for every irreducible chi
and coordinate k, the column of coordinate k of size_j * conj(chi(g_j))
over the classes j.  The coordinates of |G| <f, chi> for an integer
class function f (the permutation character, or the count of square
roots for the Frobenius-Schur indicator) are the dot products of f with
these columns; past the first they must vanish, else this raises.  A
representation adds its summands' constituents, which each of the
group's kept coset actions computes and checks once per table.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import eq, mul

from .cyclotomic import Cyclotomic, cyclo, root_log, root_order, root_powers
from .groups import FiniteGroup, SizeCapError
from .reps import PermRep, _same_group, affine_kernel, kernel_traces

DEFAULT_CLASS_CAP = 30


def _value_keys():
    """value -> value.key(), computed once per value object: both routes
    share one Cyclotomic among the entries holding the same value.  The
    memo is keyed by id, so it must not outlive the values it has seen."""
    keys = {}

    def key(value):
        k = keys.get(id(value))
        if k is None:
            k = keys[id(value)] = value.key()
        return k

    return key


class CharacterTable:
    """Irreducible complex characters as rows over conjugacy classes."""

    def __init__(self, group: FiniteGroup, values, route: str):
        self.group = group
        self.route = route
        self.classes = tuple(group.conjugacy_classes())
        self.class_of = tuple(group.class_of())
        self.reps = tuple(c[0] for c in self.classes)
        self.sizes = tuple(len(c) for c in self.classes)
        self.conductor = group.exponent()
        self.inverse_class = tuple(
            self.class_of[group.inverse[r]] for r in self.reps)

        rows = [tuple(row) for row in values]
        trivial = [i for i, row in enumerate(rows)
                   if all(v == 1 for v in row)]
        if len(trivial) != 1:
            raise RuntimeError("expected exactly one trivial character")
        first = rows.pop(trivial[0])
        key = _value_keys()
        rows.sort(key=lambda row: (self._row_degree(row),
                                   tuple(map(key, row))))
        self.values = tuple([first] + rows)
        self.degrees = tuple(self._row_degree(row) for row in self.values)
        self._indicators = None
        self._reals = None
        self._coordinate_columns = None

    @staticmethod
    def _row_degree(row) -> int:
        d = row[0].is_rational()
        if d is None or d.denominator != 1 or d <= 0:
            raise RuntimeError("character degree is not a positive integer")
        return int(d)

    @property
    def count(self) -> int:
        return len(self.values)

    def power_class(self, j: int, s: int) -> int:
        """Index of the class containing the s-th powers of class j."""
        return self.class_of[self.group.power_index(self.reps[j], s)]

    def indicator(self, i: int) -> int:
        """Frobenius-Schur indicator: +1 real, 0 complex, -1 quaternionic.

        |G| nu(chi) = sum over x of chi(x^2) = |G| <r, conj chi>, where
        r(g) counts the square roots of g (Isaacs, ch. 4); nu is real.
        """
        if self._indicators is None:
            n = self.group.order
            roots = [0] * len(self.classes)
            for k, size in enumerate(self.sizes):
                roots[self.power_class(k, 2)] += size
            for j, size in enumerate(self.sizes):
                roots[j], rem = divmod(roots[j], size)
                if rem:
                    raise RuntimeError("square roots are not a class function")
            out = []
            for total in _inner_products(self, roots):
                ind, rem = divmod(total, n)
                if rem:
                    raise RuntimeError("indicator sum is not divisible by |G|")
                if ind not in (-1, 0, 1):
                    raise RuntimeError("indicator outside {-1, 0, 1}")
                out.append(ind)
            self._indicators = tuple(out)
        return self._indicators[i]

    def char_order(self, i: int):
        """Multiplicative order of a degree-1 character; None otherwise."""
        if self.degrees[i] != 1:
            return None
        m = self.conductor
        out = 1
        for v in self.values[i]:
            k = root_log(v)
            if k is None:
                raise RuntimeError("degree-1 character value is not a root of unity")
            o = root_order(m, k)
            out = out * o // gcd(out, o)
        return out

    def __repr__(self):
        return "<CharacterTable: %d classes, conductor %d, %s route>" % (
            len(self.classes), self.conductor, self.route)


def character_table(group: FiniteGroup) -> CharacterTable:
    """The (cached) character table of the group."""
    cached = getattr(group, "_character_table", None)
    if cached is not None:
        return cached
    if group.is_abelian():
        table = CharacterTable(group, _abelian_characters(group), "cyclic-chain")
    else:
        table = CharacterTable(group, _class_matrix_characters(group),
                               "class-matrix")
    group._character_table = table
    return table


# ---------------------------------------------------------------------------
# abelian route: chain extension tracked by discrete logs


def _abelian_characters(group: FiniteGroup):
    """All |G| linear characters as cyclotomic value rows (class j is the
    singleton {j} for abelian groups)."""
    if not group.is_abelian():
        raise ValueError("cyclic-chain construction needs an abelian group")
    n = group.order
    m = group.exponent()
    table = group.table
    in_sub = bytearray(n)
    in_sub[0] = 1
    covered = [0]
    chars = [[None] * n for _ in range(1)]
    chars[0][0] = 0  # log vectors: chi(g) = zeta_m ** logs[g]

    for a in group.gens:
        if in_sub[a]:
            continue
        # order of a modulo the current subgroup
        d = 1
        x = a
        while not in_sub[x]:
            x = table[x][a]
            d += 1
        # x == a^d lies in the subgroup; each character extends in d ways
        step = m // d
        new_chars = []
        for logs in chars:
            t = logs[x]
            if t % d:
                raise RuntimeError("extension log is not divisible by the index")
            for i in range(d):
                s = (t // d + step * i) % m
                ext = logs[:]
                for h in covered:
                    z = h
                    base = logs[h]
                    for j in range(1, d):
                        z = table[z][a]
                        ext[z] = (base + j * s) % m
                new_chars.append(ext)
        chars = new_chars
        fresh = []
        for h in covered:
            z = h
            for j in range(1, d):
                z = table[z][a]
                in_sub[z] = 1
                fresh.append(z)
        covered.extend(fresh)

    if len(covered) != n or len(chars) != n:
        raise RuntimeError("chain construction did not cover the group")
    # verification: rows are pairwise distinct homomorphisms
    if len({tuple(c) for c in chars}) != n:
        raise RuntimeError("chain construction produced repeated characters")
    for logs in chars:
        for a in group.gens:
            la = logs[a]
            for x in range(n):
                if logs[table[x][a]] != (logs[x] + la) % m:
                    raise RuntimeError("character row is not multiplicative")
    roots = [cyclo(m, k) for k in range(m)]
    return [[roots[logs[j]] for j in range(n)] for logs in chars]


def invariant_factors(group: FiniteGroup):
    """Invariant factors (d1, ..., dk), d1 | d2 | ... | dk, of an abelian
    group G = Z/d1 x ... x Z/dk, read off its element orders.

    For each prime p, |{x : x^(p^j) = 1}| = p^(c_j), and exactly
    c_j - c_(j-1) factors have p-part at least p^j; so the i-th largest
    factor takes one p for each j with i < c_j - c_(j-1).  A count that
    is not a power of p, or factors whose product is not |G|, raise
    RuntimeError.
    """
    if not group.is_abelian():
        raise ValueError("invariant factors need an abelian group")
    count = Counter(group.orders)
    factors = []  # largest first
    rest, p = group.order, 1
    while rest > 1:
        p += 1
        q = size = 1  # size = |{x : x^q = 1}| = p^c
        c = 0
        while rest % p == 0:
            rest //= p
            q *= p
            size += count[q]
            prev = c
            while p ** c < size:
                c += 1
            if p ** c != size:
                raise RuntimeError("%d elements have order dividing %d, "
                                   "not a power of %d" % (size, q, p))
            factors += [1] * (c - prev - len(factors))
            for i in range(c - prev):
                factors[i] *= p
    if prod(factors) != group.order:
        raise RuntimeError("invariant factors %r do not multiply to |G| = %d"
                           % (factors, group.order))
    return tuple(reversed(factors))


# ---------------------------------------------------------------------------
# general route: class matrices over F_p, eigenvector split, exact lift


class _SplitFailure(Exception):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _primitive_root(p: int) -> int:
    phi = p - 1
    factors = []
    t = phi
    d = 2
    while d * d <= t:
        if t % d == 0:
            factors.append(d)
            while t % d == 0:
                t //= d
        d += 1
    if t > 1:
        factors.append(t)
    for w in range(2, p):
        if all(pow(w, phi // q, p) != 1 for q in factors):
            return w
    raise RuntimeError("no primitive root found")


def _rref_mod(rows, p):
    mat = [list(r) for r in rows]
    pivots = []
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if mat[i][c] % p), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def _kernel_mod(rows, p):
    """Canonical kernel basis of a matrix over F_p (one vector per free
    column, 1 at the free column)."""
    red, pivots = _rref_mod(rows, p)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][f]) % p
        out.append(v)
    return out


def _charpoly_mod(mat, p):
    """Coefficients [1, c1, ..., cs] of the characteristic polynomial,
    highest degree first (Faddeev-LeVerrier; needs p > s)."""
    s = len(mat)
    coeffs = [1]
    B = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    for k in range(1, s + 1):
        AB = [[sum(mat[i][t] * B[t][j] for t in range(s)) % p
               for j in range(s)] for i in range(s)]
        tr = sum(AB[i][i] for i in range(s)) % p
        ck = (-tr * pow(k, p - 2, p)) % p
        coeffs.append(ck)
        B = [[(AB[i][j] + (ck if i == j else 0)) % p for j in range(s)]
             for i in range(s)]
    return coeffs


def _poly_eval_mod(coeffs, x, p):
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % p
    return acc


def _class_constants(group: FiniteGroup):
    """a[i][j][l], the number of pairs (x, y) with x in class i, y in
    class j and xy = z_l, the first element of class l.

    One pass over G per representative z_l: each x pairs with the one
    y = x^-1 z_l, so O(|G| * r) steps, and row i of class l must sum to
    |C_i|, which is checked.
    """
    classes = group.conjugacy_classes()
    cls = group.class_of()
    r = len(classes)
    table = group.table
    inverse = group.inverse
    counts = [[[0] * r for _ in range(r)] for _ in range(r)]
    for l, members in enumerate(classes):
        z = members[0]
        for x in range(group.order):
            counts[cls[x]][cls[table[inverse[x]][z]]][l] += 1
    for i, members in enumerate(classes):
        for l in range(r):
            if sum(row[l] for row in counts[i]) != len(members):
                raise RuntimeError("class constants of class %d do not sum "
                                   "to its size" % i)
    return counts


def _split_eigenvectors(constants, r, p):
    """Common eigenvectors (normalized to first coordinate 1) of the
    class matrices over F_p."""
    spaces = [([[1 if i == j else 0 for j in range(r)]
                for i in range(r)], list(range(r)))]
    for i in range(1, r):
        mat = [[constants[i][j][l] % p for l in range(r)] for j in range(r)]
        refined = []
        for rows, pivots in spaces:
            s = len(rows)
            if s == 1:
                refined.append((rows, pivots))
                continue
            images = []
            for vec in rows:
                w = [sum(mat[j][l] * vec[l] for l in range(r)) % p
                     for j in range(r)]
                images.append(w)
            # restriction matrix in the space's own basis
            C = []
            for w in images:
                coeff = [w[pc] for pc in pivots]
                resid = list(w)
                for cval, brow in zip(coeff, rows):
                    if cval:
                        resid = [(a - cval * b) % p
                                 for a, b in zip(resid, brow)]
                if any(resid):
                    raise _SplitFailure("subspace is not invariant")
                C.append(coeff)
            poly = _charpoly_mod(C, p)
            found = 0
            for lam in range(p):
                if _poly_eval_mod(poly, lam, p):
                    continue
                # C[a][b] expands B.v_a over the basis, so x = sum t_a v_a
                # is an eigenvector iff C^T t = lam t
                shifted = [[(C[b][a] - (lam if a == b else 0)) % p
                            for b in range(s)] for a in range(s)]
                kvs = _kernel_mod(shifted, p)
                if not kvs:
                    continue
                # one refined space per eigenvalue: a lone basis vector of
                # a fatter eigenspace is not yet a joint eigenvector
                vecs = [[sum(kv[a] * rows[a][l] for a in range(s)) % p
                         for l in range(r)] for kv in kvs]
                red, piv = _rref_mod(vecs, p)
                if len(red) != len(kvs):
                    raise _SplitFailure("eigenspace basis degenerated")
                refined.append((red, piv))
                found += len(kvs)
            if found != s:
                raise _SplitFailure("eigenspace dimensions do not add up")
        spaces = refined
    out = []
    for rows, _ in spaces:
        if len(rows) != 1:
            raise _SplitFailure("joint eigenspace has dimension > 1")
        u = rows[0]
        if u[0] % p == 0:
            raise _SplitFailure("eigenvector vanishes at the identity class")
        inv = pow(u[0], p - 2, p)
        out.append([(v * inv) % p for v in u])
    return out


def _class_matrix_characters(group: FiniteGroup):
    classes = group.conjugacy_classes()
    r = len(classes)
    if r > DEFAULT_CLASS_CAP:
        raise SizeCapError(
            "class-matrix construction capped at %d classes; group has %d"
            % (DEFAULT_CLASS_CAP, r))
    n = group.order
    m = group.exponent()
    sizes = [len(c) for c in classes]
    reps = [c[0] for c in classes]
    cls = group.class_of()
    jstar = [cls[group.inverse[rep]] for rep in reps]
    constants = _class_constants(group)

    powers = root_powers(m)
    last = None
    primes = _lift_primes(n, m, r)
    for p in primes:
        try:
            degrees, fmod = _central_characters(constants, sizes, jstar, n, r, p)
            counts = _lift_counts(group, fmod, degrees, reps, m, p)
            _check_orthogonality(counts, sizes, jstar, n, powers)
        except _SplitFailure as exc:
            last = exc
        else:
            return _cyclotomic_values(counts, powers)
    raise RuntimeError("character construction failed for primes %s: %s"
                       % (primes, last))


def _lift_primes(n, m, r):
    """The first 8 primes p = 1 mod m that are at least max(2 sqrt(n) + 2,
    r + 1, 3): strictly above twice any degree, so lifted multiplicities
    in [0, sqrt(n)] sit strictly below p/2 and degrees are recovered
    uniquely."""
    lower = max(2 * isqrt(n) + 2, r + 1, 3)
    primes = []
    k = 1
    while len(primes) < 8:
        p = m * k + 1
        if p >= lower and _is_prime(p):
            primes.append(p)
        k += 1
    return primes


def _central_characters(constants, sizes, jstar, n, r, p):
    """(degrees, fmod): each irreducible's degree and its values mod p,
    fmod[i][j] = chi_i(g_j), from the joint eigenvectors over F_p of the
    class matrices, scaled by the degree read off the norm residue."""
    omegas = _split_eigenvectors(constants, r, p)
    if len(omegas) != r:
        raise _SplitFailure("wrong number of joint eigenvectors")
    inv_sizes = [pow(s % p, p - 2, p) for s in sizes]
    n_mod = n % p

    degrees = []
    fmod = []
    for u in omegas:
        tt = sum(u[j] * u[jstar[j]] * inv_sizes[j] for j in range(r)) % p
        if tt == 0:
            raise _SplitFailure("norm residue vanished")
        target = (n_mod * pow(tt, p - 2, p)) % p
        d = next((d for d in range(1, isqrt(n) + 1)
                  if d * d % p == target), None)
        if d is None:
            raise _SplitFailure("no degree matches the norm residue")
        degrees.append(d)
        fmod.append([(d * u[j] * inv_sizes[j]) % p for j in range(r)])
    if sum(d * d for d in degrees) != n:
        raise _SplitFailure("degree squares do not sum to the group order")
    return degrees, fmod


def _lift_counts(group, fmod, degrees, reps, m, p):
    """Each chi_i(g_j) as the tuple of (e, count) pairs with
    chi_i(g_j) = sum of count * zeta_m^e, e ascending, counts positive.

    g = g_j of order o has eigenvalues zeta_o^t, whose multiplicities
    n_t are the discrete Fourier inverse of chi_i(g^s) = fmod at the
    class of g^s, over F_p with w a primitive o-th root of unity mod p:
    n_t = (1/o) sum over s of chi(g^s) w^(-st).  Each n_t must lie below
    p/2 and they must sum to the degree; e = (m/o) t.
    """
    w = _primitive_root(p)
    cls = group.class_of()
    # per class: its power classes and the inverse Fourier matrix mod p
    fourier = []
    for rep in reps:
        o = group.orders[rep]
        z = pow(w, (p - 1) // o, p)
        inv_o = pow(o, p - 2, p)
        power_classes = [cls[group.power_index(rep, s)] for s in range(o)]
        rows = [[pow(z, (-s * t) % (p - 1), p) * inv_o % p for s in range(o)]
                for t in range(o)]
        fourier.append((m // o, power_classes, rows))
    half = p // 2
    counts = []
    for f, degree in zip(fmod, degrees):
        row = []
        for step, power_classes, rows in fourier:
            values = [f[c] for c in power_classes]
            terms = []
            total = 0
            for t, coeffs in enumerate(rows):
                nt = sum(map(mul, values, coeffs)) % p
                if nt >= half:
                    raise _SplitFailure("eigenvalue multiplicity too large")
                if nt:
                    terms.append((step * t, nt))
                    total += nt
            if total != degree:
                raise _SplitFailure("multiplicities do not sum to the degree")
            row.append(tuple(terms))
        counts.append(row)
    return counts


def _coordinates(terms, powers):
    """Power-basis coordinates of the sum of c * zeta_m^e over the
    (e, c) in terms, read off the field's integer power table."""
    coords = [0] * len(powers[0])
    for e, c in terms:
        if c:
            for k, x in enumerate(powers[e]):
                if x:
                    coords[k] += c * x
    return coords


def _check_orthogonality(counts, sizes, jstar, n, powers):
    """Exact row orthogonality of the lifted values, in integers:
    sum over j of size_j chi_i(g_j) chi_k(g_j^-1) is |G| [i = k].

    The product of two exponent counts is their convolution mod m; the
    sum over classes is kept as counts and reduced to power-basis
    coordinates once per pair (i, k)."""
    r, m = len(counts), len(powers)
    expected = [0] * len(powers[0])
    for i in range(r):
        for k in range(i, r):
            acc = [0] * m
            for size, terms, inverse in zip(sizes, counts[i],
                                            map(counts[k].__getitem__, jstar)):
                for e1, c1 in terms:
                    c1 *= size
                    for e2, c2 in inverse:
                        acc[(e1 + e2) % m] += c1 * c2
            expected[0] = n if i == k else 0
            if _coordinates(enumerate(acc), powers) != expected:
                raise _SplitFailure("orthogonality failed after lifting")


def _cyclotomic_values(counts, powers):
    """The Cyclotomic value rows of the lifted counts, one object per
    distinct value, shared by the entries that hold it."""
    made = {}
    values = []
    for row in counts:
        out = []
        for terms in row:
            coords = tuple(_coordinates(terms, powers))
            value = made.get(coords)
            if value is None:
                value = made[coords] = Cyclotomic(len(powers), coords)
            out.append(value)
        values.append(out)
    return values


# ---------------------------------------------------------------------------
# real irreducibles and permutation characters


# 4 * schur_fraction, by Frobenius-Schur indicator
_SCHUR_QUARTERS = {1: 4, 0: 2, -1: 1}


class RealIrreducible:
    """A real irreducible character: a type-R complex character, a
    conjugate pair summed, or a quaternionic character doubled.

    schur_fraction is 1, 1/2 or 1/4: the squared real degree times this
    fraction is the dimension of the matrix block the character spans
    inside the group algebra image.
    """

    def __init__(self, complex_indices, values, degree, indicator):
        self.complex_indices = tuple(complex_indices)
        self.values = tuple(values)
        self.degree = degree
        self.indicator = indicator
        self.schur_fraction = Fraction(_SCHUR_QUARTERS[indicator], 4)

    @property
    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def __repr__(self):
        kind = {1: "R", 0: "C", -1: "H"}[self.indicator]
        return "<RealIrreducible: degree %d, type %s>" % (self.degree, kind)


def real_irreducibles(table: CharacterTable):
    """Real irreducible characters, canonically ordered (trivial first).

    Conjugate partners are matched on rows of value keys, and keys, pair
    sums and doubles are formed once per distinct value object.
    Computed once per table and stored on it.
    """
    if table._reals is not None:
        return table._reals
    r = table.count
    key = _value_keys()
    keyed = [tuple(map(key, row)) for row in table.values]
    rows_by_key = {}
    for i, row in enumerate(keyed):
        rows_by_key.setdefault(row, []).append(i)
    made = {}

    def combined(a, b):
        c = made.get((id(a), id(b)))
        if c is None:
            c = made[id(a), id(b)] = a + b
        return c

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
            vals = [combined(v, v) for v in row]
            items.append(RealIrreducible((i,), vals, 2 * table.degrees[i], -1))
            continue
        conj = tuple(map(keyed[i].__getitem__, table.inverse_class))
        partner = next((k for k in rows_by_key.get(conj, ())
                        if k > i and not used[k]), None)
        if partner is None:
            raise RuntimeError("complex character is missing its conjugate")
        used[partner] = True
        vals = [combined(a, b) for a, b in zip(row, table.values[partner])]
        items.append(RealIrreducible((i, partner), vals,
                                     2 * table.degrees[i], 0))
    trivial = next(k for k, it in enumerate(items) if it.is_trivial)
    first = items.pop(trivial)
    items.sort(key=lambda it: (it.degree, tuple(map(key, it.values))))
    table._reals = tuple([first] + items)
    return table._reals


class Constituents:
    """Multiplicities of the complex irreducibles in a permutation character."""

    def __init__(self, multiplicities, character):
        self.multiplicities = tuple(multiplicities)
        self.character = tuple(character)
        self.nontrivial = frozenset(
            i for i, mv in enumerate(self.multiplicities) if mv and i != 0)
        self.trivial_multiplicity = self.multiplicities[0]


def permutation_character(rep: PermRep, table: CharacterTable):
    """Fixed-point counts on class representatives."""
    return _fixed_points(rep.action, table)


def _fixed_points(action, table: CharacterTable):
    """Fixed points of action[g] for each class representative g."""
    return [sum(map(eq, action[g], range(len(action[g])))) for g in table.reps]


def _coordinate_columns(table: CharacterTable):
    """Integer coordinate columns of the inner products.

    Column i * phi(m) + k lists, over the classes j, coordinate k of
    size_j * conj(chi_i(g_j)) in the power basis of Q(zeta_m).
    Character values are algebraic integers, so these coordinates are
    integers; a value with a fractional coordinate raises.  Computed
    once per table and stored on it.
    """
    if table._coordinate_columns is None:
        integers = {}  # id of a value -> its integer coordinates
        columns = []
        for values in table.values:
            coords = []
            for size, value in zip(table.sizes,
                                   map(values.__getitem__, table.inverse_class)):
                ints = integers.get(id(value))
                if ints is None:
                    if any(c.denominator != 1 for c in value.coeffs):
                        raise RuntimeError("character value %s is not an "
                                           "algebraic integer" % value)
                    ints = integers[id(value)] = [c.numerator
                                                  for c in value.coeffs]
                coords.append([size * c for c in ints])
            columns.extend(zip(*coords))
        table._coordinate_columns = tuple(columns)
    return table._coordinate_columns


def _inner_products(table: CharacterTable, f):
    """|G| <f, chi_i> for every irreducible chi_i and an integer class
    function f on the classes; raises RuntimeError unless every
    coordinate past the first is 0 (the inner products are rational)."""
    acc = [sum(map(mul, f, column)) for column in _coordinate_columns(table)]
    width = len(table.values[0][0].coeffs)
    totals = acc[::width]
    del acc[::width]
    if any(acc):
        raise RuntimeError("inner product is not rational")
    return totals


def constituents(rep: PermRep, table: CharacterTable | None = None) -> Constituents:
    """Multiplicities <pi, chi> of every irreducible in the permutation
    character pi of rep.

    |G| <pi, chi_i> is the sum over classes j of pi_j * size_j *
    conj(chi_i(g_j)); its coordinates are the integer dot products of pi
    with the table's coordinate columns for chi_i.  Raises RuntimeError
    unless every coordinate past the first is 0 (the inner product is
    rational), the first is a nonnegative multiple of |G|, the degrees
    sum to the action degree, and the trivial multiplicity is the orbit
    count.

    They are added up over the representation's summands (see
    PermRep): pi and the multiplicities are additive over a direct sum,
    repeats included, and each summand, a kept CosetAction, computes and
    checks its own once per table (its trivial multiplicity must be 1,
    as a coset action is transitive).  The sum's degree and orbit-count
    checks still run.

    The result is kept on rep, with its table, once every check has
    passed, and returned again for that same table object; another table
    is computed and checked afresh.  A summand keeps its own result by
    the same rule.
    """
    if table is None:
        table = character_table(rep.group)
    memo = rep._constituents
    if memo is not None and memo[0] is table:
        return memo[1]
    if table.group is not rep.group and table.group.elements != rep.group.elements:
        raise ValueError("table belongs to a different group")
    parts = [_summand_constituents(a, table) for a in rep._summands]
    cons = Constituents(
        map(sum, zip(*(c.multiplicities for c in parts))),
        map(sum, zip(*(c.character for c in parts))))
    _check_constituents(cons, table, rep.degree, rep.orbit_count())
    rep._constituents = table, cons
    return cons


def _summand_constituents(action, table: CharacterTable) -> Constituents:
    """Constituents of a kept CosetAction, checked and kept on it per
    table as constituents keeps a representation's."""
    memo = action.constituents
    if memo is not None and memo[0] is table:
        return memo[1]
    pi = _fixed_points(action.images, table)
    cons = Constituents(_multiplicities(table, pi, action.group.order), pi)
    _check_constituents(cons, table, action.degree, 1)
    action.constituents = table, cons
    return cons


def _multiplicities(table: CharacterTable, pi, n):
    """<pi, chi_i> for every i; RuntimeError unless each is a
    nonnegative integer."""
    mults = []
    for total in _inner_products(table, pi):
        mult, rem = divmod(total, n)
        if rem or mult < 0:
            raise RuntimeError("multiplicity %s is not a nonnegative integer"
                               % Fraction(total, n))
        mults.append(mult)
    return mults


def _check_constituents(cons: Constituents, table: CharacterTable, degree,
                        orbits):
    if sum(map(mul, cons.multiplicities, table.degrees)) != degree:
        raise RuntimeError("constituent degrees do not sum to the action degree")
    if cons.trivial_multiplicity != orbits:
        raise RuntimeError("trivial multiplicity differs from the orbit count")


def stably_equivalent_by_characters(repA: PermRep, repB: PermRep,
                                    table: CharacterTable | None = None) -> bool:
    """Equality of the sets of nontrivial irreducible constituents."""
    if not _same_group(repA, repB):
        raise ValueError("stable equivalence needs representations of one group")
    if table is None:
        table = character_table(repA.group)
    return (constituents(repA, table).nontrivial
            == constituents(repB, table).nontrivial)


def predicted_dimension(rep: PermRep, table: CharacterTable):
    """(sum of schur_fraction * degree^2, reals) over the nontrivial real
    irreducibles meeting pi; raises if only one of a conjugate pair does.

    real_irreducibles puts the trivial character first, so it is skipped
    by position; the sum is taken in integers as 4 * schur_fraction *
    degree^2.
    """
    cons = constituents(rep, table)
    occurring = []
    total = 0
    for real in real_irreducibles(table)[1:]:
        present = [i in cons.nontrivial for i in real.complex_indices]
        if any(present) != all(present):
            raise RuntimeError("conjugate constituents occur asymmetrically")
        if all(present):
            occurring.append(real)
            total += _SCHUR_QUARTERS[real.indicator] * real.degree ** 2
    dim, rem = divmod(total, 4)
    if rem:
        raise RuntimeError("predicted dimension is not an integer")
    return dim, occurring


class IsotypeReport:
    def __init__(self, dim_expected, dim_actual, real_degrees):
        self.dim_expected = dim_expected
        self.dim_actual = dim_actual
        self.real_degrees = tuple(real_degrees)

    @property
    def ok(self) -> bool:
        return self.dim_expected == self.dim_actual


def verify_isotype(rep: PermRep, table: CharacterTable | None = None) -> IsotypeReport:
    """Check the vertex-span dimension and trace identities predicted by
    the occurring real irreducible constituents.

    dim span{M_g - M_e}, which is |G| - 1 minus the dimension of the
    affine kernel, must equal the sum of schur_fraction * degree^2 over
    the nontrivial real irreducibles meeting the permutation character,
    and for every g in class j the trace of left multiplication on that
    span must equal sum of schur_fraction * degree * value(g), which is
    t_j = sum of d_i chi_i(g_j) over their complex indices i.  size_j *
    t_j is read off the coordinate columns; it must be rational, so the
    columns' conj is harmless.  Raises on any exact mismatch.
    """
    if table is None:
        table = character_table(rep.group)
    dim_pred, occurring = predicted_dimension(rep, table)
    dim = rep.group.order - 1 - affine_kernel(rep).dim
    if dim != dim_pred:
        raise RuntimeError("span dimension %d differs from predicted %d"
                           % (dim, dim_pred))

    columns = _coordinate_columns(table)
    width = len(table.values[0][0].coeffs)
    picked = [(table.degrees[i], i * width)
              for real in occurring for i in real.complex_indices]
    scaled = [[sum(d * columns[at + k][j] for d, at in picked)
               for j in range(table.count)] for k in range(width)]
    if any(map(any, scaled[1:])):
        raise RuntimeError("isotype trace is not rational")
    cls = table.class_of
    for g, trace in enumerate(kernel_traces(rep)):
        if table.sizes[cls[g]] * trace != scaled[0][cls[g]]:
            raise RuntimeError("trace identity failed at element %d" % g)
    return IsotypeReport(dim_pred, dim, [real.degree for real in occurring])

