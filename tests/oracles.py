"""Brute-force reference implementations used to validate the package.

Everything here is deliberately independent of :mod:`polyproj`: plain
``fractions.Fraction`` arithmetic, exhaustive subset enumeration, no shared
helpers.  These run in exponential time and are only suitable for the small
instances used in tests.

Conventions match the package: a constraint row ``(f, b)`` means
``f . x >= b``, and a facet of a point set is reported the same way.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def exact_point(p):
    """A point given by rationals (ints, Fractions or strings like "1/2")
    in the package's point format: the integer tuple (D p_1, ..., D p_k, D)
    with D the lcm of p's denominators, which makes it coprime with D > 0.
    ``rational_point`` is its inverse."""
    coords = [Fraction(c) for c in p]
    den = 1
    for c in coords:
        den = den * c.denominator // gcd(den, c.denominator)
    return tuple(int(c * den) for c in coords) + (den,)


def rational_point(point):
    """The Fractions of a point in the package's format (X, D): X / D."""
    return tuple(Fraction(v, point[-1]) for v in point[:-1])


def _solve_square(rows, rhs):
    """Solve a linear system by Gaussian elimination.

    Returns the unique solution as a tuple of Fractions, or None when the
    system is singular or inconsistent.
    """
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    n = len(rows[0]) if rows else 0
    where = [-1] * n
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        where[col] = row
        row += 1
    if any(w < 0 for w in where):
        return None  # underdetermined
    for i in range(len(m)):
        if all(v == 0 for v in m[i][:n]) and m[i][n] != 0:
            return None  # inconsistent
    return tuple(m[where[c]][n] for c in range(n))


def reduced_row_echelon(rows):
    """Reduced row echelon form by Gauss-Jordan elimination on Fractions.

    Returns (the nonzero reduced rows, their pivot columns).
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m[:len(pivots)], pivots


def solve_linear(rows, rhs):
    """One solution of ``rows . x = rhs`` with every free variable 0, as a
    list of Fractions, or None when the system is inconsistent."""
    n = len(rows[0])
    reduced, pivots = reduced_row_echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(reduced, pivots):
        x[c] = row[n]
    return x


def _fraction_nullspace_1d(rows, n):
    """Return a nonzero vector v with rows . v = 0, assuming rank n-1."""
    m = [[Fraction(x) for x in row] for row in rows]
    where = [-1] * n
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[row])]
        where[col] = row
        row += 1
    free = [c for c in range(n) if where[c] < 0]
    if len(free) != 1:
        return None
    c0 = free[0]
    v = [Fraction(0)] * n
    v[c0] = Fraction(1)
    for c in range(n):
        if where[c] >= 0:
            v[c] = -m[where[c]][c0]
    return tuple(v)


def _normalize(coeffs, rhs):
    """Scale (coeffs, rhs) by a positive rational to coprime integers."""
    entries = [Fraction(c) for c in coeffs] + [Fraction(rhs)]
    denom = 1
    for e in entries:
        denom = denom * e.denominator // gcd(denom, e.denominator)
    ints = [int(e * denom) for e in entries]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints[:-1]), ints[-1]


def equality_rows(coeffs, rhs=0):
    """The pair of rows f . x >= b and -f . x >= -b stating f . x = b."""
    coeffs = tuple(coeffs)
    return [(coeffs, rhs), (tuple(-c for c in coeffs), -rhs)]


def affine_rank(points):
    """Dimension of the affine span of a point set (-1 when empty)."""
    if not points:
        return -1
    base = [Fraction(c) for c in points[0]]
    rows = []
    for p in points[1:]:
        diff = [Fraction(c) - b for c, b in zip(p, base)]
        for pivot_col, row in rows:
            if diff[pivot_col] != 0:
                factor = diff[pivot_col] / row[pivot_col]
                diff = [d - factor * r for d, r in zip(diff, row)]
        pivot_col = next((j for j, v in enumerate(diff) if v != 0), None)
        if pivot_col is not None:
            rows.append((pivot_col, diff))
    return len(rows)


def satisfies(rows, rhs, x):
    return all(
        sum(Fraction(c) * v for c, v in zip(row, x)) >= b
        for row, b in zip(rows, rhs)
    )


def brute_vertices(rows, rhs, dim):
    """All vertices of {x : rows . x >= rhs} by basic-solution enumeration.

    Only correct for bounded polytopes (every vertex is a feasible basic
    solution, and a bounded polyhedron is the hull of its vertices).
    """
    seen = set()
    out = []
    for subset in combinations(range(len(rows)), dim):
        x = _solve_square([rows[i] for i in subset], [rhs[i] for i in subset])
        if x is None or x in seen:
            continue
        if satisfies(rows, rhs, x):
            seen.add(x)
            out.append(x)
    return out


def brute_hull_facets(points):
    """Facets of conv(points) by hyperplane enumeration.

    The points must affinely span their ambient space.  Returns normalized
    (coeffs, rhs) pairs with the hull on the >= side.
    """
    dim = len(points[0])
    pts = [tuple(Fraction(c) for c in p) for p in points]
    facets = set()
    for subset in combinations(range(len(pts)), dim):
        base = pts[subset[0]]
        diffs = [
            [pts[i][k] - base[k] for k in range(dim)] for i in subset[1:]
        ]
        normal = _fraction_nullspace_1d(diffs, dim)
        if normal is None:
            continue
        b = sum(n * c for n, c in zip(normal, base))
        values = [sum(n * c for n, c in zip(normal, p)) for p in pts]
        if all(v >= b for v in values):
            facets.add(_normalize(normal, b))
        elif all(v <= b for v in values):
            facets.add(_normalize([-n for n in normal], -b))
    return sorted(facets)


def brute_projection_facets(rows, rhs, dim, keep):
    """Facets of the shadow of a bounded polytope on its first ``keep`` coords.

    Requires the shadow to be full-dimensional in those coordinates.
    """
    verts = brute_vertices(rows, rhs, dim)
    shadow = sorted({v[:keep] for v in verts})
    return brute_hull_facets(shadow)


def basis_multipliers(A, c, basis, zero_rows=()):
    """Multipliers of a standard-form basis (min c.z, A z = b, z >= 0).

    The unique pi with pi . A_j = c_j for every basic column j and pi_i = 0
    for the rows in ``zero_rows`` (rows dropped as linearly dependent).
    Returns None when that square system is singular.
    """
    keep = [i for i in range(len(A)) if i not in set(zero_rows)]
    if len(keep) != len(basis):
        return None
    sol = _solve_square([[A[i][j] for i in keep] for j in basis],
                        [c[j] for j in basis])
    if sol is None:
        return None
    pi = [Fraction(0)] * len(A)
    for i, v in zip(keep, sol):
        pi[i] = v
    return tuple(pi)


def staged_basis_simplex(probe, d):
    """Points of an image's basis simplex, by the loop that probes every
    candidate direction: x0 = probe(e_0), then at each step g, the first
    basis vector of the orthogonal complement of the directions recorded so
    far (1 on the first free column of their reduced row echelon form,
    scaled to coprime integers), and then -g.  The first candidate whose
    probed point moves cand.x off cand.x0 is kept and its difference from
    x0 recorded; when neither moves, g itself is recorded.

    ``probe(direction)`` returns a point of the image minimizing the
    direction.  Returns the list of points.
    """
    x0 = probe(tuple(int(i == 0) for i in range(d)))
    points, recorded = [x0], []
    while len(recorded) < d:
        reduced, pivots = reduced_row_echelon([r for r in recorded if any(r)])
        free = next(j for j in range(d) if j not in pivots)
        g = [Fraction(int(j == free)) for j in range(d)]
        for row, c in zip(reduced, pivots):
            g[c] = -row[free]
        g = _normalize(g, 0)[0]
        for cand in (g, tuple(-a for a in g)):
            x = probe(cand)
            if sum(a * b for a, b in zip(cand, x)) != sum(a * b for a, b in zip(cand, x0)):
                points.append(x)
                recorded.append(tuple(a - b for a, b in zip(x, x0)))
                break
        else:
            recorded.append(g)
    return points


def dual_bland_choice(block, rows, cost, basis):
    """Bland's rule on the dual for a dictionary with a right-hand-side block.

    Row i of the dictionary has the block row ``block[i]``, the variable
    entries ``rows[i]`` and the basic variable ``basis[i]``; ``cost`` holds
    the reduced costs of the variables.  The leaving row is the row whose
    block row is lexicographically negative with the smallest basic
    variable; the entering variable j has rows[r][j] < 0 and the least ratio
    cost[j] / -rows[r][j], ties going to the smallest j.  Any common positive
    scale of the entries leaves the choice alone.

    Returns None when no block row is lexicographically negative (the basis
    is optimal), (r, None) when row r has no entering variable (the program
    is infeasible), else (r, j).
    """
    def lex_negative(row):
        first = next((x for x in row if x != 0), 0)
        return first < 0

    leaving = [i for i in range(len(block)) if lex_negative(block[i])]
    if not leaving:
        return None
    r = min(leaving, key=lambda i: basis[i])
    entering = [j for j, a in enumerate(rows[r]) if a < 0]
    if not entering:
        return r, None
    return r, min(entering, key=lambda j: (Fraction(cost[j], -rows[r][j]), j))
