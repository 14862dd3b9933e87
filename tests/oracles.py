"""Independent brute-force oracles for cross-checking the engines.

Everything here deliberately avoids the library's echelon code paths:
subspaces are handled as literal sets of vectors, so agreement with the
engine is meaningful evidence and not an identity check.  The Dynkin and
Kronecker string oracles count no points at all: thin and string-module
F-polynomials come from closed subsets, and the type-A minor is an ordinary
minor of an explicit (rank+1) x (rank+1) matrix.  The Weyl-group
references apply one simple reflection at a time.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

from quivergrass.dynkin import simple_reflection
from quivergrass.fpoly import FPolynomial


def span_set(rows, p, m):
    """Frozenset of every vector in the row span, by direct combination."""
    out = set()
    for coeffs in product(range(p), repeat=len(rows)):
        v = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(m))
        out.add(v)
    return frozenset(out)


def naive_subspaces(p, m, e):
    """All e-dimensional subspaces of F_p^m as frozensets of vectors."""
    vectors = list(product(range(p), repeat=m))
    found = set()
    size = p ** e
    for rows in combinations(vectors, e):
        s = span_set(rows, p, m)
        if len(s) == size:
            found.add(s)
    if e == 0:
        found = {span_set((), p, m)}
    return found


def apply_matrix(mat, v, p):
    return tuple(sum(a * b for a, b in zip(row, v)) % p for row in mat)


def naive_count_subreps(quiver_arrows, dims, matrices, e, p):
    """Count subrepresentation tuples by exhaustive set-level search."""
    per_vertex = [sorted(naive_subspaces(p, d, ei), key=sorted)
                  for d, ei in zip(dims, e)]
    count = 0
    for choice in product(*per_vertex):
        ok = True
        for (s, t), mat in zip(quiver_arrows, matrices):
            for v in choice[s]:
                if apply_matrix(mat, v, p) not in choice[t]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def naive_hom_dim_mod(quiver_arrows, a_dims, b_dims, a_mats, b_mats, p):
    """log_p of the number of intertwiner tuples, found by full enumeration."""
    shapes = [(b_dims[v], a_dims[v]) for v in range(len(a_dims))]
    total_entries = sum(r * c for r, c in shapes)
    solutions = 0
    for flat in product(range(p), repeat=total_entries):
        gs = []
        idx = 0
        for r, c in shapes:
            gs.append([flat[idx + i * c:idx + (i + 1) * c] for i in range(r)])
            idx += r * c
        ok = True
        for (s, t), am, bm in zip(quiver_arrows, a_mats, b_mats):
            # g_t am == bm g_s entrywise
            for r in range(b_dims[t]):
                for c in range(a_dims[s]):
                    left = sum(gs[t][r][k] * am[k][c] for k in range(a_dims[t])) % p
                    right = sum(bm[r][k] * gs[s][k][c] for k in range(b_dims[s])) % p
                    if left != right:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            solutions += 1
    dim = 0
    while p ** dim < solutions:
        dim += 1
    assert p ** dim == solutions, "solution set is not a linear space?"
    return dim


def dense_hom_dim(a, b):
    """dim Hom(a, b) from one dense system: a row per (arrow, entry) of
    g_t phi^a - phi^b g_s, a column per entry of some g_v, ranked by
    Gaussian elimination on Fractions (`fraction_rank`) over Q, or on
    residues mod p."""
    offsets, total = [], 0
    for v in range(a.n):
        offsets.append(total)
        total += b.dims[v] * a.dims[v]
    rows = []
    for idx, (s, t) in enumerate(a.quiver.arrows):
        am, bm = a.matrices[idx], b.matrices[idx]
        for r in range(b.dims[t]):
            for c in range(a.dims[s]):
                row = [0] * total
                for k in range(a.dims[t]):
                    row[offsets[t] + r * a.dims[t] + k] += am[k][c]
                for k in range(b.dims[s]):
                    row[offsets[s] + k * a.dims[s] + c] -= bm[r][k]
                rows.append(row)
    p = a.field
    return total - (fraction_rank(rows) if p is None else modular_rank(rows, p))


def fraction_rank(matrix):
    """Rank over Q by Gaussian elimination on Fractions, pivoting column by column."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def modular_rank(matrix, p):
    """Rank over F_p by Gaussian elimination, pivoting column by column."""
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv % p
            rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank

def fraction_lagrange(points):
    """Coefficients (ascending) of the interpolant through the points, as Fractions.

    One Lagrange basis polynomial per node, each built by multiplying out
    (x - x_j) and scaled by y_i / prod (x_i - x_j).
    """
    coeffs = [Fraction(0)] * len(points)
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = 1
        for xj, _ in points:
            if xj == xi:
                continue
            shifted = [Fraction(0)] + basis
            basis = [s - xj * b for s, b in zip(shifted, basis + [Fraction(0)])]
            denom *= xi - xj
        scale = Fraction(yi, denom)
        for k, b in enumerate(basis):
            coeffs[k] += scale * b
    return coeffs


def thin_f_polynomial(quiver, alpha):
    """F-polynomial of a thin indecomposable (every entry of alpha at most 1).

    Each arrow inside the support acts by a nonzero scalar, so a
    subrepresentation is a subset of the support closed under those arrows,
    and Gr_e is one point when supp(e) is closed and empty otherwise.
    """
    assert all(a in (0, 1) for a in alpha), alpha
    support = [v for v, a in enumerate(alpha) if a]
    inner = [(s, t) for s, t in quiver.arrows if alpha[s] and alpha[t]]
    terms = {}
    for bits in product((0, 1), repeat=len(support)):
        e = [0] * quiver.n
        for v, b in zip(support, bits):
            e[v] = b
        if all(e[t] or not e[s] for s, t in inner):
            terms[tuple(e)] = 1
    return FPolynomial(quiver.n, terms)


def string_module_chi(kind):
    """chi(Gr_e) over the box of a Kronecker indecomposable, as an FPolynomial,
    by counting torus fixed points instead of points over F_p.

    pr, inj and reg with lambda in {0, inf} are string modules: each arrow
    sends every basis vector x_i of the source to a basis vector y_j of the
    target or to 0.  chi(Gr_e) is then the number of subsets of the basis
    that are closed under these successors, with e_1 of the x's and e_2 of
    the y's (Cerulli Irelli, J. Algebraic Combin. 33, 2011).  The y's have
    no successors, so a closed set is any set of x's, their successors, and
    any choice of the remaining y's.  Every other reg(m, lambda) counts as
    reg(m, 0): GL_2 acting on the two arrows preserves each Gr_e and takes
    reg(m, lambda) to reg(m, 0); reg(m, inf) has the successors of reg(m, 0)
    with the two arrows swapped, so the same closed sets.
    """
    m = kind.m
    if kind.family == "pr":     # (m-1, m): phi_1 x_i = y_i, phi_2 x_i = y_{i+1}
        d1, d2 = m - 1, m
        successors = [{i, i + 1} for i in range(d1)]
    elif kind.family == "inj":  # (m, m-1): phi_1 x_i = y_i, phi_2 x_i = y_{i-1}, 0 off the end
        d1, d2 = m, m - 1
        successors = [{j for j in (i, i - 1) if 0 <= j < d2} for i in range(d1)]
    else:                       # (m, m): phi_1 = I, phi_2 = J_m(0) sends x_i to y_{i-1}
        d1, d2 = m, m
        successors = [{j for j in (i, i - 1) if j >= 0} for i in range(d1)]
    terms = {}
    for xs in product((0, 1), repeat=d1):
        forced = set().union(*(succ for x, succ in zip(xs, successors) if x))
        free = d2 - len(forced)
        for k in range(free + 1):
            e = (sum(xs), len(forced) + k)
            terms[e] = terms.get(e, 0) + comb(free, k)
    return FPolynomial(2, terms)


def minor_argument_matrix(rank, word):
    """The product y_{i_1}(1) ... y_{i_n}(1) x_{i_n}(u_{i_n}) ... x_{i_1}(u_{i_1}).

    Built by column operations on the identity, factor by factor in this
    exact order (the x and y factors do not commute).  Multiplying on the
    right by y_i(1) = Id + E_{i+1,i} adds column i+1 to column i; by
    x_i(u_i) = Id + u_i E_{i,i+1} it adds u_i times column i to column i+1.
    Matrices are (rank+1) x (rank+1) over Z[u_1..u_rank]; i is 0-based.
    """
    one, zero = FPolynomial.one(rank), FPolynomial.zero(rank)
    mat = [[one if r == c else zero for c in range(rank + 1)] for r in range(rank + 1)]
    for i in word:
        for row in mat:
            row[i] = row[i] + row[i + 1]
    for i in reversed(word):
        u = FPolynomial.variable(rank, i)
        for row in mat:
            row[i + 1] = row[i + 1] + u * row[i]
    return mat


def poly_det(rows):
    """Determinant of a square matrix of FPolynomials, by cofactor expansion
    along the first row: the reference for the type-A minor and for the
    plane quartic's Laplace expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = FPolynomial.zero(rows[0][0].nvars)
    for j in range(n):
        if rows[0][j]:
            minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
            cof = rows[0][j] * poly_det(minor)
            acc = acc + (cof if j % 2 == 0 else -cof)
    return acc


def type_a_minor(rank, gamma, matrix):
    """The principal generalized minor at gamma as an ordinary minor.

    In type A, V(omega_k) is the k-th exterior power of the standard
    representation, and an extreme weight gamma = sum of epsilon_j over J
    spans the line of e_J; the minor uses rows and columns J.  J is read off
    gamma's epsilon-coordinates, a 0/1 pattern up to an overall shift.
    """
    eps = [0] * (rank + 1)
    for k in range(rank - 1, -1, -1):
        eps[k] = eps[k + 1] + gamma[k]
    low = min(eps)
    assert all(x - low in (0, 1) for x in eps), f"{gamma} is not extreme"
    subset = [k for k, x in enumerate(eps) if x > low]
    return poly_det([[matrix[r][c] for c in subset] for r in subset])


def apply_word_inverse(rs, word, weight):
    """Apply c^{-1} = s_{i_n} ... s_{i_1} for c = s_{i_1} ... s_{i_n}, one
    reflection at a time: the reference for `solve_gamma`'s triangular solve."""
    w = tuple(weight)
    for i in word:
        w = simple_reflection(rs, i, w)
    return w


def solve_gamma_by_reflections(rs, word, alpha):
    """(gamma, orbit index) by whole Cartan rows: the triangular solve adds
    every row it takes, and the walk to the dominant chamber applies
    `simple_reflection` at the first negative coordinate each time.  The
    reference for `solve_gamma`'s neighbour updates and its stack walk; a
    gamma in no fundamental orbit gives `solve_gamma`'s error text."""
    solved, applied = [0] * rs.rank, [0] * rs.rank
    for j in word:
        solved[j] = -alpha[j] - applied[j]
        applied = [x + alpha[j] * c for x, c in zip(applied, rs.cartan[j])]
    gamma = w = tuple(solved)
    while any(x < 0 for x in w):
        w = simple_reflection(rs, next(i for i, x in enumerate(w) if x < 0), w)
    if sum(w) != 1:
        return f"gamma {gamma} lies in no fundamental orbit"
    return gamma, w.index(1)


def weyl_orbit(rs, weight):
    """Full Weyl-group orbit by closure under simple reflections: the
    reference for `solve_gamma`'s walk to the dominant chamber."""
    start = tuple(weight)
    seen = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        for i in range(rs.rank):
            nxt = simple_reflection(rs, i, w)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def bipartite_word(rs):
    """One colour class of the diagram, then the other."""
    colour = {0: 0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for a, b in rs.edges():
            for x, y in ((a, b), (b, a)):
                if x == v and y not in colour:
                    colour[y] = 1 - colour[v]
                    frontier.append(y)
    return tuple(sorted(range(rs.rank), key=lambda v: (colour[v], v)))

