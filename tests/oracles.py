"""Independent brute-force oracles for cross-checking the engines.

Everything here deliberately avoids the library's echelon code paths:
subspaces are handled as literal sets of vectors, so agreement with the
engine is meaningful evidence and not an identity check.  The Dynkin oracles
count no points at all: thin F-polynomials come from closed subsets, and the
type-A minor is an ordinary minor of an explicit (rank+1) x (rank+1) matrix.
"""

from fractions import Fraction
from itertools import combinations, product

from quivergrass.fpoly import FPolynomial, poly_det


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
