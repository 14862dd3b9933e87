"""Exact dense linear algebra over prime fields and the rationals.

Matrices are tuples (or lists) of row tuples.  Prime-field elements are ints
in [0, p); rational entries are ints or fractions.Fraction.  Everything here
is exact: no floating point.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Sequence


def is_prime(n: int) -> bool:
    """Trial division; every caller keeps n below 2^31 (`model.MAX_PRIME`)."""
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def odd_primes() -> Iterator[int]:
    """3, 5, 7, 11, ... (2 is never used as a sampling prime)."""
    n = 3
    while True:
        if is_prime(n):
            yield n
        n += 2


# ---------------------------------------------------------------------------
# Reduced row echelon form over F_p.
# Conventions: rows are basis vectors, pivots are strictly increasing column
# indices, pivot entries are 1, and pivot columns vanish in all other rows.
# Two equal row spans therefore have bit-identical (rows, pivots).
# ---------------------------------------------------------------------------

def reduce_mod(vec: Sequence[int], rows: Sequence[Sequence[int]],
               pivots: Sequence[int], p: int) -> list[int]:
    """Residual of vec after eliminating against an RREF basis."""
    v = list(vec)
    for row, c in zip(rows, pivots):
        coeff = v[c]
        if coeff:
            v = [(a - coeff * b) % p for a, b in zip(v, row)]
    return v


def rref_insert(rows: tuple, pivots: tuple, vec: Sequence[int], p: int):
    """Insert vec into an RREF basis; returns (rows, pivots) or None if dependent."""
    v = reduce_mod(vec, rows, pivots, p)
    for lead, x in enumerate(v):
        if x:
            break
    else:
        return None
    inv = pow(x, -1, p)
    v = tuple(a * inv % p for a in v)
    # clear the new pivot column in the existing rows, keep pivot order
    cleared = [tuple((a - c * b) % p for a, b in zip(row, v)) if (c := row[lead]) else row
               for row in rows]
    at = bisect_left(pivots, lead)
    cleared.insert(at, v)
    return tuple(cleared), tuple(pivots[:at]) + (lead,) + tuple(pivots[at:])


def rref_mod(matrix: Iterable[Sequence[int]], p: int):
    """Canonical RREF of the row span; returns (rows, pivots)."""
    rows: tuple = ()
    pivots: tuple = ()
    for vec in matrix:
        grown = rref_insert(rows, pivots, [x % p for x in vec], p)
        if grown is not None:
            rows, pivots = grown
    return rows, pivots


def _absorb(rows, pivots, constant, p):
    """C's RREF (rows, pivots) grown by the rows x + u*z of constant, which
    do not move with t, or None when C would move with u.  They are peeled
    in u as `_peel` peels rows in t: z is reduced modulo C and brought to
    echelon form with unit leads, the same steps applied to x, and a row
    whose z vanishes (always, for a line, whose z is None) joins C as x,
    since x + u*z = x modulo C at every u.  This repeats while C grows;
    rows left over then have z independent modulo C, and C moves with u."""
    while constant:
        basis, grew = [], False  # (lead, x, z): z[lead] = 1, later rows vanish at earlier leads
        for x, z in constant:
            if z and any(z):
                z = reduce_mod(z, rows, pivots, p)
                for lead, bx, bz in basis:
                    f = z[lead]
                    if f:
                        x = [(u - f * v) % p for u, v in zip(x, bx)]
                        z = [(u - f * v) % p for u, v in zip(z, bz)]
                lead = next((n for n, h in enumerate(z) if h), None)
                if lead is not None:
                    h = pow(z[lead], -1, p)
                    basis.append((lead, [u * h % p for u in x], [u * h % p for u in z]))
                    continue
            grown = rref_insert(rows, pivots, x, p)
            if grown is not None:
                (rows, pivots), grew = grown, True
        if basis and not grew:
            return None
        constant = [(x, z) for _, x, z in basis]
    return rows, pivots


def _peel(a, b, c, p):
    """The t-independent span of the plane a + t*b + u*c, peeled off: (rank
    of the constant span C, moving rows (lead, x, y, z)), or None when the
    constant span would move with u.  c is None for a line, and then z = 0.

    Rows with b = 0 are constant and span C (`_absorb`).  The other rows
    are reduced modulo C's RREF, x = a, y = b and z = c alike, and brought
    to echelon form in y with unit leads, the same steps applied to x and
    z.  A row whose y vanishes on the way is constant too and joins C, and
    this repeats until the rows x + t*y + u*z left over have y independent
    modulo C; they vanish at C's pivot columns and so meet C only in 0.
    Each step (adding t or u times a constant row included) is a
    row operation at every (t, u), because it depends on y and C alone; so
    at each u the moving rows are the ones a line through a + u*c would
    peel.  Constant rows x + u*z join C by `_absorb`, which gives None when
    C would move with u.  Once C is the whole space, before the first
    round or after any, no row is left to move: (width, []).
    """
    width = len(a[0]) if a else 0
    given = list(zip(a, b, c or [None] * len(a)))
    grown = _absorb((), (), [(x, z) for x, y, z in given if not any(y)], p)
    if grown is None:
        return None
    rows, pivots = grown
    moving = [row for row in given if any(row[1])]
    while len(rows) < width:
        basis: list = []  # (lead, x, y, z): y[lead] = 1, later rows vanish at earlier leads
        constant = []
        for x, y, z in moving:
            if rows:
                x, y = reduce_mod(x, rows, pivots, p), reduce_mod(y, rows, pivots, p)
                z = z and reduce_mod(z, rows, pivots, p)
            for lead, bx, by, bz in basis:
                f = y[lead]
                if f:
                    x = [(u - f * v) % p for u, v in zip(x, bx)]
                    y = [(u - f * v) % p for u, v in zip(y, by)]
                    z = z and [(u - f * v) % p for u, v in zip(z, bz)]
            for lead, h in enumerate(y):
                if h:
                    break
            else:
                constant.append((x, z))
                continue
            if h != 1:
                h = pow(h, -1, p)
                x, y = [u * h % p for u in x], [u * h % p for u in y]
                z = z and [u * h % p for u in z]
            basis.append((lead, x, y, z))
        if not constant:
            zero = (0,) * width
            return len(rows), [(lead, x, y, z or zero) for lead, x, y, z in basis]
        grown = _absorb(rows, pivots, constant, p)
        if grown is None:
            return None
        rows, pivots = grown
        moving = [row[1:] for row in basis]
    return width, []


def _charpoly(m: list, p: int) -> list[int]:
    """det(t*I - m) over F_p, coefficients from t^0 up, the leading 1
    included.  m (a list of lists, overwritten) is brought to upper
    Hessenberg form by similarities: a row swap or row operation, then the
    inverse operation on the columns.  The characteristic polynomials P_k
    of its leading k x k blocks then follow from P_0 = 1 by expanding the
    last column: P_{k+1} = (t - h_kk) P_k - sum_{i<k} h_ik h_{i+1,i} ...
    h_{k,k-1} P_i.  No division by anything but pivots, so p = 2 works."""
    s = len(m)
    for j in range(s - 2):
        i = next((i for i in range(j + 1, s) if m[i][j]), None)
        if i is None:
            continue
        k = j + 1
        if i != k:
            m[i], m[k] = m[k], m[i]
            for row in m:
                row[i], row[k] = row[k], row[i]
        inv = pow(m[k][j], -1, p)
        for i in range(k + 1, s):
            f = m[i][j] * inv % p
            if f:  # row i -= f * row k, then column k += f * column i
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[k])]
                for row in m:
                    row[k] = (row[k] + f * row[i]) % p
    polys = [[1]]
    for k in range(s):
        new = [0] + polys[k]
        for d, x in enumerate(polys[k]):
            new[d] = (new[d] - m[k][k] * x) % p
        sub = 1
        for i in reversed(range(k)):
            sub = sub * m[i + 1][i] % p
            if not sub:
                break
            f = m[i][k] * sub % p
            for d, x in enumerate(polys[i]):
                new[d] = (new[d] - f * x) % p
        polys.append(new)
    return polys[s]


def _roots(basis, us, p: int) -> Iterator[tuple]:
    """(u, generic rank, the t that may drop it) of the peeled rows
    x + u*z + t*y at each u in us: the t in F_p at which the monic
    det(X_P + u*Z_P + t*Y_P) vanishes, P the lead columns, found by
    evaluating it at every t.  Two rows: its coefficients in closed form,
    less the roots at which one more 2 x 2 minor survives.  Any other
    number s of rows: with N_u = Y_P^-1 (X_P + u*Z_P) (Y_P is unit upper
    triangular, so two back substitutions per plane give Y_P^-1 X_P and
    Y_P^-1 Z_P), the determinant is det(t*I + N_u), the characteristic
    polynomial of -N_u (`_charpoly`), evaluated by Horner's rule."""
    s = len(basis)
    if s == 2:
        (i, x0, y0, z0), (j, x1, y1, z1) = basis  # Y_P = [[1, y0[j]], [0, 1]]
        k = next((k for k in reversed(range(len(x0))) if k != i and k != j), None)
        for u in us:
            x0i, x0j = x0[i] + u * z0[i], x0[j] + u * z0[j]
            x1i, x1j = x1[i] + u * z1[i], x1[j] + u * z1[j]
            c1, c0 = x0i + x1j - y0[j] * x1i, x0i * x1j - x0j * x1i
            bad = [t for t in range(p) if not (t * (t + c1) + c0) % p]
            if bad and k is not None:  # the rank stays 2 at a root where the (j, k) minor survives
                x0k, x1k = x0[k] + u * z0[k], x1[k] + u * z1[k]
                bad = [t for t in bad if not ((x0j + t * y0[j]) * (x1k + t * y1[k])
                                              - (x0k + t * y0[k]) * (x1j + t)) % p]
            yield u, 2, bad
    else:
        leads = [lead for lead, _, _, _ in basis]
        solved = []  # per row, its rows of Y_P^-1 X_P and Y_P^-1 Z_P, from the last row up
        for i in reversed(range(s)):
            _, x, y, z = basis[i]
            xs, zs = [x[n] for n in leads], [z[n] for n in leads]
            for (xj, zj), f in zip(solved, (y[n] for n in leads[i + 1:])):
                if f:
                    xs = [(v - f * w) % p for v, w in zip(xs, xj)]
                    zs = [(v - f * w) % p for v, w in zip(zs, zj)]
            solved.insert(0, (xs, zs))
        for u in us:
            poly = _charpoly([[-(v + u * w) % p for v, w in zip(xs, zs)]
                              for xs, zs in solved], p)
            values = [1] * p  # Horner's rule at every t at once
            for f in reversed(poly[:-1]):
                values = [(v * t + f) % p for t, v in enumerate(values)]
            yield u, s, [t for t, v in enumerate(values) if not v]


def pencil_rank_histogram(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
                          p: int, c: Sequence[Sequence[int]] | None = None) -> dict[int, int]:
    """How many t in F_p give each rank of the pencil a + t*b, or, given c,
    how many (t, u) in F_p^2 give each rank of the plane a + t*b + u*c
    (entries in [0, p)).

    `_peel` takes off the span C of the t-independent rows, once for the
    whole plane; once C fills the space no row is left, and with no row
    left every candidate has the rank dim C, returned at once.  The rank is
    r0 = dim C plus the rank of the s rows x + u*z + t*y left over, whose y
    are independent modulo C.  Let P be their lead columns.  Y_P is unit
    upper triangular, so det(X_P + u*Z_P + t*Y_P) is monic of degree s in
    t, and wherever it does not vanish the rank is r0 + s.  `_roots` finds
    the t where it vanishes, for each u, by evaluating it at every element
    of F_p: for s = 2 from its closed-form coefficients, and for any other s
    as the characteristic polynomial of an s x s matrix.  For s = 2 a root
    at which one more 2 x 2 minor survives (on the second lead column and
    the last column outside P) keeps the rank r0 + 2 as well; on Kronecker
    m = 4 blocks most roots do.  Only these exceptional (t, u) get a direct
    `rank_mod`, of the moving rows.  When C would move with u, t and u
    swap roles; when C would move with either, each u is ranked as a line
    of its own.  The counts sum to p, or p^2 given c.
    """
    peeled = _peel(a, b, c, p)
    if peeled is None:  # C moves with u: swap t and u
        peeled = _peel(a, c, b, p)
    if peeled is None:  # C moves with either: each u is a line
        hist: dict = {}
        for u in range(p):
            line = [[(x + u * z) % p for x, z in zip(ra, rc)] for ra, rc in zip(a, c)]
            for r, k in pencil_rank_histogram(line, b, p).items():
                hist[r] = hist.get(r, 0) + k
        return hist
    r0, basis = peeled
    if not basis:  # C fills the space, or nothing moves: one rank everywhere
        return {r0: p if c is None else p * p}
    hist = {}
    for u, generic, bad in _roots(basis, range(p) if c is not None else (0,), p):
        hist[r0 + generic] = hist.get(r0 + generic, 0) + p - len(bad)
        for t in bad:
            r = r0 + rank_mod([[(xk + u * zk + t * yk) % p for xk, yk, zk in zip(x, y, z)]
                               for _, x, y, z in basis], p)
            hist[r] = hist.get(r, 0) + 1
    return {r: k for r, k in hist.items() if k}


def matvec_mod(matrix: Sequence[Sequence[int]], vec: Sequence[int], p: int) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in matrix)


def in_span_mod(rows, pivots, vec, p: int) -> bool:
    return not any(reduce_mod(vec, rows, pivots, p))


# ---------------------------------------------------------------------------
# Forward elimination over F_p and Q; fraction-free Gauss-Jordan and kernels.
# ---------------------------------------------------------------------------

def _cleared(vec: Sequence) -> Sequence[int]:
    """vec cleared of denominators: a row of ints as it is, any other row
    times the lcm of its denominators, as ints."""
    if all(type(x) is int for x in vec):
        return vec
    scale = lcm(*(x.denominator for x in vec))
    return [int(x * scale) for x in vec]


def _primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _forward(matrix: Iterable[Sequence], p: int | None) -> list:
    """Forward elimination over F_p, or over Q for p None: the kept rows as
    (lead, row) pairs, each kept row vanishing at the lead columns of the
    earlier ones; no scaling, no back-substitution.  Over F_p the rows are
    taken as given, any integers, and every combined row is reduced mod p;
    over Q each row is first cleared of denominators (`_cleared`: a row of
    ints takes no Fraction step and no gcd) and every combined row is kept
    primitive."""
    basis: list = []
    for vec in matrix:
        v = vec if p else _cleared(vec)
        for lead, row in basis:
            c = v[lead]
            if c:
                h = row[lead]
                v = ([(h * a - c * b) % p for a, b in zip(v, row)] if p
                     else _primitive([h * a - c * b for a, b in zip(v, row)]))
        for lead, x in enumerate(v):
            if x and (not p or x % p):
                basis.append((lead, v))
                break
    return basis


def rank_mod(matrix: Iterable[Sequence[int]], p: int) -> int:
    """Rank over F_p (`_forward`).  Entries may be any integers, reduced mod
    p as they are eliminated, and a matrix with no rows, or with rows of
    length 0, has rank 0."""
    return len(_forward(matrix, p))


def rank_frac(matrix: Iterable[Sequence]) -> int:
    """Rank over Q (`_forward`) of rows of ints or fractions.  A matrix with
    no rows, or with rows of length 0, has rank 0."""
    return len(_forward(matrix, None))


def gauss_jordan(rows: list, width: int, p: int | None) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows (lists,
    changed in place) on their first width columns, over F_p or, for p
    None, over Q with every combined row made primitive.  Returns the lead
    columns: rows[i] leads at leads[i], where every other row is zero, and
    the rows past the leads are zero on the first width columns."""
    norm = (lambda row: [x % p for x in row]) if p else _primitive
    leads: list[int] = []
    for c in range(width):
        k = len(leads)
        i = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if i is not None:
            rows[k], rows[i] = rows[i], rows[k]
            rows[:] = [norm([rows[k][c] * x - row[c] * y for x, y in zip(row, rows[k])])
                       if s != k and row[c] else row for s, row in enumerate(rows)]
            leads.append(c)
    return leads


def kernel(rows: Sequence[Sequence[int]], leads: Sequence[int], width: int) -> list[list[int]]:
    """A basis of the null space of rows on their first width columns, as
    integer vectors, from the rows and leads that `gauss_jordan` left: per
    non-lead column f, the vector with L at f, -L / rows[i][c] * rows[i][f]
    at each lead c = leads[i] and 0 elsewhere, L the lcm of the lead
    entries.  Row i is zero at every other lead, so it meets the vector in
    rows[i][c] * v_c + rows[i][f] * L = 0.  Over F_p, with entries in
    [0, p), every lead lies in [1, p), so L is a unit and the width -
    len(leads) vectors taken mod p are a basis of the kernel there."""
    big = lcm(*(rows[i][c] for i, c in enumerate(leads)))
    basis = []
    for f in range(width):
        if f not in leads:
            vec = [0] * width
            vec[f] = big
            for i, c in enumerate(leads):
                vec[c] = -big // rows[i][c] * rows[i][f]
            basis.append(vec)
    return basis
