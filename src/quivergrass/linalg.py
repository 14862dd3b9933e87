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


def rank_mod(matrix: Iterable[Sequence[int]], p: int) -> int:
    """Rank over F_p by forward elimination: each kept row vanishes at the
    lead columns of the earlier ones; no scaling, no back-substitution.
    Entries may be any integers, reduced mod p as they are eliminated, and
    a matrix with no rows, or with rows of length 0, has rank 0."""
    basis: list = []
    for vec in matrix:
        v = vec
        for lead, row in basis:
            c = v[lead]
            if c:
                h = row[lead]
                v = [(h * a - c * b) % p for a, b in zip(v, row)]
        for lead, x in enumerate(v):
            if x % p:
                basis.append((lead, v))
                break
    return len(basis)


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a in F_p (p an odd prime), or None when a is not a
    square: Euler's criterion, then Tonelli-Shanks.  With p - 1 = q * 2^m, q
    odd, x = a^((q+1)/2) gives x^2 = a * a^q, and each round of the loop
    halves the 2-power order of the error a^q by a power of a generator z^q
    of the 2-Sylow subgroup (z any non-square).  For p = 3 mod 4 the loop
    does not run."""
    a %= p
    if a == 0:
        return 0
    q, m = p - 1, 0
    while q % 2 == 0:
        q //= 2
        m += 1
    x, err = pow(a, (q + 1) // 2, p), pow(a, q, p)
    if pow(err, 1 << (m - 1), p) != 1:  # a^((p-1)/2), Euler's criterion
        return None
    if err != 1:
        c = pow(next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1), q, p)
    while err != 1:
        i, e2 = 0, err
        while e2 != 1:
            e2 = e2 * e2 % p
            i += 1
        g = pow(c, 1 << (m - i - 1), p)
        m, c = i, g * g % p
        x, err = x * g % p, err * c % p
    return x


def _quadratic_roots(c1: int, c0: int, p: int) -> list[int]:
    """The roots t in F_p of t^2 + c1*t + c0, by the root formula for odd p
    and by trying both elements for p = 2, where it has none."""
    if p == 2:
        return [t for t in (0, 1) if not (t * (t + c1) + c0) % 2]
    r = _sqrt_mod(c1 * c1 - 4 * c0, p)
    if r is None:
        return []
    half = (p + 1) // 2  # 1/2 in F_p
    return [(r - c1) * half % p, (-r - c1) * half % p] if r else [-c1 * half % p]


def _peel(a, b, c, p):
    """The t-independent span of the plane a + t*b + u*c, peeled off: (rank
    of the constant span C, moving rows (lead, x, y, z)), or None when the
    constant span would move with u.  c is None for a line, and then z = 0.

    Rows with b = 0 are constant and span C.  The other rows are reduced
    modulo C's RREF, x = a, y = b and z = c alike, and brought to echelon
    form in y with unit leads, the same steps applied to x and z.  A row
    whose y vanishes on the way is constant too and joins C, and this
    repeats until the rows x + t*y + u*z left over have y independent
    modulo C; they vanish at C's pivot columns and so meet C only in 0.
    Each step (adding t or u times a constant row included) is a
    row operation at every (t, u), because it depends on y and C alone; so
    at each u the moving rows are the ones a line through a + u*c would
    peel.  A constant row that moves with u (a b = 0 row with c != 0, or a
    vanished y whose z does not vanish) makes C depend on u: then None.
    """
    if c is not None and any(any(rc) for rb, rc in zip(b, c) if not any(rb)):
        return None
    rows, pivots = rref_mod([ra for ra, rb in zip(a, b) if not any(rb)], p)
    moving = [row for row in zip(a, b, c or [None] * len(a)) if any(row[1])]
    while True:
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
                if z and any(z):
                    return None
                constant.append(x)
                continue
            if h != 1:
                h = pow(h, -1, p)
                x, y = [u * h % p for u in x], [u * h % p for u in y]
                z = z and [u * h % p for u in z]
            basis.append((lead, x, y, z))
        if not constant:
            break
        for x in constant:
            rows, pivots = rref_insert(rows, pivots, x, p) or (rows, pivots)
        moving = [row[1:] for row in basis]
    zero = (0,) * len(a[0]) if a else ()
    return len(rows), [(lead, x, y, z or zero) for lead, x, y, z in basis]


def _roots(basis, us, p: int) -> Iterator[tuple]:
    """(u, generic rank, the t that may drop it) of the peeled rows
    x + u*z + t*y at each u in us: the roots of det(X_P + t*Y_P), P the
    lead columns, for one or two rows, and every t for more."""
    if len(basis) == 1:
        (i, x, _, z), = basis
        for u in us:
            yield u, 1, [-(x[i] + u * z[i]) % p]
    elif len(basis) == 2:
        (i, x0, y0, z0), (j, x1, y1, z1) = basis  # Y_P = [[1, y0[j]], [0, 1]]
        k = next((k for k in reversed(range(len(x0))) if k != i and k != j), None)
        for u in us:
            x0i, x0j = x0[i] + u * z0[i], x0[j] + u * z0[j]
            x1i, x1j = x1[i] + u * z1[i], x1[j] + u * z1[j]
            bad = _quadratic_roots(x0i + x1j - y0[j] * x1i, x0i * x1j - x0j * x1i, p)
            if bad and k is not None:  # the rank stays 2 at a root where the (j, k) minor survives
                x0k, x1k = x0[k] + u * z0[k], x1[k] + u * z1[k]
                bad = [t for t in bad if not ((x0j + t * y0[j]) * (x1k + t * y1[k])
                                              - (x0k + t * y0[k]) * (x1j + t)) % p]
            yield u, 2, bad
    else:  # three or more rows: every t is ranked directly; no rows: none is
        for u in us:
            yield u, len(basis), range(p) if basis else ()


def pencil_rank_histogram(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
                          p: int, c: Sequence[Sequence[int]] | None = None) -> dict[int, int]:
    """How many t in F_p give each rank of the pencil a + t*b, or, given c,
    how many (t, u) in F_p^2 give each rank of the plane a + t*b + u*c
    (entries in [0, p)).

    `_peel` takes off the span C of the t-independent rows, once for the
    whole plane; the rank is r0 = dim C plus the rank of the s rows
    x + u*z + t*y left over, whose y are independent modulo C.  Let P be
    their lead columns.  Y_P is unit upper triangular, so det(X_P + u*Z_P +
    t*Y_P) is monic of degree s in t, and wherever it does not vanish the
    rank is r0 + s.  For s = 1 the root is linear in u; for s = 2 the roots
    of t^2 + c1(u)*t + c0(u) come from the root formula (`_sqrt_mod`), so
    each u costs O(1).  For s = 2 a root at which one more 2 x 2 minor
    survives (on the second lead column and the last column outside P)
    keeps the rank r0 + 2 as well; on Kronecker m = 4 blocks most roots do.
    Only these exceptional (t, u) get a direct `rank_mod`, of the moving
    rows; with three or more moving rows every (t, u) does.  When C would
    move with u, each u is ranked as a line of its own.  The counts sum to
    p, or p^2 given c.
    """
    peeled = _peel(a, b, c, p)
    if peeled is None:  # C moves with u: each u is a line
        hist: dict = {}
        for u in range(p):
            line = [[(x + u * z) % p for x, z in zip(ra, rc)] for ra, rc in zip(a, c)]
            for r, k in pencil_rank_histogram(line, b, p).items():
                hist[r] = hist.get(r, 0) + k
        return hist
    r0, basis = peeled
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
# Rank over Q, fraction-free.
# ---------------------------------------------------------------------------

def _primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def rank_frac(matrix: Iterable[Sequence]) -> int:
    """Rank over Q by fraction-free forward elimination, as in `rank_mod`:
    each row is cleared of denominators and every row is kept primitive.
    A matrix with no rows, or with rows of length 0, has rank 0."""
    basis: list = []
    for vec in matrix:
        scale = lcm(*(x.denominator for x in vec))
        v = _primitive([int(x * scale) for x in vec])
        for lead, row in basis:
            c = v[lead]
            if c:
                h = row[lead]
                v = _primitive([h * a - c * b for a, b in zip(v, row)])
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            basis.append((lead, v))
    return len(basis)

