"""Exact dense linear algebra over prime fields and the rationals.

Matrices are tuples (or lists) of row tuples.  Prime-field elements are ints
in [0, p); rational entries are ints or fractions.Fraction.  Everything here
is exact: no floating point.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.2e18."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_primes() -> Iterator[int]:
    """3, 5, 7, 11, ... (2 is never used as a sampling prime)."""
    n = 3
    while True:
        if is_prime(n):
            yield n
        n += 2


def inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


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
    inv = inv_mod(x, p)
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
    lead columns of the earlier ones; no scaling, no back-substitution."""
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


def pencil_rank_histogram(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
                          p: int) -> dict[int, int]:
    """How many t in F_p give each rank of the pencil a + t*b (entries in [0, p)).

    Peeling: rows with b = 0 are constant; let C be their span.  The other
    rows are reduced modulo C's RREF, a and b alike, and brought to echelon
    form in b with unit leads, the same steps applied to a.  A row whose b
    vanishes on the way is constant too and joins C, and this repeats until
    the s rows x + t*y left over have b parts independent modulo C.  Each
    step (adding t times a constant row included) is a row operation at
    every t, so the rank is r0 = dim C plus the rank of those s rows, which
    vanish at C's pivot columns and so meet C only in 0.

    Let P be the lead columns of the y.  Y_P is unit upper triangular, so
    det(X_P + t*Y_P) is monic of degree s in t, and wherever it does not
    vanish the rank is r0 + s.  For s = 1, 2 its roots in F_p come from its
    closed form or one scan over t; so the work grows with p only in that
    scan.  For s = 2 a root at which one more 2 x 2 minor survives (on the
    second lead column and the last column outside P) keeps the rank
    r0 + 2 as well; on Kronecker m = 4 blocks most roots do.  Otherwise the moving rows go through fraction-free elimination
    on value vectors, whose length grows with p: as in `rank_mod`,
    but an entry is its vector of values over t in F_p, and the leads and
    the steps v -> h*v - c*row are shared by all t; where no lead h
    vanishes every step is invertible and the rank is r0 plus the number
    of kept rows.  Either way only the exceptional t get a direct
    `rank_mod`, of the moving rows.  The counts sum to p.
    """
    rows, pivots = rref_mod([ra for ra, rb in zip(a, b) if not any(rb)], p)
    moving = [(ra, rb) for ra, rb in zip(a, b) if any(rb)]
    while True:
        basis: list = []  # (lead, x, y): y[lead] = 1, later rows vanish at earlier leads
        constant = []
        for x, y in moving:
            if rows:
                x, y = reduce_mod(x, rows, pivots, p), reduce_mod(y, rows, pivots, p)
            for lead, bx, by in basis:
                c = y[lead]
                if c:
                    x = [(u - c * v) % p for u, v in zip(x, bx)]
                    y = [(u - c * v) % p for u, v in zip(y, by)]
            for lead, h in enumerate(y):
                if h:
                    break
            else:
                constant.append(x)
                continue
            if h != 1:
                h = inv_mod(h, p)
                x, y = [u * h % p for u in x], [u * h % p for u in y]
            basis.append((lead, x, y))
        if not constant:
            break
        for x in constant:
            rows, pivots = rref_insert(rows, pivots, x, p) or (rows, pivots)
        moving = [(x, y) for _, x, y in basis]
    ts = range(p)
    if len(basis) == 1:
        (i, x0, _), = basis
        generic, bad = 1, [-x0[i] % p]
    elif len(basis) == 2:
        (i, x0, y0), (j, x1, y1) = basis  # Y_P = [[1, y0[j]], [0, 1]]
        c1 = (x0[i] + x1[j] - y0[j] * x1[i]) % p
        c0 = (x0[i] * x1[j] - x0[j] * x1[i]) % p
        bad = [t for t in ts if not (t * (t + c1) + c0) % p]
        k = next((k for k in reversed(range(len(x0))) if k != i and k != j), None)
        if k is not None:  # the rank stays 2 at a root where the (j, k) minor survives
            bad = [t for t in bad if not ((x0[j] + t * y0[j]) * (x1[k] + t * y1[k])
                                          - (x0[k] + t * y0[k]) * (x1[j] + t)) % p]
        generic = 2
    else:
        values: list = []  # (lead, values): entry j at t is values[j * p + t]
        for _, x, y in basis:
            n = len(x)
            v = [(u + t * w) % p for u, w in zip(x, y) for t in ts]
            for lead, row in values:
                c = v[lead * p:lead * p + p]
                if any(c):
                    h = row[lead * p:lead * p + p]
                    v = [(g * u - f * w) % p for u, w, g, f in zip(v, row, h * n, c * n)]
            lead = next((j for j in range(n) if any(v[j * p:j * p + p])), None)
            if lead is not None:
                values.append((lead, v))
        generic = len(values)
        bad = {t for lead, row in values for t in ts if not row[lead * p + t]}
    r0 = len(rows)
    hist = {r0 + generic: p - len(bad)}
    for t in bad:
        r = r0 + rank_mod([[(u + t * w) % p for u, w in zip(x, y)] for _, x, y in basis], p)
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
    each row is cleared of denominators and every row is kept primitive."""
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

