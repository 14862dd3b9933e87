"""Exact dense linear algebra over prime fields and the rationals.

Matrices are tuples (or lists) of row tuples.  Prime-field elements are ints
in [0, p); rational entries are ints or fractions.Fraction.  Everything here
is exact: no floating point.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
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


def matvec_mod(matrix: Sequence[Sequence[int]], vec: Sequence[int], p: int) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in matrix)


def in_span_mod(rows, pivots, vec, p: int) -> bool:
    return not any(reduce_mod(vec, rows, pivots, p))


# ---------------------------------------------------------------------------
# Rational elimination (Fraction-exact).
# ---------------------------------------------------------------------------

def rref_frac(matrix: Iterable[Sequence]):
    """RREF over Q; returns (rows of Fractions, pivots)."""
    rows: list = []
    pivots: list = []
    for vec in matrix:
        v = [Fraction(x) for x in vec]
        for row, c in zip(rows, pivots):
            coeff = v[c]
            if coeff:
                v = [a - coeff * b for a, b in zip(v, row)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = 1 / v[lead]
        v = [x * inv for x in v]
        for i, (row, c) in enumerate(zip(rows, pivots)):
            coeff = row[lead]
            if coeff:
                rows[i] = [a - coeff * b for a, b in zip(row, v)]
        at = next((i for i, c in enumerate(pivots) if c > lead), len(pivots))
        rows.insert(at, v)
        pivots.insert(at, lead)
    return tuple(tuple(r) for r in rows), tuple(pivots)


def rank_frac(matrix: Iterable[Sequence]) -> int:
    return len(rref_frac(matrix)[0])


def solve_frac(matrix: Sequence[Sequence], rhs: Sequence):
    """Unique solution of a square system over Q, or None if singular."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    rows, pivots = rref_frac(aug)
    if len(rows) != n or any(c >= n for c in pivots):
        return None
    sol = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        sol[c] = row[n]
    return tuple(sol)
