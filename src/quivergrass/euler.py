"""Euler characteristics via verified counting-polynomial interpolation.

chi of a quiver Grassmannian is computed operationally as P(1), where P is
the integer polynomial that matches the exact F_p point counts at enough
primes and survives validation at two held-out primes.  Varieties whose
counts are not polynomial in q (the plane-quartic pipeline of `example4` is
the canonical source) are detected and rejected with NonPolynomialCount.

"Enough" is B + 1 nodes, where B bounds deg P through the arrow ranks (see
`_fibration_bound`).  Walk the vertices in the search order; an arrow
u -> v from an earlier vertex forces dim U_v >= s_v = e_u - dim ker phi_a,
so U_v ranges over at most binom_q(d_v - s_v, e_v - s_v) subspaces, of
degree (e_v - s_v)(d_v - e_v) in q.  B is the smaller of the sums of these
degrees over M at e and over the dual M* at d - e, whose Grassmannian has
the same points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

from . import linalg
from .errors import InsufficientSamples, NonPolynomialCount
from .fpoly import FPolynomial
from .model import Representation, reduce_mod, validate_representation
from .subspaces import _count_many, _routing, count_subreps

HELD_OUT = 2  # validation primes beyond the interpolation nodes


@dataclass(frozen=True)
class CountingPolynomial:
    """Integer polynomial in q reproducing every sampled point count.

    coefficients are ascending; samples are the (prime, count) pairs the
    polynomial was built from and verified against; degree_bound is the
    a-priori bound on the degree that fixed how many samples were fitted.
    """

    coefficients: tuple[int, ...]
    dim_vector: tuple[int, ...] | None
    samples: tuple[tuple[int, int], ...]
    degree_bound: int | None = None

    def evaluate(self, x) -> int:
        total = 0
        for c in reversed(self.coefficients):
            total = total * x + c
        return total

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else 0

    @property
    def chi(self) -> int:
        return self.evaluate(1)


def _lagrange(points: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Exact coefficients (ascending) of the interpolant through the points."""
    coeffs = [Fraction(0)] * len(points)
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = 1
        for xj, _ in points:
            if xj == xi:
                continue
            # multiply basis by (x - xj)
            shifted = [Fraction(0)] + basis
            basis = [s - xj * b for s, b in zip(shifted, basis + [Fraction(0)])]
            denom *= xi - xj
        scale = Fraction(yi, denom)
        for k, b in enumerate(basis):
            coeffs[k] += scale * b
    return coeffs


def _not_polynomial(samples, dim_vector, reason: str) -> NonPolynomialCount:
    where = "" if dim_vector is None else f" at dimension vector {dim_vector}"
    primes = ", ".join(str(p) for p, _ in samples)
    return NonPolynomialCount(f"point counts{where} sampled at primes {primes}: {reason}, "
                              "so they are not polynomial in q")


def interpolate_counting_polynomial(samples: Sequence[tuple[int, int]],
                                    degree_bound: int,
                                    dim_vector: Sequence[int] | None = None
                                    ) -> CountingPolynomial:
    """Fit the first degree_bound+1 samples exactly, then validate the rest.

    Requires at least two held-out samples beyond the interpolation nodes.
    Raises NonPolynomialCount, naming the dimension vector and the sampled
    primes, when the interpolant has a non-integer coefficient or any
    held-out count disagrees.
    """
    samples = [(int(p), int(c)) for p, c in samples]
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    need = degree_bound + 1 + HELD_OUT
    if len(samples) < need:
        raise InsufficientSamples(
            f"need {need} samples for degree {degree_bound} (+{HELD_OUT} held out), "
            f"got {len(samples)}")
    if len({p for p, _ in samples}) != len(samples):
        raise ValueError("sample primes must be distinct")
    dim_vector = tuple(dim_vector) if dim_vector is not None else None
    nodes = samples[:degree_bound + 1]
    coeffs = _lagrange(nodes)
    if any(c.denominator != 1 for c in coeffs):
        raise _not_polynomial(samples, dim_vector, "the interpolant has non-integer coefficients")
    ints = [int(c) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    poly = CountingPolynomial(tuple(ints), dim_vector, tuple(samples), degree_bound)
    for p, count in samples:
        if poly.evaluate(p) != count:
            raise _not_polynomial(samples, dim_vector, f"held-out prime {p} gives {count}, "
                                  f"the interpolant predicts {poly.evaluate(p)}")
    return poly


@lru_cache(maxsize=64)
def _rational_ranks(rep: Representation) -> tuple[int, ...]:
    """Rank over Q of each arrow matrix, shared by `good_primes` and the degree bound."""
    return tuple(linalg.rank_frac(mat) if mat and mat[0] else 0 for mat in rep.matrices)


def _denominator_ok(rep: Representation, p: int) -> bool:
    for mat in rep.matrices:
        for row in mat:
            for x in row:
                if isinstance(x, Fraction) and x.denominator % p == 0:
                    return False
    return True


def _good_reductions(rep: Representation, how_many: int) -> list[tuple[int, Representation]]:
    """The first how_many good primes (see `good_primes`), each with rep reduced mod it."""
    ranks = _rational_ranks(rep)
    out: list[tuple[int, Representation]] = []
    for p in linalg.odd_primes():
        if not _denominator_ok(rep, p):
            continue
        rep_p = reduce_mod(rep, p)
        if all(linalg.rank_mod(mat, p) == r if mat and mat[0] else True
               for mat, r in zip(rep_p.matrices, ranks)):
            out.append((p, rep_p))
            if len(out) == how_many:
                return out
    raise RuntimeError("unreachable: prime stream is infinite")


def good_primes(rep: Representation, how_many: int) -> list[int]:
    """First odd primes at which reduction keeps every matrix at its rank over Q.

    2 is never used; a prime where some matrix drops below its rank over Q
    (or where a denominator vanishes) is skipped and replaced by the next.
    This does not catch a prime at which the isomorphism type of M changes
    while every rank holds, such as a jump of End: R_1 + R_4 on the
    Kronecker quiver (phi1 = I, phi2 = diag(1, 4)) passes at p = 3, where
    its eigenvalues collide and the count at (1, 1) is 4, not 2.
    """
    return [p for p, _ in _good_reductions(rep, how_many)]


def _fibration_bound(rep: Representation) -> Callable[[Sequence[int]], int]:
    """The a-priori bound on the degree of the counting polynomial, as a function of e.

    Walk the vertices in the search order of `subspaces` (topological, else by
    index).  For each vertex v let s_v be the largest of 0 and of
    e_u - (d_u - rank_Q phi_a) over the arrows a: u -> v with u earlier in the
    order.  The forward bound is sum_v max(0, e_v - s_v) * (d_v - e_v); the
    backward bound is the same quantity for the dual on the opposite quiver
    at d - e (transposes keep their ranks).  The bound is the smaller one.

    Why it is sound: take a prime at which every phi_a keeps its rank over Q,
    which `good_primes` checks.  Given the earlier vertices, U_v contains the
    span forced by their images, of dimension f >= s_v, so U_v ranges over
    at most binom_q(d_v - f, e_v - f) subspaces, a number non-increasing in
    f.  Hence #Gr_e(M)(F_q) <= prod_v binom_q(d_v - s_v, e_v - s_v), and a
    polynomial matching the counts at infinitely many primes has degree at
    most sum_v (e_v - s_v)(d_v - e_v).  Gr_{d-e}(M*) has the same points, so
    the backward bound holds as well.

    The ranks, the orders and the arrows that count are worked out once here;
    the returned function is arithmetic over the arrows.
    """
    ranks = _rational_ranks(rep)
    dims = rep.dims

    def forcing(quiver) -> list[tuple[int, int, int]]:
        pos = {v: i for i, v in enumerate(_routing(quiver).order)}
        return [(u, v, dims[u] - r) for (u, v), r in zip(quiver.arrows, ranks)
                if pos[u] < pos[v]]

    def one_side(arrows, e) -> int:
        forced = [0] * len(dims)
        for u, v, kernel in arrows:
            forced[v] = max(forced[v], e[u] - kernel)
        return sum(max(0, x - s) * (d - x) for x, s, d in zip(e, forced, dims))

    forward, backward = forcing(rep.quiver), forcing(rep.quiver.opposite())
    return lambda e: min(one_side(forward, e),
                         one_side(backward, [d - x for d, x in zip(dims, e)]))


def counting_polynomial(rep: Representation, e: Sequence[int],
                        cap: int | None = None) -> CountingPolynomial:
    """Sample, interpolate, and validate the point-count polynomial for e."""
    validate_representation(rep)
    e = tuple(int(x) for x in e)
    if len(e) != rep.n or any(not 0 <= x <= d for x, d in zip(e, rep.dims)):
        raise ValueError(f"dimension vector {e} outside the box of {rep.dims}")
    degree_bound = _fibration_bound(rep)(e)
    samples = [(p, count_subreps(rep_p, e, cap).count)
               for p, rep_p in _good_reductions(rep, degree_bound + 1 + HELD_OUT)]
    return interpolate_counting_polynomial(samples, degree_bound, dim_vector=e)


def euler_characteristic(rep: Representation, e: Sequence[int],
                         cap: int | None = None) -> int:
    """chi(Gr_e) as the verified counting polynomial evaluated at q = 1."""
    return counting_polynomial(rep, e, cap).chi


def iter_box_chi(rep: Representation, cap: int | None = None):
    """Yield (e, chi, error) over the whole box, lexicographically.

    chi is None exactly when the counts at e were rejected as non-polynomial,
    in which case `error` carries the NonPolynomialCount.  Each good prime is
    reduced once, and every e that still needs a sample there is counted in
    one `subspaces._count_many` call, which shares the search work across
    the set; e takes the first bound(e) + 1 + HELD_OUT primes.
    """
    validate_representation(rep)
    box = list(product(*(range(d + 1) for d in rep.dims)))
    bound = _fibration_bound(rep)
    need = {e: bound(e) + 1 + HELD_OUT for e in box}
    samples: dict[tuple, list] = {e: [] for e in box}
    for i, (p, rep_p) in enumerate(_good_reductions(rep, max(need.values()))):
        for e, count in _count_many(rep_p, [e for e in box if need[e] > i], cap).items():
            samples[e].append((p, count))
    for e in box:
        try:
            poly = interpolate_counting_polynomial(samples[e], need[e] - 1 - HELD_OUT,
                                                   dim_vector=e)
        except NonPolynomialCount as exc:
            yield e, None, exc
        else:
            yield e, poly.chi, None


def f_polynomial(rep: Representation, cap: int | None = None) -> FPolynomial:
    """Generating polynomial sum_e chi(Gr_e) u^e over the whole box 0 <= e <= dims.

    Zero coefficients are omitted.  The constant term is 1 (the zero
    subrepresentation) and the coefficient at u^dims is 1 (the full one).
    """
    terms: dict[tuple, int] = {}
    for e, chi, err in iter_box_chi(rep, cap):
        if err is not None:
            raise err
        if chi:
            terms[e] = chi
    return FPolynomial(rep.n, terms)
