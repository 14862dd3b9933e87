"""Euler characteristics via verified counting-polynomial interpolation.

chi of a quiver Grassmannian is computed operationally as P(1), where P is
the integer polynomial that matches the exact F_p point counts at enough
primes and survives validation at two held-out primes.  Varieties whose
counts are not polynomial in q (the plane-quartic pipeline of `example4` is
the canonical source) are detected and rejected with NonPolynomialCount.

"Enough" is B + 1 nodes, where B bounds deg P through the arrow ranks (see
`_Sampling.degree_bound`).  Walk the vertices in the search order; an arrow
u -> v from an earlier vertex forces dim U_v >= s_v = e_u - dim ker phi_a,
so U_v ranges over at most binom_q(d_v - s_v, e_v - s_v) subspaces, of
degree (e_v - s_v)(d_v - e_v) in q.  B is the smaller of the sums of these
degrees over M at e and over the dual M* at d - e, whose Grassmannian has
the same points.

Sampling context: everything a count needs from M that does not depend on
e is worked out once per representation and kept in a `_Sampling` (bounded
`lru_cache`, 64 representations, per process).  It holds the arrow ranks
over Q, the arrows that force part of a subspace in either search
direction, and the good primes found so far, each with M reduced mod it.
The prime list grows on demand under a lock, so each (representation,
prime) pair is chosen, reduced and rank-checked once, whichever of
`good_primes`, `counting_polynomial` and `iter_box_chi` asks first, and
from whichever thread.  It holds no dual: the search direction, and with
it the dual of a reduction, belong to `subspaces._count_many`.
Interpolation is exact integer Lagrange over one common denominator.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import lcm, prod
from typing import Sequence

from . import linalg
from .errors import DomainMismatch, InsufficientSamples, NonPolynomialCount
from .fpoly import FPolynomial
from .model import Representation, reduce_mod, validate_representation
from .subspaces import _count_many, _dual_routing, _in_box, _routing

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


def _lagrange(points: Sequence[tuple[int, int]]) -> list[int] | None:
    """Coefficients (ascending) of the interpolant through the points, or None
    when one of them is not an integer.

    With N(x) = prod_k (x - x_k) and w_j = prod_{k != j} (x_j - x_k), the
    interpolant is sum_j y_j (N(x) / (x - x_j)) / w_j.  Over the common
    denominator D = lcm_j |w_j| its numerators are integers, the quotients
    N / (x - x_j) come by synthetic division, and the interpolant is
    integral exactly when D divides every numerator.
    """
    xs = [x for x, _ in points]
    full = [1]  # N, ascending
    for x in xs:
        full = [a - x * b for a, b in zip([0] + full, full + [0])]
    weights = [prod(xi - xj for xj in xs if xj != xi) for xi in xs]
    denom = lcm(*weights)
    numer = [0] * len(points)
    for (xi, yi), w in zip(points, weights):
        scale = yi * (denom // w)
        quotient = 0  # coefficients of N / (x - xi), from the top
        for k in range(len(points), 0, -1):
            quotient = full[k] + xi * quotient
            numer[k - 1] += scale * quotient
    if any(c % denom for c in numer):
        return None
    return [c // denom for c in numer]


def _not_polynomial(samples, dim_vector, reason: str) -> NonPolynomialCount:
    where = "" if dim_vector is None else f" at dimension vector {dim_vector}"
    primes = ", ".join(str(p) for p, _ in samples)
    return NonPolynomialCount(f"point counts{where} sampled at primes {primes}: {reason}, "
                              "so they are not polynomial in q")


@lru_cache(maxsize=256)
def _interpolant(nodes: tuple[tuple[int, int], ...]) -> tuple[int, ...] | None:
    """`_lagrange` through the nodes, trailing zero coefficients dropped.

    Remembered, so that checking samples as they arrive (`_fit`) and the
    final `interpolate_counting_polynomial` fit each set of nodes once.
    """
    ints = _lagrange(nodes)
    if ints is None:
        return None
    while ints and ints[-1] == 0:
        ints.pop()
    return tuple(ints)


def _fit(samples: Sequence[tuple[int, int]], degree_bound: int
         ) -> tuple[tuple[int, ...] | None, str | None]:
    """The one validator: the interpolant through the first degree_bound + 1
    samples, checked against each later one.

    Returns (coefficients, None) when the samples fit, (None, reason) when
    they already prove the counts are not polynomial in q, and (None, None)
    while there are fewer than degree_bound + 1 of them.
    """
    if len(samples) <= degree_bound:
        return None, None
    ints = _interpolant(tuple(samples[:degree_bound + 1]))
    if ints is None:
        return None, "the interpolant has non-integer coefficients"
    poly = CountingPolynomial(ints, None, ())
    for p, count in samples[degree_bound + 1:]:
        if poly.evaluate(p) != count:
            return None, (f"held-out prime {p} gives {count}, "
                          f"the interpolant predicts {poly.evaluate(p)}")
    return ints, None


def interpolate_counting_polynomial(samples: Sequence[tuple[int, int]],
                                    degree_bound: int,
                                    dim_vector: Sequence[int] | None = None
                                    ) -> CountingPolynomial:
    """Fit the first degree_bound+1 samples exactly, then validate the rest.

    Raises NonPolynomialCount, naming the dimension vector and the sampled
    primes, when the interpolant has a non-integer coefficient or a
    held-out count disagrees; samples that already prove that need no more
    beyond them.  Otherwise requires at least two held-out samples beyond
    the interpolation nodes (InsufficientSamples).
    """
    samples = [(int(p), int(c)) for p, c in samples]
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    if len({p for p, _ in samples}) != len(samples):
        raise ValueError("sample primes must be distinct")
    dim_vector = tuple(dim_vector) if dim_vector is not None else None
    ints, reason = _fit(samples, degree_bound)
    if reason is not None:
        raise _not_polynomial(samples, dim_vector, reason)
    need = degree_bound + 1 + HELD_OUT
    if len(samples) < need:
        raise InsufficientSamples(
            f"need {need} samples for degree {degree_bound} (+{HELD_OUT} held out), "
            f"got {len(samples)}")
    return CountingPolynomial(ints, dim_vector, tuple(samples), degree_bound)


class _Sampling:
    """What sampling needs from one representation over Q, worked out once.

    ranks are the arrow ranks over Q; forward and backward are the arrows
    (u, v, dim ker) that force part of U_v in the search order of the quiver
    and of its opposite (see `degree_bound`); found lists the good primes so
    far as (p, rep mod p), extended under the lock.
    """

    def __init__(self, rep: Representation):
        validate_representation(rep)
        if rep.field is not None:
            raise DomainMismatch("representation is already over a prime field")
        self.rep = rep
        self.ranks = tuple(linalg.rank_frac(mat) if mat and mat[0] else 0
                           for mat in rep.matrices)
        self.forward = self._forcing(_routing(rep.quiver), rep.quiver.arrows)
        self.backward = self._forcing(_dual_routing(rep.quiver),
                                      [(v, u) for u, v in rep.quiver.arrows])
        self._primes = linalg.odd_primes()
        self._found: list[tuple[int, Representation]] = []
        self._lock = threading.Lock()

    def _forcing(self, route, arrows) -> tuple[tuple[int, int, int], ...]:
        pos = {v: i for i, v in enumerate(route.order)}
        return tuple((u, v, self.rep.dims[u] - r) for (u, v), r in zip(arrows, self.ranks)
                     if pos[u] < pos[v])

    def reductions(self, how_many: int) -> list[tuple[int, Representation]]:
        """The first how_many good primes (see `good_primes`), each with rep mod p."""
        with self._lock:
            while len(self._found) < how_many:
                p = next(self._primes)
                try:
                    rep_p = reduce_mod(self.rep, p)
                except DomainMismatch:  # a denominator vanishes mod p
                    continue
                if all(linalg.rank_mod(mat, p) == r if mat and mat[0] else True
                       for mat, r in zip(rep_p.matrices, self.ranks)):
                    self._found.append((p, rep_p))
            return self._found[:how_many]

    def reduction(self, p: int) -> Representation:
        """rep mod p: the one held here when p is among the good primes found
        so far, else a fresh `reduce_mod`, which is not kept."""
        with self._lock:
            held = next((rep_p for q, rep_p in self._found if q == p), None)
        return reduce_mod(self.rep, p) if held is None else held

    def degree_bound(self, e: Sequence[int]) -> int:
        """The a-priori bound on the degree of the counting polynomial at e.

        Walk the vertices in the search order of `subspaces` (topological,
        else by index).  For each vertex v let s_v be the largest of 0 and of
        e_u - (d_u - rank_Q phi_a) over the arrows a: u -> v with u earlier
        in the order.  The forward bound is sum_v max(0, e_v - s_v) *
        (d_v - e_v); the backward bound is the same quantity for the dual on
        the opposite quiver at d - e (transposes keep their ranks).  The
        bound is the smaller one.

        Why it is sound: take a prime at which every phi_a keeps its rank
        over Q, which `good_primes` checks.  Given the earlier vertices, U_v
        contains the span forced by their images, of dimension f >= s_v, so
        U_v ranges over at most binom_q(d_v - f, e_v - f) subspaces, a number
        non-increasing in f.  Hence #Gr_e(M)(F_q) <= prod_v binom_q(d_v - s_v,
        e_v - s_v), and a polynomial matching the counts at infinitely many
        primes has degree at most sum_v (e_v - s_v)(d_v - e_v).
        Gr_{d-e}(M*) has the same points, so the backward bound holds as well.
        """
        dims = self.rep.dims

        def one_side(arrows, e) -> int:
            forced = [0] * len(dims)
            for u, v, kernel in arrows:
                forced[v] = max(forced[v], e[u] - kernel)
            return sum(max(0, x - s) * (d - x) for x, s, d in zip(e, forced, dims))

        return min(one_side(self.forward, e),
                   one_side(self.backward, [d - x for d, x in zip(dims, e)]))


@lru_cache(maxsize=64)
def _sampling(rep: Representation) -> _Sampling:
    """The sampling context of rep, shared by every caller in this process."""
    return _Sampling(rep)


def good_primes(rep: Representation, how_many: int) -> list[int]:
    """First odd primes at which reduction keeps every matrix at its rank over Q.

    2 is never used; a prime where some matrix drops below its rank over Q
    (or where a denominator vanishes) is skipped and replaced by the next.
    This does not catch a prime at which the isomorphism type of M changes
    while every rank holds, such as a jump of End: R_1 + R_4 on the
    Kronecker quiver (phi1 = I, phi2 = diag(1, 4)) passes at p = 3, where
    its eigenvalues collide and the count at (1, 1) is 4, not 2.

    The primes, with their reductions, are remembered per representation in
    this process, for the 64 representations used last; nothing is shared
    between processes, so each CLI invocation chooses them afresh.
    """
    return [p for p, _ in _sampling(rep).reductions(how_many)]


def _sample(rep: Representation, bounds: dict[tuple[int, ...], int], cap: int | None
            ) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """(prime, count) samples for every e in bounds (e -> its degree bound), prime by prime.

    e takes the good primes in order until its verdict is known: after
    bound + 1 + HELD_OUT samples, or as soon as `_fit` finds the samples so
    far not polynomial in q.  At each prime every e still sampled is
    counted in one `subspaces._count_many` call, which shares the search
    work across the set.
    """
    samples: dict[tuple, list] = {e: [] for e in bounds}
    pending = list(bounds)
    need = max(bounds.values()) + 1 + HELD_OUT
    for p, rep_p in _sampling(rep).reductions(need):
        if not pending:
            break
        counts = _count_many(rep_p, pending, cap)
        for e in pending:
            samples[e].append((p, counts[e]))
        pending = [e for e in pending if len(samples[e]) < bounds[e] + 1 + HELD_OUT
                   and _fit(samples[e], bounds[e])[1] is None]
    return samples


def counting_polynomial(rep: Representation, e: Sequence[int],
                        cap: int | None = None) -> CountingPolynomial:
    """Sample, interpolate, and validate the point-count polynomial for e.

    Sampling stops at the first prime whose count proves the counts are
    not polynomial in q, and the NonPolynomialCount names only the primes
    sampled up to there.
    """
    sampling = _sampling(rep)
    (e,) = _in_box(rep.dims, [e])
    bound = sampling.degree_bound(e)
    return interpolate_counting_polynomial(_sample(rep, {e: bound}, cap)[e], bound,
                                           dim_vector=e)


def euler_characteristic(rep: Representation, e: Sequence[int],
                         cap: int | None = None) -> int:
    """chi(Gr_e) as the verified counting polynomial evaluated at q = 1."""
    return counting_polynomial(rep, e, cap).chi


def iter_box_chi(rep: Representation, cap: int | None = None):
    """Yield (e, chi, error) over the whole box, lexicographically.

    chi is None exactly when the counts at e were rejected as non-polynomial,
    in which case `error` carries the NonPolynomialCount.  The box is sampled
    as one set (see `_sample`): e takes the first degree_bound(e) + 1 +
    HELD_OUT primes, or fewer when they already reject it.
    """
    sampling = _sampling(rep)
    bounds = {e: sampling.degree_bound(e)
              for e in product(*(range(d + 1) for d in rep.dims))}
    samples = _sample(rep, bounds, cap)
    for e, bound in bounds.items():
        try:
            poly = interpolate_counting_polynomial(samples[e], bound, dim_vector=e)
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
