"""Euler characteristics via verified counting-polynomial interpolation.

chi of a quiver Grassmannian is computed operationally as P(1), where P is
the integer polynomial that matches the exact F_p point counts at enough
primes and survives validation at two held-out primes.  Varieties whose
counts are not polynomial in q (the plane-quartic pipeline of `example4` is
the canonical source) are detected and rejected with NonPolynomialCount.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from . import linalg
from .errors import InsufficientSamples, NonPolynomialCount
from .fpoly import FPolynomial
from .model import Representation, dual_representation, reduce_mod, validate_representation
from .subspaces import box_prefers_dual, count_subreps, count_subreps_profile

HELD_OUT = 2  # validation primes beyond the interpolation nodes


@dataclass(frozen=True)
class CountingPolynomial:
    """Integer polynomial in q reproducing every sampled point count.

    coefficients are ascending; samples are the (prime, count) pairs the
    polynomial was built from and verified against.
    """

    coefficients: tuple[int, ...]
    dim_vector: tuple[int, ...] | None
    samples: tuple[tuple[int, int], ...]

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


def interpolate_counting_polynomial(samples: Sequence[tuple[int, int]],
                                    degree_bound: int,
                                    dim_vector: Sequence[int] | None = None
                                    ) -> CountingPolynomial:
    """Fit the first degree_bound+1 samples exactly, then validate the rest.

    Requires at least two held-out samples beyond the interpolation nodes.
    Raises NonPolynomialCount when the interpolant has a non-integer
    coefficient or any held-out count disagrees.
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
    nodes = samples[:degree_bound + 1]
    coeffs = _lagrange(nodes)
    if any(c.denominator != 1 for c in coeffs):
        raise NonPolynomialCount(
            "interpolant has non-integer coefficients; the point counts are not "
            "polynomial in q (the `example4` plane-quartic pipeline is the "
            "canonical cause)")
    ints = [int(c) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    poly = CountingPolynomial(tuple(ints),
                              tuple(dim_vector) if dim_vector is not None else None,
                              tuple(samples))
    for p, count in samples:
        if poly.evaluate(p) != count:
            raise NonPolynomialCount(
                f"held-out prime {p} gives {count}, interpolant predicts "
                f"{poly.evaluate(p)}; the point counts are not polynomial in q "
                "(the `example4` plane-quartic pipeline is the canonical cause)")
    return poly


def _matrix_ranks(rep: Representation) -> list[int]:
    return [linalg.rank_frac(mat) if mat and mat[0] else 0 for mat in rep.matrices]


def _denominator_ok(rep: Representation, p: int) -> bool:
    for mat in rep.matrices:
        for row in mat:
            for x in row:
                if isinstance(x, Fraction) and x.denominator % p == 0:
                    return False
    return True


def good_primes(rep: Representation, how_many: int) -> list[int]:
    """First odd primes at which reduction keeps every matrix at full rank.

    2 is never used; a prime where some matrix drops below its rank over Q
    (or where a denominator vanishes) is skipped and replaced by the next.
    """
    ranks = _matrix_ranks(rep)
    out: list[int] = []
    for p in linalg.odd_primes():
        if not _denominator_ok(rep, p):
            continue
        rep_p = reduce_mod(rep, p)
        if all(linalg.rank_mod(mat, p) == r if mat and mat[0] else True
               for mat, r in zip(rep_p.matrices, ranks)):
            out.append(p)
            if len(out) == how_many:
                return out
    raise RuntimeError("unreachable: prime stream is infinite")


def _degree_bound(rep: Representation, e: Sequence[int]) -> int:
    return sum(x * (d - x) for x, d in zip(e, rep.dims))


def counting_polynomial(rep: Representation, e: Sequence[int],
                        cap: int | None = None) -> CountingPolynomial:
    """Sample, interpolate, and validate the point-count polynomial for e."""
    validate_representation(rep)
    e = tuple(int(x) for x in e)
    if len(e) != rep.n or any(not 0 <= x <= d for x, d in zip(e, rep.dims)):
        raise ValueError(f"dimension vector {e} outside the box of {rep.dims}")
    degree_bound = _degree_bound(rep, e)
    primes = good_primes(rep, degree_bound + 1 + HELD_OUT)
    samples = []
    for p in primes:
        rep_p = reduce_mod(rep, p)
        samples.append((p, count_subreps(rep_p, e, cap).count))
    return interpolate_counting_polynomial(samples, degree_bound, dim_vector=e)


def euler_characteristic(rep: Representation, e: Sequence[int],
                         cap: int | None = None) -> int:
    """chi(Gr_e) as the verified counting polynomial evaluated at q = 1."""
    return counting_polynomial(rep, e, cap).chi


def iter_box_chi(rep: Representation, cap: int | None = None):
    """Yield (e, chi, error) over the whole box, lexicographically.

    chi is None exactly when the counts at e were rejected as non-polynomial,
    in which case `error` carries the NonPolynomialCount.  Counting work is
    shared across the fiber of the final search vertex: one enumeration pass
    per prime serves every value of that coordinate.  The whole box is
    searched on rep or on its dual at d - e (`box_prefers_dual`), with
    prefixes of one `good_primes` list.
    """
    validate_representation(rep)
    dims = rep.dims
    box = list(product(*(range(d + 1) for d in dims)))
    primes = good_primes(rep, max(_degree_bound(rep, e) for e in box) + 1 + HELD_OUT)
    backward = box_prefers_dual(rep, primes[-1])
    search = dual_representation(rep) if backward else rep
    final_vertex = (search.quiver.topological_order() or range(rep.n))[-1]
    reduced = [reduce_mod(search, p) for p in primes]
    results: dict[tuple, tuple] = {}
    batched = True
    for base in box:
        if base[final_vertex]:
            continue  # each fiber once, from its member with final coordinate 0
        fiber = [(y, base[:final_vertex] + (y,) + base[final_vertex + 1:])
                 for y in range(dims[final_vertex] + 1)]  # (search coordinate, e)
        if backward:  # e back in rep's coordinates
            fiber = [(y, tuple(d - x for d, x in zip(dims, e))) for y, e in fiber]
        need = max(_degree_bound(rep, e) for _, e in fiber) + 1 + HELD_OUT
        profiles = []
        for p, rep_p in zip(primes[:need] if batched else (), reduced):
            prof = count_subreps_profile(rep_p, base, cap)
            if prof is None:
                batched = False  # constrained final vertex: count per e
                break
            profiles.append((p, prof))
        for y, e in fiber:
            try:
                if batched:
                    deg = _degree_bound(rep, e)
                    samples = [(p, prof[y]) for p, prof in profiles[:deg + 1 + HELD_OUT]]
                    poly = interpolate_counting_polynomial(samples, deg, dim_vector=e)
                else:
                    poly = counting_polynomial(rep, e, cap)
                results[e] = (poly.chi, None)
            except NonPolynomialCount as exc:
                results[e] = (None, exc)
    for e in box:
        yield (e, *results[e])


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
