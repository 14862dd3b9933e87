"""Seeded general representations, the positivity scan, and the quartic demo.

`example4_*` is the pipeline around the generalized Kronecker quiver with
four parallel arrows: a general representation of dimension vector (3, 4)
has Gr_{(1,3)} isomorphic to a degree-4 plane curve, whose Euler
characteristic is -4 by the genus-degree formula once smoothness is
witnessed.  Its point counts are not polynomial in q, so the interpolation
route must reject it; this module verifies all of that explicitly.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import Sequence

from .errors import (
    CountMismatch,
    DegenerateForm,
    NonPolynomialCount,
    NotAcyclic,
    SmoothnessFailure,
)
from .euler import _sampling, euler_characteristic, iter_box_chi
from .fpoly import FPolynomial
from .linalg import matvec_mod, rank_mod
from .model import Quiver, Representation, _as_int, _check_dims, _random_representation
from .subspaces import count_subreps

EXAMPLE4_ARROWS = 4
EXAMPLE4_DIMS = (3, 4)
EXAMPLE4_E = (1, 3)
EXAMPLE4_PRIMES = (5, 7, 11)


def sample_general_rep(quiver: Quiver, dims: Sequence[int], seed: int,
                       bound: int = 5) -> Representation:
    """Deterministic pseudo-random integer representation.

    Entries are drawn uniformly from [-bound, bound], arrow by arrow in
    arrow order, row-major inside each matrix, from a generator seeded with
    `seed`; identical inputs always reproduce identical matrices.  A
    dimension vector of the wrong length or with a negative entry raises
    ShapeMismatch before anything is drawn.
    """
    seed = _as_int(seed, "seed")
    bound = _as_int(bound, "bound")
    if bound < 2:
        raise ValueError("bound must be at least 2")
    dims = tuple(_as_int(d, "dimension") for d in dims)
    _check_dims(quiver, dims)
    return _random_representation(quiver, dims, random.Random(seed), bound)


def is_example4_shape(rep: Representation) -> bool:
    """Whether rep lives on the 4-arrow Kronecker quiver at dims (3, 4)."""
    q = rep.quiver
    return (q.n == 2 and len(q.arrows) == EXAMPLE4_ARROWS
            and all(a == (0, 1) for a in q.arrows) and rep.dims == EXAMPLE4_DIMS)


def _signed_products(triples) -> dict:
    """sum of sign * f * g over (f, g, sign), forms in v1..v3 held as
    {exponent: coefficient}."""
    out: dict = {}
    for f, g, sign in triples:
        for a, x in f.items():
            for b, y in g.items():
                exp = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                out[exp] = out.get(exp, 0) + sign * x * y
    return out


def example4_quartic(rep: Representation) -> FPolynomial:
    """The determinantal plane quartic f(v) = det[phi_1 v | ... | phi_4 v].

    The vanishing locus is exactly the set of lines span(v) in the first
    space whose four images fit inside some 3-dimensional subspace of the
    second.  Entry (r, k) of the matrix is row r of phi_k, a linear form in
    v1..v3 with integer coefficients, and the determinant is the Laplace
    expansion along rows 1-2: over the six pairs of columns, the 2 x 2
    minor of rows 1-2 times the complementary minor of rows 3-4, with sign
    (-1)^(3 + the two column indices, counted from 1).  Raises
    DegenerateForm when f vanishes identically (resample), and ValueError
    on a non-integer entry.
    """
    if not is_example4_shape(rep):
        raise ValueError("expected the 4-arrow Kronecker quiver with dims (3, 4)")
    if not all(isinstance(x, int) for mat in rep.matrices for row in mat for x in row):
        raise ValueError("the quartic is built from integer matrices")
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    forms = [[dict(zip(units, rep.matrices[k][r])) for k in range(EXAMPLE4_ARROWS)]
             for r in range(4)]

    def minor(r, a, b):  # rows r, r + 1 and columns a, b
        return _signed_products(((forms[r][a], forms[r + 1][b], 1),
                                 (forms[r][b], forms[r + 1][a], -1)))

    expansion = []
    for a, b in combinations(range(4), 2):
        c, d = (k for k in range(4) if k not in (a, b))
        expansion.append((minor(0, a, b), minor(2, c, d), 1 if (a + b) % 2 else -1))
    f = FPolynomial(3, _signed_products(expansion))
    if not f:
        raise DegenerateForm("determinantal form vanished identically; resample")
    assert f.is_homogeneous(4)
    return f


def _projective_plane(p: int):
    for a, b in product(range(p), repeat=2):
        yield (1, a, b)
    for b in range(p):
        yield (0, 1, b)
    yield (0, 0, 1)


def _curve_points(f: FPolynomial, p: int) -> list[tuple[int, int, int]]:
    """The points of f = 0 in P^2(F_p), in `_projective_plane` order.

    f is reduced mod p once and restricted to each line (x0, x1, t) of that
    order, a quartic in t whose coefficient of t^k is sum_{i + j = 4 - k}
    c_ijk x0^i x1^j, tested by Horner.  The partials are evaluated at curve
    points only; the first where they all vanish raises SmoothnessFailure.
    """
    by_power: list[list] = [[] for _ in range(5)]
    for (i, j, k), coef in f.terms.items():
        if coef % p:
            by_power[k].append((i, j, coef % p))
    partials = [f.partial(i) for i in range(3)]
    curve, line = [], None
    for v in _projective_plane(p):
        x0, x1, t = v
        if (x0, x1) != line:
            line = (x0, x1)
            coeffs = [sum(c * x0 ** i * x1 ** j for i, j, c in terms)
                      for terms in reversed(by_power)]
        value = 0
        for c in coeffs:
            value = value * t + c
        if value % p == 0:
            curve.append(v)
            if all(g.evaluate(v) % p == 0 for g in partials):
                raise SmoothnessFailure(p, v)
    return curve


def example4_verify(rep: Representation, primes: Sequence[int],
                    cap: int | None = None) -> dict:
    """The quartic, smoothness witnesses, curve/Grassmannian point-count match, chi.

    `example4_quartic` raises unless f is a nonzero quartic, so the report's
    `is_quartic` is always true.  chi = -4 comes from the genus-degree
    formula (genus 3 for a smooth plane quartic, chi = 2 - 2g), and is only
    reported when every requested prime delivered a smoothness witness and a
    point-count match; with no primes chi is withheld, and a prime given
    twice is checked once.  At each prime the Grassmannian is counted
    first, under the cap, and then the curve points come from a
    line-by-line scan of f mod p (`_curve_points`), which raises
    SmoothnessFailure at the first singular point in `_projective_plane`
    order; a curve point v is a Grassmannian point when its four images
    phi_k v have rank 3.  The scan visits p^2 + p + 1
    points, so a prime too large for the cap is refused before it.  The
    report also records that the interpolation route rejects this input
    with NonPolynomialCount.
    """
    f = example4_quartic(rep)
    report: dict = {
        "is_quartic": True,  # example4_quartic returns a nonzero quartic or raises
        "quartic": f.to_text(names=("v1", "v2", "v3")),
        "smooth_over_each_p": {},
        "point_count_match": {},
        "chi": None,
    }
    if not primes:
        return report
    for p in sorted({_as_int(q, "prime") for q in primes}):
        rep_p = _sampling(rep).reduction(p)
        grass = count_subreps(rep_p, EXAMPLE4_E, cap).count
        curve = _curve_points(f, p)
        report["smooth_over_each_p"][p] = True
        deficient = [v for v in curve
                     if rank_mod([matvec_mod(phi, v, p) for phi in rep_p.matrices], p) != 3]
        match = not deficient and grass == len(curve)
        report["point_count_match"][p] = {
            "curve_points": len(curve),
            "grassmannian_points": grass,
            "rank_deficient_points": [list(v) for v in deficient],
            "match": match,
        }
        if not match:
            detail = (f"curve has {len(curve)} points, Grassmannian {grass}"
                      + (f", rank-deficient points {deficient}" if deficient else ""))
            raise CountMismatch(p, detail)
    try:
        euler_characteristic(rep, EXAMPLE4_E, cap)
    except NonPolynomialCount:
        report["non_polynomial_cross_check"] = True
    else:
        report["non_polynomial_cross_check"] = False
        raise CountMismatch(0, "interpolation route unexpectedly accepted the "
                               "quartic input as polynomial-count")
    report["chi"] = -4  # genus-degree: g = (4-1)(4-2)/2 = 3, chi = 2 - 2g
    return report


def positivity_scan(rep: Representation, require_rigid: bool = True,
                    cap: int | None = None) -> dict:
    """chi over every 0 <= e <= dims for an indecomposable, flagging negatives.

    hom(M, M) is dim End_Q(M) and the rigidity verdict is read with it, both
    from the sampling context (`euler._Sampling.end` and `rigid`).  Rigid
    indecomposables on acyclic quivers must come out all-nonnegative.
    Dimension vectors whose counts are not polynomial are recorded under
    `refused`; when the input is the 4-arrow (3, 4) quartic configuration,
    the known chi = -4 is forwarded from example4_verify as the documented
    non-rigid counterexample.
    """
    if not rep.quiver.is_acyclic:
        raise NotAcyclic("positivity scan expects an acyclic quiver")
    sampling = _sampling(rep)
    if sampling.end() != 1:
        raise ValueError("positivity scan expects an indecomposable (hom(M, M) = 1)")
    rigid = sampling.rigid()
    if require_rigid and not rigid:
        raise ValueError("representation is not rigid; pass require_rigid=False")
    entries = []
    negatives = []
    refused = []
    for e, chi, err in iter_box_chi(rep, cap):
        if err is not None:
            refused.append({"e": list(e), "error": str(err)})
            continue
        entries.append({"e": list(e), "chi": chi})
        if chi < 0:
            negatives.append({"e": list(e), "chi": chi})
    report = {
        "dims": list(rep.dims),
        "rigid": rigid,
        "entries": entries,
        "negatives": negatives,
        "refused": refused,
        "all_nonnegative": not negatives,
    }
    if refused and is_example4_shape(rep):
        if any(tuple(r["e"]) == EXAMPLE4_E for r in refused):
            verified = example4_verify(rep, EXAMPLE4_PRIMES, cap)
            report["forwarded_chi"] = {"e": list(EXAMPLE4_E), "chi": verified["chi"]}
    return report
