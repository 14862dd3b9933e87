"""Seeded general representations, smoothness probes, and the quartic demo.

`example4_*` is the pipeline around the generalized Kronecker quiver with
four parallel arrows: a general representation of dimension vector (3, 4)
has Gr_{(1,3)} isomorphic to a degree-4 plane curve, whose Euler
characteristic is -4 by the genus-degree formula once smoothness is
witnessed.  Its point counts are not polynomial in q, so the interpolation
route must reject it; this module verifies all of that explicitly.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Sequence

from .errors import (
    CountMismatch,
    DegenerateForm,
    NonPolynomialCount,
    NotAcyclic,
    SmoothnessFailure,
)
from .euler import _sampling, euler_characteristic, iter_box_chi
from .fpoly import FPolynomial, poly_det
from .linalg import rank_mod
from .model import (
    Quiver,
    Representation,
    _ext1_from_hom,
    euler_form,
    hom_dim,
    reduce_mod,
    sub_and_quotient,
    validate_representation,
)
from .subspaces import count_subreps, iter_subrep_tuples

EXAMPLE4_ARROWS = 4
EXAMPLE4_DIMS = (3, 4)
EXAMPLE4_E = (1, 3)
EXAMPLE4_PRIMES = (5, 7, 11)


def sample_general_rep(quiver: Quiver, dims: Sequence[int], seed: int,
                       bound: int = 5) -> Representation:
    """Deterministic pseudo-random integer representation.

    Entries are drawn uniformly from [-bound, bound], arrow by arrow in
    arrow order, row-major inside each matrix, from a generator seeded with
    `seed`; identical inputs always reproduce identical matrices.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    dims = tuple(int(d) for d in dims)
    rng = random.Random(seed)
    mats = []
    for s, t in quiver.arrows:
        mats.append(tuple(
            tuple(rng.randint(-bound, bound) for _ in range(dims[s]))
            for _ in range(dims[t])))
    rep = Representation(quiver, dims, tuple(mats))
    validate_representation(rep)
    return rep


def smoothness_probe(rep: Representation, e: Sequence[int], p: int,
                     cap: int | None = None) -> dict:
    """Tangent-space dimensions at every F_p-point of Gr_e.

    At a point N the tangent space is Hom(N, M/N); the probe reports the
    multiset of those dimensions next to the Euler-form value <e, d-e>,
    which is the expected dimension for a general representation.  Verdict
    `smooth_consistent` holds iff every tangent dimension equals it.
    """
    if not rep.quiver.is_acyclic:
        raise NotAcyclic("the smoothness probe expects an acyclic quiver")
    e = tuple(int(x) for x in e)
    expected = euler_form(rep.quiver, e, tuple(d - x for d, x in zip(rep.dims, e)))
    rep_p = reduce_mod(rep, p)
    tangents: dict[int, int] = {}
    points = 0
    for sub in iter_subrep_tuples(rep_p, e, cap):
        sub_rep, quot_rep = sub_and_quotient(rep_p, sub)
        dim = hom_dim(sub_rep, quot_rep)
        tangents[dim] = tangents.get(dim, 0) + 1
        points += 1
    return {
        "prime": p,
        "e": list(e),
        "expected_dim": expected,
        "tangent_dims": dict(sorted(tangents.items())),
        "points": points,
        "smooth_consistent": all(d == expected for d in tangents),
    }


def is_example4_shape(rep: Representation) -> bool:
    """Whether rep lives on the 4-arrow Kronecker quiver at dims (3, 4)."""
    q = rep.quiver
    return (q.n == 2 and len(q.arrows) == EXAMPLE4_ARROWS
            and all(a == (0, 1) for a in q.arrows) and rep.dims == EXAMPLE4_DIMS)


def _require_example4_shape(rep: Representation) -> None:
    if not is_example4_shape(rep):
        raise ValueError("expected the 4-arrow Kronecker quiver with dims (3, 4)")


def example4_quartic(rep: Representation) -> FPolynomial:
    """The determinantal plane quartic f(v) = det[phi_1 v | ... | phi_4 v].

    The vanishing locus is exactly the set of lines span(v) in the first
    space whose four images fit inside some 3-dimensional subspace of the
    second.  Raises DegenerateForm when f vanishes identically (resample).
    """
    validate_representation(rep)
    _require_example4_shape(rep)
    vars3 = [FPolynomial.variable(3, c) for c in range(3)]
    matrix = []
    for r in range(4):
        row = []
        for k in range(EXAMPLE4_ARROWS):
            acc = FPolynomial.zero(3)
            for c in range(3):
                coef = rep.matrices[k][r][c]
                if coef:
                    acc = acc + coef * vars3[c]
            row.append(acc)
        matrix.append(row)
    f = poly_det(matrix)
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


def example4_verify(rep: Representation, primes: Sequence[int],
                    cap: int | None = None) -> dict:
    """Degree, smoothness witnesses, curve/Grassmannian point-count match, chi.

    chi = -4 comes from the genus-degree formula (genus 3 for a smooth plane
    quartic, chi = 2 - 2g), and is only reported when every requested prime
    delivered a smoothness witness and a point-count match; with no primes
    the degree is checked and chi is withheld.  The report also records that
    the interpolation route rejects this input with NonPolynomialCount.
    """
    f = example4_quartic(rep)
    report: dict = {
        "is_quartic": f.is_homogeneous(4) and f.total_degree() == 4,
        "quartic": f.to_text(names=("v1", "v2", "v3")),
        "smooth_over_each_p": {},
        "point_count_match": {},
        "chi": None,
    }
    if not report["is_quartic"]:
        raise DegenerateForm("form is not a quartic")
    if not primes:
        return report
    partials = [f.partial(i) for i in range(3)]
    for p in sorted(int(q) for q in primes):
        curve = []
        for v in _projective_plane(p):
            if f.evaluate(v) % p == 0:
                curve.append(v)
                if all(g.evaluate(v) % p == 0 for g in partials):
                    raise SmoothnessFailure(p, v)
        report["smooth_over_each_p"][p] = True
        rep_p = _sampling(rep).reduction(p)
        deficient = []
        for v in curve:
            columns = [
                tuple(sum(rep_p.matrices[k][r][c] * v[c] for c in range(3)) % p
                      for k in range(EXAMPLE4_ARROWS))
                for r in range(4)]
            if rank_mod(columns, p) != 3:
                deficient.append(v)
        grass = count_subreps(rep_p, EXAMPLE4_E, cap).count
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

    Rigid indecomposables on acyclic quivers must come out all-nonnegative.
    Dimension vectors whose counts are not polynomial are recorded under
    `refused`; when the input is the 4-arrow (3, 4) quartic configuration,
    the known chi = -4 is forwarded from example4_verify as the documented
    non-rigid counterexample.
    """
    validate_representation(rep)
    if not rep.quiver.is_acyclic:
        raise NotAcyclic("positivity scan expects an acyclic quiver")
    hom = hom_dim(rep, rep)
    if hom != 1:
        raise ValueError("positivity scan expects an indecomposable (hom(M, M) = 1)")
    rigid = _ext1_from_hom(rep, hom) == 0
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
