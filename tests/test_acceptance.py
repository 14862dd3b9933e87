"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings as they happen.
"""

import random
import time
from itertools import product

import pytest

import quivergrass as qg
from quivergrass.errors import NonPolynomialCount
from quivergrass.linalg import rref_mod
from quivergrass.model import (
    Quiver,
    Representation,
    direct_sum,
    reduce_mod,
)
from quivergrass.subspaces import count_subreps

ONE_VERTEX = Quiver(1, ())


def _report(number, budget, started, description):
    elapsed = time.time() - started
    line = f"ACCEPTANCE {number} PASS ({elapsed:.1f}s / budget {budget:.0f}s): {description}"
    print(line)
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_ordinary_grassmannians():
    started = time.time()
    for m in range(7):
        rep = Representation(ONE_VERTEX, (m,), ())
        for e in range(m + 1):
            assert (qg.euler_characteristic(rep, (e,))
                    == qg.ordinary_grassmannian_chi(m, e)), (m, e)
    _report(1, 1.0, started, "pipeline chi == C(m, e) for m <= 6, all e")


def test_criterion_2_kronecker_closed_forms():
    started = time.time()
    kinds = [qg.preprojective(m) for m in (1, 2, 3, 4)]
    kinds += [qg.preinjective(m) for m in (1, 2, 3, 4)]
    kinds += [qg.regular(m, lam)
              for m in (1, 2, 3) for lam in (0, 1, 2, qg.INFINITY)]
    for kind in kinds:
        rep = qg.build_kronecker(kind)
        f = qg.f_polynomial(rep)
        d1, d2 = rep.dims
        for e1 in range(d1 + 1):
            for e2 in range(d2 + 1):
                assert (f.coefficient((e1, e2))
                        == qg.kronecker_chi(kind, (e1, e2))), (kind, e1, e2)
    _report(2, 300.0, started,
            "brute-force chi == closed form for pr/inj m <= 4, reg m <= 3, all e")


def _random_pair(seed):
    """Summands whose componentwise dimension total stays <= 2 per vertex."""
    rng = random.Random(f"acceptance-mult:{seed}")
    n = rng.randint(1, 3)
    arrows = []
    for s in range(n):
        for t in range(s + 1, n):
            for _ in range(rng.randint(0, 2)):
                arrows.append((s, t))
    quiver = Quiver(n, tuple(arrows))
    totals = [rng.randint(0, 2) for _ in range(n)]
    da = tuple(rng.randint(0, t) for t in totals)
    db = tuple(t - a for t, a in zip(totals, da))

    def sample(dims):
        mats = tuple(
            tuple(tuple(rng.randint(-3, 3) for _ in range(dims[s]))
                  for _ in range(dims[t]))
            for s, t in quiver.arrows)
        return Representation(quiver, dims, mats)

    return sample(da), sample(db)


def test_criterion_3_multiplicativity():
    started = time.time()
    for seed in range(20):
        a, b = _random_pair(seed)
        assert (qg.f_polynomial(direct_sum(a, b))
                == qg.f_poly_multiply(qg.f_polynomial(a), qg.f_polynomial(b))), seed
    _report(3, 120.0, started,
            "F(A + B) == F(A) * F(B) for 20 seeded pairs, <= 3 vertices, dims <= 2")


def test_criterion_4_determinantal_formula():
    # A4 (8 orientations, 10 roots) is included on top of A2/A3 for margin
    started = time.time()
    cases = 0
    for rank in (2, 3, 4):
        rs = qg.root_system("A", rank)
        edges = rs.edges()
        for dirs in product((0, 1), repeat=len(edges)):
            quiver = Quiver(rank, tuple(
                (b, a) if d == 0 else (a, b) for (a, b), d in zip(edges, dirs)))
            word = qg.coxeter_from_orientation(rs, quiver)
            for alpha in rs.positive_roots:
                minor = qg.f_polynomial_via_minor(rank, word, alpha)
                rep = qg.dynkin_indecomposable(quiver, alpha)
                assert minor == qg.f_polynomial(rep), (rank, word, alpha)
                cases += 1
    assert cases == 2 * 3 + 4 * 6 + 8 * 10
    _report(4, 300.0, started,
            "minor route == brute force on every orientation and root of A2, A3, A4")


def test_criterion_5_plane_quartic():
    started = time.time()
    rep = qg.sample_general_rep(qg.kronecker_quiver(4), (3, 4), 42, 5)
    report = qg.example4_verify(rep, (5, 7, 11))
    assert report["is_quartic"]
    assert set(report["smooth_over_each_p"]) == {5, 7, 11}
    assert all(pc["match"] for pc in report["point_count_match"].values())
    assert report["chi"] == -4
    with pytest.raises(NonPolynomialCount):
        qg.euler_characteristic(rep, (1, 3))
    _report(5, 60.0, started,
            "seed-42 quartic: smooth at 5/7/11, counts match, chi = -4, "
            "interpolation rejects")


def _ext1(rep):
    """dim Ext^1(M, M) = hom(M, M) - <d, d>, the hereditary identity."""
    return qg.hom_dim(rep, rep) - qg.euler_form(rep.quiver, rep.dims, rep.dims)


def test_criterion_6_rigidity_and_positivity():
    started = time.time()
    for m in (1, 2, 3, 4):
        for kind in (qg.preprojective(m), qg.preinjective(m)):
            rep = qg.build_kronecker(kind)
            assert _ext1(rep) == 0, kind
            scan = qg.positivity_scan(rep)
            assert scan["all_nonnegative"] and not scan["refused"], kind
    reg1 = qg.build_kronecker(qg.regular(1, 1))
    assert _ext1(reg1) == 1
    _report(6, 120.0, started,
            "pr/inj m <= 4 rigid with nonnegative chi scans; reg(1) has ext1 = 1")


def test_criterion_7_property_suites():
    started = time.time()
    # duality at the per-prime point-count level
    corpus = [qg.build_kronecker(k) for k in
              (qg.preprojective(2), qg.preprojective(3),
               qg.preinjective(3), qg.regular(2, 1))]
    for rep in corpus:
        dual = qg.dual_representation(rep)
        for p in (3, 5):
            rp, dp = reduce_mod(rep, p), reduce_mod(dual, p)
            for e in product(*(range(d + 1) for d in rep.dims)):
                comp = tuple(d - x for d, x in zip(rep.dims, e))
                assert (count_subreps(rp, e).count
                        == count_subreps(dp, comp).count), (rep.dims, p, e)
    # normalization of every computed generating polynomial
    for rep in corpus:
        f = qg.f_polynomial(rep)
        assert f.constant_term == 1
        assert f.coefficient(rep.dims) == 1
    # echelon canonicity
    assert rref_mod(((2, 4, 1), (1, 2, 4)), 7) == rref_mod(((3, 6, 5), (1, 2, 4)), 7)
    # Weyl involution
    rs = qg.root_system("A", 4)
    for i in range(4):
        for wt in ((1, 0, 2, -1), (0, 0, 0, 1), (-2, 3, 0, 0)):
            assert qg.simple_reflection(rs, i, qg.simple_reflection(rs, i, wt)) == wt
    # Coxeter bijection round trips on every orientation of A2..A4
    for rank in (2, 3, 4):
        rsn = qg.root_system("A", rank)
        edges = rsn.edges()
        for dirs in product((0, 1), repeat=len(edges)):
            quiver = Quiver(rank, tuple(
                (b, a) if d == 0 else (a, b) for (a, b), d in zip(edges, dirs)))
            word = qg.coxeter_from_orientation(rsn, quiver)
            assert qg.orientation_from_coxeter(rsn, word) == quiver
            assert qg.coxeter_from_orientation(
                rsn, qg.orientation_from_coxeter(rsn, word)) == word
    _report(7, 120.0, started,
            "duality counts, normalization, echelon canonicity, Weyl involution, "
            "Coxeter round trips")
