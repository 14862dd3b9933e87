from fractions import Fraction

import pytest

from quivergrass.errors import OutOfRange
from quivergrass.euler import f_polynomial
from quivergrass.kronecker import (
    INFINITY,
    KroneckerKind,
    binom_ext,
    build_kronecker,
    dims_of,
    kronecker_chi,
    kronecker_quiver,
    ordinary_grassmannian_chi,
    preinjective,
    preprojective,
    regular,
)
from quivergrass.model import hom_dim

from oracles import string_module_chi

STRING_KINDS = ([preprojective(m) for m in range(1, 9)]
                + [preinjective(m) for m in range(1, 9)]
                + [regular(m, lam) for lam in (0, INFINITY, 3) for m in range(1, 9)])


def test_binom_ext_conventions():
    assert binom_ext(-1, 0) == 1
    assert binom_ext(1, -1) == 0
    assert binom_ext(5, 2) == 10
    assert binom_ext(-1, 2) == 1    # (-1)(-2)/2
    assert binom_ext(0, 1) == 0
    assert binom_ext(3, 0) == 1


def test_ordinary_grassmannian_chi():
    assert ordinary_grassmannian_chi(4, 2) == 6
    assert ordinary_grassmannian_chi(3, 0) == 1
    assert ordinary_grassmannian_chi(3, 5) == 0
    assert ordinary_grassmannian_chi(3, -1) == 0


def test_kind_validation():
    with pytest.raises(ValueError):
        KroneckerKind("pr", 0)
    with pytest.raises(ValueError):
        KroneckerKind("reg", 2)          # missing lambda
    with pytest.raises(ValueError):
        KroneckerKind("pr", 2, lam=1)    # stray lambda
    assert regular(2, "1/2").lam == Fraction(1, 2)
    assert regular(2, INFINITY).lam is INFINITY


def test_integer_arguments_are_refused_otherwise():
    # each was accepted: m = 2.5 failed later in build_kronecker with a
    # TypeError, and the binomials returned 6.0
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match=f"m must be an integer, got {bad}"):
            KroneckerKind("pr", bad)
    with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
        preprojective(2.5)
    with pytest.raises(ValueError, match="ambient dimension must be an integer, got 4.0"):
        ordinary_grassmannian_chi(4.0, 2)
    with pytest.raises(ValueError, match="subspace dimension must be an integer, got 2.0"):
        ordinary_grassmannian_chi(4, 2.0)
    with pytest.raises(ValueError, match="n must be an integer, got 4.0"):
        binom_ext(4.0, 2)
    with pytest.raises(ValueError, match="k must be an integer, got True"):
        binom_ext(4, True)


def test_dims():
    assert dims_of(preprojective(3)) == (2, 3)
    assert dims_of(preinjective(3)) == (3, 2)
    assert dims_of(regular(3, 0)) == (3, 3)


def test_preprojective_chi_values():
    # first binomial display, spot-evaluated
    assert kronecker_chi(preprojective(2), (0, 1)) == 2
    assert kronecker_chi(preprojective(2), (0, 0)) == 1
    assert kronecker_chi(preprojective(2), (1, 2)) == 1
    assert kronecker_chi(preprojective(2), (1, 1)) == 0
    assert kronecker_chi(preprojective(3), (1, 2)) == 2


def test_preinjective_chi_values():
    # enumeration-verified table for inj(2); see the duality identity below
    table = {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 2, (2, 0): 0, (2, 1): 1}
    for e, chi in table.items():
        assert kronecker_chi(preinjective(2), e) == chi
    assert kronecker_chi(preinjective(3), (1, 1)) == 2   # plane conic


def test_regular_chi_values():
    assert kronecker_chi(regular(1, 0), (1, 0)) == 0     # boundary case
    assert kronecker_chi(regular(1, 5), (0, 1)) == 1
    assert kronecker_chi(regular(2, 0), (1, 1)) == 1
    assert kronecker_chi(regular(2, 0), (1, 2)) == 2


def test_chi_lambda_independent():
    for m in (1, 2, 3):
        base = None
        for lam in (0, 1, 7, INFINITY):
            vals = {(e1, e2): kronecker_chi(regular(m, lam), (e1, e2))
                    for e1 in range(m + 1) for e2 in range(m + 1)}
            if base is None:
                base = vals
            assert vals == base


def test_chi_out_of_range():
    with pytest.raises(OutOfRange):
        kronecker_chi(preprojective(2), (2, 0))
    with pytest.raises(OutOfRange):
        kronecker_chi(preprojective(2), (0, -1))


def test_chi_refuses_non_integer_vectors():
    # (1.7, 2.2) used to be read as (1, 2)
    with pytest.raises(ValueError, match="must be an integer, got 1.7"):
        kronecker_chi(preprojective(3), (1.7, 2.2))
    with pytest.raises(ValueError, match="must be an integer, got 2.0"):
        kronecker_chi(preprojective(3), (1, 2.0))
    np = pytest.importorskip("numpy")
    assert kronecker_chi(preprojective(3), (np.int64(1), np.int32(2))) == 2


def test_chi_endpoints_are_one():
    for kind in (preprojective(3), preinjective(3), regular(3, 2)):
        d = dims_of(kind)
        assert kronecker_chi(kind, (0, 0)) == 1
        assert kronecker_chi(kind, d) == 1


def test_duality_between_families():
    # chi^pr(e1, e2) = chi^inj(m - e2, m - 1 - e1) on the whole box
    for m in (1, 2, 3, 4):
        for e1 in range(m):
            for e2 in range(m + 1):
                assert (kronecker_chi(preprojective(m), (e1, e2))
                        == kronecker_chi(preinjective(m), (m - e2, m - 1 - e1)))


def test_constructor_matrices():
    pr1 = build_kronecker(preprojective(1))
    assert pr1.dims == (0, 1)
    assert pr1.matrices == (((),), ((),))  # two empty 1x0 matrices

    pr2 = build_kronecker(preprojective(2))
    assert pr2.matrices == (((1,), (0,)), ((0,), (1,)))

    inj2 = build_kronecker(preinjective(2))
    assert inj2.matrices == (((1, 0),), ((0, 1),))

    reg13 = build_kronecker(regular(1, 3))
    assert reg13.dims == (1, 1)
    assert reg13.matrices == (((1,),), ((3,),))

    reg2inf = build_kronecker(regular(2, INFINITY))
    assert reg2inf.matrices == (((0, 1), (0, 0)), ((1, 0), (0, 1)))


def test_constructors_are_indecomposable():
    for m in (1, 2, 3):
        for kind in (preprojective(m), preinjective(m)):
            rep = build_kronecker(kind)
            assert hom_dim(rep, rep) == 1, kind
        # regular endomorphisms are the commutant of a full Jordan block:
        # local of dimension m, so indecomposable without being exceptional
        for lam in (1, INFINITY):
            rep = build_kronecker(regular(m, lam))
            assert hom_dim(rep, rep) == m, (m, lam)


def test_formula_matches_pipeline_smallish():
    # the m = 4 cases live in the acceptance suite
    for m in (1, 2, 3):
        for kind in (preprojective(m), preinjective(m)):
            rep = build_kronecker(kind)
            f = f_polynomial(rep)
            d1, d2 = rep.dims
            for e1 in range(d1 + 1):
                for e2 in range(d2 + 1):
                    assert f.coefficient((e1, e2)) == kronecker_chi(kind, (e1, e2))


def test_closed_forms_match_the_string_module_oracle():
    # torus fixed points, no primes: every box entry of m <= 8
    for kind in STRING_KINDS:
        fixed_points = string_module_chi(kind)
        d1, d2 = dims_of(kind)
        for e1 in range(d1 + 1):
            for e2 in range(d2 + 1):
                assert fixed_points.coefficient((e1, e2)) == kronecker_chi(kind, (e1, e2)), \
                    (kind, e1, e2)


def test_engine_matches_the_string_module_oracle():
    for kind in STRING_KINDS:
        if kind.m <= 4:
            assert f_polynomial(build_kronecker(kind)) == string_module_chi(kind), kind


def test_regular_bruteforce_lambda_independent():
    polys = {str(lam): f_polynomial(build_kronecker(regular(2, lam)))
             for lam in (0, 1, 2, INFINITY)}
    vals = list(polys.values())
    assert all(v == vals[0] for v in vals)


def test_quiver_shape():
    q = kronecker_quiver()
    assert q.n == 2 and q.arrows == ((0, 1), (0, 1))
    assert kronecker_quiver(4).arrows == ((0, 1),) * 4


@pytest.mark.parametrize("call,message", [
    (lambda: KroneckerKind("xyz", 1), "unknown family 'xyz'"),
    (lambda: ordinary_grassmannian_chi(-1, 0), "ambient dimension must be non-negative"),
], ids=["unknown-family", "negative-ambient"])
def test_kronecker_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
