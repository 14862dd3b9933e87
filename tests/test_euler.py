import json
import random
from fractions import Fraction
from itertools import product

import pytest

from quivergrass import dynkin as dk
from quivergrass.errors import (
    InsufficientSamples,
    NonPolynomialCount,
    VariableCountMismatch,
)
from quivergrass.euler import (
    HELD_OUT,
    counting_polynomial,
    euler_characteristic,
    f_polynomial,
    good_primes,
    interpolate_counting_polynomial,
    iter_box_chi,
)
from quivergrass.fpoly import FPolynomial, f_poly_multiply
from quivergrass.kronecker import (
    INFINITY,
    build_kronecker,
    kronecker_chi,
    kronecker_quiver,
    preinjective,
    preprojective,
    regular,
)
from quivergrass.model import (
    Quiver,
    Representation,
    direct_sum,
    dual_representation,
    reduce_mod,
    zero_representation,
)
from quivergrass.sampler import sample_general_rep
from quivergrass.subspaces import count_subreps

ONE_VERTEX = Quiver(1, ())


def test_interpolate_line():
    poly = interpolate_counting_polynomial(
        [(2, 3), (3, 4), (5, 6), (7, 8), (11, 12)], 1)
    assert poly.coefficients == (1, 1)  # q + 1
    assert poly.chi == 2


def test_interpolate_constant():
    poly = interpolate_counting_polynomial([(3, 1), (5, 1), (7, 1)], 0)
    assert poly.coefficients == (1,)
    assert poly.chi == 1


def test_interpolate_quadratic():
    poly = interpolate_counting_polynomial(
        [(2, 5), (3, 10), (5, 26), (7, 50), (11, 122)], 2)
    assert poly.coefficients == (1, 0, 1)  # q^2 + 1
    assert poly.chi == 2


def test_interpolate_insufficient():
    with pytest.raises(InsufficientSamples):
        interpolate_counting_polynomial([(3, 1), (5, 1)], 0)


def test_interpolate_rejects_nonpolynomial():
    # 1, 2, 4 fit a quadratic; the held-out values refuse to follow it
    with pytest.raises(NonPolynomialCount):
        interpolate_counting_polynomial(
            [(3, 1), (5, 2), (7, 4), (11, 9), (13, 17)], 2)


def test_interpolate_rejects_nonintegral_coefficients():
    with pytest.raises(NonPolynomialCount):
        interpolate_counting_polynomial([(3, 1), (5, 2), (7, 3), (11, 5)], 1)


def test_euler_ordinary_grassmannian():
    rep = Representation(ONE_VERTEX, (4,), ())
    assert euler_characteristic(rep, (2,)) == 6
    assert euler_characteristic(rep, (0,)) == 1


def test_euler_preprojective_point():
    rep = build_kronecker(preprojective(2))
    assert euler_characteristic(rep, (0, 1)) == 2
    assert euler_characteristic(rep, (0, 0)) == 1


def test_counting_polynomial_metadata():
    rep = Representation(ONE_VERTEX, (2,), ())
    poly = counting_polynomial(rep, (1,))
    assert poly.coefficients == (1, 1)
    assert poly.dim_vector == (1,)
    assert [p for p, _ in poly.samples] == [3, 5, 7, 11]
    for p, c in poly.samples:
        assert poly.evaluate(p) == c


def test_good_primes_skip_rank_drop():
    # the matrix (3) drops from rank 1 to rank 0 mod 3, so 3 is skipped
    q = Quiver(2, ((0, 1),))
    rep = Representation(q, (1, 1), (((3,),),))
    assert good_primes(rep, 3) == [5, 7, 11]
    plain = Representation(q, (1, 1), (((1,),),))
    assert good_primes(plain, 3) == [3, 5, 7]


def test_f_polynomial_binomial_expansion():
    for m in range(5):
        rep = Representation(ONE_VERTEX, (m,), ())
        expected = FPolynomial(1, {(0,): 1, (1,): 1}) ** m
        assert f_polynomial(rep) == expected


def test_f_polynomial_preprojective_2():
    f = f_polynomial(build_kronecker(preprojective(2)))
    assert f == FPolynomial(2, {(0, 0): 1, (0, 1): 2, (0, 2): 1, (1, 2): 1})
    assert f.to_text() == "1 + 2*u2 + u2^2 + u1*u2^2"


def test_f_polynomial_zero_representation():
    assert f_polynomial(zero_representation(ONE_VERTEX)) == FPolynomial(1, {(0,): 1})


def test_f_poly_multiply_identities():
    f = f_polynomial(build_kronecker(preprojective(2)))
    one = FPolynomial.one(2)
    assert f_poly_multiply(f, one) == f
    lin = FPolynomial(1, {(0,): 1, (1,): 1})
    assert f_poly_multiply(lin, lin) == FPolynomial(1, {(0,): 1, (1,): 2, (2,): 1})
    with pytest.raises(VariableCountMismatch):
        f_poly_multiply(f, lin)


def _random_poly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exp = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[exp] = rng.randint(-3, 3)  # a zero coefficient is dropped
    return FPolynomial(nvars, terms)


def test_ring_operations_give_validated_terms():
    rng = random.Random("fpoly-ring")
    for _ in range(200):
        nvars = rng.randint(1, 3)
        f, g = _random_poly(rng, nvars), _random_poly(rng, nvars)
        k = rng.randint(-2, 2)
        point = [rng.randint(-3, 3) for _ in range(nvars)]
        x, y = f.evaluate(point), g.evaluate(point)
        results = [(f + g, x + y), (f - g, x - y), (f - f, 0), (-f, -x), (f * g, x * y),
                   (f * (-g), -x * y), (f ** 3, x ** 3), (k - f, k - x), (f * k, x * k)]
        for got, value in results:
            assert got == FPolynomial(nvars, dict(got.terms))
            assert all(got.terms.values())
            assert all(len(e) == nvars and all(type(a) is int and a >= 0 for a in e)
                       for e in got.terms)
            assert got.evaluate(point) == value
    with pytest.raises(ValueError):
        FPolynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        FPolynomial(2, {(1, -1): 1})


def test_multiplicativity_kronecker_pair():
    a = build_kronecker(preprojective(2))
    b = build_kronecker(preinjective(2))
    assert f_polynomial(direct_sum(a, b)) == f_polynomial(a) * f_polynomial(b)


def test_normalization_terms():
    for rep in (build_kronecker(preprojective(3)),
                build_kronecker(regular(2, 1)),
                Representation(ONE_VERTEX, (3,), ())):
        f = f_polynomial(rep)
        assert f.constant_term == 1
        assert f.coefficient(rep.dims) == 1


def test_duality_at_point_count_level():
    for kind in (preprojective(2), preprojective(3), preinjective(2), regular(2, 0)):
        rep = build_kronecker(kind)
        dual = dual_representation(rep)
        for p in (3, 5):
            rp, dp = reduce_mod(rep, p), reduce_mod(dual, p)
            for e1 in range(rep.dims[0] + 1):
                for e2 in range(rep.dims[1] + 1):
                    complement = (rep.dims[0] - e1, rep.dims[1] - e2)
                    assert (count_subreps(rp, (e1, e2)).count
                            == count_subreps(dp, complement).count)


def test_iter_box_chi_matches_scalar_route():
    rep = build_kronecker(regular(2, 2))
    from itertools import product
    seen = {}
    for e, chi, err in iter_box_chi(rep):
        assert err is None
        seen[e] = chi
    assert set(seen) == set(product(range(3), range(3)))
    for e, chi in seen.items():
        assert chi == euler_characteristic(rep, e)


def test_box_on_a_cycle_chooses_primes_once(monkeypatch):
    import quivergrass.euler as eu
    calls = []
    choose = eu._good_reductions

    def counted(rep, how_many):
        calls.append(how_many)
        return choose(rep, how_many)

    rep = Representation(Quiver(2, ((0, 1), (1, 0))), (2, 2),
                         (((1, 0), (0, 1)), ((1, 1), (0, 1))))
    monkeypatch.setattr(eu, "_good_reductions", counted)
    f = f_polynomial(rep)
    assert len(calls) == 1
    monkeypatch.undo()
    for e in product(range(3), range(3)):
        assert f.coefficient(e) == euler_characteristic(rep, e)


def test_each_sampled_prime_is_reduced_once(monkeypatch):
    import quivergrass.euler as eu
    reduce = eu.reduce_mod
    primes = []

    def counted(rep, p):
        primes.append(p)
        return reduce(rep, p)

    monkeypatch.setattr(eu, "reduce_mod", counted)
    for kind in (preprojective(3), preinjective(3)):  # the box searches inj3 on the dual
        rep = build_kronecker(kind)
        assert counting_polynomial(rep, (1, 1)).chi == kronecker_chi(kind, (1, 1))
        assert primes and len(primes) == len(set(primes)), (kind, primes)
        primes.clear()
        f = f_polynomial(rep)
        assert primes and len(primes) == len(set(primes)), (kind, primes)
        primes.clear()
        for e in product(range(rep.dims[0] + 1), range(rep.dims[1] + 1)):
            assert f.coefficient(e) == kronecker_chi(kind, e)


def test_f_polynomial_json_round_trip():
    f = f_polynomial(build_kronecker(preprojective(2)))
    doc = json.loads(json.dumps(f.to_json_dict()))
    assert FPolynomial.from_json_dict(doc) == f
    exps = [tuple(t["exp"]) for t in doc["terms"]]
    assert exps == sorted(exps)  # schema is lex-sorted


def test_multiplicativity_random_small_pairs():
    rng = random.Random("euler-mult")
    q = Quiver(2, ((0, 1),))
    for _ in range(5):
        def sample():
            dims = (rng.randint(0, 1), rng.randint(0, 1))
            mats = (tuple(tuple(rng.randint(-2, 2) for _ in range(dims[0]))
                          for _ in range(dims[1])),)
            return Representation(q, dims, mats)
        a, b = sample(), sample()
        assert f_polynomial(direct_sum(a, b)) == f_polynomial(a) * f_polynomial(b)


def _arrow_blind_fit(rep, e):
    """Reference: fit at the bound sum e_i (d_i - e_i), which ignores every arrow."""
    bound = sum(x * (d - x) for x, d in zip(e, rep.dims))
    samples = [(p, count_subreps(reduce_mod(rep, p), e).count)
               for p in good_primes(rep, bound + 1 + HELD_OUT)]
    return interpolate_counting_polynomial(samples, bound, dim_vector=e)


def _d4_roots_seed_1():
    rs = dk.root_system("D", 4)
    quiver = dk.orientation_from_coxeter(rs, (0, 1, 2, 3))
    return [dk.dynkin_indecomposable(quiver, alpha, seed=1) for alpha in rs.positive_roots]


SOUNDNESS_CASES = {
    **{f"{name}{m}": (lambda k=kind, m=m: [build_kronecker(k(m))])
       for name, kind in (("pr", preprojective), ("inj", preinjective)) for m in (1, 2, 3, 4)},
    **{f"reg{m}": (lambda m=m: [build_kronecker(regular(m, lam))
                                for lam in (INFINITY, 0, 1, Fraction(1, 2))])
       for m in (1, 2, 3)},
    "D4-seed1": _d4_roots_seed_1,
    "rank-deficient": lambda: [  # arrows with kernels: zero, rank 1, block diagonal sums
        Representation(Quiver(2, ((0, 1),)), (2, 2), (((0, 0), (0, 0)),)),
        Representation(Quiver(2, ((0, 1),)), (2, 3), (((1, 0), (0, 0), (0, 0)),)),
        direct_sum(build_kronecker(preprojective(2)), build_kronecker(preinjective(2))),
    ],
}


@pytest.mark.parametrize("case", sorted(SOUNDNESS_CASES))
def test_arrow_aware_bound_fits_the_arrow_blind_polynomial(case):
    for rep in SOUNDNESS_CASES[case]():
        for e in product(*(range(d + 1) for d in rep.dims)):
            poly = counting_polynomial(rep, e)
            assert poly.coefficients == _arrow_blind_fit(rep, e).coefficients, (rep.dims, e)
            assert poly.degree <= poly.degree_bound, (rep.dims, e)


def test_reg4_samples_up_to_23():
    kind = regular(4, 0)
    poly = counting_polynomial(build_kronecker(kind), (1, 2))
    assert poly.degree_bound == 5  # sum e(d - e) would be 7, up to p = 31
    assert [p for p, _ in poly.samples] == [3, 5, 7, 11, 13, 17, 19, 23]
    assert poly.chi == kronecker_chi(kind, (1, 2))


@pytest.mark.parametrize("seed", range(20))
def test_quartic_still_refused_with_fewer_samples(seed):
    rep = sample_general_rep(kronecker_quiver(4), (3, 4), seed, 5)
    with pytest.raises(NonPolynomialCount, match=r"dimension vector \(1, 3\)"):
        euler_characteristic(rep, (1, 3))
