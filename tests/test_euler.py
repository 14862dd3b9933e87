import json
import random
import sys
import threading
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

from oracles import fraction_lagrange

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


def test_integer_interpolation_matches_the_fraction_reference():
    import quivergrass.euler as eu
    rng = random.Random("integer-lagrange")
    primes = good_primes(Representation(ONE_VERTEX, (0,), ()), 16)
    integral = 0
    for degree in range(7):
        for trial in range(40):
            nodes = rng.sample(primes, degree + 1 + HELD_OUT)
            if trial % 2:  # a random integer polynomial, negative counts included
                coeffs = [rng.randint(-50, 50) for _ in range(degree + 1)]
                counts = [sum(c * p ** k for k, c in enumerate(coeffs)) for p in nodes]
            else:  # random counts: mostly a non-integral interpolant
                counts = [rng.randint(-30, 30) for _ in nodes]
            samples = list(zip(nodes, counts))
            want = fraction_lagrange(samples[:degree + 1])
            got = eu._lagrange(samples[:degree + 1])
            e = (degree, trial)
            prefix = (f"point counts at dimension vector {e} sampled at primes "
                      f"{', '.join(map(str, nodes))}: ")
            if any(c.denominator != 1 for c in want):
                assert got is None, samples
                message = prefix + ("the interpolant has non-integer coefficients, "
                                    "so they are not polynomial in q")
                with pytest.raises(NonPolynomialCount) as err:
                    interpolate_counting_polynomial(samples, degree, dim_vector=e)
                assert str(err.value) == message
                continue
            integral += 1
            assert got == [int(c) for c in want], samples
            # held out: the reference's values fit, one more than that does not
            samples[degree + 1:] = [(p, sum(int(c) * p ** k for k, c in enumerate(want)))
                                    for p in nodes[degree + 1:]]
            while got and got[-1] == 0:
                got.pop()
            fitted = interpolate_counting_polynomial(samples, degree, dim_vector=e)
            assert fitted.coefficients == tuple(got)
            held, count = samples[-1]
            samples[-1] = (held, count + 1)
            message = prefix + (f"held-out prime {held} gives {count + 1}, the "
                                f"interpolant predicts {count}, so they are not "
                                "polynomial in q")
            with pytest.raises(NonPolynomialCount) as err:
                interpolate_counting_polynomial(samples, degree, dim_vector=e)
            assert str(err.value) == message
    assert integral >= 7 * 20


def test_euler_ordinary_grassmannian():
    rep = Representation(ONE_VERTEX, (4,), ())
    assert euler_characteristic(rep, (2,)) == 6
    assert euler_characteristic(rep, (0,)) == 1


def test_euler_preprojective_point():
    rep = build_kronecker(preprojective(2))
    assert euler_characteristic(rep, (0, 1)) == 2
    assert euler_characteristic(rep, (0, 0)) == 1
    for e in ((2, 1), (0, 4), (-1, 0), (0, 1, 0)):
        with pytest.raises(ValueError, match="outside the box"):
            counting_polynomial(rep, e)


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
    choose = eu._Sampling.reductions

    def counted(self, how_many):
        calls.append(how_many)
        return choose(self, how_many)

    rep = Representation(Quiver(2, ((0, 1), (1, 0))), (2, 2),
                         (((1, 0), (0, 1)), ((1, 1), (0, 1))))
    monkeypatch.setattr(eu._Sampling, "reductions", counted)
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
        box = list(product(range(rep.dims[0] + 1), range(rep.dims[1] + 1)))
        eu._sampling.cache_clear()
        primes.clear()
        assert counting_polynomial(rep, (1, 1)).chi == kronecker_chi(kind, (1, 1))
        f = f_polynomial(rep)
        for e in box:
            assert euler_characteristic(rep, e) == f.coefficient(e) == kronecker_chi(kind, e)
        warm = {e: counting_polynomial(rep, e).samples for e in box}
        assert primes and len(primes) == len(set(primes)), (kind, primes)
        eu._sampling.cache_clear()  # a cold context samples the same primes and counts
        assert {e: counting_polynomial(rep, e).samples for e in box} == warm


def test_a_dual_is_built_only_when_a_count_searches_it(monkeypatch):
    import quivergrass.euler as eu
    import quivergrass.model as md
    from quivergrass import subspaces
    duals = []

    def counted(rep, dual=md._dual):
        duals.append(rep)
        return dual(rep)

    for module in (md, eu, subspaces):
        if hasattr(module, "_dual"):
            monkeypatch.setattr(module, "_dual", counted)
    eu._sampling.cache_clear()
    rep = build_kronecker(preprojective(3))  # the box searches pr3 forward
    f_polynomial(rep)
    good_primes(rep, 12)
    assert duals == []  # neither the search nor the sampling context built one
    kind = preinjective(3)  # the box searches inj3 on the dual
    rep = build_kronecker(kind)
    f = f_polynomial(rep)
    assert duals and all(d.quiver == rep.quiver and d.field for d in duals)
    for e in product(range(rep.dims[0] + 1), range(rep.dims[1] + 1)):
        assert f.coefficient(e) == kronecker_chi(kind, e)


def test_sampling_context_is_thread_safe():
    import quivergrass.euler as eu
    # 15 loses its rank mod 3 and 5, and the denominator of 1/7 vanishes mod 7
    rep = Representation(kronecker_quiver(2), (1, 1), (((15,),), ((Fraction(1, 7),),)))
    results: list = [[] for _ in range(4)]

    def work(out):
        try:
            for k in range(1, 61):
                out.append(good_primes(rep, k))
        except Exception as exc:  # the assertions below report it
            out.append(exc)

    eu._sampling.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    eu._sampling.cache_clear()
    cold = [good_primes(rep, k) for k in range(1, 61)]
    assert cold[2] == [11, 13, 17]
    assert results == [cold] * 4


def test_sampling_contexts_are_bounded():
    import quivergrass.euler as eu
    eu._sampling.cache_clear()
    reps = [Representation(Quiver(2, ((0, 1),)), (1, 1), (((k,),),)) for k in range(1, 81)]
    for rep in reps:
        good_primes(rep, 2)
        assert eu._sampling.cache_info().currsize <= 64
    assert eu._sampling.cache_info().currsize == 64
    misses = eu._sampling.cache_info().misses
    good_primes(reps[-1], 2)  # among the last 64: kept
    good_primes(reps[0], 2)  # the oldest: evicted, built again
    assert eu._sampling.cache_info().misses == misses + 1


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


def test_quartic_is_rejected_at_its_interpolation_nodes(monkeypatch):
    import quivergrass.euler as eu
    rep = sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5)
    bound = eu._sampling(rep).degree_bound((1, 3))
    nodes = good_primes(rep, bound + 1)
    count_many = eu._count_many
    counted = []

    def recorded(rep_p, es, *args):
        counted.append((rep_p.field, sorted(es)))
        return count_many(rep_p, es, *args)

    monkeypatch.setattr(eu, "_count_many", recorded)
    message = (f"point counts at dimension vector (1, 3) sampled at primes "
               f"{', '.join(map(str, nodes))}: the interpolant has non-integer "
               "coefficients, so they are not polynomial in q")
    with pytest.raises(NonPolynomialCount) as err:
        euler_characteristic(rep, (1, 3))
    assert str(err.value) == message
    assert counted == [(p, [(1, 3)]) for p in nodes]
    # in the box, (1, 3) leaves the sampled set at the same prime
    counted.clear()
    refused = {e: str(exc) for e, _, exc in iter_box_chi(rep) if exc is not None}
    assert refused[1, 3] == message
    assert max(p for p, es in counted if (1, 3) in es) == nodes[-1]


@pytest.mark.parametrize("seed", range(20))
def test_quartic_still_refused_with_fewer_samples(seed):
    rep = sample_general_rep(kronecker_quiver(4), (3, 4), seed, 5)
    with pytest.raises(NonPolynomialCount, match=r"dimension vector \(1, 3\)"):
        euler_characteristic(rep, (1, 3))
