import json
import random
import re
import sys
import threading
import time
from fractions import Fraction
from itertools import islice, product
from math import prod

import pytest

from quivergrass import dynkin as dk
from quivergrass.errors import (
    DomainMismatch,
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
    euler_form,
    hom_dim,
    reduce_mod,
)
from quivergrass.sampler import sample_general_rep
from quivergrass.subspaces import _routing, count_subreps

from oracles import fraction_lagrange, fraction_rank

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


def test_interpolate_refuses_non_integer_samples():
    # [(3, 4.0), (5, 4.9), (7, 4.2)] used to be read as the constant 4
    with pytest.raises(ValueError, match="sample count must be an integer, got 4.0"):
        interpolate_counting_polynomial([(3, 4.0), (5, 4.9), (7, 4.2)], 0)
    with pytest.raises(ValueError, match="sample prime must be an integer, got 3.5"):
        interpolate_counting_polynomial([(3.5, 4), (5, 4), (7, 4)], 0)
    assert interpolate_counting_polynomial([(3, 4), (5, 4), (7, 4)], 0).coefficients == (4,)


def test_interpolate_refuses_non_integer_degree_bounds():
    # 1.5 used to be stored as the bound of a polynomial with no coefficients
    samples = [(3, 4), (5, 4), (7, 4), (11, 4)]
    for bound in (1.5, 2.0, True):
        with pytest.raises(ValueError, match=f"degree bound must be an integer, got {bound}"):
            interpolate_counting_polynomial(samples, bound)


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


def _pair_reason(first, second):
    """The reason `_fit` gives when two samples break (p - q) | P(p) - P(q)."""
    (q, a), (p, b) = sorted([first, second])
    return (f"the counts {a} at {q} and {b} at {p} differ by {b - a}, "
            f"which {p} - {q} does not divide")


def test_integer_polynomials_pass_every_pair():
    # P in Z[q] gives (p - q) | P(p) - P(q) for all integers p != q, so a
    # reason from `_fit` on exact values of an integer polynomial never
    # names a pair, whatever the bound, order or number of samples
    import quivergrass.euler as eu
    rng = random.Random("pairs")
    primes = good_primes(Representation(ONE_VERTEX, (0,), ()), 20)
    for degree in range(9):
        for _ in range(30):
            coeffs = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(degree + 1)]
            nodes = rng.sample(primes, rng.randint(2, len(primes)))
            samples = [(p, sum(c * p ** k for k, c in enumerate(coeffs))) for p in nodes]
            for bound in range(degree + 3):
                for n in range(1, len(samples) + 1):
                    ints, reason = eu._fit(samples[:n], bound)
                    assert reason is None or not reason.startswith("the counts"), (samples, bound)
                    if bound >= degree and n > bound:
                        assert reason is None, (samples[:n], bound)
                        assert ints == tuple(coeffs[:len(ints)]) and not any(coeffs[len(ints):])


def test_pair_check_rejects_before_the_nodes():
    import quivergrass.euler as eu
    # 7 and 6 differ in parity, and the difference of two odd primes is even
    assert eu._fit([(3, 7), (5, 6)], 4) == (None, _pair_reason((3, 7), (5, 6)))
    assert _pair_reason((3, 7), (5, 6)) == (
        "the counts 7 at 3 and 6 at 5 differ by -1, which 5 - 3 does not divide")
    assert eu._fit([(3, 7)], 0) == ((7,), None)
    assert eu._fit([(3, 1), (5, 3)], 3) == (None, None)  # too few to fit, no pair fails
    with pytest.raises(NonPolynomialCount, match=r"primes 3, 5: the counts 7 at 3 and 6 at 5"):
        interpolate_counting_polynomial([(3, 7), (5, 6)], 4)
    # the first sample refuted names the reason: (q - 3)(q - 5) / 2 through
    # the nodes passes their pairs, and 11 breaks the pair with 3 only later
    samples = [(3, 0), (5, 0), (7, 4), (11, 1)]
    assert eu._fit(samples, 2) == (None, "the interpolant has non-integer coefficients")
    assert eu._fit(samples, 3) == (None, _pair_reason((3, 0), (11, 1)))


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
            got = eu._interpolant(tuple(samples[:degree + 1]))  # trailing zeros dropped
            e = (degree, trial)
            prefix = (f"point counts at dimension vector {e} sampled at primes "
                      f"{', '.join(map(str, nodes))}: ")
            if any(c.denominator != 1 for c in want):
                assert got is None, samples
                # the first sample among the nodes that an earlier one refutes
                # names the pair; otherwise the interpolant is refused
                pair = next(((earlier, later) for j, later in enumerate(samples[:degree + 1])
                             for earlier in samples[:j]
                             if (later[1] - earlier[1]) % (later[0] - earlier[0])), None)
                reason = ("the interpolant has non-integer coefficients" if pair is None
                          else _pair_reason(*pair))
                with pytest.raises(NonPolynomialCount) as err:
                    interpolate_counting_polynomial(samples, degree, dim_vector=e)
                assert str(err.value) == prefix + reason + ", so they are not polynomial in q"
                continue
            integral += 1
            ints = [int(c) for c in want]
            while ints and ints[-1] == 0:
                ints.pop()
            assert got == tuple(ints), samples
            # held out: the reference's values fit
            samples[degree + 1:] = [(p, sum(int(c) * p ** k for k, c in enumerate(want)))
                                    for p in nodes[degree + 1:]]
            fitted = interpolate_counting_polynomial(samples, degree, dim_vector=e)
            assert fitted.coefficients == got
            # one more than that breaks the pair with the first sample
            held, count = samples[-1]
            samples[-1] = (held, count + 1)
            message = prefix + _pair_reason(samples[0], samples[-1]) + (
                ", so they are not polynomial in q")
            with pytest.raises(NonPolynomialCount) as err:
                interpolate_counting_polynomial(samples, degree, dim_vector=e)
            assert str(err.value) == message
            # a multiple of every difference to an earlier prime passes each
            # pair, and only the interpolant refuses it
            step = prod(held - p for p in nodes[:-1])
            samples[-1] = (held, count + step)
            message = prefix + (f"held-out prime {held} gives {count + step}, the "
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


def test_euler_refuses_non_integer_vectors():
    # (1.7, 2.2) used to be counted as (1, 2), where chi is 2
    rep = build_kronecker(preprojective(3))
    with pytest.raises(ValueError, match="must be an integer, got 1.7"):
        euler_characteristic(rep, (1.7, 2.2))
    np = pytest.importorskip("numpy")
    assert euler_characteristic(rep, (np.int64(1), np.int32(2))) == 2


def test_counting_polynomial_metadata():
    # U_2 must be the image of the line U_1 under the identity: Gr_(1, 1) is P^1,
    # constrained by the arrow, so it is sampled.  M is rigid on the Dynkin
    # quiver A2, so it is certified (Ringel's theorem): the palindrome of
    # degree <e, d - e> = 1 takes 1 sample and no held-out prime
    rep = Representation(Quiver(2, ((0, 1),)), (2, 2), (((1, 0), (0, 1)),))
    poly = counting_polynomial(rep, (1, 1))
    assert poly.coefficients == (1, 1)
    assert poly.dim_vector == (1, 1)
    assert [p for p, _ in poly.samples] == [3]
    for p, c in poly.samples:
        assert poly.evaluate(p) == c


def test_good_primes_skip_rank_drop():
    # the matrix (3) drops from rank 1 to rank 0 mod 3, so 3 is skipped
    q = Quiver(2, ((0, 1),))
    rep = Representation(q, (1, 1), (((3,),),))
    assert good_primes(rep, 3) == [5, 7, 11]
    plain = Representation(q, (1, 1), (((1,),),))
    assert good_primes(plain, 3) == [3, 5, 7]


def test_good_primes_refuses_a_count_that_is_not_a_nonnegative_integer():
    # each used to fail inside islice ("Stop argument for islice() must be
    # None or an integer"), and True asked for one prime
    rep = Representation(Quiver(2, ((0, 1),)), (1, 1), (((1,),),))
    for bad in (2.0, True):
        with pytest.raises(ValueError, match=f"how_many must be an integer, got {bad}"):
            good_primes(rep, bad)
    with pytest.raises(ValueError, match="how_many must be nonnegative, got -1"):
        good_primes(rep, -1)
    assert good_primes(rep, 0) == []


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
    zero = Representation(ONE_VERTEX, (0,), ())
    assert f_polynomial(zero) == FPolynomial(1, {(0,): 1})


@pytest.mark.parametrize("samples,bound,held_out,message", [
    ([(3, 1), (5, 1), (7, 1)], -1, HELD_OUT, "degree bound must be non-negative"),
    ([(3, 1), (3, 1), (5, 1)], 0, HELD_OUT, "sample primes must be distinct"),
    # -1 used to return a polynomial with no coefficients, whose chi raised
    # TypeError, and True passed as 1 ("+True held out")
    ([(3, 4)], 1, -1, "held-out count must be non-negative"),
    ([(3, 4), (5, 6), (7, 8)], 1, True, "held-out count must be an integer, got True"),
], ids=["negative-bound", "repeated-prime", "negative-held-out", "bool-held-out"])
def test_interpolation_refuses_a_bad_request(samples, bound, held_out, message):
    with pytest.raises(ValueError) as err:
        interpolate_counting_polynomial(samples, bound, held_out=held_out)
    assert str(err.value) == message


SQUARE = FPolynomial(2, {(0, 0): 1, (1, 1): 2, (2, 0): -1})


@pytest.mark.parametrize("call,expected", [
    (lambda: SQUARE ** -1, ValueError("negative power")),
    (lambda: SQUARE.evaluate([1]), VariableCountMismatch("2 variables, 1 values")),
    (lambda: FPolynomial.zero(2).is_homogeneous(), True),
    (lambda: FPolynomial.zero(2).is_homogeneous(3), True),
    (lambda: FPolynomial(2, {(1, 0): 1, (0, 1): 2}).is_homogeneous(), True),
    (lambda: SQUARE.is_homogeneous(), False),
    (lambda: str(SQUARE), "1 + 2*u1*u2 - u1^2"),
    (lambda: repr(SQUARE), "FPolynomial(2, '1 + 2*u1*u2 - u1^2')"),
], ids=["negative-power", "value-count", "zero-homogeneous", "zero-of-degree",
        "one-degree", "two-degrees", "str", "repr"])
def test_fpolynomial_edges(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as err:
            call()
        assert str(err.value) == str(expected)
    else:
        assert call() == expected


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

    def counted(self):
        calls.append(self)
        return choose(self)

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


def test_only_sampled_primes_are_reduced(monkeypatch):
    import quivergrass.euler as eu
    reduced, counted = [], []
    reduce, count_planned = eu.reduce_mod, eu._count_planned

    def reducing(rep, p):
        reduced.append(p)
        return reduce(rep, p)

    def counting(rep_p, plan, es, *args):
        counted.append(rep_p.field)
        return count_planned(rep_p, plan, es, *args)

    monkeypatch.setattr(eu, "reduce_mod", reducing)
    monkeypatch.setattr(eu, "_count_planned", counting)
    eu._sampling.cache_clear()
    poly = counting_polynomial(build_kronecker(regular(4, 0)), (1, 2))
    assert reduced == counted == [p for p, _ in poly.samples] == [3, 5, 7, 11, 13, 17]
    for kind in (preprojective(3), preinjective(3)):  # a box, settled by both tests
        reduced.clear()
        counted.clear()
        f_polynomial(build_kronecker(kind))
        assert reduced == counted, kind


def test_cap_is_read_once_per_computation(monkeypatch):
    # every walk of one F-polynomial runs under the same cap, however the
    # environment changes while it runs; every reader goes through
    # `subspaces.read_cap`, which reads the environment by `default_cap`
    import quivergrass.euler as eu
    from quivergrass import subspaces
    read, calls = subspaces.default_cap, []

    def counted():
        calls.append(read())
        return calls[-1]

    monkeypatch.setattr(subspaces, "default_cap", counted)
    eu._sampling.cache_clear()
    f_polynomial(build_kronecker(preprojective(4)))
    assert len(calls) == 1


def test_no_count_builds_a_dual(monkeypatch):
    # a backward search walks the reduction itself along the opposite quiver
    import quivergrass.euler as eu
    import quivergrass.model as md
    from quivergrass import subspaces
    duals, directions = [], set()
    walk = subspaces._walk

    def counted(rep, dual=md.dual_representation):
        duals.append(rep)
        return dual(rep)

    def recorded(rep, e, budget, shortcut, backward=False):
        directions.add(backward)
        return walk(rep, e, budget, shortcut, backward)

    for module in (md, eu, subspaces):
        if hasattr(module, "dual_representation"):
            monkeypatch.setattr(module, "dual_representation", counted)
    monkeypatch.setattr(subspaces, "_walk", recorded)
    eu._sampling.cache_clear()
    subspaces._final_ranks.cache_clear()
    for kind in (preprojective(3), preinjective(3)):  # the box searches inj3 backward
        rep = build_kronecker(kind)
        f = f_polynomial(rep)
        good_primes(rep, 12)
        for e in product(range(rep.dims[0] + 1), range(rep.dims[1] + 1)):
            assert f.coefficient(e) == kronecker_chi(kind, e)
    assert duals == [] and directions == {False, True}
    md.dual_representation(rep)  # the patch is live
    assert duals == [rep]


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


def test_f_polynomial_refuses_non_integer_coefficients():
    for coef in (Fraction(1, 2), 2.9, True):
        with pytest.raises(ValueError) as err:
            FPolynomial(1, {(1,): coef, (0,): 3})
        assert str(err.value) == f"coefficient {coef!r} of (1,) is not an integer"
        with pytest.raises(ValueError, match="is not an integer"):
            FPolynomial.from_json_dict({"vars": 1, "terms": [{"exp": [1], "coef": coef}]})
    # integral values of other types are integers
    assert FPolynomial(1, {(0,): Fraction(6, 2), (1,): 2.0}).terms == {(0,): 3, (1,): 2}


def test_fpolynomial_refuses_non_integer_shapes():
    # FPolynomial(2.5, {(1.9, 0): 3}) used to have 2 variables and the term u1
    with pytest.raises(ValueError, match="variable count must be an integer, got 2.5"):
        FPolynomial(2.5, {(1, 0): 3})
    with pytest.raises(ValueError, match="exponent must be an integer, got 1.9"):
        FPolynomial(2, {(1.9, 0): 3})
    with pytest.raises(ValueError, match="variable count must be an integer, got 2.0"):
        FPolynomial.from_json_dict({"vars": 2.0, "terms": [{"exp": [1, 0], "coef": 3}]})
    with pytest.raises(ValueError, match="exponent must be an integer, got True"):
        FPolynomial.from_json_dict({"vars": 2, "terms": [{"exp": [True, 0], "coef": 3}]})
    assert FPolynomial(2, {(1, 0): 3}).terms == {(1, 0): 3}


def test_fpolynomial_arithmetic_refuses_bools():
    # a bool is not an integer constant here, as it is not a coefficient
    u = FPolynomial.variable(1, 0)
    for other in (True, 2.5):
        for op in (lambda: u + other, lambda: u * other, lambda: u - other,
                   lambda: other + u, lambda: other * u, lambda: other - u):
            with pytest.raises(TypeError):
                op()
    assert u + 1 == FPolynomial(1, {(0,): 1, (1,): 1})
    assert FPolynomial.one(1) == 1 and FPolynomial.one(1) != True  # noqa: E712


def test_fpolynomial_constants_hash_like_their_ints():
    # equal objects must hash alike, or sets and dicts tell them apart
    assert {FPolynomial.one(1), 1} == {1}
    assert {FPolynomial.zero(2): "a"}.get(0) == "a"
    assert {FPolynomial.constant(3, -7): "b"}[-7] == "b"
    u = FPolynomial.variable(2, 1)
    assert len({u + 1, 1 + u, u}) == 2


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


def test_reg4_samples_up_to_17():
    kind = regular(4, 0)
    poly = counting_polynomial(build_kronecker(kind), (1, 2))
    assert poly.degree_bound == 5  # sum e(d - e) would be 7, up to p = 31
    assert [p for p, _ in poly.samples] == [3, 5, 7, 11, 13, 17]
    assert poly.chi == kronecker_chi(kind, (1, 2))


def test_quartic_is_rejected_at_its_interpolation_nodes(monkeypatch):
    import quivergrass.euler as eu
    rep = sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5)
    bound = eu._sampling(rep).degree_bound((1, 3))
    nodes = good_primes(rep, bound + 1)
    count_planned = eu._count_planned
    counted = []

    def recorded(rep_p, plan, es, *args):
        counted.append((rep_p.field, sorted(es)))
        return count_planned(rep_p, plan, es, *args)

    monkeypatch.setattr(eu, "_count_planned", recorded)
    # no later than the nodes: the counts 7 at 3 and 6 at 5 differ by an odd
    # number, which no integer polynomial allows, so the second prime rejects
    assert nodes == [3, 5, 7, 11, 13]
    message = ("point counts at dimension vector (1, 3) sampled at primes 3, 5: the "
               "counts 7 at 3 and 6 at 5 differ by -1, which 5 - 3 does not divide, "
               "so they are not polynomial in q")
    with pytest.raises(NonPolynomialCount) as err:
        euler_characteristic(rep, (1, 3))
    assert str(err.value) == message
    assert counted == [(p, [(1, 3)]) for p in nodes[:2]]
    # in the box, (1, 3) leaves the sampled set at the same prime
    counted.clear()
    refused = {e: str(exc) for e, _, exc in iter_box_chi(rep) if exc is not None}
    assert refused[1, 3] == message
    assert max(p for p, es in counted if (1, 3) in es) == 5


@pytest.mark.parametrize("seed", range(20))
def test_quartic_still_refused_with_fewer_samples(seed):
    rep = sample_general_rep(kronecker_quiver(4), (3, 4), seed, 5)
    with pytest.raises(NonPolynomialCount, match=r"dimension vector \(1, 3\)"):
        euler_characteristic(rep, (1, 3))


def _per_e_fit(rep, e, certified=False):
    """Reference: the per-e interpolant through degree_bound + 1 primes,
    validated at HELD_OUT more, certified or not; for a certified M the
    primes are those its schedule samples (`_schedule_primes`)."""
    import quivergrass.euler as eu
    bound = eu._sampling(rep).degree_bound(e)
    samples = [(p, count_subreps(rep_p, e).count)
               for p, rep_p in _schedule_primes(rep, bound + 1 + HELD_OUT, certified)]
    return interpolate_counting_polynomial(samples, bound, dim_vector=e)


def _schedule_primes(rep, n, certified):
    """The first n good primes with rep mod p, and where M is certified only
    those at which dim End(M mod p) = <d, d>, by `hom_dim` itself."""
    import quivergrass.euler as eu
    form = euler_form(rep.quiver, rep.dims, rep.dims) if certified else None
    return list(islice(((p, rep_p) for p, rep_p in eu._sampling(rep).reductions()
                        if not certified or hom_dim(rep_p, rep_p) == form), n))


def _kronecker_fibers(m, e1_max=None):
    kinds = [preprojective(m), preinjective(m),
             *(regular(m, lam) for lam in (INFINITY, 0, 1, Fraction(1, 2)))]
    for kind in kinds:
        rep = build_kronecker(kind)
        yield rep, [e for e in product(*(range(d + 1) for d in rep.dims))
                    if e1_max is None or e[0] <= e1_max]


def _dynkin_roots(label, rank, seed):
    rs = dk.root_system(label, rank)
    quiver = dk.orientation_from_coxeter(rs, tuple(range(rank)))
    for alpha in rs.positive_roots:
        rep = dk.dynkin_indecomposable(quiver, alpha, seed=seed)
        yield rep, list(product(*(range(d + 1) for d in rep.dims)))


FIBER_CASES = {
    "kronecker-m-le-3": lambda: (fiber for m in (1, 2, 3) for fiber in _kronecker_fibers(m)),
    "kronecker-m4-e1-le-1": lambda: _kronecker_fibers(4, 1),
    "A5": lambda: _dynkin_roots("A", 5, 0),
    "D4": lambda: _dynkin_roots("D", 4, 1),
}


def _fiber_schedule(rep, e, certified, held_out):
    """Samples the fiber test needs at e, or None where it cannot save a prime:
    fiber bound + 1 + HELD_OUT (a certified M too), for the walk planned at
    the first prime of the schedule, against the per-e test's bound + 1 +
    held_out."""
    import quivergrass.euler as eu
    from quivergrass.subspaces import _plan, _routing
    sampling = eu._sampling(rep)
    bound = sampling.degree_bound(e)
    (_, rep_p), = _schedule_primes(rep, 1, certified)
    backward, key, _ = _plan(rep_p, [e])[e]
    if bound == 0 or not _routing(rep.quiver, backward).shortcut:
        return None
    need = sampling.fiber_bound(backward, key) + 1 + HELD_OUT
    return need if need < bound + 1 + held_out else None


def _rigid(rep):
    """Rigidity over Q by the hereditary identity dim Ext^1(M, M) = hom(M, M) - <d, d>."""
    return hom_dim(rep, rep) == euler_form(rep.quiver, rep.dims, rep.dims)


def _palindrome_schedule(rep, e, held_out):
    """Samples the rigidity tests need at e, or None where they do not apply:
    none when <e, d - e> < 0, else <e, d - e> // 2 + 1 + held_out when
    <e, d - e> // 2 is below the degree bound."""
    import quivergrass.euler as eu
    if not _rigid(rep):
        return None
    degree = euler_form(rep.quiver, e, [d - x for d, x in zip(rep.dims, e)])
    if degree < 0:
        return 0
    return degree // 2 + 1 + held_out if degree // 2 < eu._sampling(rep).degree_bound(e) else None


@pytest.mark.parametrize("case", sorted(FIBER_CASES))
def test_fiber_test_gives_the_per_e_interpolant(case):
    # every N_k is polynomial here and every rigid count a palindrome, so e
    # settles after the fewest samples any of the four tests needs: none
    # where the arrow test gives its closed form.  The Dynkin cases are
    # certified (Ringel's theorem): their per-e and palindrome schedules take
    # no held-out prime and skip the primes where End(M mod p) jumps; the
    # fiber test keeps HELD_OUT.
    import quivergrass.euler as eu
    fiber_settled = 0
    for rep, es in FIBER_CASES[case]():
        certified = case in ("A5", "D4") and _rigid(rep)
        held_out = 0 if certified else HELD_OUT
        for e in es:
            poly = counting_polynomial(rep, e)
            want = _per_e_fit(rep, e, certified)
            assert poly.coefficients == want.coefficients, (rep.dims, e)
            assert all(poly.evaluate(p) == count for p, count in poly.samples), (rep.dims, e)
            if eu._sampling(rep).closed_form(e)[0] is not None:
                # no arrow bound is worked out: the closed form's own degree
                assert poly.degree_bound == poly.degree <= want.degree_bound, (rep.dims, e)
                assert poly.samples == (), (rep.dims, e)
                continue
            assert poly.degree_bound == want.degree_bound, (rep.dims, e)
            fiber = _fiber_schedule(rep, e, certified, held_out)
            palindrome = _palindrome_schedule(rep, e, held_out)
            per_e = want.degree_bound + 1 + held_out
            need = min(n for n in (fiber, palindrome, per_e) if n is not None)
            assert poly.samples == want.samples[:need], (rep.dims, e)
            fiber_settled += fiber == need and (palindrome is None or fiber < palindrome)
    if case.startswith("kronecker"):
        assert fiber_settled, case


def test_quartic_fibers_settle_what_their_ranks_allow():
    # the forced rank into vertex 2 is 3 on the quartic and 4 off it: N_3 and
    # N_4 are not polynomial in q, but N_3 + N_4 is, and N_0..N_2 vanish
    import quivergrass.euler as eu
    from quivergrass.subspaces import _count_planned, _plan, default_cap
    rep = sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5)
    sampling = eu._sampling(rep)
    fiber = [(1, x) for x in range(5)]
    bounds = {e: sampling.degree_bound(e) for e in fiber}
    plan = None
    counts, walks = {e: [] for e in fiber}, []
    for p, rep_p in islice(sampling.reductions(), 5):  # 3..13: fiber bound 2, plus two held out
        plan = plan or _plan(rep_p, fiber)
        found, walked = _count_planned(rep_p, plan, fiber, default_cap())
        for e, count in found.items():
            counts[e].append((p, count))
        walks.append((p, walked[False, (1, 0)]))
    assert {plan[e][:2] for e in fiber} == {(False, (1, 0))}
    assert sampling.fiber_bound(False, (1, 0)) == 2
    fits = eu._rank_fits(tuple(walks), 2)
    assert {e: eu._fiber_fit(fits, 4, e[1], counts[e], bounds[e]) for e in fiber} == {
        (1, 0): (), (1, 1): (), (1, 2): (), (1, 3): None, (1, 4): None}
    # the fiber as one set: an arrow of rank 3 rules (1, 0) out, no arrow
    # constrains (1, 4) (U_2 is all of vertex 2), and (1, 3) is left to the
    # per-e test; (1, 1) and (1, 2) still settle by the fiber test
    results = dict(eu._settle(rep, fiber, None))
    assert (results[1, 4].chi, results[1, 4].samples) == (3, ())
    assert results[1, 4].coefficients == _per_e_fit(rep, (1, 4)).coefficients
    assert results[1, 0].samples == ()
    assert isinstance(results[1, 3], NonPolynomialCount)
    assert "sampled at primes 3, 5: the counts 7 at 3 and 6 at 5" in str(results[1, 3])
    for x in range(3):
        assert results[1, x].coefficients == () == _per_e_fit(rep, (1, x)).coefficients
    assert len(results[1, 1].samples) == 2 + 1 + HELD_OUT  # the fiber bound's schedule
    # (1, 2) has degree bound 4 but fiber bound 2, so the fiber test saves two primes
    assert (bounds[1, 2], len(results[1, 2].samples)) == (4, 5)


def test_fiber_fit_holds_out_primes_for_each_rank():
    from quivergrass.euler import _fiber_fit, _rank_fits

    def fits(*hists):
        return _rank_fits(tuple((p, tuple(h.items())) for p, h in zip((3, 5, 7), hists)), 0)

    # d = x = 1, so P = N_0 + N_1 = 1 at every prime, but N_0 and N_1 are
    # not constant: the held-out prime 7 refuses the constant through 3
    samples = [(3, 1), (5, 1), (7, 1)]
    refused = fits({0: 1}, {0: 1}, {1: 1})
    assert _fiber_fit(refused, 1, 1, samples, 1) is None
    held = fits({0: 1}, {0: 1}, {0: 1})
    assert _fiber_fit(held, 1, 1, samples, 1) == (1,)
    # every rank up to x counts: N_1 = 1 adds binom_q(0, 0) = 1 to P
    assert _fiber_fit(fits({1: 1}, {1: 1}, {1: 1}), 1, 1, samples, 1) == (1,)
    assert _fiber_fit(fits({0: 1, 1: 1}, {0: 1, 1: 1}, {0: 1, 1: 1}), 1, 1,
                      [(3, 2), (5, 2), (7, 2)], 1) == (2,)


def test_walk_memo_misses_once_per_distinct_walk(monkeypatch):
    # chi one e at a time: the walks of different calls share one memo entry
    import quivergrass.euler as eu
    from quivergrass import subspaces
    walked = []
    walk = subspaces._walk

    def recorded(rep, e, budget, shortcut, backward=False):
        walked.append((rep, backward, e))
        return walk(rep, e, budget, shortcut, backward)

    monkeypatch.setattr(subspaces, "_walk", recorded)
    eu._sampling.cache_clear()
    subspaces._final_ranks.cache_clear()
    for kind in (preinjective(3), regular(3, 0), preprojective(3)):
        rep = build_kronecker(kind)
        for e in product(*(range(d + 1) for d in rep.dims)):
            assert euler_characteristic(rep, e) == kronecker_chi(kind, e)
    assert any(backward for _, backward, _ in walked)  # some searched backward
    assert subspaces._final_ranks.cache_info().misses == len(walked) == len(set(walked))


# The arrow test: an arrow whose rank forces more into U_v than e_v rules e
# out, and where no arrow constrains e, Gr_e(M) is a product of Grassmannians.

SMALL_QUIVERS = [
    Quiver(1, ((0, 0),)),                      # a loop
    Quiver(2, ((0, 1),)),                      # A2
    Quiver(2, ((0, 1), (0, 1))),               # Kronecker
    Quiver(2, ((0, 1), (1, 0))),               # a 2-cycle
    Quiver(2, ((0, 0), (0, 1))),               # a loop and an arrow
    Quiver(3, ((0, 1), (2, 1))),               # A3, sink in the middle
    Quiver(3, ((0, 1), (1, 2), (2, 0))),       # a 3-cycle
    Quiver(4, ((0, 3), (1, 3), (2, 3))),       # D4, subspace orientation
]


def _random_rep(rng, quiver):
    dims = tuple(rng.randint(0, 2 if quiver.n > 2 else 3) for _ in range(quiver.n))
    mats = []
    for u, v in quiver.arrows:
        if rng.random() < 0.2:  # a zero map
            mats.append(tuple(tuple(0 for _ in range(dims[u])) for _ in range(dims[v])))
            continue
        mats.append(tuple(tuple(rng.randint(-2, 2) for _ in range(dims[u]))
                          for _ in range(dims[v])))
    return Representation(quiver, dims, tuple(mats))


def test_arrow_test_closed_forms_equal_the_sampled_fit():
    import quivergrass.euler as eu
    rng = random.Random(20100517)
    seen = {"arrow": 0, "no arrow constrains e": 0, "M is rigid": 0}
    for i in range(300):
        rep = _random_rep(rng, SMALL_QUIVERS[i % len(SMALL_QUIVERS)])
        sampling = eu._sampling(rep)
        for e in product(*(range(d + 1) for d in rep.dims)):
            ints, reason, _ = sampling.closed_form(e, why=True)
            if ints is None:
                continue
            kind = next(k for k in seen if reason.startswith(k))
            seen[kind] += 1
            if kind != "M is rigid":  # its per-e fit can meet a bad prime (ROADMAP item 1)
                assert ints == _per_e_fit(rep, e).coefficients, (rep, e)
            poly = counting_polynomial(rep, e)
            assert (poly.coefficients, poly.samples) == (ints, ()), (rep, e)
    assert min(seen["arrow"], seen["no arrow constrains e"]) >= 50 and seen["M is rigid"], seen


def test_closed_forms_give_a_reason_only_when_asked():
    # the same P_e either way; a product of Grassmannians of degree 0 is 1
    import quivergrass.euler as eu
    rng = random.Random("closed-form reasons")
    degree_zero = 0
    for i in range(100):
        rep = _random_rep(rng, SMALL_QUIVERS[i % len(SMALL_QUIVERS)])
        sampling = eu._sampling(rep)
        for e in product(*(range(d + 1) for d in rep.dims)):
            closed = sampling.closed_form(e, why=True)
            plain = sampling.closed_form(e)
            assert plain == (closed[0], None, closed[2]), (rep, e)
            assert (closed[0] is None) == (closed[1] is None), (rep, e)
            if closed[1] and closed[1].startswith("no arrow") and all(x in (0, d) for x, d
                                                                      in zip(e, rep.dims)):
                assert closed[0] == (1,)
                degree_zero += 1
    assert degree_zero >= 50, degree_zero


def test_arrow_test_settles_a_thin_root_with_no_prime(monkeypatch):
    # every arrow of a thin A5 root has rank 1, so each e is ruled out
    # (e_u = 1, e_v = 0) or unconstrained: no prime is reduced
    import quivergrass.euler as eu
    reduced = []
    monkeypatch.setattr(eu, "reduce_mod", lambda rep, p: reduced.append(p))
    eu._sampling.cache_clear()
    rs = dk.root_system("A", 5)
    rep = dk.dynkin_indecomposable(dk.orientation_from_coxeter(rs, (0, 2, 4, 1, 3)),
                                   (1, 1, 1, 1, 1), seed=0)
    assert f_polynomial(rep) == dk.f_polynomial_via_minor(5, (0, 2, 4, 1, 3), (1, 1, 1, 1, 1), "A")
    assert reduced == []
    eu._sampling.cache_clear()


def test_prime_field_inputs_are_refused():
    # a zero arrow rules out or leaves unconstrained every e of the (2, 2)
    # box, so no prime would be reduced to catch a prime-field input later
    zero = Representation(Quiver(2, ((0, 1),)), (2, 2), (((0, 0), (0, 0)),), field=5)
    with pytest.raises(DomainMismatch, match="already over a prime field"):
        f_polynomial(zero)
    with pytest.raises(DomainMismatch, match="already over a prime field"):
        counting_polynomial(zero, (1, 1))
    with pytest.raises(DomainMismatch, match="already over a prime field"):
        counting_polynomial(reduce_mod(build_kronecker(preprojective(2)), 3), (1, 1))


def test_arrowless_f_polynomial_is_a_product_of_grassmannians():
    # sampling (6, 6) without arrows needs primes up to 11 at (3, 3), past
    # the default cap; the closed form needs none
    start = time.perf_counter()
    f = f_polynomial(Representation(Quiver(2, ()), (6, 6), ()))
    assert time.perf_counter() - start < 1.0
    u1, u2 = FPolynomial.variable(2, 0), FPolynomial.variable(2, 1)
    assert f == (1 + u1) ** 6 * (1 + u2) ** 6
    # one vertex of dimension 40: each product is read off one value
    start = time.perf_counter()
    f = f_polynomial(Representation(Quiver(1, ()), (40,), ()))
    assert time.perf_counter() - start < 1.0
    assert f == (1 + FPolynomial.variable(1, 0)) ** 40


# Rigid M: Gr_e(M) is empty when <e, d - e> < 0, and otherwise its count is a
# palindrome of degree <e, d - e>; rigidity is certified by End at one prime.

def test_rigid_empty_e_settles_with_no_samples():
    # pr(4) has dims (3, 4), and <(1, 1), (2, 3)> = 2 + 3 - 2 * 1 * 3 < 0; no
    # single arrow rules (1, 1) out: each forces only dim U_2 >= 1
    poly = counting_polynomial(build_kronecker(preprojective(4)), (1, 1))
    assert (poly.coefficients, poly.samples, poly.chi) == ((), (), 0)


def test_closed_form_reports_its_own_degree_as_bound():
    # inj(4) has dims (4, 3): at (3, 1) an arrow of rank 3 rules e out, and at
    # (2, 1) M is rigid with <e, d - e> = -2; the arrow bound is 2 at both
    import quivergrass.euler as eu
    inj4 = build_kronecker(preinjective(4))
    for e in ((3, 1), (2, 1)):
        poly = counting_polynomial(inj4, e)
        assert (poly.coefficients, poly.samples, poly.degree_bound) == ((), (), 0), e
        assert eu._sampling(inj4).degree_bound(e) == 2
    # a product of Grassmannians keeps sum e_v (d_v - e_v), the arrow bound there
    poly = counting_polynomial(build_kronecker(preprojective(2)), (0, 1))
    assert (poly.coefficients, poly.samples, poly.degree_bound) == ((1, 1), (), 1)


def test_degree_bound_is_worked_out_only_where_e_samples(monkeypatch):
    # closed_form settles most of a box before any prime; only the e it
    # leaves take samples, and only they need the arrow bound
    import quivergrass.euler as eu
    bound, count_planned = eu._Sampling.degree_bound, eu._count_planned
    asked, sampled = [], set()

    def spy(self, e):
        asked.append(tuple(e))
        return bound(self, e)

    def recorded(rep_p, plan, es, *args):
        sampled.update(es)
        return count_planned(rep_p, plan, es, *args)

    monkeypatch.setattr(eu._Sampling, "degree_bound", spy)
    monkeypatch.setattr(eu, "_count_planned", recorded)
    rs = dk.root_system("D", 4)
    d4 = dk.dynkin_indecomposable(dk.orientation_from_coxeter(rs, (0, 1, 2, 3)), (1, 2, 1, 1),
                                  seed=0)
    for rep in (build_kronecker(preprojective(4)), d4):
        asked.clear()
        sampled.clear()
        f_polynomial(rep)
        assert len(sampled) == 3 and sorted(asked) == sorted(sampled), rep.dims


# Ringel's theorem: a rigid M on a Dynkin quiver is certified.  Each sampled
# prime must keep End(M mod p) = <d, d>, and the per-e and palindrome tests
# take no held-out prime.

def _e_root(rank, alpha, seed):
    rs = dk.root_system("E", rank)
    return dk.dynkin_indecomposable(dk.orientation_from_coxeter(rs, tuple(range(rank))), alpha,
                                    seed=seed)


def _box(rep):
    return list(product(*(range(d + 1) for d in rep.dims)))


def _end_jumps(rep, n):
    """The primes among the first n good ones at which dim End(M mod p) > <d, d>."""
    import quivergrass.euler as eu
    sampling = eu._sampling(rep)
    return [p for p in good_primes(rep, n)
            if hom_dim(sampling.reduction(p), sampling.reduction(p)) > sampling.form]


def test_certified_e6_root_gives_one_f_polynomial_for_every_draw():
    # the indecomposable of (1, 2, 2, 3, 2, 1) is unique up to isomorphism,
    # so the draw cannot matter.  End jumps at 5, 7 and 11 for seed 0, at 5
    # and 11 for seed 1, at 5, 7 and 13 for seed 3 and nowhere for seed 2;
    # with held-out primes alone seeds 0, 1 and 3 raised NonPolynomialCount
    alpha = (1, 2, 2, 3, 2, 1)
    jumps = {0: [5, 7, 11], 1: [5, 11], 2: [], 3: [5, 7, 13]}
    want = f_polynomial(_e_root(6, alpha, 2))
    for seed, primes in jumps.items():
        rep = _e_root(6, alpha, seed)
        assert f_polynomial(rep) == want, seed
        assert _end_jumps(rep, 4) == primes, seed
        sampled = {p for e in _box(rep) for p, _ in counting_polynomial(rep, e).samples}
        assert sampled and not sampled & set(primes), (seed, sampled)


def test_certified_e7_root_skips_the_prime_where_end_jumps():
    # seed 0's draw of (0, 1, 1, 2, 2, 1, 0) has End of dimension 2 mod 5, its
    # first good prime; every e samples 7 instead and the F-polynomial is
    # that of the other draws
    import quivergrass.euler as eu
    alpha = (0, 1, 1, 2, 2, 1, 0)
    rep = _e_root(7, alpha, 0)
    assert eu._sampling(rep).certified()
    assert good_primes(rep, 2) == [5, 7] and _end_jumps(rep, 2) == [5]
    sampled = {p for e in _box(rep) for p, _ in counting_polynomial(rep, e).samples}
    assert sampled == {7}
    f = f_polynomial(rep)
    for seed in (1, 2, 3):
        assert f_polynomial(_e_root(7, alpha, seed)) == f, seed


def test_certificate_is_refused_off_dynkin_and_off_rigid():
    # pr(4) is rigid, but the Kronecker quiver's Tits form is only
    # semidefinite; on A2, S_1 + S_2 (the zero arrow) and P_1 + S_1 + S_2 (the
    # arrow diag(1, 0)) are not rigid.  Each keeps the held-out schedule
    import quivergrass.euler as eu
    a2 = Quiver(2, ((0, 1),))
    cases = [
        (build_kronecker(preprojective(4)), True,
         {(1, 2): [3, 5, 7, 11], (1, 3): [3, 5, 7, 11], (2, 3): [3, 5, 7]}),
        (Representation(a2, (1, 1), (((0,),),)), False, {}),
        (Representation(a2, (2, 2), (((1, 0), (0, 0)),)), False,
         {(1, 0): [3, 5, 7], (1, 1): [3, 5, 7, 11], (2, 1): [3, 5, 7]}),
    ]
    for rep, rigid, schedule in cases:
        sampling = eu._sampling(rep)
        assert (sampling.rigid(), sampling.certified()) == (rigid, False), rep
        got = {e: [p for p, _ in counting_polynomial(rep, e).samples] for e in _box(rep)}
        assert {e: primes for e, primes in got.items() if primes} == schedule, rep


def test_certified_interpolation_keeps_its_public_contract():
    # the default still asks for HELD_OUT held-out samples; held_out=0 is the
    # certified path, which fits the nodes alone and still rejects
    with pytest.raises(InsufficientSamples, match=r"need 4 samples for degree 1 \(\+2 held out\)"):
        interpolate_counting_polynomial([(3, 4), (5, 6)], 1)
    poly = interpolate_counting_polynomial([(3, 4), (5, 6)], 1, held_out=0)
    assert (poly.coefficients, poly.samples) == ((1, 1), ((3, 4), (5, 6)))
    with pytest.raises(InsufficientSamples, match=r"need 2 samples for degree 1 \(\+0 held out\)"):
        interpolate_counting_polynomial([(3, 4)], 1, held_out=0)
    with pytest.raises(NonPolynomialCount, match="the counts 4 at 3 and 5 at 7"):
        interpolate_counting_polynomial([(3, 4), (7, 5)], 1, held_out=0)
    # -(q - 3)(q - 7) / 2 passes every pair and is not integral
    with pytest.raises(NonPolynomialCount, match="non-integer coefficients"):
        interpolate_counting_polynomial([(3, 0), (5, 2), (7, 0)], 2, held_out=0)


def test_a_box_the_closed_forms_settle_builds_nothing_more(monkeypatch):
    # every e of a thin A4 root's box is ruled out or a product of
    # Grassmannians, so no bound, prime iterator or certificate is asked for
    import quivergrass.euler as eu
    asked = []
    for name in ("reductions", "degree_bound", "certified", "rigid"):
        def spy(self, *args, _name=name, _orig=getattr(eu._Sampling, name)):
            asked.append(_name)
            return _orig(self, *args)
        monkeypatch.setattr(eu._Sampling, name, spy)
    rs = dk.root_system("A", 4)
    for word in ((0, 1, 2, 3), (1, 0, 3, 2)):
        for alpha in rs.positive_roots:
            rep = dk.dynkin_indecomposable(dk.orientation_from_coxeter(rs, word), alpha)
            f = f_polynomial(rep)
            assert f.coefficient((0,) * 4) == f.coefficient(alpha) == 1, (word, alpha)
    assert asked == []


def test_forcing_tables_are_built_on_first_use(monkeypatch):
    # the closed forms settle every e of a thin A5 root's box, so its
    # sampling context never asks for a degree or fiber bound, and so never
    # reads the forcing arrows off the routing
    import quivergrass.euler as eu
    bound, calls = eu._Sampling.fiber_bound, []

    def counted(self, *args):
        calls.append(args)
        return bound(self, *args)

    monkeypatch.setattr(eu._Sampling, "fiber_bound", counted)
    rs = dk.root_system("A", 5)
    for word in ((0, 1, 2, 3, 4), (1, 0, 3, 2, 4)):
        rep = dk.dynkin_indecomposable(dk.orientation_from_coxeter(rs, word), (1,) * 5)
        f_polynomial(rep)
        assert calls == [], word
    # the bounds read the routing when asked, with the values pinned above
    sampling = eu._Sampling(build_kronecker(preinjective(4)))
    assert sampling.degree_bound((3, 1)) == sampling.degree_bound((2, 1)) == 2
    assert calls
    quartic = eu._Sampling(sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5))
    assert quartic.fiber_bound(False, (1, 0)) == 2


def _position_bound(rep, backward, e):
    """One side of the degree bound by positions: s_v is the largest
    e_u - (d_u - rank phi_a) over the arrows u -> v (flipped on the dual)
    whose source comes first in the search order."""
    pos = {v: i for i, v in enumerate(_routing(rep.quiver, backward).order)}
    forced = [0] * rep.n
    for (s, t), mat in zip(rep.quiver.arrows, rep.matrices):
        u, v = (t, s) if backward else (s, t)
        if pos[u] < pos[v]:
            forced[v] = max(forced[v], e[u] - (rep.dims[u] - fraction_rank(mat)))
    return sum(max(0, x - f) * (d - x) for x, f, d in zip(e, forced, rep.dims))


def _bound_reps():
    """Seeded acyclic quivers on 3-5 vertices, vertex labels shuffled
    against the arrows and one arrow doubled, with matrices of every rank
    (products through a random inner dimension), and one quiver with a
    cycle and parallel arrows."""
    rng = random.Random("bounds")
    for _ in range(12):
        n = rng.randint(3, 5)
        label = list(range(n))
        rng.shuffle(label)
        arrows = [(label[i], label[j]) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.5]
        arrows = arrows or [(label[0], label[1])]
        arrows.append(rng.choice(arrows))
        yield Quiver(n, tuple(arrows)), tuple(rng.randint(0, 2) for _ in range(n))
    yield Quiver(3, ((0, 1), (1, 2), (2, 0), (0, 1))), (2, 2, 1)


def test_degree_and_fiber_bounds_match_the_position_rule():
    import quivergrass.euler as eu
    rng = random.Random("bound matrices")
    for quiver, dims in _bound_reps():
        mats = []
        for s, t in quiver.arrows:
            inner = rng.randint(0, min(dims[s], dims[t]))
            left = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(dims[t])]
            right = [[rng.randint(-2, 2) for _ in range(dims[s])] for _ in range(inner)]
            mats.append(tuple(tuple(sum(x * r[c] for x, r in zip(row, right))
                                    for c in range(dims[s])) for row in left))
        rep = Representation(quiver, dims, tuple(mats))
        sampling = eu._Sampling(rep)
        for e in product(*(range(d + 1) for d in dims)):
            dual = tuple(d - x for d, x in zip(dims, e))
            ahead, behind = _position_bound(rep, False, e), _position_bound(rep, True, dual)
            assert sampling.fiber_bound(False, e) == ahead, (quiver, dims, e)
            assert sampling.fiber_bound(True, dual) == behind, (quiver, dims, e)
            assert sampling.fiber_bound(True, e) == _position_bound(rep, True, e)
            assert sampling.degree_bound(e) == min(ahead, behind), (quiver, dims, e)


def test_rigid_dimension_is_worked_out_once_per_e(monkeypatch):
    # <e, d - e> is read once for every e the arrow tests leave: the rigid
    # empty e it settles and each pending e, whose palindrome reads it again
    import quivergrass.euler as eu
    dimension, count_planned = eu._Sampling.rigid_dimension, eu._count_planned
    asked, sampled = [], set()

    def spy(self, e):
        asked.append(tuple(e))
        return dimension(self, e)

    def recorded(rep_p, plan, es, *args):
        sampled.update(es)
        return count_planned(rep_p, plan, es, *args)

    monkeypatch.setattr(eu._Sampling, "rigid_dimension", spy)
    monkeypatch.setattr(eu, "_count_planned", recorded)
    for rep in (build_kronecker(preinjective(4)), build_kronecker(preprojective(3))):
        asked.clear()
        sampled.clear()
        f_polynomial(rep)
        sampling = eu._sampling(rep)
        assert sorted(asked) == sorted(set(asked)), rep.dims  # once per e
        assert sampled and sampled <= set(asked), rep.dims
        assert all(dimension(sampling, e) < 0 for e in set(asked) - sampled), rep.dims


def test_rigid_palindrome_settles_inj4_at_four_primes():
    # <(1, 2), (3, 1)> = 3, so two nodes and two held out, where the per-e
    # test needs six primes and the fiber test five
    poly = counting_polynomial(build_kronecker(preinjective(4)), (1, 2))
    assert poly.coefficients == (1, 2, 2, 1)
    assert [p for p, _ in poly.samples] == [3, 5, 7, 11]
    assert poly.degree_bound == 4


def test_palindrome_fit():
    from quivergrass.euler import _palindrome, _palindrome_fit
    cube = [(p, 1 + 2 * p + 2 * p * p + p ** 3) for p in (3, 5, 7, 11)]
    assert _palindrome(tuple(cube[:2]), 3) == (1, 2, 2, 1)
    assert _palindrome_fit(cube, 3) == (1, 2, 2, 1)
    assert _palindrome(((3, 0), (5, 0)), 2) == ()
    assert _palindrome(((3, 1),), 0) == (1,)
    # 1 + 2q is not a palindrome: c_0 (1 + q) = 7 has no integer solution
    assert _palindrome(((3, 7),), 1) is None
    # q fits c_0 (1 + q^2) + c_1 q through two nodes only with c_0 = 0
    assert _palindrome(((3, 3), (5, 5)), 2) is None
    # a held-out count that disagrees
    assert _palindrome_fit(cube[:3] + [(11, 0)], 3) is None


def test_palindrome_returns_every_integer_palindrome():
    # through the first D // 2 + 1 odd primes, every palindrome of degree
    # D <= 8 with c_0 != 0 comes back exactly, and the zero one as ()
    from quivergrass.euler import _palindrome
    rng, primes = random.Random("palindromes"), (3, 5, 7, 11, 13)
    for degree in range(9):
        nodes = primes[:degree // 2 + 1]
        assert _palindrome(tuple((p, 0) for p in nodes), degree) == ()
        for _ in range(40):
            half = [rng.choice((-1, 1)) * rng.randint(1, 9)] + [
                rng.randint(-9, 9) for _ in range(degree // 2)]
            coeffs = tuple(half[min(i, degree - i)] for i in range(degree + 1))
            counts = tuple((p, sum(c * p ** i for i, c in enumerate(coeffs))) for p in nodes)
            assert _palindrome(counts, degree) == coeffs, (degree, coeffs)


def test_failed_palindrome_leaves_e_to_the_other_tests(monkeypatch):
    # pr(1) + reg(2, 0) is not rigid, and Gr_(1, 2) counts 1 + 2q, not a
    # palindrome of degree <(1, 2), (1, 1)> = 1; told it is rigid, e must
    # still get 1 + 2q from the per-e test, never a rejection
    import quivergrass.euler as eu
    rep = direct_sum(build_kronecker(preprojective(1)), build_kronecker(regular(2, 0)))
    monkeypatch.setattr(eu._Sampling, "rigid", lambda self: True)
    eu._sampling.cache_clear()
    poly = counting_polynomial(rep, (1, 2))
    assert poly.coefficients == (1, 2)
    assert len(poly.samples) > 1 + HELD_OUT  # sampled past the palindrome's schedule
    eu._sampling.cache_clear()


def test_end_certificate_is_asked_only_where_rigidity_can_hold(monkeypatch):
    # <d, d> < 1 on regular Kronecker modules, their sums and the quartic;
    # End's one reader is `_Sampling.end`, whose only elimination is hom_dim
    import quivergrass.euler as eu
    asked = []
    hom = eu.hom_dim

    def counted(a, b):
        asked.append(a.field)
        return hom(a, b)

    monkeypatch.setattr(eu, "hom_dim", counted)
    eu._sampling.cache_clear()
    reps = [build_kronecker(regular(m, lam)) for m in (1, 2, 3) for lam in (0, INFINITY)]
    reps += [direct_sum(build_kronecker(regular(1, a)), build_kronecker(regular(1, b)))
             for a, b in ((1, 4), (2, 7))]
    reps.append(sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5))
    for rep in reps:
        for _ in iter_box_chi(rep):
            pass
    assert asked == []
    counting_polynomial(build_kronecker(preprojective(4)), (1, 1))  # <e, d - e> = -1
    assert asked == [3]  # certified at the first good prime, worked out once
    eu._sampling.cache_clear()


def test_end_certificate():
    import quivergrass.euler as eu
    # rigid: End = <d, d> = 1 at the first good prime
    assert eu._Sampling(build_kronecker(preinjective(4))).end() == 1
    assert eu._Sampling(build_kronecker(preinjective(4))).rigid()
    # the quartic: End = 1 > <d, d> = -23, so not rigid; reg(2, 0): <d, d> = 0
    quartic = eu._Sampling(sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5))
    assert (quartic.end(), quartic.rigid()) == (1, False)
    assert not eu._Sampling(build_kronecker(regular(2, 0))).rigid()
    # S1 + S1 on one vertex: End = 4 = <d, d>
    assert eu._Sampling(Representation(ONE_VERTEX, (2,), ())).rigid()
    # a cycle has no Euler form, so nothing certifies End of the 2-cycle's
    # (1, 1): it is eliminated over Q, and the module counts as not rigid
    cycle = Representation(Quiver(2, ((0, 1), (1, 0))), (1, 1), (((1,),), ((1,),)))
    assert (eu._Sampling(cycle).end(), eu._Sampling(cycle).rigid()) == (1, False)


def test_end_certificate_is_thread_safe(monkeypatch):
    import quivergrass.euler as eu
    calls = []
    hom = eu.hom_dim

    def counted(a, b):
        calls.append(a.field)
        return hom(a, b)

    monkeypatch.setattr(eu, "hom_dim", counted)
    sampling = eu._Sampling(build_kronecker(preinjective(4)))
    results: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(sampling.end()))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [1] * 4
    assert calls == [3]  # one hom_dim, at the first good prime, for all four


def test_rigid_verdict_is_thread_safe(monkeypatch):
    # every e the arrow test leaves asks `rigid`, from whichever thread
    # samples it: End is worked out once, and every thread reads one verdict
    import quivergrass.euler as eu
    calls = []
    hom = eu.hom_dim

    def counted(a, b):
        calls.append(a.field)
        return hom(a, b)

    monkeypatch.setattr(eu, "hom_dim", counted)
    sampling = eu._Sampling(build_kronecker(preprojective(4)))
    results: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(sampling.rigid()))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 4
    assert calls == [3]


@pytest.mark.parametrize("label,rank", [("A", 5), ("D", 4), ("D", 5), ("D", 6), ("E", 6)])
def test_rigid_sweep_matches_the_oracles(label, rank):
    # every root under the identity and the reversed word (E6: the roots with
    # an oracle), judged by the thin formula or the minor route where they apply
    from oracles import thin_f_polynomial
    from quivergrass.errors import ScopeError
    rs = dk.root_system(label, rank)
    for word in (tuple(range(rank)), tuple(reversed(range(rank)))):
        quiver = dk.orientation_from_coxeter(rs, word)
        for alpha in rs.positive_roots:
            if max(alpha) == 1:
                want = thin_f_polynomial(quiver, alpha)
            else:
                try:
                    want = dk.f_polynomial_via_minor(rank, word, alpha, label)
                except ScopeError:
                    want = None
            if want is None and label == "E":
                continue
            got = f_polynomial(dk.dynkin_indecomposable(quiver, alpha))
            assert want is None or got == want, (word, alpha)


@pytest.mark.parametrize("m", range(1, 6))
def test_rigid_kronecker_sweep_matches_the_closed_forms(m):
    for kind in (preprojective(m), preinjective(m)):
        rep = build_kronecker(kind)
        got = f_polynomial(rep)
        for e in product(*(range(d + 1) for d in rep.dims)):
            assert got.terms.get(e, 0) == kronecker_chi(kind, e), (kind, e)


# ROADMAP item 1: a prime can keep every arrow's rank while End(M mod p)
# jumps.  The refusals below are of counts that are not polynomial in q (End
# mod p equals End over Q at every rejecting prime), and they must survive
# item 1's fix; the xfail cases are polynomial-count inputs refused today,
# each asserting the answer item 1 must give.

_ITEM_1_REFUSED = {
    "2-Kronecker (3, 3)": lambda: sample_general_rep(kronecker_quiver(2), (3, 3), 0, 3),
    "(2, 3, 2) on 1 => 2 -> 3": lambda: sample_general_rep(
        Quiver(3, ((0, 1), (0, 1), (1, 2))), (2, 3, 2), 0),
    "3-Kronecker (3, 4)": lambda: sample_general_rep(kronecker_quiver(3), (3, 4), 0),
    "4-Kronecker (4, 5)": lambda: sample_general_rep(kronecker_quiver(4), (4, 5), 0),
}


_ITEM_1_KEPT = [("2-Kronecker (3, 3)", (1, 1)), ("(2, 3, 2) on 1 => 2 -> 3", (1, 2, 1))] + [
    (name, e) for name, es in (("3-Kronecker (3, 4)", ((1, 2), (1, 3), (2, 3))),
                               ("4-Kronecker (4, 5)", ((1, 3), (1, 4), (2, 4))))
    for e in es]


@pytest.mark.parametrize("name,e", _ITEM_1_KEPT, ids=[f"{n} at {e}" for n, e in _ITEM_1_KEPT])
def test_general_samples_stay_refused_where_the_count_is_not_polynomial(name, e):
    with pytest.raises(NonPolynomialCount, match=re.escape(f"at dimension vector {e} sampled")):
        counting_polynomial(_ITEM_1_REFUSED[name](), e)


@pytest.mark.xfail(strict=True, raises=NonPolynomialCount,
                   reason="ROADMAP item 1: End jumps at a prime that keeps every arrow's rank")
@pytest.mark.parametrize("build,e,coefficients", [
    # two points (the summands) wherever the eigenvalues 1 and 4 stay apart
    (lambda: direct_sum(build_kronecker(regular(1, 1)), build_kronecker(regular(1, 4))),
     (1, 1), (2,)),
    (lambda: direct_sum(build_kronecker(regular(1, 2)), build_kronecker(regular(1, 7))),
     (1, 1), (2,)),
    # the first sum in another basis: its coefficient quiver is connected
    (lambda: Representation(kronecker_quiver(2), (2, 2), (((1, 0), (0, 1)), ((1, 3), (0, 4)))),
     (1, 1), (2,)),
    # P(1)^2 with End_Q of dimension 4: a projective line of copies of P(1)
    (lambda: sample_general_rep(kronecker_quiver(2), (2, 4), 0, 3), (1, 2), (1, 1)),
], ids=["reg1(1)+reg1(4)", "reg1(2)+reg1(7)", "base-changed reg1(1)+reg1(4)",
        "2-Kronecker (2, 4)"])
def test_polynomial_counts_refused_at_an_end_jump(build, e, coefficients):
    poly = counting_polynomial(build(), e)
    assert (poly.coefficients, poly.chi) == (coefficients, 2)
