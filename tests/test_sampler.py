import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from quivergrass.dynkin import dynkin_indecomposable, orientation_from_coxeter, root_system
from quivergrass.errors import (
    CountMismatch,
    DegenerateForm,
    NonPolynomialCount,
    NotAcyclic,
    SearchTooLarge,
    ShapeMismatch,
    SmoothnessFailure,
)
from quivergrass.fpoly import FPolynomial
from quivergrass.euler import euler_characteristic, good_primes
from quivergrass.kronecker import (
    build_kronecker,
    kronecker_quiver,
    preinjective,
    preprojective,
    regular,
)
from quivergrass.linalg import matvec_mod, reduce_mod as reduce_vector
from quivergrass.model import (
    Quiver,
    Representation,
    euler_form,
    hom_dim,
    reduce_mod,
    validate_representation,
)
from quivergrass.sampler import (
    EXAMPLE4_DIMS,
    example4_quartic,
    example4_verify,
    positivity_scan,
    _curve_points,
    _projective_plane,
    sample_general_rep,
)
from quivergrass.subspaces import _iter_rref, iter_subrep_tuples

from oracles import poly_det

ONE_VERTEX = Quiver(1, ())

# first-run output of sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5),
# frozen so any drift in the generator contract is caught
SEED42_MATRICES = (
    ((5, -4, -5), (-1, -2, -2), (-3, -4, 5), (3, -4, 4)),
    ((1, -5, -5), (-4, -2, -2), (3, 4, -5), (3, -2, 5)),
    ((3, 1, -2), (2, 4, -1), (-5, -3, 1), (0, -1, -3)),
    ((-2, 0, -4), (-4, 1, -4), (0, 0, 4), (-1, -5, 2)),
)


def seed42_rep():
    return sample_general_rep(kronecker_quiver(4), EXAMPLE4_DIMS, 42, 5)


def test_sampler_determinism_and_fixture():
    rep = seed42_rep()
    assert rep.matrices == SEED42_MATRICES
    assert rep == seed42_rep()
    other = sample_general_rep(kronecker_quiver(4), EXAMPLE4_DIMS, 43, 5)
    assert other != rep


def test_sampler_entry_points_refuse_non_integers():
    # each used to truncate: dims (1.7, 2.2) as (1, 2) and the prime 5.5 as 5;
    # the bound 2.5 failed inside randrange and True as "at least 2"
    with pytest.raises(ValueError, match="dimension must be an integer, got 1.7"):
        sample_general_rep(kronecker_quiver(), (1.7, 2.2), 0)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"bound must be an integer, got {bad}"):
            sample_general_rep(kronecker_quiver(), (1, 1), 0, bad)
    with pytest.raises(ValueError, match="prime must be an integer, got 5.5"):
        example4_verify(seed42_rep(), (5.5,))
    assert sample_general_rep(kronecker_quiver(), (1, 2), 0).dims == (1, 2)


@pytest.mark.parametrize("seed", [1.0, 2.5, True])
def test_seeded_draws_refuse_a_seed_that_is_not_an_integer(seed):
    # each used to be accepted: sample_general_rep read 1.0 as 1, while
    # dynkin_indecomposable formats the seed into its generator's key, so 1.0
    # drew other matrices than 1
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
        sample_general_rep(kronecker_quiver(2), (1, 1), seed)
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
        dynkin_indecomposable(Quiver(3, ((0, 1), (1, 2))), (1, 1, 1), seed=seed)


def _arrow_by_arrow(rng, quiver, dims, bound):
    """The loop each sampler ran before they shared one draw: entries
    rng.randint(-bound, bound), arrow by arrow, row-major in each matrix."""
    mats = []
    for s, t in quiver.arrows:
        mats.append(tuple(tuple(rng.randint(-bound, bound) for _ in range(dims[s]))
                          for _ in range(dims[t])))
    return tuple(mats)


def _first_indecomposable(quiver, dims, seed):
    """`dynkin_indecomposable` by the arrow-by-arrow loop and the checked
    constructor: the first draw with hom(M, M) = 1."""
    rng = random.Random(f"quivergrass-indec:{quiver.arrows}:{dims}:{seed}")
    for _ in range(200):
        rep = Representation(quiver, dims, _arrow_by_arrow(rng, quiver, dims, 3))
        if hom_dim(rep, rep) == 1:
            return rep
    raise AssertionError(f"no indecomposable at {dims}")


def test_seeded_draws_reproduce_the_arrow_by_arrow_loop():
    kron4 = kronecker_quiver(4)
    d4, dims = orientation_from_coxeter(root_system("D", 4), (0, 1, 2, 3)), (1, 2, 1, 1)
    for seed in (*range(20), 42):  # seeds 0, 3, 5, 8, 9 and 12 take more than one D4 draw
        want = Representation(kron4, EXAMPLE4_DIMS, _arrow_by_arrow(random.Random(seed), kron4,
                                                                    EXAMPLE4_DIMS, 5))
        got = sample_general_rep(kron4, EXAMPLE4_DIMS, seed)
        validate_representation(got)
        assert got == want
        got = dynkin_indecomposable(d4, dims, seed)
        validate_representation(got)
        assert got == _first_indecomposable(d4, dims, seed)


@pytest.mark.parametrize("label,rank,reversed_too", [
    ("A", 1, True), ("A", 2, True), ("A", 3, True), ("A", 4, True), ("A", 5, True),
    ("D", 5, False), ("E", 6, False),
])
def test_seeded_indecomposables_equal_the_checked_draw(label, rank, reversed_too):
    # the draws are built unchecked; each equals the checked constructor's
    # result and passes the check it skipped
    rs = root_system(label, rank)
    words = [tuple(range(rank))] + [tuple(reversed(range(rank)))] * reversed_too
    for word in words:
        quiver = orientation_from_coxeter(rs, word)
        for alpha in rs.positive_roots:
            for seed in (0, 1):
                got = dynkin_indecomposable(quiver, alpha, seed)
                validate_representation(got)
                assert got == _first_indecomposable(quiver, alpha, seed), (word, alpha, seed)


def test_sample_general_rep_checks_the_dims_before_the_draw():
    # a short dimension vector used to reach the draw and fail there with
    # an IndexError
    with pytest.raises(ShapeMismatch, match="^shape mismatch: 1 dims for 2 vertices$"):
        sample_general_rep(kronecker_quiver(2), (3,), 0)
    with pytest.raises(ShapeMismatch, match="^shape mismatch: 3 dims for 2 vertices$"):
        sample_general_rep(kronecker_quiver(2), (1, 1, 1), 0)
    with pytest.raises(ShapeMismatch,
                       match="^shape mismatch: negative dimension -1 at vertex 2$"):
        sample_general_rep(kronecker_quiver(2), (1, -1), 0)


def test_sampler_zero_dims_and_bound():
    rep = sample_general_rep(kronecker_quiver(2), (0, 0), 1, 5)
    assert rep.dims == (0, 0) and rep.matrices == ((), ())
    with pytest.raises(ValueError):
        sample_general_rep(kronecker_quiver(2), (1, 1), 1, 1)
    bounded = sample_general_rep(kronecker_quiver(2), (3, 3), 9, 2)
    assert all(-2 <= x <= 2 for mat in bounded.matrices for row in mat for x in row)


def test_quartic_degree_and_homogeneity():
    f = example4_quartic(seed42_rep())
    assert f.is_homogeneous(4)
    assert max(sum(e) for e in f.terms) == 4  # the total degree
    # f(t v) = t^4 f(v) at a sample point
    v = (2, -1, 3)
    t = 5
    assert f.evaluate(tuple(t * x for x in v)) == t ** 4 * f.evaluate(v)
    # Euler's relation for a form of degree 4: sum_i v_i df/dv_i = 4 f
    assert sum(x * f.partial(i).evaluate(v) for i, x in enumerate(v)) == 4 * f.evaluate(v)


def test_quartic_degenerate_when_maps_repeat():
    mat = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
    rep = Representation(kronecker_quiver(4), EXAMPLE4_DIMS, (mat,) * 4)
    with pytest.raises(DegenerateForm):
        example4_quartic(rep)


def test_quartic_degenerate_when_one_map_zero():
    good = seed42_rep()
    zero = tuple(tuple(0 for _ in range(3)) for _ in range(4))
    rep = Representation(kronecker_quiver(4), EXAMPLE4_DIMS,
                         good.matrices[:3] + (zero,))
    with pytest.raises(DegenerateForm):
        example4_quartic(rep)


def _cofactor_quartic(rep):
    """det[phi_1 v | ... | phi_4 v] by cofactor expansion over FPolynomials."""
    v = [FPolynomial.variable(3, c) for c in range(3)]
    return poly_det([[sum((x * vc for x, vc in zip(rep.matrices[k][r], v)),
                          FPolynomial.zero(3)) for k in range(4)] for r in range(4)])


def test_quartic_matches_the_cofactor_determinant():
    for seed in range(40):
        rep = sample_general_rep(kronecker_quiver(4), EXAMPLE4_DIMS, seed, 5)
        assert example4_quartic(rep) == _cofactor_quartic(rep), seed
    # both degenerate cases vanish under either expansion
    repeated = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
    zero = ((0, 0, 0),) * 4
    for mats in ((repeated,) * 4, seed42_rep().matrices[:3] + (zero,)):
        rep = Representation(kronecker_quiver(4), EXAMPLE4_DIMS, mats)
        assert not _cofactor_quartic(rep)
        with pytest.raises(DegenerateForm):
            example4_quartic(rep)


def _brute_curve_points(f, p):
    """`_curve_points` by evaluating f and its partials at every point of P^2(F_p)."""
    partials = [f.partial(i) for i in range(3)]
    curve = []
    for v in _projective_plane(p):
        if f.evaluate(v) % p == 0:
            curve.append(v)
            if all(g.evaluate(v) % p == 0 for g in partials):
                raise SmoothnessFailure(p, v)
    return curve


def test_line_scan_matches_a_brute_force_scan():
    singular = set()
    for seed in [*range(20), 41]:
        f = example4_quartic(sample_general_rep(kronecker_quiver(4), EXAMPLE4_DIMS, seed, 5))
        for p in (5, 7, 11, 13):
            try:
                want = _brute_curve_points(f, p)
            except SmoothnessFailure as exc:
                with pytest.raises(SmoothnessFailure) as err:
                    _curve_points(f, p)
                assert (err.value.prime, err.value.point) == (exc.prime, exc.point)
                singular.add((seed, p, exc.point))
            else:
                assert _curve_points(f, p) == want, (seed, p)
    assert (41, 5, (1, 0, 4)) in singular


def test_quartic_vanishes_exactly_on_grassmannian_fibers():
    # f(v) = 0 iff some 3-dim space contains all four images of v
    rep = seed42_rep()
    f = example4_quartic(rep)
    for p in (5, 7):
        rep_p = reduce_mod(rep, p)
        lines_on_grass = {pt.bases[0] for pt in iter_subrep_tuples(rep_p, (1, 3))}
        for line, _, _ in _iter_rref(p, 3, 1):
            v = line[0]
            vanishes = f.evaluate(v) % p == 0
            assert vanishes == (line in lines_on_grass), (p, v)


def _sub_and_quotient(rep, sub):
    """The subrepresentation N of a prime-field rep on the RREF bases of sub,
    and the quotient M/N on the non-pivot columns of each basis, which span a
    complement of N_v."""
    p = rep.field
    pivots = [[row.index(1) for row in basis] for basis in sub.bases]
    frees = [[c for c in range(d) if c not in piv] for d, piv in zip(rep.dims, pivots)]
    sub_mats, quot_mats = [], []
    for (s, t), mat in zip(rep.quiver.arrows, rep.matrices):
        # a vector of N_t has its coordinates in the basis at the pivot columns
        images = [matvec_mod(mat, w, p) for w in sub.bases[s]]
        sub_mats.append(tuple(tuple(img[c] for img in images) for c in pivots[t]))
        cols = [reduce_vector([row[c] for row in mat], sub.bases[t], pivots[t], p)
                for c in frees[s]]
        quot_mats.append(tuple(tuple(col[r] for col in cols) for r in frees[t]))
    return (Representation(rep.quiver, sub.dims, tuple(sub_mats), field=p),
            Representation(rep.quiver, tuple(map(len, frees)), tuple(quot_mats), field=p))


def _tangent_dims(rep, e, p):
    """How many F_p-points N of Gr_e(M) have each tangent dimension dim Hom(N, M/N)."""
    rep_p = reduce_mod(rep, p)
    return Counter(hom_dim(*_sub_and_quotient(rep_p, sub)) for sub in iter_subrep_tuples(rep_p, e))


def _expected_dim(rep, e):
    return euler_form(rep.quiver, e, [d - x for d, x in zip(rep.dims, e)])


def test_smoothness_probe_projective_line():
    # Gr_1(k^2) = P^1: 8 points over F_7, each of tangent dimension 1
    rep = Representation(ONE_VERTEX, (2,), ())
    assert _expected_dim(rep, (1,)) == 1
    assert _tangent_dims(rep, (1,), 7) == {1: 8}


def test_smoothness_probe_single_point():
    rep = build_kronecker(preprojective(2))
    assert _expected_dim(rep, (0, 0)) == 0
    assert _tangent_dims(rep, (0, 0), 5) == {0: 1}


def test_smoothness_probe_rigid_kronecker():
    rep = build_kronecker(preprojective(3))
    assert _expected_dim(rep, (1, 2)) == 1
    tangents = _tangent_dims(rep, (1, 2), 5)
    assert tangents and set(tangents) == {1}


def _rigid_corpus():
    for m in (1, 2, 3, 4):
        yield build_kronecker(preprojective(m))
        yield build_kronecker(preinjective(m))
    for label, rank in (("A", 3), ("D", 4)):
        rs = root_system(label, rank)
        for word in (tuple(range(rank)), tuple(reversed(range(rank)))):
            quiver = orientation_from_coxeter(rs, word)
            for alpha in rs.positive_roots:
                yield dynkin_indecomposable(quiver, alpha)


def test_rigid_grassmannians_are_smooth_of_dimension_the_euler_form():
    # the premises of the palindrome fit and of the rigid-empty closed form:
    # for rigid M, every point of Gr_e(M) has tangent dimension <e, d - e>,
    # and Gr_e(M) is empty when that is negative.  The probe needs a good
    # prime: at 3 an entry 3 of the seed-0 D4 root (0, 1, 1, 1) drops an
    # arrow's rank, and the reduction has a point at e = (0, 0, 0, 1), where
    # <e, d - e> = -1
    probes = 0
    for rep in _rigid_corpus():
        p = good_primes(rep, 1)[0]
        for e in product(*(range(d + 1) for d in rep.dims)):
            expected = euler_form(rep.quiver, e, [d - x for d, x in zip(rep.dims, e)])
            tangents = _tangent_dims(rep, e, p)
            assert set(tangents) <= {expected}, (rep.dims, e, p, tangents)
            assert expected >= 0 or not tangents, (rep.dims, e, p)
            probes += 1
    assert probes == 292
    # not rigid: reg(2, 0) at (1, 1) is one point, of tangent dimension 1 > 0
    reg = build_kronecker(regular(2, 0))
    assert euler_form(reg.quiver, (1, 1), (1, 1)) == 0
    assert _tangent_dims(reg, (1, 1), 3) == {1: 1}


def test_example4_verify_seed42():
    report = example4_verify(seed42_rep(), (5, 7, 11))
    assert report["is_quartic"]
    assert report["chi"] == -4
    assert report["non_polynomial_cross_check"]
    assert set(report["smooth_over_each_p"]) == {5, 7, 11}
    for p, pc in report["point_count_match"].items():
        assert pc["match"]
        assert pc["curve_points"] == pc["grassmannian_points"]
        assert not pc["rank_deficient_points"]


def test_example4_verify_takes_reductions_from_the_sampling_context(monkeypatch):
    # the sampler imports no reduce_mod of its own: every reduction is euler's
    import quivergrass.euler as eu
    import quivergrass.sampler as sm
    assert not hasattr(sm, "reduce_mod")
    reduced = []

    def recorded(rep, p, reduce=eu.reduce_mod):
        reduced.append((rep, p))
        return reduce(rep, p)

    monkeypatch.setattr(eu, "reduce_mod", recorded)
    rep = seed42_rep()
    eu._sampling.cache_clear()
    with pytest.raises(NonPolynomialCount):
        euler_characteristic(rep, (1, 3))
    assert example4_verify(rep, (5, 7, 11))["chi"] == -4
    assert {p for _, p in reduced} >= {5, 7, 11}
    assert len(reduced) == len(set(reduced))  # each (representation, prime) once


def test_example4_verify_counts_under_the_cap_before_it_scans_the_curve(monkeypatch):
    # the scan visits p^2 + p + 1 points, 9 million at p = 3001: a prime too
    # large for the cap must be refused before it
    import quivergrass.sampler as sm

    def scanned(f, p):
        raise AssertionError(f"the curve was scanned mod {p}")

    monkeypatch.setattr(sm, "_curve_points", scanned)
    with pytest.raises(SearchTooLarge, match="p = 3001"):
        example4_verify(seed42_rep(), (3001,), cap=1000)


def test_example4_verify_checks_a_repeated_prime_once(monkeypatch):
    # `example4 --primes 5,5` counted Gr_(1,3) and scanned P^2(F_5) twice
    import quivergrass.sampler as sm
    scanned = []

    def counted(f, p, scan=sm._curve_points):
        scanned.append(p)
        return scan(f, p)

    monkeypatch.setattr(sm, "_curve_points", counted)
    report = example4_verify(seed42_rep(), (5, 5))
    assert scanned == [5]
    assert list(report["point_count_match"]) == [5] and report["chi"] == -4


def test_example4_verify_no_primes_withholds_chi():
    report = example4_verify(seed42_rep(), ())
    assert report["is_quartic"]
    assert report["chi"] is None
    assert report["smooth_over_each_p"] == {}


def test_example4_interpolation_rejects():
    with pytest.raises(NonPolynomialCount):
        euler_characteristic(seed42_rep(), (1, 3))


def test_example4_refuses_an_interpolation_route_that_accepts_the_quartic(monkeypatch):
    monkeypatch.setattr("quivergrass.sampler.euler_characteristic", lambda rep, e, cap: -4)
    with pytest.raises(CountMismatch, match="interpolation route unexpectedly accepted") as err:
        example4_verify(seed42_rep(), (5,))
    assert err.value.prime == 0


def test_positivity_scan_preprojectives():
    for m in (1, 2, 3):
        report = positivity_scan(build_kronecker(preprojective(m)))
        assert report["all_nonnegative"]
        assert not report["refused"]
        assert report["rigid"]


def test_positivity_scan_simple():
    rep = Representation(Quiver(2, ((0, 1),)), (1, 0), ((),))  # the simple S_1
    report = positivity_scan(rep)
    chis = {tuple(r["e"]): r["chi"] for r in report["entries"]}
    assert chis[(0, 0)] == 1 and chis[(1, 0)] == 1
    assert report["all_nonnegative"]


def test_positivity_scan_requires_indecomposable():
    rep = Representation(ONE_VERTEX, (2,), ())  # C^2 = C + C
    with pytest.raises(ValueError):
        positivity_scan(rep)


def test_positivity_scan_requires_rigid_unless_waived():
    reg = build_kronecker(regular(1, 2))
    with pytest.raises(ValueError):
        positivity_scan(reg)
    report = positivity_scan(reg, require_rigid=False)
    assert report["all_nonnegative"]
    assert not report["rigid"]


def test_positivity_scan_forwards_quartic_chi():
    report = positivity_scan(seed42_rep(), require_rigid=False)
    assert [tuple(r["e"]) for r in report["refused"]] == [(1, 3)]
    assert report["forwarded_chi"] == {"e": [1, 3], "chi": -4}
    assert report["all_nonnegative"]  # every polynomial-count chi here is >= 0


def test_reports_are_json_serializable():
    import json
    json.dumps(example4_verify(seed42_rep(), (5,)))
    json.dumps(positivity_scan(build_kronecker(preprojective(2))))


@pytest.mark.parametrize("call,error,message", [
    (lambda: example4_quartic(build_kronecker(preprojective(2))), ValueError,
     "expected the 4-arrow Kronecker quiver with dims (3, 4)"),
    (lambda: example4_quartic(Representation(  # four 4 x 3 matrices, one entry 1/2
        kronecker_quiver(4), EXAMPLE4_DIMS, (((Fraction(1, 2), 0, 0),) + ((0, 0, 0),) * 3,) * 4)),
     ValueError, "the quartic is built from integer matrices"),
    (lambda: positivity_scan(Representation(Quiver(1, ((0, 0),)), (1,), (((1,),),))),
     NotAcyclic, "positivity scan expects an acyclic quiver"),
], ids=["not-the-shape", "fraction-entry", "cyclic"])
def test_sampler_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
