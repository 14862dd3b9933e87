import pytest

from quivergrass.errors import (
    DegenerateForm,
    NonPolynomialCount,
    SearchTooLarge,
    SmoothnessFailure,
)
from quivergrass.fpoly import FPolynomial
from quivergrass.euler import euler_characteristic
from quivergrass.kronecker import (
    build_kronecker,
    kronecker_quiver,
    preprojective,
    regular,
)
from quivergrass.model import Quiver, Representation, simple_representation
from quivergrass.sampler import (
    EXAMPLE4_DIMS,
    example4_quartic,
    example4_verify,
    positivity_scan,
    _curve_points,
    _projective_plane,
    sample_general_rep,
    smoothness_probe,
)

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


def test_sampler_zero_dims_and_bound():
    rep = sample_general_rep(kronecker_quiver(2), (0, 0), 1, 5)
    assert rep.is_zero
    with pytest.raises(ValueError):
        sample_general_rep(kronecker_quiver(2), (1, 1), 1, 1)
    bounded = sample_general_rep(kronecker_quiver(2), (3, 3), 9, 2)
    assert all(-2 <= x <= 2 for mat in bounded.matrices for row in mat for x in row)


def test_quartic_degree_and_homogeneity():
    f = example4_quartic(seed42_rep())
    assert f.is_homogeneous(4)
    assert f.total_degree() == 4
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
    from quivergrass.model import reduce_mod
    from quivergrass.subspaces import iter_subrep_tuples
    rep = seed42_rep()
    f = example4_quartic(rep)
    for p in (5, 7):
        rep_p = reduce_mod(rep, p)
        lines_on_grass = {pt.bases[0] for pt in iter_subrep_tuples(rep_p, (1, 3))}
        from quivergrass.subspaces import enumerate_subspaces
        for line in enumerate_subspaces(p, 3, 1):
            v = line[0]
            vanishes = f.evaluate(v) % p == 0
            assert vanishes == (line in lines_on_grass), (p, v)


def test_smoothness_probe_projective_line():
    rep = Representation(ONE_VERTEX, (2,), ())
    report = smoothness_probe(rep, (1,), 7)
    assert report["smooth_consistent"]
    assert report["expected_dim"] == 1
    assert report["tangent_dims"] == {1: 8}
    assert report["points"] == 8


def test_smoothness_probe_single_point():
    rep = build_kronecker(preprojective(2))
    report = smoothness_probe(rep, (0, 0), 5)
    assert report["points"] == 1
    assert report["tangent_dims"] == {0: 1}
    assert report["smooth_consistent"]


def test_smoothness_probe_rigid_kronecker():
    report = smoothness_probe(build_kronecker(preprojective(3)), (1, 2), 5)
    assert report["smooth_consistent"]
    assert report["expected_dim"] == 1


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
    import quivergrass.euler as eu
    import quivergrass.sampler as sm
    reduced = []
    for module in (eu, sm):
        def recorded(rep, p, reduce=module.reduce_mod):
            reduced.append((rep, p))
            return reduce(rep, p)
        monkeypatch.setattr(module, "reduce_mod", recorded)
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


def test_example4_verify_no_primes_withholds_chi():
    report = example4_verify(seed42_rep(), ())
    assert report["is_quartic"]
    assert report["chi"] is None
    assert report["smooth_over_each_p"] == {}


def test_example4_interpolation_rejects():
    with pytest.raises(NonPolynomialCount):
        euler_characteristic(seed42_rep(), (1, 3))


def test_positivity_scan_preprojectives():
    for m in (1, 2, 3):
        report = positivity_scan(build_kronecker(preprojective(m)))
        assert report["all_nonnegative"]
        assert not report["refused"]
        assert report["rigid"]


def test_positivity_scan_simple():
    rep = simple_representation(Quiver(2, ((0, 1),)), 0)
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
    json.dumps(smoothness_probe(build_kronecker(preprojective(2)), (0, 1), 3))
    json.dumps(positivity_scan(build_kronecker(preprojective(2))))
