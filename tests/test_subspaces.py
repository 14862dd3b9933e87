import random
from itertools import product

import pytest

from quivergrass import linalg
from quivergrass.errors import DegenerateBase, SearchTooLarge
from quivergrass.kronecker import (
    INFINITY,
    build_kronecker,
    preinjective,
    preprojective,
    regular,
)
from quivergrass.model import (
    Quiver,
    Representation,
    is_subrepresentation,
    reduce_mod,
)
from quivergrass.subspaces import (
    _Budget,
    _count,
    _iter_rref,
    _iter_superspaces,
    _SearchPlan,
    count_subreps,
    count_subreps_profile,
    default_cap,
    enumerate_subspaces,
    gaussian_binomial,
    iter_subrep_tuples,
)

from oracles import naive_count_subreps, naive_subspaces, span_set

ONE_VERTEX = Quiver(1, ())


def test_gaussian_binomial_values():
    assert gaussian_binomial(5, 0, 7) == 1
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(2, 1, 5) == 6
    assert gaussian_binomial(3, -1, 2) == 0
    assert gaussian_binomial(3, 4, 2) == 0


def test_gaussian_binomial_matches_naive_enumeration():
    assert gaussian_binomial(4, 2, 2) == len(naive_subspaces(2, 4, 2))
    assert gaussian_binomial(3, 1, 3) == len(naive_subspaces(3, 3, 1))


def test_gaussian_binomial_degenerate_base():
    with pytest.raises(DegenerateBase):
        gaussian_binomial(3, 1, 1)


def test_enumerate_subspaces_zero_dim():
    assert list(enumerate_subspaces(5, 3, 0)) == [()]


def test_enumerate_subspaces_lines_of_f2_squared():
    bases = set(enumerate_subspaces(2, 2, 1))
    assert bases == {((1, 0),), ((0, 1),), ((1, 1),)}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_enumerate_counts_match_gaussian(p):
    for m in range(6):
        for e in range(m + 1):
            got = list(enumerate_subspaces(p, m, e))
            assert len(got) == gaussian_binomial(m, e, p)
            assert len(set(got)) == len(got)  # canonical, hence distinct


def test_enumerate_spans_match_naive_oracle():
    for p, m, e in ((2, 4, 2), (3, 3, 2), (5, 2, 1)):
        engine = {span_set(rows, p, m) for rows in enumerate_subspaces(p, m, e)}
        assert engine == naive_subspaces(p, m, e)


def test_count_trivial_endpoints():
    rep = reduce_mod(build_kronecker(preprojective(2)), 3)
    assert count_subreps(rep, (0, 0)).count == 1
    assert count_subreps(rep, rep.dims).count == 1


def test_count_one_vertex_matches_gaussian():
    for p in (2, 3, 5):
        for m in range(6):
            rep = Representation(ONE_VERTEX, (m,), (), field=p)
            for e in range(m + 1):
                assert count_subreps(rep, (e,)).count == gaussian_binomial(m, e, p)


def test_count_lines_in_plane():
    for p in (3, 7, 13):
        rep = Representation(ONE_VERTEX, (2,), (), field=p)
        assert count_subreps(rep, (1,)).count == p + 1


def test_count_preprojective_e11_is_zero():
    for p in (2, 3, 5):
        rep = reduce_mod(build_kronecker(preprojective(2)), p)
        assert count_subreps(rep, (1, 1)).count == 0


def test_count_against_naive_oracle_including_cycles():
    rng = random.Random("count-oracle")
    quivers = [
        Quiver(2, ((0, 1), (0, 1))),
        Quiver(2, ((0, 1), (1, 0))),   # oriented 2-cycle
        Quiver(1, ((0, 0),)),          # loop
        Quiver(3, ((0, 1), (1, 2))),
    ]
    for q in quivers:
        for p in (2, 3):
            dims = tuple(rng.randint(1, 2) for _ in range(q.n))
            mats = tuple(
                tuple(tuple(rng.randrange(p) for _ in range(dims[s]))
                      for _ in range(dims[t]))
                for s, t in q.arrows)
            rep = Representation(q, dims, mats, field=p)
            for e in [(0,) * q.n, dims] + [tuple(rng.randint(0, d) for d in dims)
                                           for _ in range(3)]:
                expected = naive_count_subreps(q.arrows, dims, mats, e, p)
                assert count_subreps(rep, e).count == expected, (q, p, dims, e)


def test_count_product_bound():
    rep = reduce_mod(build_kronecker(preprojective(3)), 3)
    for e1 in range(3):
        for e2 in range(4):
            bound = (gaussian_binomial(2, e1, 3) * gaussian_binomial(3, e2, 3))
            assert count_subreps(rep, (e1, e2)).count <= bound


def test_search_too_large():
    rep = Representation(Quiver(2, ()), (6, 6), (), field=41)
    with pytest.raises(SearchTooLarge) as err:
        count_subreps(rep, (3, 3), cap=1000)
    assert err.value.estimate == gaussian_binomial(6, 3, 41) ** 2
    assert err.value.cap == 1000


def test_cap_counts_generated_candidates_not_product_bound():
    # the product bound exceeds the cap, but pruning keeps the real work small
    rep = reduce_mod(build_kronecker(preprojective(3)), 5)
    bound = gaussian_binomial(2, 1, 5) * gaussian_binomial(3, 2, 5)
    assert bound > 30
    assert count_subreps(rep, (1, 2), cap=40).count == 6  # p + 1 points


def test_default_cap_env(monkeypatch):
    monkeypatch.setenv("QUIVERGRASS_CAP", "12345")
    assert default_cap() == 12345
    monkeypatch.delenv("QUIVERGRASS_CAP")
    assert default_cap() == 10 ** 8


def test_profile_matches_per_vector_counts():
    rep = reduce_mod(build_kronecker(preprojective(3)), 3)
    for e1 in range(3):
        profile = count_subreps_profile(rep, (e1, 0))
        for e2 in range(4):
            assert profile[e2] == count_subreps(rep, (e1, e2)).count


def test_profile_unavailable_with_constrained_final_vertex():
    q = Quiver(2, ((0, 1), (1, 0)))
    rep = Representation(q, (1, 1), (((1,),), ((1,),)), field=3)
    assert count_subreps_profile(rep, (1, 0)) is None


def test_iter_subrep_tuples_consistent():
    rep = reduce_mod(build_kronecker(preprojective(2)), 3)
    for e in ((0, 1), (1, 2), (0, 2)):
        points = list(iter_subrep_tuples(rep, e))
        assert len(points) == count_subreps(rep, e).count
        assert len(set(points)) == len(points)
        for pt in points:
            assert pt.dims == e
            assert is_subrepresentation(rep, pt)


def _kronecker_modules(max_m):
    for m in range(1, max_m + 1):
        yield preprojective(m)
        yield preinjective(m)
        for lam in (0, 1, INFINITY):
            yield regular(m, lam)


def test_forward_and_backward_searches_agree():
    # the backward plan counts Gr_{d-e} of the dual; each direction is forced
    for kind in _kronecker_modules(3):
        rep = build_kronecker(kind)
        for p in (3, 5):
            rp = reduce_mod(rep, p)
            for e in product(*(range(d + 1) for d in rep.dims)):
                forward = _count(_SearchPlan(rp, e), _Budget(10 ** 6, 0))
                backward = _count(_SearchPlan(rp, e, backward=True), _Budget(10 ** 6, 0))
                assert forward == backward == count_subreps(rp, e).count, (kind, p, e)


def test_cheaper_direction_fits_under_cap():
    rep = reduce_mod(build_kronecker(preinjective(4)), 23)
    assert _SearchPlan(rep, (2, 2)).enumerated_estimate() == 293090
    assert _SearchPlan(rep, (2, 2), backward=True).enumerated_estimate() == 553
    # 553 candidates plus one shortcut tick each stay below the cap
    assert count_subreps(rep, (2, 2), cap=2000).count == 553
    with pytest.raises(SearchTooLarge) as err:
        count_subreps(rep, (2, 2), cap=1000)
    assert err.value.estimate == gaussian_binomial(4, 2, 23) * gaussian_binomial(3, 2, 23)


def test_incremental_images_match_matvec():
    rng = random.Random("images")
    for p in (2, 3, 5):
        for m in range(5):
            mats = [tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(t))
                    for t in (0, 1, 3)]
            cols = [tuple(tuple(row[c] for row in mat) for c in range(m)) for mat in mats]
            for e in range(m + 1):
                for rows, _, images in _iter_rref(p, m, e, cols):
                    for mat, imgs in zip(mats, images):
                        assert imgs == tuple(linalg.matvec_mod(mat, w, p) for w in rows)


def test_superspace_images_span_the_image():
    rng = random.Random("superspaces")
    p, m = 3, 4
    mat = tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(3))
    cols = [tuple(tuple(row[c] for row in mat) for c in range(m))]
    for s in range(1, 3):
        srows, spivots, _ = next(_iter_rref(p, m, s))
        for e in range(s, m + 1):
            found = list(_iter_superspaces(p, m, e, srows, spivots, cols))
            assert len(found) == gaussian_binomial(m - s, e - s, p)
            for rows, pivots, (imgs,) in found:
                assert linalg.rref_mod(rows + srows, p) == (rows, pivots)
                assert (linalg.rref_mod(imgs, p)
                        == linalg.rref_mod([linalg.matvec_mod(mat, w, p) for w in rows], p))


def test_rank_mod_matches_rref():
    rng = random.Random("rank")
    for p in (2, 3, 7):
        for _ in range(200):
            width = rng.randint(1, 5)
            matrix = [[rng.randrange(2 * p) if rng.random() < 0.6 else 0 for _ in range(width)]
                      for _ in range(rng.randint(0, 6))]
            assert linalg.rank_mod(matrix, p) == len(linalg.rref_mod(matrix, p)[0])
