import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest

from quivergrass import linalg, subspaces
from quivergrass.dynkin import dynkin_indecomposable, orientation_from_coxeter, root_system
from quivergrass.errors import (
    DegenerateBase,
    DomainMismatch,
    MixedScalarDomains,
    ParseError,
    SearchTooLarge,
)
from quivergrass.kronecker import (
    INFINITY,
    build_kronecker,
    preinjective,
    preprojective,
    kronecker_quiver,
    regular,
)
from quivergrass.model import (
    Quiver,
    Representation,
    dual_representation,
    reduce_mod,
)
from quivergrass.sampler import EXAMPLE4_E, sample_general_rep
from quivergrass.subspaces import (
    _Budget,
    _count_many,
    _count_planned,
    _fiber_count,
    _final_ranks,
    _gauss_product,
    _iter_rref,
    _iter_superspaces,
    _plan,
    _routing,
    count_subreps,
    default_cap,
    gaussian_binomial,
    iter_subrep_tuples,
    read_cap,
)

import oracles
from oracles import (
    apply_matrix,
    bipartite_word,
    fraction_rank,
    modular_rank,
    naive_count_subreps,
    naive_subspaces,
    span_set,
)

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


def test_gaussian_binomial_refuses_non_integers_and_keeps_its_cache_exact():
    # 2.0 and 2 share a cache key, so one call with 2.0 used to leave 3.0
    # cached for every later count: the closed form of a product of
    # Grassmannians then had float coefficients
    from quivergrass.euler import counting_polynomial
    with pytest.raises(ValueError, match="ambient dimension must be an integer, got 2.0"):
        gaussian_binomial(2.0, 1, 2)
    with pytest.raises(ValueError, match="base must be an integer, got 3.5"):
        gaussian_binomial(4, 2, 3.5)
    with pytest.raises(ValueError, match="ambient dimension must be an integer, got True"):
        gaussian_binomial(True, 1, 3)
    poly = counting_polynomial(Representation(Quiver(2, ()), (2, 2), ()), (1, 1))
    assert poly.coefficients == (1, 2, 1)
    assert all(type(c) is int for c in poly.coefficients)


def _rref_bases(p, m, e):
    return [rows for rows, _, _ in _iter_rref(p, m, e)]


def test_enumerate_subspaces_zero_dim():
    assert _rref_bases(5, 3, 0) == [()]


def test_enumerate_subspaces_lines_of_f2_squared():
    assert set(_rref_bases(2, 2, 1)) == {((1, 0),), ((0, 1),), ((1, 1),)}


def test_is_prime_agrees_with_a_sieve():
    n = 20000
    sieve = [False, False] + [True] * (n - 2)
    for q in range(2, n):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, n, q))
    assert [linalg.is_prime(k) for k in range(-3, n)] == [False] * 3 + sieve
    assert linalg.is_prime(2 ** 31 + 11) and linalg.is_prime(2 ** 31 - 1)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_enumerate_counts_match_gaussian(p):
    for m in range(6):
        for e in range(m + 1):
            got = _rref_bases(p, m, e)
            assert len(got) == gaussian_binomial(m, e, p)
            assert len(set(got)) == len(got)  # canonical, hence distinct


def test_enumerate_spans_match_naive_oracle():
    for p, m, e in ((2, 4, 2), (3, 3, 2), (5, 2, 1)):
        engine = {span_set(rows, p, m) for rows in _rref_bases(p, m, e)}
        assert engine == naive_subspaces(p, m, e)


def test_count_trivial_endpoints():
    rep = reduce_mod(build_kronecker(preprojective(2)), 3)
    assert count_subreps(rep, (0, 0)).count == 1
    assert count_subreps(rep, rep.dims).count == 1


def test_count_subreps_validates_its_input():
    # the set count behind it trusts its input, so the public entry checks it
    rep = build_kronecker(preprojective(2))
    with pytest.raises(DomainMismatch):
        count_subreps(rep, (0, 1))
    rep3 = reduce_mod(rep, 3)
    for e in ((2, 1), (0, 4), (-1, 0), (0, 1, 0)):
        with pytest.raises(ValueError, match="outside the box"):
            count_subreps(rep3, e)
    with pytest.raises(MixedScalarDomains, match="not reduced mod 3"):
        unreduced = Representation(rep3.quiver, rep3.dims, (rep3.matrices[0], ((3,), (1,))),
                                   field=3)
        count_subreps(unreduced, (0, 1))


def test_count_subreps_refuses_non_integer_vectors():
    rep3 = reduce_mod(build_kronecker(preprojective(2)), 3)
    for e in ((0.5, 1), (0, 1.0), (0, "1")):
        with pytest.raises(ValueError, match="must be an integer"):
            count_subreps(rep3, e)
    np = pytest.importorskip("numpy")
    assert count_subreps(rep3, (np.int64(0), np.int32(1))).count == 4


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
    # the product over the searched vertex, refused before the walk
    assert err.value.estimate == gaussian_binomial(6, 3, 41)
    assert err.value.estimate > err.value.cap == 1000 and err.value.visited is None


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


def test_library_cap_is_a_non_negative_integer(monkeypatch):
    # cap="1000" used to count, True to mean a cap of 1, and -1 to fail the
    # search with "exceeds cap -1"; --cap and QUIVERGRASS_CAP refused them already
    from quivergrass.euler import euler_characteristic
    rep = build_kronecker(preprojective(3))
    rep3 = reduce_mod(rep, 3)
    for bad, message in (("1000", "cap must be an integer, got '1000'"),
                         (True, "cap must be an integer, got True"),
                         (2.5, "cap must be an integer, got 2.5"),
                         (-1, "cap must be non-negative, got -1")):
        with pytest.raises(ValueError, match=message):
            euler_characteristic(rep, (1, 2), cap=bad)
        with pytest.raises(ValueError, match=message):
            count_subreps(rep3, (1, 2), cap=bad)
        with pytest.raises(ValueError, match=message):
            next(iter_subrep_tuples(rep3, (1, 2), cap=bad))
    monkeypatch.setenv("QUIVERGRASS_CAP", "77")
    assert read_cap(None) == 77 and read_cap(0) == 0
    assert euler_characteristic(rep, (1, 2), cap=1000) == 2


def test_default_cap_env_rejects_non_integer(monkeypatch):
    monkeypatch.setenv("QUIVERGRASS_CAP", "1e3")
    with pytest.raises(ParseError, match=r"QUIVERGRASS_CAP='1e3'"):
        default_cap()


def test_default_cap_env_rejects_negative(monkeypatch):
    monkeypatch.setenv("QUIVERGRASS_CAP", "-3")
    with pytest.raises(ParseError, match=r"QUIVERGRASS_CAP='-3'"):
        default_cap()
    monkeypatch.setenv("QUIVERGRASS_CAP", "0")
    assert default_cap() == 0


def _fiber(e1, d2):
    return [(e1, x) for x in range(d2 + 1)]


def _walk_keys(plan):
    """(direction, key) of every walk of the plan."""
    return {entry[:2] for entry in plan.values()}


def test_profile_matches_per_vector_counts():
    rep = reduce_mod(build_kronecker(preprojective(3)), 3)
    for e1 in range(3):
        profile = _count_many(rep, _fiber(e1, 3))
        for e2 in range(4):
            assert profile[e1, e2] == count_subreps(rep, (e1, e2)).count


def test_set_counts_with_constrained_final_vertex():
    q = Quiver(2, ((0, 1), (1, 0)))
    rep = Representation(q, (1, 1), (((1,),), ((1,),)), field=3)
    box = list(product(range(2), repeat=2))
    assert _count_many(rep, box) == {e: count_subreps(rep, e).count for e in box}
    assert _count_many(rep, _fiber(1, 1)) == {(1, 0): 0, (1, 1): 1}


def test_iter_subrep_tuples_consistent():
    rep = reduce_mod(build_kronecker(preprojective(2)), 3)
    for e in ((0, 1), (1, 2), (0, 2)):
        points = list(iter_subrep_tuples(rep, e))
        assert len(points) == count_subreps(rep, e).count
        assert len(set(points)) == len(points)
        for pt in points:
            assert pt.dims == e
            spans = [span_set(rows, rep.field, d) for rows, d in zip(pt.bases, rep.dims)]
            for (s, t), mat in zip(rep.quiver.arrows, rep.matrices):
                assert all(apply_matrix(mat, v, rep.field) in spans[t] for v in spans[s])


def _kronecker_modules(max_m):
    for m in range(1, max_m + 1):
        yield preprojective(m)
        yield preinjective(m)
        for lam in (0, 1, INFINITY):
            yield regular(m, lam)


def _forced(rep, e, backward=False):
    """Count Gr_e(rep) on an acyclic quiver by one shortcut walk in the given
    direction, whatever is cheaper; backward, it walks rep at d - e along the
    routing of the opposite quiver."""
    if backward:
        e = tuple(d - x for d, x in zip(rep.dims, e))
    final = _routing(rep.quiver, backward).order[-1]
    key = e[:final] + (0,) + e[final + 1:]
    ranks = _final_ranks(rep, backward, key, 10 ** 6)
    return _fiber_count(ranks, rep.dims[final], e[final], rep.field)


def _dual_oracle(rep, e):
    """The forward walk of the explicit dual at d - e: what a backward walk must count."""
    return _forced(dual_representation(rep), tuple(d - x for d, x in zip(rep.dims, e)))


def test_forward_and_backward_searches_agree():
    # the backward walk counts Gr_{d-e} of the dual without building it; each
    # direction is forced, and the explicit dual's forward walk is the oracle
    for kind in _kronecker_modules(3):
        rep = build_kronecker(kind)
        for p in (3, 5):
            rp = reduce_mod(rep, p)
            for e in product(*(range(d + 1) for d in rep.dims)):
                forward, backward = _forced(rp, e), _forced(rp, e, backward=True)
                assert forward == backward == _dual_oracle(rp, e), (kind, p, e)
                assert forward == count_subreps(rp, e).count, (kind, p, e)


def test_cheaper_direction_fits_under_cap():
    def enumerated(rep, e):
        return _gauss_product(rep.dims, e, rep.field, _routing(rep.quiver).searched)

    rep = reduce_mod(build_kronecker(preinjective(4)), 23)
    assert enumerated(rep, (2, 2)) == 293090
    assert enumerated(dual_representation(rep), (1, 2)) == 553
    # 553 candidates plus one shortcut tick each stay below the cap
    assert count_subreps(rep, (2, 2), cap=2000).count == 553
    with pytest.raises(SearchTooLarge) as err:
        count_subreps(rep, (2, 2), cap=1000)
    # the dual walk's 553 passes the pre-check; its final-vertex ticks trip the cap
    assert err.value.estimate == 553 <= err.value.cap == 1000
    assert err.value.visited == 1001
    assert _count_many(rep, [(2, 2)], 2000)[2, 2] == 553
    assert _plan(rep, [(2, 2)])[2, 2][0]  # the dual at (2, 1) is the cheaper search
    tie = reduce_mod(build_kronecker(regular(2, 1)), 5)
    assert _count_many(tie, [(1, 1)])[1, 1] == 1  # p + 1 candidates either way
    assert not _plan(tie, [(1, 1)])[1, 1][0]  # the blocks tie too: forward


def test_direction_ties_go_to_the_walk_with_fewer_blocks():
    # reg(3, 2) at (2, 2) has p^2 + p + 1 candidates either way.  Forward,
    # Gr(2, 3) is p + 2 blocks: p pencils, one more pencil and one rank;
    # backward at (1, 1), Gr(1, 3) is a plane, a pencil and a rank
    rep = reduce_mod(build_kronecker(regular(3, 2)), 5)
    assert subspaces._block_count(5, 3, 2, 2) == 5 + 2
    assert subspaces._block_count(5, 3, 1, 2) == 3
    assert _walk_keys(_plan(rep, [(2, 2)])) == {(True, (0, 1))}
    assert _count_many(rep, [(2, 2)])[2, 2] == count_subreps(rep, (2, 2)).count == _forced(
        rep, (2, 2))


def test_block_count_closed_form_matches_the_pivot_sets():
    # the oracle enumerates the pivot sets: per (m, e, arrows) the exponents
    # of p over every pivot set, summed at each p
    for m in range(12):
        for e in range(m + 1):
            for arrows in range(6):
                exponents = [len(subspaces._free_entries(m, pivots, arrows)[0])
                             for pivots in combinations(range(m), e)]
                for p in (2, 3, 5, 7, 11):
                    assert subspaces._block_count(p, m, e, arrows) == sum(
                        p ** x for x in exponents), (p, m, e, arrows)


def test_box_takes_the_walks_of_its_single_e_counts():
    # the box of a square module ties on its summed estimates, so each e
    # takes the walk it takes alone, and the box walks nothing new
    rep = reduce_mod(build_kronecker(regular(3, 2)), 5)
    box = list(product(range(4), repeat=2))
    _final_ranks.cache_clear()
    alone = {e: _count_many(rep, [e])[e] for e in box}
    misses = _final_ranks.cache_info().misses
    plan = _plan(rep, box)
    assert plan == {e: _plan(rep, [e])[e] for e in box}
    assert {backward for backward, _, _ in plan.values()} == {False, True}
    assert _count_many(rep, box) == alone
    assert _final_ranks.cache_info().misses == misses
    _final_ranks.cache_clear()


def test_planned_counts_match_both_directions():
    # seeded square Kronecker and 3-vertex acyclic inputs, planned as single
    # e's and as whole boxes: every count equals the walk of either
    # direction, and some single-e ties go each way
    rng = random.Random("ties")
    inputs = [(kronecker_quiver(2), (m, m)) for m in (2, 3)] + [
        (Quiver(3, ((0, 1), (1, 2), (0, 2))), (2, 2, 2)),
        (Quiver(3, ((0, 1), (2, 1))), (2, 1, 2))]
    tied = set()
    for quiver, dims in inputs:
        rep = sample_general_rep(quiver, dims, rng.randrange(1000), 3)
        box = list(product(*(range(d + 1) for d in dims)))
        for p in (3, 5, 7):
            rp = reduce_mod(rep, p)
            for es in [box] + [[e] for e in box]:
                plan = _plan(rp, es)
                counts = _count_planned(rp, plan, es, default_cap())[0]
                for e in es:
                    assert counts[e] == _forced(rp, e) == _forced(rp, e, backward=True), (
                        dims, p, e)
                    forward, backward = _forced_estimates(rp, e)
                    if len(es) == 1 and forward == backward:
                        tied.add(plan[e][0])
    _final_ranks.cache_clear()
    assert tied == {False, True}


def _forced_estimates(rep, e):
    """The candidate estimates of e's forward and backward shortcut walks."""
    out = []
    for backward in (False, True):
        route = _routing(rep.quiver, backward)
        s = tuple(d - x for d, x in zip(rep.dims, e)) if backward else e
        out.append(_gauss_product(rep.dims, s, rep.field, route.searched))
    return out


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
    # random spans, not unit rows on the first columns: each superspace comes
    # back as the span's rows and then the lifted rows, not as an RREF; its
    # images are those rows' images, and in_span_mod decides membership on
    # that basis as on the canonical RREF of the same subspace
    rng = random.Random("superspaces")
    inside = outside = 0
    for p, m in ((2, 4), (3, 4), (3, 5)):
        mat = tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(3))
        cols = [tuple(tuple(row[c] for row in mat) for c in range(m))]
        for s in range(1, m):
            for _ in range(4):
                srows, spivots = linalg.rref_mod(
                    [[rng.randrange(p) for _ in range(m)] for _ in range(s)], p)
                t = len(srows)
                for e in range(t, m + 1):
                    found = list(_iter_superspaces(p, m, e, srows, spivots, cols))
                    assert len(found) == gaussian_binomial(m - t, e - t, p)
                    canonical = [linalg.rref_mod(rows, p) for rows, _, _ in found]
                    assert len(set(canonical)) == len(found)
                    for (rows, pivots, (imgs,)), (crows, cpivots) in zip(found, canonical):
                        assert len(rows) == len(pivots) == e
                        assert (rows[:t], pivots[:t]) == (srows, spivots)
                        assert linalg.rref_mod(rows + srows, p) == (crows, cpivots)
                        assert imgs == tuple(linalg.matvec_mod(mat, w, p) for w in rows)
                        combos = [[sum(rng.randrange(p) * w[j] for w in crows) % p
                                   for j in range(m)] for _ in range(3)]
                        for vec in combos + [[rng.randrange(p) for _ in range(m)]
                                             for _ in range(6)]:
                            member = linalg.in_span_mod(crows, cpivots, vec, p)
                            assert linalg.in_span_mod(rows, pivots, vec, p) == member
                            inside += member
                            outside += not member
    assert inside and outside


@pytest.mark.parametrize("arrows,dims", [
    (((0, 1), (1, 1)), (2, 3)),          # an arrow into a loop: checked on itself
    (((0, 1), (1, 2), (2, 1)), (1, 3, 2)),  # a 2-cycle checked against a lifted basis
])
def test_lifted_walks_stream_canonical_distinct_points(monkeypatch, arrows, dims):
    # no shortcut on a quiver with cycles: the forced span at vertex 1 (and 2)
    # is nonempty, its superspaces are lifted, and the arrow checks read the
    # lifted rows; each streamed basis is still its own RREF
    lifts = []
    superspaces = subspaces._iter_superspaces

    def recorded(p, m, e, srows, *args, **kwargs):
        lifts.append(0 < len(srows) < e)
        return superspaces(p, m, e, srows, *args, **kwargs)

    monkeypatch.setattr(subspaces, "_iter_superspaces", recorded)
    # the oracle lists each Grassmannian of F_p^3 once, not once per e
    monkeypatch.setattr(oracles, "naive_subspaces", lru_cache(oracles.naive_subspaces))
    rng = random.Random(f"lifts:{arrows}")
    quiver = Quiver(len(dims), arrows)
    for p in (2, 3):
        for _ in range(2):
            mats = tuple(tuple(tuple(rng.randrange(p) for _ in range(dims[s]))
                               for _ in range(dims[t])) for s, t in arrows)
            rep = Representation(quiver, dims, mats, field=p)
            for e in product(*(range(d + 1) for d in dims)):
                points = list(iter_subrep_tuples(rep, e))
                for pt in points:
                    assert all(basis == linalg.rref_mod(basis, p)[0] for basis in pt.bases)
                    assert pt.dims == e
                assert len(set(points)) == len(points)
                want = naive_count_subreps(arrows, dims, mats, e, p)
                assert len(points) == count_subreps(rep, e).count == want, (p, mats, e)
    assert any(lifts)


def test_streaming_reduces_only_bases_that_are_not_canonical(monkeypatch):
    # pr(5) mod 5 at (1, 2): each of the 156 lines at vertex 1 forces a span
    # of dimension 2 into vertex 2, which is then determined, so the walk
    # makes one rref_mod at vertex 1 and one per line; the streamed bases are
    # already RREFs, and streaming adds none
    calls = []
    rref = linalg.rref_mod

    def counted(*args):
        calls.append(args)
        return rref(*args)

    monkeypatch.setattr(linalg, "rref_mod", counted)
    rep = reduce_mod(build_kronecker(preprojective(5)), 5)
    points = list(iter_subrep_tuples(rep, (1, 2)))
    assert (len(points), len(calls)) == (156, 157)
    assert all(basis == rref(basis, 5)[0] for pt in points for basis in pt.bases)
    # the span <e_3> forced into F_3^3 comes first in each lifted basis, and
    # its pivot column is a unit column there: only the pivot order says that
    # the basis still needs its RREF
    rep = Representation(Quiver(2, ((0, 1),)), (1, 3), (((0,), (0,), (1,)),), field=3)
    points = list(iter_subrep_tuples(rep, (1, 2)))
    assert [pt.bases[1] for pt in points] == [((1, x, 0), (0, 0, 1)) for x in range(3)] + [
        ((0, 1, 0), (0, 0, 1))]


def test_rank_mod_matches_rref():
    # any integer matrix: entries need not be reduced mod p, rows may be empty
    rng = random.Random("rank")
    for p in (2, 3, 7):
        for _ in range(200):
            width = rng.randint(0, 5)
            matrix = [[rng.randrange(-2 * p, 2 * p) if rng.random() < 0.6 else 0
                       for _ in range(width)]
                      for _ in range(rng.randint(0, 6))]
            assert linalg.rank_mod(matrix, p) == len(linalg.rref_mod(matrix, p)[0])


def test_pencil_rank_histogram_matches_rank_mod():
    rng = random.Random("pencil")

    def direct(a, b, p):
        hist = {}
        for t in range(p):
            r = linalg.rank_mod([[(x + t * y) % p for x, y in zip(ra, rb)]
                                 for ra, rb in zip(a, b)], p)
            hist[r] = hist.get(r, 0) + 1
        return hist

    def matrix(k, n, p):
        return [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(k)]

    for p in (2, 3, 5, 7, 11):
        for k in range(5):
            for n in range(6):
                for _ in range(8):
                    a, b = matrix(k, n, p), matrix(k, n, p)
                    s = rng.randrange(1, p)
                    cases = [(a, b), (a, [[0] * n] * k), ([[0] * n] * k, b),
                             (a, [[s * x % p for x in row] for row in a])]  # a parallel to b
                    if k > 1:  # a repeated row
                        cases.append((a[:-1] + a[:1], b[:-1] + b[:1]))
                    for pa, pb in cases:
                        hist = linalg.pencil_rank_histogram(pa, pb, p)
                        assert sum(hist.values()) == p
                        assert hist == direct(pa, pb, p), (pa, pb, p)
    # generic rank 2, but the determinant t^2 - t vanishes on all of F_2
    assert linalg.pencil_rank_histogram([[0, 1], [0, 0]], [[1, 0], [1, 1]], 2) == {1: 2}
    # two moving rows with lead columns 0, 1, whose lead minor t^2 has the root
    # t = 0: the rank drops there, or it does not, and the minor on columns 1
    # and 3 shows that, or it vanishes too and a direct rank decides
    lead = [[1, 0, 0, 0], [0, 1, 0, 0]]
    for a, at_root in (([[0, 0, 1, 1], [0, 0, 2, 2]], 1),  # parallel rows at t = 0
                       ([[0, 1, 0, 0], [0, 0, 0, 1]], 2),  # the (1, 3) minor is 1
                       ([[0, 0, 1, 0], [0, 0, 0, 1]], 2),  # the (1, 3) minor is 0
                       ([[0, 0, 0, 0], [0, 0, 0, 1]], 1)):  # a zero row at t = 0
        for p in (3, 5, 7):
            want = {2: p} if at_root == 2 else {2: p - 1, at_root: 1}
            assert linalg.pencil_rank_histogram(a, lead, p) == direct(a, lead, p) == want
    for p in (3, 5):  # no column outside the leads
        assert linalg.pencil_rank_histogram([[0, 0], [0, 0]], [[1, 0], [0, 1]], p) == {2: p - 1,
                                                                                        0: 1}

    def combination(rows, p):
        out = [0] * len(rows[0])
        for row in rows:
            c = rng.randrange(p)
            out = [(x + c * y) % p for x, y in zip(out, row)]
        return out

    # constant rows (b = 0) beside moving ones, as the block walk passes them
    for p in (3, 5, 13, 31):
        for _ in range(60):
            n = rng.randint(2, 7)
            k0, k1 = rng.randint(1, 4), rng.randint(1, 5)  # k1 >= 3: a characteristic polynomial
            const = matrix(k0, n, p)
            a, b = const + matrix(k1, n, p), [[0] * n] * k0 + matrix(k1, n, p)
            zero_b = [[0] * n for _ in range(k1)]
            cases = [(a, b), (const + a[k0:], [[0] * n] * k0 + zero_b)]
            if k1 > 1:
                # b rows dependent only modulo the constant span: one of them
                # is peeled off as a constant row, and the rest are peeled again
                moved = b[k0:-1] + [[(x + y) % p for x, y in zip(b[k0], combination(const, p))]]
                cases.append((a, b[:k0] + moved))
                # a b row entirely inside the constant span
                cases.append((a, b[:k0] + b[k0:-1] + [combination(const, p)]))
            for pa, pb in cases:
                order = rng.sample(range(len(pa)), len(pa))  # constants anywhere
                pa, pb = [pa[i] for i in order], [pb[i] for i in order]
                hist = linalg.pencil_rank_histogram(pa, pb, p)
                assert sum(hist.values()) == p
                assert hist == direct(pa, pb, p), (pa, pb, p)
    # modulo the constant row e1 both b rows are e2, so the second peeling
    # round adds the constant e3; one row moves, (0, t, 0), of rank 1 but at t = 0
    assert linalg.pencil_rank_histogram(
        [[1, 0, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 0], [1, 1, 0], [0, 1, 0]], 13) == {3: 12, 2: 1}

    # planes a + t*b + u*c, as the block walk passes them when its two
    # innermost free entries share a row, against a scan over (t, u)
    def direct_plane(a, b, c, p):
        hist = {}
        for u in range(p):
            line = [[(x + u * z) % p for x, z in zip(ra, rc)] for ra, rc in zip(a, c)]
            for r, k in direct(line, b, p).items():
                hist[r] = hist.get(r, 0) + k
        return hist

    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(24):
            n = rng.randint(1, 6)
            k0, k1 = rng.randint(0, 3), rng.randint(0, 4)  # constant and moving rows
            const = matrix(k0, n, p)
            a = const + matrix(k1, n, p)
            b, c = ([[0] * n] * k0 + matrix(k1, n, p) for _ in range(2))
            cases = [(a, b, c), (a, b, [[0] * n] * (k0 + k1))]
            if k0:
                # a row with b = 0 and c != 0: the constant span moves with u
                cases.append((a, b, [matrix(1, n, p)[0]] + c[1:]))
                if k1:
                    # a b row inside the constant span, its c part moving or not
                    bent = b[:-1] + [combination(const, p)]
                    cases += [(a, bent, c), (a, bent, c[:-1] + [[0] * n])]
                if k1 > 1:  # a b row dependent on another one modulo the constants
                    moved = [[(x + y) % p for x, y in zip(b[k0], combination(const, p))]]
                    cases.append((a, b[:-1] + moved, c))
            for pa, pb, pc in cases:
                order = rng.sample(range(len(pa)), len(pa))  # constants anywhere
                pa, pb, pc = ([m[i] for i in order] for m in (pa, pb, pc))
                hist = linalg.pencil_rank_histogram(pa, pb, p, pc)
                assert sum(hist.values()) == p * p
                assert hist == direct_plane(pa, pb, pc, p), (pa, pb, pc, p)
    # one moving row (t + u, u): its lead vanishes at t = -u, the row only at u = 0
    assert linalg.pencil_rank_histogram([[0, 0]], [[1, 0]], 5, [[1, 1]]) == {1: 24, 0: 1}
    # two moving rows (t, 1) and (u, t + 1) over F_2, whose lead minor
    # t^2 + t + u vanishes on all of F_2 at u = 0 and nowhere at u = 1
    plane = [[0, 1], [0, 1]], [[1, 0], [0, 1]], 2, [[0, 0], [1, 0]]
    assert linalg.pencil_rank_histogram(*plane) == {1: 2, 2: 2}

    # one to six moving rows, ranked directly only at the roots of their
    # determinant: the rows -C + t*I, C the companion matrix
    # of a monic f of degree s, have determinant f(t), scrambled by an
    # invertible G on the left and maybe widened by random columns, beside
    # random constant rows
    def companion(f, p):  # f ascending, monic, of degree len(f) - 1
        s = len(f) - 1
        return [[(1 if j == i - 1 else 0) if j < s - 1 else -f[i] % p for j in range(s)]
                for i in range(s)]

    def times(f, g, p):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def invertible(s, p):
        while True:
            g = matrix(s, s, p)
            if linalg.rank_mod(g, p) == s:
                return g

    def no_root(s, p):  # a monic f of degree s with no root in F_p
        while True:
            f = [rng.randrange(p) for _ in range(s)] + [1]
            if all(sum(c * t ** k for k, c in enumerate(f)) % p for t in range(p)):
                return f

    for p in (3, 5, 13, 17, 31):  # 17 = 1 mod 8, where square roots mod p are hardest
        square = {x * x % p for x in range(p)}
        n = next(x for x in range(2, p) if x not in square)  # t^2 - n has no root
        r, u = rng.randrange(p), rng.randrange(p)
        polys = [
            [-r % p, 1],  # one root
            times([-r % p, 1], [-r % p, 1], p),  # a double root
            times([-r % p, 1], [-(r + 1) % p, 1], p),  # two roots
            [-n % p, 0, 1],  # irreducible
            times(times([-r % p, 1], [-r % p, 1], p), [-u % p, 1], p),  # a double root
            times([-r % p, 1], times([-r % p, 1], [-r % p, 1], p), p),  # a triple root
            times([-n % p, 0, 1], [-n % p, 0, 1], p),  # no root, repeated factor
            times([-n % p, 0, 1], times([-r % p, 1], [-r % p, 1], p), p),
            times([-n % p, 0, 1], [-r % p, 1], p),
            times(times([-r % p, 1], [-r % p, 1], p), times([-u % p, 1], [-n % p, 0, 1], p), p),
        ]
        polys += [no_root(s, p) for s in (3, 4, 5, 6) for _ in range(2)]
        polys += [[rng.randrange(p) for _ in range(s)] + [1]
                  for s in (3, 4, 5, 6) for _ in range(4)]
        for f in polys:
            s = len(f) - 1
            assert 1 <= s <= 6
            # extra columns, constant rows
            for extra, k0 in ((0, 0), (rng.randint(1, 3), 0),
                              (rng.randint(0, 2), rng.randint(1, 3))):
                width = s + extra
                a = [[-x % p for x in row] + [0] * extra for row in companion(f, p)]
                b = [[int(i == j) for j in range(s)] + [0] * extra for i in range(s)]
                if extra:
                    for row in a + b:
                        row[s:] = [rng.randrange(p) for _ in range(extra)]
                g = invertible(s, p)
                a, b = ([[sum(g[i][k] * m[k][j] for k in range(s)) % p for j in range(width)]
                         for i in range(s)] for m in (a, b))
                const = matrix(k0, width, p)
                pa, pb = const + a, [[0] * width] * k0 + b
                order = rng.sample(range(len(pa)), len(pa))
                pa, pb = [pa[i] for i in order], [pb[i] for i in order]
                hist = linalg.pencil_rank_histogram(pa, pb, p)
                assert sum(hist.values()) == p
                assert hist == direct(pa, pb, p), (pa, pb, p)
                if not extra and not k0:
                    roots = [t for t in range(p)
                             if not sum(c * t ** k for k, c in enumerate(f)) % p]
                    assert hist.get(s, 0) == p - len(roots), (f, p)


def test_pencil_with_no_moving_row_ranks_nothing_directly(monkeypatch):
    # when every row of the pencil or plane is constant, or falls into the
    # constant span, the rank is that span's at every t and u
    calls = []
    rank = linalg.rank_mod
    monkeypatch.setattr(linalg, "rank_mod", lambda m, p: calls.append(m) or rank(m, p))
    assert linalg.pencil_rank_histogram([[1, 2], [0, 0]], [[0, 0], [0, 0]], 5) == {1: 5}
    assert linalg.pencil_rank_histogram([[1, 0], [0, 1]], [[0, 0], [1, 0]], 7, [[0, 0], [0, 0]]
                                        ) == {2: 49}
    assert calls == []


def test_pencil_and_plane_ranks_match_a_scan_for_every_moving_row_count():
    # built where the peeling is known: r0 constant rows e_i, s moving rows
    # x_i + t*e_(r0+i) + u*z_i, and rows whose b and c lie in the span of
    # the others, each bringing one new constant direction; then mixed by
    # constant row operations, the columns by an invertible matrix.  At u0,
    # X_P + u0*Z_P = diag(d): the determinant is prod_i (t + d_i)
    rng = random.Random("sweep")

    def scan(a, b, c, p):
        us = range(p) if c is not None else (0,)
        c = c or [[0] * len(row) for row in a]
        return dict(Counter(
            linalg.rank_mod([[(x + t * y + u * z) % p for x, y, z in zip(ra, rb, rc)]
                             for ra, rb, rc in zip(a, b, c)], p)
            for u in us for t in range(p)))

    def vec(n, p):
        return [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)]

    def combo(ks, vs, n, p):
        return [sum(k * v[j] for k, v in zip(ks, vs)) % p for j in range(n)]

    def case(p, s, plane, r0, absorbed, extra, d, swap):
        w = r0 + s + absorbed + extra
        n = w + bool(swap)  # a swap case's last column: only its own rows use it
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        zero = [0] * n
        a = unit[:r0] + [combo([rng.randrange(p)], [unit[i]], n, p)
                         for i in range(r0) if rng.random() < 0.3]  # repeated constants
        b, c = [zero] * len(a), [zero] * len(a)
        xs = [vec(w, p) + zero[w:] for _ in range(s)]
        zs = [vec(w, p) + zero[w:] if plane else zero for _ in range(s)]
        u0 = rng.randrange(p)
        for i in range(s):
            xs[i][r0:r0 + s] = [(d[i] * (i == j) - u0 * zs[i][r0 + j]) % p for j in range(s)]
        a, b, c = a + xs, b + unit[r0:r0 + s], c + zs
        for j in range(absorbed):
            ks, ws = [rng.randrange(p) for _ in range(s)], [rng.randrange(p) for _ in range(r0)]
            if r0 and not any(ks + ws):
                ws[0] = 1
            a.append(combo([1] + ks, [unit[r0 + s + j]] + xs, n, p))
            b.append(combo(ks + ws, unit[r0:r0 + s] + unit[:r0], n, p))
            c.append(combo(ks + ws, zs + unit[:r0], n, p) if plane else zero)
        if swap:
            # (a row of C, e_w, 0) is one more moving row, but with t and u
            # swapped it is a row with b = 0 and c = e_w, which no span of
            # rows of a reaches, so C moves with u; a row (x, 0, e_w) fails both
            a, b, c = a + [combo(vec(r0, p), unit[:r0], n, p)], b + [unit[w]], c + [zero]
            if swap == 2:
                a, b, c = a + [vec(w, p) + zero[w:]], b + [zero], c + [unit[w]]
        else:
            for _ in range(len(a)):  # row i += k * row j
                i, j, k = rng.randrange(len(a)), rng.randrange(len(a)), rng.randrange(p)
                if i != j:
                    a[i], b[i], c[i] = (combo([1, k], [m[i], m[j]], n, p) for m in (a, b, c))
        while True:
            q = [vec(n, p) for _ in range(n)]
            if linalg.rank_mod(q, p) == n:
                break
        order = rng.sample(range(len(a)), len(a))
        a, b, c = ([combo(m[i], q, n, p) for i in order] for m in (a, b, c))
        return (a, c, b) if swap else (a, b, c if plane else None)

    seen = set()
    for p in (2, 3, 5, 7, 13):
        for s in range(6):
            for plane in (False, True):
                ds = [[rng.randrange(p) for _ in range(s)],  # any roots
                      [rng.randrange(p)] * s,  # one root of multiplicity s
                      [i % p for i in range(s)]]  # every t a root once s >= p
                for d, (r0, absorbed, extra, swap) in product(
                        ds, ((0, 0, 0, 0), (2, 1, 1, 0), (1, 2, 0, 0), (3, 0, 2, 0),
                             (1, 1, 1, 1), (2, 0, 1, 2))):
                    if swap and not plane:
                        continue
                    a, b, c = case(p, s, plane, r0, absorbed, extra, d, swap)
                    assert linalg.pencil_rank_histogram(a, b, p, c) == scan(a, b, c, p), (
                        a, b, c, p)
                    peeled = linalg._peel(a, b, c, p)
                    if swap:  # this order fails; swapped, swap == 1 peels and swap == 2 fails
                        assert peeled is None
                        peeled = linalg._peel(a, c, b, p)
                    if swap == 2:
                        assert peeled is None
                    else:
                        assert (peeled[0], len(peeled[1])) == (r0 + absorbed, s + bool(swap))
                    seen.add((p, s, plane, swap))
        # the constant rows fill the space at once, or after absorbing rows
        for plane in (False, True):
            for r0, absorbed in ((3, 0), (2, 1), (1, 2)):
                a, b, c = case(p, 0, plane, r0, absorbed, 0, [], 0)
                a, b = a + [vec(3, p)], b + [[1, 1, 1]]
                c = c and c + [[1, 1, 1]]  # c = b on every row: C stays fixed in u
                assert linalg._peel(a, b, c, p) == (3, [])
                assert linalg.pencil_rank_histogram(a, b, p, c) == {3: p ** (1 + plane)}
    assert len(seen) == 5 * 6 * (1 + 3)
    # over F_3 the moving rows (t, 0, 0, 1), (0, t + 1, 0, 0), (0, 0, t + 2, 1)
    # have the lead determinant t(t + 1)(t + 2), zero at every t; the last
    # column keeps the rank 3 at t = 0 and t = 1
    a = [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 1]]
    b = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert linalg.pencil_rank_histogram(a, b, 3) == {3: 2, 2: 1}


def _plane_scan(a, b, c, p):
    """The rank histogram of the plane a + t*b + u*c, every (t, u) ranked directly."""
    return dict(Counter(
        linalg.rank_mod([[(x + t * y + u * z) % p for x, y, z in zip(ra, rb, rc)]
                         for ra, rb, rc in zip(a, b, c)], p)
        for u in range(p) for t in range(p)))


def test_constant_rows_whose_u_part_lies_in_the_constant_span_join_it(monkeypatch):
    # over F_2 row 2 is the constant e1; beside row 0, row 1 is the constant
    # (0, 1, 1) and row 3 the row (0, 1, 1) + u*(0, 1, 1), whose u part lies
    # in the constant span once (0, 1, 1) has joined it: rank 3 everywhere,
    # in either argument order and every order of the rows, one plane each
    a = [[0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 0, 1]]
    b = [[0, 1, 1], [0, 1, 1], [0, 0, 0], [1, 1, 1]]
    c = [[0, 1, 1], [0, 1, 1], [0, 0, 0], [1, 0, 0]]
    calls = _counted(monkeypatch, "pencil_rank_histogram")
    planes = 0
    for y, z in ((b, c), (c, b)):
        for order in permutations(range(4)):
            pa, py, pz = ([m[i] for i in order] for m in (a, y, z))
            assert linalg._peel(pa, py, pz, 2) == (3, []), order
            assert linalg.pencil_rank_histogram(pa, py, 2, pz) == {3: 4} == _plane_scan(
                pa, py, pz, 2)
            planes += 1
    assert len(calls) == planes  # no line per u


def test_peel_keeps_a_constant_span_that_only_looks_as_if_it_moved():
    # rows h1 + u*w and h2 + u*w with w in <k, h1 - h2>, beside the constant
    # k; rows x0, x1, x2 + t*y0 + u*(z0, z0 + kp, z0), kp in <k, x2 - x0>:
    # whichever of them leads, the other two are constants whose u parts join
    # the constant span once their difference has; then the columns are mixed
    rng = random.Random("absorb")
    for p in (2, 3, 5):
        for _ in range(30):
            n = rng.randint(6, 7)

            def vec():
                return [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)]

            def lin(*terms):
                return [sum(f * v[j] for f, v in terms) % p for j in range(n)]

            k, h1, h2, x0, x1, x2, z0 = (vec() for _ in range(7))
            spanned = [k, h1, h2, lin((1, x1), (-1, x0)), lin((1, x2), (-1, x0))]
            y0 = vec()
            while linalg.rank_mod(spanned + [y0], p) == linalg.rank_mod(spanned, p):
                y0 = vec()  # y0 moves: it stays outside the constant span
            w = lin((rng.randrange(p), k), (1, h1), (-1, h2))
            kp = lin((rng.randrange(p), k), (1, x2), (-1, x0))
            zero = [0] * n
            rows = [(k, zero, zero), (h1, zero, w), (h2, zero, w), (x0, y0, z0),
                    (x1, y0, lin((1, z0), (1, kp))), (x2, y0, z0)]
            rng.shuffle(rows)
            while True:
                q = [vec() for _ in range(n)]
                if linalg.rank_mod(q, p) == n:
                    break
            a, b, c = ([lin(*zip(m, q)) for m in col] for col in zip(*rows))
            assert linalg._peel(a, b, c, p) is not None, (a, b, c, p)
            hist = linalg.pencil_rank_histogram(a, b, p, c)
            assert hist == _plane_scan(a, b, c, p), (a, b, c, p)


def test_charpoly_matches_the_determinant():
    # det(t*I - m) against a cofactor expansion at every t, over F_2 too
    rng = random.Random("charpoly")

    def det(m, p):
        if not m:
            return 1
        return sum((-1) ** j * x * det([row[:j] + row[j + 1:] for row in m[1:]], p)
                   for j, x in enumerate(m[0]) if x) % p

    for p in (2, 3, 5, 13):
        for s in range(6):
            for _ in range(6):
                m = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(s)]
                     for _ in range(s)]
                f = linalg._charpoly([row[:] for row in m], p)
                assert len(f) == s + 1 and f[-1] == 1
                for t in range(p):
                    tm = [[(t * (i == j) - x) % p for j, x in enumerate(row)]
                          for i, row in enumerate(m)]
                    assert sum(c * t ** k for k, c in enumerate(f)) % p == det(tm, p), (m, p)


def test_rank_frac_matches_rref():
    rng = random.Random("rank_frac")

    def entry():
        if rng.random() < 0.4:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    for _ in range(300):
        width = rng.randint(0, 6)  # rows of length 0 have rank 0
        matrix = [[entry() for _ in range(width)] for _ in range(rng.randint(0, 7))]
        if matrix and rng.random() < 0.3:
            matrix.insert(rng.randrange(len(matrix)), [0] * width)  # a zero row
        if len(matrix) > 1 and rng.random() < 0.3:  # a rational multiple of another row
            matrix.append([Fraction(-2, 3) * x for x in rng.choice(matrix)])
        assert linalg.rank_frac(matrix) == fraction_rank(matrix), matrix


@pytest.fixture
def budgets(monkeypatch):
    """Every search budget created, as qgbench/tracing.py probes them; memo cleared."""
    _final_ranks.cache_clear()
    created = []

    class Probe(_Budget):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            created.append(self)

    monkeypatch.setattr(subspaces, "_Budget", Probe)
    return created


def test_memo_gives_cold_counts_after_the_box_warms_it():
    boxes = []
    for kind in _kronecker_modules(3):
        rep = build_kronecker(kind)
        for p in (3, 5):
            boxes.append((kind, reduce_mod(rep, p), list(product(*(range(d + 1)
                                                                  for d in rep.dims)))))
    cold = {}
    for kind, rp, box in boxes:
        for e in box:
            _final_ranks.cache_clear()
            cold[kind, rp.field, e] = count_subreps(rp, e).count
    _final_ranks.cache_clear()  # warmed from here on by every earlier module, prime and e
    for kind, rp, box in boxes:
        for e in box:
            count_subreps(rp, e)
        for e in box:
            assert count_subreps(rp, e).count == cold[kind, rp.field, e], (kind, rp.field, e)


def test_memo_hit_generates_no_candidates(budgets):
    rep = reduce_mod(build_kronecker(preprojective(3)), 5)
    first = _count_many(rep, [(1, 2)])[1, 2]
    assert len(budgets) == 1 and budgets[0].used > 0
    assert not _plan(rep, [(1, 2)])[1, 2][0]  # forward, as the fiber's set count
    assert count_subreps(rep, (1, 1)).count == 0  # same fiber: only e_1 differs
    profile = _count_many(rep, _fiber(1, 3))
    assert len(budgets) == 1  # a hit makes no budget, so it generates no candidate
    assert _final_ranks.cache_info().hits == 2
    assert _walk_keys(_plan(rep, _fiber(1, 3))) == {(False, (1, 0))}
    assert profile[1, 2] == first and profile[1, 1] == 0


def test_memo_keeps_no_failures(budgets):
    rep = reduce_mod(build_kronecker(preinjective(4)), 23)
    with pytest.raises(SearchTooLarge) as first:
        count_subreps(rep, (2, 2), cap=1000)
    assert count_subreps(rep, (2, 2), cap=2000).count == 553
    with pytest.raises(SearchTooLarge) as again:
        count_subreps(rep, (2, 2), cap=1000)
    payload = (first.value.estimate, first.value.cap, first.value.visited)
    assert payload == (again.value.estimate, again.value.cap, again.value.visited)
    assert payload[1:] == (1000, 1001)
    assert len(budgets) == 3 and _final_ranks.cache_info().currsize == 1
    assert count_subreps(rep, (2, 2), cap=2000).count == 553
    assert len(budgets) == 3  # the walk under cap 2000 is the one kept


def test_memo_is_thread_safe():
    # four threads insert and evict at once: every distinct cap is a new key
    rep = reduce_mod(build_kronecker(preprojective(1)), 3)
    results: list = [[] for _ in range(4)]

    def work(out):
        try:
            for k in range(5000):
                out.append(count_subreps(rep, (0, 1), cap=10 ** 6 + k).count)
        except Exception as exc:  # the assertions below report it
            out.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[1] * 5000] * 4
    info = _final_ranks.cache_info()
    assert info.currsize == info.maxsize == 256


def test_memo_is_bounded(budgets):
    rep = reduce_mod(build_kronecker(preprojective(2)), 3)
    base, size = 10 ** 6, _final_ranks.cache_info().maxsize
    for k in range(size + 10):
        count_subreps(rep, (1, 1), cap=base + k)  # a distinct key per cap
        assert _final_ranks.cache_info().currsize <= size
    assert _final_ranks.cache_info().currsize == size
    assert len(budgets) == size + 10  # a budget per miss
    count_subreps(rep, (1, 1), cap=base + 10)  # the oldest entry: a hit refreshes it
    assert len(budgets) == size + 10
    count_subreps(rep, (1, 1), cap=base)  # evicted: walks again, evicts base + 11
    assert len(budgets) == size + 11 and budgets[-1].used > 0
    for cap in (base, base + 10):  # both kept
        count_subreps(rep, (1, 1), cap=cap)
    assert len(budgets) == size + 11
    count_subreps(rep, (1, 1), cap=base + 11)  # evicted
    assert len(budgets) == size + 12


def test_block_walk_counts_every_streamed_point():
    # iter_subrep_tuples walks candidate by candidate; counts go by blocks
    cases = [(build_kronecker(kind), (2, 3, 5, 7), None) for kind in _kronecker_modules(3)]
    quartic = sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5)
    cases.append((quartic, (5, 7), [EXAMPLE4_E]))
    cases.append((quartic, (2, 3), None))  # 3 moving rows at p = 2, a 4-row plane at p = 3
    for rep, primes, box in cases:
        for p in primes:
            rp = reduce_mod(rep, p)
            for e in box or product(*(range(d + 1) for d in rep.dims)):
                streamed = sum(1 for _ in iter_subrep_tuples(rp, e))
                assert count_subreps(rp, e).count == streamed, (rep.dims, p, e)


def test_set_counts_of_kronecker_m4_match_streamed_counts():
    # row families of p^3 candidates and blocks of p or p^2: pencils and
    # planes of fixed rows and up to two moving ones; 1/2 does not reduce mod 2
    for p, lams in ((2, (0, 1, INFINITY)), (5, (0, INFINITY, Fraction(1, 2)))):
        for kind in (preprojective(4), preinjective(4), *(regular(4, lam) for lam in lams)):
            rep = reduce_mod(build_kronecker(kind), p)
            box = list(product(*(range(d + 1) for d in rep.dims)))
            _final_ranks.cache_clear()
            counts = _count_many(rep, box)
            for e in box:
                assert counts[e] == sum(1 for _ in iter_subrep_tuples(rep, e)), (kind, p, e)


def _three_vertex_reps():
    # the last searched vertex (1) has a forced span from vertex 0, and on the
    # triangle vertex 0 also sends an arrow straight into the final vertex
    rng = random.Random("blocks")
    for arrows, dims in ((((0, 1), (1, 2), (0, 2)), (2, 3, 2)),
                         (((0, 1), (0, 1), (1, 2)), (1, 3, 3))):
        for p in (3, 5):
            mats = tuple(tuple(tuple(rng.randrange(p) for _ in range(dims[s]))
                               for _ in range(dims[t])) for s, t in arrows)
            yield Representation(Quiver(3, arrows), dims, mats, field=p)


def test_block_walk_with_forced_spans_and_earlier_arrows():
    for rep in _three_vertex_reps():
        dims = rep.dims
        for e in product(*(range(d + 1) for d in dims)):
            streamed = sum(1 for _ in iter_subrep_tuples(rep, e))
            fiber = [e[:2] + (x,) for x in range(dims[2] + 1)]
            assert _count_many(rep, fiber)[e] == streamed, (rep, e)
            assert _forced(rep, e, backward=True) == _dual_oracle(rep, e) == streamed, (rep, e)


def test_set_counts_match_per_vector_and_streamed_counts():
    # whole boxes, partial fibers in either direction's final vertex, mixed sets
    rng = random.Random("sets")
    reps = [reduce_mod(build_kronecker(kind), p)
            for kind in _kronecker_modules(3) for p in (3, 5)]
    reps += _three_vertex_reps()
    reps += [Representation(Quiver(2, ((0, 1), (1, 0))), (2, 2),
                            (((1, 0), (0, 1)), ((1, 1), (0, 1))), field=p) for p in (3, 5)]
    for rep in reps:
        box = list(product(*(range(d + 1) for d in rep.dims)))
        want = {e: count_subreps(rep, e).count for e in box}
        for e in box:
            assert want[e] == sum(1 for _ in iter_subrep_tuples(rep, e)), (rep, e)
        for es in (box, box[::-1], [e for e in box if e[0] % 2],
                   [e for e in box if e[-1] % 2], rng.sample(box, min(5, len(box)))):
            _final_ranks.cache_clear()
            assert _count_many(rep, es) == {e: want[e] for e in es}, (rep, es)


def test_set_search_too_large_payload(budgets):
    g = gaussian_binomial
    rep = Representation(Quiver(2, ()), (6, 6), (), field=41)
    with pytest.raises(SearchTooLarge) as err:
        _count_many(rep, [(3, 3), (3, 2), (2, 3)], cap=1000)
    # the walk over the fiber e_0 = 3 serves (3, 3) and (3, 2); it searches vertex 0
    assert err.value.estimate == g(6, 3, 41) > err.value.cap == 1000
    assert err.value.visited is None
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    with pytest.raises(SearchTooLarge) as err:  # one dual walk serves both
        _count_many(rep, [(1, 2), (2, 2)], cap=25439)
    assert err.value.estimate == g(4, 2, 23) > err.value.cap == 25439
    assert err.value.visited is None
    assert budgets == []  # every walk is checked before any runs
    with pytest.raises(SearchTooLarge) as err:  # a partial fiber, out of budget mid-walk
        _count_many(rep, [(1, 1), (1, 2)], cap=25439)
    assert err.value.estimate == g(4, 1, 23) <= err.value.cap == 25439
    assert err.value.visited == 25440


def test_search_too_large_names_the_prime_and_dimension_vectors():
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    with pytest.raises(SearchTooLarge, match=r"p = 23, dimension vectors \(1, 2\), \(2, 2\)$"):
        _count_many(rep, [(1, 2), (2, 2)], cap=25439)  # refused before the dual walk
    with pytest.raises(SearchTooLarge, match=r"p = 23, dimension vectors \(1, 1\), \(1, 2\)$"):
        _count_many(rep, [(1, 1), (1, 2)], cap=25439)  # out of budget mid-walk
    # the estimate 4 * 4 is refused up front, the walk's 4 + 4 * 4 candidates mid-walk
    rep = Representation(Quiver(2, ()), (2, 2), (), field=3)
    for cap, visited in ((15, None), (16, 17)):
        with pytest.raises(SearchTooLarge, match=r"p = 3, dimension vector \(1, 1\)$") as err:
            list(iter_subrep_tuples(rep, (1, 1), cap=cap))
        assert (err.value.estimate, err.value.visited) == (16, visited)


REG4_LINES = gaussian_binomial(4, 1, 23)  # 12,720 lines at the searched vertex


def test_block_walk_charges_every_candidate(budgets):
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    plan = _plan(rep, _fiber(1, 4))
    profile, walked = _count_planned(rep, plan, _fiber(1, 4), default_cap())
    assert len(budgets) == 1  # the fiber is searched forward, in one walk
    assert _walk_keys(plan) == {(False, (1, 0))}
    assert budgets[-1].used == 2 * REG4_LINES == 25440  # generated, then ranked
    assert dict(walked[False, (1, 0)]) == {1: 1, 2: REG4_LINES - 1}
    assert sum(profile.values()) == sum(count_subreps(rep, (1, x)).count for x in range(5))


def _kernel_log(monkeypatch):
    """The kernels a walk calls, in order: "family", "plane", "pencil" or
    "rank", each call made inside another kernel left to that kernel."""
    log, depth = [], []

    def logged(name, kernel):
        def wrapper(*args):
            if not depth:
                log.append("plane" if name == "pencil" and len(args) == 4 else name)
            depth.append(name)
            try:
                return kernel(*args)
            finally:
                depth.pop()
        return wrapper

    monkeypatch.setattr(subspaces, "_family_ranks", logged("family", subspaces._family_ranks))
    monkeypatch.setattr(linalg, "pencil_rank_histogram",
                        logged("pencil", linalg.pencil_rank_histogram))
    monkeypatch.setattr(linalg, "rank_mod", logged("rank", linalg.rank_mod))
    return log


def test_block_walk_ranks_a_plane_per_kernel_call(budgets, monkeypatch):
    # Gr(2, 5) under two arrows keeps blocks.  Per pivot set, the free
    # entries of the last row with any form the block, the others count the
    # blocks: (0, 1) gives p^3 row families of p^3 candidates each, (0, 2)
    # p^3 planes, (0, 3) p^3 pencils, (0, 4) one family (row 1 has no free
    # entry), (1, 2) p^2 planes, (1, 3) p^2 pencils, (1, 4) one plane,
    # (2, 3) p pencils, (2, 4) one pencil and (3, 4) one rank
    log = _kernel_log(monkeypatch)
    p = 3
    rep = reduce_mod(build_kronecker(regular(5, 0)), p)
    ranks = dict(_final_ranks(rep, False, (2, 0), default_cap()))
    assert log == (["family"] * p ** 3 + ["plane"] * p ** 3 + ["pencil"] * p ** 3 + ["family"]
                   + ["plane"] * p ** 2 + ["pencil"] * p ** 2 + ["plane"]
                   + ["pencil"] * (p + 1) + ["rank"])
    assert budgets[-1].used == 2 * gaussian_binomial(5, 2, p)
    assert ranks == _streamed_ranks(rep, (2, 0))
    # Gr(1, 4) under two arrows is one whole vertex: a pencil and two ranks
    log.clear()
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    _, walked = _count_planned(rep, _plan(rep, _fiber(1, 4)), _fiber(1, 4), default_cap())
    assert log == ["rank", "pencil", "rank"]
    assert budgets[-1].used == 2 * REG4_LINES == 25440
    assert dict(walked[False, (1, 0)]) == {1: 1, 2: REG4_LINES - 1}


def _counted(monkeypatch, name):
    """Every call of linalg.<name>, nested calls included."""
    calls = []
    kernel = getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda *args: calls.append(args) or kernel(*args))
    return calls


def test_plane_swaps_t_and_u_when_a_fixed_row_moves_with_u(budgets, monkeypatch):
    # forward on pr(5), Gr(2, 4) keeps blocks.  At pivots (0, 3) row 0 is
    # e_0 + u*e_1 + t*e_2 and arrow 1 maps it to e_1 + u*e_2 + t*e_3, whose
    # t part lies in the fixed images <e_3, e_4>: a row fixed in t that moves
    # with u.  With t and u swapped the plane peels, one kernel call where p
    # separate lines took p + 1
    calls = _counted(monkeypatch, "pencil_rank_histogram")
    peels = []
    peel = linalg._peel
    monkeypatch.setattr(linalg, "_peel", lambda *args: peels.append(peel(*args)) or peels[-1])
    for p, want in ((3, None), (7, {4: 2793, 3: 57})):
        calls.clear()
        peels.clear()
        rep = reduce_mod(build_kronecker(preprojective(5)), p)
        ranks = dict(_final_ranks(rep, False, (2, 0), default_cap()))
        assert ranks == (want or _streamed_ranks(rep, (2, 0))), p
        # p^2 planes at (0, 1), p^2 pencils at (0, 2), one plane at (0, 3),
        # p pencils at (1, 2) and one at (1, 3)
        assert len(calls) == 2 * p ** 2 + p + 2
        assert [peeled is None for peeled in peels].count(True) == 1  # the swapped plane
        assert len(peels) == len(calls) + 1
        assert budgets[-1].used == 2 * gaussian_binomial(4, 2, p)
    # Gr(1, 4) on inj(4) is one whole vertex now: one pencil
    calls.clear()
    rep = reduce_mod(build_kronecker(preinjective(4)), 31)
    lines = gaussian_binomial(4, 1, 31)
    assert dict(_final_ranks(rep, False, (1, 0), default_cap())) == {2: lines - 32, 1: 32}
    assert len(calls) == 1
    assert budgets[-1].used == 2 * lines  # two ticks per candidate, as before


def test_quartic_walk_ranks_only_the_roots(budgets, monkeypatch):
    # the forward walk of the seed-42 quartic over P^2(F_13): its planes keep
    # four moving rows, whose determinant's roots in t are the only points
    # ranked directly, where ranking every point took p^2 + p + 1 = 183 calls
    calls = _counted(monkeypatch, "rank_mod")
    rep = reduce_mod(sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5), 13)
    assert dict(_final_ranks(rep, False, (1, 0), default_cap())) == {3: 15, 4: 168}
    assert len(calls) <= 2 * 13


def test_block_walk_cap_boundary(budgets):
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    assert (_count_many(rep, _fiber(1, 4), cap=25440)[1, 2]
            == gaussian_binomial(3, 1, 23) + REG4_LINES - 1)
    with pytest.raises(SearchTooLarge) as err:
        _count_many(rep, _fiber(1, 4), cap=25439)
    assert (err.value.cap, err.value.visited) == (25439, 25440)
    assert budgets[-1].used == 25440


def test_cap_inside_a_row_family(budgets):
    # the estimate 12,720 is under the cap, but the whole vertex charges
    # 2 * [4]_23 = 25,440 candidates at once and runs the walk out of budget
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    with pytest.raises(SearchTooLarge) as err:
        _count_many(rep, _fiber(1, 4), cap=20000)
    assert (err.value.estimate, err.value.cap, err.value.visited) == (REG4_LINES, 20000, 20001)
    assert str(err.value) == (
        "enumeration visited more than cap 20000 candidates (estimate 12720): "
        "p = 23, dimension vectors (1, 0), (1, 1), (1, 2), (1, 3), (1, 4)")
    assert budgets[-1].used == 20001


# Row families: the p^f candidates that differ only in the free entries of
# the last echelon row with any, counted by relation systems.

def _direct_family_ranks(fixed, a, g, p):
    """The reference: every s in F_p^f ranked on its own."""
    return dict(Counter(
        linalg.rank_mod(fixed + [[(x + sum(sj * gj[i][n] for sj, gj in zip(s, g))) % p
                                  for n, x in enumerate(row)] for i, row in enumerate(a)], p)
        for s in product(range(p), repeat=len(g))))


def _pencil_route(fixed, a, g, p):
    """The family as pencil blocks rank it: a plane in its last two steps at
    each value of the others (f >= 2)."""
    hist: Counter = Counter()
    b, c = ([(0,) * len(row) for row in fixed] + list(gj) for gj in (g[-1], g[-2]))
    for s in product(range(p), repeat=len(g) - 2):
        moved = [[(x + sum(sj * gj[i][n] for sj, gj in zip(s, g))) % p
                  for n, x in enumerate(row)] for i, row in enumerate(a)]
        hist.update(linalg.pencil_rank_histogram(fixed + moved, b, p, c))
    return dict(hist)


def test_family_ranks_match_direct_ranks():
    rng = random.Random("families")
    for p in (2, 3, 5, 7):
        for _ in range(40):
            d, k, f = rng.randint(1, 5), rng.randint(0, 3), rng.randint(0, 3 if p < 7 else 2)
            fixed = [[rng.randrange(p) for _ in range(d)] for _ in range(rng.randint(0, d))]
            # sparse draws: images that vanish or fall into C, steps that move nothing
            a = [tuple(rng.randrange(p) * (rng.random() < 0.7) for _ in range(d)) for _ in range(k)]
            g = [[tuple(rng.randrange(p) * (rng.random() < 0.6) for _ in range(d))
                  for _ in range(k)] for _ in range(f)]
            assert subspaces._family_ranks(fixed, a, g, p) == _direct_family_ranks(
                fixed, a, g, p), (fixed, a, g, p)
    # an arrow whose images vanish, R_0(s) = 0 and R_1(s) = (s_1, s_2, 1 + s_3),
    # and a fixed span that is the whole space
    g = [[(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (0, 1, 0)], [(0, 0, 0), (0, 0, 1)]]
    assert subspaces._family_ranks([], [(0, 0, 0), (0, 0, 1)], g, 3) == {1: 26, 0: 1}
    whole = [[1, 0, 2], [0, 1, 1], [2, 2, 0]]
    assert subspaces._family_ranks(whole, [(1, 2, 0), (0, 0, 1)], g, 3) == {3: 27}


def test_solutions_match_brute_force():
    # seeded affine systems over F_p^f, some with an inconsistent row kept
    # before consistent ones and some with rows that depend on earlier ones
    rng = random.Random("solutions")
    for _ in range(400):
        p, f = rng.choice((2, 3, 5, 7)), rng.randint(0, 4)
        system = [[rng.randrange(p) for _ in range(f + 1)] for _ in range(rng.randint(0, 4))]
        if system and rng.random() < 0.3:
            c = rng.randrange(p)
            system.append([(c * x) % p for x in system[0]])
        if rng.random() < 0.3:
            system.insert(rng.randint(0, len(system)), [0] * f + [rng.randrange(1, p)])
        want = sum(all((sum(c * x for c, x in zip(row, s)) + row[f]) % p == 0 for row in system)
                   for s in product(range(p), repeat=f))
        assert subspaces._solutions([row[:] for row in system], f, p) == want, (system, f, p)
    assert subspaces._solutions([[0, 0, 1], [1, 0, 0]], 2, 3) == 0


def _family_cases():
    """(rep, key, primes, k, n, forced dimension at the searched vertex):
    forward walks whose last searched vertex keeps blocks, n = e_v - forced
    being neither 1 nor m - 1 with m = d_v - forced, and has a row family of
    f >= 3 steps under k arrows into the final vertex."""
    kron, path, two = kronecker_quiver(2), Quiver(3, ((0, 1), (1, 2))), Quiver(2, ((0, 1),))
    tail = Quiver(3, ((0, 1), (1, 2), (1, 2)))
    cases = [(two, (5, 3), (2, 0), (3, 5), 1, 0), (kron, (5, 2), (2, 0), (3, 5), 2, 0),
             (two, (6, 2), (3, 0), (3,), 1, 0), (kron, (6, 2), (3, 0), (3,), 2, 0),
             (path, (1, 6, 3), (1, 3, 0), (3, 5), 1, 1),
             (tail, (1, 6, 2), (1, 3, 0), (3, 5), 2, 1),
             (path, (2, 7, 2), (2, 4, 0), (3, 5), 1, 2),
             (tail, (2, 7, 2), (2, 4, 0), (3, 5), 2, 2),
             (Quiver(4, ((0, 2), (1, 2), (2, 3), (2, 3), (0, 3))), (1, 1, 7, 2), (1, 1, 4, 0),
              (3, 5), 2, 2)]
    for seed, (quiver, dims, key, primes, k, forced) in enumerate(cases):
        yield sample_general_rep(quiver, dims, seed, 3), key, primes, k, key[-2] - forced, forced
    # the second arrow is zero, so its images vanish
    zero = Representation(kron, (5, 3), (((1, 0, 2, 0, 1), (0, 1, 1, 2, 0), (2, 0, 1, 1, 1)),
                                         ((0,) * 5,) * 3))
    yield zero, (2, 0), (3, 5), 2, 2, 0
    # vertex 0 maps onto the final vertex, so C is all of it
    onto = Quiver(3, ((0, 2), (1, 2), (1, 2)))
    mats = (((1, 0), (0, 1)), ((1, 2, 0, 1, 0), (0, 1, 1, 0, 2)),
            ((2, 0, 1, 1, 0), (1, 1, 0, 2, 1)))
    yield Representation(onto, (2, 5, 2), mats), (2, 2, 0), (3, 5), 2, 2, 0


def test_family_route_matches_the_pencil_route(monkeypatch):
    kernel, seen, covered = subspaces._family_ranks, set(), set()

    def recorded(fixed, a, g, p):
        seen.add((len(a), len(g) >= 3))
        return kernel(fixed, a, g, p)

    for rep, key, primes, k, n, forced in _family_cases():
        for p in primes:
            rp = reduce_mod(rep, p)
            seen.clear()
            monkeypatch.setattr(subspaces, "_family_ranks", recorded)
            _final_ranks.cache_clear()
            family = dict(_final_ranks(rp, False, key, 10 ** 6))
            assert seen == {(k, True)}, (rep, key, p)
            monkeypatch.setattr(subspaces, "_family_ranks", _pencil_route)
            _final_ranks.cache_clear()
            assert family == dict(_final_ranks(rp, False, key, 10 ** 6)), (rep, key, p)
            if p == 3 and n < 3:  # the walk's framing, point by point
                assert family == _streamed_ranks(rp, key), (rep, key)
            covered.add((k, n, forced > 0))
    _final_ranks.cache_clear()
    # every k, n = 2 with and without a forced span, and n = 3; n = 1 and
    # n = m - 1 are whole vertices (test_whole_vertex_matches_every_candidate_...)
    assert covered == {(k, n, forced) for k in (1, 2) for n in (2, 3)
                       for forced in (False, True) if n == 2 or not forced}


def test_families_under_three_or_more_arrows_split_into_planes(monkeypatch):
    # k >= 3 stays on blocks: Gr(1, 4)'s family of pivot 0 is p planes
    def refused(*args):
        raise AssertionError("k >= 3 is counted by blocks")

    monkeypatch.setattr(subspaces, "_family_ranks", refused)
    for k in (3, 4):
        rep = sample_general_rep(kronecker_quiver(k), (4, 2), k, 3)
        for p in (3, 5):
            rp = reduce_mod(rep, p)
            _final_ranks.cache_clear()
            assert dict(_final_ranks(rp, False, (1, 0), 10 ** 6)) == _streamed_ranks(rp, (1, 0))
    _final_ranks.cache_clear()


# Whole vertices: under at most two arrows, a last searched vertex with one
# row free (n = 1) or one row short (n = m - 1) is counted at once.

WHOLE_SIZES = {2: 5, 3: 5, 5: 4, 7: 3, 11: 3}  # largest m streamed at each prime


def _whole_vertex_reps():
    """Seeded representations whose walks meet whole vertices: k = 0, 1 and
    2 arrows into the final vertex, forced spans at the searched vertex,
    earlier images into the final vertex, final vertices of dimension 1
    under two arrows, and zero, sparse and dense matrices."""
    rng = random.Random("whole")
    kron, one = kronecker_quiver(2), Quiver(2, ((0, 1),))
    path, tail = Quiver(3, ((0, 1), (1, 2))), Quiver(3, ((0, 1), (1, 2), (1, 2)))
    four = Quiver(4, ((0, 2), (1, 2), (2, 3), (2, 3), (0, 3)))
    for p, top in WHOLE_SIZES.items():
        shapes = [(Quiver(2, ()), (top, 2)), (kron, (3, top))]
        for m in range(2, top + 1):
            shapes += [(one, (m, 3)), (kron, (m, 1 + m % 3)), (path, (1, m + 1, 2)),
                       (tail, (1, m + 1, 2)), (four, (1, 1, m + 2, 2))]
        for quiver, dims in shapes:
            density = rng.choice((0, 0.3, 0.7, 1))
            mats = tuple(tuple(tuple(rng.randrange(p) * (rng.random() < density)
                                     for _ in range(dims[s])) for _ in range(dims[t]))
                         for s, t in quiver.arrows)
            yield Representation(quiver, dims, mats, field=p)


def test_whole_vertex_matches_every_candidate_ranked_on_its_own(monkeypatch):
    kernel, covered, k = subspaces._whole_ranks, set(), None

    def recorded(fixed, a, b, n, p):
        covered.add((k, n == 1, len(a), p, bool(fixed), len(a[0])))
        return kernel(fixed, a, b, n, p)

    monkeypatch.setattr(subspaces, "_whole_ranks", recorded)
    _final_ranks.cache_clear()
    for rep in _whole_vertex_reps():
        p, dims = rep.field, rep.dims
        for backward, target in ((False, rep), (True, dual_representation(rep))):
            route = _routing(rep.quiver, backward)
            final, k = route.order[-1], len(route.out[-2])
            for key in product(*(range(d + 1) if v != final else (0,)
                                 for v, d in enumerate(dims))):
                if _gauss_product(dims, key, p, route.searched) > 160:
                    continue
                ranks = dict(_final_ranks(rep, backward, key, 10 ** 6))
                assert ranks == _streamed_ranks(target, key), (rep, backward, key)
    _final_ranks.cache_clear()
    assert {k for k, *_ in covered} == {0, 1, 2}
    for p, top in WHOLE_SIZES.items():  # lines and hyperplanes of every size streamed
        assert {(line, m) for _, line, m, q, _, _ in covered if q == p} >= {
            (line, m) for line in (True, False) for m in range(3 - line, top + 1)}, p
    assert any(fixed for *_, fixed, _ in covered)  # forced spans or earlier images
    assert any(k == 2 and width == 1 for k, *_, width in covered)


def test_whole_vertex_takes_one_pencil_and_two_ranks(monkeypatch):
    # lines and hyperplanes of F_5^5 under two arrows: one pencil and two
    # ranks, no row family; Gr(1, 4) under three arrows keeps blocks, p
    # planes at pivot 0, then a plane, a pencil and a rank
    log = _kernel_log(monkeypatch)
    rep = reduce_mod(sample_general_rep(kronecker_quiver(2), (5, 3), 0, 3), 5)
    for key in ((1, 0), (4, 0)):
        log.clear()
        _final_ranks.cache_clear()
        assert dict(_final_ranks(rep, False, key, 10 ** 6)) == _streamed_ranks(rep, key)
        assert log == ["rank", "pencil", "rank"], key
    log.clear()
    monkeypatch.setattr(subspaces, "_whole_ranks", None)
    rep = reduce_mod(sample_general_rep(kronecker_quiver(3), (4, 2), 3, 3), 3)
    _final_ranks.cache_clear()
    assert dict(_final_ranks(rep, False, (1, 0), 10 ** 6)) == _streamed_ranks(rep, (1, 0))
    assert log == ["plane"] * 4 + ["pencil", "rank"]
    _final_ranks.cache_clear()


def test_reg4_fiber_histograms_by_families():
    # reg(4, -1/2) at e_1 = 1: one line of Gr(1, 4) forces a line, the others
    # a plane, at every sampled prime
    rep = build_kronecker(regular(4, Fraction(-1, 2)))
    _final_ranks.cache_clear()
    for p, planes in {3: 39, 5: 155, 7: 399, 11: 1463, 13: 2379, 17: 5219}.items():
        assert dict(_final_ranks(reduce_mod(rep, p), False, (1, 0), default_cap())) == {
            2: planes, 1: 1}
        assert planes + 1 == gaussian_binomial(4, 1, p)


def test_count_walks_and_builds_columns_only_on_a_miss(budgets, monkeypatch):
    built = {"walks": 0, "columns": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(subspaces, "_walk", counted("walks", subspaces._walk))
    monkeypatch.setattr(subspaces, "_columns", counted("columns", subspaces._columns))
    for kind in (preprojective(3), preinjective(3)):
        rep = reduce_mod(build_kronecker(kind), 5)
        box = list(product(*(range(d + 1) for d in rep.dims)))
        directions = set()
        for sweep in range(2):
            for e in box:
                before, made = dict(built), len(budgets)
                misses = _final_ranks.cache_info().misses
                _count_many(rep, [e])
                miss = _final_ranks.cache_info().misses - misses
                assert built == {name: n + miss for name, n in before.items()}, (kind, e)
                assert len(budgets) - made == miss, (kind, e)
                directions.add(_plan(rep, [e])[e][0])
                if sweep:
                    assert not miss, (kind, e)
        if kind == preinjective(3):
            assert True in directions  # some e search backward


# Determined vertices: U_v is the forced span when it has dimension e_v, and
# all of F_p^{d_v} when e_v = d_v.  The walk takes them without enumerating.

def _streamed_ranks(rep, key):
    """The forced-rank histogram a shortcut walk of rep at key must give, from
    the streamed points with the whole final space: each is one choice at the
    searched vertices, and the rank of the span it forces into the final
    vertex is taken by column-pivoting elimination (`modular_rank`)."""
    final, p = _routing(rep.quiver).order[-1], rep.field
    d = rep.dims[final]
    hist: Counter = Counter()
    for point in iter_subrep_tuples(rep, key[:final] + (d,) + key[final + 1:]):
        images = [apply_matrix(mat, v, p) for (s, t), mat in zip(rep.quiver.arrows, rep.matrices)
                  if t == final for v in point.bases[s]]
        hist[modular_rank(images, p)] += 1
    return dict(hist)


def _dynkin_root_reps(label, rank, p):
    """(word, alpha, M mod p) for every positive root under the identity and
    the bipartite word."""
    rs = root_system(label, rank)
    for word in (tuple(range(rank)), bipartite_word(rs)):
        quiver = orientation_from_coxeter(rs, word)
        for alpha in rs.positive_roots:
            yield word, alpha, reduce_mod(dynkin_indecomposable(quiver, alpha), p)


def _check_determined_walks(rep, es):
    """Counts equal the streamed points, and each walk's histogram, in either
    direction, the streamed one (backward: of the explicit dual)."""
    for e in es:
        assert count_subreps(rep, e).count == sum(1 for _ in iter_subrep_tuples(rep, e)), e
    dual_es = [tuple(d - x for d, x in zip(rep.dims, e)) for e in es]
    for backward, target, route, walked in ((False, rep, _routing(rep.quiver), es),
                                            (True, dual_representation(rep),
                                             _routing(rep.quiver, True), dual_es)):
        final = route.order[-1]
        for key in dict.fromkeys(e[:final] + (0,) + e[final + 1:] for e in walked):
            ranks = dict(_final_ranks(rep, backward, key, 10 ** 6))
            assert ranks == _streamed_ranks(target, key), (backward, key)


@pytest.mark.parametrize("label,rank", [("A", 5), ("D", 4)])
def test_determined_walks_match_streamed_points_on_dynkin_roots(label, rank):
    # thin roots determine almost every vertex: e_v = d_v, or e_v = 0 with a
    # zero forced span, or a forced line at e_v = 1; D4 (1, 2, 1, 1) has a
    # real choice at its center
    center = 0
    for word, alpha, rep in _dynkin_root_reps(label, rank, 5):
        box = list(product(*(range(d + 1) for d in rep.dims)))
        _check_determined_walks(rep, box)
        if alpha == (1, 2, 1, 1):
            center += 1
            for e in box:  # the set-level oracle, independent of the echelon code
                assert count_subreps(rep, e).count == naive_count_subreps(
                    rep.quiver.arrows, rep.dims, rep.matrices, e, 5), (word, e)
    assert center == (2 if label == "D" else 0)


def test_determined_walks_match_streamed_points_on_kronecker_box_edges():
    # e_0 in {0, d_0}: the source vertex is determined, and with it the span
    # forced into the other one
    for kind in _kronecker_modules(3):
        for p in (3, 5):
            rep = reduce_mod(build_kronecker(kind), p)
            box = product(*(range(d + 1) for d in rep.dims))
            _check_determined_walks(rep, [e for e in box if e[0] in (0, rep.dims[0])])


def test_determined_candidates_are_checked_on_a_cycle():
    # the 2-cycle of the CI fpoly smoke: no shortcut, so every position is
    # enumerated or determined, and the arrow back into vertex 0 is checked
    # on each candidate, determined ones included
    quiver = Quiver(2, ((0, 1), (1, 0)))
    mats = (((1, 0), (0, 1)), ((1, 1), (0, 1)))
    for p in (3, 5):
        rep = Representation(quiver, (2, 2), mats, field=p)
        assert not _routing(quiver).shortcut
        for e in product(range(3), repeat=2):
            want = naive_count_subreps(quiver.arrows, rep.dims, mats, e, p)
            assert count_subreps(rep, e).count == sum(1 for _ in iter_subrep_tuples(rep, e)) == want
            assert want == (e in ((0, 0), (1, 1), (2, 2))), e
        # U_0 = 0 forces nothing into vertex 1, where U_1 = F_p^2 is
        # determined; only the check on the arrow back refuses it
        assert count_subreps(rep, (0, 2)).count == 0
        assert [pt.bases for pt in iter_subrep_tuples(rep, (2, 2))] == [
            (((1, 0), (0, 1)), ((1, 0), (0, 1)))]


# Candidates charged, one budget per walk, measured when the walk still
# enumerated determined vertices and charged each candidate as it came.
# One charge per searched position as the walk enters it gives the same
# totals: binom_p(d_v - s, e_v - s), 1 at a determined vertex, twice the
# count at the last searched position of a shortcut walk, and one per
# arrival at the final vertex.
DETERMINED_BUDGETS = {
    ("A", 5, (1, 1, 1, 1, 1)): (
        [5, 1, 2, 2, 3, 1, 3, 3, 5, 1, 2, 2, 5, 1, 5, 5],
        {(0, 0, 0, 0, 0): 5, (0, 0, 0, 0, 1): 1, (0, 0, 0, 1, 0): 2, (0, 0, 0, 1, 1): 2,
         (0, 0, 1, 0, 0): 3, (0, 0, 1, 0, 1): 1, (0, 0, 1, 1, 0): 3, (0, 0, 1, 1, 1): 3,
         (0, 1, 0, 0, 0): 5, (0, 1, 0, 0, 1): 1, (0, 1, 0, 1, 0): 2, (0, 1, 0, 1, 1): 2,
         (0, 1, 1, 0, 0): 5, (0, 1, 1, 0, 1): 1, (0, 1, 1, 1, 0): 5, (0, 1, 1, 1, 1): 5,
         (1, 0, 0, 0, 0): 5, (1, 0, 0, 0, 1): 1, (1, 0, 0, 1, 0): 2, (1, 0, 0, 1, 1): 2,
         (1, 0, 1, 0, 0): 3, (1, 0, 1, 0, 1): 1, (1, 0, 1, 1, 0): 3, (1, 0, 1, 1, 1): 3,
         (1, 1, 0, 0, 0): 5, (1, 1, 0, 0, 1): 1, (1, 1, 0, 1, 0): 2, (1, 1, 0, 1, 1): 2,
         (1, 1, 1, 0, 0): 5, (1, 1, 1, 0, 1): 1, (1, 1, 1, 1, 0): 5, (1, 1, 1, 1, 1): 5}),
    ("D", 4, (1, 2, 1, 1)): (
        [4, 2, 2, 2, 14, 4, 4, 2, 4, 4, 4, 4],
        {(0, 0, 0, 0): 4, (0, 0, 0, 1): 2, (0, 0, 1, 0): 2, (0, 0, 1, 1): 2,
         (0, 1, 0, 0): 14, (0, 1, 0, 1): 4, (0, 1, 1, 0): 4, (0, 1, 1, 1): 2,
         (0, 2, 0, 0): 4, (0, 2, 0, 1): 4, (0, 2, 1, 0): 4, (0, 2, 1, 1): 4,
         (1, 0, 0, 0): 4, (1, 0, 0, 1): 2, (1, 0, 1, 0): 2, (1, 0, 1, 1): 2,
         (1, 1, 0, 0): 14, (1, 1, 0, 1): 4, (1, 1, 1, 0): 4, (1, 1, 1, 1): 2,
         (1, 2, 0, 0): 4, (1, 2, 0, 1): 4, (1, 2, 1, 0): 4, (1, 2, 1, 1): 4}),
}


@pytest.mark.parametrize("case", sorted(DETERMINED_BUDGETS))
def test_determined_walks_charge_what_the_enumeration_charged(budgets, case):
    label, rank, alpha = case
    box_used, used = DETERMINED_BUDGETS[case]
    rs = root_system(label, rank)
    rep = reduce_mod(dynkin_indecomposable(orientation_from_coxeter(rs, tuple(range(rank))),
                                           alpha), 5)
    box = list(product(*(range(d + 1) for d in rep.dims)))
    counts = _count_many(rep, box)
    assert [b.used for b in budgets] == box_used
    mid_walk = 0
    for e in box:
        _final_ranks.cache_clear()
        assert count_subreps(rep, e).count == counts[e]
        assert budgets[-1].used == used[e], e
        # the cap boundary: one candidate fewer is refused, mid-walk unless
        # the walk's estimate already exceeds it
        _final_ranks.cache_clear()
        with pytest.raises(SearchTooLarge) as err:
            count_subreps(rep, e, cap=used[e] - 1)
        assert err.value.visited in (used[e], None), e
        if err.value.visited is None:
            continue
        mid_walk += 1
        assert budgets[-1].used == used[e]
        _final_ranks.cache_clear()
        assert count_subreps(rep, e, cap=used[e]).count == counts[e]
    assert mid_walk >= len(box) // 2


def test_a_long_run_of_determined_vertices_is_a_loop():
    # every vertex of a 1,500-vertex path is determined at e = d; a walk that
    # recursed once per vertex would pass the interpreter's recursion limit
    n = 1500
    quiver = Quiver(n, tuple((v, v + 1) for v in range(n - 1)))
    identity = ((1, 0), (0, 1))
    rep = reduce_mod(Representation(quiver, (2,) * n, (identity,) * (n - 1)), 3)
    assert count_subreps(rep, (2,) * n).count == 1


@pytest.mark.parametrize("args,message", [
    ((2, 1, 0), "base must be a positive integer"),
    ((2, 1, -3), "base must be a positive integer"),
    ((-1, 0, 2), "ambient dimension must be non-negative"),
], ids=["base-zero", "base-negative", "negative-ambient"])
def test_gaussian_binomial_refusals_name_their_cause(args, message):
    with pytest.raises(ValueError) as err:
        gaussian_binomial(*args)
    assert str(err.value) == message
