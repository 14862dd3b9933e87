import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import product

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
    _dual_routing,
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

from oracles import (
    apply_matrix,
    bipartite_word,
    fraction_rank,
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
    return {(plan.backward, key) for key, _ in plan.entry.values()}


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
    final = (_dual_routing if backward else _routing)(rep.quiver).order[-1]
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
    assert _plan(rep, [(2, 2)]).backward  # the dual at (2, 1) is the cheaper search
    tie = reduce_mod(build_kronecker(regular(2, 1)), 5)
    assert _count_many(tie, [(1, 1)])[1, 1] == 1  # p + 1 candidates either way
    assert not _plan(tie, [(1, 1)]).backward  # ties stay forward


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
    # random spans, not unit rows on the first columns: each superspace
    # must come back as its own canonical RREF, whatever the span's pivots
    rng = random.Random("superspaces")
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
                    assert len({rows for rows, _, _ in found}) == len(found)
                    for rows, pivots, (imgs,) in found:
                        assert linalg.rref_mod(rows + srows, p) == (rows, pivots)
                        assert (linalg.rref_mod(imgs, p) == linalg.rref_mod(
                            [linalg.matvec_mod(mat, w, p) for w in rows], p))


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
            k0, k1 = rng.randint(1, 4), rng.randint(1, 5)  # k1 >= 3: the value path
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

    # three to six moving rows are ranked directly at every t: the
    # rows -C + t*I, C the companion matrix of a monic f of degree s, have
    # determinant f(t), scrambled by an invertible G on the left and maybe
    # widened by random columns, beside random constant rows
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

    for p in (3, 5, 13, 31):
        square = {x * x % p for x in range(p)}
        n = next(x for x in range(2, p) if x not in square)  # t^2 - n has no root
        r, u = rng.randrange(p), rng.randrange(p)
        polys = [
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
            assert 3 <= s <= 6
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

    # square roots against every element; 17, 41 and 97 are 1 mod 8, where
    # the Tonelli-Shanks loop runs
    for p in (3, 5, 13, 17, 41, 97):
        squares = {x * x % p for x in range(p)}
        for x in range(p):
            root = linalg._sqrt_mod(x, p)
            assert (root is not None) == (x in squares), (x, p)
            assert root is None or root * root % p == x, (x, p)


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
    assert not _plan(rep, [(1, 2)]).backward  # forward, as the fiber's set count
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
    for rep, primes, box in cases:
        for p in primes:
            rp = reduce_mod(rep, p)
            for e in box or product(*(range(d + 1) for d in rep.dims)):
                streamed = sum(1 for _ in iter_subrep_tuples(rp, e))
                assert count_subreps(rp, e).count == streamed, (rep.dims, p, e)


def test_set_counts_of_kronecker_m4_match_streamed_counts():
    # blocks of p or p^2 candidates: pencils and planes of fixed rows and up
    # to two moving ones; 1/2 does not reduce mod 2
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
    assert dict(walked[1, 0]) == {1: 1, 2: REG4_LINES - 1}
    assert sum(profile.values()) == sum(count_subreps(rep, (1, x)).count for x in range(5))


def test_block_walk_ranks_a_plane_per_kernel_call(budgets, monkeypatch):
    # in Gr(1, 4) the two innermost free entries share row 0 under pivot 0 (p
    # blocks, one per value of the entry at column 1) and under pivot 1: p + 1
    # planes of p^2 lines; pivot 2 leaves a block of p, pivot 3 a block of one
    kernel, calls = linalg.pencil_rank_histogram, []

    def counted(*args):
        calls.append(len(args))
        return kernel(*args)

    monkeypatch.setattr(linalg, "pencil_rank_histogram", counted)
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    _, walked = _count_planned(rep, _plan(rep, _fiber(1, 4)), _fiber(1, 4), default_cap())
    assert len(calls) == 23 + 2 and calls.count(4) == 23 + 1  # 553 by lines
    assert budgets[-1].used == 2 * REG4_LINES == 25440
    assert dict(walked[1, 0]) == {1: 1, 2: REG4_LINES - 1}


def test_block_walk_cap_boundary(budgets):
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    assert (_count_many(rep, _fiber(1, 4), cap=25440)[1, 2]
            == gaussian_binomial(3, 1, 23) + REG4_LINES - 1)
    with pytest.raises(SearchTooLarge) as err:
        _count_many(rep, _fiber(1, 4), cap=25439)
    assert (err.value.cap, err.value.visited) == (25439, 25440)
    assert budgets[-1].used == 25440


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
                directions.add(_plan(rep, [e]).backward)
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
    vertex is read from the size of that span (`span_set`)."""
    final, p = _routing(rep.quiver).order[-1], rep.field
    d = rep.dims[final]
    hist: Counter = Counter()
    for point in iter_subrep_tuples(rep, key[:final] + (d,) + key[final + 1:]):
        images = [apply_matrix(mat, v, p) for (s, t), mat in zip(rep.quiver.arrows, rep.matrices)
                  if t == final for v in point.bases[s]]
        size, rank = len(span_set(images, p, d)), 0
        while p ** rank < size:
            rank += 1
        hist[rank] += 1
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
                                             _dual_routing(rep.quiver), dual_es)):
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


# Candidates charged, one budget per walk, measured before determined
# vertices were taken without enumerating them: each still costs one tick,
# or two at the last searched position of a shortcut walk.
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
