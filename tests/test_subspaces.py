import random
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest

from quivergrass import linalg, subspaces
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
    is_subrepresentation,
    reduce_mod,
)
from quivergrass.sampler import EXAMPLE4_E, sample_general_rep
from quivergrass.subspaces import (
    _WALKS,
    _WALKS_MAX,
    _Budget,
    _count_many,
    _final_counts,
    _gauss_product,
    _iter_rref,
    _iter_superspaces,
    _routing,
    count_subreps,
    default_cap,
    enumerate_subspaces,
    gaussian_binomial,
    iter_subrep_tuples,
)

from oracles import fraction_rank, naive_count_subreps, naive_subspaces, span_set

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


def test_count_subreps_validates_its_input():
    # the set count behind it trusts its input, so the public entry checks it
    rep = build_kronecker(preprojective(2))
    with pytest.raises(DomainMismatch):
        count_subreps(rep, (0, 1))
    rep3 = reduce_mod(rep, 3)
    for e in ((2, 1), (0, 4), (-1, 0), (0, 1, 0)):
        with pytest.raises(ValueError, match="outside the box"):
            count_subreps(rep3, e)
    unreduced = Representation(rep3.quiver, rep3.dims, (rep3.matrices[0], ((3,), (1,))),
                               field=3)
    with pytest.raises(MixedScalarDomains, match="not reduced mod 3"):
        count_subreps(unreduced, (0, 1))


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
            assert is_subrepresentation(rep, pt)


def _kronecker_modules(max_m):
    for m in range(1, max_m + 1):
        yield preprojective(m)
        yield preinjective(m)
        for lam in (0, 1, INFINITY):
            yield regular(m, lam)


def _forced(rep, e, backward=False):
    """Count Gr_e(rep) on an acyclic quiver in the given direction, whatever is cheaper."""
    if backward:
        rep, e = dual_representation(rep), tuple(d - x for d, x in zip(rep.dims, e))
    final = _routing(rep.quiver).order[-1]
    key = e[:final] + (0,) + e[final + 1:]
    return _final_counts(rep, key, _Budget(10 ** 6, 0), [e[final]])[0]


def test_forward_and_backward_searches_agree():
    # the backward walk counts Gr_{d-e} of the dual; each direction is forced
    for kind in _kronecker_modules(3):
        rep = build_kronecker(kind)
        for p in (3, 5):
            rp = reduce_mod(rep, p)
            for e in product(*(range(d + 1) for d in rep.dims)):
                forward, backward = _forced(rp, e), _forced(rp, e, backward=True)
                assert forward == backward == count_subreps(rp, e).count, (kind, p, e)


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
    assert err.value.estimate == gaussian_binomial(4, 2, 23) * gaussian_binomial(3, 2, 23)
    _WALKS.clear()
    tie = reduce_mod(build_kronecker(regular(2, 1)), 5)
    assert count_subreps(tie, (1, 1)).count == 1  # p + 1 candidates either way
    assert [key[0] for key in _WALKS] == [tie]  # ties stay forward


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


def test_rank_frac_matches_rref():
    rng = random.Random("rank_frac")

    def entry():
        if rng.random() < 0.4:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    for _ in range(300):
        width = rng.randint(1, 6)
        matrix = [[entry() for _ in range(width)] for _ in range(rng.randint(0, 7))]
        if matrix and rng.random() < 0.3:
            matrix.insert(rng.randrange(len(matrix)), [0] * width)  # a zero row
        if len(matrix) > 1 and rng.random() < 0.3:  # a rational multiple of another row
            matrix.append([Fraction(-2, 3) * x for x in rng.choice(matrix)])
        assert linalg.rank_frac(matrix) == fraction_rank(matrix), matrix


@pytest.fixture
def budgets(monkeypatch):
    """Every search budget created, as qgbench/tracing.py probes them; memo cleared."""
    _WALKS.clear()
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
            _WALKS.clear()
            cold[kind, rp.field, e] = count_subreps(rp, e).count
    _WALKS.clear()  # warmed from here on by every earlier module, prime and e
    for kind, rp, box in boxes:
        for e in box:
            count_subreps(rp, e)
        for e in box:
            assert count_subreps(rp, e).count == cold[kind, rp.field, e], (kind, rp.field, e)


def test_memo_hit_generates_no_candidates(budgets):
    rep = reduce_mod(build_kronecker(preprojective(3)), 5)
    first = count_subreps(rep, (1, 2)).count
    assert budgets[-1].used > 0
    assert [key[0] for key in _WALKS] == [rep]  # forward, as the fiber's set count
    assert count_subreps(rep, (1, 1)).count == 0  # same fiber: only e_1 differs
    assert budgets[-1].used == 0
    profile = _count_many(rep, _fiber(1, 3))
    assert budgets[-1].used == 0
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
    assert [key[2] for key in _WALKS] == [2000]


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
    assert len(_WALKS) == _WALKS_MAX


def test_memo_is_bounded(budgets):
    rep = reduce_mod(build_kronecker(preprojective(2)), 3)
    base = 10 ** 6
    for k in range(_WALKS_MAX + 10):
        count_subreps(rep, (1, 1), cap=base + k)  # a distinct key per cap
        assert len(_WALKS) <= _WALKS_MAX
    assert len(_WALKS) == _WALKS_MAX
    count_subreps(rep, (1, 1), cap=base + 10)  # the oldest entry: a hit refreshes it
    count_subreps(rep, (1, 1), cap=base)  # evicted: walks again, evicts base + 11
    assert budgets[-2].used == 0 and budgets[-1].used > 0
    caps = {key[2] for key in _WALKS}
    assert len(caps) == _WALKS_MAX and {base, base + 10} <= caps and base + 11 not in caps


def test_block_walk_counts_every_streamed_point():
    # iter_subrep_tuples walks candidate by candidate; counts go by blocks
    cases = [(build_kronecker(kind), (3, 5, 7), None) for kind in _kronecker_modules(3)]
    quartic = sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5)
    cases.append((quartic, (5, 7), [EXAMPLE4_E]))
    for rep, primes, box in cases:
        for p in primes:
            rp = reduce_mod(rep, p)
            for e in box or product(*(range(d + 1) for d in rep.dims)):
                streamed = sum(1 for _ in iter_subrep_tuples(rp, e))
                assert count_subreps(rp, e).count == streamed, (rep.dims, p, e)


def test_set_counts_of_kronecker_m4_match_streamed_counts():
    # blocks of p = 5 candidates: pencils of fixed rows and up to two moving ones
    for kind in (preprojective(4), preinjective(4),
                 *(regular(4, lam) for lam in (0, INFINITY, Fraction(1, 2)))):
        rep = reduce_mod(build_kronecker(kind), 5)
        box = list(product(*(range(d + 1) for d in rep.dims)))
        _WALKS.clear()
        counts = _count_many(rep, box)
        for e in box:
            assert counts[e] == sum(1 for _ in iter_subrep_tuples(rep, e)), (kind, e)


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
            assert _forced(rep, e, backward=True) == streamed, (rep, e)


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
            _WALKS.clear()
            assert _count_many(rep, es) == {e: want[e] for e in es}, (rep, es)


def test_set_search_too_large_payload(budgets):
    g = gaussian_binomial
    rep = Representation(Quiver(2, ()), (6, 6), (), field=41)
    with pytest.raises(SearchTooLarge) as err:
        _count_many(rep, [(3, 3), (3, 2), (2, 3)], cap=1000)
    # the walk over the fiber e_0 = 3 serves (3, 3) and (3, 2)
    assert err.value.estimate == g(6, 3, 41) * (g(6, 3, 41) + g(6, 2, 41))
    assert (err.value.cap, err.value.visited) == (1000, None)
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    with pytest.raises(SearchTooLarge) as err:  # one dual walk serves both
        _count_many(rep, [(1, 2), (2, 2)], cap=25439)
    assert err.value.estimate == g(4, 2, 23) * (g(4, 1, 23) + g(4, 2, 23))
    assert budgets == []  # every walk is checked before any runs
    with pytest.raises(SearchTooLarge) as err:  # a partial fiber, out of budget mid-walk
        _count_many(rep, [(1, 1), (1, 2)], cap=25439)
    assert err.value.estimate == g(4, 1, 23) * (g(4, 1, 23) + g(4, 2, 23))
    assert (err.value.cap, err.value.visited) == (25439, 25440)


REG4_LINES = gaussian_binomial(4, 1, 23)  # 12,720 lines at the searched vertex


def test_block_walk_charges_every_candidate(budgets):
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    profile = _count_many(rep, _fiber(1, 4))
    assert len(budgets) == 1  # the fiber is searched forward, in one walk
    assert budgets[-1].used == 2 * REG4_LINES == 25440  # generated, then ranked
    (ranks,) = _WALKS.values()
    assert dict(ranks) == {1: 1, 2: REG4_LINES - 1}
    assert sum(profile.values()) == sum(count_subreps(rep, (1, x)).count for x in range(5))


def test_block_walk_cap_boundary(budgets):
    rep = reduce_mod(build_kronecker(regular(4, 0)), 23)
    assert (_count_many(rep, _fiber(1, 4), cap=25440)[1, 2]
            == gaussian_binomial(3, 1, 23) + REG4_LINES - 1)
    with pytest.raises(SearchTooLarge) as err:
        _count_many(rep, _fiber(1, 4), cap=25439)
    assert (err.value.cap, err.value.visited) == (25439, 25440)
    assert budgets[-1].used == 25440


def test_count_walks_and_builds_columns_only_on_a_miss(budgets, monkeypatch):
    built = {"walks": 0, "columns": 0, "duals": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(subspaces, "_walk", counted("walks", subspaces._walk))
    monkeypatch.setattr(subspaces, "_columns", counted("columns", subspaces._columns))
    monkeypatch.setattr(subspaces, "_dual", counted("duals", subspaces._dual))
    for kind in (preprojective(3), preinjective(3)):
        rep = reduce_mod(build_kronecker(kind), 5)
        box = list(product(*(range(d + 1) for d in rep.dims)))
        for sweep in range(2):
            for e in box:
                before = dict(built)
                count_subreps(rep, e)
                hit = budgets[-1].used == 0
                searched = next(reversed(_WALKS))[0]  # a hit moves its walk to the end
                assert built["walks"] - before["walks"] == (0 if hit else 1), (kind, e)
                assert built["columns"] - before["columns"] == (0 if hit else 1), (kind, e)
                # the dual is built once when it is searched, and never otherwise
                assert built["duals"] - before["duals"] == (searched != rep), (kind, e)
                if sweep:
                    assert hit, (kind, e)
        if kind == preinjective(3):  # some e search the dual
            assert dual_representation(rep) in {key[0] for key in _WALKS}
