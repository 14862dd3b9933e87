import json
import random
from itertools import permutations, product

import pytest

from oracles import (
    apply_word_inverse,
    bipartite_word,
    closure_positive_roots,
    minor_argument_matrix,
    solve_gamma_by_reflections,
    thin_f_polynomial,
    type_a_minor,
    weyl_orbit,
)
from quivergrass.dynkin import (
    coxeter_from_orientation,
    dynkin_indecomposable,
    f_polynomial_via_minor,
    is_minuscule,
    orientation_from_coxeter,
    root_system,
    simple_reflection,
    solve_gamma,
)
from quivergrass.errors import (
    NotAnOrientation,
    NotInAnyFundamentalOrbit,
    ScopeError,
    SearchExhausted,
)
from quivergrass.euler import f_polynomial
from quivergrass.fpoly import FPolynomial
from quivergrass.kronecker import kronecker_quiver
from quivergrass.model import Quiver, euler_form, hom_dim


def ext1_dim(rep):
    """dim Ext^1(M, M) = hom(M, M) - <d, d>, the hereditary identity, with
    one elimination over Q: independent of the End certificate at a prime."""
    return hom_dim(rep, rep) - euler_form(rep.quiver, rep.dims, rep.dims)


def all_orientations(rs):
    edges = rs.edges()
    for dirs in product((0, 1), repeat=len(edges)):
        yield Quiver(rs.rank, tuple(
            (b, a) if d == 0 else (a, b) for (a, b), d in zip(edges, dirs)))


@pytest.mark.parametrize("label,rank,count", [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("A", 4, 10), ("A", 5, 15),
    ("D", 4, 12), ("D", 5, 20), ("E", 6, 36), ("E", 7, 63), ("E", 8, 120),
])
def test_positive_root_counts(label, rank, count):
    rs = root_system(label, rank)
    assert len(rs.positive_roots) == count


def test_positive_roots_by_height_match_the_reflection_closure():
    for label, ranks in (("A", range(1, 13)), ("D", range(4, 13)), ("E", (6, 7, 8))):
        for rank in ranks:
            rs = root_system(label, rank)
            assert rs.positive_roots == closure_positive_roots(rs.cartan), (label, rank)


def test_cartan_simply_laced():
    for label, rank in (("A", 1), ("A", 4), ("A", 5), ("D", 4), ("D", 7),
                        ("E", 6), ("E", 7), ("E", 8)):
        rs = root_system(label, rank)
        for i in range(rank):
            assert rs.cartan[i][i] == 2
            for j in range(rank):
                assert rs.cartan[i][j] == rs.cartan[j][i]
                if i != j:
                    assert rs.cartan[i][j] in (0, -1)
        # the diagram's edges are the -1 entries above the diagonal, in order
        assert rs.edges() == tuple((i, j) for i in range(rank) for j in range(i + 1, rank)
                                   if rs.cartan[i][j] == -1)


def test_simple_reflection_basics():
    rs = root_system("A", 2)
    w1, w2 = rs.fundamental_weights
    assert simple_reflection(rs, 0, w2) == w2             # fixes other weights
    assert simple_reflection(rs, 0, w1) == (-1, 1)        # omega1 - alpha1
    for wt in ((1, 0), (2, -3), (0, 5)):
        for i in range(2):
            assert simple_reflection(rs, i, simple_reflection(rs, i, wt)) == wt


def test_weyl_orbit_sizes_type_a():
    rs = root_system("A", 3)
    assert len(weyl_orbit(rs, rs.fundamental_weights[0])) == 4
    assert len(weyl_orbit(rs, rs.fundamental_weights[1])) == 6
    assert len(weyl_orbit(rs, rs.fundamental_weights[2])) == 4


def test_orientation_from_coxeter_examples():
    a2 = root_system("A", 2)
    assert orientation_from_coxeter(a2, (0, 1)).arrows == ((1, 0),)
    assert orientation_from_coxeter(a2, (1, 0)).arrows == ((0, 1),)
    a3 = root_system("A", 3)
    q = orientation_from_coxeter(a3, (1, 0, 2))
    assert set(q.arrows) == {(0, 1), (2, 1)}


def test_coxeter_from_orientation_examples():
    a2 = root_system("A", 2)
    assert coxeter_from_orientation(a2, Quiver(2, ((1, 0),))) == (0, 1)
    assert coxeter_from_orientation(a2, Quiver(2, ((0, 1),))) == (1, 0)


@pytest.mark.parametrize("rank", (2, 3, 4))
def test_bijection_round_trips(rank):
    rs = root_system("A", rank)
    seen_words = set()
    count = 0
    for q in all_orientations(rs):
        word = coxeter_from_orientation(rs, q)
        assert orientation_from_coxeter(rs, word) == q
        seen_words.add(word)
        count += 1
    assert count == 2 ** (rank - 1)
    assert len(seen_words) == count
    for word in seen_words:
        assert coxeter_from_orientation(rs, orientation_from_coxeter(rs, word)) == word


def test_not_an_orientation():
    rs = root_system("A", 3)
    with pytest.raises(NotAnOrientation):
        coxeter_from_orientation(rs, Quiver(3, ((0, 1), (0, 1))))
    with pytest.raises(NotAnOrientation):
        coxeter_from_orientation(rs, Quiver(3, ((0, 2), (2, 1))))


def test_solve_gamma_examples():
    a1 = root_system("A", 1)
    gamma, idx = solve_gamma(a1, (0,), (1,))
    assert gamma == (-1,) and idx == 0

    a2 = root_system("A", 2)
    gamma, idx = solve_gamma(a2, (0, 1), (1, 0))
    assert gamma == (-1, 1) and idx == 0
    gamma, idx = solve_gamma(a2, (0, 1), (1, 1))
    assert gamma == (-1, 0) and idx == 1


def sweep_words(rank, limit=60):
    """Every Coxeter word of the rank, or `limit` of them from a fixed-seed shuffle."""
    words = list(permutations(range(rank)))
    if len(words) > limit:
        random.Random(f"gamma-sweep:{rank}").shuffle(words)
    return words[:limit]


# 4,830 (word, root) cases: A2 6, A3 36, A4 240, A5 900, D4 288, D5 1200, E6 2160
@pytest.mark.parametrize("label,rank", [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4),
                                        ("D", 5), ("E", 6)],
                         ids=("2", "3", "4", "5", "D4", "D5", "E6"))
def test_solve_gamma_satisfies_equation(label, rank):
    rs = root_system(label, rank)
    orbits = [weyl_orbit(rs, omega) for omega in rs.fundamental_weights]
    for word in sweep_words(rank):
        for alpha in rs.positive_roots:
            gamma, idx = solve_gamma(rs, word, alpha)
            moved = apply_word_inverse(rs, word, gamma)
            diff = tuple(a - b for a, b in zip(moved, gamma))
            # alpha in fundamental-weight coordinates: the Cartan matrix times alpha
            assert diff == tuple(sum(c * a for c, a in zip(row, alpha)) for row in rs.cartan)
            assert [gamma in orbit for orbit in orbits] == [i == idx for i in range(rank)]


# 2,994 (word, root) cases: every positive root under the identity, the
# reversed and four seeded words
@pytest.mark.parametrize("label,rank", [("A", n) for n in range(1, 9)]
                         + [("D", n) for n in range(4, 9)] + [("E", n) for n in (6, 7, 8)])
def test_solve_gamma_matches_the_reflection_walk(label, rank):
    # the neighbour updates and the stack walk against whole Cartan rows and
    # the first negative coordinate: same gamma, same orbit index
    rs = root_system(label, rank)
    words = [tuple(range(rank)), tuple(reversed(range(rank)))]
    for s in range(4):
        word = list(range(rank))
        random.Random(f"orbit-index:{label}{rank}:{s}").shuffle(word)
        words.append(tuple(word))
    for word in words:
        for alpha in rs.positive_roots:
            try:
                got = solve_gamma(rs, word, alpha)
            except NotInAnyFundamentalOrbit as exc:
                got = str(exc)
            assert got == solve_gamma_by_reflections(rs, word, alpha), (word, alpha)


def test_minor_route_tabulates_nothing_per_set_of_letters():
    # the thin root of A40 reaches 41 sets of letters; a table over all 2^40
    # of them would never finish
    f = f_polynomial_via_minor(40, range(40), (1,) * 40)
    assert len(f.terms) == 41


@pytest.mark.parametrize("label,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("E", 6),
])
def test_coxeter_minus_identity_invertible(label, rank):
    from quivergrass.linalg import rank_frac
    rs = root_system(label, rank)
    words = permutations(range(rank)) if rank <= 5 else [
        tuple(range(rank)), tuple(reversed(range(rank))), (1, 3, 5, 0, 2, 4)[:rank]]
    for word in words:
        cols = [apply_word_inverse(rs, word, u) for u in rs.fundamental_weights]
        mat = [[cols[j][i] - (1 if i == j else 0) for j in range(rank)]
               for i in range(rank)]
        assert rank_frac(mat) == rank, word


@pytest.mark.parametrize("rank", (1, 2, 3, 4))
def test_minor_argument_matrix_is_the_factor_product(rank):
    size = rank + 1
    one, zero = FPolynomial.one(rank), FPolynomial.zero(rank)

    def factor(row, col, entry):  # Id + entry * E_{row,col}
        return [[entry if (r, c) == (row, col) else one if r == c else zero
                 for c in range(size)] for r in range(size)]

    def times(a, b):
        return [[sum((a[r][k] * b[k][c] for k in range(size)), zero)
                 for c in range(size)] for r in range(size)]

    for word in permutations(range(rank)):
        expected = factor(0, 0, one)
        for i in word:
            expected = times(expected, factor(i + 1, i, one))
        for i in reversed(word):
            expected = times(expected, factor(i, i + 1, FPolynomial.variable(rank, i)))
        assert minor_argument_matrix(rank, word) == expected, word


# 783 (word, root) cases: every word of A1-A4, five seeded words of A5-A8
@pytest.mark.parametrize("rank", range(1, 9))
def test_walk_equals_the_oracle_matrix_minor(rank):
    rs = root_system("A", rank)
    for word in sweep_words(rank, limit=24 if rank <= 4 else 5):
        matrix = minor_argument_matrix(rank, word)
        for alpha in rs.positive_roots:
            gamma, _ = solve_gamma(rs, word, alpha)
            expected = type_a_minor(rank, gamma, matrix)
            assert f_polynomial_via_minor(rank, word, alpha) == expected, (word, alpha)


@pytest.mark.parametrize("rank", range(1, 6))
def test_walk_matches_the_thin_oracle_in_type_a(rank):
    rs = root_system("A", rank)
    for word in permutations(range(rank)):
        quiver = orientation_from_coxeter(rs, word)
        for alpha in rs.positive_roots:
            assert f_polynomial_via_minor(rank, word, alpha) == \
                thin_f_polynomial(quiver, alpha), (word, alpha)


def minuscule_by_orbit(rs, i):
    """The definition: every weight of W omega_i has coordinates in
    {-1, 0, 1}; an independent check of the highest-root test.  The orbit
    is walked by simple reflections and the walk stops at the first weight
    outside that range (the E8 orbits run to hundreds of thousands)."""
    start = rs.fundamental_weights[i]
    seen, frontier = {start}, [start]
    while frontier:
        w = frontier.pop()
        if any(abs(x) > 1 for x in w):
            return False
        for j in range(rs.rank):
            nxt = simple_reflection(rs, j, w)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True


@pytest.mark.parametrize("label,rank,expected", [
    ("A", 1, (0,)), ("A", 5, (0, 1, 2, 3, 4)), ("A", 8, tuple(range(8))),
    ("D", 4, (0, 2, 3)), ("D", 5, (0, 3, 4)), ("D", 6, (0, 4, 5)),
    ("E", 6, (0, 5)), ("E", 7, (6,)), ("E", 8, ()),
])
def test_minuscule_fundamental_weights(label, rank, expected):
    rs = root_system(label, rank)
    found = tuple(i for i in range(rank) if is_minuscule(label, rank, i))
    assert found == expected
    assert found == tuple(i for i in range(rank) if minuscule_by_orbit(rs, i))


# A8 72, D4 24, D5 40, D6 60, D7 84, E6 72, E7 126 (root, word) pairs: 222 minuscule
# (E7 18), 256 not
@pytest.mark.parametrize("label,rank", [("A", 8), ("D", 4), ("D", 5), ("D", 6), ("D", 7),
                                        ("E", 6), ("E", 7)])
def test_walk_in_types_d_and_e(label, rank):
    rs = root_system(label, rank)
    for word in (tuple(range(rank)), bipartite_word(rs)):
        quiver = orientation_from_coxeter(rs, word)
        for alpha in rs.positive_roots:
            _, i = solve_gamma(rs, word, alpha)
            if not minuscule_by_orbit(rs, i):
                with pytest.raises(ScopeError, match="not minuscule"):
                    f_polynomial_via_minor(rank, word, alpha, label)
                continue
            got = f_polynomial_via_minor(rank, word, alpha, label)
            assert set(got.terms.values()) == {1}, (word, alpha)
            if max(alpha) == 1:
                assert got == thin_f_polynomial(quiver, alpha), (word, alpha)
            assert got == f_polynomial(dynkin_indecomposable(quiver, alpha)), (word, alpha)


def test_walk_refuses_non_minuscule_roots():
    with pytest.raises(ScopeError, match="omega_2, which is not minuscule in D4"):
        f_polynomial_via_minor(4, (0, 1, 2, 3), (1, 2, 1, 1), "D")
    with pytest.raises(ScopeError, match="not minuscule in E6"):
        f_polynomial_via_minor(6, tuple(range(6)), (0, 1, 0, 0, 0, 0), "E")


def test_f_polynomial_via_minor_examples():
    assert f_polynomial_via_minor(1, (0,), (1,)) == FPolynomial(1, {(0,): 1, (1,): 1})
    got = f_polynomial_via_minor(2, (0, 1), (1, 1))
    assert got == FPolynomial(2, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    got = f_polynomial_via_minor(2, (0, 1), (0, 1))
    assert got == FPolynomial(2, {(0, 0): 1, (0, 1): 1})


@pytest.mark.parametrize("rank", (2, 3))
def test_minor_polynomial_invariants(rank):
    rs = root_system("A", rank)
    for word in permutations(range(rank)):
        for alpha in rs.positive_roots:
            f = f_polynomial_via_minor(rank, word, alpha)
            assert f.constant_term == 1
            assert f.coefficient(alpha) != 0
            top = max(f.terms, key=lambda e: (sum(e), e))
            assert top == tuple(alpha)
            for e in f.terms:
                assert all(x <= a for x, a in zip(e, alpha))


def test_minor_matches_bruteforce_spot():
    rs = root_system("A", 3)
    for q in all_orientations(rs):
        word = coxeter_from_orientation(rs, q)
        alpha = (1, 1, 1)
        rep = dynkin_indecomposable(q, alpha)
        assert f_polynomial_via_minor(3, word, alpha) == f_polynomial(rep)


def test_dynkin_indecomposable_simples_and_roots():
    q = Quiver(2, ((1, 0),))
    rep = dynkin_indecomposable(q, (1, 0))
    assert rep.dims == (1, 0) and hom_dim(rep, rep) == 1
    rep = dynkin_indecomposable(q, (1, 1))
    assert hom_dim(rep, rep) == 1 and ext1_dim(rep) == 0

    chain = Quiver(3, ((0, 1), (1, 2)))
    rep = dynkin_indecomposable(chain, (1, 1, 1))
    assert hom_dim(rep, rep) == 1 and ext1_dim(rep) == 0


def test_dynkin_indecomposable_d4_highest_root():
    d4 = Quiver(4, ((0, 1), (2, 1), (3, 1)))  # all arrows into the center
    rep = dynkin_indecomposable(d4, (1, 2, 1, 1))
    assert hom_dim(rep, rep) == 1 and ext1_dim(rep) == 0


def test_dynkin_indecomposable_deterministic():
    q = Quiver(3, ((0, 1), (1, 2)))
    assert dynkin_indecomposable(q, (1, 1, 1)) == dynkin_indecomposable(q, (1, 1, 1))


def test_dynkin_indecomposable_exhausts_on_non_root():
    chain = Quiver(3, ((0, 1), (1, 2)))
    with pytest.raises(SearchExhausted):
        dynkin_indecomposable(chain, (1, 0, 1))


def test_no_sample_where_no_rigid_indecomposable_exists(monkeypatch):
    # rigid indecomposables have <alpha, alpha> = 1; A3 (1, 0, 1) has 2 and
    # Kronecker (3, 3) has 0, so neither draws a sample (each ran 200 first)
    import quivergrass.dynkin as dk
    calls = []
    hom = dk.hom_dim

    def counted(a, b):
        calls.append(a.dims)
        return hom(a, b)

    monkeypatch.setattr(dk, "hom_dim", counted)
    for quiver, alpha, form in ((Quiver(3, ((0, 1), (1, 2))), (1, 0, 1), 2),
                                (kronecker_quiver(), (3, 3), 0)):
        with pytest.raises(SearchExhausted, match=f"<alpha, alpha> = {form} for dims"):
            dk.dynkin_indecomposable(quiver, alpha)
    assert calls == []
    # a root is still certified by hom = 1 alone, one elimination per sample
    rep = dk.dynkin_indecomposable(Quiver(3, ((0, 1), (1, 2))), (1, 1, 1))
    assert ext1_dim(rep) == 0 and calls[-1] == (1, 1, 1)


def test_minor_route_reads_a_word_of_any_iterable_and_integer_type():
    want = f_polynomial_via_minor(3, (0, 1, 2), (1, 1, 1))
    assert f_polynomial_via_minor(3, iter((0, 1, 2)), (1, 1, 1)) == want
    np = pytest.importorskip("numpy")
    got = f_polynomial_via_minor(3, np.array([0, 1, 2]), (1, 1, 1))
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def test_dynkin_entry_points_refuse_non_integers():
    # each used to truncate: alpha (1.5, 1.2) as (1, 1), the word (0.2, 1.7) as (0, 1)
    rs = root_system("A", 2)
    with pytest.raises(ValueError, match="dimension must be an integer, got 1.5"):
        dynkin_indecomposable(Quiver(2, ((0, 1),)), (1.5, 1.2))
    with pytest.raises(ValueError, match="word letter must be an integer, got 0.2"):
        orientation_from_coxeter(rs, (0.2, 1.7))
    with pytest.raises(ValueError, match="root coordinate must be an integer, got 1.5"):
        solve_gamma(rs, (0, 1), (1.5, 1))
    with pytest.raises(ValueError, match="word letter must be an integer, got 0.0"):
        f_polynomial_via_minor(2, (0.0, 1), (1, 1))
    assert orientation_from_coxeter(rs, (0, 1)) == Quiver(2, ((1, 0),))
    # a float rank was answered from the cache of its integer twin, and a bool
    # rank was refused only by the FPolynomial constructor, which the minor's
    # result no longer passes through
    with pytest.raises(ValueError, match="rank must be an integer, got 2.0"):
        root_system("A", 2.0)
    with pytest.raises(ValueError, match="rank must be an integer, got True"):
        f_polynomial_via_minor(True, (0,), (1,))
    with pytest.raises(ValueError, match="rank must be an integer, got 2.0"):
        is_minuscule("A", 2.0, 0)
    assert root_system("A", 2) is rs


A3_LINE = Quiver(3, ((0, 1), (1, 2)))


@pytest.mark.parametrize("call,error,message", [
    (lambda mp: root_system("B", 3), ValueError, "unknown type label 'B'"),
    (lambda mp: coxeter_from_orientation(root_system("A", 3), Quiver(2, ((0, 1),))),
     NotAnOrientation, "2 vertices for rank 3"),
    (lambda mp: solve_gamma(root_system("A", 3), (0, 1, 2), (1, 0, 1)),
     ValueError, "(1, 0, 1) is not a positive root of A3"),
    (lambda mp: dynkin_indecomposable(A3_LINE, (1, 1)), ValueError,
     "bad dimension vector (1, 1)"),
    # a repeated letter, and a word one letter short
    (lambda mp: orientation_from_coxeter(root_system("A", 3), (0, 0, 2)), ValueError,
     "word (0, 0, 2) is not a permutation of 0..2"),
    (lambda mp: solve_gamma(root_system("A", 3), (2, 0), (1, 1, 1)), ValueError,
     "word (2, 0) is not a permutation of 0..2"),
    # every draw looks decomposable, so the search runs out
    (lambda mp: mp.setattr("quivergrass.dynkin.hom_dim", lambda a, b: 2)
     or dynkin_indecomposable(A3_LINE, (1, 1, 1)),
     SearchExhausted, "no certified indecomposable of dims (1, 1, 1) in 200 samples; "
     "is alpha a positive root of this quiver's diagram?"),
], ids=["unknown-label", "vertex-count", "not-a-root", "alpha-length", "repeated-letter",
        "short-word", "exhausted"])
def test_dynkin_refusals_name_their_cause(call, error, message, monkeypatch):
    with pytest.raises(error) as err:
        call(monkeypatch)
    assert str(err.value) == message
