import json
import random
import re
from fractions import Fraction

import pytest

from quivergrass.errors import (
    DomainMismatch,
    MixedScalarDomains,
    NotAcyclic,
    ParseError,
    QuiverMismatch,
    ShapeMismatch,
)
from quivergrass import linalg
from quivergrass.euler import _sampling, good_primes
from quivergrass.kronecker import (
    build_kronecker,
    kronecker_quiver,
    preinjective,
    preprojective,
    regular,
)
from quivergrass.linalg import rref_mod
from quivergrass.model import (
    Quiver,
    _is_acyclic,
    Representation,
    direct_sum,
    dual_representation,
    euler_form,
    hom_dim,
    load_representation,
    reduce_mod,
    representation_from_dict,
    representation_to_dict,
    save_representation,
    validate_representation,
)

from oracles import dense_hom_dim, fraction_rank, modular_rank, naive_hom_dim_mod

ONE_VERTEX = Quiver(1, ())


def test_quiver_flags():
    q = Quiver(3, ((0, 1), (1, 2)))
    assert q.is_acyclic
    assert not Quiver(2, ((0, 0),)).is_acyclic  # a loop is a cycle
    assert not Quiver(2, ((0, 1), (1, 0))).is_acyclic
    assert Quiver(3, ((2, 1), (1, 0))).topological_order() == (2, 1, 0)


def test_equal_quivers_share_one_acyclicity_check(monkeypatch):
    # callers build equal copies of one quiver, so the check is keyed on (n, arrows)
    calls = []
    sort = Quiver.topological_order

    def counted(self):
        calls.append(self)
        return sort(self)

    monkeypatch.setattr(Quiver, "topological_order", counted)
    _is_acyclic.cache_clear()
    arrows = ((0, 1), (1, 2), (0, 2))
    assert Quiver(3, arrows).is_acyclic and Quiver(3, arrows).is_acyclic
    assert len(calls) == 1
    assert not Quiver(3, arrows + ((2, 0),)).is_acyclic and len(calls) == 2


class Index:
    """An integer type other than int, as numpy's are: it defines __index__ only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_like_matrix_entries():
    # an np.int64 entry used to raise "unsupported scalar" while np.int64 dims passed
    rep = Representation(kronecker_quiver(1), (1, 1), (((Index(2),),),))
    assert rep.matrices == (((2,),),) and type(rep.matrices[0][0][0]) is int
    assert rep == Representation(kronecker_quiver(1), (1, 1), (((2,),),))
    for bad, message in ((True, "boolean is not a scalar"), (0.5, "unsupported scalar 0.5"),
                         ("2", "unsupported scalar '2'")):
        with pytest.raises(ParseError, match=message):
            Representation(kronecker_quiver(1), (1, 1), (((bad,),),))


def test_quiver_arrow_bounds():
    with pytest.raises(ValueError):
        Quiver(2, ((0, 2),))


def test_counts_are_integers_not_truncated():
    with pytest.raises(ValueError, match="vertex count must be an integer, got 2.9"):
        Quiver(2.9, ())
    with pytest.raises(ValueError, match="arrow target must be an integer, got 1.0"):
        Quiver(2, ((0, 1.0),))
    with pytest.raises(ValueError, match="arrow source must be an integer, got True"):
        Quiver(2, ((True, 1),))
    for bad in (1.2, 1.0, Fraction(1), True, "1"):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            Representation(ONE_VERTEX, (bad,), ())
    # integer types such as numpy's keep working, and are stored as int
    np = pytest.importorskip("numpy")
    q = Quiver(np.int64(2), ((np.int32(0), np.int64(1)),))
    assert q == Quiver(2, ((0, 1),)) and type(q.n) is int
    rep = Representation(q, (np.int64(1), np.int8(2)), (((1,), (0,)),))
    assert rep.dims == (1, 2) and all(type(d) is int for d in rep.dims)


def test_validate_kronecker_ok():
    rep = build_kronecker(preprojective(2))
    assert rep.dims == (1, 2)
    validate_representation(rep)


def test_validate_shape_mismatch_on_second_arrow():
    q = kronecker_quiver()
    # second matrix transposed: 1x2 instead of 2x1
    with pytest.raises(ShapeMismatch) as err:
        rep = Representation(q, (1, 2), (((1,), (0,)), ((0, 1),)))
        validate_representation(rep)
    assert err.value.arrow_index == 1


def test_an_invalid_representation_cannot_be_built():
    # the shape and field cases above raise at construction as well
    q = kronecker_quiver()
    for dims, mats, detail in (((-1, 0), ((), ()), "negative dimension"),
                               ((1,), ((), ()), "1 dims for 2 vertices"),
                               ((1, 2), (((1,), (0,)),), "1 matrices for 2 arrows")):
        with pytest.raises(ShapeMismatch, match=detail) as err:
            Representation(q, dims, mats)
        assert err.value.arrow_index == -1


def test_validate_one_vertex_any_dim():
    for m in range(4):
        validate_representation(Representation(ONE_VERTEX, (m,), ()))


def test_validate_field_domain():
    q = kronecker_quiver()
    with pytest.raises(MixedScalarDomains):
        rep = Representation(q, (1, 2), (((1,), (0,)), ((0,), (1,))), field=9)
        validate_representation(rep)
    with pytest.raises(MixedScalarDomains):
        bad_entry = Representation(q, (1, 2), (((7,), (0,)), ((0,), (1,))), field=5)
        validate_representation(bad_entry)


def test_reduce_mod_refuses_non_primes_and_primes_past_2_31():
    rep = build_kronecker(preprojective(2))
    for p in (1, 9, 2 ** 31 + 11):  # 2^31 + 11 is prime
        with pytest.raises(DomainMismatch, match="not a prime below 2"):
            reduce_mod(rep, p)
    assert reduce_mod(rep, 2 ** 31 - 1).field == 2 ** 31 - 1


def test_echelon_canonicity():
    # same plane, different spanning rows -> bit-identical canonical bases
    a = rref_mod(((1, 2, 3), (0, 1, 4)), 5)
    b = rref_mod(((1, 3, 2), (2, 0, 0)), 5)  # row sums of a
    c = rref_mod(((1, 0, 0), (0, 1, 3)), 5)
    assert a == b
    assert a != c


def test_direct_sum_identity_and_dims():
    rep = build_kronecker(preprojective(2))
    zero = Representation(rep.quiver, (0, 0), ((), ()))
    assert direct_sum(rep, zero) == rep
    a = Representation(ONE_VERTEX, (2,), ())
    b = Representation(ONE_VERTEX, (3,), ())
    assert direct_sum(a, b).dims == (5,)
    both = direct_sum(build_kronecker(preprojective(2)),
                      build_kronecker(preinjective(2)))
    assert both.dims == (3, 3)


def test_direct_sum_mismatches():
    a = build_kronecker(preprojective(2))
    b = Representation(ONE_VERTEX, (1,), ())
    with pytest.raises(QuiverMismatch):
        direct_sum(a, b)
    with pytest.raises(MixedScalarDomains):
        direct_sum(a, reduce_mod(a, 5))


def test_dual_involution_and_shapes():
    rep = build_kronecker(preprojective(2))
    dual = dual_representation(rep)
    assert dual.quiver.arrows == ((1, 0), (1, 0))
    assert dual.dims == (1, 2)
    assert all(len(mat) == 1 and len(mat[0]) == 2 for mat in dual.matrices)
    assert dual_representation(dual) == rep


def test_dual_of_preprojective_is_preinjective():
    for m in (1, 2, 3):
        dual = dual_representation(build_kronecker(preprojective(m)))
        # relabel the opposite quiver's vertices 0 <-> 1 to land back on 1 -> 2
        relabeled = Representation(kronecker_quiver(),
                                   (dual.dims[1], dual.dims[0]), dual.matrices)
        inj = build_kronecker(preinjective(m))
        assert relabeled.dims == inj.dims
        assert hom_dim(relabeled, inj) >= 1
        assert hom_dim(inj, relabeled) >= 1
        assert hom_dim(relabeled, relabeled) == 1
        assert hom_dim(inj, inj) == 1


def test_euler_form_values():
    kron = kronecker_quiver()
    assert euler_form(kron, (1, 2), (1, 2)) == 1
    assert euler_form(kron, (3, 4), (0, 0)) == 0
    assert euler_form(ONE_VERTEX, (3,), (5,)) == 15
    with pytest.raises(NotAcyclic):
        euler_form(Quiver(2, ((0, 1), (1, 0))), (1, 1), (1, 1))


def test_hom_dim_examples():
    pr2 = build_kronecker(preprojective(2))
    assert hom_dim(pr2, pr2) == 1
    a = Representation(ONE_VERTEX, (2,), ())
    b = Representation(ONE_VERTEX, (3,), ())
    assert hom_dim(a, b) == 6
    assert hom_dim(Representation(kronecker_quiver(), (0, 0), ((), ())), pr2) == 0


@pytest.mark.parametrize("field", [None, 3])
def test_hom_dim_of_a_zero_or_arrowless_representation(field):
    # an empty intertwiner system has rank 0, over Q and mod p alike
    kron = kronecker_quiver()
    zero = Representation(kron, (0, 0), ((), ()), field=field)
    assert hom_dim(zero, zero) == 0
    # one equation per entry of the arrow's b_2 x a_1 block, each of length 0
    line = Quiver(2, ((0, 1),))
    s1 = Representation(line, (1, 0), ((),), field=field)
    s2 = Representation(line, (0, 1), (((),),), field=field)
    assert hom_dim(s1, s2) == 0 and hom_dim(s2, s1) == 0
    # no arrow, no equation: every linear map at every vertex
    a = Representation(Quiver(2, ()), (2, 1), (), field=field)
    b = Representation(Quiver(2, ()), (1, 3), (), field=field)
    assert hom_dim(a, b) == 5 and hom_dim(b, a) == 5


def test_hom_dim_against_naive_oracle():
    rng = random.Random("hom-oracle")
    q = Quiver(2, ((0, 1), (1, 1)))
    for p in (2, 3):
        for _ in range(4):
            da = (rng.randint(0, 2), rng.randint(0, 2))
            db = (rng.randint(0, 2), rng.randint(0, 2))

            def sample(dims):
                return tuple(
                    tuple(tuple(rng.randrange(p) for _ in range(dims[s]))
                          for _ in range(dims[t]))
                    for s, t in q.arrows)

            ra = Representation(q, da, sample(da), field=p)
            rb = Representation(q, db, sample(db), field=p)
            expected = naive_hom_dim_mod(q.arrows, da, db, ra.matrices, rb.matrices, p)
            assert hom_dim(ra, rb) == expected


def test_hom_additivity_over_direct_sums():
    rng = random.Random("hom-additive")
    q = Quiver(3, ((0, 1), (1, 2), (0, 2)))

    def sample():
        dims = tuple(rng.randint(0, 2) for _ in range(3))
        mats = tuple(
            tuple(tuple(rng.randint(-2, 2) for _ in range(dims[s]))
                  for _ in range(dims[t]))
            for s, t in q.arrows)
        return Representation(q, dims, mats)

    for _ in range(5):
        a, a2, b = sample(), sample(), sample()
        assert hom_dim(direct_sum(a, a2), b) == hom_dim(a, b) + hom_dim(a2, b)
        assert hom_dim(b, direct_sum(a, a2)) == hom_dim(b, a) + hom_dim(b, a2)


# Hom by vertex blocks against the dense system, in which every g_v has its
# unknowns and every arrow its equations (`oracles.dense_hom_dim`).

def _random_quiver(rng, kind):
    if kind == "loop":
        return Quiver(2, ((0, 0), (0, 1), (0, 1)))
    if kind == "2-cycle":
        return Quiver(3, ((0, 1), (1, 0), (1, 2)))
    n = rng.randint(2, 4)  # acyclic: each arrow goes up in index, parallel arrows allowed
    return Quiver(n, tuple(tuple(sorted(rng.sample(range(n), 2)))
                           for _ in range(rng.randint(1, 5))))


def _random_matrices(rng, quiver, dims, p):
    def entry():
        if p is not None:
            return rng.randrange(p)
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))

    return tuple(tuple(tuple(entry() if rng.random() < 0.8 else 0 for _ in range(dims[s]))
                       for _ in range(dims[t])) for s, t in quiver.arrows)


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_hom_dim_matches_the_dense_system(p):
    rng = random.Random(f"hom-blocks:{p}")
    kinds = ("acyclic", "acyclic", "loop", "2-cycle")
    blocked = 0  # pairs with a sink of a_v >= 2 and b_v >= 1, whose block is eliminated
    for i in range(80):
        q = _random_quiver(rng, kinds[i % len(kinds)])
        dims_a = tuple(rng.randint(0, 3) for _ in range(q.n))
        a = Representation(q, dims_a, _random_matrices(rng, q, dims_a, p), field=p)
        if i % 3 == 0:
            b = a
        else:
            dims_b = tuple(rng.randint(0, 3) for _ in range(q.n))
            b = Representation(q, dims_b, _random_matrices(rng, q, dims_b, p), field=p)
        assert hom_dim(a, b) == dense_hom_dim(a, b), (a, b)
        sinks = set(range(q.n)) - {u for u, _ in q.arrows}
        blocked += any(a.dims[v] > 1 and b.dims[v] for v in sinks)
    assert blocked >= 15, blocked


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
def test_thin_end_is_read_off_the_arrows(p, monkeypatch):
    # End of a thin M (every d_v <= 1) counts the components of its support
    # under the nonzero arrows, with no system ranked, on any quiver
    rng = random.Random(f"thin-end:{p}")
    kinds = ("acyclic", "acyclic", "loop", "2-cycle")
    reps = []
    for i in range(120):
        q = _random_quiver(rng, kinds[i % len(kinds)])
        dims = tuple(rng.randint(0, 1) for _ in range(q.n))
        reps.append(Representation(q, dims, _random_matrices(rng, q, dims, p), field=p))
    want = [dense_hom_dim(rep, rep) for rep in reps]
    ranked = []
    for name in ("rank_mod", "rank_frac"):
        monkeypatch.setattr(linalg, name, lambda *args, _name=name: ranked.append(_name))
    assert [hom_dim(rep, rep) for rep in reps] == want
    assert ranked == []
    inside = [(mat[0][0], s, t) for rep in reps
              for (s, t), mat in zip(rep.quiver.arrows, rep.matrices) if mat and mat[0]]
    assert any(x == 0 for x, _, _ in inside)  # a zero scalar inside the support
    assert any(s == t for _, s, t in inside)  # a loop
    assert any(x and (t, s) in {(a, b) for y, a, b in inside if y} for x, s, t in inside)
    assert any(len(set(q.arrows)) < len(q.arrows) for q in {r.quiver for r in reps})
    assert max(want) >= 3  # disconnected supports


def test_quartic_end_ranks_32_equations_in_9_unknowns(monkeypatch):
    # the sink's block of 4 x 12 equations leaves 4 x (12 - 4), in g_1 alone
    from quivergrass.sampler import sample_general_rep
    shapes = []
    rank = linalg.rank_mod

    def recorded(rows, p):
        rows = list(rows)
        shapes.append((len(rows), {len(row) for row in rows}))
        return rank(rows, p)

    monkeypatch.setattr(linalg, "rank_mod", recorded)
    rep = reduce_mod(sample_general_rep(kronecker_quiver(4), (3, 4), 42, 5), 3)
    assert hom_dim(rep, rep) == 1
    assert shapes == [(32, {9})]


# Reduction mod p from the cached integral form, against the reduction entry
# by entry through the checking constructor.

def _checked_reduction(rep, p):
    def red(x):
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise DomainMismatch(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return x % p

    return Representation(rep.quiver, rep.dims, tuple(tuple(tuple(red(x) for x in row)
                                                            for row in mat)
                                                      for mat in rep.matrices), field=p)


def _rational_reps():
    rng = random.Random("reduction")
    q = Quiver(3, ((0, 1), (0, 1), (1, 2)))
    for den in (3, 5, 15):
        for _ in range(4):
            dims = tuple(rng.randint(1, 3) for _ in range(3))
            yield Representation(q, dims, tuple(
                tuple(tuple(Fraction(rng.randint(-9, 9), rng.choice((1, den, 2 * den)))
                            for _ in range(dims[s])) for _ in range(dims[t]))
                for s, t in q.arrows))
    # det = 7: rank 2 over Q and 1 mod 7, beside a matrix with a denominator 3
    yield Representation(Quiver(3, ((0, 1), (1, 2))), (2, 2, 1),
                         (((1, 2), (3, 13)), ((Fraction(1, 3), 1),)))


ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_reduce_mod_matches_the_checked_reduction():
    refused = set()
    for rep in _rational_reps():
        for p in ODD_PRIMES:
            try:
                want = _checked_reduction(rep, p)
            except DomainMismatch as exc:
                with pytest.raises(DomainMismatch, match=re.escape(str(exc))):
                    reduce_mod(rep, p)
                refused.add(p)
                continue
            got = reduce_mod(rep, p)
            assert got == want and hash(got) == hash(want), (rep, p)
            assert got.matrices == want.matrices and got.field == p
            validate_representation(got)
            for derived, checked in ((direct_sum(got, got), direct_sum(want, want)),
                                     (dual_representation(got), dual_representation(want))):
                rebuilt = Representation(derived.quiver, derived.dims, derived.matrices,
                                         field=derived.field)
                assert derived == rebuilt == checked and hash(derived) == hash(rebuilt)
    assert refused == {3, 5}, refused


def test_good_primes_match_the_checked_rule():
    # the rule before the integral form: reduce through the checking
    # constructor, then compare each matrix's rank mod p with its rank over Q
    for rep in _rational_reps():
        ranks = [fraction_rank(mat) for mat in rep.matrices]
        want = []
        for p in (p for p in range(3, 100, 2) if all(p % q for q in range(3, p, 2))):
            try:
                rep_p = _checked_reduction(rep, p)
            except DomainMismatch:
                continue
            if all(linalg.rank_mod(mat, p) == r for mat, r in zip(rep_p.matrices, ranks)):
                want.append(p)
        assert good_primes(rep, 8) == want[:8], rep
    drop = list(_rational_reps())[-1]
    assert good_primes(drop, 3) == [5, 11, 13]  # 3 divides a denominator, 7 drops a rank


def test_rank_frac_takes_integer_rows_as_they_are():
    rng = random.Random("rank-frac")
    for _ in range(200):
        rows, inner, cols = rng.randint(0, 5), rng.randint(0, 4), rng.randint(0, 5)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
        ints = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if right
                else [0] * cols for row in left]
        fracs = [[Fraction(x, d) for x in row] for row, d in
                 zip(ints, [rng.randint(1, 6) for _ in ints])]
        want = fraction_rank(ints)
        assert linalg.rank_frac(ints) == want <= inner, ints
        assert linalg.rank_frac(fracs) == want, fracs
        assert linalg.rank_frac([[Fraction(x) for x in row] for row in ints]) == want


def _kernel_cases(rng, width, p):
    """Seeded matrices of one width over F_p (entries in [0, p)) or, for p
    None, over Q: the zero matrix, a full-rank one with a dependent row
    beneath, products of lower inner rank, and over Q rows of fractions
    whose first nonzero entry is negative."""
    yield [[0] * width for _ in range(3)]
    full = [[int(j >= i) for j in range(width)] for i in range(width)]
    rng.shuffle(full)
    yield full + [[sum(col) % p if p else sum(col) for col in zip(*full)]]
    for _ in range(12):
        inner = rng.randint(0, width)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rng.randint(0, 6))]
        right = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(inner)]
        rows = [[sum(x * r[c] for x, r in zip(row, right)) for c in range(width)]
                for row in left]
        if p:
            yield [[x % p for x in row] for row in rows]
            continue
        yield rows
        fracs = []
        for row in rows:
            lead = next((x for x in row if x), 1)
            fracs.append([Fraction(-x if lead > 0 else x, rng.randint(1, 6)) for x in row])
        yield fracs


def test_kernel_after_gauss_jordan_is_a_basis_of_the_null_space():
    rng = random.Random("kernel")
    for p in (2, 3, 5, 7, None):
        for width in range(8):
            for matrix in _kernel_cases(rng, width, p):
                rows = [list(linalg._cleared(row)) for row in matrix]
                leads = linalg.gauss_jordan(rows, width, p)
                basis = linalg.kernel(rows, leads, width)
                rank = modular_rank(matrix, p) if p else fraction_rank(matrix)
                assert len(basis) == width - rank, (matrix, p)
                for vec in basis:
                    assert len(vec) == width
                    for row in matrix:
                        dot = sum(x * y for x, y in zip(row, vec))
                        assert (dot % p if p else dot) == 0, (matrix, p, vec)
                got = modular_rank(basis, p) if p else fraction_rank(basis)
                assert got == len(basis), (matrix, p, basis)


def test_rigidity():
    assert _sampling(build_kronecker(preprojective(2))).rigid()
    assert _sampling(Representation(Quiver(2, ((0, 1),)), (1, 0), ((),))).rigid()  # S_1
    assert not _sampling(build_kronecker(regular(1, 3))).rigid()


def test_ext_nonnegative_on_random_inputs():
    rng = random.Random("ext-nonneg")
    q = Quiver(2, ((0, 1), (0, 1)))
    for _ in range(10):
        dims = (rng.randint(0, 3), rng.randint(0, 3))
        mats = tuple(
            tuple(tuple(rng.randint(-3, 3) for _ in range(dims[0]))
                  for _ in range(dims[1]))
            for _ in q.arrows)
        # dim Ext^1(M, M) = hom(M, M) - <d, d> >= 0, the premise of `_Sampling.end`
        rep = Representation(q, dims, mats)
        assert hom_dim(rep, rep) >= euler_form(q, dims, dims)


def test_json_round_trip(tmp_path):
    rep = build_kronecker(preprojective(3))
    path = tmp_path / "pr3.json"
    save_representation(rep, path)
    assert load_representation(path) == rep


def test_json_parse_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_representation(path)
    with pytest.raises(ParseError):
        representation_from_dict({"vertices": 1})
    doc = representation_to_dict(build_kronecker(preprojective(2)))
    assert doc["arrows"] == [[1, 2], [1, 2]]  # files are 1-based
    doc["matrices"][1] = [[0, 1]]  # transposed shape
    with pytest.raises(ShapeMismatch):
        representation_from_dict(doc)


@pytest.mark.parametrize("path", [("vertices",), ("arrows", 1, 1), ("dims", 0),
                                  ("matrices", 1, 1, 0)])
@pytest.mark.parametrize("bad", [0.5, 2.0, True, "2"])
def test_files_hold_json_integers_only(path, bad):
    # each of these used to be truncated or coerced by int()
    doc = representation_to_dict(build_kronecker(preprojective(2)))
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = bad
    with pytest.raises(ParseError, match=re.escape(
            f"bad representation document: {path[0]} value {json.dumps(bad)} is not an integer")):
        representation_from_dict(doc)


def test_file_arrows_out_of_range_name_the_file_labels():
    doc = {"vertices": 2, "arrows": [[0, 2]], "dims": [1, 1], "matrices": [[[1]]]}
    with pytest.raises(ParseError, match=re.escape("arrow [0, 2] out of range for vertices 1..2")):
        representation_from_dict(doc)
    doc["arrows"] = [[1, 3]]
    with pytest.raises(ParseError, match=re.escape("arrow [1, 3] out of range for vertices 1..2")):
        representation_from_dict(doc)


KRON_PR2 = build_kronecker(preprojective(2))


@pytest.mark.parametrize("call,error,message", [
    (lambda: Quiver(0, ()), ValueError, "quiver needs at least one vertex"),
    (lambda: reduce_mod(reduce_mod(KRON_PR2, 3), 5), DomainMismatch,
     "representation is already over a prime field"),
    (lambda: hom_dim(KRON_PR2, Representation(Quiver(2, ((0, 1),)), (1, 1), (((1,),),))),
     QuiverMismatch, "hom requires both representations on one quiver"),
    (lambda: representation_from_dict({"vertices": 0, "arrows": [], "dims": [],
                                       "matrices": []}),
     ParseError, "quiver needs at least one vertex"),
    (lambda: representation_to_dict(reduce_mod(KRON_PR2, 3)), DomainMismatch,
     "files store integer representations only"),
    (lambda: representation_to_dict(Representation(Quiver(2, ((0, 1),)), (1, 1),
                                                   (((Fraction(1, 2),),),))),
     ParseError, "files store integer entries only"),
], ids=["no-vertex", "reduced-twice", "other-quiver", "file-no-vertex", "save-mod-p",
        "save-fraction"])
def test_model_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
