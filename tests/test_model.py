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
from quivergrass.euler import _sampling
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

from oracles import naive_hom_dim_mod

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
