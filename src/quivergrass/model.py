"""Quivers and their exact representations.

A quiver is a finite directed multigraph on vertices 0..n-1 (files and the
CLI use 1-based labels; everything in memory is 0-based).  A representation
attaches a dimension to each vertex and one matrix to each arrow, with the
convention that the matrix of an arrow j -> i has shape dims[i] x dims[j]:
columns index the source space, rows the target, and vectors act as columns.

Scalar domains are exact only: arbitrary-precision integers and rationals
(field=None) or a prime field F_p with p a prime below 2^31 (field=p); 2 is
accepted, though the interpolation schedule samples odd primes only.
Vertex counts, arrow ends and dimensions must be integers (ValueError, not
truncation), and a Representation built from outside data is checked once,
when it is built.  The ones the library derives from checked ones (a
reduction mod p, a direct sum, a dual) are built by
`Representation._trusted`, which checks nothing again: their shapes follow
from the checked input and their entries are made in normal form.  The
seeded draws (`_random_representation`) are built that way too: the quiver
is a checked Quiver, the caller checks the dims before the draw, the shapes
follow from the dims, and every entry is an int the draw itself made in
[-bound, bound], so a check after it could only pass.
Values are immutable after construction and all operations are pure, so
everything is safe to share across threads.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heappush, heappop
from math import lcm
from typing import Sequence

from . import linalg
from .errors import (
    DomainMismatch,
    MixedScalarDomains,
    NotAcyclic,
    ParseError,
    QuiverMismatch,
    ShapeMismatch,
)

MAX_PRIME = 2 ** 31


def _as_int(x, what: str) -> int:
    """x as an int; integer types such as numpy's pass, anything else (bool too) is refused."""
    if type(x) is int:  # the common case, and what operator.index returns for it
        return x
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return operator.index(x)


@dataclass(frozen=True)
class Quiver:
    """Directed multigraph; arrows are (source, target) pairs, 0-based."""

    n: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "vertex count"))
        if self.n < 1:
            raise ValueError("quiver needs at least one vertex")
        object.__setattr__(self, "arrows", tuple(
            (_as_int(s, "arrow source"), _as_int(t, "arrow target")) for s, t in self.arrows))
        for s, t in self.arrows:
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise ValueError(f"arrow ({s}, {t}) out of range for n = {self.n}")

    def topological_order(self) -> tuple[int, ...] | None:
        """Kahn's algorithm with ascending-index tie-break; None if cyclic."""
        indeg = [0] * self.n
        for _, t in self.arrows:
            indeg[t] += 1
        ready: list[int] = []
        for v in range(self.n):
            if indeg[v] == 0:
                heappush(ready, v)
        order = []
        while ready:
            v = heappop(ready)
            order.append(v)
            for s, t in self.arrows:
                if s == v:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        heappush(ready, t)
        return tuple(order) if len(order) == self.n else None

    @property
    def is_acyclic(self) -> bool:
        """Worked out once per (n, arrows), not per object: callers build equal copies."""
        return _is_acyclic(self)

    @property
    def is_dynkin(self) -> bool:
        """Whether the Tits form q(x) = sum_v x_v^2 - sum_{a: u -> v} x_u x_v
        is positive definite, that is every connected component of the
        underlying graph is a simply-laced Dynkin diagram (A, D or E).  Worked
        out once per (n, arrows), like `is_acyclic`."""
        return _tits_definite(self)

    def opposite(self) -> "Quiver":
        return Quiver(self.n, tuple((t, s) for s, t in self.arrows))


@lru_cache(maxsize=256)
def _is_acyclic(quiver: Quiver) -> bool:
    return quiver.topological_order() is not None


@lru_cache(maxsize=256)
def _tits_definite(quiver: Quiver) -> bool:
    """Sylvester's criterion on 2q, the symmetric matrix 2I minus the arrow
    counts between each pair (a loop takes 2 off its diagonal entry), by
    fraction-free elimination in integers: the pivot of step k is the
    leading principal minor of order k + 1, and each step's division by the
    previous pivot is exact (Bareiss)."""
    n = quiver.n
    m = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for s, t in quiver.arrows:
        m[s][t] -= 1
        m[t][s] -= 1
    previous = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // previous
        previous = pivot
    return True


@lru_cache(maxsize=256)
def _into(quiver: Quiver) -> tuple[dict[int, tuple[tuple[int, int], ...]], frozenset]:
    """For `hom_dim`, once per (n, arrows): each vertex that some arrow
    enters, with the (source, index) of each such arrow, and the vertices
    that some arrow leaves."""
    ins = {v: tuple((u, i) for i, (u, t) in enumerate(quiver.arrows) if t == v)
           for v in range(quiver.n)}
    return {v: i for v, i in ins.items() if i}, frozenset(u for u, _ in quiver.arrows)


def _normalize_entry(x):
    """x as an int or a non-integral Fraction; any integer type (numpy's
    too, through __index__) passes, bool and every other scalar does not."""
    if isinstance(x, bool):
        raise ParseError("boolean is not a scalar")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if hasattr(type(x), "__index__"):
        return operator.index(x)
    raise ParseError(f"unsupported scalar {x!r}")


@dataclass(frozen=True)
class Representation:
    """Immutable quiver representation over Z/Q (field=None) or F_p (field=p)."""

    quiver: Quiver
    dims: tuple[int, ...]
    matrices: tuple[tuple[tuple, ...], ...]
    field: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(_as_int(d, "dimension") for d in self.dims))
        object.__setattr__(
            self, "matrices",
            tuple(tuple(tuple(_normalize_entry(x) for x in row) for row in mat)
                  for mat in self.matrices))
        validate_representation(self)

    @classmethod
    def _trusted(cls, quiver: Quiver, dims: tuple[int, ...], matrices: tuple,
                 field: int | None = None) -> "Representation":
        """Wrap parts that are already valid and normal: int dims that fit the
        arrows, entries int or non-integral Fraction over Q and int in [0, p)
        over F_p.  For representations derived from checked ones; outside
        input goes through the constructor."""
        rep = cls.__new__(cls)
        rep.__dict__.update(quiver=quiver, dims=dims, matrices=matrices, field=field)
        return rep

    @cached_property
    def _integral(self) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
        """(D, D * matrix) for each arrow, D the lcm of the matrix's
        denominators (1 for an integer matrix), worked out once per object,
        at its first `reduce_mod`."""
        dens = [lcm(*{x.denominator for row in mat for x in row}) for mat in self.matrices]
        return tuple((d, mat if d == 1 else tuple(tuple(int(x * d) for x in row) for row in mat))
                     for d, mat in zip(dens, self.matrices))

    @property
    def n(self) -> int:
        return self.quiver.n


def validate_representation(rep: Representation) -> None:
    """Check shapes against arrows and entries against the scalar domain.

    Raises ShapeMismatch (arrow index -1 when the dimension vector or the
    matrix count is at fault; its message names vertices and arrows 1-based) or
    MixedScalarDomains; returns None on success; every Representation built
    by the constructor runs it.  Loops and oriented 2-cycles are allowed
    (only the Euler form and Ext insist on acyclicity).
    """
    q = rep.quiver
    _check_dims(q, rep.dims)
    if len(rep.matrices) != len(q.arrows):
        raise ShapeMismatch(-1, f"{len(rep.matrices)} matrices for {len(q.arrows)} arrows")
    for a, ((s, t), mat) in enumerate(zip(q.arrows, rep.matrices)):
        want_rows, want_cols = rep.dims[t], rep.dims[s]
        if len(mat) != want_rows or any(len(row) != want_cols for row in mat):
            got = (len(mat), len(mat[0]) if mat else 0)
            raise ShapeMismatch(a, f"expected {want_rows}x{want_cols}, got {got[0]}x{got[1]}")
    p = rep.field
    if p is not None:
        # 2 is allowed here; only the interpolation schedule insists on odd primes
        if p >= MAX_PRIME or not linalg.is_prime(p):
            raise MixedScalarDomains(f"field={p} is not a prime below 2^31")
        for mat in rep.matrices:
            for row in mat:
                for x in row:
                    if not isinstance(x, int) or not 0 <= x < p:
                        raise MixedScalarDomains(f"entry {x!r} not reduced mod {p}")


def _check_dims(quiver: Quiver, dims: tuple[int, ...]) -> None:
    """ShapeMismatch (arrow index -1) unless dims has one non-negative
    entry per vertex."""
    if len(dims) != quiver.n:
        raise ShapeMismatch(-1, f"{len(dims)} dims for {quiver.n} vertices")
    for v, d in enumerate(dims):
        if d < 0:
            raise ShapeMismatch(-1, f"negative dimension {d} at vertex {v + 1}")


def _same_domain(a: Representation, b: Representation) -> None:
    if a.field != b.field:
        raise MixedScalarDomains(f"field {a.field} vs field {b.field}")


def reduce_mod(rep: Representation, p: int) -> Representation:
    """Reduce an integer/rational representation modulo a prime.

    One exact representation can be evaluated at many primes this way: each
    matrix is D * matrix / D with D * matrix integral (`_integral`, worked
    out once per representation), so each entry costs one multiply-mod by
    D^-1.  Raises DomainMismatch, naming the first entry whose denominator
    vanishes mod p, when p divides some D.
    """
    if rep.field is not None:
        raise DomainMismatch("representation is already over a prime field")
    if p >= MAX_PRIME or not linalg.is_prime(p):
        raise DomainMismatch(f"{p} is not a prime below 2^31")
    mats = []
    for (den, mat), given in zip(rep._integral, rep.matrices):
        if den % p == 0:
            x = next(x for row in given for x in row if x.denominator % p == 0)
            raise DomainMismatch(f"denominator of {x} vanishes mod {p}")
        inv = pow(den, -1, p)
        mats.append(tuple(tuple(x * inv % p for x in row) for row in mat))
    return Representation._trusted(rep.quiver, rep.dims, tuple(mats), p)


def _random_representation(quiver: Quiver, dims: tuple[int, ...], rng,
                           bound: int) -> Representation:
    """Integer entries rng.randint(-bound, bound), arrow by arrow in arrow
    order and row-major inside each matrix: the one seeded draw that
    `sampler.sample_general_rep` and `dynkin.dynkin_indecomposable` make.
    The caller has checked dims (int entries, one per vertex, none
    negative), so the draw is built by `Representation._trusted`."""
    return Representation._trusted(quiver, dims, tuple(
        tuple(tuple(rng.randint(-bound, bound) for _ in range(dims[s]))
              for _ in range(dims[t]))
        for s, t in quiver.arrows))


# ---------------------------------------------------------------------------
# Subspace tuples.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceTuple:
    """One subspace per vertex, each stored as a canonical RREF basis over F_p.

    Canonicity means two tuples describe the same subspaces iff they compare
    equal componentwise.
    """

    prime: int
    bases: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


# ---------------------------------------------------------------------------
# Direct sums, duals, and the homological toolkit.
# ---------------------------------------------------------------------------

def direct_sum(a: Representation, b: Representation) -> Representation:
    """Componentwise sum of dims with block-diagonal arrow matrices."""
    if a.quiver != b.quiver:
        raise QuiverMismatch("direct sum needs both summands on one quiver")
    _same_domain(a, b)
    mats = tuple(tuple(row + (0,) * b.dims[s] for row in am)
                 + tuple((0,) * a.dims[s] + row for row in bm)
                 for (s, _), am, bm in zip(a.quiver.arrows, a.matrices, b.matrices))
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    return Representation._trusted(a.quiver, dims, mats, a.field)


def dual_representation(rep: Representation) -> Representation:
    """Representation of the opposite quiver with transposed matrices."""
    mats = tuple(tuple(tuple(row[c] for row in mat) for c in range(rep.dims[s]))
                 for (s, _), mat in zip(rep.quiver.arrows, rep.matrices))
    return Representation._trusted(rep.quiver.opposite(), rep.dims, mats, rep.field)


def euler_form(quiver: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """<d, e> = sum_i d_i e_i - sum_{a: j->i} d_j e_i, for acyclic quivers."""
    if not quiver.is_acyclic:
        raise NotAcyclic("the Euler form is only used on acyclic quivers")
    total = sum(x * y for x, y in zip(d, e))
    for s, t in quiver.arrows:
        total -= d[s] * e[t]
    return total


def hom_dim(a: Representation, b: Representation) -> int:
    """Dimension of the space of homomorphisms a -> b, by vertex blocks.

    The unknowns are g_v: a_v -> b_v with g_v phi^a = phi^b g_u for each
    arrow u -> v.  The arrows into v make v's block of equations: side by
    side they read g_v W_v = Y_v, with W_v = [phi^a ...] (a_v x N_v) and
    Y_v = [phi^b g_u ...] (b_v x N_v).  g_v of a sink v, one that no arrow
    leaves, occurs in no other block, so one fraction-free Gauss-Jordan
    elimination of W_v (`linalg.gauss_jordan`, rows cleared of
    denominators over Q) settles it: g_v is fixed on im W_v and free on a
    complement, b_v (a_v - rank W_v) dimensions, and Y_v vanishes on
    ker W_v, which leaves b_v (N_v - rank W_v) equations in the other
    vertices' unknowns, one per row of g_v and vector of the basis of
    ker W_v that `linalg.kernel` reads off the eliminated rows, one per
    non-lead column.  Every other block keeps its b_v N_v equations as they
    stand, and so does a sink with a_v <= 1, whose elimination would only
    trade its b_v a_v unknowns for as many equations.  One elimination over
    the field (`linalg.rank_mod` or `linalg.rank_frac`) ranks them all:
    End of the seed-42 plane quartic (Kronecker m = 4, d = (3, 4)) is 32
    equations in 9 unknowns, where the dense system in every g_v is
    48 x 25.  A vertex on a loop or a cycle is no sink, so such quivers
    need nothing more.

    End of a thin representation, hom_dim(M, M) with every d_v <= 1, is
    read off its arrows (`_thin_end`), with no system at all.
    """
    if a.quiver != b.quiver:
        raise QuiverMismatch("hom requires both representations on one quiver")
    _same_domain(a, b)
    if a is b and all(x <= 1 for x in a.dims):
        return _thin_end(a)
    p, (into, sources) = a.field, _into(a.quiver)
    offsets, blocked, total = [], [], 0  # the unknowns of each g_v not blocked, row by row
    for v, x in enumerate(a.dims):
        offsets.append(total)
        blocked.append(x > 1 and v in into and v not in sources)
        total += 0 if blocked[v] else b.dims[v] * x
    rows, free = [], 0
    for v, ins in into.items():
        if not b.dims[v]:
            continue
        cols = [(u, c, a.matrices[i], b.matrices[i]) for u, i in ins for c in range(a.dims[u])]
        combos = [[(1, col)] for col in cols]  # each column of the block as it stands
        if blocked[v]:  # a sink: Y_v on a basis of ker W_v, and g_v free off im W_v
            w = [linalg._cleared([am[k][c] for _, c, am, _ in cols]) for k in range(a.dims[v])]
            leads = linalg.gauss_jordan(w, len(cols), p)
            free += b.dims[v] * (a.dims[v] - len(leads))
            combos = [[(x, col) for x, col in zip(vec, cols) if x]
                      for vec in linalg.kernel(w, leads, len(cols))]
        for combo in combos:
            for r in range(b.dims[v]):  # sum over the combo of x (g_v am - bm g_u)[r, c] = 0
                row = [0] * total
                for x, (u, c, am, bm) in combo:
                    for k in range(0 if blocked[v] else a.dims[v]):
                        row[offsets[v] + r * a.dims[v] + k] += x * am[k][c]
                    for k in range(b.dims[u]):
                        row[offsets[u] + k * a.dims[u] + c] -= x * bm[r][k]
                rows.append(row)
    return free + total - (linalg.rank_mod(rows, p) if p else linalg.rank_frac(rows))


def _thin_end(rep: Representation) -> int:
    """dim End(M) for thin M (every d_v <= 1): the number of connected
    components of the support under the arrows whose 1 x 1 matrix is
    nonzero, over Q as over F_p, on any quiver.  An endomorphism is a scalar
    g_v per vertex of the support, and such an arrow u -> v asks g_v = g_u;
    every other arrow (a zero scalar, an end outside the support, a loop)
    asks nothing."""
    root, parts = list(range(rep.n)), sum(rep.dims)  # a forest over the support
    for (u, v), mat in zip(rep.quiver.arrows, rep.matrices):
        if mat and mat[0] and mat[0][0]:
            while root[u] != u:
                u = root[u]
            while root[v] != v:
                v = root[v]
            if u != v:  # the arrow joins two components
                root[u] = v
                parts -= 1
    return parts


# ---------------------------------------------------------------------------
# File format: {"vertices": n, "arrows": [[src, tgt], ...], "dims": [...],
# "matrices": [[[row], ...], ...]}, arrows and matrices in the same order,
# vertices 1-based in files.  Every number in a file is a JSON integer.
# ---------------------------------------------------------------------------

def _file_int(field: str, x) -> int:
    if type(x) is not int:  # a JSON integer: no float, boolean or string
        raise ParseError(f"bad representation document: {field} value "
                         f"{json.dumps(x, default=repr)} is not an integer")
    return x


def representation_from_dict(data: dict) -> Representation:
    try:
        n = _file_int("vertices", data["vertices"])
        arrows = tuple((_file_int("arrows", s), _file_int("arrows", t))
                       for s, t in data["arrows"])
        dims = tuple(_file_int("dims", d) for d in data["dims"])
        matrices = tuple(
            tuple(tuple(_file_int("matrices", x) for x in row) for row in mat)
            for mat in data["matrices"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad representation document: {exc}") from exc
    for s, t in arrows:
        if not (1 <= s <= n and 1 <= t <= n):
            raise ParseError(f"arrow [{s}, {t}] out of range for vertices 1..{n}")
    try:
        quiver = Quiver(n, tuple((s - 1, t - 1) for s, t in arrows))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return Representation(quiver, dims, matrices)


def load_representation(path) -> Representation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return representation_from_dict(data)


def representation_to_dict(rep: Representation) -> dict:
    if rep.field is not None:
        raise DomainMismatch("files store integer representations only")
    for mat in rep.matrices:
        for row in mat:
            for x in row:
                if not isinstance(x, int):
                    raise ParseError("files store integer entries only")
    return {
        "vertices": rep.quiver.n,
        "arrows": [[s + 1, t + 1] for s, t in rep.quiver.arrows],
        "dims": list(rep.dims),
        "matrices": [[list(row) for row in mat] for mat in rep.matrices],
    }


def save_representation(rep: Representation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(representation_to_dict(rep), fh, indent=1)
        fh.write("\n")
