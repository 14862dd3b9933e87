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
truncation), and a Representation is checked once, when it is built.
Values are immutable after construction and all operations are pure, so
everything is safe to share across threads.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappush, heappop
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

    def opposite(self) -> "Quiver":
        return Quiver(self.n, tuple((t, s) for s, t in self.arrows))


@lru_cache(maxsize=256)
def _is_acyclic(quiver: Quiver) -> bool:
    return quiver.topological_order() is not None


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

    @property
    def n(self) -> int:
        return self.quiver.n


def validate_representation(rep: Representation) -> None:
    """Check shapes against arrows and entries against the scalar domain.

    Raises ShapeMismatch (arrow index -1 when the dimension vector or the
    matrix count is at fault; its message names vertices and arrows 1-based) or
    MixedScalarDomains; returns None on success; every Representation runs
    it when built.  Loops and oriented 2-cycles are allowed (only the Euler
    form and Ext insist on acyclicity).
    """
    q = rep.quiver
    if len(rep.dims) != q.n:
        raise ShapeMismatch(-1, f"{len(rep.dims)} dims for {q.n} vertices")
    for v, d in enumerate(rep.dims):
        if d < 0:
            raise ShapeMismatch(-1, f"negative dimension {d} at vertex {v + 1}")
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


def _same_domain(a: Representation, b: Representation) -> None:
    if a.field != b.field:
        raise MixedScalarDomains(f"field {a.field} vs field {b.field}")


def reduce_mod(rep: Representation, p: int) -> Representation:
    """Reduce an integer/rational representation modulo a prime.

    One exact representation can be evaluated at many primes this way.
    Raises DomainMismatch if some denominator vanishes mod p.
    """
    if rep.field is not None:
        raise DomainMismatch("representation is already over a prime field")
    if p >= MAX_PRIME or not linalg.is_prime(p):
        raise DomainMismatch(f"{p} is not a prime below 2^31")

    def red(x):
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise DomainMismatch(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return x % p

    mats = tuple(tuple(tuple(red(x) for x in row) for row in mat)
                 for mat in rep.matrices)
    return Representation(rep.quiver, rep.dims, mats, field=p)


def _random_representation(quiver: Quiver, dims: tuple[int, ...], rng,
                           bound: int) -> Representation:
    """Integer entries rng.randint(-bound, bound), arrow by arrow in arrow
    order and row-major inside each matrix: the one seeded draw that
    `sampler.sample_general_rep` and `dynkin.dynkin_indecomposable` make."""
    return Representation(quiver, dims, tuple(
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
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    mats = []
    for idx, (s, t) in enumerate(a.quiver.arrows):
        am, bm = a.matrices[idx], b.matrices[idx]
        rows = []
        for r in range(a.dims[t]):
            rows.append(tuple(am[r]) + (0,) * b.dims[s])
        for r in range(b.dims[t]):
            rows.append((0,) * a.dims[s] + tuple(bm[r]))
        mats.append(tuple(rows))
    return Representation(a.quiver, dims, tuple(mats), field=a.field)


def dual_representation(rep: Representation) -> Representation:
    """Representation of the opposite quiver with transposed matrices."""
    mats = []
    for (s, t), mat in zip(rep.quiver.arrows, rep.matrices):
        rows, cols = rep.dims[t], rep.dims[s]
        mats.append(tuple(tuple(mat[r][c] for r in range(rows)) for c in range(cols)))
    return Representation(rep.quiver.opposite(), rep.dims, tuple(mats), field=rep.field)


def euler_form(quiver: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """<d, e> = sum_i d_i e_i - sum_{a: j->i} d_j e_i, for acyclic quivers."""
    if not quiver.is_acyclic:
        raise NotAcyclic("the Euler form is only used on acyclic quivers")
    total = sum(x * y for x, y in zip(d, e))
    for s, t in quiver.arrows:
        total -= d[s] * e[t]
    return total


def hom_dim(a: Representation, b: Representation) -> int:
    """Dimension of the space of homomorphisms a -> b.

    Solves the intertwiner system {g_i: a_i -> b_i, g_i phi^a = phi^b g_j}
    by exact elimination over the common scalar field.
    """
    if a.quiver != b.quiver:
        raise QuiverMismatch("hom requires both representations on one quiver")
    _same_domain(a, b)
    offsets = []
    total = 0
    for v in range(a.n):
        offsets.append(total)
        total += b.dims[v] * a.dims[v]
    rows = []
    for idx, (s, t) in enumerate(a.quiver.arrows):
        am, bm = a.matrices[idx], b.matrices[idx]
        # g_t am - bm g_s = 0, one equation per (r, c) in b_t x a_s
        for r in range(b.dims[t]):
            for c in range(a.dims[s]):
                row = [0] * total
                for k in range(a.dims[t]):
                    row[offsets[t] + r * a.dims[t] + k] += am[k][c]
                for k in range(b.dims[s]):
                    row[offsets[s] + k * a.dims[s] + c] -= bm[r][k]
                rows.append(row)
    return total - (linalg.rank_frac(rows) if a.field is None else linalg.rank_mod(rows, a.field))


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
