"""Streaming subspace enumeration and exact point counts over prime fields.

One search engine serves every count.  It walks vertices in a fixed order
(topological when the quiver is acyclic, ascending index otherwise).  At each
vertex it only generates subspaces containing the span forced by arrows from
already-chosen vertices, which is the earliest point at which those arrow
constraints can be checked; arrows pointing back to already-chosen vertices,
and loops, are checked on each candidate as soon as it is generated.  When the
last vertex in the order has no arrows out of it, its subspaces are counted by
the Gaussian binomial instead of being materialized.

Direction: annihilators map Gr_e(M) bijectively onto Gr_{d-e}(M*), where
M* = `dual_representation(M)` lives on the opposite quiver.  On an acyclic
quiver `count_subreps` searches whichever side has the strictly smaller
`enumerated_estimate`, and `box_prefers_dual` chooses once for a whole box.
`iter_subrep_tuples` searches forward, since it returns subspaces of M.

Incremental images: the echelon enumeration is an odometer over the free
entries that carries each basis row's image under every arrow out of the
vertex.  Stepping an entry by one, or wrapping it from p-1 to 0 (also +1 mod
p), adds one matrix column; forced spans, the final rank and the arrow
checks read these images instead of a matrix-vector product per row.

The cap bounds the number of candidate subspaces actually generated, so a
search that would hang turns into a SearchTooLarge error instead; its
estimate is the product of Gaussian binomials in either direction.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Iterator, NamedTuple, Sequence

from . import linalg
from .errors import DegenerateBase, DomainMismatch, SearchTooLarge
from .model import (
    Quiver,
    Representation,
    SubspaceTuple,
    dual_representation,
    validate_representation,
)

DEFAULT_CAP = 10 ** 8


def default_cap() -> int:
    """Default enumeration cap; QUIVERGRASS_CAP overrides."""
    raw = os.environ.get("QUIVERGRASS_CAP")
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return DEFAULT_CAP


@lru_cache(maxsize=None)
def gaussian_binomial(m: int, e: int, q: int) -> int:
    """Number of e-dimensional subspaces of F_q^m, as an exact integer.

    Zero outside 0 <= e <= m.  q = 1 is rejected: the classical binomial
    limit lives in the interpolation layer, not here.
    """
    if q == 1:
        raise DegenerateBase("Gaussian binomial is undefined at q = 1")
    if q < 1:
        raise ValueError("base must be a positive integer")
    if m < 0:
        raise ValueError("ambient dimension must be non-negative")
    if e < 0 or e > m:
        return 0
    num = den = 1
    for k in range(e):
        num *= q ** (m - k) - 1
        den *= q ** (k + 1) - 1
    assert num % den == 0
    return num // den


def _iter_rref(p: int, m: int, e: int, cols: Sequence = ()
               ) -> Iterator[tuple[tuple, tuple, tuple]]:
    """All e-dim subspaces of F_p^m as (rref rows, pivots, images), each once.

    Iterates over pivot-column sets, then over the free entries as an
    odometer.  cols holds one matrix per arrow as its tuple of columns, and
    images[k][r] is matrix k times row r, updated by one column per step.
    """
    if e < 0 or e > m:
        return
    for pivots in combinations(range(m), e):
        pivot_set = set(pivots)
        free = [(r, c) for r in range(e) for c in range(m)
                if c > pivots[r] and c not in pivot_set]
        rows = [[0] * m for _ in range(e)]
        for r, c in enumerate(pivots):
            rows[r][c] = 1
        images = [[col[c] for c in pivots] for col in cols]
        while True:
            yield tuple(map(tuple, rows)), pivots, tuple(map(tuple, images))
            for r, c in reversed(free):
                for img, col in zip(images, cols):
                    img[r] = tuple((a + b) % p for a, b in zip(img[r], col[c]))
                rows[r][c] = (rows[r][c] + 1) % p
                if rows[r][c]:
                    break
            else:
                break


def enumerate_subspaces(p: int, m: int, e: int) -> Iterator[tuple]:
    """Stream every e-dim subspace of F_p^m as its canonical RREF basis."""
    if not linalg.is_prime(p):
        raise DomainMismatch(f"{p} is not prime")
    if not 0 <= e <= m:
        raise ValueError(f"need 0 <= e <= m, got e={e}, m={m}")
    for rows, _, _ in _iter_rref(p, m, e):
        yield rows


def _iter_superspaces(p: int, m: int, e: int, srows: tuple, spivots: tuple,
                      cols: Sequence = ()) -> Iterator[tuple[tuple, tuple, tuple]]:
    """All e-dim subspaces of F_p^m containing the RREF span (srows, spivots).

    Superspaces correspond to (e - s)-dim subspaces of the complementary
    coordinate subspace on the non-pivot columns; each lift is inserted into
    the span's RREF.  The images (see `_iter_rref`) are those of the basis
    srows + lifted rows, which spans the same subspace.
    """
    if not srows:
        yield from _iter_rref(p, m, e, cols)
        return
    simages = [tuple(linalg.matvec_mod(tuple(zip(*col)), row, p) for row in srows)
               for col in cols]
    free_cols = [c for c in range(m) if c not in spivots]
    qcols = [tuple(col[c] for c in free_cols) for col in cols]
    for qrows, _, qimages in _iter_rref(p, m - len(srows), e - len(srows), qcols):
        rows, pivots = srows, spivots
        for qrow in qrows:
            lifted = [0] * m
            for c, val in zip(free_cols, qrow):
                lifted[c] = val
            rows, pivots = linalg.rref_insert(rows, pivots, lifted, p)
        yield rows, pivots, tuple(si + qi for si, qi in zip(simages, qimages))


@dataclass(frozen=True)
class PointCount:
    """Exact number of F_p-points of one quiver Grassmannian."""

    prime: int
    dim_vector: tuple[int, ...]
    count: int


class _Budget:
    __slots__ = ("cap", "used", "estimate")

    def __init__(self, cap: int, estimate: int):
        self.cap = cap
        self.used = 0
        self.estimate = estimate

    def tick(self):
        self.used += 1
        if self.used > self.cap:
            raise SearchTooLarge(self.estimate, self.cap, visited=self.used)


class _Route(NamedTuple):
    """Search order and arrow routing; they depend on the quiver alone."""

    order: tuple[int, ...]
    acyclic: bool
    out: tuple        # position -> indices of the arrows leaving order[pos]
    forced_in: tuple  # position -> (src position, k): k-th arrow out of src lands here
    checks: tuple     # position -> (k, tgt position): k-th arrow out lands here or earlier

    @property
    def searched(self) -> tuple[int, ...]:
        """Enumerated vertices: all but a final vertex with no arrows out."""
        return self.order if self.out[-1] else self.order[:-1]


@lru_cache(maxsize=256)
def _routing(quiver: Quiver) -> _Route:
    order = quiver.topological_order()
    acyclic = order is not None
    if order is None:
        order = tuple(range(quiver.n))
    pos = {v: i for i, v in enumerate(order)}
    out, forced_in, checks = ([[] for _ in order] for _ in range(3))
    for a, (s, t) in enumerate(quiver.arrows):
        sp, tp = pos[s], pos[t]
        if sp < tp:
            forced_in[tp].append((sp, len(out[sp])))
        else:
            checks[sp].append((len(out[sp]), tp))
        out[sp].append(a)
    return _Route(order, acyclic, *(tuple(map(tuple, lst)) for lst in (out, forced_in, checks)))


def _gauss_product(dims: Sequence[int], e: Sequence[int], p: int, vertices) -> int:
    return prod(gaussian_binomial(dims[v], e[v], p) for v in vertices)


class _SearchPlan:
    """Routing and image columns for one (representation, dimension vector) search.

    With backward=True the plan searches Gr_{d-e} of the dual representation,
    whose points correspond one-to-one to those of Gr_e(rep).
    """

    __slots__ = ("rep", "e", "p", "route", "cols")

    def __init__(self, rep: Representation, e: Sequence[int], backward: bool = False):
        validate_representation(rep)
        if rep.field is None:
            raise DomainMismatch("counting needs a prime-field representation")
        e = tuple(int(x) for x in e)
        if len(e) != rep.n or any(not 0 <= x <= d for x, d in zip(e, rep.dims)):
            raise ValueError(f"dimension vector {e} outside the box of {rep.dims}")
        if backward:
            rep = dual_representation(rep)
            e = tuple(d - x for d, x in zip(rep.dims, e))
        self.rep = rep
        self.e = e
        self.p = rep.field
        self.route = _routing(rep.quiver)
        self.cols = [tuple(tuple(tuple(row[c] for row in rep.matrices[a])
                                 for c in range(rep.dims[v])) for a in arrows)
                     for v, arrows in zip(self.route.order, self.route.out)]

    @classmethod
    def cheaper(cls, rep: Representation, e: Sequence[int]) -> "_SearchPlan":
        """The forward plan, or the backward one if it enumerates strictly fewer candidates."""
        forward = cls(rep, e)
        if forward.route.acyclic:
            dual_e = tuple(d - x for d, x in zip(rep.dims, forward.e))
            backward = _gauss_product(rep.dims, dual_e, forward.p,
                                      _routing(rep.quiver.opposite()).searched)
            if backward < forward.enumerated_estimate():
                return cls(rep, e, backward=True)
        return forward

    @property
    def shortcut(self) -> bool:
        """Whether the final vertex is counted in closed form, not enumerated."""
        return not self.route.out[-1]

    def product_estimate(self) -> int:
        return _gauss_product(self.rep.dims, self.e, self.p, range(self.rep.n))

    def enumerated_estimate(self) -> int:
        """Upper bound on candidates generated, accounting for the final shortcut."""
        return _gauss_product(self.rep.dims, self.e, self.p, self.route.searched)

    def forced_images(self, pos: int, chosen: list) -> Iterator[tuple]:
        """Images of the chosen earlier vertices under the arrows into order[pos]."""
        for src_pos, k in self.route.forced_in[pos]:
            yield from chosen[src_pos][2][k]

    def candidate_ok(self, pos: int, cand: tuple, chosen: list) -> bool:
        """Arrows from the candidate into itself or an earlier choice stay inside."""
        for k, tgt_pos in self.route.checks[pos]:
            rows, pivots, _ = cand if tgt_pos == pos else chosen[tgt_pos]
            if not all(linalg.in_span_mod(rows, pivots, w, self.p) for w in cand[2][k]):
                return False
        return True

    def walk(self, budget: _Budget, shortcut: bool) -> Iterator:
        """Run the search, ticking the budget once per generated candidate.

        With shortcut the final position is not enumerated: it ticks once and
        yields the rank of the span forced into it.  Otherwise it yields the
        stack of chosen (rows, pivots, images), one per position, at every
        point of the Grassmannian.
        """
        p, dims, e, order = self.p, self.rep.dims, self.e, self.route.order
        last = len(order) - 1
        chosen: list = []

        def rec(pos: int) -> Iterator:
            images = self.forced_images(pos, chosen)
            if shortcut and pos == last:
                budget.tick()
                yield linalg.rank_mod(images, p)
                return
            v = order[pos]
            srows, spivots = linalg.rref_mod(images, p)
            if len(srows) > e[v]:
                return
            for cand in _iter_superspaces(p, dims[v], e[v], srows, spivots, self.cols[pos]):
                budget.tick()
                if not self.candidate_ok(pos, cand, chosen):
                    continue
                chosen.append(cand)
                if pos == last:
                    yield chosen
                else:
                    yield from rec(pos + 1)
                chosen.pop()

        return rec(0)


def _final_counts(plan: _SearchPlan, budget: _Budget, values) -> list[int]:
    """Point counts for each value of the final vertex's coordinate, from one walk."""
    ranks = Counter(plan.walk(budget, shortcut=True))
    d = plan.rep.dims[plan.route.order[-1]]
    return [sum(n * gaussian_binomial(d - s, x - s, plan.p) for s, n in ranks.items())
            for x in values]


def _count(plan: _SearchPlan, budget: _Budget) -> int:
    if plan.shortcut:
        return _final_counts(plan, budget, [plan.e[plan.route.order[-1]]])[0]
    return sum(1 for _ in plan.walk(budget, shortcut=False))


def count_subreps(rep: Representation, e: Sequence[int],
                  cap: int | None = None) -> PointCount:
    """Exact number of subrepresentation tuples with the given dimension vector.

    The search runs in the cheaper direction (see the module docstring).
    The error payload of SearchTooLarge carries the product-of-Gaussian-
    binomials estimate; the cap itself bounds generated candidates so pruned
    searches far below the worst case still run.
    """
    e = tuple(int(x) for x in e)
    plan = _SearchPlan.cheaper(rep, e)
    cap = default_cap() if cap is None else int(cap)
    estimate = plan.product_estimate()
    if plan.enumerated_estimate() > cap:
        raise SearchTooLarge(estimate, cap)
    return PointCount(plan.p, e, _count(plan, _Budget(cap, estimate)))


def count_subreps_profile(rep: Representation, e_base: Sequence[int],
                          cap: int | None = None) -> dict[int, int] | None:
    """Counts for every value of the final search vertex's coordinate at once.

    e_base fixes the dimension vector at all vertices except the last one in
    the search order, whose entry is ignored; the returned dict maps each
    admissible value there to the exact point count.  One pass serves the
    whole fiber, which is what the generating-polynomial scan wants.
    Returns None when the final vertex carries constraints of its own
    (loops, cyclic fallback order), in which case callers count per vector.
    """
    e_base = [int(x) for x in e_base]
    final_vertex = _routing(rep.quiver).order[-1]
    e_base[final_vertex] = 0
    plan = _SearchPlan(rep, e_base)
    if not plan.shortcut:
        return None
    cap = default_cap() if cap is None else int(cap)
    d_final = rep.dims[final_vertex]
    fiber = sum(gaussian_binomial(d_final, v, plan.p) for v in range(d_final + 1))
    estimate = plan.enumerated_estimate() * fiber
    if plan.enumerated_estimate() > cap:
        raise SearchTooLarge(estimate, cap)
    values = range(d_final + 1)
    return dict(zip(values, _final_counts(plan, _Budget(cap, estimate), values)))


def box_prefers_dual(rep: Representation, p: int) -> bool:
    """Whether profiles over the whole box generate fewer candidates on the dual.

    Summed over the box, the fiber profiles enumerate every subspace of each
    searched vertex, and that total is the same for e and d - e.  Only
    acyclic quivers are searched backward; ties stay forward.
    """
    forward = _routing(rep.quiver)
    if not forward.acyclic:
        return False

    def cost(route: _Route) -> int:
        return prod(sum(gaussian_binomial(rep.dims[v], x, p) for x in range(rep.dims[v] + 1))
                    for v in route.searched)

    return cost(_routing(rep.quiver.opposite())) < cost(forward)


def iter_subrep_tuples(rep: Representation, e: Sequence[int],
                       cap: int | None = None) -> Iterator[SubspaceTuple]:
    """Stream every point of the quiver Grassmannian as a SubspaceTuple."""
    plan = _SearchPlan(rep, e)
    cap = default_cap() if cap is None else int(cap)
    estimate = plan.product_estimate()
    if estimate > cap:
        raise SearchTooLarge(estimate, cap)
    for chosen in plan.walk(_Budget(cap, estimate), shortcut=False):
        by_vertex = dict(zip(plan.route.order, chosen))
        yield SubspaceTuple(plan.p, tuple(by_vertex[v][0] for v in range(rep.n)))
