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
M* = `dual_representation(M)` lives on the opposite quiver.  `_count_many`
counts a set of dimension vectors and chooses once for the whole set: on an
acyclic quiver it searches M* at d - e when the walks the set needs there
have a strictly smaller summed estimate (the product of Gaussian binomials
over the searched vertices), and M otherwise.  This is the only place that
chooses a direction, and the only one that builds M*, when it wins.
`count_subreps` is the set of one e; `euler.iter_box_chi` passes, at each
prime, every e of the box that still needs a sample there.
`iter_subrep_tuples` searches forward, since it returns subspaces of M.

Incremental images: the echelon enumeration is an odometer over the free
entries that carries each basis row's image under every arrow out of the
vertex.  Stepping an entry by one, or wrapping it from p-1 to 0 (also +1 mod
p), adds one matrix column; forced spans, the final rank and the arrow
checks read these images instead of a matrix-vector product per row.

Blocks: setting the innermost free entry (r, c) to t moves only row r, whose
image under arrow k becomes a_k + t*b_k with b_k column c.  At the last
searched position of a shortcut walk, if it has no arrow checks, the p
candidates differing only there form one block: the span forced into the
final vertex is spanned by the images of earlier positions and of the fixed
rows, which do not move with t, and by that pencil.
`linalg.pencil_rank_histogram` ranks it for all t at once, the fixed images
passed as rows with b = 0: it peels off their span and the pencil rows that
fall into it, and only a block with three or more rows still moving works
on vectors of length p.

One walk per fiber: the shortcut walk fixes U at the searched vertices and
records how often each rank of forced span reaches the final vertex, which
settles every e that differs only at that vertex (one fiber).  A set count
walks each fiber it touches once; where the final vertex has arrows out
(a quiver with cycles) every e is a walk of its own.  The histogram is
memoized (bounded, least recently used evicted) on the searched
representation, the dimension vector with the final entry zeroed, and the
cap, so counts in one direction share walks across calls.  The memo is
read and written under a lock, the walk runs outside it.  Image columns are
built only when the memo misses.

The cap bounds the number of candidate subspaces one walk generates, so a
search that would hang turns into a SearchTooLarge error instead; its
estimate sums the products of Gaussian binomials (equal in either
direction) of the e's the walk serves.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Iterator, NamedTuple, Sequence

from . import linalg
from .errors import DegenerateBase, DomainMismatch, ParseError, SearchTooLarge
from .model import (
    Quiver,
    Representation,
    SubspaceTuple,
    _dual,
    validate_representation,
)

DEFAULT_CAP = 10 ** 8


def default_cap() -> int:
    """Default enumeration cap; QUIVERGRASS_CAP overrides.

    Raises ParseError when QUIVERGRASS_CAP is set to something other than a
    non-negative integer, rather than silently falling back to DEFAULT_CAP.
    """
    raw = os.environ.get("QUIVERGRASS_CAP")
    if not raw:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ParseError(f"QUIVERGRASS_CAP={raw!r} is not an integer") from exc
    if cap < 0:
        raise ParseError(f"QUIVERGRASS_CAP={raw!r} is negative")
    return cap


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


def _iter_rref(p: int, m: int, e: int, cols: Sequence = (), block: bool = False
               ) -> Iterator[tuple]:
    """All e-dim subspaces of F_p^m as (rref rows, pivots, images), each once.

    Iterates over pivot-column sets, then over the free entries as an
    odometer.  cols holds one matrix per arrow as its tuple of columns, and
    images[k][r] is matrix k times row r, updated by one column per step.

    With block=True the innermost free entry (r, c) stays 0 and each item,
    with (r, c) as a fourth entry, stands for the p subspaces that differ
    only there (see the module docstring); None stands for a block of one.
    """
    if e < 0 or e > m:
        return
    for pivots in combinations(range(m), e):
        pivot_set = set(pivots)
        free = [(r, c) for r in range(e) for c in range(m)
                if c > pivots[r] and c not in pivot_set]
        tail = (free.pop() if free else None,) if block else ()
        rows = [[0] * m for _ in range(e)]
        for r, c in enumerate(pivots):
            rows[r][c] = 1
        images = [[col[c] for c in pivots] for col in cols]
        while True:
            yield (tuple(map(tuple, rows)), pivots, tuple(map(tuple, images)), *tail)
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
                      cols: Sequence = (), block: bool = False) -> Iterator[tuple]:
    """All e-dim subspaces of F_p^m containing the RREF span (srows, spivots).

    Superspaces correspond to (e - s)-dim subspaces of the complementary
    coordinate subspace on the non-pivot columns; each lift is inserted into
    the span's RREF.  The images (see `_iter_rref`) are those of the basis
    srows + lifted rows, which spans the same subspace.  In block mode the
    step (r, c) indexes those images and the columns of F_p^m.
    """
    if not srows:
        yield from _iter_rref(p, m, e, cols, block)
        return
    s = len(srows)
    simages = [tuple(linalg.matvec_mod(tuple(zip(*col)), row, p) for row in srows)
               for col in cols]
    free_cols = [c for c in range(m) if c not in spivots]
    qcols = [tuple(col[c] for c in free_cols) for col in cols]
    for qrows, _, qimages, *tail in _iter_rref(p, m - s, e - s, qcols, block):
        rows, pivots = srows, spivots
        for qrow in qrows:
            lifted = [0] * m
            for c, val in zip(free_cols, qrow):
                lifted[c] = val
            rows, pivots = linalg.rref_insert(rows, pivots, lifted, p)
        if tail and tail[0]:
            r, c = tail[0]
            tail = [(s + r, free_cols[c])]
        yield (rows, pivots, tuple(si + qi for si, qi in zip(simages, qimages)), *tail)


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

    def tick(self, n: int = 1):
        """Charge n candidates; past the cap, report the first one over it."""
        self.used += n
        if self.used > self.cap:
            self.used = self.cap + 1
            raise SearchTooLarge(self.estimate, self.cap, visited=self.used)


class _Route(NamedTuple):
    """Search order and arrow routing; they depend on the quiver alone."""

    order: tuple[int, ...]
    acyclic: bool
    out: tuple        # position -> indices of the arrows leaving order[pos]
    forced_in: tuple  # position -> (src position, k): k-th arrow out of src lands here
    checks: tuple     # position -> (k, tgt position): k-th arrow out lands here or earlier

    @property
    def shortcut(self) -> bool:
        """Whether the final vertex is counted in closed form, not enumerated."""
        return not self.out[-1]

    @property
    def searched(self) -> tuple[int, ...]:
        """Enumerated vertices: all but a final vertex with no arrows out."""
        return self.order[:-1] if self.shortcut else self.order

    def fibers(self, es) -> dict[tuple, list]:
        """The walks that settle es: each walk's dimension vector -> its members.

        With the shortcut a walk ignores the final coordinate, so it is
        keyed with that entry zeroed; otherwise every e is a walk.
        """
        final = self.order[-1]
        walks: dict[tuple, list] = {}
        for e in es:
            key = e[:final] + (0,) + e[final + 1:] if self.shortcut else e
            walks.setdefault(key, []).append(e)
        return walks


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


@lru_cache(maxsize=256)
def _dual_routing(quiver: Quiver) -> _Route:
    """`_routing` of the opposite quiver, without building that quiver on every count."""
    return _routing(quiver.opposite())


def _gauss_product(dims: Sequence[int], e: Sequence[int], p: int, vertices) -> int:
    return prod(gaussian_binomial(dims[v], e[v], p) for v in vertices)


def _in_box(dims: Sequence[int], es) -> list[tuple[int, ...]]:
    """es as int tuples, each checked to lie in the box 0 <= e <= dims."""
    out = []
    for e in es:
        e = tuple(int(x) for x in e)
        if len(e) != len(dims) or any(not 0 <= x <= d for x, d in zip(e, dims)):
            raise ValueError(f"dimension vector {e} outside the box of {dims}")
        out.append(e)
    return out


def _checked(rep: Representation, es) -> list[tuple[int, ...]]:
    """Validate a prime-field representation and dimension vectors in its box."""
    validate_representation(rep)
    if rep.field is None:
        raise DomainMismatch("counting needs a prime-field representation")
    return _in_box(rep.dims, es)


def _columns(rep: Representation, route: _Route) -> list:
    """Per position, the matrices of the arrows out of it as tuples of columns."""
    mats = rep.matrices
    return [tuple(tuple(tuple(row[c] for row in mats[a]) for c in range(rep.dims[v]))
                  for a in arrows)
            for v, arrows in zip(route.order, route.out)]


def _walk(rep: Representation, e: tuple[int, ...], budget: _Budget,
          shortcut: bool) -> Iterator:
    """Search Gr_e(rep), ticking the budget once per generated candidate.

    rep and e are trusted, not validated; a backward search is a walk on
    the dual at d - e.  With shortcut the final position is not enumerated:
    it ticks once per arrival and the walk yields (rank of the span forced
    into it, multiplicity) pairs, by blocks where it can (module docstring).
    Otherwise it yields the stack of chosen (rows, pivots, images), one per
    position, at every point of the Grassmannian.
    """
    p, dims = rep.field, rep.dims
    route = _routing(rep.quiver)
    order, forced_in, checks = route.order, route.forced_in, route.checks
    cols = _columns(rep, route)
    last = len(order) - 1
    chosen: list = []

    def candidate_ok(pos: int, cand: tuple) -> bool:
        """Arrows from the candidate into itself or an earlier choice stay inside."""
        for k, tgt_pos in checks[pos]:
            rows, pivots, _ = cand if tgt_pos == pos else chosen[tgt_pos]
            if not all(linalg.in_span_mod(rows, pivots, w, p) for w in cand[2][k]):
                return False
        return True

    def blocks(pos: int, srows: tuple, spivots: tuple) -> Iterator:
        earlier = [w for src, k in forced_in[last] if src < pos for w in chosen[src][2][k]]
        v = order[pos]
        zero = (0,) * dims[order[last]]
        for _, _, images, step in _iter_superspaces(p, dims[v], e[v], srows, spivots,
                                                    cols[pos], block=True):
            r = step[0] if step else -1
            # per candidate, one tick for generating it and one at the final vertex
            budget.tick(2 * p if step else 2)
            fixed = earlier + [w for img in images for i, w in enumerate(img) if i != r]
            if step is None:
                yield linalg.rank_mod(fixed, p), 1
                continue
            a = fixed + [img[r] for img in images]
            b = [zero] * len(fixed) + [col[step[1]] for col in cols[pos]]
            yield from linalg.pencil_rank_histogram(a, b, p).items()

    def rec(pos: int) -> Iterator:
        # images of the chosen earlier vertices under the arrows into order[pos]
        images = [w for src_pos, k in forced_in[pos] for w in chosen[src_pos][2][k]]
        if shortcut and pos == last:
            budget.tick()
            yield linalg.rank_mod(images, p), 1
            return
        v = order[pos]
        srows, spivots = linalg.rref_mod(images, p)
        if len(srows) > e[v]:
            return
        if shortcut and pos == last - 1 and not checks[pos]:
            yield from blocks(pos, srows, spivots)
            return
        for cand in _iter_superspaces(p, dims[v], e[v], srows, spivots, cols[pos]):
            budget.tick()
            if not candidate_ok(pos, cand):
                continue
            chosen.append(cand)
            if pos == last:
                yield chosen
            else:
                yield from rec(pos + 1)
            chosen.pop()

    return rec(0)


# Rank histograms of finished shortcut walks, keyed by (searched representation,
# dimension vector with the final entry 0, cap); least recently used evicted first.
_WALKS: dict = {}
_WALKS_MAX = 256
_WALKS_LOCK = threading.Lock()


def _final_counts(rep: Representation, key: tuple[int, ...], budget: _Budget,
                  values) -> list[int]:
    """Point counts of Gr(rep) for each value of the final vertex's coordinate,
    from one shortcut walk at key, the dimension vector with that entry 0.

    The walk does not read the final coordinate, so every e in the fiber
    shares it; a memo hit ticks no budget.  A walk that runs out of budget
    raises before it is stored.
    """
    memo_key = (rep, key, budget.cap)
    with _WALKS_LOCK:
        ranks = _WALKS.pop(memo_key, None)
        if ranks is not None:
            _WALKS[memo_key] = ranks
    if ranks is None:
        hist: Counter = Counter()
        for s, n in _walk(rep, key, budget, shortcut=True):
            hist[s] += n
        ranks = tuple(hist.items())
        with _WALKS_LOCK:
            _WALKS[memo_key] = ranks
            if len(_WALKS) > _WALKS_MAX:
                del _WALKS[next(iter(_WALKS))]
    d = rep.dims[_routing(rep.quiver).order[-1]]
    return [sum(n * gaussian_binomial(d - s, x - s, rep.field) for s, n in ranks)
            for x in values]


def _count_many(rep: Representation, es: Sequence[tuple[int, ...]],
                cap: int | None = None) -> dict[tuple[int, ...], int]:
    """Exact point counts of Gr_e(rep) for every e in es, one walk per fiber.

    rep and es are trusted, as in `_walk`: rep is a valid prime-field
    representation and each e an int tuple in its box (`_checked` makes
    sure of both).  The whole set is searched in one direction (see the
    module docstring); the dual is built only when it is searched.  Every
    walk is checked against the cap before any runs; the payload of
    SearchTooLarge sums the products of Gaussian binomials of the e's that
    the failing walk serves.
    """
    cap = default_cap() if cap is None else int(cap)
    dims, p = rep.dims, rep.field

    def estimated(route: _Route, es) -> tuple[dict, dict]:
        """The walks for es and each walk's enumerated estimate."""
        walks = route.fibers(es)
        return walks, {key: _gauss_product(dims, key, p, route.searched) for key in walks}

    route = _routing(rep.quiver)
    searched = es
    walks, estimates = estimated(route, es)
    if route.acyclic:
        dual_es = [tuple(d - x for d, x in zip(dims, e)) for e in es]
        dual_route = _dual_routing(rep.quiver)
        dual_walks, dual_estimates = estimated(dual_route, dual_es)
        if sum(dual_estimates.values()) < sum(estimates.values()):
            rep = _dual(rep)
            route, searched, walks, estimates = dual_route, dual_es, dual_walks, dual_estimates
    payloads = {}
    for key, members in walks.items():
        payloads[key] = sum(_gauss_product(dims, e, p, range(rep.n)) for e in members)
        if estimates[key] > cap:
            raise SearchTooLarge(payloads[key], cap)
    final = route.order[-1]
    counts = {}
    for key, members in walks.items():
        budget = _Budget(cap, payloads[key])
        if route.shortcut:
            found = _final_counts(rep, key, budget, [e[final] for e in members])
        else:
            found = [sum(1 for _ in _walk(rep, key, budget, shortcut=False))]
        counts.update(zip(members, found))
    return {e: counts[s] for e, s in zip(es, searched)}


def count_subreps(rep: Representation, e: Sequence[int],
                  cap: int | None = None) -> PointCount:
    """Exact number of subrepresentation tuples with the given dimension vector.

    rep and e are validated here, since `_count_many` trusts them.  The
    search runs in the cheaper direction (see the module docstring).  The
    error payload of SearchTooLarge carries the product-of-Gaussian-
    binomials estimate; the cap itself bounds generated candidates so pruned
    searches far below the worst case still run.
    """
    (e,) = _checked(rep, [e])
    return PointCount(rep.field, e, _count_many(rep, [e], cap)[e])


def iter_subrep_tuples(rep: Representation, e: Sequence[int],
                       cap: int | None = None) -> Iterator[SubspaceTuple]:
    """Stream every point of the quiver Grassmannian as a SubspaceTuple."""
    (e,) = _checked(rep, [e])
    cap = default_cap() if cap is None else int(cap)
    estimate = _gauss_product(rep.dims, e, rep.field, range(rep.n))
    if estimate > cap:
        raise SearchTooLarge(estimate, cap)
    order = _routing(rep.quiver).order
    for chosen in _walk(rep, e, _Budget(cap, estimate), shortcut=False):
        by_vertex = dict(zip(order, chosen))
        yield SubspaceTuple(rep.field, tuple(by_vertex[v][0] for v in range(rep.n)))
