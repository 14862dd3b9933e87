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
M* = `dual_representation(M)` lives on the opposite quiver.  `_plan`
chooses once for a whole set of dimension vectors: on an acyclic quiver it
searches backward, M* at d - e, when the walks the set needs there have a
strictly smaller summed estimate at the prime of the reduction it is given
(the product of Gaussian binomials over the searched vertices), and
forward, M at e, otherwise.  This is the only place that chooses a
direction.  A set sampled at several primes is planned once, at its first
prime (`euler._settle`): each later prime walks the plan's walks of the
e's still pending, in the plan's direction, even where that subset alone
would be cheaper the other way, so every e takes the same walk at every
prime.  No dual is built: a backward walk runs on M itself along the
routing of the opposite quiver, and the columns of a transpose are the
rows of M's matrices.  `_count_planned` runs the walks of a plan and
returns, next to the counts, each walk's rank histogram, which the fiber
test of `euler` reads.  `_count_many` plans and counts one set at one
prime, and `count_subreps` is the set of one e.  `iter_subrep_tuples`
searches forward, since it returns subspaces of M.

Incremental images: the echelon enumeration is an odometer over the free
entries that carries each basis row's image under every arrow out of the
vertex.  Stepping an entry by one, or wrapping it from p-1 to 0 (also +1 mod
p), adds one matrix column; forced spans, the final rank and the arrow
checks read these images instead of a matrix-vector product per row.

Determined vertices: a vertex leaves no choice when e_v = d_v, where U_v is
F_p^{d_v} and its images are the matrix columns, or when the forced span
already has dimension e_v, where U_v is that span and its images come from
its RREF rows by one matrix-vector product each.  The walk takes such a
vertex directly, with no enumeration, and a run of them is a loop, not
nested generators; the arrow checks still run on the one candidate.  On
the Dynkin roots nearly every vertex is determined, many of them with
e_v = 0, so a walk there pays for its real choices only.  The budget is
charged as if the vertex were enumerated: one candidate, or two at the
last searched position of a shortcut walk, where the second comes from
the final vertex instead of from a block of one.

Blocks: setting the innermost free entry (r, c_t) to t moves only row r,
whose image under arrow k becomes a_k + t*b_k with b_k column c_t.  When the
next free entry (r, c_u) lies in the same row, setting it to u adds u*c_k,
c_k column c_u.  At the last searched position of a shortcut walk, if it
has no arrow checks, the p candidates differing only in t, or the p^2
differing in (t, u), form one block: the span forced into the final vertex
is spanned by the images of earlier positions and of the fixed rows, which
move with neither, and by that pencil or plane.  A last free entry alone
in its row (as in Gr(3, 4)) makes a pencil.
`linalg.pencil_rank_histogram` ranks a block for all its candidates at
once, the fixed images passed as rows with b = 0: it peels off their span
and the moving rows that fall into it once per block, finds the roots of
at most two moving rows in O(1) per u, and ranks each candidate of a block
with three or more rows still moving directly.  Every candidate is still
charged to the budget.

One walk per fiber: the shortcut walk fixes U at the searched vertices and
records how often each rank of forced span reaches the final vertex, which
settles every e that differs only at that vertex (one fiber).  A set count
walks each fiber it touches once; where the final vertex has arrows out
(a quiver with cycles) every e is a walk of its own.  The histogram is
memoized by `functools.lru_cache` (256 walks) on the representation, the
direction, the searched dimension vector with the final entry zeroed, and
the cap, so counts share walks across calls.  Image columns and the search
budget are made only when the memo misses.

The cap bounds the candidates one walk generates, so a search that would
hang raises SearchTooLarge instead.  A walk's estimate, the product of
Gaussian binomials over its searched vertices (equal in either direction),
is compared with the cap before it runs; `_too_large` reports that number
whether the walk is refused unwalked (visited None) or runs out of budget
(visited = cap + 1; the final-vertex ticks of a shortcut walk count too).
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
from .errors import DegenerateBase, DomainMismatch, ParseError, SearchTooLarge
from .model import MAX_PRIME, Quiver, Representation, SubspaceTuple, _as_int

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


def read_cap(cap) -> int:
    """The cap a library call runs under: default_cap() when cap is None,
    else cap itself, which must be a non-negative integer (ValueError)."""
    if cap is None:
        return default_cap()
    cap = _as_int(cap, "cap")
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    return cap


def gaussian_binomial(m: int, e: int, q: int) -> int:
    """Number of e-dimensional subspaces of F_q^m, as an exact integer.

    Zero outside 0 <= e <= m.  q = 1 is rejected: the classical binomial
    limit lives in the interpolation layer, not here.  Each argument must be
    an integer (ValueError), so the cache below only ever holds ints.
    """
    m, e, q = (_as_int(m, "ambient dimension"), _as_int(e, "subspace dimension"),
               _as_int(q, "base"))
    if q == 1:
        raise DegenerateBase("Gaussian binomial is undefined at q = 1")
    if q < 1:
        raise ValueError("base must be a positive integer")
    if m < 0:
        raise ValueError("ambient dimension must be non-negative")
    return _gaussian_binomial(m, e, q)


@lru_cache(maxsize=None)
def _gaussian_binomial(m: int, e: int, q: int) -> int:
    """`gaussian_binomial` for integers m >= 0 and q >= 2, unchecked; the
    counting paths call it directly."""
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

    With block=True the innermost free entry (r, c_t) stays 0, and so does
    the next one when it lies in the same row, (r, c_u).  Each item, with
    those steps as a fourth entry, stands for the p or p^2 subspaces that
    differ only there (see the module docstring); () is a block of one.
    Callers keep 0 <= e <= m.
    """
    for pivots in combinations(range(m), e):
        pivot_set = set(pivots)
        free = [(r, c) for r in range(e) for c in range(m)
                if c > pivots[r] and c not in pivot_set]
        steps = ()
        if block and free:
            steps = (free.pop(),)
            if free and free[-1][0] == steps[0][0]:
                steps += (free.pop(),)
        tail = (steps,) if block else ()
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
    if p >= MAX_PRIME or not linalg.is_prime(p):
        raise DomainMismatch(f"{p} is not a prime below 2^31")
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
    srows + lifted rows, which spans the same subspace.  In block mode each
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
        if tail:
            tail = [tuple((s + r, free_cols[c]) for r, c in tail[0])]
        yield (rows, pivots, tuple(si + qi for si, qi in zip(simages, qimages)), *tail)


@dataclass(frozen=True)
class PointCount:
    """Exact number of F_p-points of one quiver Grassmannian."""

    prime: int
    dim_vector: tuple[int, ...]
    count: int


class _OverCap(Exception):
    """A walk generated more candidates than its budget's cap."""


class _Budget:
    __slots__ = ("cap", "used")

    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def tick(self, n: int = 1):
        """Charge n candidates; past the cap, stop the walk at the first one
        over it (the caller, which knows the e's the walk serves, reports it)."""
        self.used += n
        if self.used > self.cap:
            self.used = self.cap + 1
            raise _OverCap


class _Route(NamedTuple):
    """Search order and arrow routing; they depend on the quiver alone."""

    order: tuple[int, ...]
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


@lru_cache(maxsize=256)
def _routing(quiver: Quiver) -> _Route:
    order = quiver.topological_order() or tuple(range(quiver.n))
    pos = {v: i for i, v in enumerate(order)}
    out, forced_in, checks = ([[] for _ in order] for _ in range(3))
    for a, (s, t) in enumerate(quiver.arrows):
        sp, tp = pos[s], pos[t]
        if sp < tp:
            forced_in[tp].append((sp, len(out[sp])))
        else:
            checks[sp].append((len(out[sp]), tp))
        out[sp].append(a)
    return _Route(order, *(tuple(map(tuple, lst)) for lst in (out, forced_in, checks)))


@lru_cache(maxsize=256)
def _dual_routing(quiver: Quiver) -> _Route:
    """`_routing` of the opposite quiver, without building that quiver on every count."""
    return _routing(quiver.opposite())


def _gauss_product(dims: Sequence[int], e: Sequence[int], p: int, vertices) -> int:
    return prod(_gaussian_binomial(dims[v], e[v], p) for v in vertices)


def _in_box(dims: Sequence[int], es) -> list[tuple[int, ...]]:
    """es as int tuples, each checked to lie in the box 0 <= e <= dims."""
    out = []
    for e in es:
        e = tuple(_as_int(x, "dimension vector entry") for x in e)
        if len(e) != len(dims) or any(not 0 <= x <= d for x, d in zip(e, dims)):
            raise ValueError(f"dimension vector {e} outside the box of {dims}")
        out.append(e)
    return out


def _checked(rep: Representation, es) -> list[tuple[int, ...]]:
    """Check that rep is over a prime field and that es lie in its box."""
    if rep.field is None:
        raise DomainMismatch("counting needs a prime-field representation")
    return _in_box(rep.dims, es)


def _columns(rep: Representation, route: _Route, backward: bool) -> list:
    """Per position, the matrices of the arrows out of it as tuples of columns;
    backward they are transposes, whose columns are the rows of rep's."""
    mats = rep.matrices
    if backward:
        return [tuple(mats[a] for a in arrows) for arrows in route.out]
    # a matrix with no rows has d_v empty columns
    return [tuple(tuple(zip(*mats[a])) or ((),) * rep.dims[v] for a in arrows)
            for v, arrows in zip(route.order, route.out)]


def _walk(rep: Representation, e: tuple[int, ...], budget: _Budget,
          shortcut: bool, backward: bool = False) -> Iterator:
    """Search Gr_e(rep), or Gr_e(rep*) when backward, ticking the budget once
    per generated candidate.

    rep's prime field and e's box are trusted (`_checked`); a backward
    search walks rep along the routing of the opposite quiver, with e the
    dual's dimension vector.  With shortcut the final position is not
    enumerated: it ticks once per arrival and the walk yields (rank of the
    span forced into it, multiplicity) pairs, by blocks where it can
    (module docstring).
    Otherwise it yields the stack of chosen (rows, pivots, images), one per
    position, at every point of the Grassmannian.
    """
    p, dims = rep.field, rep.dims
    route = (_dual_routing if backward else _routing)(rep.quiver)
    order, forced_in, checks = route.order, route.forced_in, route.checks
    cols = _columns(rep, route, backward)
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
        for _, _, images, steps in _iter_superspaces(p, dims[v], e[v], srows, spivots,
                                                     cols[pos], block=True):
            r = steps[0][0] if steps else -1
            # per candidate, one tick for generating it and one at the final vertex
            budget.tick(2 * p ** len(steps))
            fixed = earlier + [w for img in images for i, w in enumerate(img) if i != r]
            if not steps:
                yield linalg.rank_mod(fixed, p), 1
                continue
            a = fixed + [img[r] for img in images]
            b, *c = ([zero] * len(fixed) + [col[step[1]] for col in cols[pos]]
                     for step in steps)
            yield from linalg.pencil_rank_histogram(a, b, p, *c).items()

    def rec(pos: int) -> Iterator:
        # determined positions, one candidate each, run as a loop; a position
        # with a real choice enumerates it and recurses
        base = pos
        while True:
            # images of the chosen earlier vertices under the arrows into order[pos]
            images = [w for src_pos, k in forced_in[pos] for w in chosen[src_pos][2][k]]
            if shortcut and pos == last:
                budget.tick()
                yield linalg.rank_mod(images, p), 1
                break
            v = order[pos]
            if e[v] == dims[v]:  # U_v is all of F_p^{d_v}: its images are the columns
                m = dims[v]
                cand = (tuple(tuple(int(i == j) for j in range(m)) for i in range(m)),
                        tuple(range(m)), cols[pos])
            else:
                srows, spivots = linalg.rref_mod(images, p)
                if len(srows) > e[v]:
                    break
                if len(srows) < e[v]:
                    if shortcut and pos == last - 1 and not checks[pos]:
                        yield from blocks(pos, srows, spivots)
                        break
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
                    break
                # U_v is the forced span
                cand = (srows, spivots, tuple(
                    tuple(linalg.matvec_mod(zip(*col), row, p) for row in srows)
                    for col in cols[pos]))
            # the one candidate; at the block position its second tick comes
            # from the final position, as the block charges it
            budget.tick()
            if not candidate_ok(pos, cand):
                break
            chosen.append(cand)
            if pos == last:
                yield chosen
                break
            pos += 1
        del chosen[base:]

    return rec(0)


@lru_cache(maxsize=256)
def _final_ranks(rep: Representation, backward: bool, key: tuple[int, ...], cap: int
                 ) -> tuple[tuple[int, int], ...]:
    """(rank of the span forced into the final vertex, multiplicity) pairs of
    one shortcut walk of rep in the given direction at key, the searched
    dimension vector with that entry 0.

    The walk does not read the final coordinate, so every e in the fiber
    shares it; a memo hit makes no budget.  A walk that runs out of budget
    raises, and lru_cache stores no result for it.
    """
    hist: Counter = Counter()
    for s, n in _walk(rep, key, _Budget(cap), shortcut=True, backward=backward):
        hist[s] += n
    return tuple(hist.items())


def _fiber_count(ranks, d: int, x: int, q: int) -> int:
    """Points with final coordinate x over F_q, from (forced rank k, N_k) pairs:
    sum_k N_k * binom_q(d - k, x - k), d the final vertex's dimension."""
    return sum(n * _gaussian_binomial(d - k, x - k, q) for k, n in ranks)


class _Plan(NamedTuple):
    """How one set of dimension vectors is searched: the direction, chosen
    once for the set, and the walk of each e.

    backward tells whether the set is searched on the dual at d - e, along
    route.  entry maps each given e to its walk's key and its searched
    entry at the final vertex; under the shortcut the key is the searched
    dimension vector with that entry 0, shared by the e's of one fiber,
    and otherwise it is the whole searched vector.
    """

    route: _Route
    backward: bool
    entry: dict


def _plan(rep: Representation, es: Sequence[tuple[int, ...]]) -> _Plan:
    """The plan for es at rep's prime: backward when the walks the set needs
    on the dual have a strictly smaller summed estimate, on an acyclic
    quiver, else forward (module docstring).  rep's field and es's box are
    trusted, as in `_walk`."""
    dims, p = rep.dims, rep.field

    def planned(route: _Route, backward: bool) -> tuple[_Plan, int]:
        final, entry = route.order[-1], {}
        for e in es:
            s = tuple(d - x for d, x in zip(dims, e)) if backward else e
            entry[e] = (s[:final] + (0,) + s[final + 1:] if route.shortcut else s, s[final])
        keys = dict.fromkeys(key for key, _ in entry.values())
        return _Plan(route, backward, entry), sum(_gauss_product(dims, key, p, route.searched)
                                                  for key in keys)

    plan, estimate = planned(_routing(rep.quiver), False)
    if rep.quiver.is_acyclic:
        dual, dual_estimate = planned(_dual_routing(rep.quiver), True)
        if dual_estimate < estimate:
            return dual
    return plan


def _too_large(rep: Representation, key: tuple[int, ...], vertices, cap: int, es,
               visited: int | None = None) -> SearchTooLarge:
    """The refusal of the walk of rep at key over vertices, serving es (named
    as given): its estimate is the product the cap was compared with before
    the walk ran, and visited is cap + 1 when it ran out of budget."""
    plural = "s" if len(es) > 1 else ""
    return SearchTooLarge(_gauss_product(rep.dims, key, rep.field, vertices), cap, visited,
                          f"p = {rep.field}, dimension vector{plural} {', '.join(map(str, es))}")


def _count_planned(rep: Representation, plan: _Plan, es: Sequence[tuple[int, ...]],
                   cap: int) -> tuple[dict, dict]:
    """Exact point counts of Gr_e(rep) for every e in es, by the walks of
    the plan that es need: (e -> count, walk key -> result), the result
    being the walk's rank histogram (`_final_ranks`) under the shortcut and
    the count otherwise.

    Every walk is checked against the cap before any runs; a refused walk
    raises `_too_large` with the e's of es it serves, whichever direction
    is searched.
    """
    dims, p = rep.dims, rep.field
    route, backward, entry = plan
    walks: dict[tuple, list] = {}
    for e in es:
        walks.setdefault(entry[e][0], []).append(e)
    for key, members in walks.items():
        if _gauss_product(dims, key, p, route.searched) > cap:
            raise _too_large(rep, key, route.searched, cap, members)
    walked = {}
    for key, members in walks.items():
        try:
            walked[key] = (_final_ranks(rep, backward, key, cap) if route.shortcut
                           else sum(1 for _ in _walk(rep, key, _Budget(cap),
                                                     shortcut=False, backward=backward)))
        except _OverCap:
            raise _too_large(rep, key, route.searched, cap, members, cap + 1) from None
    d, counts = dims[route.order[-1]], {}
    for e in es:
        key, x = entry[e]
        counts[e] = _fiber_count(walked[key], d, x, p) if route.shortcut else walked[key]
    return counts, walked


def _count_many(rep: Representation, es: Sequence[tuple[int, ...]],
                cap: int | None = None) -> dict[tuple[int, ...], int]:
    """Exact point counts of Gr_e(rep) for every e in es, one walk per fiber:
    the set's plan (`_plan`), counted at once (`_count_planned`).

    rep and es are trusted, as in `_walk`: rep is over a prime field and
    each e an int tuple in its box (`_checked` makes sure of both).
    """
    cap = read_cap(cap)
    return _count_planned(rep, _plan(rep, es), es, cap)[0]


def count_subreps(rep: Representation, e: Sequence[int],
                  cap: int | None = None) -> PointCount:
    """Exact number of subrepresentation tuples with the given dimension vector.

    rep's field and e's box are checked here, since `_count_many` trusts
    them.  The search runs in the cheaper direction, and the cap bounds the
    candidates it generates (see the module docstring).
    """
    (e,) = _checked(rep, [e])
    return PointCount(rep.field, e, _count_many(rep, [e], cap)[e])


def iter_subrep_tuples(rep: Representation, e: Sequence[int],
                       cap: int | None = None) -> Iterator[SubspaceTuple]:
    """Stream every point of the quiver Grassmannian as a SubspaceTuple."""
    (e,) = _checked(rep, [e])
    cap = read_cap(cap)
    if _gauss_product(rep.dims, e, rep.field, range(rep.n)) > cap:
        raise _too_large(rep, e, range(rep.n), cap, [e])
    order = _routing(rep.quiver).order
    try:
        for chosen in _walk(rep, e, _Budget(cap), shortcut=False):
            by_vertex = dict(zip(order, chosen))
            yield SubspaceTuple(rep.field, tuple(by_vertex[v][0] for v in range(rep.n)))
    except _OverCap:
        raise _too_large(rep, e, range(rep.n), cap, [e], cap + 1) from None
