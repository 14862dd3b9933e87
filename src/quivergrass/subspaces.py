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
chooses for a whole set of dimension vectors at the prime of the reduction
it is given, from each direction's summed estimate: the product of
Gaussian binomials over the searched vertices, summed over the walks the
set needs.  The set searches backward, M* at d - e, when that sum is
strictly smaller there (the quiver then being acyclic), and forward, M at
e, when it is strictly smaller on M or the quiver has cycles.  On a tie
each e takes its own walk: the one with fewer candidates, then the one
with fewer blocks, then forward.  Blocks are what the walk ranks: the
items `_iter_rref(block=True)` yields at the last searched vertex (a rank,
a pencil, a plane or a row family each), times the Gaussian binomials of
the earlier searched vertices, a whole vertex (below) counting as its
blocks.  One e ties exactly when its own two estimates do, so it meets
the same order, and on a square Kronecker
module the whole box ties, so the box and each e alone take the same walks
and share the memo.  Forward can be the costly side of a tie: reg(6, 1) at
(5, 5) has 1 + 1 + p + ... + p^4 blocks forward, and 6 by the dual.  No
e's walk has a larger estimate than its forward one at a tie, so the cap
refuses nothing there that a forward walk would run.  This is the only
place that chooses a direction.  A set sampled at several primes is
planned once, at its first prime (`euler._settle`): each later prime walks
the plan's walks of the e's still pending, in their planned directions,
even where that subset alone would be cheaper otherwise, so every e takes
the same walk at every prime.  No dual is built: a backward walk runs on M
itself along the routing of the opposite quiver (`_routing(quiver, True)`,
which `euler`'s bounds read too), and the columns of a transpose are the
rows of M's matrices.  `_count_planned` runs the walks of a plan and
returns, next to the counts, each walk's rank histogram, which the fiber
test of `euler` reads.  `_count_many` plans and counts one set at one
prime, and `count_subreps` is the set of one e.
`iter_subrep_tuples` searches forward, since it returns subspaces of M.

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
e_v = 0, so a walk there pays for its real choices only.

Blocks: at the last searched position of a shortcut walk, if it has no
arrow checks and is not a whole vertex (below), the walk counts the final
vertex by row families: more than two arrows leave it, or the candidate
leaves 2 <= n <= m - 2 rows free (n and m as there).  The f free
entries (r, c_1), ..., (r, c_f) of the last echelon row r that has any move
only row r: set to s in F_p^f, they make its image under arrow i
R_i(s) = a_i + sum_j s_j g_ij, g_ij column c_j.  The span forced into the
final vertex is spanned by the images of earlier positions and of the fixed
rows, which move with none of them, and by these k moving images, k the
number of arrows out.  So the p^f candidates that differ only in s form one
family, and `_iter_rref(block=True)` yields one per state of the other
entries: the whole row when k <= 2, and otherwise its last entry t, with
the one before it, u, when the row has both (the cost rule, next
paragraph).  f = 0 is a family of one, ranked directly; f = 1 is a pencil
a + t*b, and f = 2 a plane a + t*b + u*c.  `linalg.pencil_rank_histogram`
ranks a pencil or plane for all its candidates at once, the fixed images
passed as rows with b = 0: it peels off their span and the moving rows that
fall into it once per block, with nothing left to rank once that span fills
the final vertex, and ranks directly only the candidates where the
determinant of the s rows still moving, monic in t, vanishes.  Its roots
are found by evaluating it at every t in F_p, per u: from two closed-form
coefficients for s = 2, and from one characteristic polynomial otherwise.

Row families: let C be the span of the fixed images.  The rank of the
forced span is dim C + k - dim K(s), where K(s) = {alpha in F_p^k :
sum_i alpha_i R_i(s) in C}.  A subspace W of F_p^k lies in K(s) exactly
when s solves one affine system, the conditions sum_i alpha_i R_i(s) in C
for the basis rows alpha of W read off modulo C, so #{s : W in K(s)} is 0
or p^(f - rank).  Summed over W in Gr(j, k) these give
S_j = sum_s binom_p(dim K(s), j), and q-binomial inversion gives the number
N_d of s with dim K(s) = d (`_inverted`):
N_d = sum_{j >= d} (-1)^(j-d) p^((j-d)(j-d-1)/2) binom_p(j, d) S_j.  For
k = 2 that is N_2 = S_2, N_1 = S_1 - (p + 1) S_2 and N_0 = p^f - N_1 - N_2:
p + 2 small eliminations (p + 1 lines and the plane) for p^f candidates,
whatever f is, where blocks would take p^(f-2) planes; `_family_ranks`
counts every family of f >= 3 this way.  The cost rule keeps k >= 3 on
planes, where the systems, one per subspace of F_p^k (2p^2 + 2p + 3 for
k = 3), outnumber the p^(f-2) planes for f <= 4.

Whole vertex: the last searched position of a shortcut walk, with no arrow
checks and at most two arrows into the final vertex, is counted at once
(`_whole_ranks`) when the candidate leaves one row free (n = e_v - s = 1)
or one row short (n = m - 1), with m = d_v - s.  S is v's forced span, of
dimension s, and Q = F_p^{d_v}/S has the unit vectors off S's pivots as
its basis.  C is the span of the earlier images in the final vertex and
of the images of S, and psi_1, psi_2 are v's arrows into the final vertex
taken modulo C; a missing arrow is the zero map, so k = 0, 1 and 2 share
one route.  A candidate U with U/S = H forces the rank
dim C + dim(psi_1 H + psi_2 H).  Lines, H = <w>: the rank is
dim C + 2 - dim K(w), where K(w) = {beta in F_p^2 : beta_1 psi_1 w +
beta_2 psi_2 w = 0}.  For W in F_p^2, the w with W in K(w) form the kernel
of psi_W, so S_1, the sum of binom_p(dim K(w), 1) over the [m]_p lines,
is the sum over t of #lines(ker(psi_1 + t psi_2)), one pencil of the m
image rows, plus #lines(ker psi_2), one rank, #lines(X) being
[dim X]_p; S_2 = #lines(ker psi_1 cap ker psi_2) needs the rank of the
concatenated rows (psi_1 e_c | psi_2 e_c), not of their union.
Hyperplanes, H = ker lambda: let
Z = ker(Psi: Q^2 -> F_p^{d_f}/C, (x, y) -> psi_1 x + psi_2 y), whose
basis `linalg.kernel` reads off one `linalg.gauss_jordan` of the
d_f x 2m matrix, one vector per non-lead column.  Then
dim(psi_1 H + psi_2 H) = 2(m - 1) - dim(Z cap H^2) = rank Psi -
dim K'(lambda), where K'(lambda) = {beta :
lambda vanishes on Z_beta} and Z_beta = {beta_1 x + beta_2 y : (x, y) in
Z}, so S_1 needs one pencil over the two halves of Z's basis and the rank
of the second half, and S_2 the rank of the union of both halves.  The
inversion of row families (`_inverted`, with S_0 = [m]_p) gives
N_2 = S_2, N_1 = S_1 - (p + 1) S_2 and N_0 = [m]_p - N_1 - N_2, and the
rank is top - d, with top = dim C + 2 for lines and dim C + rank Psi for
hyperplanes.  One pencil and two ranks replace the m pivot blocks.

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
hang raises SearchTooLarge instead.  One rule charges the budget: each
searched position its candidate count binom_p(d_v - s, e_v - s), once, as
the walk enters it, and the final vertex of a shortcut walk one per
arrival.  A determined vertex is charged 1, and a block position (a
whole vertex, blocks or row families) twice its count, since its
candidates' final arrivals are counted there.  However a position ranks
its candidates, it pays as a candidate-by-candidate walk would.  A walk's
estimate, the product of Gaussian binomials over its searched vertices
(equal in either direction), is compared with the cap before it runs;
`_too_large` is handed that number whether the walk is refused unwalked
(visited None) or runs out of budget (visited = cap + 1).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import prod
from operator import itemgetter, mul
from typing import Iterator, NamedTuple, Sequence

from . import linalg
from .errors import DegenerateBase, DomainMismatch, ParseError, SearchTooLarge
from .model import Quiver, Representation, SubspaceTuple, _as_int

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


def _free_entries(m: int, pivots: tuple, arrows: int | None = None) -> tuple[list, tuple]:
    """(free, steps): the free entries (r, c) of the RREF rows with these
    pivots in F_p^m, row by row, and, given the number of arrows, the row
    family split off their end: the free entries of the last row that has
    any, all of them under at most two arrows and at most the last two
    under more (the cost rule of the module docstring).  steps is () when
    arrows is None or nothing is free."""
    pivot_set = set(pivots)
    free = [(r, c) for r, lead in enumerate(pivots) for c in range(lead + 1, m)
            if c not in pivot_set]
    if arrows is None or not free:
        return free, ()
    at = bisect_left(free, (free[-1][0],))
    if arrows > 2:
        at = max(at, len(free) - 2)
    return free[:at], tuple(free[at:])


@lru_cache(maxsize=256)
def _block_count(p: int, m: int, e: int, arrows: int) -> int:
    """How many items `_iter_rref(block=True)` yields for Gr(e, m) over F_p
    under that many arrows: p^(free entries outside the row family) per
    pivot set, summed in closed form.  `_plan` breaks ties by this count
    even where the walk ranks the vertex whole, as one pencil and two ranks,
    and before the cap is compared, so it must not enumerate.

    With n = m - e, row r of the pivots c_0 < ... < c_{e-1} has g_r = c_r - r
    non-pivot columns before its lead and n - g_r free entries, and g is
    non-decreasing in [0, n].  One pivot set, the last e columns, has none
    free.  Otherwise the family is the last row j with f = n - g_j > 0 free
    entries (rows after it have none), and the rows before it have
    g_0 <= ... <= g_{j-1} <= n - f: their free entries are j f plus the
    parts n - f - g_r of a partition in a j x (n - f) box, and p^(size)
    summed over that box is binom_p(j + n - f, j).  So the count is
    1 + sum_{j < e} sum_{f = 1..n} p^(j f) binom_p(j + n - f, j), with each
    term times p^max(0, f - 2) under more than two arrows, where the family
    keeps only the row's last two entries."""
    n = m - e
    return 1 + sum(p ** (j * f + (max(0, f - 2) if arrows > 2 else 0))
                   * _gaussian_binomial(j + n - f, j, p)
                   for j in range(e) for f in range(1, n + 1))


def _iter_rref(p: int, m: int, e: int, cols: Sequence = (), block: bool = False
               ) -> Iterator[tuple]:
    """All e-dim subspaces of F_p^m as (rref rows, pivots, images), each once.

    Iterates over pivot-column sets, then over the free entries as an
    odometer.  cols holds one matrix per arrow as its tuple of columns, and
    images[k][r] is matrix k times row r, updated by one column per step.

    With block=True the free entries of the row family (`_free_entries`)
    stay 0.  Each item, with those steps as a fourth entry, stands for the
    p^f subspaces that differ only there, f the number of steps; () is a
    family of one.
    Callers keep 0 <= e <= m.
    """
    for pivots in combinations(range(m), e):
        free, steps = _free_entries(m, pivots, len(cols) if block else None)
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


def _images(rows: Sequence, cols: Sequence, p: int) -> tuple:
    """Per arrow, given as its tuple of columns, the images of rows: the
    layout of `_iter_rref`'s images.  Each matrix is rebuilt from its
    columns once, and not at all for no rows."""
    if not rows:
        return ((),) * len(cols)
    return tuple(tuple(linalg.matvec_mod(mat, row, p) for row in rows)
                 for mat in [tuple(zip(*col)) for col in cols])


def _iter_superspaces(p: int, m: int, e: int, srows: tuple, spivots: tuple,
                      cols: Sequence = (), block: bool = False) -> Iterator[tuple]:
    """All e-dim subspaces of F_p^m containing the RREF span (srows, spivots).

    Superspaces correspond to (e - s)-dim subspaces of the complementary
    coordinate subspace on the non-pivot columns.  Each comes back as the
    span's rows followed by the lifted quotient rows, with pivots spivots
    and then the lifted quotient pivots, and with the images (see
    `_iter_rref`) of exactly those rows.  That basis is not an RREF, but
    `linalg.in_span_mod` is exact on it: reducing by the span's rows clears
    the span's pivots, and the lifted rows, which vanish there and at each
    other's pivots, then clear their own, so a vector of the subspace
    leaves nothing.  In block mode each step (r, c) indexes those images
    and the columns of F_p^m.
    """
    if not srows:
        yield from _iter_rref(p, m, e, cols, block)
        return
    s = len(srows)
    simages = _images(srows, cols, p)
    free_cols = [c for c in range(m) if c not in spivots]
    qcols = [tuple(col[c] for c in free_cols) for col in cols]
    # a quotient row with a 0 appended, read at free_cols' places and at the
    # 0 elsewhere; a lift needs m >= 2, so the getter returns a tuple
    lift = itemgetter(*(free_cols.index(c) if c in free_cols else m - s for c in range(m)))
    for qrows, qpivots, qimages, *tail in _iter_rref(p, m - s, e - s, qcols, block):
        if tail:
            tail = [tuple((s + r, free_cols[c]) for r, c in tail[0])]
        yield (srows + tuple(lift(qrow + (0,)) for qrow in qrows),
               spivots + tuple(free_cols[c] for c in qpivots),
               tuple(si + qi for si, qi in zip(simages, qimages)), *tail)


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
        """Charge n candidates, a whole position's at once (`_walk`); past
        the cap, stop the walk before it generates them (the caller, which
        knows the e's the walk serves, reports it)."""
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
def _routing(quiver: Quiver, backward: bool = False) -> _Route:
    """The route on quiver, or on its opposite when backward; the package's
    callers always pass backward: one cache key per quiver and direction."""
    if backward:
        quiver = quiver.opposite()
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


def _solutions(system: list, f: int, p: int) -> int:
    """Solutions s in F_p^f of the affine system whose rows hold the
    coefficients of s and then the constant: p^(f - rank), or 0 when a row
    reduces to a nonzero constant.  The forward elimination of
    `linalg.rank_mod`, written out here because it stops at the first such
    row: on the Kronecker boxes most systems are inconsistent (94 % of the
    147,770 that `f_polynomial(pr(6))` hands it at (2, 3), (2, 4), (3, 3)
    and (3, 4)), and `linalg._forward` would eliminate each to the end."""
    basis: list = []
    for v in system:
        for lead, row in basis:
            c = v[lead]
            if c:
                h = row[lead]
                v = [(h * x - c * y) % p for x, y in zip(v, row)]
        for lead, x in enumerate(v):
            if x:
                if lead == f:
                    return 0
                basis.append((lead, v))
                break
    return p ** (f - len(basis))


@lru_cache(maxsize=256)
def _inversion(k: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Row d, for 0 <= d <= k: the coefficients (-1)^i p^(i(i-1)/2)
    binom_p(d + i, d) of S_d, ..., S_k in N_d (`_inverted`), worked out
    once per (k, p)."""
    return tuple(tuple((-1) ** i * p ** (i * (i - 1) // 2) * _gaussian_binomial(d + i, d, p)
                       for i in range(k + 1 - d)) for d in range(k + 1))


def _inverted(sums: Sequence[int], top: int, p: int) -> dict[int, int]:
    """{top - d: N_d} for the N_d nonzero, by q-binomial inversion of
    S_j = sum_d binom_p(d, j) N_d, sums[j] = S_j for 0 <= j <= k (module
    docstring): N_d = sum_{j >= d} (-1)^(j-d) p^((j-d)(j-d-1)/2)
    binom_p(j, d) S_j, and a family or vertex whose K has dimension d
    forces the rank top - d."""
    hist = {}
    for d, row in enumerate(_inversion(len(sums) - 1, p)):
        if n := sum(map(mul, row, sums[d:])):
            hist[top - d] = n
    return hist


def _family_ranks(fixed: list, a: list, g: list, p: int) -> dict[int, int]:
    """How many s in F_p^f give each rank of the span of the fixed rows and
    the k rows R_i(s) = a_i + sum_j s_j g[j][i], by relation systems (module
    docstring): S_j counts the pairs (s, W), W in Gr(j, k) inside K(s), one
    `_solutions` per W, and `_inverted` turns S_0 = p^f, ..., S_k into the
    number of s at each rank dim C + k - dim K(s)."""
    rows, pivots = linalg.rref_mod(fixed, p)
    k, f = len(a), len(g)
    # per arrow i, R_i(s) in C as equations: one per coordinate off C's
    # pivots, the coefficients of s and then the constant
    eqs = []
    for vecs in zip(*g, a):
        res = [linalg.reduce_mod(x, rows, pivots, p) for x in vecs]
        eqs.append([[x[n] for x in res] for n in range(len(res[0])) if n not in pivots])
    sums = [p ** f]
    for j in range(1, k + 1):
        total = 0
        for w, _, _ in _iter_rref(p, k, j):
            system = []
            for alpha in w:  # sum_i alpha_i R_i(s) in C; alpha leads with a 1
                combo = None
                for c, eq in zip(alpha, eqs):
                    if c:
                        combo = eq if combo is None else [
                            [(x + c * y) % p for x, y in zip(u, v)] for u, v in zip(combo, eq)]
                system += combo
            total += _solutions(system, f, p)
        sums.append(total)
    return _inverted(sums, len(rows) + k, p)


def _whole_ranks(fixed: list, a: list, b: list, n: int, p: int) -> dict[int, int]:
    """How many n-dim subspaces H of F_p^m, n = 1 or m - 1, give each rank of
    the span of the fixed rows and the images of H under two maps, the m
    rows a and b being the images of the unit vectors: a whole vertex,
    counted by one pencil and two ranks (module docstring).  For
    hyperplanes, Z = ker Psi has the basis `linalg.kernel` reads off one
    `linalg.gauss_jordan` of the d_f x 2m matrix of Psi, taken mod p, and
    rank Psi is its number of leads; `_inverted` turns S_0 = [m]_p, S_1
    and S_2 into the rank histogram."""
    rows, pivots = linalg.rref_mod(fixed, p)
    a, b = ([linalg.reduce_mod(x, rows, pivots, p) for x in side] for side in (a, b))
    m = len(a)
    if n == 1:  # lines: W in K(w) when w lies in the kernel of psi_W
        top, joint = 2, [x + y for x, y in zip(a, b)]
    else:  # hyperplanes: the pencil and ranks of the two halves of a basis of Z
        psi = list(zip(*a, *b))
        leads = linalg.gauss_jordan(psi, 2 * m, p)
        z = [[x % p for x in vec] for vec in linalg.kernel(psi, leads, 2 * m)]
        top, a, b = len(leads), [x[:m] for x in z], [x[m:] for x in z]
        joint = a + b
    lines = [_gaussian_binomial(j, 1, p) for j in range(m + 1)]
    s1 = lines[m - linalg.rank_mod(b, p)] + sum(
        count * lines[m - r] for r, count in linalg.pencil_rank_histogram(a, b, p).items())
    s2 = lines[m - linalg.rank_mod(joint, p)]
    return _inverted((lines[m], s1, s2), len(rows) + top, p)


def _walk(rep: Representation, e: tuple[int, ...], budget: _Budget,
          shortcut: bool, backward: bool = False) -> Iterator:
    """Search Gr_e(rep), or Gr_e(rep*) when backward, charging the budget
    each searched position's candidates as it enters the position, before
    it generates any (the module docstring's one rule).

    rep's prime field and e's box are trusted (`_checked`); a backward
    search walks rep along the routing of the opposite quiver, with e the
    dual's dimension vector.  With shortcut the final position is not
    enumerated: it is charged one per arrival and the walk yields (rank of
    the span forced into it, multiplicity) pairs, by a whole vertex or by
    blocks at the last searched position (module docstring).  Otherwise it
    yields the stack of chosen (rows, pivots, images), one per position, at
    every point of the Grassmannian, the rows as `_iter_superspaces` gives
    them, not an RREF.
    """
    p, dims = rep.field, rep.dims
    route = _routing(rep.quiver, backward)
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
        m, n = dims[v] - len(srows), e[v] - len(srows)
        if len(cols[pos]) <= 2 and n in (1, m - 1):  # the whole vertex at once
            maps = cols[pos] + ((zero,) * dims[v],) * (2 - len(cols[pos]))
            free = [c for c in range(dims[v]) if c not in spivots]
            fixed = earlier + [w for img in _images(srows, cols[pos], p) for w in img]
            yield from _whole_ranks(fixed, *([x[c] for c in free] for x in maps), n, p).items()
            return
        for _, _, images, steps in _iter_superspaces(p, dims[v], e[v], srows, spivots,
                                                     cols[pos], block=True):
            r = steps[0][0] if steps else -1
            fixed = earlier + [w for img in images for i, w in enumerate(img) if i != r]
            if not steps:
                yield linalg.rank_mod(fixed, p), 1
                continue
            if len(steps) >= 3:
                g = [[col[c] for col in cols[pos]] for _, c in steps]
                yield from _family_ranks(fixed, [img[r] for img in images], g, p).items()
                continue
            # a pencil in the last step t, or a plane in t and the step u before it
            a = fixed + [img[r] for img in images]
            b, *c = ([zero] * len(fixed) + [col[step[1]] for col in cols[pos]]
                     for step in reversed(steps))
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
            v, m = order[pos], dims[order[pos]]
            if e[v] == m:  # U_v is all of F_p^{d_v}: its images are the columns
                srows = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
                spivots = tuple(range(m))
            else:
                srows, spivots = linalg.rref_mod(images, p)
            s = len(srows)
            if s > e[v]:
                break
            # the position's candidates, charged as the walk enters it; a block
            # position stands for its candidates' final arrivals too
            block = s < e[v] and shortcut and pos == last - 1 and not checks[pos]
            budget.tick((1 + block) * _gaussian_binomial(m - s, e[v] - s, p))
            if block:
                yield from blocks(pos, srows, spivots)
                break
            if s < e[v]:
                for cand in _iter_superspaces(p, m, e[v], srows, spivots, cols[pos]):
                    if not candidate_ok(pos, cand):
                        continue
                    chosen.append(cand)
                    if pos == last:
                        yield chosen
                    else:
                        yield from rec(pos + 1)
                    chosen.pop()
                break
            # U_v is F_p^{d_v} or the forced span, the one candidate
            cand = (srows, spivots, cols[pos] if s == m else _images(srows, cols[pos], p))
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
    shares it; its last searched vertex is ranked whole (one pencil and two
    ranks) at n = 1 or m - 1 under at most two arrows, and by blocks
    otherwise.  A memo hit makes no budget.  A walk that runs out of budget
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


def _plan(rep: Representation, es: Sequence[tuple[int, ...]]) -> dict:
    """How es are searched at rep's prime (module docstring): each e maps to
    (backward, key, x), whether its walk searches the dual at d - e, the
    walk's key, and the searched e's entry at that walk's final vertex.
    Under the shortcut the key is the searched dimension vector with that
    entry 0, shared by the e's of one fiber, and otherwise it is the whole
    searched vector; (backward, key) names the walk, and
    `_routing(rep.quiver, backward)` its route.

    Every e goes backward when the walks the set needs on the dual have a
    strictly smaller summed estimate, on an acyclic quiver, and every e
    forward when those on M do or the quiver has cycles.  On a tie each e
    takes its own walk: fewer candidates, then fewer blocks (the block
    framing, also where the walk takes a whole vertex), then forward.
    rep's field and es's box are trusted, as in `_walk`."""
    dims, p = rep.dims, rep.field
    routes = (_routing(rep.quiver, False),) + ((_routing(rep.quiver, True),)
                                               if rep.quiver.is_acyclic else ())
    sides, totals, estimate = [], [], {}  # estimate: (backward, key) -> candidates
    for backward, route in zip((False, True), routes):
        final, searched, side, total = route.order[-1], route.searched, {}, 0
        for e in es:
            s = tuple(d - x for d, x in zip(dims, e)) if backward else e
            key = s[:final] + (0,) + s[final + 1:] if route.shortcut else s
            side[e] = backward, key, s[final]
            if (backward, key) not in estimate:
                estimate[backward, key] = _gauss_product(dims, key, p, searched)
                total += estimate[backward, key]
        sides.append(side)
        totals.append(total)
    if len(sides) == 1 or totals[0] < totals[1]:
        return sides[0]
    if totals[1] < totals[0]:
        return sides[1]

    def blocks(backward: bool, key: tuple[int, ...]) -> int:
        """The items of `_iter_rref(block=True)` at the walk's last searched
        vertex (`_block_count`), times the Gaussian binomials of the earlier
        ones."""
        route, count = routes[backward], estimate[backward, key]
        searched = route.searched
        if searched:
            v, at = searched[-1], len(searched) - 1
            count = (count // _gaussian_binomial(dims[v], key[v], p)
                     * _block_count(p, dims[v], key[v], len(route.out[at])))
        return count

    entry = {}
    for e in es:
        forward, backward = sides[0][e], sides[1][e]
        ahead, behind = estimate[forward[:2]], estimate[backward[:2]]
        if ahead == behind:
            ahead, behind = blocks(*forward[:2]), blocks(*backward[:2])
        entry[e] = backward if behind < ahead else forward
    return entry


def _too_large(rep: Representation, estimate: int, cap: int, es,
               visited: int | None = None) -> SearchTooLarge:
    """The refusal of a walk of rep serving es (named as given): estimate is
    the number its caller compared with the cap before the walk ran, and
    visited is cap + 1 when it ran out of budget."""
    plural = "s" if len(es) > 1 else ""
    return SearchTooLarge(estimate, cap, visited,
                          f"p = {rep.field}, dimension vector{plural} {', '.join(map(str, es))}")


def _count_planned(rep: Representation, plan: dict, es: Sequence[tuple[int, ...]],
                   cap: int) -> tuple[dict, dict]:
    """Exact point counts of Gr_e(rep) for every e in es, by the walks of
    the plan (`_plan`) that es need: (e -> count, (backward, key) ->
    result), the result being the walk's rank histogram (`_final_ranks`)
    under the shortcut and the count otherwise.

    Every walk's estimate is checked against the cap before any runs; a
    refused walk raises `_too_large` with it and the e's of es it serves.
    """
    dims, p = rep.dims, rep.field
    walks: dict[tuple, list] = {}
    for e in es:
        walks.setdefault(plan[e][:2], []).append(e)
    routes = {backward: _routing(rep.quiver, backward) for backward in {b for b, _ in walks}}
    estimates = {}
    for (backward, key), members in walks.items():
        estimates[backward, key] = _gauss_product(dims, key, p, routes[backward].searched)
        if estimates[backward, key] > cap:
            raise _too_large(rep, estimates[backward, key], cap, members)
    walked = {}
    for (backward, key), members in walks.items():
        try:
            walked[backward, key] = (
                _final_ranks(rep, backward, key, cap) if routes[backward].shortcut
                else sum(1 for _ in _walk(rep, key, _Budget(cap), shortcut=False,
                                          backward=backward)))
        except _OverCap:
            raise _too_large(rep, estimates[backward, key], cap, members, cap + 1) from None
    counts = {}
    for e in es:
        backward, key, x = plan[e]
        route = routes[backward]
        counts[e] = (_fiber_count(walked[backward, key], dims[route.order[-1]], x, p)
                     if route.shortcut else walked[backward, key])
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
    """Stream every point of the quiver Grassmannian as a SubspaceTuple.

    A basis the walk lifts is not canonical (`_iter_superspaces`), so each
    basis that is not already its RREF is brought to it here, the one place
    a point leaves the library.  Its rows lead at its pivots, so it is its
    RREF when the pivots increase and each pivot column is a unit column.
    Only a basis lifted over a forced span can fail that: `_iter_rref`, a
    forced span and a whole vertex give canonical bases."""
    (e,) = _checked(rep, [e])
    cap = read_cap(cap)
    estimate = _gauss_product(rep.dims, e, rep.field, range(rep.n))
    if estimate > cap:
        raise _too_large(rep, estimate, cap, [e])
    order = _routing(rep.quiver, False).order

    def is_rref(rows: tuple, pivots: tuple) -> bool:
        return list(pivots) == sorted(pivots) and all(
            row[c] == (r == i) for r, row in enumerate(rows) for i, c in enumerate(pivots))

    try:
        for chosen in _walk(rep, e, _Budget(cap), shortcut=False):
            by_vertex = {v: rows if is_rref(rows, pivots) else linalg.rref_mod(rows, rep.field)[0]
                         for v, (rows, pivots, _) in zip(order, chosen)}
            yield SubspaceTuple(rep.field, tuple(by_vertex[v] for v in range(rep.n)))
    except _OverCap:
        raise _too_large(rep, estimate, cap, [e], cap + 1) from None
