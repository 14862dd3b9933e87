"""Simply-laced root systems, Coxeter words, and F-polynomials as minors.

Combinatorics (Cartan data, Weyl action, Coxeter words, the gamma-equation)
work for types A, D, E.  The minor route evaluates a principal generalized
minor by a walk over the weights of a minuscule fundamental representation,
with no matrix and no determinant.  It reaches every root of type A, whose
fundamental representations are all minuscule, and the roots of types D and
E whose gamma lies in a minuscule orbit; other roots raise ScopeError.

Weights are integer tuples in the fundamental-weight basis, so a simple
reflection is a one-line integer operation.  Row i of a simply-laced Cartan
matrix is 2 at i, -1 at i's diagram neighbours and 0 elsewhere, so s_i
changes only coordinate i and its neighbours' coordinates; the gamma solve,
the walk to the dominant chamber and the minor's weight walk update just
those.  Roots are integer tuples in the simple-root basis, which is also
how dimension vectors of indecomposables are written.  All indices in
memory are 0-based; the CLI is 1-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import NotAnOrientation, NotInAnyFundamentalOrbit, ScopeError, SearchExhausted
from .fpoly import FPolynomial
from .model import Quiver, Representation, _as_int, _random_representation, euler_form, hom_dim

_POSITIVE_ROOT_COUNTS = {"A": lambda n: n * (n + 1) // 2,
                         "D": lambda n: n * (n - 1),
                         "E": {6: 36, 7: 63, 8: 120}}

# `dynkin_indecomposable` draws matrix entries from [-BOUND, BOUND], in at
# most ATTEMPTS samples
INDECOMPOSABLE_BOUND = 3
INDECOMPOSABLE_ATTEMPTS = 200


def _diagram_edges(label: str, rank: int) -> tuple[tuple[int, int], ...]:
    if label == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        return tuple((i, i + 1) for i in range(rank - 1))
    if label == "D":
        if rank < 4:
            raise ValueError("type D needs rank >= 4")
        chain = tuple((i, i + 1) for i in range(rank - 3))
        return chain + ((rank - 3, rank - 2), (rank - 3, rank - 1))
    if label == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E needs rank 6, 7 or 8")
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        return tuple(sorted(edges))
    raise ValueError(f"unknown type label {label!r}")


@dataclass(frozen=True)
class RootSystem:
    """Cartan matrix (row i is the simple root alpha_i in fundamental-weight
    coordinates), fundamental weights, positive roots and the highest root."""

    label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]  # simple-root coordinates
    highest_root: tuple[int, ...]  # the positive root of largest height

    @property
    def fundamental_weights(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        return tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """The diagram's edges (i, j), i < j, in ascending order."""
        return _diagram_edges(self.label, self.rank)

    @cached_property
    def _neighbours(self) -> tuple[tuple[int, ...], ...]:
        """The vertices j with cartan[i][j] = -1, for each i: all that a
        simple reflection s_i moves besides coordinate i itself."""
        return tuple(tuple(j for j, c in enumerate(row) if c < 0) for row in self.cartan)


def root_system(label: str, rank: int) -> RootSystem:
    """Build (and cache) the root system of one simply-laced type."""
    return _root_system(label, _as_int(rank, "rank"))


@lru_cache(maxsize=None)
def _root_system(label: str, rank: int) -> RootSystem:
    edges = _diagram_edges(label, rank)
    n = rank
    cartan = [[0] * n for _ in range(n)]
    for i in range(n):
        cartan[i][i] = 2
    for a, b in edges:
        cartan[a][b] = cartan[b][a] = -1
    cartan_t = tuple(tuple(row) for row in cartan)

    # by height from the simple roots: in a simply-laced system beta + alpha_i
    # is a root exactly when (beta, alpha_i) = -1, for beta positive and not
    # alpha_i, and every positive root of height h > 1 is one of height h - 1
    # plus a simple root
    neighbours = [[j for j in range(n) if cartan[i][j] < 0] for i in range(n)]
    level = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    roots = set(level)
    while level:
        higher = []
        for beta in level:
            for i in range(n):
                if 2 * beta[i] - sum(beta[j] for j in neighbours[i]) == -1:
                    new = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if new not in roots:
                        roots.add(new)
                        higher.append(new)
        level = higher
    positive = tuple(sorted(roots))
    expected = _POSITIVE_ROOT_COUNTS[label]
    expected = expected[rank] if isinstance(expected, dict) else expected(rank)
    if len(positive) != expected:
        raise RuntimeError(f"root generation produced {len(positive)} positive roots, "
                           f"expected {expected}")
    return RootSystem(label, rank, cartan_t, positive, max(positive, key=sum))


def simple_reflection(rs: RootSystem, i: int, weight: Sequence[int]) -> tuple[int, ...]:
    """s_i(w) = w - w_i alpha_i in fundamental-weight coordinates."""
    coeff = weight[i]
    if coeff == 0:
        return tuple(weight)
    # alpha_i is column i of the Cartan matrix, which is row i because
    # simply-laced Cartan matrices are symmetric
    return tuple(w - coeff * a for w, a in zip(weight, rs.cartan[i]))


def _check_word(rs: RootSystem, word: Sequence[int]) -> tuple[int, ...]:
    word = tuple(_as_int(i, "word letter") for i in word)
    if sorted(word) != list(range(rs.rank)):
        raise ValueError(f"word {word} is not a permutation of 0..{rs.rank - 1}")
    return word


def orientation_from_coxeter(rs: RootSystem, word: Sequence[int]) -> Quiver:
    """Each diagram edge is oriented from the later word letter to the earlier."""
    word = _check_word(rs, word)
    pos = {v: k for k, v in enumerate(word)}
    arrows = []
    for a, b in rs.edges():
        if pos[a] < pos[b]:
            arrows.append((b, a))
        else:
            arrows.append((a, b))
    return Quiver(rs.rank, tuple(arrows))


def coxeter_from_orientation(rs: RootSystem, quiver: Quiver) -> tuple[int, ...]:
    """Canonical word inverting orientation_from_coxeter.

    Emits, repeatedly, the smallest-index vertex all of whose out-arrows
    point at already-emitted vertices: the topological order of the
    opposite quiver, in which every arrow's target precedes its source.
    The diagram is a tree, so no orientation of it has a directed cycle
    and that order always exists.
    """
    if quiver.n != rs.rank:
        raise NotAnOrientation(f"{quiver.n} vertices for rank {rs.rank}")
    undirected = sorted(tuple(sorted(a)) for a in quiver.arrows)
    if undirected != sorted(rs.edges()):
        raise NotAnOrientation("arrow set is not an orientation of the diagram")
    return quiver.opposite().topological_order()


def solve_gamma(rs: RootSystem, word: Sequence[int], alpha: Sequence[int]
                ) -> tuple[tuple[int, ...], int]:
    """The unique weight gamma with c^{-1} gamma - gamma = alpha.

    alpha is given in simple-root coordinates and must be a positive root.
    Returns (gamma in fundamental-weight coordinates, index i of the
    fundamental weight whose Weyl orbit contains gamma).

    Write the word as j_1, ..., j_n and a for alpha: c^{-1} applies
    s_{j_1} first and s_{j_n} last.  The reflection s_{j_k} subtracts
    (current weight)_{j_k} alpha_{j_k}, and each letter occurs once, so the
    equation asks that the weight reaching step k have j_k-coordinate
    -a_{j_k}.  That weight is gamma + sum_{l<k} a_{j_l} alpha_{j_l}, hence

        gamma_{j_k} = -a_{j_k} - sum_{l<k} a_{j_l} cartan[j_l][j_k],

    a triangular solve with integer entries only: gamma is integral.  The
    sum is kept running: after letter j_k, a_{j_k} times row j_k of the
    Cartan matrix is added to it, which changes only the coordinates of
    j_k's neighbours that are read later (coordinate j_k is not read again).

    Every W-orbit meets the dominant chamber in exactly one weight, so the
    orbit is found by walking there: while some coordinate w_i is negative,
    apply s_i, which adds |w_i| alpha_i: w_i turns positive and each
    neighbour of i drops by |w_i|.  A stack holds exactly the negative
    coordinates, since a step only lowers the neighbours: one joins it when
    it turns negative and leaves it only by its own step.  Each step raises
    the weight, so the walk ends in any order (the orbit is finite), and it
    ends at the orbit's one dominant weight, so the order cannot change the
    index.  gamma lies in W omega_i exactly when the walk ends at omega_i,
    the dominant weight with coordinate sum 1.
    """
    word = _check_word(rs, word)
    alpha = tuple(_as_int(a, "root coordinate") for a in alpha)
    if alpha not in rs.positive_roots:
        raise ValueError(f"{alpha} is not a positive root of {rs.label}{rs.rank}")
    neighbours = rs._neighbours
    solved = [0] * rs.rank
    applied = [0] * rs.rank  # sum_{l<k} a_{j_l} cartan[j_l] at the letters still to come
    for j in word:
        a = alpha[j]
        solved[j] = -a - applied[j]
        for k in neighbours[j]:
            applied[k] -= a
    gamma = tuple(solved)
    w = solved
    negative = [i for i, x in enumerate(w) if x < 0]
    while negative:
        i = negative.pop()
        x = w[i]
        w[i] = -x
        for k in neighbours[i]:
            if w[k] >= 0 > w[k] + x:
                negative.append(k)
            w[k] += x
    if sum(w) == 1:
        return gamma, w.index(1)
    raise NotInAnyFundamentalOrbit(f"gamma {gamma} lies in no fundamental orbit")


def is_minuscule(label: str, rank: int, i: int) -> bool:
    """Whether every weight of W omega_i has coordinates in {-1, 0, 1}.

    Then the weights of W omega_i form a basis of V(omega_i) on which each
    e_j and f_j moves one weight to one other with coefficient 1.  No orbit
    is walked: coordinate j of w omega_i is <omega_i, w^{-1} alpha_j>, and
    the w^{-1} alpha_j are all the roots, so (simply laced) the coordinates
    are the coefficients of alpha_i in the roots, up to sign.  The highest
    root theta, the positive root of largest height, has the largest such
    coefficient, because theta - beta is a sum of simple roots for every
    positive root beta, and it is at least 1.  So omega_i is minuscule
    exactly when alpha_i has coefficient 1 in theta, which the cached root
    system holds.
    """
    return root_system(label, rank).highest_root[i] == 1


def f_polynomial_via_minor(rank: int, word: Sequence[int], alpha: Sequence[int],
                           label: str = "A") -> FPolynomial:
    """F-polynomial of the indecomposable at alpha as a principal minor.

    The minor is <v_gamma, g v_gamma> for g = y_{i_1}(1) ... y_{i_n}(1)
    x_{i_n}(u_{i_n}) ... x_{i_1}(u_{i_1}), with gamma from `solve_gamma`,
    taken in V(omega_i) for the orbit W omega_i that holds gamma.  It is
    evaluated only when omega_i is minuscule (every fundamental weight of
    type A is): the weights of W omega_i are then a basis, e_j sends v_mu
    to v_{mu + alpha_j} when mu_j = -1 and f_j sends v_mu to v_{mu - alpha_j}
    when mu_j = 1, both squares vanish, and x_j(u) = 1 + u e_j and
    y_j(1) = 1 + f_j.  Other orbits raise ScopeError.

    Write Y and X for the two halves of g.  In this basis f_j is the
    transpose of e_j, so <v_gamma, Y X v_gamma> = <Y^T v_gamma, X v_gamma>
    with Y^T = (1 + e_{i_n}) ... (1 + e_{i_1}).  Both sides expand over
    the sets S of letters taken in word order under the same rule: letter
    j is taken from the weight mu reached so far when mu_j = -1, and moves
    it to mu + alpha_j.  Each letter occurs once in the word and the simple
    roots are independent, so the weight gamma + sum_S alpha_j determines
    S: X v_gamma is the sum of u^S v_{gamma + sum_S alpha_j} and Y^T v_gamma
    the sum of the same v with coefficient 1.  The minor is therefore the
    sum of u^S over the sets S that can be taken, and every coefficient is
    1.  The walk carries the exponent tuple of u^S with each weight reached,
    and a step by letter j changes only coordinate j of both (mu_j = -1
    becomes 1) and the weight's coordinates at j's neighbours (each drops
    by 1).  Nothing is tabulated per subset of letters: at rank 40 that
    would be 2^40 entries, while the walk meets only the sets it reaches.
    """
    rs = root_system(label, rank)
    word = tuple(word)  # read twice: by solve_gamma, which checks it, and by the walk
    gamma, fund_index = solve_gamma(rs, word, alpha)
    if not is_minuscule(label, rank, fund_index):
        raise ScopeError(
            f"gamma {gamma} lies in the orbit of omega_{fund_index + 1}, which is not "
            f"minuscule in {label}{rank}; the minor route needs a minuscule orbit")
    neighbours = rs._neighbours
    reached = {gamma: (0,) * rs.rank}
    for j in word:
        for mu, exps in list(reached.items()):
            if mu[j] == -1:
                nu = list(mu)
                nu[j] = 1
                for k in neighbours[j]:
                    nu[k] -= 1
                reached[tuple(nu)] = exps[:j] + (1,) + exps[j + 1:]
    return FPolynomial._trusted(rs.rank, dict.fromkeys(reached.values(), 1))


def dynkin_indecomposable(quiver: Quiver, alpha: Sequence[int], seed: int = 0
                          ) -> Representation:
    """An indecomposable representation with dimension vector alpha.

    A rigid indecomposable has hom = 1 and ext^1 = 0, so <alpha, alpha> = 1
    (the quiver must be acyclic); elsewhere SearchExhausted is raised before
    any sample.  Otherwise integer matrices are sampled from a deterministic
    seeded generator until hom(M, M) = 1 over Q, which certifies ext^1(M, M)
    = 1 - <alpha, alpha> = 0; general representations of a positive-root
    dimension vector are exactly the indecomposables, so this terminates fast.
    On a thin alpha (every entry at most 1) `hom_dim` reads End off the
    arrows, with no linear system: its dimension is the number of connected
    pieces of the support under the arrows drawn nonzero (`model._thin_end`).
    Every draw returned is rigid, so on a Dynkin quiver `euler.f_polynomial`
    samples it under Ringel's theorem, with no held-out prime
    (`euler._Sampling.certified`).
    """
    seed = _as_int(seed, "seed")
    dims = tuple(_as_int(a, "dimension") for a in alpha)
    if len(dims) != quiver.n or any(d < 0 for d in dims):
        raise ValueError(f"bad dimension vector {dims}")
    form = euler_form(quiver, dims, dims)
    if form != 1:
        raise SearchExhausted(
            f"<alpha, alpha> = {form} for dims {dims}, so no rigid indecomposable has them; "
            "is alpha a positive root of this quiver's diagram?")
    rng = random.Random(f"quivergrass-indec:{quiver.arrows}:{dims}:{seed}")
    for _ in range(INDECOMPOSABLE_ATTEMPTS):
        rep = _random_representation(quiver, dims, rng, INDECOMPOSABLE_BOUND)
        if hom_dim(rep, rep) == 1:
            return rep
    raise SearchExhausted(
        f"no certified indecomposable of dims {dims} in {INDECOMPOSABLE_ATTEMPTS} samples; "
        "is alpha a positive root of this quiver's diagram?")
