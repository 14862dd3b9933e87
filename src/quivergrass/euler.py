"""Euler characteristics via verified counting-polynomial interpolation.

chi of a quiver Grassmannian is computed operationally as P(1), where P is
the integer polynomial that matches the exact F_p point counts at enough
primes and survives validation at two held-out primes, or, for a rigid
representation of a Dynkin quiver, needs none (Ringel's theorem, below).
Varieties whose counts are not polynomial in q (the plane-quartic pipeline
of `example4` is the canonical source) are detected and rejected with
NonPolynomialCount.

"Enough" is B + 1 nodes, where B bounds deg P through the arrow ranks (see
`_Sampling.degree_bound`).  Walk the vertices in the search order; an arrow
u -> v from an earlier vertex forces dim U_v >= s_v = e_u - dim ker phi_a,
so U_v ranges over at most binom_q(d_v - s_v, e_v - s_v) subspaces, of
degree (e_v - s_v)(d_v - e_v) in q.  B is the smaller of the sums of these
degrees over M at e and over the dual M* at d - e, whose Grassmannian has
the same points.

A set of dimension vectors is sampled as one (`_settle`) and planned once,
at its first prime (`subspaces._plan`): each e's walk, with its direction
and final entry, and each fiber's bound.  Each prime then only runs the
memoized walks of the e's still pending, so every e takes the same walk
at every prime, under a cap read once per computation.  The verdicts
read what was sampled: each e's (p, count) pairs and each walk's (p, rank
histogram) pairs, and at each prime every pending e is decided anew from
its samples.  That is not all the state: `_settle` also keeps `settled`,
the e's decided so far (a fiber or palindrome fit among them), and the
memo `fits` of each fiber's fitted N_k, and it tries the palindrome and
fiber tests only at the n that equals their thresholds.  Dropping a
prime's samples and deciding again must therefore also clear both, and an
e whose n falls back below a threshold meets that test again only at a
later prime.

Four tests settle e.  The first, the arrow test, needs no prime, and
neither does the empty case of the rigidity test below: both are asked of
e before any prime, in one place (`_Sampling.closed_form`), which also
says why e took none when asked.  An arrow a: u -> v of rank r gives
dim phi_a(U_u) >= e_u - (d_u - r), and on the dual the induced map
M_u/U_u -> M_v/U_v has rank >= r - e_v: each says that Gr_e(M) is
empty, P_e = 0, when r > d_u - e_u + e_v.  When every arrow of nonzero
rank has e_u = 0 or e_v = d_v, phi_a(U_u) lies in U_v for every choice,
so Gr_e(M) is prod_v Gr(e_v, d_v) and P_e = prod_v binom_q(d_v, e_v), of
degree sum_v e_v (d_v - e_v) = B_e (forward, e_u = 0 forces nothing and
e_v = d_v zeroes v's term; the dual swaps them), fitted through its values
at B_e + 1 integers once per (d, e).  Both hold over Q and over every
F_p at which each phi_a keeps its rank (`good_primes`), so both are exact
and neither rejects.

Three tests settle the other e from the same samples, whichever
finishes first.  The per-e test fits the counts through B_e + 1 nodes and
checks them at HELD_OUT more primes; every NonPolynomialCount comes from
it.  It is a fold over the samples in order (`_fit`), which judges each
one first against every earlier one: P in Z[q] gives (p - q) | P(p) -
P(q), so two counts that break this prove at once that e is not
polynomial (on the plane quartic, counts of different parity at two odd
primes).  That moves rejections earlier and changes no verdict.  A fit
that any of the three tests accepts is an integer polynomial through
every sample, so it passes every pair; and when a pair fails, the
interpolant through the nodes is not integral or misses a held-out
sample, so the per-e test would reject at B_e + 1 + HELD_OUT samples
anyway.

The fiber test reads the walk that counted e: the search fixes U at the
searched vertices and records N_k(p), how many of those choices force a
span of rank k into the final vertex f, whose U_f then ranges over the
binom_q(d_f - k, x - k) subspaces containing it (x = e_f in the walked
direction).  So the count is sum_k N_k(p) binom_p(d_f - k, x - k), and
only k <= x contribute.  Once the fiber's walk has B_F + 1 + HELD_OUT
histograms, B_F the fiber bound (the degree bound summed over the
searched vertices only, in the walked direction), each N_k is fitted
once for the whole fiber by `_fit` with that bound, held-out primes
included (`_rank_fits`).  For each member e whose N_k with k <= x all
pass, P_e = sum_{k <= x} N_k(q) binom_q(d_f - k, x - k) (`_fiber_fit`).
Its coefficients come from its values at B_e + 1 integers, and it must
reproduce every sample.
Soundness:
- N_k >= 0 and sum_k N_k(p) <= prod_searched binom_p(d_v - s_v, e_v - s_v)
  at a good prime, so a polynomial N_k has degree <= B_F, and the
  held-out argument of the per-e test applies to each N_k.
- P_e matches the counts at every good prime, which the degree bound
  caps, so deg P_e <= B_e and B_e + 1 values determine it.
- e needs at most min(B_e, B_F) + 1 + HELD_OUT primes, never more than the
  per-e test alone.  The fiber test is tried only where B_F < B_e and
  B_e > 0, so it costs nothing where it cannot save a prime.
Both tests are needed.  On the plane quartic (`example4`, Kronecker m = 4
at (3, 4)) the forward walk at e_1 = 1 has N_3 and N_4 not polynomial in q
(rank 3 on the quartic, 4 off it), but N_3 + N_4 is: (1, 1) and (1, 2)
see only N_0 = N_1 = N_2 = 0, and (1, 3) is rejected by the per-e test, no
later than its B_e + 1 nodes (at seed 42 by the pair of its counts at 3
and 5).  The fiber test would leave (1, 4) to the per-e test; the arrow
test settles it first (U_2 is all of vertex 2), and rules (1, 0) out.

The rigidity test applies when M is rigid, Ext^1(M, M) = 0.  For U in
Gr_e(M) over the algebraic closure, Ext^1(U, M/U) is a quotient of
Ext^1(M, M) (the path algebra is hereditary), so it vanishes and the
tangent space Hom(U, M/U) has dimension D = <e, d - e> at every point:
Gr_e(M) is empty when D < 0, and otherwise smooth and projective of
dimension D (Caldero-Reineke).  A smooth projective variety with
polynomial count has a palindromic count of degree D (Katz, appendix to
Hausel-Rodriguez-Villegas, with Poincare duality), so P_e has D // 2 + 1
unknowns.  Hence e settles with P_e = 0 and no sample when D < 0; when
D // 2 < B_e, the palindrome through its first D // 2 + 1 samples
(`_palindrome`) settles e if it reproduces HELD_OUT more, by the held-out
argument of the per-e test.  A palindrome that fails leaves e to the other
two tests, so rigidity never rejects.

Rigidity is decided in one place, the sampling context: M is rigid when
dim End_Q(M) (`_Sampling.end`) equals <d, d> >= 1, and End is usually
certified at one prime with no elimination over Q: dim End_Q(M) >=
<d, d> because dim Ext^1(M, M) = dim End(M) - <d, d> >= 0, and
dim End(M mod p) >= dim End_Q(M) because reduction can only drop the
rank of the linear system whose kernel is End.  So dim End(M mod p) = <d, d> at a good prime
proves Ext^1_Q(M, M) = 0.  If none of the first HELD_OUT + 1 good primes
certifies, one elimination over Q gives dim End_Q(M), so the answer is
exact either way.  It is asked only on an acyclic quiver where <d, d> >= 1
(a nonzero rigid M has dim End = <d, d>), and only when some e of the set
is left after the arrow test.  `_Sampling.rigid_dimension` gives
<e, d - e> for rigid M, which both the empty case and the palindrome read.

Ringel's theorem certifies the count itself on a Dynkin quiver, one whose
Tits form is positive definite, so that every connected component has type
A, D or E (`model.Quiver.is_dynkin`).  There the number of F_q-points of
Gr_e(N) is, for each isomorphism type of N, one polynomial in q: a sum of
Hall polynomials over the finitely many types of U and N/U, none of which
depends on q (Ringel, "Hall polynomials for the representation-finite
hereditary algebras", Adv. Math. 84 (1990)).  Over every field a Dynkin
module is a sum of indecomposables, one per positive root and each defined
over the prime field (Gabriel), and a rigid one is fixed by its dimension
vector, which no field changes.  So let M be rigid over Q and p a good prime
at which dim End(M mod p) = <d, d> as well: M mod p is rigid, it has the
type of M, and its count is P(p) for the one P with P(1) = chi.  At such a
prime deg P <= B_e, and P is the palindrome of degree D = <e, d - e>, so
B_e + 1 samples, or D // 2 + 1, determine P, and a held-out prime would
prove nothing more.  Such an M is certified (`_Sampling.certified`: rigid,
with a positive definite Tits form).  For it `_settle` skips every prime at
which End(M mod p) exceeds <d, d> before it samples the prime, and the
per-e and rigidity tests take no held-out prime.  The fiber test keeps
HELD_OUT, because the theorem covers the count, not each N_k.  A pair of
samples that breaks (p - q) | P(p) - P(q), or an interpolant that is not
integral, still raises NonPolynomialCount, which the theorem says never
happens.  Every other input keeps its held-out primes: M not rigid, a
quiver with cycles, or a Kronecker module, whose Tits form is only
semidefinite.

Sampling context: everything a count needs from M that does not depend on
e is worked out once per representation and kept in a `_Sampling` (bounded
`lru_cache`, 64 representations, per process).  It holds the arrow ranks
over Q, the arrows of nonzero rank that the closed forms read in one pass
per e, and the good primes found so far, each with M reduced mod it from
M's integral form (`Representation._integral`, worked out at the first
reduction).  The degree and fiber bounds read the forcing arrows off the
walks' own routing (`subspaces._routing`), so none are copied.  The prime
list grows by one prime under a lock when a caller asks past its end, so
each (representation, prime) pair is chosen, reduced and rank-checked
once, when some caller is about to sample it, from whichever thread; per
e there is only the closed form, one entry for `_settle` and `euler
--verbose`, whose reason only the latter asks for.  It also holds <d, d>,
worked out when it is built, dim End_Q(M), worked out once, whose
certificate may reduce a good prime that no count samples (a rigid-empty
e takes none), and one cache of dim End(M mod p) per prime, which that
certificate and the certified schedule both read.
A set that the arrow test settles whole reduces no prime at all, and
`_settle` builds nothing for it past the closed forms.  It
holds no dual: the search direction belongs to `subspaces._plan`, and a
backward search walks the reduction itself.
Interpolation is exact integer Lagrange over one common denominator.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from math import lcm, prod
from typing import Iterator, Sequence

from . import linalg
from .errors import DomainMismatch, InsufficientSamples, NonPolynomialCount
from .fpoly import FPolynomial
from .model import Representation, _as_int, euler_form, hom_dim, reduce_mod
from .subspaces import (
    _count_planned,
    _fiber_count,
    _gauss_product,
    _in_box,
    _plan,
    _routing,
    read_cap,
)

HELD_OUT = 2  # validation primes beyond the interpolation nodes


@dataclass(frozen=True)
class CountingPolynomial:
    """Integer polynomial in q reproducing every sampled point count.

    coefficients are ascending; samples are the (prime, count) pairs
    actually sampled, and the polynomial equals the count at each of them;
    degree_bound is the a-priori bound on its degree.  It does not fix how
    many primes were sampled: the fiber and rigidity tests (module
    docstring) can settle e with fewer than degree_bound + 1 + HELD_OUT; a
    certified M (Ringel's theorem, module docstring) takes degree_bound + 1,
    or <e, d - e> // 2 + 1 for its palindrome, with no held-out prime, and
    its samples skip the primes where End(M mod p) jumps.  samples is empty
    when an arrow's rank rules e out, when no arrow constrains e (a product
    of Grassmannians), and when M is rigid and <e, d - e> < 0.  Such an e takes no prime, and its degree_bound is the
    degree of its closed form, known before any prime: sum_v e_v (d_v - e_v)
    for a product of Grassmannians (the arrow bound there), 0 when Gr_e(M)
    is empty.
    """

    coefficients: tuple[int, ...]
    dim_vector: tuple[int, ...] | None
    samples: tuple[tuple[int, int], ...]
    degree_bound: int | None = None

    def evaluate(self, x) -> int:
        return _evaluate(self.coefficients, x)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else 0

    @property
    def chi(self) -> int:
        return sum(self.coefficients)  # P(1)


def _evaluate(coefficients: Sequence[int], x) -> int:
    """The polynomial with these ascending coefficients at x, by Horner."""
    total = 0
    for c in reversed(coefficients):
        total = total * x + c
    return total


@lru_cache(maxsize=256)
def _interpolant(nodes: tuple[tuple[int, int], ...]) -> tuple[int, ...] | None:
    """Coefficients (ascending, trailing zeros dropped) of the interpolant
    through the nodes, or None when one of them is not an integer.

    With N(x) = prod_k (x - x_k) and w_j = prod_{k != j} (x_j - x_k), the
    interpolant is sum_j y_j (N(x) / (x - x_j)) / w_j.  Over the common
    denominator D = lcm_j |w_j| its numerators are integers, the quotients
    N / (x - x_j) come by synthetic division, and the interpolant is
    integral exactly when D divides every numerator.  Remembered, so that
    judging an e anew at each prime (`_fit`) and the final
    `interpolate_counting_polynomial` fit each set of nodes once.
    """
    xs = [x for x, _ in nodes]
    full = [1]  # N, ascending
    for x in xs:
        full = [a - x * b for a, b in zip([0] + full, full + [0])]
    weights = [prod(xi - xj for xj in xs if xj != xi) for xi in xs]
    denom = lcm(*weights)
    numer = [0] * len(nodes)
    for (xi, yi), w in zip(nodes, weights):
        scale = yi * (denom // w)
        quotient = 0  # coefficients of N / (x - xi), from the top
        for k in range(len(nodes), 0, -1):
            quotient = full[k] + xi * quotient
            numer[k - 1] += scale * quotient
    if any(c % denom for c in numer):
        return None
    ints = [c // denom for c in numer]
    while ints and ints[-1] == 0:
        ints.pop()
    return tuple(ints)


def _fit(samples: Sequence[tuple[int, int]], degree_bound: int
         ) -> tuple[tuple[int, ...] | None, str | None]:
    """The per-e test, folded over the samples in order (module docstring).

    Each sample is judged against every earlier one, by (p - q) | P(p) -
    P(q); then, if it completes the degree_bound + 1 nodes, by fitting the
    interpolant, and after that as a held-out value.  Returns (coefficients,
    None) when the samples fit, (None, reason) at the first sample that
    proves the counts are not polynomial in q, and (None, None) while there
    are fewer than degree_bound + 1 of them and no pair fails.
    """
    ints = None
    for i, (p, count) in enumerate(samples):
        for q, earlier in samples[:i]:
            if (count - earlier) % (p - q):
                (q, a), (r, b) = sorted([(q, earlier), (p, count)])
                return None, (f"the counts {a} at {q} and {b} at {r} differ by {b - a}, "
                              f"which {r} - {q} does not divide")
        if i == degree_bound:
            ints = _interpolant(tuple(samples[:i + 1]))
            if ints is None:
                return None, "the interpolant has non-integer coefficients"
        elif ints is not None and (predicted := _evaluate(ints, p)) != count:
            return None, f"held-out prime {p} gives {count}, the interpolant predicts {predicted}"
    return ints, None


def interpolate_counting_polynomial(samples: Sequence[tuple[int, int]],
                                    degree_bound: int,
                                    dim_vector: Sequence[int] | None = None,
                                    *, held_out: int = HELD_OUT
                                    ) -> CountingPolynomial:
    """Fit the first degree_bound+1 samples exactly, then validate the rest.

    Raises NonPolynomialCount, naming the dimension vector and the sampled
    primes, when two samples break (p - q) | P(p) - P(q), which every P in
    Z[q] satisfies, when the interpolant has a non-integer coefficient, or
    when a held-out count disagrees; samples that already prove that need
    no more beyond them, so two can be enough (`_fit`).  Otherwise requires
    at least held_out samples beyond the interpolation nodes
    (InsufficientSamples), HELD_OUT = 2 unless given.  held_out = 0 is the
    certified path of `_settle`: where Ringel's theorem makes every sampled
    count P(p) with deg P <= degree_bound (module docstring), the nodes
    alone fix P, and an interpolant that is not integral still raises.
    """
    samples = [(_as_int(p, "sample prime"), _as_int(c, "sample count")) for p, c in samples]
    degree_bound = _as_int(degree_bound, "degree bound")
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    held_out = _as_int(held_out, "held-out count")
    if held_out < 0:
        raise ValueError("held-out count must be non-negative")
    if len({p for p, _ in samples}) != len(samples):
        raise ValueError("sample primes must be distinct")
    dim_vector = tuple(dim_vector) if dim_vector is not None else None
    ints, reason = _fit(samples, degree_bound)
    if reason is not None:
        where = "" if dim_vector is None else f" at dimension vector {dim_vector}"
        primes = ", ".join(str(p) for p, _ in samples)
        raise NonPolynomialCount(f"point counts{where} sampled at primes {primes}: {reason}, "
                                 "so they are not polynomial in q")
    need = degree_bound + 1 + held_out
    if len(samples) < need:
        raise InsufficientSamples(
            f"need {need} samples for degree {degree_bound} (+{held_out} held out), "
            f"got {len(samples)}")
    return CountingPolynomial(ints, dim_vector, tuple(samples), degree_bound)


class _Sampling:
    """What sampling needs from one representation over Q, worked out once.

    Once per representation: form is <d, d>, None on a quiver with cycles;
    ranks are the arrow ranks over Q (`linalg.rank_frac` takes a row of
    ints as it is, so an integer M is not cleared first), and active the
    arrows (u, v, rank) of nonzero rank, all that the closed forms read.
    `fiber_bound` reads the forcing arrows off `subspaces._routing`, so
    none are copied here.  found lists the good
    primes so far as (p, rep mod p), extended under the lock.  Once per
    prime: its reduction, the rank check that makes it good, and dim
    End(M mod p), kept in one cache (`end_mod`) that the End certificate
    (`end`, tried at the first HELD_OUT + 1 good primes at most, kept once
    worked out, under a second lock) and the certified schedule of
    `_settle` both read; the certificate may reduce a good prime that no
    count goes on to sample.  Rigidity (`rigid`, `rigid_dimension`) and the
    certificate of Ringel's theorem (`certified`) are read from form, End
    and the quiver, and kept nowhere else.
    Per e: the closed form (`closed_form`), with its reason only when asked.
    """

    def __init__(self, rep: Representation):
        if rep.field is not None:
            raise DomainMismatch("representation is already over a prime field")
        self.rep = rep
        self.form = euler_form(rep.quiver, rep.dims, rep.dims) if rep.quiver.is_acyclic else None
        self.ranks = tuple(linalg.rank_frac(mat) for mat in rep.matrices)
        self.active = tuple((u, v, r) for (u, v), r in zip(rep.quiver.arrows, self.ranks) if r)
        self._primes = linalg.odd_primes()
        self._found: list[tuple[int, Representation]] = []
        self._lock = threading.Lock()
        self._end: int | None = None
        self._end_lock = threading.Lock()
        self._ends: dict[int, int] = {}

    def reductions(self) -> Iterator[tuple[int, Representation]]:
        """The good primes (see `good_primes`) in increasing order, each with
        rep mod p, each found when a caller first asks for it."""
        i = 0
        while True:
            with self._lock:
                while len(self._found) <= i:
                    p = next(self._primes)
                    try:
                        rep_p = reduce_mod(self.rep, p)
                    except DomainMismatch:  # a denominator vanishes mod p
                        continue
                    if all(linalg.rank_mod(mat, p) == r
                           for mat, r in zip(rep_p.matrices, self.ranks)):
                        self._found.append((p, rep_p))
                found = self._found[i]
            yield found
            i += 1

    def reduction(self, p: int) -> Representation:
        """rep mod p: the one held here when p is among the good primes found
        so far, else a fresh `reduce_mod`, which is not kept."""
        with self._lock:
            held = next((rep_p for q, rep_p in self._found if q == p), None)
        return reduce_mod(self.rep, p) if held is None else held

    def end(self) -> int:
        """dim End_Q(M), certified at a good prime or else eliminated over Q.

        Over Q, dim End(M) >= <d, d> because Ext^1(M, M) has dimension
        dim End(M) - <d, d> >= 0 (the path algebra is hereditary), and
        dim End(M) >= 1 when M is nonzero; reduction mod p keeps every
        rank or drops it, so dim End(M mod p) >= dim End_Q(M).  A prime
        at which dim End(M mod p) equals the lower bound max(1, <d, d>)
        therefore proves that dim End_Q(M) equals it.  On an acyclic
        quiver and nonzero M the first HELD_OUT + 1 good primes are tried
        (`end_mod`), and the first that certifies ends the search; otherwise
        (no prime certifies, the quiver has cycles, or M is zero) one
        `hom_dim` over Q gives it.  Worked out once, on the first call.
        """
        with self._end_lock:
            if self._end is None:
                lower = max(1, self.form) if self.form is not None and any(self.rep.dims) else 0
                certified = lower and any(self.end_mod(rep_p) == lower for _, rep_p
                                          in islice(self.reductions(), HELD_OUT + 1))
                self._end = lower if certified else hom_dim(self.rep, self.rep)
            return self._end

    def end_mod(self, rep_p: Representation) -> int:
        """dim End(M mod p) for rep_p, M mod p, kept per prime: `end`'s
        certificate and the certified schedule of `_settle` read the same
        value, so each (M, p) pays for one `hom_dim` at most.  The work is
        pure, so threads that race to it keep equal values."""
        p = rep_p.field
        if p not in self._ends:
            self._ends[p] = hom_dim(rep_p, rep_p)
        return self._ends[p]

    def rigid(self) -> bool:
        """Whether Ext^1(M, M) = 0, that is `end` equal to form = <d, d> >= 1.

        Rigid M has dim End(M) = <d, d> >= 1, so End is not asked where
        <d, d> < 1 (regular Kronecker modules, the plane quartic), and M on
        a quiver with cycles, which has no Euler form, counts as not rigid.
        """
        return self.form is not None and self.form >= 1 and self.end() == self.form

    def certified(self) -> bool:
        """Whether Ringel's theorem covers M (module docstring): M is rigid
        (`rigid`) and the quiver's Tits form is positive definite
        (`model.Quiver.is_dynkin`), so every component has type A, D or E."""
        return self.rigid() and self.rep.quiver.is_dynkin

    def rigid_dimension(self, e: Sequence[int]) -> int | None:
        """<e, d - e> when M is rigid (`rigid`), the dimension of Gr_e(M)
        where it is not empty (module docstring), else None."""
        if not self.rigid():
            return None
        return euler_form(self.rep.quiver, e, [d - x for d, x in zip(self.rep.dims, e)])

    def degree_bound(self, e: Sequence[int]) -> int:
        """The a-priori bound on the degree of the counting polynomial at e.

        Walk the vertices in the search order of `subspaces` (topological,
        else by index).  For each vertex v let s_v be the largest of 0 and of
        e_u - (d_u - rank_Q phi_a) over the arrows a: u -> v with u earlier
        in the order.  The forward bound is sum_v max(0, e_v - s_v) *
        (d_v - e_v); the backward bound is the same quantity for the dual on
        the opposite quiver at d - e (transposes keep their ranks).  The
        bound is the smaller one, each side a `fiber_bound`.

        Why it is sound: take a prime at which every phi_a keeps its rank
        over Q, which `good_primes` checks.  Given the earlier vertices, U_v
        contains the span forced by their images, of dimension f >= s_v, so
        U_v ranges over at most binom_q(d_v - f, e_v - f) subspaces, a number
        non-increasing in f.  Hence #Gr_e(M)(F_q) <= prod_v binom_q(d_v - s_v,
        e_v - s_v), and a polynomial matching the counts at infinitely many
        primes has degree at most sum_v (e_v - s_v)(d_v - e_v).
        Gr_{d-e}(M*) has the same points, so the backward bound holds as well.
        """
        return min(self.fiber_bound(False, e),
                   self.fiber_bound(True, [d - x for d, x in zip(self.rep.dims, e)]))

    def fiber_bound(self, backward: bool, e: Sequence[int]) -> int:
        """sum_v max(0, e_v - s_v) * (d_v - e_v) in one search direction (e
        the searched dimension vector, d - e on the dual), with s_v from the
        arrows that force part of U_v there: one side of `degree_bound`.
        They are read off the walk's routing, `subspaces._routing(quiver,
        backward)`: its `forced_in` and `out`, with `ranks`.  At a shortcut
        walk's key, 0 at the final vertex, which therefore adds nothing, it
        is B_F, the bound summed over the searched vertices."""
        route, dims = _routing(self.rep.quiver, backward), self.rep.dims
        order, forced = route.order, [0] * len(e)
        for at, arrivals in enumerate(route.forced_in):
            for src, k in arrivals:
                u, v = order[src], order[at]
                forced[v] = max(forced[v], e[u] - dims[u] + self.ranks[route.out[src][k]])
        return sum(max(0, x - s) * (d - x) for x, s, d in zip(e, forced, dims))

    def closed_form(self, e: Sequence[int], why: bool = False) -> tuple:
        """(P_e, the reason, <e, d - e>), each or None.  P_e when it needs no
        prime, and then, given why, the reason, naming vertices 1-based, as in
        files (only `euler --verbose` shows one); `rigid_dimension(e)` where
        the arrow tests leave e to rigidity, so `_settle` reads it once per
        e.  The first of these that holds decides:
        - an arrow's rank rules e out (the arrow test): P_e = 0;
        - no arrow constrains e: P_e = prod_v binom_q(d_v, e_v)
          (`_grassmannians`);
        - M is rigid (`rigid`) and <e, d - e> < 0: P_e = 0.
        """
        dims, constrained = self.rep.dims, False
        for u, v, r in self.active:  # an arrow of rank 0 neither rules out nor constrains
            if r > dims[u] - e[u] + e[v]:
                return (), (f"arrow {u + 1} -> {v + 1} of rank {r} forces dim U_{v + 1} >= "
                            f"{e[u] - dims[u] + r} > e_{v + 1} = {e[v]}" if why else None), None
            constrained = constrained or (e[u] and e[v] < dims[v])
        if not constrained:
            reason = "no arrow constrains e: Gr_e(M) is a product of Grassmannians"
            return _grassmannians(dims, e), reason if why else None, None
        dimension = self.rigid_dimension(e)
        if dimension is not None and dimension < 0:
            return (), f"M is rigid and <e, d - e> = {dimension} < 0" if why else None, dimension
        return None, None, dimension


@lru_cache(maxsize=1024)
def _grassmannians(dims: tuple[int, ...], e: tuple[int, ...]) -> tuple[int, ...]:
    """prod_v binom_q(d_v, e_v) (`subspaces._gauss_product` over every
    vertex), through its values at B_e + 1 integers, B_e = sum_v e_v (d_v -
    e_v) its degree, and 1 with no value when B_e = 0 (every Gr(e_v, d_v) a
    point, as at every e of a thin d); remembered per (d, e), so each
    product is interpolated once per process."""
    degree = sum(x * (d - x) for d, x in zip(dims, e))
    if not degree:
        return (1,)
    return _interpolant(tuple((q, _gauss_product(dims, e, q, range(len(dims))))
                              for q in range(2, degree + 3)))


@lru_cache(maxsize=64)
def _sampling(rep: Representation) -> _Sampling:
    """The sampling context of rep, shared by every caller in this process."""
    return _Sampling(rep)


def good_primes(rep: Representation, how_many: int) -> list[int]:
    """First odd primes at which reduction keeps every matrix at its rank over Q.

    2 is never used; a prime where some matrix drops below its rank over Q
    (or where a denominator vanishes) is skipped and replaced by the next.
    This does not catch a prime at which the isomorphism type of M changes
    while every rank holds, such as a jump of End: R_1 + R_4 on the
    Kronecker quiver (phi1 = I, phi2 = diag(1, 4)) passes at p = 3, where
    its eigenvalues collide and the count at (1, 1) is 4, not 2.

    The primes, with their reductions, are remembered per representation in
    this process, for the 64 representations used last; nothing is shared
    between processes, so each CLI invocation chooses them afresh.
    """
    how_many = _as_int(how_many, "how_many")
    if how_many < 0:
        raise ValueError(f"how_many must be nonnegative, got {how_many}")
    return [p for p, _ in islice(_sampling(rep).reductions(), how_many)]


def _rank_fits(walks: Sequence[tuple[int, tuple]], fiber_bound: int
               ) -> dict[int, tuple[int, ...] | None]:
    """N_k for every rank k that one fiber's walk reached, fitted once.

    walks are (p, rank histogram) pairs of the same walk at the primes
    sampled so far, fiber_bound + 1 + HELD_OUT of them.  Each N_k maps to
    its coefficients when it passes `_fit` with the fiber bound, held-out
    primes included, and to None otherwise.
    """
    tables = [(p, dict(ranks)) for p, ranks in walks]
    return {k: _fit([(p, ranks.get(k, 0)) for p, ranks in tables], fiber_bound)[0]
            for k in sorted({k for _, ranks in tables for k in ranks})}


def _through(ints: tuple[int, ...] | None, samples: Sequence[tuple[int, int]]
             ) -> tuple[int, ...] | None:
    """ints if the polynomial they give reproduces every sampled count, else None."""
    if ints is None or any(_evaluate(ints, p) != count for p, count in samples):
        return None
    return ints


def _fiber_fit(fits: dict[int, tuple[int, ...] | None], d: int, x: int,
               samples: Sequence[tuple[int, int]], degree_bound: int
               ) -> tuple[int, ...] | None:
    """P_e from its fiber's N_k coefficients (`_rank_fits`), or None.

    d is the final vertex's dimension and x the searched e's entry there.
    Every N_k with k <= x must have fitted; then P_e(q) = sum_{k <= x}
    N_k(q) * binom_q(d - k, x - k) is evaluated at degree_bound + 1
    integers and interpolated.  It must reproduce every sample; None leaves
    e to the per-e test.
    """
    fitted = [(k, n) for k, n in fits.items() if k <= x]
    if any(n is None for _, n in fitted):
        return None
    nodes = tuple((q, _fiber_count([(k, _evaluate(n, q)) for k, n in fitted], d, x, q))
                  for q in range(2, degree_bound + 3))
    return _through(_interpolant(nodes), samples)


@lru_cache(maxsize=256)
def _palindrome(nodes: tuple[tuple[int, int], ...], degree: int) -> tuple[int, ...] | None:
    """Coefficients (ascending) of the palindrome of the degree through the
    nodes, c_i = c_{degree - i}, or None when one of them is not an integer
    or the fit is nonzero with c_0 = 0 (so of smaller degree).

    There are degree // 2 + 1 nodes, one per unknown c_0..c_{degree // 2}.
    The system is nonsingular: a palindrome P of the degree is
    q^h (1 + q)^r Q(q + 1/q) with h = degree // 2, r = degree % 2 and deg Q
    <= h, and q + 1/q takes distinct values at distinct primes.  So one
    fraction-free Gauss-Jordan elimination of the integer rows over Q
    (`linalg.gauss_jordan`) leaves row i with its one lead at column i,
    and c_i is its constant divided by that lead, an integer exactly when
    the division leaves no remainder.  Remembered like `_interpolant`.
    """
    half = degree // 2
    rows = [[p ** i + p ** (degree - i) if 2 * i < degree else p ** i for i in range(half + 1)]
            + [count] for p, count in nodes]
    linalg.gauss_jordan(rows, half + 1, None)  # row i leads at column i
    solved = [divmod(row[-1], row[i]) for i, row in enumerate(rows)]
    low = [c for c, _ in solved]
    if any(r for _, r in solved) or (low[0] == 0 and any(low)):
        return None
    if not any(low):
        return ()
    return tuple(low[min(i, degree - i)] for i in range(degree + 1))


def _palindrome_fit(samples: Sequence[tuple[int, int]], degree: int) -> tuple[int, ...] | None:
    """The palindrome of the degree through the first degree // 2 + 1 samples
    (`_palindrome`), if it reproduces every later one, else None."""
    nodes = degree // 2 + 1
    return _through(_palindrome(tuple(samples[:nodes]), degree), samples[nodes:])


def _settle(rep: Representation, es: Sequence[tuple[int, ...]], cap: int | None
            ) -> Iterator[tuple[tuple[int, ...], CountingPolynomial | NonPolynomialCount]]:
    """Yield (e, its verified counting polynomial or its rejection) for every e
    in es (distinct, in the box), in order, once all are sampled.

    First `_Sampling.closed_form` settles every e it can, with no sample
    (an arrow rules e out, no arrow constrains e, or M is rigid and
    <e, d - e> < 0), and a set it settles whole is yielded at once, with
    no bound, sample, plan or prime worked out; such an e reports the
    degree of its closed form as its degree bound.  Only the
    rest has its degree bound worked out (`_Sampling.degree_bound`), and it
    is planned at its first prime (`subspaces._plan`), which also fixes each
    e's walk, its direction and key, and so its fiber's bound B_F and final
    vertex.  At each prime every e still pending is counted in one
    `subspaces._count_planned` call, which shares the search work across
    the set.  The verdicts read samples[e], the (p, count) pairs of e,
    and walks[walk], the (p, rank histogram) pairs of each shortcut walk,
    from which each fiber's N_k are fitted once (`_rank_fits`, kept in
    fits, as the decided e's are in settled; the module docstring says
    what a dropped prime must reset).  From them every pending e is
    decided anew at each prime, by its number n of samples, with
    h = HELD_OUT held-out primes, or h = 0 when M is certified
    (`_Sampling.certified`, module docstring), whose primes with
    End(M mod p) > <d, d> are skipped unsampled:
    - the per-e test (`_fit` with the degree bound) leaves e to the final
      `interpolate_counting_polynomial` (with h held out) when its samples
      prove it not polynomial in q, or when n = bound + 1 + h;
    - for rigid M and D = <e, d - e> >= 0, the rigidity test tries
      `_palindrome_fit` at n = D // 2 + 1 + h;
    - the fiber test tries `_fiber_fit` at n = B_F + 1 + HELD_OUT;
    - otherwise e stays pending.
    The per-e test is asked first, so the fiber and rigidity tests are
    reached only where their bound is below the degree bound, where they
    can save a prime, and neither rejects.  No prime is taken after the
    last e is settled.  The cap is read once, here, when it is None.
    """
    sampling = _sampling(rep)
    cap = read_cap(cap)
    settled, degrees = {}, {}  # degrees: <e, d - e> for rigid M, else None
    for e in es:
        ints, _, degrees[e] = sampling.closed_form(e)
        if ints is not None:
            settled[e] = ints
    if len(settled) == len(es):  # the closed forms settle the whole set
        for e in es:
            yield e, CountingPolynomial(settled[e], e, (), max(len(settled[e]) - 1, 0))
        return
    pending = [e for e in es if e not in settled]
    certified = sampling.certified()
    held_out = 0 if certified else HELD_OUT  # the fiber test keeps HELD_OUT
    bounds = {e: max(len(settled[e]) - 1, 0) if e in settled else sampling.degree_bound(e)
              for e in es}  # a closed form's degree, else the arrow bound
    samples = {e: [] for e in es}
    walks, fits = {}, {}
    primes = sampling.reductions()
    plan = None
    while pending:
        p, rep_p = next(primes)
        if certified and sampling.end_mod(rep_p) != sampling.form:
            continue  # End jumps at p, so M mod p is not of M's type
        if plan is None:
            plan = _plan(rep_p, pending)
            fiber_bounds = {walk: sampling.fiber_bound(*walk) for walk in
                            {entry[:2] for entry in plan.values()}
                            if _routing(rep.quiver, walk[0]).shortcut}
        counts, walked = _count_planned(rep_p, plan, pending, cap)
        for walk in fiber_bounds.keys() & walked.keys():
            walks.setdefault(walk, []).append((p, walked[walk]))
        still = []
        for e in pending:
            got, bound = samples[e], bounds[e]
            got.append((p, counts[e]))
            n = len(got)
            if _fit(got, bound)[1] is not None or n == bound + 1 + held_out:
                continue  # the per-e test decides e
            ints, degree = None, degrees[e]
            if degree is not None and n == degree // 2 + 1 + held_out:
                ints = _palindrome_fit(got, degree)
            backward, key, x = plan[e]
            walk = backward, key
            fiber_bound = fiber_bounds.get(walk, bound)
            if ints is None and n == fiber_bound + 1 + HELD_OUT:
                if walk not in fits:
                    fits[walk] = _rank_fits(walks[walk], fiber_bound)
                final = rep.dims[_routing(rep.quiver, backward).order[-1]]
                ints = _fiber_fit(fits[walk], final, x, got, bound)
            if ints is None:
                still.append(e)
            else:
                settled[e] = ints
        pending = still
    for e, bound in bounds.items():
        if e in settled:
            result = CountingPolynomial(settled[e], e, tuple(samples[e]), bound)
        else:
            try:
                result = interpolate_counting_polynomial(samples[e], bound, dim_vector=e,
                                                         held_out=held_out)
            except NonPolynomialCount as exc:
                result = exc
        yield e, result


def counting_polynomial(rep: Representation, e: Sequence[int],
                        cap: int | None = None) -> CountingPolynomial:
    """Sample, interpolate, and validate the point-count polynomial for e.

    Sampling stops at the first prime whose count proves the counts are
    not polynomial in q, and the NonPolynomialCount names only the primes
    sampled up to there.  e is one set of `_settle`, so an e that
    `_Sampling.closed_form` settles takes no prime and has no arrow bound
    worked out (see `CountingPolynomial.degree_bound`).
    """
    (_, result), = _settle(rep, _in_box(rep.dims, [e]), cap)
    if isinstance(result, NonPolynomialCount):
        raise result
    return result


def euler_characteristic(rep: Representation, e: Sequence[int],
                         cap: int | None = None) -> int:
    """chi(Gr_e) as the verified counting polynomial evaluated at q = 1."""
    return counting_polynomial(rep, e, cap).chi


def iter_box_chi(rep: Representation, cap: int | None = None):
    """Yield (e, chi, error) over the whole box, lexicographically.

    chi is None exactly when the counts at e were rejected as non-polynomial,
    in which case `error` carries the NonPolynomialCount.  The box is sampled
    as one set (see `_settle`): e takes none when `_Sampling.closed_form`
    settles it, and otherwise the first degree_bound(e) + 1 + HELD_OUT
    primes (degree_bound(e) + 1 for a certified M), or fewer when they
    already reject it or its fiber or rigidity settles it; only the latter
    e have their degree bound worked out.
    """
    for e, result in _settle(rep, list(product(*(range(d + 1) for d in rep.dims))), cap):
        if isinstance(result, NonPolynomialCount):
            yield e, None, result
        else:
            yield e, result.chi, None


def f_polynomial(rep: Representation, cap: int | None = None) -> FPolynomial:
    """Generating polynomial sum_e chi(Gr_e) u^e over the whole box 0 <= e <= dims.

    Zero coefficients are omitted.  The constant term is 1 (the zero
    subrepresentation) and the coefficient at u^dims is 1 (the full one).
    The box's e are int tuples of length n and every chi is an int, so the
    terms are clean as built.
    """
    terms: dict[tuple, int] = {}
    for e, chi, err in iter_box_chi(rep, cap):
        if err is not None:
            raise err
        if chi:
            terms[e] = chi
    return FPolynomial._trusted(rep.n, terms)
