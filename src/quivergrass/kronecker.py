"""The two-arrow Kronecker quiver: indecomposables and closed-form chi.

The quiver has vertices 1, 2 and two parallel arrows 1 -> 2.  Its
indecomposables fall into three families: preprojectives of dimension
vector (m-1, m), preinjectives of dimension vector (m, m-1), and regular
modules of dimension vector (m, m) parameterized by a point lambda of the
projective line (lambda = INFINITY is a first-class value).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import OutOfRange
from .model import Quiver, Representation, _as_int


class _Infinity:
    """The point at infinity of the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()

PREPROJECTIVE = "pr"
PREINJECTIVE = "inj"
REGULAR = "reg"


@dataclass(frozen=True)
class KroneckerKind:
    """One indecomposable family member: family pr|inj|reg, size m, and
    (for regular only) the parameter lambda."""

    family: str
    m: int
    lam: object = None

    def __post_init__(self):
        if self.family not in (PREPROJECTIVE, PREINJECTIVE, REGULAR):
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "m", _as_int(self.m, "m"))
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.family == REGULAR:
            if self.lam is None:
                raise ValueError("regular modules need a lambda (rational or INFINITY)")
            if self.lam is not INFINITY:
                object.__setattr__(self, "lam", Fraction(self.lam))
        elif self.lam is not None:
            raise ValueError(f"{self.family} takes no lambda")


def preprojective(m: int) -> KroneckerKind:
    return KroneckerKind(PREPROJECTIVE, m)


def preinjective(m: int) -> KroneckerKind:
    return KroneckerKind(PREINJECTIVE, m)


def regular(m: int, lam) -> KroneckerKind:
    return KroneckerKind(REGULAR, m, lam)


def kronecker_quiver(arrow_count: int = 2) -> Quiver:
    """Two vertices with arrow_count parallel arrows 1 -> 2 (0-based: 0 -> 1)."""
    return Quiver(2, tuple((0, 1) for _ in range(arrow_count)))


def dims_of(kind: KroneckerKind) -> tuple[int, int]:
    m = kind.m
    if kind.family == PREPROJECTIVE:
        return (m - 1, m)
    if kind.family == PREINJECTIVE:
        return (m, m - 1)
    return (m, m)


def binom_ext(n: int, k: int) -> int:
    """Falling-factorial binomial: 0 for k < 0, and defined for any integer n.

    binom_ext(-1, 0) = 1 and binom_ext(1, -1) = 0, which is exactly the
    boundary convention the closed-form chi formulas need at e = 0.
    """
    n, k = _as_int(n, "n"), _as_int(k, "k")
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= n - j
    return num // factorial(k)


def ordinary_grassmannian_chi(m: int, e: int) -> int:
    """chi of the e-plane Grassmannian of an m-space: C(m, e), 0 outside."""
    m, e = _as_int(m, "ambient dimension"), _as_int(e, "subspace dimension")
    if m < 0:
        raise ValueError("ambient dimension must be non-negative")
    return binom_ext(m, e)  # 0 for e < 0 and, by its factor m - m, for e > m


def kronecker_chi(kind: KroneckerKind, e) -> int:
    """Closed-form chi(Gr_e) for one Kronecker indecomposable.

    The preprojective and regular formulas are the classical binomial
    products.  The preinjective family is the vector-space dual of the
    preprojective family (with the two vertices swapped), which transports
    the preprojective formula to chi^inj(e1, e2) = chi^pr(m-1-e2, m-e1);
    the brute-force cross-validation suite is the arbiter for this
    convention.  The regular formula does not depend on lambda.
    """
    e1, e2 = (_as_int(x, "dimension vector entry") for x in e)
    d1, d2 = dims_of(kind)
    if not (0 <= e1 <= d1 and 0 <= e2 <= d2):
        raise OutOfRange((e1, e2))
    m = kind.m
    if kind.family == PREPROJECTIVE:
        return binom_ext(m - e1, e2 - e1) * binom_ext(e2 - 1, e1)
    if kind.family == REGULAR:
        return binom_ext(m - e1, e2 - e1) * binom_ext(e2, e1)
    return kronecker_chi(preprojective(m), (m - 1 - e2, m - e1))


def _identity(k: int) -> tuple:
    return tuple(tuple(1 if c == r else 0 for c in range(k)) for r in range(k))


def _jordan(k: int, lam) -> tuple:
    return tuple(
        tuple(lam if c == r else (1 if c == r + 1 else 0) for c in range(k))
        for r in range(k))


def build_kronecker(kind: KroneckerKind) -> Representation:
    """Explicit matrices for one indecomposable, integral where possible.

    Preprojective (m-1 -> m): phi1 = identity stacked over a zero row,
    phi2 = a zero row stacked over the identity.  Preinjective (m -> m-1):
    phi1 = [I | 0], phi2 = [0 | I].  Regular with finite lambda: phi1 = I,
    phi2 = the Jordan block J_m(lambda); lambda = INFINITY swaps in
    phi1 = J_m(0), phi2 = I.  Any choice in the isomorphism class would do,
    since chi is an iso invariant.
    """
    m = kind.m
    q = kronecker_quiver()
    if kind.family == PREPROJECTIVE:
        phi1 = tuple(tuple(1 if c == r else 0 for c in range(m - 1)) for r in range(m))
        phi2 = tuple(tuple(1 if c == r - 1 else 0 for c in range(m - 1)) for r in range(m))
        return Representation(q, (m - 1, m), (phi1, phi2))
    if kind.family == PREINJECTIVE:
        phi1 = tuple(tuple(1 if c == r else 0 for c in range(m)) for r in range(m - 1))
        phi2 = tuple(tuple(1 if c == r + 1 else 0 for c in range(m)) for r in range(m - 1))
        return Representation(q, (m, m - 1), (phi1, phi2))
    if kind.lam is INFINITY:
        return Representation(q, (m, m), (_jordan(m, 0), _identity(m)))
    return Representation(q, (m, m), (_identity(m), _jordan(m, kind.lam)))
