"""Exception hierarchy for the quivergrass library."""


class QuivergrassError(Exception):
    """Base class for all quivergrass errors."""


class ParseError(QuivergrassError):
    """Malformed input file, JSON document, or command-line value."""


class ShapeMismatch(QuivergrassError):
    """A representation matrix does not match its arrow's source/target dims,
    or (arrow_index -1) the dimension vector or matrix count is wrong.
    arrow_index is 0-based; the message counts arrows from 1, as files do."""

    def __init__(self, arrow_index: int, detail: str = ""):
        self.arrow_index = arrow_index
        msg = ("shape mismatch" if arrow_index < 0
               else f"matrix shape mismatch at arrow {arrow_index + 1}")
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class MixedScalarDomains(QuivergrassError):
    """Operands live in different scalar domains (Z/Q vs F_p, or different p)."""


class DomainMismatch(QuivergrassError):
    """A prime-field operation received data over a different prime (or none)."""


class QuiverMismatch(QuivergrassError):
    """Two representations are not over the same quiver."""


class NotAcyclic(QuivergrassError):
    """Operation requires an acyclic quiver."""


class DegenerateBase(QuivergrassError):
    """Gaussian binomial evaluated at q = 1 (division by zero in the q-analog)."""


class SearchTooLarge(QuivergrassError):
    """Enumeration work exceeded the cap; detail names the refused walk."""

    def __init__(self, estimate: int, cap: int, visited: int | None = None,
                 detail: str = ""):
        self.estimate = estimate
        self.cap = cap
        self.visited = visited
        msg = f"search size estimate {estimate} exceeds cap {cap}"
        if visited is not None:
            msg = f"enumeration visited more than cap {cap} candidates (estimate {estimate})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class InsufficientSamples(QuivergrassError):
    """Too few point-count samples for the requested interpolation degree."""


class NonPolynomialCount(QuivergrassError):
    """Point counts are not given by one integer polynomial in q.

    Happens for genuinely non-polynomial-count varieties, e.g. the plane
    quartic curve produced by the `example4` pipeline.
    """


class VariableCountMismatch(QuivergrassError):
    """Polynomials in different numbers of variables."""


class OutOfRange(QuivergrassError):
    """Dimension vector outside the admissible box."""

    def __init__(self, e):
        self.e = tuple(e)
        super().__init__(f"dimension vector {self.e} outside the admissible box")


class NotAnOrientation(QuivergrassError):
    """Quiver is not an orientation of the given Dynkin diagram."""


class NotInAnyFundamentalOrbit(QuivergrassError):
    """The gamma-weight lies in no fundamental-weight orbit; implementation bug."""


class ScopeError(QuivergrassError):
    """Requested operation is outside the implemented scope."""


class SearchExhausted(QuivergrassError):
    """Random search for a certified representation ran out of attempts."""


class DegenerateForm(QuivergrassError):
    """The determinantal form vanished identically; resample the input."""


class SmoothnessFailure(QuivergrassError):
    """A singular point was found on the curve modulo some prime."""

    def __init__(self, prime: int, point):
        self.prime = prime
        self.point = tuple(point)
        super().__init__(f"singular point {self.point} on the curve mod {prime}")


class CountMismatch(QuivergrassError):
    """Curve point count and Grassmannian point count disagree at a prime."""

    def __init__(self, prime: int, detail: str = ""):
        self.prime = prime
        msg = f"point-count mismatch at p = {prime}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
