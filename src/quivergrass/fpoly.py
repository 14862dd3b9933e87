"""Sparse multivariate polynomials with integer coefficients.

Terms are stored as a dict from exponent tuples to nonzero integer
coefficients.  Variables print as u1..un unless other names are given.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import VariableCountMismatch
from .model import _as_int


class FPolynomial:
    """Polynomial in Z[u_1, ..., u_n], held sparsely and immutably by convention."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, int] | None = None):
        self.nvars = _as_int(nvars, "variable count")
        clean: dict[tuple, int] = {}
        if terms:
            for exp, coef in terms.items():
                exp = tuple(_as_int(x, "exponent") for x in exp)
                if len(exp) != self.nvars or any(x < 0 for x in exp):
                    raise ValueError(f"bad exponent vector {exp} for {self.nvars} variables")
                if type(coef) is not int:  # an integral Fraction or float passes
                    if isinstance(coef, bool) or coef != int(coef):
                        raise ValueError(f"coefficient {coef!r} of {exp} is not an integer")
                    coef = int(coef)
                if coef:
                    clean[exp] = coef
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[tuple, int]) -> "FPolynomial":
        """Wrap a term dict that is already clean: int-tuple exponents of
        length nvars, no zero coefficients.  For results of ring operations
        on valid operands; outside input goes through the constructor."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "FPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "FPolynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "FPolynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "FPolynomial":
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FPolynomial):
            if other.nvars != self.nvars:
                raise VariableCountMismatch(
                    f"{self.nvars} variables vs {other.nvars}")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return FPolynomial.constant(self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            new = terms.get(exp, 0) + coef
            if new:
                terms[exp] = new
            else:
                terms.pop(exp, None)
        return FPolynomial._trusted(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return FPolynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(exp, 0) + c1 * c2
                if new:
                    terms[exp] = new
                else:
                    terms.pop(exp, None)
        return FPolynomial._trusted(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = FPolynomial.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            other = FPolynomial.constant(self.nvars, other)
        if not isinstance(other, FPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if set(self.terms) <= {(0,) * self.nvars}:  # a constant equals its int
            return hash(self.constant_term)
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -------------------------------------------------------------

    def coefficient(self, exp: Sequence[int]) -> int:
        return self.terms.get(tuple(exp), 0)

    @property
    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {sum(e) for e in self.terms}
        if not degrees:
            return True
        if degree is None:
            return len(degrees) == 1
        return degrees == {degree}

    def evaluate(self, values: Sequence):
        """Exact evaluation; values may be ints or Fractions."""
        if len(values) != self.nvars:
            raise VariableCountMismatch(
                f"{self.nvars} variables, {len(values)} values")
        total = 0
        for exp, coef in self.terms.items():
            term = coef
            for v, k in zip(values, exp):
                if k:
                    term *= v ** k
            total += term
        return total

    def partial(self, index: int) -> "FPolynomial":
        """Partial derivative with respect to variable `index`.  Lowering that
        exponent by one is injective on the terms it keeps, so none collide."""
        terms: dict[tuple, int] = {}
        for exp, coef in self.terms.items():
            k = exp[index]
            if k:
                terms[exp[:index] + (k - 1,) + exp[index + 1:]] = coef * k
        return FPolynomial._trusted(self.nvars, terms)

    # -- presentation ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms sorted by total degree, then lexicographic exponent."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def to_text(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [f"u{i + 1}" for i in range(self.nvars)]
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exp, coef in self.sorted_terms():
            factors = []
            for name, k in zip(names, exp):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(coef)
            if factors:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(("+ " if coef > 0 else "- ") + body)
        return " ".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"FPolynomial({self.nvars}, {self.to_text()!r})"

    # -- JSON schema -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"vars": n, "terms": [{"exp": [...], "coef": c}, ...]} lex-sorted."""
        return {
            "vars": self.nvars,
            "terms": [
                {"exp": list(exp), "coef": coef}
                for exp, coef in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FPolynomial":
        terms = {tuple(t["exp"]): t["coef"] for t in data["terms"]}
        return cls(data["vars"], terms)


def f_poly_multiply(f: FPolynomial, g: FPolynomial) -> FPolynomial:
    """Exact product; raises VariableCountMismatch on differing variable counts."""
    return f * g
