"""Exact multivariate polynomial arithmetic over arbitrary-precision rationals.

Everything downstream (residue computation, differential operators, lattice
interpolation) runs on the two primitives defined here:

* coefficients are ``fractions.Fraction``, so every result is an exact
  rational identity rather than a floating-point approximation;
* a polynomial is a sparse map from exponent vectors to nonzero
  coefficients, kept in canonical form (no stored zeros, fixed-width
  exponent tuples).

Terms are ordered graded-lexicographically with a1 > a2 > ... > an: higher
total degree first, ties broken by comparing exponents left to right.  The
``render`` output in that order is the canonical text form frozen by the
golden tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Callable, Iterator, Mapping, Sequence

# Scalars are stdlib Fractions: denominator > 0 and gcd-reduced by
# construction, which is exactly the canonical form the engine relies on.
Rational = Fraction

Exponents = tuple[int, ...]
Scalar = Fraction | int


def binomial_series_coeff(m: int, k: int) -> int:
    """k-th Taylor coefficient of (1 - u)^(-m), i.e. C(m - 1 + k, k)."""
    if m < 1:
        raise ValueError(f"pole order must be >= 1, got {m}")
    if k < 0:
        raise ValueError(f"series index must be >= 0, got {k}")
    return math.comb(m - 1 + k, k)


def grlex_key(exponents: Exponents) -> tuple:
    """Sort key putting monomials in descending graded-lex order."""
    return (-sum(exponents), tuple(-e for e in exponents))


def homogeneous_monomials(nvars: int, degree: int) -> list[Exponents]:
    """All exponent vectors of the given total degree, descending graded-lex."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")

    def emit(prefix: tuple[int, ...], remaining: int, slots: int) -> Iterator[Exponents]:
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining, -1, -1):
            yield from emit(prefix + (e,), remaining - e, slots - 1)

    return list(emit((), degree, nvars))


class MultiPoly:
    """Sparse polynomial in ``nvars`` variables with Fraction coefficients.

    Instances are treated as immutable: no method mutates ``terms`` after
    construction, so values can be shared freely (including across threads).

    Validation happens once, at the boundary.  The public constructor and the
    ``zero``/``constant``/``one``/``variable``/``monomial`` classmethods check
    exponent lengths and signs and coerce every coefficient to a nonzero
    ``Fraction``.  Arithmetic, ``partial``, ``embed`` and operator
    application trust their canonical operands, drop cancelled zeros
    themselves and wrap their output with ``_trusted``, without checking it
    again.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Scalar] | None = None):
        if nvars < 1:
            raise ValueError("polynomial needs at least one variable")
        canonical: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not have length {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            value = Fraction(coeff)
            if value:
                canonical[exps] = value
        self.nvars = nvars
        self.terms = canonical

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "MultiPoly":
        """Wrap ``terms`` as is; the caller guarantees canonical form.

        That is: tuple keys of length ``nvars`` with nonnegative entries, and
        nonzero ``Fraction`` values.  The dict is not copied, so the caller
        must not keep mutating it.
        """
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        """The variable a_index (1-based), as a polynomial."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        return cls(len(exps), {tuple(exps): coeff})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int | None:
        """Maximum term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True when every term has the same total degree (zero counts)."""
        degrees = {sum(e) for e in self.terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    # -- arithmetic --------------------------------------------------------

    def _require_same_shape(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same_shape(other)
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = merged.pop(exps, 0) + coeff
            if total:
                merged[exps] = total
        return MultiPoly._trusted(self.nvars, merged)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly._trusted(self.nvars, {})
            return MultiPoly._trusted(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same_shape(other)
        product: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                product[exps] = product.get(exps, 0) + c1 * c2
        return MultiPoly._trusted(self.nvars, {e: c for e, c in product.items() if c})

    def __rmul__(self, other: Scalar) -> "MultiPoly":
        return self * other

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one(self.nvars)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def partial(self, index: int) -> "MultiPoly":
        """Exact partial derivative with respect to variable ``index`` (1-based)."""
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        i = index - 1
        # Lowering exponent i is injective on the terms it keeps, so no two
        # terms merge and no coefficient cancels.
        derived = {
            exps[:i] + (exps[i] - 1,) + exps[i + 1:]: coeff * exps[i]
            for exps, coeff in self.terms.items()
            if exps[i]
        }
        return MultiPoly._trusted(self.nvars, derived)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact evaluation at a point of rationals, in integer arithmetic.

        With a_i = n_i/d_i and top_i the largest exponent of a_i, every term
        c * prod a_i^e_i equals c * prod n_i^e_i d_i^(top_i - e_i) divided by
        the common D = prod d_i^top_i.  So the integer products are summed per
        coefficient denominator and only those few sums become Fractions.
        """
        values = [Fraction(v) for v in point]
        if len(values) != self.nvars:
            raise ValueError(f"point has length {len(values)}, expected {self.nvars}")
        if not self.terms:
            return Fraction(0)
        tops = [max(column) for column in zip(*self.terms)]
        tables = [
            [v.numerator ** e * v.denominator ** (top - e) for e in range(top + 1)]
            for v, top in zip(values, tops)
        ]
        by_denominator: dict[int, int] = {}
        for exps, coeff in self.terms.items():
            product = coeff.numerator
            for table, e in zip(tables, exps):
                product *= table[e]
            q = coeff.denominator
            by_denominator[q] = by_denominator.get(q, 0) + product
        common = math.prod(v.denominator ** top for v, top in zip(values, tops))
        return sum(Fraction(total, q) for q, total in by_denominator.items()) / common

    def embed(self, nvars: int, offset: int) -> "MultiPoly":
        """Reindex into a larger variable frame, shifting variables right by ``offset``."""
        if offset < 0 or self.nvars + offset > nvars:
            raise ValueError("embedding does not fit the target variable count")
        shifted = {
            (0,) * offset + exps + (0,) * (nvars - offset - self.nvars): coeff
            for exps, coeff in self.terms.items()
        }
        return MultiPoly._trusted(nvars, shifted)

    # -- rendering ---------------------------------------------------------

    def _render(
        self, factor: Callable[[int, int], str], scalar: Callable[[Fraction], str], sep: str
    ) -> str:
        """Signed terms in canonical order, built from the given pieces.

        ``factor(i, e)`` renders a_i^e for e >= 1, ``scalar`` a positive
        coefficient, and ``sep`` joins the factors of a term and puts a
        coefficient other than 1 in front of them.
        """
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            monomial = sep.join(factor(i, e) for i, e in enumerate(exps, start=1) if e)
            magnitude = abs(coeff)
            if not monomial:
                body = scalar(magnitude)
            elif magnitude == 1:
                body = monomial
            else:
                body = f"{scalar(magnitude)}{sep}{monomial}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def render(self, names: str = "a") -> str:
        """Canonical text form: graded-lex order, explicit rational coefficients."""
        return self._render(
            lambda i, e: f"{names}{i}^{e}" if e > 1 else f"{names}{i}", str, "*"
        )

    def render_latex(self, names: str = "a") -> str:
        """LaTeX rendering in the same canonical term order."""
        return self._render(
            lambda i, e: f"{names}_{{{i}}}^{{{e}}}" if e > 1 else f"{names}_{{{i}}}",
            lambda q: (
                str(q) if q.denominator == 1 else f"\\frac{{{q.numerator}}}{{{q.denominator}}}"
            ),
            " ",
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.render()!r})"

    def __bool__(self) -> bool:
        return bool(self.terms)
