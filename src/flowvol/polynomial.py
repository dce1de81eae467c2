"""Exact multivariate polynomial arithmetic over arbitrary-precision rationals.

Everything downstream (residue computation, differential operators, lattice
interpolation) runs on the two primitives defined here:

* coefficients are nonzero rationals: ``fractions.Fraction``, or ``int``
  for the integer weights of the residue step and of every operator (see
  ``residue`` and ``diffop``), so every result is an exact rational
  identity rather than a floating-point approximation;
* a polynomial is a sparse map from exponent vectors to nonzero
  coefficients, kept in canonical form (no stored zeros, fixed-width
  exponent tuples).

Terms are ordered graded-lexicographically with a1 > a2 > ... > an: higher
total degree first, ties broken by comparing exponents left to right.  The
``render`` output in that order is the canonical text form frozen by the
golden tests.

The divided-power transform is kept here, one function each way.  On
divided powers a^e/e! every constant-coefficient partial derivative is a
shift of the keys, so the residue, the operator system and the lift all work
on the table T(p)_e = e! p_e of a polynomial p.  ``divided_powers`` writes
T(p), ``from_divided_powers`` reads a table back as its polynomial, and
``divided_coefficient`` reads one coefficient p_e off T(p); ``evaluate`` and
``render`` read a table in place with ``divided=True``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import add, getitem, mul
from typing import Callable, Mapping, Sequence

Exponents = tuple[int, ...]
Scalar = Fraction | int


def binomial_series_coeff(m: int, k: int) -> int:
    """k-th Taylor coefficient of (1 - u)^(-m), i.e. C(m - 1 + k, k), for m >= 1 and k >= 0."""
    return math.comb(m - 1 + k, k)


def homogeneous_monomials(nvars: int, degree: int, caps: Sequence[int] = ()) -> list[Exponents]:
    """All exponent vectors of the given total degree, descending graded-lex.

    ``caps[t]``, for t < nvars - 1, bounds the sum of the last t + 1 entries
    (later caps are ignored); the vectors over a cap are never built, and the
    others keep their order.  nvars >= 1 and degree >= 0 are trusted; every
    caller passes them so.
    """

    def prepend(tails: list[list[Exponents]], k: int) -> list[Exponents]:
        """The total-k vectors with one more leading variable, in order."""
        return [(e,) + tail for e in range(k, -1, -1) for tail in tails[k - e]]

    # tails[k] lists the vectors of the last t + 1 variables with total k, in
    # order: first the last variable alone, then one more variable a pass;
    # it is empty when k is above tops[t]
    tops = list(caps[: nvars - 1]) + [degree] * nvars
    tails = [[(k,)] if k <= tops[0] else [] for k in range(degree + 1)]
    for t in range(1, nvars - 1):
        tails = [prepend(tails, k) if k <= tops[t] else [] for k in range(degree + 1)]
    return prepend(tails, degree) if nvars > 1 else tails[degree]


def table_sum(run: Mapping[Exponents, Scalar], table: Mapping[Exponents, Scalar]) -> dict[Exponents, Scalar]:
    """A new table run + table: run copied, table's entries added into it, cancelled keys dropped.

    A key new to the copy is stored as it is, with no add against zero, so
    only a key both tables hold pays for an add, and only such a key can
    cancel.  ``MultiPoly.__add__`` and the residue's running sums use it.
    """
    total = dict(run)
    get = total.get
    for exps, coeff in table.items():
        old = get(exps)
        if old is None:
            total[exps] = coeff
        elif coeff := old + coeff:
            total[exps] = coeff
        else:
            del total[exps]
    return total


class MultiPoly:
    """Sparse polynomial in ``nvars`` variables with nonzero rational coefficients.

    Instances are treated as immutable: no method mutates ``terms`` after
    construction, so values can be shared freely (including across threads).

    Validation happens once, at the boundary.  The public constructor and the
    ``zero``/``one``/``variable``/``monomial`` classmethods take an ``int``
    count, ``int`` exponents of the right length and sign, and ``int`` or
    ``Fraction`` coefficients (no ``bool``), stored as nonzero
    ``Fraction``; ``evaluate`` takes ``int`` or ``Fraction`` entries, and
    ``variable``'s index, the exponent of ``**`` and ``embed``'s count and
    offset are ``int`` (no ``bool``) in range.  Anything else is a
    ``ValueError``.  Arithmetic, ``embed`` and operator
    application trust their canonical operands, drop cancelled zeros
    themselves and wrap their output with ``_trusted``, without checking it
    again.  Arithmetic builds its result in the class it is called on, so a
    subclass such as ``diffop.DiffOperator`` gets its own kind back;
    ``embed`` always builds a plain ``MultiPoly``.  ``+`` and ``*`` store
    the value for a key the result does not hold yet as it is, with no
    ``Fraction`` add against zero; only a key already present pays for an
    add, and only such a key can cancel.  A sum with a zero operand is the
    other operand itself, with no copy.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Scalar] | None = None):
        if type(nvars) is not int or nvars < 1:
            raise ValueError(f"variable count {nvars!r} is not an int >= 1")
        canonical: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} does not have length {nvars}")
            if any(type(e) is not int or e < 0 for e in exps):
                raise ValueError(f"exponent vector {exps} is not of ints >= 0")
            if type(coeff) is not int and not isinstance(coeff, Fraction):
                raise ValueError(f"coefficient {coeff!r} is not an int or Fraction")
            value = Fraction(coeff)
            if value:
                canonical[exps] = value
        self.nvars = nvars
        self.terms = canonical

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponents, Scalar]) -> "MultiPoly":
        """Wrap ``terms`` as is; the caller guarantees canonical form.

        That is: tuple keys of length ``nvars`` with nonnegative entries, and
        nonzero rational values: ``Fraction``, or ``int`` for the integer
        weights of the residue step and of every operator.  The dict is not copied, so the caller
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
    def one(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        """The variable a_index (1-based), as a polynomial."""
        if type(index) is not int or not 1 <= index <= nvars:
            raise ValueError(f"variable index {index!r} out of range 1..{nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        return cls(len(exps), {tuple(exps): coeff})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        # descending (total degree, exponents) is descending graded-lex order, and
        # with one total degree it is descending exponents: the keys are distinct
        if len(set(map(sum, self.terms))) <= 1:
            return sorted(self.terms.items(), reverse=True)
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

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
        if not self.terms or not other.terms:
            return self if self.terms else other
        return self._trusted(self.nvars, table_sum(self.terms, other.terms))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return self._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self._trusted(self.nvars, {})
            return self._trusted(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._require_same_shape(other)
        product: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                old = product.get(exps)
                product[exps] = c1 * c2 if old is None else old + c1 * c2
        return self._trusted(self.nvars, {e: c for e, c in product.items() if c})

    def __rmul__(self, other: Scalar) -> "MultiPoly":
        return self * other

    def __pow__(self, exponent: int) -> "MultiPoly":
        if type(exponent) is not int or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.one(self.nvars)
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, point: Sequence[Scalar], divided: bool = False) -> Fraction:
        """Exact evaluation at a point of rationals, in integer arithmetic.

        With a_i = n_i/d_i and top_i the largest exponent of a_i, every term
        c * prod a_i^e_i equals c * prod n_i^e_i d_i^(top_i - e_i) divided by
        the common D = prod d_i^top_i.  So the value is one sum of
        c * prod n_i^e_i d_i^(top_i - e_i) over the terms, the products read
        from one power table per variable, divided once by D.  On a table of
        ``int`` values, such as a volume's, that is an integer sum and one
        ``Fraction``; a ``Fraction``-valued polynomial, such as a volume's
        ``poly``, pays one ``Fraction`` product and add per term.

        With ``divided``, each value c is read as T(p)_e = e! p_e, the
        divided-power table of the polynomial p that is evaluated (see
        ``from_divided_powers``).  top_i! / e_i! is folded into the power
        table of a_i and prod top_i! into D, so p is evaluated on the same
        path, with no division by e! per term.
        """
        values = tuple(point)  # read once: the point may be an iterator
        if not all(type(v) is int or isinstance(v, Fraction) for v in values):
            raise ValueError(f"point {values} is not of ints or Fractions")
        if len(values) != self.nvars:
            raise ValueError(f"point has length {len(values)}, expected {self.nvars}")
        if not self.terms:
            return Fraction(0)
        tops = [max(column) for column in zip(*self.terms)]
        tables = [
            [v.numerator ** e * v.denominator ** (top - e) * (math.perm(top, top - e) if divided else 1)
             for e in range(top + 1)]
            for v, top in zip(values, tops)
        ]
        total = sum(coeff * math.prod(map(getitem, tables, exps)) for exps, coeff in self.terms.items())
        return Fraction(total, math.prod(v.denominator ** top * (math.factorial(top) if divided else 1)
                                         for v, top in zip(values, tops)))

    def embed(self, nvars: int, offset: int) -> "MultiPoly":
        """Reindex into a larger variable frame, shifting variables right by ``offset``."""
        if type(nvars) is not int or type(offset) is not int or not 0 <= offset <= nvars - self.nvars:
            raise ValueError("embedding does not fit the target variable count")
        shifted = {
            (0,) * offset + exps + (0,) * (nvars - offset - self.nvars): coeff
            for exps, coeff in self.terms.items()
        }
        return MultiPoly._trusted(nvars, shifted)

    # -- rendering ---------------------------------------------------------

    def _render(self, factor: Callable[[int, int], str], fraction: str, sep: str, divided: bool) -> str:
        """Signed terms in canonical order, built from the given pieces.

        ``factor(i, e)`` renders a_i^e for e >= 1, ``fraction`` formats the
        numerator and denominator of a positive non-integer coefficient, and
        ``sep`` joins the factors of a term and puts a coefficient other than 1
        in front of them.  Sign and magnitude come from the coefficient's
        ``numerator`` and ``denominator`` ints, and each a_i^e that occurs is
        rendered once per polynomial.  Each term is one format of its sign,
        as " + " or " - ", its size and its monomial, and the first term's
        sign is cut to "" or "-" before the join.  With ``divided``, each
        value c is read as T(p)_e = e! p_e (see ``evaluate``), and
        p_e = c / e! is reduced with one gcd of c's numerator and e!.
        """
        if not self.terms:
            return "0"
        # each a_i^e that occurs with the separator in front, and "" for e = 0
        tables = [
            {e: sep + factor(i, e) if e else "" for e in set(column)}
            for i, column in enumerate(zip(*self.terms), start=1)
        ]
        factorial = list(accumulate(range(1, max(map(max, self.terms)) + 1), mul, initial=1)) if divided else []
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            monomial = "".join(map(getitem, tables, exps))
            num, den = coeff.numerator, coeff.denominator
            if divided:
                weight = math.prod(map(factorial.__getitem__, exps))
                common = math.gcd(num, weight)
                num, den = num // common, den * (weight // common)
            sign, num = (" - ", -num) if num < 0 else (" + ", num)
            if den != 1:
                size = fraction.format(num, den)
            elif num != 1 or not monomial:
                size = str(num)
            else:
                size, monomial = "", monomial[len(sep):]
            pieces.append(f"{sign}{size}{monomial}")
        # every term is led by its sign as a separator, and the first by its sign alone
        first = pieces[0]
        pieces[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(pieces)

    def render(self, names: str = "a", divided: bool = False) -> str:
        """Canonical text form: graded-lex order, explicit rational coefficients.

        With ``divided``, the values are read as a divided-power table (``_render``).
        """
        return self._render(
            lambda i, e: f"{names}{i}^{e}" if e > 1 else f"{names}{i}", "{}/{}", "*", divided
        )

    def render_latex(self, names: str = "a", divided: bool = False) -> str:
        """LaTeX rendering in the same canonical term order, ``divided`` as in ``render``."""
        return self._render(
            lambda i, e: f"{names}_{{{i}}}^{{{e}}}" if e > 1 else f"{names}_{{{i}}}",
            "\\frac{{{}}}{{{}}}",
            " ",
            divided,
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.render()!r})"

    def __bool__(self) -> bool:
        return bool(self.terms)


def divided_powers(poly: MultiPoly) -> dict[Exponents, Scalar]:
    """The divided-power table T(p) = {e: e! * p_e} of p; ``from_divided_powers`` inverts it.

    An entry is an ``int`` wherever e! * p_e is integral, and a ``Fraction``
    elsewhere, so a volume's table is the residue's integer table.
    """
    table = ((exps, c * math.prod(map(math.factorial, exps))) for exps, c in poly.terms.items())
    return {exps: v.numerator if v.denominator == 1 else v for exps, v in table}


def from_divided_powers(nvars: int, entries: Mapping[Exponents, Scalar], scale: int) -> MultiPoly:
    """The polynomial sum_e F(e) a^e / (scale * e!) of a divided-power table F.

    ``entries`` maps exponent vectors to the values F(e): integers, such as
    the coordinates of a kernel vector, or rationals.  ``scale`` is a nonzero
    integer.  The vectors are trusted as ``MultiPoly._trusted`` trusts its
    keys.  Zero values are dropped, and every other value makes one
    ``Fraction``, with e! read from one table of factorials; an empty
    table, such as the residual of an operator that annihilates its
    polynomial, builds no factorials.
    """
    if not entries:
        return MultiPoly._trusted(nvars, {})
    top = max(map(max, entries))
    factorial = list(accumulate(range(1, top + 1), mul, initial=1))
    return MultiPoly._trusted(nvars, {
        exps: Fraction(value, scale * math.prod(map(factorial.__getitem__, exps)))
        for exps, value in entries.items()
        if value
    })


def divided_coefficient(table: Mapping[Exponents, Scalar], exps: Exponents) -> Fraction:
    """The coefficient T(c)_e / e! of a^e in the polynomial c of a divided-power table."""
    return Fraction(table.get(exps, 0), math.prod(map(math.factorial, exps)))
