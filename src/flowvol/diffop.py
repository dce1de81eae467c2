"""Constant-coefficient differential operators and the annihilating system.

Operators in the partials d_1, ..., d_r commute, so an operator is just a
polynomial in r formal symbols; composition is polynomial multiplication.
The volume polynomial of a rank-r problem is annihilated by one operator per
node: row l contributes

    prod_{j=l+1..r} (d_l - d_j)^m[l,j] * d_l^m[l,r+1]

of order row_sum(l).  Expanding each binomial,

    (d_l - d_j)^m = sum_p C(m, p) d_l^(m-p) (-d_j)^p,

the node operator is sum_q (-1)^q d_l^(row_sum(l) - q) * B_q, where B_q, the
u^q coefficient of prod_{j>l} (1 + u d_j)^m[l,j], is the sum over exponent
vectors (p_(l+1), ..., p_r) with p_(l+1) + ... + p_r = q of
prod_j C(m[l,j], p_j) d_j^p_j.  Distinct vectors give distinct monomials, so
no two terms of the expansion merge, and every coefficient is an integer.
``_node_terms`` is that coefficient rule for any weight in place of C(m, p),
every degree q up to a top from one pass over the weighted monomials of
total at most top, returned as a list of per-degree dicts; its memory and
time grow with that whole output, which is largest for
``induction.OperatorLadder.steps``, a path no command takes.
``pde_system`` uses it with the binomial coefficients, and the
rank-induction operators of ``induction`` use it at node 1.  Both wrap its
canonical integer terms with ``DiffOperator._trusted``, which does not check
them again, so every operator built here holds ``int`` weights, not
``Fraction`` ones.

A ``DiffOperator`` is a ``MultiPoly`` in the symbols d: it is built, added,
multiplied, raised to a power and compared as one, and its sums, products
and powers are operators (``embed`` gives a plain ``MultiPoly``).  It adds
only ``apply``, its rendering in d and a ``poly`` that is the operator
itself.

To test a candidate, ``node_residuals`` never expands a node operator.  It
takes the polynomial in divided powers a^e/e!, as its table T(p)_e =
e! p_e.  A volume's table is the residue's own T(v), the Kostant partition
function values of Meszaros-Morales, with ``int`` values (the ``table`` of
``residue.iterated_residue``); a bare candidate is converted by
``polynomial.divided_powers``.  Either is packed once (``_packed``), and
every image is read back by ``_unpacked``.  On divided powers every partial
derivative is a shift: d_i a^e = e_i a^(e-u_i) and e! = e_i (e-u_i)!, so
d_i maps a^e/e! to a^(e-u_i)/(e-u_i)!, and to 0 when e_i = 0.  So for every
node it applies d_l^m[l,r+1] as one filtered shift of the keys and each
linear factor d_l - d_j, m[l,j] times, as two shifts and one subtraction,
with no multiply, until the table is empty.  Only a nonzero residual is
divided back by e!, in one ``from_divided_powers``.  This is exact:
constant-coefficient operators commute, so applying the factors one after
another gives the same polynomial as applying their expanded product; every
factor maps 0 to 0, so stopping early changes nothing.  ``check-pde``
therefore prints the same residual, term for term, as the expanded operator
gives.  ``_node_image`` is that action of one node operator on a table;
``node_residuals`` and ``solution_space`` both use it.

``DiffOperator.apply`` works on the same table for any operator: d^k maps
a^e/e! to a^(e-k)/(e-k)!, so each (operator term, polynomial term) pair
costs one multiply-add of an operator weight and a table value.  On a
polynomial, each output term makes one ``Fraction``; with ``divided=True``
it reads a table T(p) as it is and returns the table of the image, ``int``
valued when the operator's weights and the table's values are, with no e!
and no ``Fraction`` at all.  The rank-induction
lift (``induction``) calls it that way on every layer u_k: the volume is
v = sum_k a_1^(s-1+k)/(s-1+k)! * u_k, so the entries e'! * coeff_e' of u_k
are the values e! * v_e at e = (s-1+k, e'), integers, and a shift on
divided powers with the integer weights of the lift's signed operator
D_1 - D_2 + D_3 - ... keeps a table integral.

Every table is keyed on one layout of guarded bit fields.  With M the
largest exponent or operator order in play, each field is w = bitlen(M) + 1
bits wide, and e is packed as sum_i (e_i + g) * 2^(w(r-i)), the guard bit
g = 2^(w-1) above M.  A field holds values up to 2g - 1, so e_i + g fits.
Take a shift K = sum_i k_i * 2^(w(r-i)) with every k_i <= M < g.  Then
field i of key - K is e_i - k_i + g, which lies in [1, 2g): no field
borrows from the next, and its guard bit is set exactly when e_i >= k_i.
So one ``&`` with the mask of all guard bits and one compare keep exactly
the keys with e >= k, and key - K is the packed key of e - k.  A shift in
one field need only test that field's guard bit, and a unit shift the bits
below it, which are nonzero exactly when e_i is.  The bits above the top
field are never touched.

Within homogeneous polynomials of the volume degree, the common kernel of
these operators is one-dimensional and spanned by the volume polynomial; one
degree higher it is zero.  ``solution_space`` computes that kernel exactly by
fraction-free elimination, in the divided-power coordinates y_e = e! * x_e
of the polynomial sum_e x_e a^e = sum_e y_e a^e/e!, on the same shifts as
``check-pde``.  No operator is expanded for it; ``pde_system`` builds the
expanded operators as ``DiffOperator`` objects for the reference checks.

The matrix is built only on the staircase monomials: the x^e whose every
suffix sum e_(i+1) + ... + e_r, for i = 1..r-1, is at most
D_i = sum_(l>i) (row_sum(l) - 1), the volume degree of the restriction to
nodes i+1..r+1.  Every common kernel vector vanishes off them:

- The operators of nodes l > i involve only d_(i+1)..d_r, and they are
  exactly the annihilating system of that restriction.  So, writing a kernel
  vector as a sum of monomials in a_1..a_i times polynomials in
  a_(i+1)..a_r, each such coefficient lies in the restriction's kernel.
- That kernel is zero one degree above D_i, by the uniqueness theorem for
  the restriction.  It is zero in every higher degree too: the partial
  derivatives of a solution are solutions of one degree less, so in the
  lowest degree above D_i + 1 that had a nonzero solution, all its partials
  would vanish, and a homogeneous polynomial of positive degree whose
  partials all vanish is 0.

``homogeneous_monomials`` builds these monomials directly from the caps,
never the others, in its usual order.

At i = r - 1 the cap is e_r < m[r,r+1], the monomials the node-r operator
d_r^m[r,r+1] leaves alive, so at rank >= 2 that operator's block is empty on
these columns.  The full-degree cap (i = 0) is left out on purpose, so that
one degree above the volume degree the kernel is shown to be zero by
elimination, not assumed, and rank 1 keeps its node-1 rows.

A vector on the staircase columns is killed by the full matrix exactly
when it is killed by those columns alone, so dropping the other columns
leaves the null space unchanged, with zeros put back on the dropped
columns.  The basis is unchanged too.  Column k of a matrix is free (in
the span of the columns before it, a property of the matrix and not of the
elimination) exactly when some kernel vector with x_k = 1 is zero on every
later column.  For the full matrix that vector is zero off the staircase,
so k is kept and the same vector shows k free in the smaller matrix, and
conversely.  The free columns are the same, in the same order,
because the kept columns keep the order of ``homogeneous_monomials``, and
``integer_nullspace`` returns the unique null basis that is the identity on
the free columns, times one common integer scale (``linalg`` docstring),
which the normalization removes.  So the kernel comes out as the same
polynomials in the same order as from the full matrix.  Each null vector
comes back sparse, with integer entries, and ``solution_space`` reads only
its stored entries: below the volume degree the kernel has one vector per box
monomial of that degree, those with every e_l < row_sum(l), and each
holds a small share of the columns.  At r=6 with every multiplicity 2
the 3,210 vectors of degree 18 hold 49 of its 6,845 columns on average.

The matrix is built from the staircase columns in divided powers.  Column
e is the one-entry table {key(e): 1}, and all columns go into one table,
column col under the tag col * t, t the place just above the top field;
``_node_image`` applies each node operator to that table once.  Each image
key splits back as (col, target) = divmod(key, t), and its integer value is
the entry of the row (l, target) at column col: the coefficient c_k of the
operator's term d^k, k = e - target, where the monomial rule on x^e gives
c_k e!/target!.  This gives the same kernel, for three reasons:

(a) The matrix is the monomial one with row t scaled by t! and column e by
    1/e!.  Scaling rows does not change the null space; scaling column e by
    a nonzero number does not change which columns are pivots, since it
    keeps every column in or out of the span of the columns before it.  A
    null vector is fixed by its free coordinates, so the basis vector for
    free column f, read back by x_e = y_e / e!, is the monomial one times
    1/f! and the ratio of the two solves' common scales, and the
    normalization of ``solution_space`` does not depend on the scale of a
    vector.
(b) The tag lies above the top field, which no shift borrows from, and the
    guard tests read only the fields.  So two columns never merge, and each
    column's image is its image alone.
(c) A target that no column reaches is a zero row, and a zero row does not
    change the null space; so only the rows that some column reaches are
    passed to the elimination.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, factorial, prod
from operator import gt, mul
from typing import Callable, Iterable, Mapping, NamedTuple

from .multiplicity import MultiplicityMatrix
from .polynomial import Exponents, MultiPoly, Scalar, divided_powers, from_divided_powers, homogeneous_monomials


def _node_terms(
    m: MultiplicityMatrix, l: int, top: int, weight: Callable[[int, int], int]
) -> list[dict[Exponents, int]]:
    """The u^q coefficients, q = 0..top, of prod_{j=l+1..r} (sum_p weight(m[l,j], p) u^p d_j^p).

    Coefficient q is ``{exponents: int}`` in all r partials, zero weights
    dropped; the exponents of d_1..d_l are zero, and the keys come in the
    order of ``homogeneous_monomials(r - l, q)``.  Every degree comes from
    one pass: the weighted monomials of total at most top in d_(l+1)..d_r
    are listed in one ``{exponents: weight}`` dict, in descending lex order,
    one trailing variable appended a step with its powers from the largest
    down and its weights for the powers 0..top read from one row.  A zero
    weight is dropped where it is met, since it zeroes every product that
    carries it.  Each monomial is then filed under its degree, which keeps
    descending lex order within a degree.  Keys and weights are flat, so
    the cyclic garbage collector drops them from its scans at once; a list
    of (key, weight, total) tuples made it rescan the growing list about
    130 times at r=7 (the ladder steps below).

    The dict holds every monomial at once, so time and memory grow with the
    whole output: tens of microseconds at the spans of ``pde_system`` and
    the lift's ladder, and 5.2 million terms, about 6 s and 1 GiB, for
    ``induction.OperatorLadder.steps`` at r=7 with every multiplicity 2,
    which no command reads.
    """
    terms = {(0,) * l: 1}
    for mult in m.rows[l - 1][:-1]:  # m[l,j] for j = l+1..r
        row = [weight(mult, p) for p in range(top + 1)]
        terms = {key + (e,): w * x
                 for key, w in terms.items() for e in range(top - sum(key), -1, -1) if (x := row[e])}
    levels: list[dict[Exponents, int]] = [{} for _ in range(top + 1)]
    for key, w in terms.items():
        levels[sum(key)][key] = w
    return levels


def _layout(nvars: int, top: int) -> tuple[range, list[int], int, int]:
    """The guarded bit fields for exponents and orders up to ``top`` (module docstring).

    Returns the bit offset of each field, a_1's the highest, the place value
    2^offset of each, the guard bit g of a field at place 1, and the mask of
    every field's guard bit, which is also the key of the zero vector.
    """
    width = top.bit_length() + 1
    shifts = range(width * (nvars - 1), -1, -width)
    places = [1 << s for s in shifts]
    guard = 1 << (width - 1)
    return shifts, places, guard, guard * sum(places)


def _packed(entries: Iterable[tuple[Exponents, Scalar]], places: list[int], guards: int) -> dict[int, Scalar]:
    """The entries keyed on guarded fields: e goes to guards + sum_i e_i * places[i]."""
    return {guards + sum(map(mul, exps, places)): c for exps, c in entries}


def _unpacked(table: Mapping[int, Scalar], shifts: range, guard: int) -> dict[Exponents, Scalar]:
    """The inverse of ``_packed``: each key read back field by field, with one shift and mask each."""
    mask = 2 * guard - 1
    return {tuple((key >> s & mask) - guard for s in shifts): c for key, c in table.items()}


class DiffOperator(MultiPoly):
    """Polynomial in the commuting partial-derivative symbols d_1..d_n, as a ``MultiPoly`` (module docstring)."""

    __slots__ = ()

    @property
    def poly(self) -> DiffOperator:
        """The operator itself, read as its polynomial in d."""
        return self

    def apply(self, p: MultiPoly, divided: bool = False) -> MultiPoly:
        """Apply the operator to a polynomial, exactly, on packed divided powers.

        p is written once as its divided-power table T(p)_e = e! p_e
        (``polynomial.divided_powers``, an ``int`` wherever it is integral)
        and packed (``_packed``); the operator's weights w_k are used as
        they are.  On divided powers d^k
        is a pure shift: d^k a^e = perm(e, k) a^(e-k) and perm(e, k) =
        e!/(e-k)!, so d^k maps a^e/e! to a^(e-k)/(e-k)! when e >= k and to 0
        otherwise.  So the image is sum_f (sum_k w_k T(p)_(f+k)) a^f / f!:
        one multiply-add per (operator term, polynomial term) pair, and one
        ``from_divided_powers``, which drops the zero sums.  This is the
        rational sum_k w_k c_(f+k) perm(f+k, k) that the term-by-term product
        gives.

        With ``divided``, p's values are read as its table T(p) as they are,
        and the image's table T(Dp)_f = sum_k w_k T(p)_(f+k) is returned with
        its zero sums dropped: ``int`` values when the weights and p's values
        are ``int``, as for every operator built in this package on an
        integer table, and ``Fraction`` ones otherwise.  No e! is multiplied
        or divided on this path.

        The keys are the guarded fields for M, the largest exponent of p
        (module docstring).  An operator term d^k is packed the same way, as
        K, without the guard, and skipped when some k_i is above top_i, the
        largest e_i of p, since then no key reaches e_i >= k_i and the term
        maps every key to 0.  Every other k_i is at most M, so one ``&`` and
        one compare keep the pairs with e >= k, and key - K is the key of e - k.
        """
        if p.nvars != self.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {p.nvars}")
        tops = [max(column) for column in zip(*p.terms)]
        shifts, places, guard, guards = _layout(p.nvars, max(tops, default=0))
        table = _packed((p.terms if divided else divided_powers(p)).items(), places, guards)
        out: dict[int, Scalar] = {}
        for dexps, w in self.terms.items():
            if any(map(gt, dexps, tops)):
                continue
            shift = sum(map(mul, dexps, places))
            for key, g in table.items():
                key -= shift
                if key & guards == guards:
                    old = out.get(key)
                    out[key] = w * g if old is None else old + w * g
        if not divided:
            return from_divided_powers(p.nvars, _unpacked(out, shifts, guard), 1)
        return MultiPoly._trusted(p.nvars, _unpacked({key: c for key, c in out.items() if c}, shifts, guard))

    def __str__(self) -> str:
        return self.render(names="d")

    def __repr__(self) -> str:
        return f"DiffOperator({self})"


class PdeSystem(NamedTuple):
    """The r annihilating operators, listed for node l = rank down to 1."""

    m: MultiplicityMatrix
    ops: tuple[DiffOperator, ...]

    def labeled(self) -> list[tuple[int, DiffOperator]]:
        """Pairs (l, operator) in the stored order."""
        return [(self.m.rank - idx, op) for idx, op in enumerate(self.ops)]


def pde_system(m: MultiplicityMatrix) -> PdeSystem:
    """Build the annihilating operator of every node from its binomial expansion."""
    r = m.rank
    ops = []
    for l in range(r, 0, -1):
        order = m.row_sums[l - 1]
        terms = {}
        for q, level in enumerate(_node_terms(m, l, order - m.rows[l - 1][-1], comb)):
            for exps, coeff in level.items():
                terms[exps[: l - 1] + (order - q,) + exps[l:]] = (-1) ** q * coeff
        ops.append(DiffOperator._trusted(r, terms))
    return PdeSystem(m, tuple(ops))


def _shift_difference(table: dict[int, int], u: int, v: int, guard: int) -> dict[int, int]:
    """(d_l - d_j) on a divided-power table keyed on guarded fields.

    ``u`` and ``v`` are the place values of d_l and d_j, and ``guard`` is
    the guard bit g of a field at place 1.  Field i holds e_i + g with
    e_i < g, so e_i is nonzero exactly when a bit of the field below its
    guard is set; only those keys are shifted, and the others are the
    e_i = 0 that the derivative kills.  Cancelled keys are dropped.
    """
    out: dict[int, int] = {}
    low_u, low_v = (guard - 1) * u, (guard - 1) * v
    for key, c in table.items():
        if key & low_u:
            down = key - u
            old = out.get(down)
            out[down] = c if old is None else old + c
        if key & low_v:
            down = key - v
            old = out.get(down)
            out[down] = -c if old is None else old - c
    return {key: c for key, c in out.items() if c}


def _node_image(
    m: MultiplicityMatrix, l: int, table: dict[int, int], places: list[int], guard: int
) -> dict[int, int]:
    """The node-l operator applied to a divided-power table, as key shifts.

    The keys are guarded fields wide enough for every operator order of m,
    ``places[i - 1]`` is the place value of d_i and ``guard`` the guard bit
    of a field at place 1 (module docstring); bits above the top field ride
    along.  Each shift moves one field and tests only that field's guard:
    d_l^m[l,r+1] is one shift, kept where field l keeps its guard bit, then
    each factor d_l - d_j, m[l,j] times, is ``_shift_difference``.
    """
    row, u = m.rows[l - 1], places[l - 1]
    top, guard_l = row[-1] * u, guard * u
    image = {down: c for key, c in table.items() if (down := key - top) & guard_l}
    for v, q in zip(places[l:], row[:-1]):  # m[l,j] for j = l+1..r
        for _ in range(q):
            if image:
                image = _shift_difference(image, u, v, guard)
    return image


def node_residuals(m: MultiplicityMatrix, table: Mapping[Exponents, Scalar]) -> list[tuple[int, MultiPoly]]:
    """Pairs (l, node-l operator applied to p) for l = rank down to 1.

    ``table`` is the divided-power table {e: e! * p_e} of the polynomial p,
    as the ``table`` of ``residue.iterated_residue`` holds it for a volume,
    with ``int`` values, and as ``annihilates`` writes it for any candidate
    with ``polynomial.divided_powers``.  It is packed once on the guarded
    fields for its largest exponent or node order (module docstring), where
    d_i subtracts the place value of field i from the keys whose e_i is
    nonzero.  Each residual is read back by ``_unpacked`` and divided back
    by e! in one ``from_divided_powers``, and equals ``pde_system(m)``'s
    node-l operator applied to p.  The keys are trusted to have m.rank
    entries.
    """
    r = m.rank
    shifts, places, guard, guards = _layout(r, max(max(map(max, table), default=0), *m.row_sums))
    packed = _packed(table.items(), places, guards)
    return [
        (l, from_divided_powers(r, _unpacked(_node_image(m, l, packed, places, guard), shifts, guard), 1))
        for l in range(r, 0, -1)
    ]


def annihilates(m: MultiplicityMatrix, poly: MultiPoly) -> bool:
    """True when every node operator maps poly to the zero polynomial.

    poly is any polynomial in m.rank variables, such as a volume's ``.poly``
    or a deliberately wrong candidate; the variable count is checked here.
    poly is converted once to its table T(poly)
    (``polynomial.divided_powers``) and handed to ``node_residuals``.
    """
    if poly.nvars != m.rank:
        raise ValueError(f"variable-count mismatch: {m.rank} vs {poly.nvars}")
    return all(residual.is_zero for _, residual in node_residuals(m, divided_powers(poly)))


def solution_space(m: MultiplicityMatrix, degree: int) -> list[MultiPoly]:
    """Exact basis of the homogeneous degree-d polynomials killed by the system.

    Stacks the matrix of the operator of every node l = rank down to 1 on
    the degree-d staircase monomials, in the divided-power coordinates
    y_e = e! * x_e of ``node_residuals``, and extracts its null space by
    sparse fraction-free elimination.  The columns are tagged into one
    table on the guarded fields for d and the node orders, column col under
    the tag col * t, t the place above the top field, and ``_node_image``
    applies each node operator to that table once; an image key splits back
    as (col, target) = divmod(key, t), and its value is the entry of the
    sparse row ``{column: int}`` of (l, target).  Arguments (a)-(c) of the
    module docstring show that this matrix has the same null space, after
    x_e = y_e / e!, and the same basis up to the scale of each vector, which
    the normalization removes.  Each null vector y, the sparse
    ``{column: nonzero int}`` that ``integer_nullspace`` returns, is read by
    its stored entries alone, keyed by the columns' exponent vectors as it
    comes, and normalized on one path: a lead column with a weight w, and
    one ``from_divided_powers`` that divides by y_lead through ``scale``, so
    the only ``Fraction`` made is one per output term, w y_e / (y_lead e!).
    The lead is the corner o when y holds it, with w = 1, so that y_o = 1
    and the corner coefficient is the expected 1/o!; o has the volume
    degree, so only a vector of that degree can hold it.  Otherwise the
    lead is the lowest column f that y holds, with w = f!, so that x is
    monic in its graded-lex leading term f.  Dividing by the lead makes
    the result independent of the vector's scale, so nothing here relies
    on what the tests pin: that the common scale P of ``integer_nullspace``
    is 1 on these matrices, so that each vector below the volume degree
    holds 1 on its free column, and that the one vector of the volume
    degree is the residue's integer table T(v) itself.  The operator
    recurrence of ROADMAP item 3b, which is to write these integer tables
    with no elimination, will rely on both.
    """
    from .linalg import integer_nullspace

    if type(degree) is not int or degree < 0:
        raise ValueError("degree must be nonnegative")
    r = m.rank
    caps = list(accumulate(order - 1 for order in reversed(m.row_sums[1:])))  # D_(r-1), ..., D_1
    columns = homogeneous_monomials(r, degree, caps)

    _, places, guard, guards = _layout(r, max(degree, *m.row_sums))
    tag = 2 * guard * places[0]
    table = {col * tag + guards + sum(map(mul, exps, places)): 1 for col, exps in enumerate(columns)}
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for l in range(r, 0, -1):
        for key, c in _node_image(m, l, table, places, guard).items():
            col, target = divmod(key, tag)
            rows.setdefault((l, target), {})[col] = c

    corner = m.corner_exponents  # held only by a vector of the volume degree
    basis = []
    for vector in integer_nullspace(list(rows.values()), len(columns)):
        y = {columns[col]: v for col, v in vector.items()}
        lead = corner if corner in y else columns[min(vector)]  # o, else the lowest column y holds
        weight = 1 if lead == corner else prod(map(factorial, lead))  # x_o = 1/o!, else x_lead = 1
        basis.append(from_divided_powers(r, {exps: v * weight for exps, v in y.items()}, y[lead]))
    return basis
