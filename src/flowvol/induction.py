"""Rank induction: lift a rank-(r-1) volume polynomial to rank r.

Write a homogeneous degree-d polynomial in a_1..a_r layer by layer,

    phi = sum_k a_1^(d-k) * g_k(a_2, ..., a_r),   g_k homogeneous of degree k.

For the volume polynomial the top nonzero layer sits at index h, the volume
degree of the problem restricted to nodes 2..r+1, and every lower layer is
forced from it by the node-1 operator.  The machinery has two pieces:

* ``lowering_operator(m, q)`` is the order-q operator in d_2..d_r collecting
  every way to spread q derivative orders over those variables, each d_i^p
  weighted by C(m[1,i], p); equivalently the u^q coefficient of
  D(u) = prod_{i=2..r} (1 + u d_i)^m[1,i].  It vanishes once q exceeds
  span = row_sum(1) - m[1,r+1], the first-row multiplicity into nodes 2..r.
* the layer relation, solved downward from the top:

      g_(h-n) = sum_{j>=1} (-1)^(j+1) * (d-h+n-j)!/(d-h+n)! * D_j g_(h-n+j).

With u_n = (d-h+n)! * g_(h-n) the factorials cancel and the relation becomes

      u_n = sum_{j=1..min(n,span)} (-1)^(j+1) D_j u_(n-j),

which does not involve d.  Unrolled from u_0 it is u_n = E_n u_0 with the
ladder operators E_0 = 1, E_n = sum_{j=1..n} (-1)^(j+1) D_j E_(n-j), that is
E_1 = D_1, E_2 = D_1^2 - D_2, E_3 = D_1^3 - 2 D_1 D_2 + D_3, ...  So the
recursion computes every E_n u_0 while only ever applying the generators
D_j to polynomials.

At the volume degree d - h = s - 1 with s = row_sum(1), so the lift of the
restricted volume w (degree h, variables a_2..a_r) is

    v = sum_{n=0..h} a_1^(s-1+n) / (s-1+n)! * E_n w.

``lift_volume`` runs the recursion from u_0 = w with one operator,
S = D_1 - D_2 + D_3 - ..., applied once to each layer u_k, k = 0..h-1, and
places each u_n at a_1^(s-1+n) / (s-1+n)!.  The degrees sort the image out:
u_k is homogeneous of degree h - k and D_j of order j, so the part of S u_k
of degree h - k - j is exactly (-1)^(j+1) D_j u_k, the term of u_(k+j), and
terms of different degrees never cancel.  So each term of S u_k is added
into u_n with n = h - (its degree).  Every contribution to u_k comes from a
lower layer, so u_k is complete when the loop reaches it.  That is h
applications in all, not one for each (n, j) with j <= min(n, span).  Each
is one ``DiffOperator.apply``, on the integer divided-power table of u_k
(``diffop``), so a pair of terms costs one integer multiply-add.

The ladder operators have a closed form.  With E(u) = sum_n E_n u^n and
D(u) = 1 + sum_q D_q u^q, the recurrence says that for n >= 1 the u^n
coefficient of sum_{j>=0} (-1)^j D_j u^j * E(u) vanishes, that is
E(u) D(-u) = 1, so

    E(u) = prod_{i=2..r} (1 - u d_i)^(-m[1,i]),

and E_n is the u^n coefficient: every way to spread n derivative orders over
d_2..d_r, each d_i^p weighted by C(m[1,i] - 1 + p, p).  ``operator_ladder``
builds the D_q from the binomial rule in one pass, and nothing else:
``OperatorLadder.steps`` builds every E_n from the series rule, with no
operator products, the first time it is read.  Nothing in the package
reads the E_n: they exist for acceptance criterion 8 and for the ladder
metrics of the benchmark in ``flowbench/``, so neither ``operator_ladder``
nor a lift builds one.

The D_q and E_n come out of ``_node_terms`` in canonical form, with nonzero
integer weights, every order from one call, so ``diffop._operator`` wraps
them as it wraps ``pde_system``'s operators, ``int`` weights and all.  The
lift's S is summed from the D_j with ``DiffOperator``'s own ``+`` and scalar
``*``, and its terms are distinct nonzero ``Fraction`` values, wrapped with
``MultiPoly._trusted``; neither goes through the checking constructor
again, since inputs are checked where they enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .diffop import DiffOperator, _node_terms, _operator
from .multiplicity import MultiplicityMatrix
from .polynomial import MultiPoly, binomial_series_coeff
from .residue import VolumePolynomial


def lowering_operator(m: MultiplicityMatrix, q: int) -> DiffOperator:
    """Order-q lowering operator in d_2..d_r built from the first row of m; zero above its span."""
    if q < 1:
        raise ValueError(f"order must be >= 1, got {q}")
    if q > m.row_sums[0] - m.rows[0][-1]:  # above the span m[1,2] + ... + m[1,r] every order vanishes
        return _operator(m.rank, {})
    return _operator(m.rank, list(_node_terms(m, 1, q, math.comb))[q])


@dataclass(frozen=True)
class OperatorLadder:
    """Lowering operators D_1..D_J and, on first read, their signed combinations E_0..E_h.

    ``generators[q-1]`` is the order-q lowering operator; ``steps[n]`` is the
    explicit operator E_n, the u^n coefficient of prod_i (1 - u d_i)^(-m[1,i]),
    built the first time ``steps`` is read and kept from then on.  Only
    acceptance criterion 8 and the benchmark read it.
    """

    m: MultiplicityMatrix
    generators: tuple[DiffOperator, ...]

    @cached_property
    def steps(self) -> tuple[DiffOperator, ...]:
        """E_0..E_h, read off the series rule in one pass (module docstring)."""
        series = _node_terms(self.m, 1, self.m.restriction_degree, binomial_series_coeff)
        return tuple(_operator(self.m.rank, terms) for terms in series)

    def generator(self, q: int) -> DiffOperator:
        """D_q as ``lowering_operator`` builds it: q >= 1, the zero operator beyond the stored range."""
        return lowering_operator(self.m, q)


def operator_ladder(m: MultiplicityMatrix) -> OperatorLadder:
    """The generators up to the span; the steps up to the restricted volume degree wait for a read."""
    span = m.row_sums[0] - m.rows[0][-1]  # orders beyond this vanish
    return OperatorLadder(m, tuple(_operator(m.rank, terms) for terms in _node_terms(m, 1, span, math.comb))[1:])


def lift_volume(v_prev: VolumePolynomial, m: MultiplicityMatrix) -> VolumePolynomial:
    """Volume polynomial for m from the volume of its restriction to nodes 2..r+1.

    S = D_1 - D_2 + ... is summed from the ladder's generators with the
    operator algebra, and the layers u_0..u_h are kept as dicts.  S is
    applied once to each u_k, and each term of the image is added into the
    layer its degree names (module docstring): a key's first contribution is
    stored as it is, and only a repeated key pays a ``Fraction`` add.  A
    layer drops its cancelled keys when the loop reaches it, and each
    volume coefficient is made as one ``Fraction``, c / (s-1+n)!.  A rank-1
    m is refused by its ``restriction()``, which has no rank-0 matrix.
    """
    if v_prev.m != m.restriction():
        raise ValueError("input volume does not belong to the restricted multiplicities")
    r = m.rank
    h = m.restriction_degree
    base = m.row_sums[0] - 1  # the power of a_1 that carries u_0
    operator = DiffOperator(MultiPoly._trusted(r, {}))  # S = D_1 - D_2 + D_3 - ...
    for j, generator in enumerate(operator_ladder(m).generators, start=1):
        operator = operator + (-1) ** (j + 1) * generator
    layers = [v_prev.poly.embed(r, offset=1).terms] + [{} for _ in range(h)]  # layers[n] = u_n
    for k in range(h):
        # u_k is complete: every contribution to it came from a lower layer
        layer = layers[k] = {exps: c for exps, c in layers[k].items() if c}
        for exps, c in operator.apply(MultiPoly._trusted(r, layer)).terms.items():
            target = layers[h - sum(exps)]
            old = target.get(exps)
            target[exps] = c if old is None else old + c
    # No u_n involves a_1 and each sits at its own power of it, so every term
    # of every layer becomes one term of the volume.
    terms = {}
    for n, layer in enumerate(layers):
        scale = math.factorial(base + n)
        for exps, c in layer.items():
            if c:
                terms[(base + n,) + exps[1:]] = Fraction(c.numerator, c.denominator * scale)
    return VolumePolynomial(m, MultiPoly._trusted(r, terms))
