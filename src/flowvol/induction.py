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

``lift_volume`` runs the recursion from u_0 = w and places each u_n at
a_1^(s-1+n) / (s-1+n)!.  Each D_j u_(n-j) is one ``DiffOperator.apply``, on
the integer divided-power table of u_(n-j) (``diffop``), so a pair of terms
costs one integer multiply-add.

The ladder operators have a closed form.  With E(u) = sum_n E_n u^n and
D(u) = 1 + sum_q D_q u^q, the recurrence says that for n >= 1 the u^n
coefficient of sum_{j>=0} (-1)^j D_j u^j * E(u) vanishes, that is
E(u) D(-u) = 1, so

    E(u) = prod_{i=2..r} (1 - u d_i)^(-m[1,i]),

and E_n is the u^n coefficient: every way to spread n derivative orders over
d_2..d_r, each d_i^p weighted by C(m[1,i] - 1 + p, p).  ``operator_ladder``
builds every E_n from that rule (``OperatorLadder.steps``), with no operator
products.  Nothing in the package applies them: they exist for acceptance
criterion 8 and for the ladder metrics of the benchmark in ``flowbench/``.

The D_q and E_n come out of ``_node_terms`` in canonical form, with nonzero
integer weights, and the lift's terms are distinct nonzero ``Fraction``
products, so they are wrapped with ``MultiPoly._trusted`` rather than passed
through the checking constructor again; inputs are checked where they enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diffop import DiffOperator, _node_terms
from .multiplicity import MultiplicityMatrix
from .polynomial import Exponents, MultiPoly, binomial_series_coeff
from .residue import VolumePolynomial


def _operator(r: int, terms: dict[Exponents, int]) -> DiffOperator:
    """``_node_terms``' canonical nonzero integer weights as an operator, not re-checked.

    The weights take few distinct values, so each makes one ``Fraction``,
    shared by every term that carries it.
    """
    values = {c: Fraction(c) for c in set(terms.values())}
    return DiffOperator(MultiPoly._trusted(r, {exps: values[c] for exps, c in terms.items()}))


def lowering_operator(m: MultiplicityMatrix, q: int) -> DiffOperator:
    """Order-q lowering operator in d_2..d_r built from the first row of m."""
    if q < 1:
        raise ValueError(f"order must be >= 1, got {q}")
    return _operator(m.rank, _node_terms(m, 1, q, math.comb))


@dataclass(frozen=True)
class OperatorLadder:
    """Lowering operators D_1..D_J and their signed combinations E_0..E_h.

    ``generators[q-1]`` is the order-q lowering operator; ``steps[n]`` is the
    explicit operator E_n, the u^n coefficient of prod_i (1 - u d_i)^(-m[1,i]),
    kept for acceptance criterion 8 and the benchmark.
    """

    m: MultiplicityMatrix
    generators: tuple[DiffOperator, ...]
    steps: tuple[DiffOperator, ...]

    def generator(self, q: int) -> DiffOperator:
        """D_q, the zero operator beyond the stored range."""
        if q < 1:
            raise ValueError(f"order must be >= 1, got {q}")
        if q <= len(self.generators):
            return self.generators[q - 1]
        return DiffOperator.zero(self.m.rank)


def operator_ladder(m: MultiplicityMatrix) -> OperatorLadder:
    """Build the ladder up to the restricted volume degree."""
    r = m.rank
    span = m.row_sums[0] - m.rows[0][-1]  # orders beyond this vanish
    generators = tuple(lowering_operator(m, q) for q in range(1, span + 1))
    steps = tuple(
        _operator(r, _node_terms(m, 1, n, binomial_series_coeff)) for n in range(m.restriction_degree + 1)
    )
    return OperatorLadder(m, generators, steps)


def lift_volume(v_prev: VolumePolynomial, m: MultiplicityMatrix) -> VolumePolynomial:
    """Volume polynomial for m from the volume of its restriction to nodes 2..r+1."""
    if m.rank < 2:
        raise ValueError("lifting needs rank >= 2")
    if v_prev.m != m.restriction():
        raise ValueError("input volume does not belong to the restricted multiplicities")
    r = m.rank
    base = m.row_sums[0] - 1  # the power of a_1 that carries u_0
    generators = operator_ladder(m).generators
    images = [v_prev.poly.embed(r, offset=1)]  # images[n] = u_n
    for n in range(1, m.restriction_degree + 1):
        image = MultiPoly.zero(r)
        for j in range(1, min(n, len(generators)) + 1):
            term = generators[j - 1].apply(images[n - j])
            image = image + term if j % 2 else image - term
        images.append(image)
    # No u_n involves a_1 and each sits at its own power of it, so every term
    # of every image becomes one term of the volume.
    terms = {}
    for n, image in enumerate(images):
        scale = Fraction(1, math.factorial(base + n))
        for exps, coeff in image.terms.items():
            terms[(base + n,) + exps[1:]] = coeff * scale
    return VolumePolynomial(m, MultiPoly._trusted(r, terms))
