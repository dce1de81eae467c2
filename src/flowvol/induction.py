"""Rank induction: lift a rank-(r-1) volume polynomial to rank r.

Write a homogeneous degree-d polynomial in a_1..a_r layer by layer,

    phi = sum_k a_1^(d-k) * g_k(a_2, ..., a_r),   g_k homogeneous of degree k.

For the volume polynomial the top nonzero layer sits at index h, the volume
degree of the problem restricted to nodes 2..r+1, and every lower layer is
forced from it by the node-1 operator.  The machinery has two pieces:

* the lowering operator D_q (``lowering_operator(m, q)``) is the order-q
  operator in d_2..d_r collecting every way to spread q derivative orders
  over those variables, each d_i^p weighted by C(m[1,i], p); equivalently
  the u^q coefficient of D(u) = prod_{i=2..r} (1 + u d_i)^m[1,i].  It
  vanishes once q exceeds span = row_sum(1) - m[1,r+1], the first-row
  multiplicity into nodes 2..r.
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

The layers are kept as those tables, T(u_n)_f = f! (u_n)_f, from start to
finish, and the lift needs no division.  T is linear, so T(u_n) is the sum
of the images T(S u_k) that ``apply`` returns with ``divided=True``; T(u_0)
is the restricted volume's own table, embedded; and because a_1 enters
only through a_1^(s-1+n)/(s-1+n)!, the factorials cancel:

    T(v)_(s-1+n, f) = (s-1+n)! f! v_(s-1+n, f) = f! (u_n)_f = T(u_n)_f.

So each layer's entries are the volume's table entries, with a_1's
exponent put in front, and on the residue's integer table of the
restricted volume every value stays an ``int``.

The ladder operators have a closed form.  With E(u) = sum_n E_n u^n and
D(u) = 1 + sum_q D_q u^q, the recurrence says that for n >= 1 the u^n
coefficient of sum_{j>=0} (-1)^j D_j u^j * E(u) vanishes, that is
E(u) D(-u) = 1, so

    E(u) = prod_{i=2..r} (1 - u d_i)^(-m[1,i]),

and E_n is the u^n coefficient: every way to spread n derivative orders over
d_2..d_r, each d_i^p weighted by C(m[1,i] - 1 + p, p).  ``operator_ladder``
alone builds the D_q and alone holds the span rule: it builds
D_1..D_span from the binomial rule in one pass, and nothing else.
``lowering_operator`` and ``OperatorLadder.generator`` read its stored
generators, and ``OperatorLadder.steps`` builds every E_n from the series
rule, with no operator products, the first time it is read.  Nothing in
the package reads the E_n: they exist for acceptance criterion 8 and for
the ladder metrics of the benchmark in ``flowbench/``, so neither
``operator_ladder`` nor a lift builds one.

The D_q and E_n come out of ``_node_terms`` in canonical form, with nonzero
integer weights, every order from one call, so ``diffop._operator`` wraps
them as it wraps ``pde_system``'s operators, ``int`` weights and all.  The
lift's S is one such dict too: the signed union of the D_j's terms.  D_j is
homogeneous of order j, so no key is shared, every weight stays a nonzero
``int``, and ``apply`` returns ``int`` tables from it.  None of these goes
through the checking constructor again, since inputs are checked where they
enter, and none uses the operator algebra's ``+`` or scalar ``*``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .diffop import DiffOperator, _node_terms, _operator
from .multiplicity import MultiplicityMatrix
from .polynomial import MultiPoly, binomial_series_coeff
from .residue import VolumePolynomial


def lowering_operator(m: MultiplicityMatrix, q: int) -> DiffOperator:
    """Order-q lowering operator D_q of m, read from its ladder: ``operator_ladder(m).generator(q)``."""
    return operator_ladder(m).generator(q)


@dataclass(frozen=True)
class OperatorLadder:
    """Lowering operators D_1..D_J and, on first read, their signed combinations E_0..E_h.

    ``generators[q-1]`` is the order-q lowering operator for q up to the
    span, and ``generator(q)`` serves every order; ``steps[n]`` is the
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
        """D_q for an int q >= 1: the stored ``generators[q-1]``, or the zero operator above the span."""
        if type(q) is not int or q < 1:  # rejects booleans too
            raise ValueError(f"order must be an int >= 1, got {q!r}")
        return self.generators[q - 1] if q <= len(self.generators) else _operator(self.m.rank, {})


def operator_ladder(m: MultiplicityMatrix) -> OperatorLadder:
    """The generators up to the span; the steps up to the restricted volume degree wait for a read."""
    span = m.row_sums[0] - m.rows[0][-1]  # orders beyond this vanish
    return OperatorLadder(m, tuple(_operator(m.rank, terms) for terms in _node_terms(m, 1, span, math.comb))[1:])


def lift_volume(v_prev: VolumePolynomial, m: MultiplicityMatrix) -> VolumePolynomial:
    """Volume polynomial for m from the volume of its restriction to nodes 2..r+1.

    S = D_1 - D_2 + ... is one operator whose terms are the signed union of
    the ladder's generators' terms, and the layers u_0..u_h are kept as
    divided-power tables T(u_n), starting from v_prev's table.  S is applied once to each
    T(u_k) with ``divided=True``, and each term of the image is added into
    the layer its degree names (module docstring): a key's first
    contribution is stored as it is, and only a repeated key pays an add.  A
    layer drops its cancelled keys when the loop reaches it, and T(v) at
    (s-1+n, f) is T(u_n) at f, so every term of every layer is one entry of
    the volume's table, with no division.  A rank-1 m is refused by its
    ``restriction()``, which has no rank-0 matrix.
    """
    if v_prev.m != m.restriction():
        raise ValueError("input volume does not belong to the restricted multiplicities")
    r = m.rank
    h = m.restriction_degree
    base = m.row_sums[0] - 1  # the power of a_1 that carries u_0
    # S = D_1 - D_2 + D_3 - ...: the D_j have distinct degrees, so no key is shared
    generators = enumerate(operator_ladder(m).generators, start=1)
    operator = _operator(r, {k: w if j % 2 else -w for j, d in generators for k, w in d.poly.terms.items()})
    layers = [v_prev.table.embed(r, offset=1).terms] + [{} for _ in range(h)]  # layers[n] = T(u_n)
    for k in range(h):
        # u_k is complete: every contribution to it came from a lower layer
        layer = layers[k] = {exps: c for exps, c in layers[k].items() if c}
        for exps, c in operator.apply(MultiPoly._trusted(r, layer), divided=True).terms.items():
            target = layers[h - sum(exps)]
            old = target.get(exps)
            target[exps] = c if old is None else old + c
    # No u_n involves a_1 and each sits at its own power of it, so every term
    # of every layer becomes one term of the volume's table.
    table = {(base + n,) + exps[1:]: c for n, layer in enumerate(layers) for exps, c in layer.items() if c}
    return VolumePolynomial._of_table(m, MultiPoly._trusted(r, table))
