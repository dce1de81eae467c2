"""Rank induction: lift a rank-(r-1) volume polynomial to rank r.

Write a homogeneous degree-d polynomial in a_1..a_r layer by layer,

    phi = sum_k a_1^(d-k) * g_k(a_2, ..., a_r),   g_k homogeneous of degree k.

For the volume polynomial the top nonzero layer sits at index h, the volume
degree of the problem restricted to nodes 2..r+1, and every lower layer is
forced from it by the node-1 operator.  The machinery has two pieces:

* ``lowering_operator(m, q)`` is the order-q operator in d_2..d_r collecting
  every way to spread q derivative orders over those variables, each d_i^p
  weighted by C(m[1,i], p); equivalently the u^q coefficient of
  prod_{i=2..r} (1 + u d_i)^m[1,i].  It vanishes once q exceeds
  span = row_sum(1) - m[1,r+1], the first-row multiplicity into nodes 2..r.
* the layer relation, solved downward from the top by ``layer_recursion``:

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

    v = sum_{n=0..h} a_1^(s-1+n) / (s-1+n)! * E_n w,

the layer relation started from the top layer g_h = w / (s-1)!.
``lift_volume`` is exactly that call.  ``operator_ladder`` still builds
every E_n as an explicit operator (``OperatorLadder.steps``).  Nothing in
the package applies them: they exist for acceptance criterion 8 and for the
ladder metrics of the benchmark in ``flowbench/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diffop import DiffOperator
from .multiplicity import MultiplicityMatrix
from .polynomial import MultiPoly, homogeneous_monomials
from .residue import VolumePolynomial


def lowering_operator(m: MultiplicityMatrix, q: int) -> DiffOperator:
    """Order-q lowering operator in d_2..d_r built from the first row of m."""
    if q < 1:
        raise ValueError(f"order must be >= 1, got {q}")
    r = m.rank
    if r == 1:
        return DiffOperator.zero(r)  # no variables a_2..a_r to lower
    first_row = [m.multiplicity(1, i) for i in range(2, r + 1)]
    terms: dict[tuple[int, ...], int] = {}
    for powers in homogeneous_monomials(r - 1, q):
        coeff = 1
        for mult, p in zip(first_row, powers):
            coeff *= math.comb(mult, p)
        if coeff:
            terms[(0,) + powers] = coeff
    return DiffOperator(MultiPoly(r, terms))


@dataclass(frozen=True)
class OperatorLadder:
    """Lowering operators D_1..D_J and their signed combinations E_0..E_h.

    ``generators[q-1]`` is the order-q lowering operator; ``steps[n]`` is the
    explicit operator E_n, kept for acceptance criterion 8 and the benchmark.
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
    span = m.row_sum(1) - m.multiplicity(1, r + 1)  # orders beyond this vanish
    generators = tuple(lowering_operator(m, q) for q in range(1, span + 1))
    steps = [DiffOperator.identity(r)]
    for n in range(1, m.restriction_degree + 1):
        acc = DiffOperator.zero(r)
        for j in range(1, min(n, span) + 1):
            acc = acc + (-1) ** (j + 1) * (generators[j - 1] * steps[n - j])
        steps.append(acc)
    return OperatorLadder(m, generators, tuple(steps))


def lift_volume(v_prev: VolumePolynomial, m: MultiplicityMatrix) -> VolumePolynomial:
    """Volume polynomial for m from the volume of its restriction to nodes 2..r+1."""
    if m.rank < 2:
        raise ValueError("lifting needs rank >= 2")
    if v_prev.m != m.restriction():
        raise ValueError("input volume does not belong to the restricted multiplicities")
    r = m.rank
    top = v_prev.poly.embed(r, offset=1) * Fraction(1, math.factorial(m.row_sum(1) - 1))
    return VolumePolynomial(m, layer_recursion(m, m.degree, top, 1).assemble(r))


@dataclass(frozen=True)
class LayerDecomposition:
    """Layers g_0..g_d of a degree-d polynomial, phi = sum a_1^(d-k) g_k."""

    d: int
    layers: tuple[MultiPoly, ...]

    def __post_init__(self) -> None:
        if len(self.layers) != self.d + 1:
            raise ValueError(f"expected {self.d + 1} layers, got {len(self.layers)}")
        for k, layer in enumerate(self.layers):
            if layer.is_zero:
                continue
            if not layer.is_homogeneous(k):
                raise ValueError(f"layer {k} is not homogeneous of degree {k}")
            if any(exps[0] for exps in layer.terms):
                raise ValueError(f"layer {k} must not involve the first variable")

    @classmethod
    def of(cls, poly: MultiPoly, degree: int | None = None) -> "LayerDecomposition":
        """Decompose a homogeneous polynomial by powers of the first variable."""
        if degree is None:
            degree = poly.total_degree()
            if degree is None:
                raise ValueError("cannot infer the degree of the zero polynomial")
        if not poly.is_homogeneous(degree):
            raise ValueError(f"polynomial is not homogeneous of degree {degree}")
        split: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(degree + 1)]
        for exps, coeff in poly.terms.items():
            k = degree - exps[0]
            split[k][(0,) + exps[1:]] = coeff
        layers = tuple(MultiPoly(poly.nvars, chunk) for chunk in split)
        return cls(degree, layers)

    def assemble(self, nvars: int | None = None) -> MultiPoly:
        """Rebuild sum_k a_1^(d-k) g_k.

        No layer involves a_1 and each sits at its own power of it, so every
        term of every layer becomes one term of the result.
        """
        if nvars is None:
            nvars = max((layer.nvars for layer in self.layers), default=1)
        terms = {
            (self.d - k,) + exps[1:]: coeff
            for k, layer in enumerate(self.layers)
            for exps, coeff in layer.terms.items()
        }
        return MultiPoly(nvars, terms)


def layer_recursion(
    m: MultiplicityMatrix, d: int, g_top: MultiPoly, n_start: int
) -> LayerDecomposition:
    """Solve the layer relation downward from a known top layer.

    ``g_top`` is the layer at index h - n_start + 1 (h the restricted volume
    degree); every layer above it is zero.  Step n determines the layer at
    index h - n from the ones above it (see the module docstring).  The loop
    runs the d-free recurrence on the images u_n / (d-h+n_start-1)!, which
    start at g_top, and scales each by (d-h+n_start-1)!/(d-h+n)! once.

    The relation is valid while d - h - row_sum(1) + n >= 0.  That bound only
    grows with n, so it is checked once, at n = n_start, and a ValueError
    reports the negative factorial argument.  From there on every factorial
    of the relation is defined: d-h+n-j >= row_sum(1) - span = m[1,r+1] >= 1
    for j <= span.
    """
    r = m.rank
    if r < 2:
        raise ValueError("layer recursion needs rank >= 2")
    h = m.restriction_degree
    base = m.row_sum(1)
    if not 0 <= n_start <= h + 1:
        raise ValueError(f"n_start must lie in 0..{h + 1}, got {n_start}")
    if g_top.nvars != r:
        raise ValueError(f"top layer must live in {r} variables")
    top_index = h - n_start + 1
    if not g_top.is_zero:
        if any(exps[0] for exps in g_top.terms):
            raise ValueError("top layer must not involve the first variable")
        if not g_top.is_homogeneous(top_index):
            raise ValueError(f"top layer must be homogeneous of degree {top_index}")
        if top_index > d:
            raise ValueError(f"nonzero layer {top_index} impossible at degree {d}")
    if n_start <= h and d - h - base + n_start < 0:
        raise ValueError(
            f"factorial argument {d - h - base + n_start} negative: degree {d} with "
            f"step {n_start} is outside the valid range of the layer relation"
        )

    generators = operator_ladder(m).generators
    layers = [MultiPoly.zero(r)] * (d + 1)
    if top_index <= d:
        layers[top_index] = g_top
    images = [g_top]  # images[i] = u_(n_start-1+i) / (d-h+n_start-1)!
    for n in range(n_start, h + 1):
        i = len(images)
        image = MultiPoly.zero(r)
        for j in range(1, min(i, len(generators)) + 1):
            source = images[i - j]
            if not source.is_zero:
                term = generators[j - 1].apply(source)
                image = image + term if j % 2 else image - term
        images.append(image)
        k = h - n
        if k > d:
            if not image.is_zero:
                raise ValueError(f"nonzero layer {k} impossible at degree {d}")
            continue
        scale = Fraction(math.factorial(d - h + n_start - 1), math.factorial(d - h + n))
        layers[k] = image * scale

    return LayerDecomposition(d, tuple(layers))
