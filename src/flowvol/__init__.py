"""Exact volume polynomials of type-A flow polytopes on the all-positive chamber.

The engine computes the volume polynomial by iterated residues of an
exponential kernel, certifies it as the one-dimensional kernel of a system
of constant-coefficient differential operators, reproduces it by rank
induction from the restricted problem, and cross-validates it against exact
lattice-point counting.  All arithmetic is over arbitrary-precision
rationals; there is no floating point anywhere.

``__all__`` is the public API.  Everything else, such as ``DiffOperator``,
``count_lattice_points`` or the ``cli`` parsing helpers, is reached through
its submodule and is internal.
"""

from .diffop import annihilates, pde_system, solution_space
from .induction import lift_volume, lowering_operator, operator_ladder
from .multiplicity import MultiplicityMatrix
from .oracle import compare_volume
from .polynomial import MultiPoly
from .residue import (
    VolumePolynomial,
    canonical_order,
    iterated_residue,
    laurent_derivative,
    laurent_residue,
    residue_in_order,
)

__version__ = "0.1.0"

__all__ = [
    "MultiPoly",
    "MultiplicityMatrix",
    "VolumePolynomial",
    "annihilates",
    "canonical_order",
    "compare_volume",
    "iterated_residue",
    "laurent_derivative",
    "laurent_residue",
    "lift_volume",
    "lowering_operator",
    "operator_ladder",
    "pde_system",
    "residue_in_order",
    "solution_space",
    "__version__",
]
