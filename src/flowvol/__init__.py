"""Exact volume polynomials of type-A flow polytopes on the all-positive chamber.

The engine computes the volume polynomial by iterated residues of an
exponential kernel, certifies it as the one-dimensional kernel of a system
of constant-coefficient differential operators, reproduces it by rank
induction from the restricted problem, and cross-validates it against exact
lattice-point counting.  All arithmetic is over arbitrary-precision
rationals; there is no floating point anywhere.
"""

from .cli import ProblemSpec, SpecError, parse_spec, render_spec, run_command
from .diffop import DiffOperator, annihilates, pde_system, solution_space
from .induction import lift_volume, lowering_operator, operator_ladder
from .linalg import integer_nullspace
from .multiplicity import MultiplicityMatrix, root_pairs
from .oracle import (
    CountTable,
    compare_volume,
    count_lattice_points,
    dilation_counts,
)
from .polynomial import (
    MultiPoly,
    binomial_series_coeff,
    homogeneous_monomials,
)
from .residue import (
    ResidueSum,
    ResidueTerm,
    VolumePolynomial,
    build_kernel,
    canonical_order,
    iterated_residue,
    laurent_derivative,
    laurent_residue,
    residue_at_zero,
    residue_in_order,
)

__version__ = "0.1.0"

__all__ = [
    "CountTable",
    "DiffOperator",
    "MultiPoly",
    "MultiplicityMatrix",
    "ProblemSpec",
    "ResidueSum",
    "ResidueTerm",
    "SpecError",
    "VolumePolynomial",
    "annihilates",
    "binomial_series_coeff",
    "build_kernel",
    "canonical_order",
    "compare_volume",
    "count_lattice_points",
    "dilation_counts",
    "homogeneous_monomials",
    "integer_nullspace",
    "iterated_residue",
    "laurent_derivative",
    "laurent_residue",
    "lift_volume",
    "lowering_operator",
    "operator_ladder",
    "parse_spec",
    "pde_system",
    "render_spec",
    "residue_at_zero",
    "residue_in_order",
    "root_pairs",
    "run_command",
    "solution_space",
    "__version__",
]
