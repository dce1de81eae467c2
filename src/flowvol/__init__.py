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

``import flowvol`` loads ``multiplicity``, ``polynomial`` and ``residue``,
which every command uses.  The other certificates load on first use: the
names of ``__all__`` that live in ``diffop``, ``induction`` or ``oracle``,
and every submodule attribute (``flowvol.cli``, ``flowvol.linalg``, ...),
resolve through the module ``__getattr__`` (PEP 562), so ``flowvol
corner`` never compiles the operator system, the lift or the lattice count.
"""

from importlib import import_module

from .multiplicity import MultiplicityMatrix
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

_DEFERRED = {"annihilates": "diffop", "pde_system": "diffop", "solution_space": "diffop", "compare_volume": "oracle",
             "lift_volume": "induction", "lowering_operator": "induction", "operator_ladder": "induction"}
_SUBMODULES = {"cli", "diffop", "induction", "linalg", "multiplicity", "oracle", "polynomial", "residue"}


def __getattr__(name: str):
    if name not in _SUBMODULES and name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_DEFERRED.get(name, name)}")
    return module if name in _SUBMODULES else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
