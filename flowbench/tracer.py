"""Per-layer tracing of flowvol, applied from outside the program.

``Tracer.install`` wraps every plain function and method whose code lives in
one of the layer modules, then rebinds every name in every ``flowvol`` module
namespace that still refers to an unwrapped original.  That second step is
what catches calls through names imported by value, such as
``iterated_residue`` in ``cli`` and ``oracle``, ``solution_space``,
``pde_system`` and ``lift_volume`` in ``cli`` and ``integer_nullspace`` in
``diffop``.  Generator functions are left alone: their time belongs to the
consumer.  ``multiplicity`` is too small to measure on its own, so its time
counts toward the layer that calls it.

Calls are aggregated, not kept as one span each, because the polynomial core
makes hundreds of thousands of calls per run: each function keeps a call
count and its inclusive time (outermost calls only, so recursion does not
count twice), and each layer keeps its self time, which excludes the spans
of the functions it calls.  Size counters are read from arguments and
results after the wrapped call returns; their cost is charged to the
``trace`` pseudo-layer so that no layer's self time includes it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from operator import ge
from typing import Callable

LAYERS = ("cli", "polynomial", "residue", "diffop", "linalg", "induction", "oracle")

# Per-layer metrics read from the wrapped functions: inclusive time summed over
# the listed functions, call counts, and size counters set by the hooks below.
TIMED = {
    "cli.parse_s": ("cli.parse_spec",),
    "polynomial.evaluate_s": ("polynomial.MultiPoly.evaluate",),
    "polynomial.render_s": ("polynomial.MultiPoly.render", "polynomial.MultiPoly.render_latex"),
    "residue.step_s": ("residue.residue_at_zero",),
    "residue.iterated_s": ("residue.iterated_residue",),
    "diffop.apply_s": ("diffop.DiffOperator.apply",),
    "diffop.kernel_s": ("diffop.solution_space",),
    "linalg.nullspace_s": ("linalg.integer_nullspace",),
    "induction.ladder_s": ("induction.operator_ladder",),
    "induction.lift_s": ("induction.lift_volume",),
    "oracle.count_s": ("oracle.count_lattice_points",),
    "oracle.fit_s": ("oracle._newton_fit",),
}
CALLS = {
    "polynomial.init_calls": "polynomial.MultiPoly.__init__",
    "polynomial.mul_calls": "polynomial.MultiPoly.__mul__",
    "polynomial.add_calls": "polynomial.MultiPoly.__add__",
    "residue.step_calls": "residue.residue_at_zero",
    "residue.iterated_calls": "residue.iterated_residue",
    "diffop.apply_calls": "diffop.DiffOperator.apply",
    "oracle.count_calls": "oracle.count_lattice_points",
}
COUNTERS = (
    "polynomial.mul_pairs",
    "residue.terms_peak",
    "residue.coeff_terms_peak",
    "residue.coeff_bits_peak",
    "diffop.apply_pairs",
    "linalg.cells",
    "induction.ladder_terms",
)


class Tracer:
    """Aggregated spans for one process; create, ``install``, run, read ``metrics``."""

    def __init__(self) -> None:
        self.stack: list[float] = []  # child time covered so far, one entry per open span
        self.self_s = dict.fromkeys(LAYERS + ("trace",), 0.0)
        self.calls: dict[str, list] = {}  # qualified name -> [calls, inclusive s, open depth]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.apply_hits = 0
        self.hooks: dict[str, Callable] = {
            "polynomial.MultiPoly.__mul__": self._mul,
            "residue.residue_at_zero": self._residue_step,
            "diffop.DiffOperator.apply": self._apply,
            "linalg.integer_nullspace": self._nullspace,
            "induction.operator_ladder": self._ladder,
        }

    # -- installation ------------------------------------------------------

    def install(self, package: str = "flowvol") -> None:
        """Wrap the layer modules of ``package`` and rebind by-value imports.

        Raises RuntimeError when a function a metric reads no longer exists,
        so a rename in the program fails the run instead of reading zero.
        """
        replaced: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, obj in list(vars(module).items()):
                if self._owned(obj, module):
                    replaced[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        bound = isinstance(member, (classmethod, staticmethod))
                        raw = member.__func__ if bound else member
                        if self._owned(raw, module):
                            wrapped = self._wrap(layer, f"{layer}.{name}.{attr}", raw)
                            setattr(obj, attr, type(member)(wrapped) if bound else wrapped)
        for name, module in list(sys.modules.items()):
            if name == package or name.startswith(package + "."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced:
                        setattr(module, attr, replaced[id(obj)])
        needed = {n for names in TIMED.values() for n in names} | set(CALLS.values()) | set(self.hooks)
        missing = sorted(needed - set(self.calls))
        if missing:
            raise RuntimeError(f"traced functions not found in {package}: {', '.join(missing)}")

    @staticmethod
    def _owned(obj: object, module) -> bool:
        return (
            inspect.isfunction(obj)
            and obj.__code__.co_filename == module.__file__
            and not inspect.isgeneratorfunction(obj)
        )

    def _wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        stat = self.calls[qualname] = [0, 0.0, 0]
        stack, self_s, clock = self.stack, self.self_s, time.perf_counter
        hook = self.hooks.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[2] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[2] -= 1
                if not stat[2]:
                    stat[1] += elapsed
                self_s[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                start = clock()
                hook(args, result)
                spent = clock() - start
                self_s["trace"] += spent
                if stack:
                    stack[-1] += spent
            return result

        return traced

    # -- size counters -----------------------------------------------------

    def _mul(self, args, result) -> None:
        left, right = args
        if hasattr(right, "terms"):
            self.counters["polynomial.mul_pairs"] += len(left.terms) * len(right.terms)

    def _residue_step(self, args, result) -> None:
        c = self.counters
        c["residue.terms_peak"] = max(c["residue.terms_peak"], len(result.terms))
        coeff_terms = sum(len(term.coeff.terms) for term in result.terms)
        c["residue.coeff_terms_peak"] = max(c["residue.coeff_terms_peak"], coeff_terms)
        bits = max(
            (max(q.numerator.bit_length(), q.denominator.bit_length())
             for term in result.terms for q in term.coeff.terms.values()),
            default=0,
        )
        c["residue.coeff_bits_peak"] = max(c["residue.coeff_bits_peak"], bits)

    def _apply(self, args, result) -> None:
        operator, poly = args
        self.counters["diffop.apply_pairs"] += len(operator.poly.terms) * len(poly.terms)
        for dexps in operator.poly.terms:
            self.apply_hits += sum(all(map(ge, pexps, dexps)) for pexps in poly.terms)

    def _nullspace(self, args, result) -> None:
        rows, ncols = args
        self.counters["linalg.cells"] += len(rows) * ncols

    def _ladder(self, args, result) -> None:
        self.counters["induction.ladder_terms"] += sum(len(step.poly.terms) for step in result.steps)

    # -- report ------------------------------------------------------------

    def covered_s(self) -> float:
        """Sum of all self times, the trace pseudo-layer included."""
        return sum(self.self_s.values())

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        for name, functions in TIMED.items():
            out[name] = sum(self.calls[f][1] for f in functions)
        for name, function in CALLS.items():
            out[name] = self.calls[function][0]
        out.update(self.counters)
        pairs = self.counters["diffop.apply_pairs"]
        out["diffop.apply_hit_ratio"] = self.apply_hits / pairs if pairs else 0.0
        return out
