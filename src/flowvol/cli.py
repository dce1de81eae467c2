"""Batch command-line front end.

A problem is given as one string, e.g.

    "r=3; m[1,2]=1; m[1,3]=1; m[1,4]=2; m[2,3]=1; m[2,4]=2; m[3,4]=2; a=(1,1,1)"

(whitespace optional, entries separated by semicolons, the evaluation point
``a`` optional).  A JSON object {"r": ..., "m": [[i, j, mult], ...],
"a": [...]} is accepted with identical semantics, and an argument of the
form @path reads either format from a file.

Exit codes: 0 success, 1 property violation (an exact identity failed),
2 input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .diffop import pde_system, solution_space
from .induction import lift_volume
from .multiplicity import MultiplicityMatrix, root_pairs
from .oracle import compare_volume
from .polynomial import MultiPoly
from .residue import canonical_order, iterated_residue, residue_in_order


class SpecError(ValueError):
    """Malformed or inconsistent problem specification."""


@dataclass(frozen=True)
class ProblemSpec:
    """Parsed problem: rank, flat multiplicities, optional evaluation point."""

    rank: int
    mult: tuple[int, ...]
    a: tuple[Fraction, ...] | None = None

    def matrix(self) -> MultiplicityMatrix:
        return MultiplicityMatrix(self.rank, self.mult)


_PAIR_KEY = re.compile(r"^m\[(\d+),(\d+)\]$")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"malformed rational {text!r}") from exc


def _build(rank: int | None, entries: dict[tuple[int, int], int],
           a: tuple[Fraction, ...] | None) -> ProblemSpec:
    if rank is None:
        raise SpecError("missing rank entry r=<int>")
    if rank < 1:
        raise SpecError(f"rank must be >= 1, got {rank}")
    pairs = root_pairs(rank)
    for pair in entries:
        if pair not in pairs:
            raise SpecError(f"pair m[{pair[0]},{pair[1]}] out of range for rank {rank}")
    missing = [p for p in pairs if p not in entries]
    if missing:
        listed = ", ".join(f"m[{i},{j}]" for i, j in missing)
        raise SpecError(f"missing multiplicity entries: {listed}")
    for (i, j), value in entries.items():
        if value < 1:
            raise SpecError(f"multiplicity m[{i},{j}] must be positive, got {value}")
    if a is not None and len(a) != rank:
        raise SpecError(f"a has {len(a)} entries, expected {rank}")
    return ProblemSpec(rank, tuple(entries[p] for p in pairs), a)


def _parse_plain(text: str) -> ProblemSpec:
    compact = re.sub(r"\s+", "", text)
    rank: int | None = None
    entries: dict[tuple[int, int], int] = {}
    a: tuple[Fraction, ...] | None = None
    for part in compact.split(";"):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise SpecError(f"entry {part!r} is not of the form key=value")
        if key == "r":
            if rank is not None:
                raise SpecError("duplicate rank entry")
            try:
                rank = int(value)
            except ValueError as exc:
                raise SpecError(f"rank must be an integer, got {value!r}") from exc
        elif key == "a":
            if a is not None:
                raise SpecError("duplicate a entry")
            if not (value.startswith("(") and value.endswith(")")):
                raise SpecError("a must be a parenthesized tuple, e.g. a=(1,2/3)")
            a = tuple(_parse_rational(x) for x in value[1:-1].split(","))
        else:
            match = _PAIR_KEY.match(key)
            if not match:
                raise SpecError(f"unknown entry key {key!r}")
            pair = (int(match.group(1)), int(match.group(2)))
            if pair in entries:
                raise SpecError(f"duplicate entry m[{pair[0]},{pair[1]}]")
            try:
                entries[pair] = int(value)
            except ValueError as exc:
                raise SpecError(f"multiplicity must be an integer, got {value!r}") from exc
    return _build(rank, entries, a)


def _parse_json(text: str) -> ProblemSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError("JSON spec must be an object")
    unknown = set(data) - {"r", "m", "a"}
    if unknown:
        raise SpecError(f"unknown JSON keys {sorted(unknown)}")
    rank = data.get("r")
    # type() rather than isinstance(): JSON true/false decode to bool, an int subclass.
    if type(rank) is not int:
        raise SpecError("JSON key 'r' must be an integer")
    triples = data.get("m", [])
    if not isinstance(triples, list) or not all(
        isinstance(item, list) and len(item) == 3 for item in triples
    ):
        raise SpecError("JSON key 'm' must be a list of [i, j, mult] triples")
    entries: dict[tuple[int, int], int] = {}
    for item in triples:
        i, j, value = item
        if not all(type(x) is int for x in (i, j, value)):
            raise SpecError(f"non-integer multiplicity triple {item}")
        if (i, j) in entries:
            raise SpecError(f"duplicate entry m[{i},{j}]")
        entries[(i, j)] = value
    a = None
    if data.get("a") is not None:
        if not isinstance(data["a"], list):
            raise SpecError("JSON key 'a' must be a list")
        a = tuple(_parse_rational(str(x)) for x in data["a"])
    return _build(rank, entries, a)


def parse_spec(text: str) -> ProblemSpec:
    """Parse the plain semicolon format or the JSON object format."""
    stripped = text.strip()
    if not stripped:
        raise SpecError("empty specification")
    if stripped.startswith("{"):
        return _parse_json(stripped)
    return _parse_plain(stripped)


def render_spec(spec: ProblemSpec) -> str:
    """Canonical plain-text form; parse_spec(render_spec(s)) == s."""
    parts = [f"r={spec.rank}"]
    parts += [
        f"m[{i},{j}]={v}" for (i, j), v in zip(root_pairs(spec.rank), spec.mult)
    ]
    if spec.a is not None:
        parts.append("a=(" + ",".join(str(x) for x in spec.a) + ")")
    return "; ".join(parts)


def _render_poly(poly: MultiPoly, latex: bool) -> str:
    return poly.render_latex() if latex else poly.render()


def _order_regression_lines() -> tuple[list[str], int]:
    """Pinned check that the residue order is the innermost-first one."""
    pinned = MultiplicityMatrix(2, (1, 1, 1))
    canonical = residue_in_order(pinned, canonical_order(2))
    reversed_order = residue_in_order(pinned, tuple(reversed(canonical_order(2))))
    expected = MultiPoly.variable(1, 2)
    if canonical == expected and reversed_order != canonical:
        return ["residue-order regression: ok (reversed order differs on r=2, m=(1,1,1))"], 0
    return [
        "residue-order regression: FAILED",
        f"  canonical order gave {canonical.render()}",
        f"  reversed order gave  {reversed_order.render()}",
    ], 1


def run_command(
    spec: ProblemSpec,
    command: str,
    latex: bool = False,
    degree: int | None = None,
    dilations: int | None = None,
    order_check: bool = False,
) -> tuple[str, int]:
    """Execute one command; returns (report text, exit code)."""
    m = spec.matrix()
    lines: list[str] = []
    code = 0

    if command == "volume":
        v = iterated_residue(m)
        lines.append(f"volume polynomial (rank {m.rank}, degree {m.degree}):")
        lines.append(_render_poly(v.poly, latex))
        if spec.a is not None:
            a_text = ",".join(str(x) for x in spec.a)
            lines.append(f"value at a=({a_text}): {v.poly.evaluate(spec.a)}")
    elif command == "check-pde":
        v = iterated_residue(m)
        failures = 0
        for l, op in pde_system(m).labeled():
            residual = op.apply(v.poly)
            if residual.is_zero:
                lines.append(f"operator l={l}: annihilates v")
            else:
                failures += 1
                lines.append(f"operator l={l}: FAILS, residual {residual.render()}")
        if failures == 0:
            lines.append(f"all {m.rank} operators annihilate v")
        else:
            lines.append(f"property violation: {failures} operator(s) do not annihilate v")
            code = 1
    elif command == "kernel":
        d = m.degree if degree is None else degree
        if d < 0:
            raise SpecError(f"degree must be nonnegative, got {d}")
        basis = solution_space(m, d)
        lines.append(f"solution space at degree {d}: dimension {len(basis)}")
        for idx, poly in enumerate(basis):
            lines.append(f"basis[{idx}] = {_render_poly(poly, latex)}")
    elif command == "lift":
        if m.rank < 2:
            raise SpecError("lift needs rank >= 2")
        v_prev = iterated_residue(m.restriction())
        lifted = lift_volume(v_prev, m)
        direct = iterated_residue(m)
        lines.append(f"rank-{m.rank - 1} volume: {_render_poly(v_prev.poly, latex)}")
        lines.append(f"lifted rank-{m.rank} volume: {_render_poly(lifted.poly, latex)}")
        if lifted.poly == direct.poly:
            lines.append("lift agrees with the direct residue computation")
        else:
            lines.append("property violation: lift differs from the direct residue")
            lines.append(f"direct: {_render_poly(direct.poly, latex)}")
            code = 1
    elif command == "oracle-compare":
        if spec.a is None:
            raise SpecError("oracle-compare needs an evaluation point a=(...)")
        point = []
        for x in spec.a:
            if x.denominator != 1:
                raise SpecError(f"oracle-compare needs integer a, got {x}")
            point.append(int(x))
        if dilations is not None and dilations < m.degree:
            raise SpecError(f"--dilations must be at least the degree {m.degree}")
        try:
            report = compare_volume(m, point, t_max=dilations)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        lines.append(str(report))
        if not report.matches:
            code = 1
    elif command == "corner":
        v = iterated_residue(m)
        exps = m.corner_exponents
        monomial = MultiPoly.monomial(exps).render()
        actual = v.poly.coefficient(exps)
        lines.append(f"corner monomial {monomial}: expected {m.corner_value}, computed {actual}")
        if actual == m.corner_value:
            lines.append("corner coefficient matches")
        else:
            lines.append("property violation: corner coefficient mismatch")
            code = 1
    else:
        raise SpecError(f"unknown command {command!r}")

    if order_check:
        extra, extra_code = _order_regression_lines()
        lines.extend(extra)
        code = max(code, extra_code)
    return "\n".join(lines), code


def _load_spec_argument(arg: str) -> ProblemSpec:
    if arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as handle:
                arg = handle.read()
        except OSError as exc:
            raise SpecError(f"cannot read spec file: {exc}") from exc
    return parse_spec(arg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowvol",
        description="Exact flow-polytope volume computations on the all-positive chamber.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("spec", help="problem spec string, JSON object, or @file")
    common.add_argument("--latex", action="store_true", help="render polynomials as LaTeX")
    common.add_argument(
        "--order-check", action="store_true",
        help="also run the pinned residue-order regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("volume", parents=[common], help="compute the volume polynomial")
    sub.add_parser("check-pde", parents=[common], help="verify the annihilating operators")
    kernel = sub.add_parser("kernel", parents=[common], help="solve the operator system in one degree")
    kernel.add_argument("--degree", type=int, default=None, help="degree to solve in (default: volume degree)")
    sub.add_parser("lift", parents=[common], help="lift the rank-(r-1) volume and compare")
    oracle = sub.add_parser("oracle-compare", parents=[common], help="compare against lattice counting")
    oracle.add_argument("--dilations", type=int, default=None, help="tabulate counts up to this dilation")
    sub.add_parser("corner", parents=[common], help="check the distinguished corner coefficient")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _load_spec_argument(args.spec)
        text, code = run_command(
            spec,
            args.command,
            latex=args.latex,
            degree=getattr(args, "degree", None),
            dilations=getattr(args, "dilations", None),
            order_check=args.order_check,
        )
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
