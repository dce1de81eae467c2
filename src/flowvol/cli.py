"""Batch command-line front end.

A problem is given as one string, e.g.

    "r=3; m[1,2]=1; m[1,3]=1; m[1,4]=2; m[2,3]=1; m[2,4]=2; m[3,4]=2; a=(1,1,1)"

(entries separated by semicolons, the evaluation point ``a`` optional).
Whitespace may stand between any two tokens and is dropped there, but it
never joins two tokens into one: ``m[1,2]=1 1`` and ``a=(1 2)`` are input
errors, not 11 and 12.  A JSON object {"r": ..., "m": [[i, j, mult], ...],
"a": [...]} is accepted with identical semantics; a JSON number with a
fraction or exponent part is read from its text as typed, never through a
binary float, so ``0.30000000000000001`` is that decimal and ``1e3`` is
refused as exponent notation, as in the plain form.  A key given twice in
a JSON object is an input error, as a repeated plain entry is, and is never
read as its last value.  An argument of the form @path reads either format
from a file.

Exit codes: 0 success, 1 property violation (an exact identity failed, or
a computed volume failed the volume check of ``residue``; ``run_command``
returns its report line and code itself), 2 input error,
141 (``EXIT_STDOUT_CLOSED``) when standard output is closed before the
report is written in full.  A problem whose volume degree exceeds
``MAX_DEGREE``, or a ``kernel --degree`` or ``oracle-compare --dilations``
above it or not a plain ASCII integer, is an input error, and so is an
evaluation point too large to print (``MAX_POINT_BITS``) or written in
exponent notation, and an ``oracle-compare`` whose largest dilated supply is
above ``MAX_SUPPLY``, and an @path file longer than ``MAX_SPEC_CHARS``
characters.

A start loads only its command's route.  ``multiplicity``, ``polynomial``
and ``residue`` load with this module, which is all that ``volume`` and
``corner`` run; ``check-pde`` and ``kernel`` import ``diffop``, ``lift``
imports ``induction`` (which imports ``diffop``), ``oracle-compare`` imports
``oracle``, and a JSON spec imports ``json``, each in its own branch when it
first runs.  Only ``kernel`` loads ``linalg``: ``solution_space`` imports it
in its own body.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .multiplicity import MultiplicityMatrix, root_pairs
from .polynomial import MultiPoly, divided_coefficient
from .residue import _PropertyViolation, canonical_order, iterated_residue, residue_in_order


# About 1.3 times the volume degree of the largest problem CI runs (r=7, all
# m=3: degree 77), so that far larger inputs fail at once instead of running
# for hours or exhausting memory.
MAX_DEGREE = 100

# The lattice count keeps lists of ways indexed by the remaining supplies, so
# its memory grows with the supply (a = (1000000000) at rank 1 asks for a
# list of a billion ways) and its time with a power of it that rises with the
# rank.  ``oracle-compare`` refuses a largest dilated supply t_max * sum(a)
# above this, which admits ``--dilations`` at its ceiling on a = (1, 1).
# Without ``--dilations`` the counts run on a window around t = 0 (``oracle``)
# whose largest supply is about half of degree * sum(a), so the check is loose
# both ways.  Under it, with all m=1 on a shared 2-core VM, rank 4 counts in
# 1.1 s at a = (30, 1, 1, 1), rank 5 in 23 s at a = (16, 1, 1, 1, 1), and
# rank 6 at a = (8, 1, 1, 1, 1, 1) (supply 195) and rank 7 at a = (3, 1, ..., 1)
# (supply 189) in 60-68 s each.  Above it, the rank-3 matrix m = (1,1,2,1,2,2)
# at a = (12, 12, 12) (supply 216) is refused, though it counts in under 0.01 s.
MAX_SUPPLY = 200

# Python refuses to print an int of more than 4,300 digits (about 14,284
# bits).  At a point with entries p_i/q_i of at most b bits, a degree-d
# value over the common denominator prod q_i^d has a numerator of at most
# r*d*b bits from the point, and each entry has b, so a point with
# r * max(d, 1) * b above this ceiling is refused.  The other 4,284 bits
# cover the volume coefficients (their denominators divide d!, 525 bits at
# MAX_DEGREE) and the sum over the monomials.
MAX_POINT_BITS = 10_000

# Written without padding, a spec within every other ceiling is a few
# kilobytes: r <= 14 by MAX_DEGREE, so at most 105 pairs, and a numerator or
# denominator of the point has at most MAX_POINT_BITS bits, about 3,000
# digits.  An @path file is read up to one character past this and refused
# above it, so that @/dev/zero or a stray large file fails at once.
MAX_SPEC_CHARS = 1 << 20

# 128 + SIGPIPE: the status a shell reports for a writer that the signal ended,
# so ``set -o pipefail`` sees ``flowvol ... | head`` as it sees ``yes | head``.
EXIT_STDOUT_CLOSED = 141


class SpecError(ValueError):
    """Malformed or inconsistent problem specification."""


class ProblemSpec(NamedTuple):
    """Parsed problem: rank, flat multiplicities, optional evaluation point."""

    rank: int
    mult: tuple[int, ...]
    a: tuple[Fraction, ...] | None = None

    def matrix(self) -> MultiplicityMatrix:
        return MultiplicityMatrix(self.rank, self.mult)


# int() and Fraction() also read digit separators and non-ASCII digits, so
# that 1_0 would be 10 and the Arabic-Indic 2 would be 2: numbers are plain
# ASCII, and an integer is an optional sign and the digits 0-9.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_PAIR_KEY = re.compile(r"m\s*\[\s*([0-9]+)\s*,\s*([0-9]+)\s*\]")
# An entry of a is what Fraction(text) reads with no digit separator and no
# exponent: optional whitespace at either end, an optional sign, and digits
# with an optional /digits or .digits, at least one digit before any "/".
# That is Fraction's grammar in Python 3.10 and 3.11; from 3.12 Fraction also
# allows whitespace around the "/", which is refused here on every version.
_RATIONAL = re.compile(r"\s*([-+]?)(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|\.([0-9]*))?\s*")


def _parse_int(text: str, what: str) -> int:
    if _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's limit on digits
            pass
    raise SpecError(f"{what} must be an integer, got {text!r}")


def _parse_rational(text: str) -> Fraction:
    """An entry of a: the value Fraction(text) gives, on the strings ``_RATIONAL`` accepts.

    Each run of digits goes through int() on its own, as in Fraction, so a
    run past the interpreter's limit on digits is malformed in both.  The
    grammar's whitespace class would also match non-ASCII spaces, so only
    ASCII text is tried.  An exponent, which Fraction would expand
    (1e10000000) before any size check, has a message of its own, unless
    the text is also non-ASCII or has a digit separator.
    """
    match = _RATIONAL.fullmatch(text) if text.isascii() else None
    if not match:
        if text.isascii() and "_" not in text and re.search(r"[eE][-+]?[0-9]", text):
            raise SpecError(f"exponent notation is not accepted, got {text!r}")
        raise SpecError(f"malformed rational {text!r}")
    sign, digits, denominator, decimals = match.groups()
    try:
        numerator, scale = int(digits or 0), int(denominator or 1)
        if decimals:
            scale = 10 ** len(decimals)
            numerator = numerator * scale + int(decimals)
        return Fraction(-numerator if sign == "-" else numerator, scale)
    except (ValueError, ZeroDivisionError) as exc:  # a run past the limit on digits, or p/0
        raise SpecError(f"malformed rational {text!r}") from exc


def _build(rank: int | None, entries: dict[tuple[int, int], int],
           a: tuple[Fraction, ...] | None) -> ProblemSpec:
    if rank is None:
        raise SpecError("missing rank entry r=<int>")
    if rank < 1:
        raise SpecError(f"rank must be >= 1, got {rank}")
    # Every multiplicity is at least 1, so the degree M - r is at least
    # r(r-1)/2: bound the rank before root_pairs builds r(r+1)/2 pairs.
    least = rank * (rank - 1) // 2
    if least > MAX_DEGREE:
        raise SpecError(f"rank {rank} has volume degree at least {least}, above the ceiling {MAX_DEGREE}")
    pairs = root_pairs(rank)
    if not entries.keys() <= set(pairs):
        i, j = next(pair for pair in entries if pair not in pairs)
        raise SpecError(f"pair m[{i},{j}] out of range for rank {rank}")
    if len(entries) < len(pairs):  # every entry is one of the pairs, so some pair is missing
        listed = ", ".join(f"m[{i},{j}]" for i, j in pairs if (i, j) not in entries)
        raise SpecError(f"missing multiplicity entries: {listed}")
    if min(entries.values()) < 1:
        (i, j), value = next(item for item in entries.items() if item[1] < 1)
        raise SpecError(f"multiplicity m[{i},{j}] must be positive, got {value}")
    degree = sum(entries.values()) - rank
    if degree > MAX_DEGREE:
        raise SpecError(f"volume degree {degree} is above the ceiling {MAX_DEGREE}")
    if a is not None:
        if len(a) != rank:
            raise SpecError(f"a has {len(a)} entries, expected {rank}")
        bits = max(abs(x.numerator) | x.denominator for x in a).bit_length()
        if rank * max(degree, 1) * bits > MAX_POINT_BITS:
            raise SpecError(
                f"evaluation point of {bits}-bit entries at rank {rank} and degree {degree} "
                f"is above the ceiling rank * max(degree, 1) * bits <= {MAX_POINT_BITS}"
            )
    return ProblemSpec(rank, tuple(entries[p] for p in pairs), a)


def _parse_plain(text: str) -> ProblemSpec:
    rank: int | None = None
    entries: dict[tuple[int, int], int] = {}
    a: tuple[Fraction, ...] | None = None
    for part in text.split(";"):
        key, sep, value = part.partition("=")
        # strip() removes exactly the characters \s matches: whitespace may
        # stand between two tokens, and never joins two into one
        key, value = key.strip(), value.strip()
        if not sep:
            if key:
                raise SpecError(f"entry {key!r} is not of the form key=value")
            continue
        if key == "r":
            if rank is not None:
                raise SpecError("duplicate rank entry")
            rank = _parse_int(value, "rank")
        elif key == "a":
            if a is not None:
                raise SpecError("duplicate a entry")
            if not (value.startswith("(") and value.endswith(")")):
                raise SpecError("a must be a parenthesized tuple, e.g. a=(1,2/3)")
            a = tuple(_parse_rational(x.strip()) for x in value[1:-1].split(","))
        else:
            match = _PAIR_KEY.fullmatch(key)
            if not match:
                raise SpecError(f"unknown entry key {key!r}")
            try:
                pair = (int(match.group(1)), int(match.group(2)))
            except ValueError as exc:  # an index past the interpreter's limit on digits
                raise SpecError(f"pair indices must be integers, got {key!r}") from exc
            if pair in entries:
                raise SpecError(f"duplicate entry m[{pair[0]},{pair[1]}]")
            entries[pair] = _parse_int(value, "multiplicity")
    return _build(rank, entries, a)


class _Literal(str):
    """A JSON number with a fraction or exponent part, kept as typed; its repr is the text."""

    __repr__ = str.__str__


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A decoded JSON object; a key given twice is an input error, as a repeated plain entry is."""
    data: dict[str, object] = {}
    for key, value in pairs:
        if key in data:
            name = {"r": "rank", "a": "a"}.get(key)
            raise SpecError(f"duplicate {name} entry" if name else f"duplicate JSON key {key!r}")
        data[key] = value
    return data


def _parse_json(text: str) -> ProblemSpec:
    import json

    try:
        data = json.loads(text, parse_float=_Literal, object_pairs_hook=_unique_keys)
    except SpecError:  # a repeated key: a ValueError too, but not malformed JSON
        raise
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer past the limit on digits;
        # RecursionError: arrays or objects nested past the recursion limit.
        raise SpecError(f"invalid JSON: {exc}") from exc
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
        # a JSON string or number as typed; any other value in JSON, never as Python spells it
        a = tuple(_parse_rational(str(x) if type(x) in (int, str, _Literal) else json.dumps(x)) for x in data["a"])
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


def _order_regression_lines(render: Callable[[MultiPoly], str]) -> tuple[list[str], int]:
    """Pinned check that the residue order is the innermost-first one, its failures shown by ``render``."""
    pinned = MultiplicityMatrix(2, (1, 1, 1))
    canonical = residue_in_order(pinned, canonical_order(2))
    reversed_order = residue_in_order(pinned, tuple(reversed(canonical_order(2))))
    expected = MultiPoly.variable(1, 2)
    if canonical == expected and reversed_order != canonical:
        return ["residue-order regression: ok (reversed order differs on r=2, m=(1,1,1))"], 0
    return [
        "residue-order regression: FAILED",
        f"  canonical order gave {render(canonical)}",
        f"  reversed order gave  {render(reversed_order)}",
    ], 1


def run_command(
    spec: ProblemSpec,
    command: str,
    latex: bool = False,
    degree: int | None = None,
    dilations: int | None = None,
    order_check: bool = False,
) -> tuple[str, int]:
    """Execute one command; returns (report text, exit code).

    This is the text and the code that ``flowvol`` prints and exits with;
    ``main`` only adds reading the arguments, the error stream for a
    ``SpecError`` (which propagates from here, as every other exception
    does) and the closed-pipe exit.  A failed certificate that ends the
    command at once, a computed volume that fails the volume check of
    ``residue.VolumePolynomial`` or a lattice count off the fit
    (``oracle.OffFitError``), raises the property violation of ``residue``,
    which is returned here as its one ``property violation:`` line with code
    1 and no order check.

    Every command that reads a volume, ``volume``, ``check-pde``, ``lift``,
    ``corner`` and the residue value of ``oracle-compare``, reads its
    integer table T(v) (``VolumePolynomial.table``) and builds no
    ``Fraction`` polynomial of it: ``lift`` renders the restricted, the
    lifted and the direct volume's tables and compares the last two.  Every
    report line is written here, ``oracle-compare``'s three from the two
    values of ``oracle.compare_volume``.
    """
    m = spec.matrix()
    render = MultiPoly.render_latex if latex else MultiPoly.render
    lines: list[str] = []
    code = 0

    try:
        if command == "volume":
            v = iterated_residue(m)
            lines.append(f"volume polynomial (rank {m.rank}, degree {m.degree}):")
            lines.append(render(v.table, divided=True))
            if spec.a is not None:
                a_text = ",".join(str(x) for x in spec.a)
                lines.append(f"value at a=({a_text}): {v.value_at(spec.a)}")
        elif command == "check-pde":
            from .diffop import node_residuals

            failures = 0
            for l, residual in node_residuals(m, iterated_residue(m).table.terms):
                if residual.is_zero:
                    lines.append(f"operator l={l}: annihilates v")
                else:
                    failures += 1
                    lines.append(f"operator l={l}: FAILS, residual {render(residual)}")
            if failures == 0:
                lines.append(f"all {m.rank} operators annihilate v")
            else:
                lines.append(f"property violation: {failures} operator(s) do not annihilate v")
                code = 1
        elif command == "kernel":
            d = m.degree if degree is None else degree
            if d < 0:
                raise SpecError(f"degree must be nonnegative, got {d}")
            if d > MAX_DEGREE:
                raise SpecError(f"degree {d} is above the ceiling {MAX_DEGREE}")
            from .diffop import solution_space

            basis = solution_space(m, d)
            lines.append(f"solution space at degree {d}: dimension {len(basis)}")
            for idx, poly in enumerate(basis):
                lines.append(f"basis[{idx}] = {render(poly)}")
        elif command == "lift":
            if m.rank < 2:
                raise SpecError("lift needs rank >= 2")
            from .induction import lift_volume

            v_prev = iterated_residue(m.restriction())
            lifted = lift_volume(v_prev, m)
            lines.append(f"rank-{m.rank - 1} volume: {render(v_prev.table, divided=True)}")
            lines.append(f"lifted rank-{m.rank} volume: {render(lifted.table, divided=True)}")
            direct = iterated_residue(m)  # after the renders, so that the residue's peak does not meet theirs
            if lifted == direct:
                lines.append("lift agrees with the direct residue computation")
            else:
                lines.append("property violation: lift differs from the direct residue")
                lines.append(f"direct: {render(direct.table, divided=True)}")
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
            if dilations is not None and dilations > MAX_DEGREE:
                raise SpecError(f"--dilations {dilations} is above the ceiling {MAX_DEGREE}")
            supply = (m.degree if dilations is None else dilations) * sum(point)
            if supply > MAX_SUPPLY:
                raise SpecError(
                    f"largest dilated supply t_max * sum(a) = {supply} is above the ceiling {MAX_SUPPLY}"
                )
            low = next((x for x in point if x < 1), None)  # compare_volume's check, as an input error
            if low is not None:
                raise SpecError(f"supply entry {low} below the required minimum 1")
            from .oracle import compare_volume

            report = compare_volume(m, point, t_max=dilations)
            lines.append(f"volume polynomial value at a=({','.join(map(str, point))}): {report.residue_value}")
            lines.append(f"lattice-count leading coefficient:  {report.count_value}")
            if report.matches:
                lines.append("exact match")
            else:
                lines.append(f"MISMATCH: difference {report.residue_value - report.count_value}")
                code = 1
        elif command == "corner":
            exps = m.corner_exponents
            monomial = render(MultiPoly.monomial(exps))
            actual = divided_coefficient(iterated_residue(m).table.terms, exps)
            lines.append(f"corner monomial {monomial}: expected {m.corner_value}, computed {actual}")
            lines.append("corner coefficient matches")  # VolumePolynomial has checked it
        else:
            raise SpecError(f"unknown command {command!r}")
    except _PropertyViolation as exc:
        return f"property violation: {exc}", 1

    if order_check:
        extra, extra_code = _order_regression_lines(render)
        lines.extend(extra)
        code = max(code, extra_code)
    return "\n".join(lines), code


def _load_spec_argument(arg: str) -> ProblemSpec:
    if arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as handle:
                arg = handle.read(MAX_SPEC_CHARS + 1)
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecError(f"cannot read spec file: {exc}") from exc
        if len(arg) > MAX_SPEC_CHARS:
            raise SpecError(f"spec file is longer than the ceiling of {MAX_SPEC_CHARS} characters")
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
    kernel.add_argument("--degree", default=None, help="degree to solve in (default: volume degree)")
    sub.add_parser("lift", parents=[common], help="lift the rank-(r-1) volume and compare")
    oracle = sub.add_parser("oracle-compare", parents=[common], help="compare against lattice counting")
    oracle.add_argument("--dilations", default=None, help="tabulate counts up to this dilation")
    sub.add_parser("corner", parents=[common], help="check the distinguished corner coefficient")
    return parser


def _option_int(args: argparse.Namespace, name: str) -> int | None:
    """An integer option, read by the spec's ASCII rule; None when absent."""
    text = getattr(args, name, None)
    return None if text is None else _parse_int(text, f"--{name}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _load_spec_argument(args.spec)
        text, code = run_command(
            spec,
            args.command,
            latex=args.latex,
            degree=_option_int(args, "degree"),
            dilations=_option_int(args, "dilations"),
            order_check=args.order_check,
        )
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader is gone (``| head``).  Point stdout at devnull, so that the
        # flush at exit cannot fail again, and end without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
