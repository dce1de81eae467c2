"""Output gate: decides, op by op, whether the program's answer is right.

Each op must exit 0 and print its command's success line.  Rendered
polynomials are read back with the benchmark's own parser and must be
homogeneous of the volume degree with the corner coefficient
1 / prod_l (row_sum(l) - 1)!, computed here from the multiplicities; a
printed value at a must equal the printed polynomial evaluated at a.  Ops of
one problem must agree: the ``volume`` polynomial, the ``lifted`` line of
``lift`` and ``basis[0]`` of ``kernel`` are the same string.  Finally, when a
digest of the stream's outputs is stored for this seed and length, each op's
stdout must match its digest.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Sequence

from workloads import Op, root_pairs

Poly = dict[tuple[int, ...], Fraction]


def parse_poly(text: str, nvars: int) -> Poly:
    """Read the canonical rendering, e.g. ``1/2*a1^2 - a1*a2 + 3``; ValueError if malformed."""
    if text == "0":
        return {}
    tokens = text.split(" ")
    first = tokens[0]
    signed = [("-", first[1:]) if first.startswith("-") else ("+", first)]
    signed += zip(tokens[1::2], tokens[2::2])
    if len(tokens) % 2 == 0:
        raise ValueError("dangling sign")
    terms: Poly = {}
    for sign, body in signed:
        coeff = Fraction(1)
        exps = [0] * nvars
        for factor in body.split("*"):
            if factor.startswith("a"):
                var, _, power = factor[1:].partition("^")
                if not 1 <= int(var) <= nvars:
                    raise ValueError(f"variable {factor!r} out of range")
                exps[int(var) - 1] += int(power) if power else 1
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        if sign not in ("+", "-") or key in terms or coeff <= 0:
            raise ValueError(f"bad term {sign} {body!r}")
        terms[key] = -coeff if sign == "-" else coeff
    return terms


def evaluate(poly: Poly, point: Sequence[Fraction]) -> Fraction:
    """Exact value at a rational point, summed in integers over one denominator per coefficient."""
    nums = [x.numerator for x in point]
    dens = [x.denominator for x in point]
    top = [max((exps[i] for exps in poly), default=0) for i in range(len(point))]
    sums: dict[int, int] = {}
    for exps, c in poly.items():
        scaled = math.prod(p ** e * q ** (t - e) for p, q, e, t in zip(nums, dens, exps, top))
        sums[c.denominator] = sums.get(c.denominator, 0) + c.numerator * scaled
    total = sum((Fraction(n, d) for d, n in sums.items()), Fraction(0))
    return total / math.prod(q ** t for q, t in zip(dens, top))


def corner(rank: int, mult: Sequence[int]) -> tuple[tuple[int, ...], Fraction]:
    """The corner exponents, row_sum(l) - 1 for each a_l, and their coefficient.

    The coefficient is 1 / prod_l (row_sum(l) - 1)!.
    """
    sums = [0] * rank
    for (i, _), value in zip(root_pairs(rank), mult):
        sums[i - 1] += value
    return tuple(s - 1 for s in sums), Fraction(1, math.prod(math.factorial(s - 1) for s in sums))


def volume_problem(rank: int, mult: Sequence[int], text: str) -> tuple[Poly, str | None]:
    """Read a rendered volume polynomial and check it against the problem.

    Returns the polynomial and None when it passes, or the reason it fails.
    """
    try:
        poly = parse_poly(text, rank)
    except (ValueError, ZeroDivisionError):
        return {}, f"unreadable polynomial {text[:60]!r}"
    degree = sum(mult) - rank
    if not poly or any(sum(exps) != degree for exps in poly):
        return poly, f"polynomial is not homogeneous of degree {degree}"
    exps, value = corner(rank, mult)
    if poly.get(exps) != value:
        return poly, f"corner coefficient is not {value}"
    return poly, None


def _after(line: str, prefix: str) -> str | None:
    return line[len(prefix):] if line.startswith(prefix) else None


def check_op(op: Op, code: int, stdout: str) -> str | None:
    """Why this op's output is wrong, or None when it passes."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.rstrip("\n").split("\n")
    r, m = op.rank, op.mult
    degree = sum(m) - r
    a_text = None if op.a is None else ",".join(str(x) for x in op.a)

    if op.command == "volume":
        want = 2 if op.a is None else 3
        if len(lines) != want or lines[0] != f"volume polynomial (rank {r}, degree {degree}):":
            return "volume output has the wrong shape"
        poly, problem = volume_problem(r, m, lines[1])
        if problem or op.a is None:
            return problem
        value = _after(lines[2], f"value at a=({a_text}): ")
        if value is None or Fraction(value) != evaluate(poly, op.a):
            return "value at a disagrees with the polynomial"
        return None
    if op.command == "check-pde":
        return None if lines[-1] == f"all {r} operators annihilate v" else "operators do not annihilate v"
    if op.command == "kernel":
        if op.degree is not None:
            ok = lines == [f"solution space at degree {op.degree}: dimension 0"]
            return None if ok else "kernel above the volume degree is not empty"
        if len(lines) != 2 or lines[0] != f"solution space at degree {degree}: dimension 1":
            return "kernel at the volume degree is not a line"
        basis = _after(lines[1], "basis[0] = ")
        return "missing basis[0]" if basis is None else volume_problem(r, m, basis)[1]
    if op.command == "lift":
        if len(lines) != 3 or lines[2] != "lift agrees with the direct residue computation":
            return "lift does not agree"
        restricted = [m[k] for k, (i, _) in enumerate(root_pairs(r)) if i > 1]
        previous = _after(lines[0], f"rank-{r - 1} volume: ")
        lifted = _after(lines[1], f"lifted rank-{r} volume: ")
        if previous is None or lifted is None:
            return "lift output has the wrong shape"
        return volume_problem(r - 1, restricted, previous)[1] or volume_problem(r, m, lifted)[1]
    if op.command == "oracle-compare":
        if len(lines) != 3 or lines[2] != "exact match":
            return "no exact match"
        residue = _after(lines[0], f"volume polynomial value at a=({a_text}): ")
        counted = _after(lines[1], "lattice-count leading coefficient:  ")
        if residue is None or counted is None or Fraction(residue) != Fraction(counted):
            return "oracle values disagree"
        return None
    if op.command == "corner":
        value = corner(r, m)[1]
        if len(lines) != 2 or lines[1] != "corner coefficient matches":
            return "corner coefficient does not match"
        if not lines[0].endswith(f": expected {value}, computed {value}"):
            return f"corner value is not {value}"
        return None
    return f"unknown command {op.command!r}"


def shared_polynomial(op: Op, stdout: str) -> str | None:
    """The volume polynomial an op prints, for the cross-command comparison."""
    lines = stdout.split("\n")
    if op.command == "volume" and len(lines) > 1:
        return lines[1]
    if op.command == "lift" and len(lines) > 1:
        return _after(lines[1], f"lifted rank-{op.rank} volume: ")
    if op.command == "kernel" and op.degree is None and len(lines) > 1:
        return _after(lines[1], "basis[0] = ")
    return None


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def check_stream(
    ops: Sequence[Op], outputs: Sequence[tuple[int, str]], digests: Sequence[str] | None = None
) -> dict[int, str]:
    """Failures by op index for the ``(exit code, stdout)`` of every op."""
    failures: dict[int, str] = {}
    shared: dict[int, dict[int, str | None]] = {}
    for index, (op, (code, stdout)) in enumerate(zip(ops, outputs)):
        problem = check_op(op, code, stdout)
        if problem:
            failures[index] = problem
        if op.command in ("volume", "lift") or (op.command == "kernel" and op.degree is None):
            shared.setdefault(op.problem, {})[index] = shared_polynomial(op, stdout)
    for group in shared.values():
        if len(set(group.values())) > 1:
            for index in group:
                failures.setdefault(index, "volume, lift and kernel print different polynomials")
    if digests is not None:
        if len(digests) != len(ops):
            raise ValueError(f"{len(digests)} stored digests for {len(ops)} ops")
        for index, ((_, stdout), want) in enumerate(zip(outputs, digests)):
            if digest(stdout) != want:
                failures.setdefault(index, "output differs from the stored digest")
    return failures
