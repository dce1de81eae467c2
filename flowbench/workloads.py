"""Seeded op streams for the benchmark workloads.

An op is one CLI call: ``(command, spec, degree)``, where ``spec`` is a
problem spec string in the plain ``r=...; m[i,j]=...; a=(...)`` format and
``degree`` is the ``kernel --degree`` value (``None`` for the default).  The
program under test receives nothing but these strings.

Every workload is a closed loop with one caller.  Its problems are drawn
without replacement from stratified pools: each stratum is a set of problems
of similar cost, and a stream takes a fixed number of problems from each, so
its cost varies little from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

Mult = tuple[int, ...]


@dataclass(frozen=True)
class Op:
    """One CLI call, with the problem data the output gate checks against."""

    command: str
    spec: str
    degree: int | None
    rank: int
    mult: Mult
    a: tuple[Fraction, ...] | None
    problem: int  # index of the problem in the stream; ops of one problem share it


def root_pairs(rank: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 2)]


def spec_text(rank: int, mult: Mult, a: Sequence[Fraction] | None = None) -> str:
    parts = [f"r={rank}"]
    parts += [f"m[{i},{j}]={v}" for (i, j), v in zip(root_pairs(rank), mult)]
    if a is not None:
        parts.append("a=(" + ",".join(str(x) for x in a) + ")")
    return "; ".join(parts)


def with_twos(rank: int, twos: int) -> list[Mult]:
    """Every rank-``rank`` matrix with exactly ``twos`` entries 2 and the rest 1."""
    n = rank * (rank + 1) // 2
    return [
        tuple(2 if i in chosen else 1 for i in range(n))
        for chosen in itertools.combinations(range(n), twos)
    ]


def by_cost(rank: int, pool: list[Mult], parts: int) -> list[list[Mult]]:
    """Split a pool into ``parts`` equal slices by a proxy of the residue cost.

    The proxy is the sum of the row indices i of the entries m[i,j] = 2: the
    later the rows that carry them, the more terms the innermost residues
    make.  It correlated 0.91 with the time of rank-6 volume problems and
    0.8-0.86 with that of rank-5 check-pde and rank-6 lift problems.
    Sampling each slice in its share keeps the sample uniform over the pool
    while fixing how many cheap and costly problems a stream holds.
    """
    pairs = root_pairs(rank)

    def proxy(m: Mult) -> tuple:
        return sum(i for (i, _), v in zip(pairs, m) if v == 2), m

    ordered = sorted(pool, key=proxy)
    size = len(ordered) / parts
    return [ordered[round(k * size):round((k + 1) * size)] for k in range(parts)]


def interleave(rng: random.Random, strata: Sequence[tuple[float, list]], count: float) -> list:
    """About ``count`` problems from the ``(weight, pool)`` strata, in a stratified order.

    Stratum s contributes exactly round(count * weight_s / total weight)
    problems, drawn without replacement from its shuffled pool, so that only
    the choice of problems within each stratum depends on the seed.  The
    i-th problem of a stratum gets the key (i + u) / weight, with one uniform
    offset u per stratum, and the stream is sorted by key, which spreads each
    stratum evenly over the stream.
    """
    total = sum(weight for weight, _ in strata)
    keyed = []
    for index, (weight, pool) in enumerate(strata):
        take = round(count * weight / total)
        if take > len(pool):
            raise ValueError(f"stratum {index} holds {len(pool)} problems, the stream needs {take}")
        items = rng.sample(pool, take)
        offset = rng.random()
        keyed += [((i + offset) / weight, index, item) for i, item in enumerate(items)]
    keyed.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in keyed]


@dataclass(frozen=True)
class Workload:
    """A named stratified op stream.

    ``per_second`` is the number of problems the commit that defined the
    benchmark ran per second on a 2-core x86-64 container (Python 3.11); a
    run of ``seconds`` takes about ``seconds * per_second`` problems, the same
    on both commits of a comparison.
    """

    name: str
    per_second: float
    strata: Callable[[], list[tuple[float, list]]]
    expand: Callable[[random.Random, object, int], list[Op]]
    # per-layer metrics (a name, or a prefix such as "linalg.") that the traced
    # run must read nonzero, and ones it must read zero: the split the workload
    # was chosen for, so that a rename in the program cannot silently read zero
    busy: tuple[str, ...]
    idle: tuple[str, ...] = ()

    def stream(self, seed: int, seconds: float) -> list[Op]:
        rng = random.Random(f"{self.name}/{seed}")
        ops: list[Op] = []
        for problem, item in enumerate(interleave(rng, self.strata(), seconds * self.per_second)):
            ops += self.expand(rng, item, problem)
        return ops


# -- volume-deep -------------------------------------------------------------

_VOLUME_DEEP = [(5, twos) for twos in range(6, 13)] + [(6, twos) for twos in range(2, 5)]


def _volume_deep_strata() -> list[tuple[float, list]]:
    return [
        (1 / 3, [(rank, m) for m in part])
        for rank, twos in _VOLUME_DEEP
        for part in by_cost(rank, with_twos(rank, twos), 3)
    ]


def _volume_deep_expand(rng, item, problem) -> list[Op]:
    rank, mult = item
    # each entry an integer 1-9 or, half the time, a fraction p/q with q in 2-5
    a = tuple(
        Fraction(rng.randint(1, 12), rng.randint(2, 5)) if rng.random() < 0.5 else Fraction(rng.randint(1, 9))
        for _ in range(rank)
    )
    return [Op("volume", spec_text(rank, mult, a), None, rank, mult, a, problem)]


# -- certify-deep ------------------------------------------------------------

def _certify_deep_strata() -> list[tuple[float, list]]:
    def split(rank: int, twos: int) -> tuple[list, list]:
        # alternate matrices, so that two commands never share a problem
        pool = with_twos(rank, twos)
        return pool[0::2], pool[1::2]

    strata = [(2.5, [("kernel", 4, m, None) for m in with_twos(4, 2)])]
    strata += [(1 / 3, [("lift", 6, m, None) for m in part]) for part in by_cost(6, with_twos(6, 1), 3)]
    # most check-pde problems have 6 entries 2, so that the median op falls well
    # inside that class instead of on a border between classes, where it would
    # jump from seed to seed
    for twos, weight in ((2, 2.0), (4, 2.0), (6, 7.0), (8, 1.0)):
        strata += [
            (weight / 3, [("check-pde", 5, m, None) for m in part])
            for part in by_cost(5, with_twos(5, twos), 3)
        ]
    # the counting cost depends mostly on where a puts its entries 2, so every
    # arrangement of (1,1,2,2) is a stratum of its own, with its own matrices
    arrangements = sorted(set(itertools.permutations((1, 1, 2, 2))))
    for weight, pool in ((1.5, split(4, 3)[1]), (2.0, split(4, 4)[1]), (1.0, split(4, 5)[1])):
        for k, a in enumerate(arrangements):
            point = tuple(Fraction(x) for x in a)
            share = pool[k::len(arrangements)]
            strata.append((weight / len(arrangements), [("oracle-compare", 4, m, point) for m in share]))
    return strata


def _certify_deep_expand(rng, item, problem) -> list[Op]:
    command, rank, mult, a = item
    return [Op(command, spec_text(rank, mult, a), None, rank, mult, a, problem)]


# -- certify-sweep -----------------------------------------------------------

SWEEP_COMMANDS = ("volume", "check-pde", "kernel", "kernel+1", "lift", "oracle-compare", "corner")


def _certify_sweep_strata() -> list[tuple[float, list]]:
    by_class: dict[tuple[int, int], list] = {}
    for rank in (2, 3):
        for mult in itertools.product((1, 2, 3), repeat=rank * (rank + 1) // 2):
            by_class.setdefault((rank, sum(mult)), []).append((rank, mult))
    # weight each (rank, total multiplicity) class by its size: a uniform sample, stratified
    return [(float(len(pool)), pool) for _, pool in sorted(by_class.items())]


def _certify_sweep_expand(rng, item, problem) -> list[Op]:
    rank, mult = item
    a = tuple(Fraction(rng.choice((1, 2))) for _ in range(rank))
    spec = spec_text(rank, mult, a)
    degree = sum(mult) - rank
    ops = []
    for name in SWEEP_COMMANDS:
        command, above = name.removesuffix("+1"), name.endswith("+1")
        ops.append(Op(command, spec, degree + 1 if above else None, rank, mult, a, problem))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        # volume with a mixed integer and p/q point a; rank 5 with 6-12 entries 2
        # and rank 6 with 2-4 entries 2, as many problems of each class, each
        # class in three cost slices.  residue and polynomial do nearly all the
        # work, on intermediates of up to thousands of coefficient terms;
        # diffop, linalg, induction and oracle do none.
        Workload(
            "volume-deep", 7.5, _volume_deep_strata, _volume_deep_expand,
            busy=("polynomial.", "residue."),
            idle=("diffop.", "linalg.", "induction.", "oracle."),
        ),
        # per 20 problems: 2.5 kernel at rank 4 with 2 entries 2 (degree 8), 1
        # lift at rank 6 with 1 entry 2, 12 check-pde at rank 5 with 2-8 entries
        # 2, 4.5 oracle-compare at rank 4 with 3-5 entries 2 and a a permutation
        # of (1,1,2,2).  linalg, diffop, induction and oracle do most
        # of the work and residue a small share; each certificate has its own
        # per-command time.
        Workload(
            "certify-deep", 4.5, _certify_deep_strata, _certify_deep_expand,
            busy=("polynomial.", "diffop.", "linalg.", "induction.", "oracle."),
        ),
        # every rank-2 and rank-3 matrix with entries in {1,2,3}, stratified by
        # total multiplicity, with a in {1,2}^r; each problem gets volume,
        # check-pde, kernel, kernel --degree d+1, lift, oracle-compare and corner.
        # The same layers on tiny inputs: the median op is a few milliseconds of
        # parsing, validation, object set-up and residue work, so per-call set-up
        # cost shows in op_p50_ms, while the rank-3 kernel solves make most of
        # the wall time.
        Workload(
            "certify-sweep", 10.4, _certify_sweep_strata, _certify_sweep_expand,
            busy=("cli.", "polynomial.render_s", "residue.iterated_", "oracle."),
        ),
    )
}
