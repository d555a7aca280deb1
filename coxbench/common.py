"""Shared pieces of the coxtools benchmark: operations, loading the
library from the checkout, seeded helpers and statistics."""

import importlib
import json
import pathlib
import statistics
import sys
from dataclasses import dataclass
from typing import Any, Callable

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".coxbench_work"

MODULES = ("intlinalg", "cyclotomic", "cones", "monoids", "polynomials",
           "gradings", "toric", "quotients", "cli")


class Mismatch(AssertionError):
    """An operation's output is not the verified answer."""


class Breach(Mismatch):
    """The output is right but breaks a stated contract of the library,
    such as ``render`` output that ``parse_poly`` rejects."""


@dataclass
class Op:
    """One closed-loop operation.

    ``call`` runs the library and is the only timed part; ``check`` gets
    its result, raises Mismatch unless the result is right and returns a
    canonical text of it (hashed into the workload digest).  A ``probe``
    feeds malformed input to the CLI: only the CLI contract is checked,
    and a breach of it is counted apart from wrong answers, as is a
    Breach raised by any check.
    """

    kind: str
    band: str
    call: Callable[[], Any]
    check: Callable[[Any], str]
    probe: bool = False


@dataclass
class Workload:
    ops: list            # one round, in execution order
    warmup: list         # run once during set-up
    cold: list           # (command, fixture path) pairs for cold CLI runs
    bands: dict          # band name -> description of the size property


class Lib:
    """The coxtools modules of one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "coxtools" or m.startswith("coxtools.")]:
            del sys.modules[name]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.pkg = importlib.import_module("coxtools")
        if pathlib.Path(self.pkg.__file__).resolve().parent != SRC / "coxtools":
            raise ImportError(f"coxtools was imported from {self.pkg.__file__}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"coxtools.{name}"))


def fixture_cold(names):
    """(command, path) pairs for cold CLI runs on the named fixtures."""
    paths = [FIXTURES / f"{name}.json" for name in names]
    return [(json.loads(p.read_text())["command"], p) for p in paths]


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def unimodular(rng, n):
    """A seeded integer matrix of determinant +-1: a product of 2n
    elementary row operations with multipliers +-1, then maybe a swap."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    if rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        a[i], a[j] = a[j], a[i]
    return [tuple(r) for r in a]


def vec_mat(v, m):
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def interleave(groups):
    """Round-robin merge of lists, so every prefix of a round holds a
    similar mix of kinds and bands."""
    out = []
    groups = [list(g) for g in groups if g]
    while groups:
        for g in groups:
            out.append(g.pop(0))
        groups = [g for g in groups if g]
    return out


def median(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]
