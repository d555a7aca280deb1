"""The orbit closure of ``close_group`` against the matrix closure it replaced.

``_reference_close_group`` and ``_reference_closure`` are the earlier
``close_group`` and ``_closure`` verbatim, with the earlier ``rref`` from
``oracles``: every element is multiplied by every generator as a matrix,
and the matrices themselves key the index.
The orbit closure must list the same elements in the same order, with the
same Cayley graph and words, and fail with the same errors.
"""

import json
import pathlib
import sys
import time
import tracemalloc

import pytest

from coxtools.cli import main
from coxtools.cyclotomic import CycloNum
from coxtools.quotients import (DEFAULT_CAP, ClosureCapExceededError, MatGroup,
                                NotInvertibleError, c_identity, c_mul, close_group, cmat)
from oracles import binary_dihedral as _binary_dihedral
from oracles import gmp as _gmp
from oracles import rref as _rref

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _reference_close_group(generators, conductor=None, cap=DEFAULT_CAP):
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator required")
    if conductor is None:
        conductor = next((x.conductor for g in gens for row in g for x in row
                          if isinstance(x, CycloNum)), 1)
    gens = [cmat(conductor, g) for g in gens]
    dim = len(gens[0])
    for g in gens:
        if len(g) != dim or any(len(row) != dim for row in g):
            raise ValueError("generators must be square of equal size")
        if len(_rref(list(g))[1]) < dim:
            raise NotInvertibleError("singular generator")
    elements, right, words = _reference_closure(c_identity(conductor, dim), gens, c_mul, cap)
    return MatGroup(dim, conductor, tuple(gens), tuple(elements), tuple(right), tuple(words))


def _reference_closure(ident, gens, mul, cap=None):
    elements, words, right = [ident], [()], []
    index = {ident: 0}
    for i, a in enumerate(elements):
        row = []
        for k, g in enumerate(gens):
            b = mul(a, g)
            j = index.get(b)
            if j is None:
                if cap is not None and len(elements) >= cap:
                    raise ClosureCapExceededError(f"closure exceeded cap {cap}")
                j = index[b] = len(elements)
                elements.append(b)
                words.append(words[i] + (k,))
            row.append(j)
        right.append(tuple(row))
    return elements, right, words


# -- generating sets, as (generators, conductor) --------------------------------

def _conjugated(case, p):
    """p g p^-1 for each generator g and a unimodular p: dense entries."""
    gens, n = case
    det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
    assert abs(det) == 1
    pinv = ((p[1][1] * det, -p[0][1] * det), (-p[1][0] * det, p[0][0] * det))
    pm, pinvm = cmat(n, p), cmat(n, pinv)
    return [c_mul(c_mul(pm, cmat(n, g)), pinvm) for g in gens], n


def _signed_permutation(perm, signs):
    return [[signs[r] * int(perm[r] == c) for c in range(3)] for r in range(3)]


UNIMODULAR = [((2, 1), (1, 1)), ((1, 3), (1, 4)), ((3, 2), (4, 3)), ((0, 1), (1, 5))]


def _cases():
    cases = {f"G({m},{p},2)": _gmp(m, p)
             for m in range(1, 9) for p in range(1, m + 1) if m % p == 0}
    cases["G(24,1,2)"] = _gmp(24, 1)
    for n in range(3, 9):
        cases[f"BD{n}"] = _binary_dihedral(n)
        for t, p in enumerate(UNIMODULAR):
            cases[f"BD{n}^P{t}"] = _conjugated(_binary_dihedral(n), p)
    cases["B3"] = ([_signed_permutation((1, 2, 0), (1, 1, 1)),
                    _signed_permutation((1, 0, 2), (1, 1, 1)),
                    _signed_permutation((0, 1, 2), (-1, 1, 1))], 1)
    cases["signed-3-cycle"] = ([_signed_permutation((1, 2, 0), (-1, 1, 1))], 1)
    cases["signed-swap-and-sign"] = ([_signed_permutation((1, 0, 2), (1, -1, 1)),
                                      _signed_permutation((0, 1, 2), (1, 1, -1))], 1)
    z5 = CycloNum.zeta(5)
    # a cyclic group of order 5 whose row orbit has 10 vectors, twice its order
    cases["diag-5"] = ([[[z5, 0], [0, z5 * z5]]], 5)
    cases["trivial-dim-1"] = ([[[1]]], 1)
    cases["trivial-dim-3"] = ([_signed_permutation((0, 1, 2), (1, 1, 1))], 1)
    cases["trivial-twice"] = ([[[1, 0], [0, 1]], [[1, 0], [0, 1]]], 5)
    return cases


CASES = _cases()


def _same_group(got, want):
    assert (got.dim, got.conductor, got.generators) == (want.dim, want.conductor, want.generators)
    assert got.elements == want.elements
    assert got.right == want.right
    assert got.words == want.words


@pytest.mark.parametrize("name", sorted(CASES))
def test_orbit_closure_matches_the_matrix_closure(name):
    gens, n = CASES[name]
    _same_group(close_group(gens, conductor=n), _reference_close_group(gens, conductor=n))


def test_unbounded_cap_gives_the_same_group():
    gens, n = CASES["G(24,1,2)"]
    group = close_group(gens, conductor=n, cap=None)
    assert group.order == 1152
    _same_group(group, _reference_close_group(gens, conductor=n))


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", ["G(4,1,2)", "G(6,3,2)", "BD5", "BD6^P2", "B3", "diag-5",
                                  "signed-3-cycle", "trivial-dim-1", "trivial-dim-3"])
def test_cap_at_the_order_passes_and_one_below_raises_the_same_message(name):
    gens, n = CASES[name]
    order = _reference_close_group(gens, conductor=n).order
    assert close_group(gens, conductor=n, cap=order).order == order
    if order > 1:
        for cap in range(1, order):
            got = _raised(lambda: close_group(gens, conductor=n, cap=cap))
            assert got == (ClosureCapExceededError, f"closure exceeded cap {cap}")
            assert got == _raised(lambda: _reference_close_group(gens, conductor=n, cap=cap))


@pytest.mark.parametrize("cap", [1, 2, 5, 40])
def test_infinite_order_generator_raises_at_the_cap(cap):
    gens = [[[1, 1], [0, 1]]]
    got = _raised(lambda: close_group(gens, conductor=1, cap=cap))
    assert got == (ClosureCapExceededError, f"closure exceeded cap {cap}")
    assert got == _raised(lambda: _reference_close_group(gens, conductor=1, cap=cap))


def _unipotent(dim):
    """The identity plus e_{0,1}: an infinite-order generator."""
    return [[int(i == j or (i, j) == (0, 1)) for j in range(dim)] for i in range(dim)]


def _traced(close, gens, cap):
    """The error and traced peak bytes of ``close(gens, conductor=1, cap=cap)``."""
    tracemalloc.start()
    try:
        got = _raised(lambda: close(gens, conductor=1, cap=cap))
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _best_seconds(close, gens, cap):
    seconds = []
    for _ in range(3):
        start = time.process_time()
        _raised(lambda: close(gens, conductor=1, cap=cap))
        seconds.append(time.process_time() - start)
    return min(seconds)


@pytest.mark.parametrize("dim", [2, 3])
def test_infinite_order_costs_no_more_than_the_matrix_closure(dim):
    """Along an infinite-order chain the orbit closure keeps no words and
    stops after ``cap`` vectors reached from one row."""
    gens = [_unipotent(dim)]
    got, peak = _traced(close_group, gens, 2000)
    want, ref_peak = _traced(_reference_close_group, gens, 2000)
    assert got == want == (ClosureCapExceededError, "closure exceeded cap 2000")
    assert peak <= ref_peak
    assert _best_seconds(close_group, gens, 2000) <= _best_seconds(_reference_close_group, gens, 2000)


def test_infinite_order_at_the_default_cap_stays_linear():
    """The matrix closure is not run at DEFAULT_CAP: when it raises it
    holds one word tuple per element, of lengths 0 .. cap - 1, about 400 MB
    together.  That sum is a floor of its peak; the orbit closure's peak
    must stay under it, and grow no faster than the cap."""
    gens = [_unipotent(3)]
    got, peak = _traced(close_group, gens, DEFAULT_CAP)
    assert got == (ClosureCapExceededError, f"closure exceeded cap {DEFAULT_CAP}")
    ref_floor = sum(sys.getsizeof((0,) * n) for n in range(DEFAULT_CAP))
    assert peak < ref_floor
    small_cap = DEFAULT_CAP // 10
    assert peak <= 2 * (DEFAULT_CAP // small_cap) * _traced(close_group, gens, small_cap)[1]


@pytest.mark.parametrize("gens", [
    [[[1, 1], [1, 1]], [[1, 0]]],
    [[[1, 1], [1, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
    [[[0, 1], [1, 0]], [[2, 4], [1, 2]], [[1]]],
], ids=["short-second", "larger-second", "singular-second"])
def test_a_singular_generator_before_a_misshapen_one_is_not_invertible(gens):
    got = _raised(lambda: close_group(gens, conductor=1))
    assert got == (NotInvertibleError, "singular generator")
    assert got == _raised(lambda: _reference_close_group(gens, conductor=1))


def test_misshapen_before_singular_is_a_shape_error():
    gens = [[[1, 0]], [[1, 1], [1, 1]]]
    got = _raised(lambda: close_group(gens, conductor=1))
    assert got == (ValueError, "generators must be square of equal size")
    assert got == _raised(lambda: _reference_close_group(gens, conductor=1))


def test_empty_matrices_are_refused():
    with pytest.raises(ValueError, match="at least one row"):
        close_group([[]], conductor=1)


GROUP_FIXTURES = sorted(p for p in FIXTURE_DIR.glob("*.json")
                        if json.loads(p.read_text())["command"] in ("quotient-report", "reynolds"))


@pytest.mark.parametrize("path", GROUP_FIXTURES, ids=lambda p: p.stem)
def test_cap_1_probes_keep_their_bytes(path, capsys):
    """The corpus probes every group fixture with --cap 1; each group has
    order at least 2, so each probe is the same cap error document."""
    command = json.loads(path.read_text())["command"]
    assert main([command, str(path), "--cap", "1"]) == 1
    assert capsys.readouterr().out == ('{"detail":"closure exceeded cap 1",'
                                       '"error":"ClosureCapExceededError"}\n')


def test_group_fixtures_are_found():
    """An empty glob would leave the byte test above with no cases."""
    assert GROUP_FIXTURES
