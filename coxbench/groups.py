"""Workload ``groups``: ``close_group`` + ``quotient_report`` and
``close_group`` + ``reynolds_invariants`` over three kinds of finite
linear group in dimension 2:

* ``gmp``: the reflection groups G(m,p,2), where H = G;
* ``bd``: binary dihedral groups <diag(z,1/z), [[0,1],[-1,0]]>, z = zeta_n,
  with no reflections, so H = 1 and F = G;
* ``diag``: diagonal abelian groups with 1 < H < G.

Every slot of a round fixes the kind, the group order |G| and whether the
generators are conjugated by a unimodular integer matrix; the seed picks
a Galois conjugate of the presentation and the conjugating matrix, both
of which leave the work the same.
Reports are checked against closed-form answers and Reynolds dimensions
against the symmetric-power trace formula.  This loads ``quotients`` and
``cyclotomic`` and bypasses ``cones``, ``monoids`` and ``polynomials``.
"""

from math import gcd

from common import Op, Workload, expect, fixture_cold, interleave

# diagonal groups: (m, |G|, |H|) -> exponent pairs of diag(zeta_m^a, zeta_m^b)
DIAG_GENERATORS = {
    (6, 6, 2): [(3, 0), (1, 2)],
    (10, 10, 2): [(5, 0), (2, 2)],
    (8, 16, 4): [(4, 0), (1, 3)],
    (6, 18, 9): [(2, 0), (1, 1)],
    (8, 32, 16): [(2, 0), (1, 1)],
}
# conjugating matrices: all have the same entry sizes, so the same cost
CONJUGATORS = [((1, s), (0, 1)) for s in (1, -1)] + [((1, 0), (s, 1)) for s in (1, -1)]
# (kind, params, conjugated); band by |G|
QR_SLOTS = {
    "small": [("gmp", (4, 4), False), ("gmp", (6, 6), True), ("bd", 4, True),
              ("bd", 6, False), ("diag", (6, 6, 2), True), ("diag", (10, 10, 2), False)],
    "medium": [("gmp", (4, 2), False), ("gmp", (6, 3), False), ("bd", 8, False),
               ("diag", (8, 16, 4), True), ("diag", (6, 18, 9), False)],
    "heavy": [("gmp", (4, 1), False), ("diag", (8, 32, 16), False)],
}
# (kind, params, conjugated, degree); band by degree
REY_SLOTS = {
    "deg3": [("bd", 6, True, 3), ("diag", (10, 10, 2), False, 3), ("gmp", (6, 6), False, 3)],
    "deg4": [("gmp", (4, 4), True, 4), ("bd", 8, False, 4), ("diag", (6, 18, 9), False, 4)],
    "deg6": [("gmp", (6, 3), False, 6), ("diag", (8, 16, 4), True, 6)],
}
WARMUP = [("gmp", (4, 4), False), ("bd", 4, False), ("diag", (6, 6, 2), False)]
COLD = ["quotient-report-cyclic-2", "quotient-report-cyclic-3", "quotient-report-cyclic-5",
        "quotient-report-q8", "reynolds-plus-minus"]


def units(m):
    return [k for k in range(1, m) if gcd(k, m) == 1] or [1]


def diag_closure(m, gens):
    """Elements of the subgroup of (Z/m)^2 generated by ``gens``."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = ((a[0] + g[0]) % m, (a[1] + g[1]) % m)
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def diag_report(m, gens):
    """Closed-form QuotientReport fields of a diagonal group in dimension 2."""
    g = diag_closure(m, gens)
    refl = [e for e in g if (e[0] == 0) != (e[1] == 0)]
    h = diag_closure(m, refl)
    f = len(g) // len(h)

    def order_mod_h(e):
        k, acc = 1, e
        while acc not in h:
            acc = ((acc[0] + e[0]) % m, (acc[1] + e[1]) % m)
            k += 1
        return k

    exponent = max(order_mod_h(e) for e in g)
    inv = tuple(d for d in (f // exponent, exponent) if d >= 2)
    return dict(order_g=len(g), order_h=len(h), order_h_tilde=len(h), f_abelian=True,
                commutant_order=1, n_invariants=inv, is_toric=True)


def expected_report(kind, params, gens_exp):
    if kind == "gmp":
        m, p = params
        n = 2 * m * m // p
        return dict(order_g=n, order_h=n, order_h_tilde=n, f_abelian=True,
                    commutant_order=1, n_invariants=(), is_toric=True)
    if kind == "bd":
        n = params
        k = n // 2
        return dict(order_g=2 * n, order_h=1, order_h_tilde=k, f_abelian=n == 2,
                    commutant_order=k, n_invariants=(2, 2) if k % 2 == 0 else (4,),
                    is_toric=n == 2)
    return diag_report(params[0], gens_exp)


def presentation(kind, params, j):
    """(conductor, generators, diagonal exponent pairs or None) for one slot.

    Generators are given by entries (e, c) = c * zeta^e (c = 0 is the zero
    entry).  All exponents are multiplied by the unit ``j``: a Galois
    conjugate of the standard presentation, which changes the numbers but
    not the group's multiplication table or the order of the closure.
    """
    if kind == "gmp":
        m, p = params
        gens = [[((0, 0), (0, 1)), ((0, 1), (0, 0))], [((0, 0), (-1, 1)), ((1, 1), (0, 0))]]
        if p < m:
            gens.append([((p, 1), (0, 0)), ((0, 0), (0, 1))])
        n, exps = m, None
    elif kind == "bd":
        n, exps = params, None
        gens = [[((1, 1), (0, 0)), ((0, 0), (-1, 1))], [((0, 0), (0, 1)), ((0, -1), (0, 0))]]
    else:
        n = params[0]
        exps = [((a * j) % n, (b * j) % n) for a, b in DIAG_GENERATORS[params]]
        gens = [[((a, 1), (0, 0)), ((0, 0), (b, 1))] for a, b in DIAG_GENERATORS[params]]
    gens = [[[(e * j, c) for e, c in row] for row in g] for g in gens]
    return n, gens, exps


def build(lib, rng, work_dir):
    CycloNum = lib.cyclotomic.CycloNum
    q = lib.quotients
    trace_dims = {}

    def entry(n, e, c):
        if c == 0:
            return CycloNum(n)
        coeffs = [0] * (e % n) + [c]
        return CycloNum(n, coeffs)

    def matrices(kind, params, conj):
        n = params if kind == "bd" else params[0]
        n, gens, exps = presentation(kind, params, rng.choice(units(n)))
        mats = [tuple(tuple(entry(n, e, c) for e, c in row) for row in g) for g in gens]
        if conj:
            p = rng.choice(CONJUGATORS)
            pinv = ((p[1][1], -p[0][1]), (-p[1][0], p[0][0]))
            mats = [tuple(tuple(sum((g[k][l] * (p[i][k] * pinv[l][j])
                                     for k in range(2) for l in range(2)), CycloNum(n))
                                for j in range(2)) for i in range(2)) for g in mats]
        return n, mats, exps

    def qr_op(kind, params, conj, band):
        n, mats, exps = matrices(kind, params, conj)
        want = expected_report(kind, params, exps)

        def call():
            return q.quotient_report(q.close_group(mats, conductor=n))

        def check(rep):
            got = {k: getattr(rep, k) for k in want}
            expect(got == want, f"{kind}{params} report {got} != {want}")
            return repr(rep)

        return Op("quotient_report", band, call, check)

    def rey_op(kind, params, conj, degree, band):
        n, mats, exps = matrices(kind, params, conj)
        order = expected_report(kind, params, exps)["order_g"]
        key = (kind, params, degree, tuple(exps or ()))

        def call():
            group = q.close_group(mats, conductor=n)
            return group, q.reynolds_invariants(group, degree)

        def check(result):
            group, basis = result
            expect(group.order == order, "closure has the wrong order")
            if key not in trace_dims:
                trace_dims[key] = q.symmetric_power_trace_dimension(group, degree)
            expect(len(basis) == trace_dims[key], "Reynolds dimension != trace formula")
            return repr([sorted((e, c.coeffs) for e, c in form.items()) for form in basis])

        return Op("reynolds_invariants", band, call, check)

    groups = [[qr_op(k, p, c, band) for k, p, c in slots] for band, slots in QR_SLOTS.items()]
    groups += [[rey_op(k, p, c, d, band) for k, p, c, d in slots]
               for band, slots in REY_SLOTS.items()]
    ops = interleave(groups)
    warmup = [qr_op(k, p, c, "small") for k, p, c in WARMUP]
    cold = fixture_cold(COLD)
    bands = {"small": "quotient_report, |G| = 6..12", "medium": "quotient_report, |G| = 16..24",
             "heavy": "quotient_report, |G| = 32",
             "deg3": "reynolds_invariants degree 3, |G| = 10..12",
             "deg4": "reynolds_invariants degree 4, |G| = 8..18",
             "deg6": "reynolds_invariants degree 6, |G| = 16..24"}
    return Workload(ops=ops, warmup=warmup, cold=cold, bands=bands)
