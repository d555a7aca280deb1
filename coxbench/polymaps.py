"""Workload ``polymaps``: seeded chains of grading-preserving elementary
shears over the quadric ring ZZ[y1..y4], deg (1, 1, -1, -1).

Each chain goes through ``compose_chain``, then ``jacobian`` +
``poly_det`` (which must be 1), then composition with the inverse chain
(which must be the identity).  Each slot's model chain is drawn once, for
every seed alike, until the composed map falls in the slot's band; the
seed then conjugates it by a sign change of the variables, so seeds
change the instances but not the work.  The mix also runs
``wildness_certificate`` on the two-shear sequence and on seeded
perturbations of it, ``search_tame_decomposition`` (max_len=2) on seeded
two-shear targets, and ``parse_poly``/``render`` round trips checked
against direct evaluation.  This loads ``polynomials`` and ``gradings``.
"""

import random
from fractions import Fraction

from common import Breach, Op, Workload, expect, fixture_cold, interleave

# Shear chains are banded by two properties of the composed map: its term
# count, and the product over Jacobian rows of their term counts, which
# bounds the cofactor expansion in poly_det (at one term count, poly_det
# time varies tenfold with it).  terms/det: inclusive ranges; lengths:
# shortest and longest chain; degree: bound on l + r in the shears.
CHAIN_BANDS = {
    "light": dict(terms=(10, 30), det=(0, 10 ** 9), lengths=(2, 4), degree=1, slots=3),
    "medium": dict(terms=(40, 90), det=(5 * 10 ** 3, 5 * 10 ** 4), lengths=(3, 6), degree=1,
                   slots=2),
    "heavy": dict(terms=(120, 200), det=(2 * 10 ** 5, 10 ** 6), lengths=(4, 8), degree=1,
                  slots=4),
}
NAMES = ["y1", "y2", "y3", "y4"]
# (sheared variable, leading factor, the two degree-zero products it may use)
SHAPES = {0: (1, (1, 2), (1, 3)), 1: (0, (0, 2), (0, 3)),
          2: (3, (0, 3), (1, 3)), 3: (2, (0, 2), (1, 2))}
DELTA = "(y1*y4-y2*y3)"
TWO_SHEARS = [("y2", f"y1*{DELTA}"), ("y4", f"y3*{DELTA}")]
# catalog positions of the two shears of a search target (a y2-shear, then
# a y1-shear); the breadth-first search meets the target after about
# 24 * first + second candidates, so these ranges fix its cost
SEARCH_FIRST = range(9, 11)
SEARCH_SECOND = range(0, 6)
PARSE_TERMS = 10
DRAW_ATTEMPTS = 40
BLOWUP = 3
COLD = ["compose-five-variable-chain", "compose-tau-tauinv", "jacobian-anick",
        "jacobian-nagata", "parse-poly-quartic-entry", "wildness-cert-two-shears",
        "shear-family-k2"]


def build(lib, rng, work_dir):
    P, G = lib.polynomials, lib.gradings
    Poly = P.Poly
    ring = G.quadric_grading()
    y = [Poly.variable(4, i) for i in range(4)]
    one = Poly.constant(4, 1)
    identity = P.PolyMap.identity(4)

    def shear_poly(r, index, degree):
        """A nonzero polynomial of the degree of variable ``index`` that
        does not involve it, with coefficients in -2..2."""
        front, u, v = SHAPES[index]
        f = Poly.zero(4)
        while f.is_zero():
            for l in range(degree + 1):
                for s in range(degree + 1 - l):
                    c = r.randint(-2, 2)
                    if c:
                        f = f + c * y[front] * (y[u[0]] * y[u[1]]) ** l * (y[v[0]] * y[v[1]]) ** s
        return f

    def draw_chain(r, terms, det, lengths, degree):
        """A shear chain whose composed map lies in the band.

        The chain grows one shear at a time.  A shear is skipped when the
        product of the image sizes it would multiply out (an upper bound
        on the new terms, and on the work) exceeds the band, or when the
        composed map outgrows it, so a draw never builds a huge map."""
        (lo, hi), (det_lo, det_hi), (shortest, longest) = terms, det, lengths
        while True:
            acc, shears = identity, []
            for _ in range(DRAW_ATTEMPTS):
                index = r.randrange(4)
                f = shear_poly(r, index, degree)
                sizes = [len(p.terms) for p in acc.images]
                bound = sum(sizes) + sum(_product(sizes, e) for e in f.terms)
                if bound > BLOWUP * hi:
                    continue
                new = P.compose(G.elementary_shear(ring, index, f).map, acc)
                count = sum(len(p.terms) for p in new.images)
                if count > hi:
                    continue
                acc = new
                shears.append((index, f))
                if len(shears) >= shortest and count >= lo \
                        and det_lo <= _product(_row_terms(P.jacobian(acc)), (1,) * 4) <= det_hi:
                    return shears
                if len(shears) == longest:
                    break

    def sign_image(shears):
        """The chain conjugated by a seeded sign change y_k -> c_k * y_k.
        That is a graded ring automorphism, so shears stay shears and every
        intermediate term count, hence the work, stays the same.  (A
        permutation of the variables would reorder the cofactor expansion
        in poly_det and change its cost.)"""
        signs = [rng.choice((1, -1)) for _ in range(4)]
        sigma = P.PolyMap(tuple(c * v for c, v in zip(signs, y)))
        return [(i, signs[i] * P.substitute(f, sigma)) for i, f in shears]

    def chain_op(band, slot, terms, det, lengths, degree):
        # the model chain is the same for every seed; the seed picks its sign image
        model = draw_chain(random.Random(f"polymaps-model:{band}:{slot}"),
                           terms, det, lengths, degree)
        shears = sign_image(model)

        def call():
            maps = [G.elementary_shear(ring, i, f).map for i, f in shears]
            inverse = [G.elementary_shear(ring, i, -f).map for i, f in reversed(shears)]
            chain = P.compose_chain(maps)
            det = P.poly_det(P.jacobian(chain))
            return chain, det, P.compose_chain([chain] + inverse)

        def check(result):
            chain, det, round_trip = result
            expect(det == one, "Jacobian determinant of a shear chain is not 1")
            expect(round_trip.is_identity(), "chain composed with its inverse is not the identity")
            return repr([p.render(NAMES) for p in chain.images])

        return Op("shear_chain", band, call, check)

    zeta = G.anick_automorphism(ring).map

    def wildness_op(perturbed):
        extra = [Poly.zero(4), Poly.zero(4)]
        if perturbed:
            i = rng.randrange(2)
            extra[i] = shear_poly(rng, NAMES.index(TWO_SHEARS[i][0]), 1)

        def call():
            steps = [G.shear_map(ring, NAMES.index(v), P.parse_poly(t, NAMES) + e)
                     for (v, t), e in zip(TWO_SHEARS, extra)]
            return G.wildness_certificate(steps, ring), steps

        def check(result):
            res, steps = result
            expect(isinstance(res, G.NotZeta), f"unexpected certificate {res}")
            chain = P.compose_chain([s.map for s in steps])
            first = next(i for i in range(4) if chain.images[i] != zeta.images[i])
            expect(res.variable == first, "NotZeta names the wrong variable")
            return repr(res)

        return Op("wildness_certificate", "perturbed" if perturbed else "two_shears", call, check)

    catalog = []
    for index, (front, u, v) in SHAPES.items():
        for l in range(2):
            for r in range(2 - l):
                for sign in (1, -1):
                    catalog.append((index, sign * y[front] * (y[u[0]] * y[u[1]]) ** l
                                    * (y[v[0]] * y[v[1]]) ** r))

    def search_op():
        a, b = rng.choice(SEARCH_FIRST), rng.choice(SEARCH_SECOND)
        target = P.compose_chain([G.elementary_shear(ring, *catalog[a]).map,
                                  G.elementary_shear(ring, *catalog[b]).map])

        def call():
            return G.search_tame_decomposition(target, ring, max_len=2)

        def check(seq):
            expect(seq is not None and len(seq) <= 2, "no decomposition found")
            expect(P.compose_chain([e.map for e in seq]) == target, "decomposition is wrong")
            return repr([e.map.images for e in seq])

        return Op("search_tame_decomposition", "max_len2", call, check)

    def parse_op(lead_minus_one):
        """A seeded polynomial text.  ``render`` writes a leading
        coefficient -1 as a bare minus sign, so the round trip depends on
        the leading term (graded-lex largest): each round has a fixed
        number of texts whose leading coefficient is -1."""
        terms = {}
        while len(terms) < PARSE_TERMS:
            expo = tuple(rng.randint(0, 3) for _ in range(4))
            terms[expo] = Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 1, 2, 3)))
        lead = max(terms, key=lambda e: (sum(e), e))
        if lead_minus_one:
            terms[lead] = Fraction(-1)
        elif terms[lead] == -1:
            terms[lead] = Fraction(1)
        text = " + ".join("*".join([f"({c})"] + [f"{n}^{k}" if k > 1 else n
                                               for n, k in zip(NAMES, e) if k])
                          for e, c in terms.items())
        point = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        want = sum(c * _power_product(point, e) for e, c in terms.items())

        def call():
            p = P.parse_poly(text, NAMES)
            rendered = p.render(NAMES)
            try:
                again = P.parse_poly(rendered, NAMES)
            except P.PolyParseError as exc:
                again = exc
            return p, rendered, again

        def check(result):
            p, rendered, again = result
            got = sum(c * _power_product(point, e) for e, c in p.terms.items())
            expect(got == want, "parsed polynomial evaluates wrongly")
            if isinstance(again, Exception):
                raise Breach(f"parse_poly rejects render output {rendered!r}: {again}")
            expect(again == p, "render/parse round trip changed the polynomial")
            return rendered

        return Op("parse_render", "lead_minus_one" if lead_minus_one else "lead_other",
                  call, check)

    groups = [[chain_op(band, k, b["terms"], b["det"], b["lengths"], b["degree"])
               for k in range(b["slots"])] for band, b in CHAIN_BANDS.items()]
    groups.append([wildness_op(False), wildness_op(True)])
    groups.append([search_op(), search_op()])
    groups.append([parse_op(False), parse_op(False), parse_op(True), parse_op(False)])
    ops = interleave(groups)
    light = CHAIN_BANDS["light"]
    warmup = [chain_op("light", 0, light["terms"], light["det"], light["lengths"], light["degree"]),
              wildness_op(False), parse_op(False)]
    bands = {band: "shear chain, composed term count {}..{}, Jacobian row-term product {}..{}, "
                   "length {}..{}, shear degree <= {}".format(*b["terms"], *b["det"], *b["lengths"],
                                                               b["degree"])
             for band, b in CHAIN_BANDS.items()}
    bands.update({"two_shears": "wildness_certificate on the two-shear sequence",
                  "perturbed": "wildness_certificate with one shear perturbed",
                  "max_len2": f"search_tame_decomposition, first shear at catalog position "
                              f"{SEARCH_FIRST.start}..{SEARCH_FIRST.stop - 1}, then "
                              f"{SEARCH_SECOND.start}..{SEARCH_SECOND.stop - 1}",
                  "lead_other": f"parse_poly/render round trip, {PARSE_TERMS} terms, "
                                "leading coefficient not -1",
                  "lead_minus_one": f"parse_poly/render round trip, {PARSE_TERMS} terms, "
                                    "leading coefficient -1"})
    return Workload(ops=ops, warmup=warmup, cold=fixture_cold(COLD), bands=bands)


def _row_terms(matrix):
    return [sum(len(p.terms) for p in row) for row in matrix]


def _product(sizes, expo):
    out = 1
    for s, e in zip(sizes, expo):
        out *= s ** e
    return out


def _power_product(point, expo):
    out = Fraction(1)
    for x, e in zip(point, expo):
        out *= x ** e
    return out
