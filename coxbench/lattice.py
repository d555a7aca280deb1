"""Workload ``lattice``: cones, Hilbert bases, divisor theories, Cox data
and embedding extension.

Every instance is a seeded unimodular image (an integer change of
coordinates, which preserves all the combinatorics) of a fixed model:
the moment cones spanned by (1, a, a^2) and (1, a, a^2, a^3) for n
consecutive a, the monoids 4,6,9 and 10,14,15,21, and the saturated
monoid given by a moment cone's Hilbert basis.  So every seed does the
same amount of work, and each answer can be mapped back to the model's.
This loads ``intlinalg``, ``cones``, ``monoids`` and ``toric`` and
bypasses ``cyclotomic`` and ``quotients``.
"""

from fractions import Fraction

from common import Op, Workload, expect, fixture_cold, interleave, unimodular, vec_mat

MONOIDS = {
    "4-6-9": [(2, 0), (1, 1), (0, 2)],
    "10-14-15-21": [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)],
}
# band by #rays x dim; the heaviest band holds over a tenth of a round's
# operations, so that latency_ms_p90 falls inside one kind of operation
HB_SLOTS = {
    "rays15": [("moment3", 5), ("moment3", 5)],
    "rays20": [("moment4", 5), ("moment3", 7)],
    "rays24": [("moment3", 8), ("moment3", 8), ("moment3", 8)],
}
# (monoid, depth); band by depth
AXIOM_SLOTS = {
    "depth4": [("hb-moment3-4", 4)],
    "depth6": [("10-14-15-21", 6)],
    "depth8": [("4-6-9", 8)],
}
EXTEND_SLOTS = [("4-6-9", True), ("10-14-15-21", True), ("4-6-9", False), ("10-14-15-21", False)]
COX_SLOTS = [("moment3", 5), ("moment3", 4)]
MEMBER_SLOTS = [("moment3", 6)]
COLD = ["divisor-theory-10-14-15-21", "check-axioms-4-6-9", "extend-star-violation",
        "extend-identity-4-6-9", "saturate-half-lattice", "cox-data-quadric",
        "pullback-quadric", "verify-lift-quadric"]


def moment_rays(family, n):
    power = 3 if family == "moment3" else 4
    return [tuple(a ** k for k in range(power)) for a in range(n)]


def build(lib, rng, work_dir):
    la, cones, monoids, toric = lib.intlinalg, lib.cones, lib.monoids, lib.toric
    Cone = cones.Cone
    models = {}

    def model_hb(family, n):
        """Hilbert basis of the untransformed model cone (computed once)."""
        key = ("hb", family, n)
        if key not in models:
            rays = moment_rays(family, n)
            models[key] = cones.hilbert_basis(Cone(len(rays[0]), rays))
        return models[key]

    def transformed(rays):
        u = unimodular(rng, len(rays[0]))
        return [vec_mat(r, u) for r in rays], u

    def hb_op(family, n, band):
        rays, u = transformed(moment_rays(family, n))
        rng.shuffle(rays)

        def call():
            return cones.hilbert_basis(Cone(len(rays[0]), rays))

        def check(hb):
            want = sorted(vec_mat(h, u) for h in model_hb(family, n))
            expect(list(hb) == want, "Hilbert basis does not map back to the model's")
            return repr(hb)

        return Op("hilbert_basis", band, call, check)

    def monoid_gens(name):
        if name.startswith("hb-"):
            _, family, n = name.split("-")
            return list(model_hb(family, int(n)))
        return MONOIDS[name]

    def axiom_op(name, depth, band):
        gens, _ = transformed(monoid_gens(name))
        rng.shuffle(gens)

        def call():
            m = monoids.AffineMonoid(len(gens[0]), gens)
            dt = monoids.divisor_theory(m)
            return dt, monoids.verify_divisor_axioms(dt, depth)

        def check(result):
            dt, rep = result
            expect(rep.ok and rep.depth == depth, "divisor theory failed its axioms")
            images = [dt.image(g) for g in gens]
            expect(all(x >= 0 for im in images for x in im), "negative divisor image")
            return repr((dt.free_rank, images, rep))

        return Op("divisor_axioms", band, call, check)

    def extend_op(name, extends):
        gens, _ = transformed(MONOIDS[name])
        m = monoids.AffineMonoid(len(gens[0]), gens)
        funcs = [list(r) for r in monoids.divisor_theory(m).ambient_functionals()]
        r = len(funcs)
        perm = rng.sample(range(r), r)
        scale = [rng.randint(1, 2) for _ in range(r)]
        rows = [[Fraction(scale[i]) * x for x in funcs[perm[i]]] for i in range(r)]
        if not extends:
            rows[rng.randrange(r)] = [Fraction(0)] * len(gens[0])
        alpha = monoids.MonoidHom(rows)

        def call():
            dt = monoids.divisor_theory(monoids.AffineMonoid(len(gens[0]), gens))
            return dt, monoids.extend_embedding(dt, alpha)

        def check(result):
            dt, res = result
            if extends:
                expect(isinstance(res, monoids.Beta), f"expected an extension, got {res}")
                for g in gens:
                    expect(la.mat_vec(res.matrix, dt.image(g)) == alpha.image(g),
                           "beta does not extend alpha")
            elif isinstance(res, monoids.ViolationStar):
                s = tuple(x - y for x, y in zip(alpha.image(res.a), alpha.image(res.b)))
                expect(s == tuple(res.s) and min(s) >= 0, "(*) witness is inconsistent")
            elif isinstance(res, monoids.NotAnEmbedding):
                expect(res.a != res.b and alpha.image(res.a) == alpha.image(res.b),
                       "non-embedding witness is inconsistent")
            else:
                expect(isinstance(res, monoids.ViolationStarStar),
                       f"a violating alpha was extended: {res}")
            return repr(res)

        return Op("extend_embedding", "extends" if extends else "violates", call, check)

    def cox_op(family, n):
        rays, _ = transformed(moment_rays(family, n))
        key = ("cox", family, n)
        if key not in models:
            model = toric.cox_data(Cone(3, moment_rays(family, n)))
            models[key] = (model.cl_group.free_rank, model.cl_group.torsion)

        def call():
            cd = toric.cox_data(Cone(3, rays))
            return cd, [toric.pullback(cd, ch) for ch in cd.characters]

        def check(result):
            cd, monomials = result
            expect((cd.cl_group.free_rank, cd.cl_group.torsion) == models[key],
                   "class group changed under a change of coordinates")
            for ch, mono in zip(cd.characters, monomials):
                (expo,) = mono.terms
                expect(expo == tuple(la.dot(ch, v) for v in cd.rays) and min(expo) >= 0,
                       "pullback exponents are not the ray pairings")
            return repr((cd.cl_group, cd.var_degrees, [m.render() for m in monomials]))

        return Op("cox_data", f"rays{n}", call, check)

    def member_op(family, n):
        rays, _ = transformed(moment_rays(family, n))
        points, want = [], []
        for _ in range(4):
            coeffs = [rng.randint(0, 3) for _ in rays]
            points.append(tuple(sum(c * r[j] for c, r in zip(coeffs, rays))
                                for j in range(len(rays[0]))))
            want.append(True)
        for _ in range(4):
            # a point beyond one facet: minus a ray plus a little of another
            i, j = rng.sample(range(len(rays)), 2)
            points.append(tuple(-2 * a + b for a, b in zip(rays[i], rays[j])))
            want.append(False)

        def call():
            c = Cone(len(rays[0]), rays)
            return [cones.cone_contains(c, p) for p in points]

        def check(got):
            expect(got == want, "cone membership is wrong")
            return repr(got)

        return Op("cone_contains", f"rays{n}", call, check)

    groups = [[hb_op(f, n, band) for f, n in slots] for band, slots in HB_SLOTS.items()]
    groups += [[axiom_op(name, d, band) for name, d in slots]
               for band, slots in AXIOM_SLOTS.items()]
    groups.append([extend_op(name, ext) for name, ext in EXTEND_SLOTS])
    groups.append([cox_op(f, n) for f, n in COX_SLOTS])
    groups.append([member_op(f, n) for f, n in MEMBER_SLOTS])
    ops = interleave(groups)
    warmup = [hb_op("moment3", 4, "warmup"), axiom_op("4-6-9", 4, "warmup"), cox_op("moment3", 4)]
    cold = fixture_cold(COLD)
    bands = {"rays15": "hilbert_basis, #rays x dim = 15",
             "rays20": "hilbert_basis, #rays x dim = 20..21",
             "rays24": "hilbert_basis, #rays x dim = 24",
             "depth4": "divisor_theory + axioms at depth 4 on an 8-generator Hilbert-basis monoid",
             "depth6": "divisor_theory + axioms at depth 6 on 10,14,15,21",
             "depth8": "divisor_theory + axioms at depth 8 on 4,6,9",
             "extends": "extend_embedding, alpha = permuted and scaled divisor theory",
             "violates": "extend_embedding, the same alpha with one prime zeroed",
             "rays4": "cox_data + pullbacks, 4 rays", "rays5": "cox_data + pullbacks, 5 rays",
             "rays6": "cone_contains, 8 points (4 inside, 4 outside) of a 6-ray cone"}
    return Workload(ops=ops, warmup=warmup, cold=cold, bands=bands)
