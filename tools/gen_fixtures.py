"""One-shot fixture generator: builds payloads, runs the command handlers,
freezes the outputs as 'expected'. Review the diffs against hand-derived
values before committing.  ``--check`` writes nothing: it lists each
fixture whose bytes would change and exits 1 if any would.  Paths are
resolved from this file, so ``python tools/gen_fixtures.py`` works from
any directory and always uses this checkout's ``src`` and ``fixtures``."""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from coxtools.cli import COMMANDS, encode

ARGS = argparse.Namespace(depth=None, cap=None, pretty=False)

TAU_MATRIX_ORDER = [
    "x1",
    "x2+x1*(x3-x2)",
    "x3+x1*(x3-x2)",
    "x4+(x3+x2)*(x3-x2)+x1*(x3-x2)^2",
]
TAU_INV_MATRIX_ORDER = [
    "x1",
    "x2-x1*(x3-x2)",
    "x3-x1*(x3-x2)",
    "x4-(x3+x2)*(x3-x2)+x1*(x3-x2)^2",
]
# same automorphism written in the canonical coordinate order of cox-data
# (canonical x2 is the matrix-order x3 and vice versa)
TAU_CANON = [
    "x1",
    "x2+x1*(x2-x3)",
    "x3+x1*(x2-x3)",
    "x4+(x2+x3)*(x2-x3)+x1*(x2-x3)^2",
]
ZETA_CANON = [
    "y1",
    "y2",
    "y3+y2*(y1*y3-y2*y4)",
    "y4+y1*(y1*y3-y2*y4)",
]
QUADRIC_CONE = {"ambient_rank": 3,
                "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]}

FIVE_CHAIN = [
    ["y1", "y2", "y3", "y4", "y5+(y1*y4-y2*y3)"],
    ["y1", "y2+y1*y5", "y3", "y4", "y5"],
    ["y1", "y2", "y3", "y4+y3*y5", "y5"],
    ["y1", "y2", "y3", "y4", "y5-(y1*y4-y2*y3)"],
    ["y1", "y2-y1*y5", "y3", "y4", "y5"],
    ["y1", "y2", "y3", "y4-y3*y5", "y5"],
]

I4 = [0, 1]  # zeta_4 coefficient vector

FIXTURES = [
    ("divisor-theory-4-6-9", "divisor-theory",
     "numerical semigroup generated by 4, 6, 9 inside the multiplicative "
     "integers, encoded by exponent vectors over the primes 2 and 3",
     {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]}),
    ("divisor-theory-10-14-15-21", "divisor-theory",
     "numerical semigroup generated by 10, 14, 15, 21, encoded by exponent "
     "vectors over the primes 2, 3, 5, 7",
     {"ambient_rank": 4,
      "generators": [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]]}),
    ("saturate-half-lattice", "saturate",
     "the monoid generated by (2,0) and (0,1) viewed inside the full integer "
     "lattice: (1,0) has a square in the monoid but is missing itself",
     {"ambient_rank": 2, "generators": [[2, 0], [0, 1]],
      "group_basis": [[1, 0], [0, 1]]}),
    ("check-axioms-4-6-9", "check-axioms",
     "both divisor-theory axioms for the 4, 6, 9 monoid, decided exactly; "
     "the depth is only echoed",
     {"monoid": {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
      "depth": 6}),
    ("check-axioms-redundant-coordinate", "check-axioms",
     "embedding the 4, 6, 9 monoid with a third coordinate equal to the sum "
     "of the first two: the redundant coordinate breaks axiom 2",
     {"monoid": {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
      "ambient_functionals": [[1, 0], [0, 1], [1, 1]],
      "depth": 6}),
    ("extend-star-violation", "extend",
     "mapping generators 10, 14, 15, 21 to 10, 2, 15, 3: the quotient 5 of "
     "alpha-images has no preimage, violating the divisibility condition",
     {"monoid": {"ambient_rank": 4,
                 "generators": [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]]},
      "alpha": {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]}}),
    ("extend-star-star-violation", "extend",
     "mapping generators 4, 6, 9 to 20, 30, 45: the whole generator set is "
     "coprime upstairs but every image is divisible by 5",
     {"monoid": {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
      "alpha": {"matrix": [[1, 0], [0, 1], ["1/2", "1/2"]]}}),
    ("extend-identity-4-6-9", "extend",
     "extending the divisor theory embedding along itself: the unique "
     "extension is the identity matrix",
     {"monoid": {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
      "alpha": {"matrix": [[1, 0], [0, 1]]}}),
    ("extend-identity-10-14-15-21", "extend",
     "extending the divisor theory embedding along itself on the rank-4 "
     "example: the unique extension is the identity matrix",
     {"monoid": {"ambient_rank": 4,
                 "generators": [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]]},
      "alpha": {"matrix": [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]}}),
    ("cox-data-quadric", "cox-data",
     "cone over the unit square: the three-dimensional quadratic cone; class "
     "group ZZ with variable degrees (1,-1,-1,1) in canonical ray order",
     QUADRIC_CONE),
    ("cox-data-cyclic-quotient", "cox-data",
     "plane cone with rays (1,0) and (1,2): a cyclic quotient singularity "
     "with class group ZZ/2",
     {"ambient_rank": 2, "rays": [[1, 0], [1, 2]]}),
    ("pullback-quadric", "pullback",
     "a dual-cone character of the quadric pulled back to a monomial in the "
     "ray variables",
     {"cone": QUADRIC_CONE, "character": [0, -1, 1]}),
    ("verify-lift-quadric", "verify-lift",
     "the quadratic-cone automorphism (canonical coordinates) against its "
     "lift to the ray-variable ring: the two-shear automorphism",
     {"cone": QUADRIC_CONE, "psi": TAU_CANON, "phi": ZETA_CANON}),
    ("verify-lift-mismatch", "verify-lift",
     "the same automorphism against the identity lift: must fail",
     {"cone": QUADRIC_CONE, "psi": TAU_CANON,
      "phi": ["y1", "y2", "y3", "y4"]}),
    ("compose-tau-tauinv", "compose",
     "the quadratic-cone automorphism composed with its inverse is the "
     "identity, exactly, already at the polynomial level",
     {"num_vars": 4, "var_names": ["x1", "x2", "x3", "x4"],
      "maps": [TAU_MATRIX_ORDER, TAU_INV_MATRIX_ORDER]}),
    ("compose-five-variable-chain", "compose",
     "six elementary shears in five variables composing to the two-shear "
     "automorphism extended by a fixed fifth variable",
     {"num_vars": 5, "maps": FIVE_CHAIN}),
    ("jacobian-anick", "jacobian",
     "Jacobian determinant of the two-shear automorphism: 1",
     {"images": ["y1", "y2+y1*(y1*y4-y2*y3)", "y3", "y4+y3*(y1*y4-y2*y3)"]}),
    ("jacobian-y2-shear", "jacobian",
     "Jacobian determinant of the single frozen shear: 1 - y1*y3",
     {"images": ["y1", "y2+y1*(y1*y4-y2*y3)", "y3", "y4"]}),
    ("jacobian-nagata", "jacobian",
     "Jacobian determinant of the Nagata map: 1",
     {"images": ["y1-2*y2*(y1*y3+y2^2)-y3*(y1*y3+y2^2)^2",
                 "y2+y3*(y1*y3+y2^2)", "y3"]}),
    ("wildness-cert-single-shear", "wildness-cert",
     "a single shear does not compose to the two-shear automorphism: the "
     "fourth variable already differs",
     {"sequence": [{"variable": "y2", "poly": "y1*(y1*y4-y2*y3)"}]}),
    ("wildness-cert-two-shears", "wildness-cert",
     "the two shears applied in sequence do not compose to the two-shear "
     "automorphism: the second shear sees the modified second variable",
     {"sequence": [{"variable": "y2", "poly": "y1*(y1*y4-y2*y3)"},
                   {"variable": "y4", "poly": "y3*(y1*y4-y2*y3)"}]}),
    ("shear-family-k2", "shear-family",
     "degree-zero monomial powers give an unbounded family of shears; the "
     "k = 2 member",
     {"variable": "y1", "f": "y2", "h": "y2*y3", "k": 2}),
    ("quotient-report-q8", "quotient-report",
     "the quaternion group of order 8 acting on the plane: no reflections, "
     "commutant of order 2, quotient not toric",
     {"dim": 2, "conductor": 4,
      "generators": [
          [[I4, 0], [0, [0, -1]]],
          [[0, 1], [-1, 0]],
      ]}),
    ("quotient-report-cyclic-2", "quotient-report",
     "cyclic group of order 2 acting by the weights (3, 1, -1) pattern: "
     "minus the identity on three-space",
     {"dim": 3, "conductor": 2,
      "generators": [[[-1, 0, 0], [0, -1, 0], [0, 0, -1]]]}),
    ("quotient-report-cyclic-3", "quotient-report",
     "cyclic group of order 3 acting with weights (3, 1, -1)",
     {"dim": 3, "conductor": 3,
      "generators": [[[1, 0, 0], [0, [0, 1], 0], [0, 0, [0, 0, 1]]]]}),
    ("quotient-report-cyclic-5", "quotient-report",
     "cyclic group of order 5 acting with weights (3, 1, -1)",
     {"dim": 3, "conductor": 5,
      "generators": [[[[0, 0, 0, 1], 0, 0], [0, [0, 1], 0], [0, 0, [0, 0, 0, 0, 1]]]]}),
    ("reynolds-plus-minus", "reynolds",
     "plus/minus identity on the plane: no linear invariants, all three "
     "quadratic monomials invariant (the two-dimensional quadratic cone)",
     {"group": {"dim": 2, "conductor": 1,
                "generators": [[[-1, 0], [0, -1]]]},
      "degree": 2}),
    ("parse-poly-quartic-entry", "parse-poly",
     "the corner entry of the quadratic-cone automorphism, expanded",
     {"text": "x4+(x3+x2)*(x3-x2)+x1*(x3-x2)^2",
      "var_names": ["x1", "x2", "x3", "x4"]}),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description="Regenerate the fixture corpus.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; list each fixture whose bytes would change "
                             "and exit 1 if any would")
    check = parser.parse_args(argv).check
    changed = False
    for name, command, source, payload in FIXTURES:
        expected = encode(COMMANDS[command](payload, ARGS))
        doc = {
            "name": name,
            "command": command,
            "source": source,
            "payload": payload,
            "expected": expected,
        }
        path = ROOT / "fixtures" / f"{name}.json"
        text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
        if check:
            if not path.is_file() or path.read_bytes() != text.encode("utf-8"):
                changed = True
                print(f"{path}: would change")
            continue
        path.write_text(text, encoding="utf-8")
        print(f"{path}: {json.dumps(expected, sort_keys=True)[:120]}")
    return int(changed)


if __name__ == "__main__":
    sys.exit(main())
