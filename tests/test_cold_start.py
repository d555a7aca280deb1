"""The cold command line: fresh interpreters, each loading only what its
subcommand runs.  In-process tests cannot see this, because an earlier
test may already have imported the module a handler forgot to import."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import coxtools

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# the package's exports when every submodule was imported eagerly
EXPORTS = {
    "intlinalg": ["hnf", "snf"],
    "cones": ["Cone", "NonPointedError", "NotFullDimensionalError", "cone_contains", "dual_cone",
              "hilbert_basis"],
    "monoids": ["AffineMonoid", "Beta", "DivisorTheory", "MonoidHom", "NotAnEmbedding",
                "NotSaturatedError", "ViolationStar", "ViolationStarStar", "divisor_theory",
                "extend_embedding", "is_saturated", "verify_divisor_axioms"],
    "polynomials": ["Poly", "PolyMap", "PolyParseError", "UnknownVariableError", "compose",
                    "compose_chain", "in_ideal_power", "jacobian", "parse_map", "parse_poly",
                    "poly_det", "substitute"],
    "gradings": ["AbGroup", "GradedEndo", "GradedRing", "GroupElem", "ZERO_DEGREE",
                 "anick_automorphism", "check_normalizes", "degree_of", "elementary_linear",
                 "elementary_shear", "elementary_inverse", "nagata_polymap", "quadric_grading",
                 "rho_replace", "shear_family", "shear_map", "search_tame_decomposition",
                 "transpose_map", "verify_inverse", "wildness_certificate", "wildness_machinery"],
    "toric": ["CoxData", "cox_data", "pullback", "respects_relations", "verify_lift"],
    "cyclotomic": ["CycloNum", "cyclotomic_polynomial"],
    "quotients": ["MatGroup", "QuotientReport", "close_group", "pseudoreflections",
                  "quotient_report", "reynolds_invariants"],
}

# run a subcommand in this interpreter, then list the modules it loaded
LOADED = """
import sys
from coxtools.cli import main
main(sys.argv[1:])
sys.stderr.write(" ".join(sorted(m for m in sys.modules if m.startswith("coxtools")
                                 or m == "dataclasses")))
"""


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV,
                          cwd=ROOT, timeout=60)


def test_cold_processes_replay_every_fixture():
    assert len(FIXTURES) == 28
    for path in FIXTURES:
        doc = json.loads(path.read_text())
        proc = _python("-m", "coxtools.cli", doc["command"], str(path))
        assert (proc.returncode, proc.stdout) == \
            (0, json.dumps(doc["expected"], sort_keys=True, separators=(",", ":")) + "\n"), \
            (path.stem, proc.stderr)


def test_module_entry_runs_the_command_line():
    path = ROOT / "fixtures" / "parse-poly-quartic-entry.json"
    doc = json.loads(path.read_text())
    proc = _python("-m", "coxtools", doc["command"], str(path))
    assert (proc.returncode, proc.stdout) == \
        (0, json.dumps(doc["expected"], sort_keys=True, separators=(",", ":")) + "\n"), \
        proc.stderr


def test_package_import_loads_no_submodule():
    proc = _python("-c", "import sys, coxtools; "
                         "print(sorted(m for m in sys.modules if m.startswith('coxtools')))")
    assert proc.stdout.strip() == "['coxtools']", proc.stderr


POLY = ["coxtools.errors", "coxtools.polynomials"]
# QuotientReport is a dataclass, so the quotient commands load dataclasses too
GROUP = ["coxtools.cyclotomic", "coxtools.errors", "coxtools.intlinalg", "coxtools.quotients",
         "dataclasses"]


@pytest.mark.parametrize("fixture,loaded", [
    ("compose-tau-tauinv", POLY),
    ("jacobian-anick", POLY),
    ("parse-poly-quartic-entry", POLY),
    ("quotient-report-q8", GROUP),
    ("reynolds-plus-minus", GROUP),
])
def test_subcommand_loads_only_its_modules(fixture, loaded):
    path = ROOT / "fixtures" / f"{fixture}.json"
    proc = _python("-c", LOADED, json.loads(path.read_text())["command"], str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["coxtools", "coxtools.cli", *loaded]


def test_lazy_exports_are_the_submodules_objects():
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"coxtools.{module}")
        for name in names:
            assert getattr(coxtools, name) is getattr(sub, name), name
    exported = {name for names in EXPORTS.values() for name in names}
    assert set(coxtools.__all__) == exported
    assert exported <= set(dir(coxtools))
    star = {}
    exec("from coxtools import *", star)
    assert set(star) - {"__builtins__"} == exported
    assert all(star[name] is getattr(coxtools, name) for name in exported)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coxtools.no_such_name
    assert not hasattr(coxtools, "cli_main")
