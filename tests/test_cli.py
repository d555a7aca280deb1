import copy
import importlib.util
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from coxtools.cli import COMMANDS, main

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.json"))
SRC_DIR = str(FIXTURE_DIR.parent / "src")


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_fixture_corpus_present():
    assert len(FIXTURES) >= 20
    names = {p.stem for p in FIXTURES}
    for required in ["divisor-theory-4-6-9", "divisor-theory-10-14-15-21",
                     "extend-star-violation", "extend-star-star-violation",
                     "cox-data-quadric", "verify-lift-quadric",
                     "compose-five-variable-chain", "quotient-report-q8"]:
        assert required in names


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_matches_expected(path):
    doc = json.loads(path.read_text())
    assert {"name", "command", "source", "payload", "expected"} <= set(doc)
    code, out = run_cli([doc["command"], str(path)])
    assert code == 0
    assert out == json.dumps(doc["expected"], sort_keys=True, separators=(",", ":")) + "\n"


def _fixture_generator():
    script = FIXTURE_DIR.parent / "tools" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)  # defines the table; main() is not called
    return gen


def test_fixture_generator_table_matches_corpus():
    gen = _fixture_generator()
    table = {name: (command, source, json.loads(json.dumps(payload)))
             for name, command, source, payload in gen.FIXTURES}
    assert len(table) == len(gen.FIXTURES) == len(FIXTURES) == 28
    for path in FIXTURES:
        doc = json.loads(path.read_text())
        assert table[path.stem] == (doc["command"], doc["source"], doc["payload"])


def test_fixture_generator_check_finds_every_fixture_unchanged(capsys):
    """``--check`` regenerates all 28 fixtures in memory, writes nothing and
    lists none: every committed fixture has the generator's exact bytes."""
    before = {p: p.stat().st_mtime_ns for p in FIXTURES}
    assert _fixture_generator().main(["--check"]) == 0
    assert capsys.readouterr().out == ""
    assert {p: p.stat().st_mtime_ns for p in FIXTURES} == before


@pytest.mark.parametrize("path", FIXTURES[:6], ids=lambda p: p.stem)
def test_byte_identical_reruns(path):
    doc = json.loads(path.read_text())
    _, out1 = run_cli([doc["command"], str(path)])
    _, out2 = run_cli([doc["command"], str(path)])
    assert out1 == out2


def test_integers_serialized_as_strings():
    path = FIXTURE_DIR / "divisor-theory-4-6-9.json"
    _, out = run_cli(["divisor-theory", str(path)])
    parsed = json.loads(out)
    assert parsed["free_rank"] == "2"
    assert parsed["images"][0] == ["2", "0"]


def test_not_saturated_is_domain_error(tmp_path):
    payload = {"ambient_rank": 2, "generators": [[2, 0], [0, 1]],
               "group_basis": [[1, 0], [0, 1]]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    code, out = run_cli(["divisor-theory", str(p)])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "not_saturated"
    assert doc["witness"] == ["1", "0"]
    # but saturate itself reports the fact with exit 0
    code, out = run_cli(["saturate", str(p)])
    assert code == 0
    assert json.loads(out) == {"saturated": False, "witness": ["1", "0"]}


def test_violation_exits_zero():
    path = FIXTURE_DIR / "extend-star-violation.json"
    code, out = run_cli(["extend", str(path)])
    assert code == 0
    assert json.loads(out)["kind"] == "violation_star"


def test_not_an_embedding_exits_zero(tmp_path):
    # alpha = (1, 1) sends the generators (2, 0) and (1, 1) both to 2
    p = tmp_path / "alpha.json"
    p.write_text(json.dumps({"monoid": {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
                             "alpha": {"matrix": [["1", "1"]]}}))
    assert run_cli(["extend", str(p)]) == \
        (0, '{"a":["1","1"],"b":["2","0"],"kind":"not_an_embedding"}\n')


def test_malformed_input_exit_2(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    code, out = run_cli(["saturate", str(p)])
    assert code == 2
    assert json.loads(out)["error"] == "malformed_input"
    p2 = tmp_path / "missing.json"
    p2.write_text(json.dumps({"generators": [[1, 0]]}))
    code, _ = run_cli(["saturate", str(p2)])
    assert code == 2


def _assert_malformed(code, out):
    assert code == 2
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["error"] == "malformed_input"


# Files that json.load cannot turn into a document: bytes that are not
# UTF-8 (UnicodeDecodeError), arrays nested past the interpreter's recursion
# limit (RecursionError) and a number past its int_max_str_digits
# (ValueError).  The same digits written as a string are a "bad integer".
UNREADABLE = {
    "not-utf8": b'\xff\xfe{"text": "y1", "var_names": ["y1"]}',
    "nested-100000": b"[" * 100_000 + b"]" * 100_000,
    "number-5000-digits": b'{"num_vars": ' + b"9" * 5000 + b', "maps": [["y1"]]}',
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_input_file_exit_2(tmp_path, name, command):
    p = tmp_path / "input.json"
    p.write_bytes(UNREADABLE[name])
    _assert_malformed(*run_cli([command, str(p)]))


def test_long_integer_string_is_a_bad_integer(tmp_path):
    p = tmp_path / "input.json"
    p.write_text(json.dumps({"num_vars": "9" * 5000, "maps": [["y1"]]}))
    code, out = run_cli(["compose", str(p)])
    _assert_malformed(code, out)
    assert json.loads(out)["detail"].startswith("bad integer")


def test_long_integers_are_refused_without_the_interpreter_digit_limit(tmp_path):
    """The 5000 digits, as a JSON number and as a string, are malformed
    input also when the interpreter converts integers of any length."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int digit limit to lift")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for command in sorted(COMMANDS):
            test_unreadable_input_file_exit_2(tmp_path, "number-5000-digits", command)
        test_long_integer_string_is_a_bad_integer(tmp_path)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("maps,detail", [
    ('[["y1"]]', "each map needs one image per variable"),
    ('["y1"]', "expected a list of polynomials (JSON array)"),
])
def test_compose_refuses_a_huge_num_vars_before_naming_variables(tmp_path, maps, detail):
    """A 43-byte payload claiming 10^8 variables: the maps' shapes refuse it
    before a default name is built for each variable.  Building them takes
    seconds and gigabytes, so the process runs under a 1 GB address-space
    limit: a regression fails here and leaves the machine alone."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    p = tmp_path / "huge.json"
    p.write_text('{"num_vars": 100000000, "maps": %s}' % maps)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "coxtools.cli", "compose", str(p)],
                          capture_output=True, text=True, preexec_fn=limit,
                          env=dict(os.environ, PYTHONPATH=SRC_DIR), timeout=60)
    assert time.perf_counter() - start < 0.5
    assert proc.returncode == 2 and proc.stdout.count("\n") == 1, proc.stderr
    assert json.loads(proc.stdout) == {"error": "malformed_input", "detail": detail}



def _nested(depth):
    return "(" * depth + "y1" + ")" * depth


# the polynomial parser recurses once per parenthesis level; past the
# recursion limit a text is malformed input, like a JSON array nested as deep
DEEP_PAYLOADS = {
    "parse-poly": lambda text: {"text": text, "var_names": ["y1"]},
    "compose": lambda text: {"num_vars": 1, "maps": [["2*y1"], [text]]},
}


@pytest.mark.parametrize("command", sorted(DEEP_PAYLOADS))
@pytest.mark.parametrize("depth", [600, 1000, 5000])
def test_polynomial_nested_past_the_recursion_limit_exit_2(tmp_path, command, depth):
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(DEEP_PAYLOADS[command](_nested(depth))))
    code, out = run_cli([command, str(p)])
    _assert_malformed(code, out)
    assert json.loads(out)["detail"] == "polynomial nested too deeply"


def test_polynomial_nested_200_deep_parses(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(DEEP_PAYLOADS["parse-poly"](_nested(200))))
    code, out = run_cli(["parse-poly", str(p)])
    assert code == 0 and json.loads(out)["canonical"] == "y1"


def test_polynomial_nested_past_the_recursion_limit_as_a_process(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(DEEP_PAYLOADS["parse-poly"](_nested(1000))))
    proc = subprocess.run(
        [sys.executable, "-m", "coxtools.cli", "parse-poly", str(p)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert proc.returncode == 2 and proc.stderr == ""
    assert proc.stdout == ('{"detail":"polynomial nested too deeply",'
                           '"error":"malformed_input"}\n')

Q8_GROUP = json.loads((FIXTURE_DIR / "quotient-report-q8.json").read_text())["payload"]


@pytest.mark.parametrize("command", ["quotient-report", "reynolds"])
@pytest.mark.parametrize("change", [
    {"generators": [5]},
    {"generators": [[5, 6]]},
    {"generators": [[[1, 0], 5]]},
    {"generators": [[[1, 0], [0, 1, 0]]]},
    {"generators": []},
    {"generators": "I"},
    {"dim": 0},
    {"dim": 0, "generators": [[]]},
    {"conductor": 0},
    {"conductor": -4},
    # a zero denominator, as a rational entry and as a cyclotomic coefficient
    {"dim": 1, "conductor": 2, "generators": [[["1/0"]]]},
    {"dim": 1, "conductor": 2, "generators": [[[["0", "1/0"]]]]},
], ids=lambda c: json.dumps(c))
def test_malformed_group_exit_2(tmp_path, command, change):
    group = dict(Q8_GROUP, **change)
    payload = group if command == "quotient-report" else {"group": group, "degree": 2}
    p = tmp_path / "group.json"
    p.write_text(json.dumps(payload))
    _assert_malformed(*run_cli([command, str(p)]))


@pytest.mark.parametrize("command", ["quotient-report", "reynolds"])
def test_conductor_bound(tmp_path, command):
    for conductor, code in ((720720, 2), (1000, 0)):
        group = {"dim": 1, "conductor": conductor, "generators": [[[1]]]}
        payload = group if command == "quotient-report" else {"group": group, "degree": 1}
        p = tmp_path / "group.json"
        p.write_text(json.dumps(payload))
        got, out = run_cli([command, str(p)])
        if code:
            _assert_malformed(got, out)
        else:
            assert got == 0, out


SHEAR = {"variable": "y1", "f": "y2", "h": "y2*y3", "k": 1}
PLANE_LIFT = {"cone": {"ambient_rank": 2, "rays": [[1, 0], [0, 1]]},
              "psi": ["x1", "x2"], "phi": ["y1", "y2"]}


@pytest.mark.parametrize("command,payload", [
    ("parse-poly", {"text": 5, "var_names": ["y1"]}),
    ("parse-poly", {"text": "y1", "var_names": "y1"}),
    ("parse-poly", {"text": "y1", "var_names": [1, 2]}),
    ("parse-poly", {"text": "y1", "var_names": ["y1", ["y2"]]}),
    ("wildness-cert", {"grading": {"free_rank": 1, "var_degrees": [1, 1, -1, -1]},
                       "sequence": [{"variable": "y1", "poly": "y2"}]}),
    ("wildness-cert", {"grading": {"free_rank": 1, "torsion": 2,
                                   "var_degrees": [{"free": [1]}]}, "sequence": []}),
    ("wildness-cert", {"sequence": [{"variable": ["y2"], "poly": "y1"}]}),
    ("wildness-cert", {"sequence": 5}),
    ("shear-family", dict(SHEAR, variable={"value": "y1"})),
    ("shear-family", dict(SHEAR, h=3)),
    ("compose", {"num_vars": 1, "var_names": [1], "maps": [["y1"]]}),
    ("compose", {"num_vars": 1, "maps": ["y1"]}),
    ("compose", {"num_vars": 2, "maps": [["y1", "y2", "y1"]]}),
    ("compose", {"num_vars": 1, "maps": []}),
    ("compose", {"num_vars": 0, "maps": [[]]}),
    ("jacobian", {"images": []}),
    ("jacobian", {"images": "y1"}),
    ("jacobian", {"images": [None, "y1"]}),
    ("verify-lift", {"cone": {"ambient_rank": 2, "rays": [[1, 0], [0, 1]]},
                     "psi": ["x1", 2], "phi": ["y1", "y2"]}),
    ("saturate", {"ambient_rank": 2, "generators": [[1, 0], [1]]}),
    ("divisor-theory", {"ambient_rank": 2, "generators": [[1, 0, 0]]}),
    ("saturate", {"ambient_rank": 2, "generators": [[1, 0]], "group_basis": [[1, 0, 0]]}),
    ("cox-data", {"ambient_rank": 2, "rays": [[1, 0], [1]]}),
    # a character as long as the cone's ambient rank; a wrong length used to
    # exit 1 with DimensionMismatchError
    ("pullback", {"cone": {"ambient_rank": 2, "rays": [[1, 0], [0, 1]]}, "character": [1]}),
    ("pullback", {"cone": {"ambient_rank": 2, "rays": [[1, 0], [0, 1]]},
                  "character": [1, 0, 0]}),
    ("cox-data", {"ambient_rank": 2, "rays": [[1, 0]], "lattice": [[1, 0, 0], [0, 1, 0]]}),
    ("check-axioms", {"monoid": {"ambient_rank": 2, "generators": [[1, 0], [0, 1]]},
                      "ambient_functionals": [[1, 0, 0], [0, 1, 0]]}),
    ("extend", {"monoid": {"ambient_rank": 2, "generators": [[1, 0], [0, 1]]},
                "alpha": {"matrix": [4, [0, 1]]}}),
    # alpha's rows must be as wide as the monoid's ambient lattice: too short
    # used to end in an IndexError, too long was silently truncated
    ("extend", {"monoid": {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
                "alpha": {"matrix": [[0]]}}),
    ("extend", {"monoid": {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
                "alpha": {"matrix": [[1, 0, 7], [0, 1, 7]]}}),
    # a zero denominator used to escape as a ZeroDivisionError with exit 1
    ("extend", {"monoid": {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]},
                "alpha": {"matrix": [["1/0", "0"], ["0", "1"]]}}),
    ("wildness-cert", [{"sequence": []}]),
    # 20301 monomials of degree 200 in dimension 3: refused before the
    # group closes, where the invariant solve would need gigabytes
    ("reynolds", {"group": {"dim": 3, "conductor": 1,
                            "generators": [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
                  "degree": 200}),
    # duplicate variable names
    ("compose", {"num_vars": 2, "var_names": ["a", "a"], "maps": [["a", "a"]]}),
    ("parse-poly", {"text": "y1", "var_names": ["y1", "y1"]}),
    ("wildness-cert", {"var_names": ["a", "a", "b", "c"], "sequence": []}),
    # verify-lift needs one phi image per ray and one psi image per character
    ("verify-lift", dict(PLANE_LIFT, phi=[])),
    ("verify-lift", dict(PLANE_LIFT, phi=["y1"])),
    ("verify-lift", dict(PLANE_LIFT, phi=["y1", "y2", "y1"])),
    ("verify-lift", dict(PLANE_LIFT, psi=["x1"])),
    ("verify-lift", dict(PLANE_LIFT, psi=["x1", "x2", "x1"])),
    # the grading's shape
    ("shear-family", dict(SHEAR, grading={"free_rank": -1, "var_degrees": [{}]})),
    ("shear-family", dict(SHEAR, grading={"free_rank": 1, "var_degrees": [{"free": [1, 0]}]})),
    ("shear-family", dict(SHEAR, grading={"free_rank": 1, "var_degrees": [{"torsion": [1]}]})),
    ("shear-family", dict(SHEAR, grading={"free_rank": 0, "torsion": [2],
                                          "var_degrees": [{}]})),
    ("shear-family", dict(SHEAR, grading={"free_rank": 0, "torsion": [1],
                                          "var_degrees": [{"torsion": [0]}]})),
    ("shear-family", dict(SHEAR, grading={"free_rank": 0, "torsion": [2, 3],
                                          "var_degrees": [{"torsion": [1, 1]}]})),
], ids=lambda x: x if isinstance(x, str) else json.dumps(x))
def test_malformed_payload_exit_2(tmp_path, command, payload):
    p = tmp_path / "payload.json"
    p.write_text(json.dumps(payload))
    _assert_malformed(*run_cli([command, str(p)]))


# -- seeded malformed payloads --------------------------------------------------
#
# The benchmark corpus's four payload mutations: drop a key, retype a value,
# wrap a value in a list or in an object.

MUTATIONS = ("drop_key", "retype", "wrap_list", "wrap_object")


def _paths(node, prefix=()):
    """Every position in a JSON tree, as key/index paths (root excluded)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for k, v in items:
        yield prefix + (k,), v
        yield from _paths(v, prefix + (k,))


def _retyped(value, rng):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return rng.choice([[value], str(value) + "x", None, float(value) + 0.5])
    if isinstance(value, str):
        return rng.choice([len(value), [value], None])
    if isinstance(value, list):
        return rng.choice([len(value), "list", None])
    if isinstance(value, dict):
        return rng.choice([list(value), 0, "object"])
    return 0


def _mutate(payload, kind, rng):
    """A seeded malformed copy of ``payload``."""
    doc = copy.deepcopy(payload)
    if kind == "drop_key":
        path = rng.choice([p for p, _ in _paths(doc) if isinstance(p[-1], str)])
    else:
        path, value = rng.choice(list(_paths(doc)))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if kind == "drop_key":
        del parent[path[-1]]
    elif kind == "retype":
        parent[path[-1]] = _retyped(value, rng)
    elif kind == "wrap_list":
        parent[path[-1]] = [value]
    else:
        parent[path[-1]] = {"value": value}
    return doc


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_mutated_payloads_keep_the_cli_contract(tmp_path, path):
    """Every mutation of every fixture, seeds 0-2: no exception escapes
    main, the exit code is 0, 1 or 2, and stdout is one JSON line.  The
    group commands run with --cap 1, so a mutation that stays valid does
    not close a large group."""
    doc = json.loads(path.read_text())
    flags = ["--cap", "1"] if doc["command"] in ("quotient-report", "reynolds") else []
    for kind in MUTATIONS:
        for seed in range(3):
            bad = _mutate(doc["payload"], kind, random.Random(f"{path.stem}:{kind}:{seed}"))
            p = tmp_path / f"{kind}-{seed}.json"
            p.write_text(json.dumps({"payload": bad}))
            code, out = run_cli([doc["command"], str(p), *flags])
            assert code in (0, 1, 2), (kind, seed, out)
            assert out.endswith("\n") and out.count("\n") == 1, (kind, seed, out)
            json.loads(out)


@pytest.mark.parametrize("argv", [
    ["quotient-report", "quotient-report-q8", "--cap", "0"],
    ["quotient-report", "quotient-report-q8", "--cap", "-1"],
    ["reynolds", "reynolds-plus-minus", "--cap", "0"],
    ["check-axioms", "check-axioms-4-6-9", "--depth", "-1"],
], ids=" ".join)
def test_bound_flags_below_minimum_exit_2(argv):
    command, fixture, *flags = argv
    _assert_malformed(*run_cli([command, str(FIXTURE_DIR / f"{fixture}.json"), *flags]))


Q8_PATH = str(FIXTURE_DIR / "quotient-report-q8.json")
# argv that argparse refuses; -h and --help are no options, so they are too
USAGE_ERRORS = {
    "unknown-command": ["bogus", Q8_PATH],
    "missing-input": ["quotient-report"],
    "no-arguments": [],
    "cap-not-an-int": ["quotient-report", Q8_PATH, "--cap", "abc"],
    "unknown-flag": ["quotient-report", Q8_PATH, "--frob"],
    "help": ["-h"],
    "help-after-arguments": ["quotient-report", Q8_PATH, "--help"],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_with_one_json_document(name):
    """In-process, main returns 2 and raises no SystemExit; as a process,
    the one line on stdout is the same and stderr is empty."""
    argv = USAGE_ERRORS[name]
    code, out = run_cli(argv)
    _assert_malformed(code, out)
    proc = subprocess.run([sys.executable, "-m", "coxtools.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, out, "")


@pytest.mark.parametrize("command,fixture", [("check-axioms", "check-axioms-4-6-9")])
def test_negative_payload_depth_exit_2(tmp_path, command, fixture):
    payload = json.loads((FIXTURE_DIR / f"{fixture}.json").read_text())["payload"]
    p = tmp_path / "depth.json"
    p.write_text(json.dumps(dict(payload, depth=-1)))
    _assert_malformed(*run_cli([command, str(p)]))


def test_extend_takes_no_depth(tmp_path):
    """extend is exact: a depth in its payload or on the command line, even
    a negative one, leaves its answer as it is."""
    doc = json.loads((FIXTURE_DIR / "extend-star-violation.json").read_text())
    p = tmp_path / "depth.json"
    p.write_text(json.dumps(dict(doc["payload"], depth=-1)))
    want = json.dumps(doc["expected"], sort_keys=True, separators=(",", ":")) + "\n"
    assert run_cli(["extend", str(p)]) == (0, want)
    assert run_cli(["extend", str(p), "--depth", "0"]) == (0, want)


@pytest.mark.parametrize("degree,flags", [(0, []), (-1, []), ("2x", ["--cap", "1"])],
                         ids=["0", "-1", "2x-cap-1"])
def test_bad_reynolds_degree_exit_2(tmp_path, degree, flags):
    """The degree is decoded before the group is closed: a bad one is
    malformed input even when the closure would stop at the cap."""
    payload = json.loads((FIXTURE_DIR / "reynolds-plus-minus.json").read_text())["payload"]
    p = tmp_path / "degree.json"
    p.write_text(json.dumps(dict(payload, degree=degree)))
    _assert_malformed(*run_cli(["reynolds", str(p), *flags]))


def test_compose_with_a_power_past_the_recursion_limit(tmp_path):
    p = tmp_path / "power.json"
    p.write_text(json.dumps({"num_vars": 1, "maps": [["2*y1"], ["y1^1200"]]}))
    code, out = run_cli(["compose", str(p)])
    assert code == 0
    assert out == json.dumps({"images": [f"{2 ** 1200}*y1^1200"]}, separators=(",", ":")) + "\n"


def test_zero_bounds_are_taken_literally():
    code, out = run_cli(["check-axioms", str(FIXTURE_DIR / "check-axioms-4-6-9.json"),
                         "--depth", "0"])
    assert code == 0
    assert json.loads(out)["depth"] == "0"
    code, out = run_cli(["quotient-report", str(FIXTURE_DIR / "quotient-report-q8.json"),
                         "--cap", "1"])
    assert code == 1
    assert json.loads(out)["error"] == "ClosureCapExceededError"


def test_parse_error_is_domain_error(tmp_path):
    p = tmp_path / "badpoly.json"
    p.write_text(json.dumps({"text": "y1 +* y2", "var_names": ["y1", "y2"]}))
    code, out = run_cli(["parse-poly", str(p)])
    assert code == 1


def test_nonpointed_cone_is_domain_error(tmp_path):
    p = tmp_path / "line.json"
    p.write_text(json.dumps({"ambient_rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]]}))
    code, out = run_cli(["cox-data", str(p)])
    assert code == 1
    assert json.loads(out)["error"] == "NonPointedError"


@pytest.mark.parametrize("command,payload", [
    ("cox-data", {"ambient_rank": 2, "rays": [[1, 0], [1, 10000000]]}),
    ("saturate", {"ambient_rank": 2, "generators": [[1, 0], [1, 10000000]],
                  "group_basis": [[1, 0], [0, 1]]}),
], ids=["cox-data", "saturate"])
def test_huge_hilbert_candidate_space_is_a_domain_error(tmp_path, command, payload):
    """The dual simplex of the cox-data cone, and the monoid's cone in the
    whole lattice, each hold 10^7 box points; both are refused before the walk."""
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, out = run_cli([command, str(p)])
    assert time.perf_counter() - start < 1
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out) == {"error": "ValueError",
                               "detail": "Hilbert basis candidate space too large"}


def test_cox_data_with_a_deep_smith_form_exits_1_quickly(tmp_path):
    """Eight rays in rank 6, 200 bytes of JSON: the class group's Smith form
    stays small, and the dual cone's Hilbert basis is refused at the volume
    cap.  A cold process answers in well under 2 s."""
    p = tmp_path / "deep-smith.json"
    p.write_text(json.dumps({"ambient_rank": 6, "rays": [
        [-1, 2, 7, -9, 5, 4], [-8, -4, -6, 2, 6, 4], [3, 8, -6, 9, -2, 1], [-3, 4, -1, -4, 3, 3],
        [-7, -5, 5, -5, -5, 1], [-9, -3, -3, -4, -4, 5], [1, -3, 8, -3, -4, 4],
        [3, 0, -9, 2, 4, 3]]}))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "coxtools.cli", "cox-data", str(p)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1 and proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"error": "ValueError",
                                       "detail": "Hilbert basis candidate space too large"}


def test_cox_data_with_a_large_dual_exits_1_quickly(tmp_path):
    """The 20 moment rays (1, a, ..., a^7) in rank 8, 1 KB of JSON: the dual
    cone has 1120 rays and a pulling triangulation of 68525 simplices.  The
    volume cap is checked per simplex, and the first one passes it; taking
    every simplex's adjugate before the check takes about 23 s.  A cold
    process answers in well under 2 s."""
    p = tmp_path / "moment-20.json"
    p.write_text(json.dumps({"ambient_rank": 8, "rays": [[a ** k for k in range(8)]
                                                         for a in range(20)]}))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "coxtools.cli", "cox-data", str(p)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1 and proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"error": "ValueError",
                                       "detail": "Hilbert basis candidate space too large"}


def test_depth_flag_respected(tmp_path):
    payload = {"monoid": {"ambient_rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]}}
    p = tmp_path / "ax.json"
    p.write_text(json.dumps(payload))
    code, out = run_cli(["check-axioms", str(p), "--depth", "4"])
    assert code == 0
    assert json.loads(out) == {"depth": "4", "ok": True}


def test_explicit_torsion_grading(tmp_path):
    payload = {
        "grading": {"free_rank": 0, "torsion": [2],
                    "var_degrees": [{"torsion": [1]}, {"torsion": [1]},
                                    {"torsion": [1]}]},
        "variable": "y1", "f": "y2", "h": "y2*y3", "k": 1,
    }
    p = tmp_path / "family.json"
    p.write_text(json.dumps(payload))
    code, out = run_cli(["shear-family", str(p)])
    assert code == 0
    assert json.loads(out) == {"images": ["y2^2*y3 + y1", "y2", "y3"]}


def test_verify_lift_over_a_torsion_class_group(tmp_path):
    """The class group of this quotient cone is (ZZ/2)^4; phi swaps y4 and y5."""
    payload = {"cone": {"ambient_rank": 5,
                        "rays": [[1, 0, 0, 0, 0], [1, 0, 0, 0, 2], [1, 0, 0, 2, 0],
                                 [1, 0, 2, 0, 0], [1, 2, 0, 0, 0]]},
               "psi": ["x1", "x2", "x4", "x3", "x5", "x6"],
               "phi": ["y1", "y2", "y3", "y5", "y4"]}
    p = tmp_path / "lift.json"
    p.write_text(json.dumps(payload))
    assert run_cli(["verify-lift", str(p)]) == (0, '{"ok":true}\n')


def test_pretty_flag():
    path = FIXTURE_DIR / "pullback-quadric.json"
    _, out = run_cli(["pullback", str(path), "--pretty"])
    assert "\n  " in out
    assert json.loads(out) == {"monomial": "y1*y3"}


def test_console_entry_point_subprocess():
    path = FIXTURE_DIR / "parse-poly-quartic-entry.json"
    proc = subprocess.run(
        [sys.executable, "-m", "coxtools.cli", "parse-poly", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["num_terms"] == "6"


def test_output_stable_across_hash_seeds():
    path = FIXTURE_DIR / "quotient-report-q8.json"
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC_DIR)
        proc = subprocess.run(
            [sys.executable, "-m", "coxtools.cli", "quotient-report", str(path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_a_result_past_the_digit_bound_is_one_error_document(tmp_path):
    """extend on 6 KB: Beta's 6001-digit entry is refused by coxtools' own
    bound while the document is encoded, inside main's error handling, so
    the process prints one JSON line, writes nothing to stderr, and gives
    the same bytes whatever the interpreter's digit limit."""
    big = str(10 ** 3000)
    p = tmp_path / "input.json"
    p.write_text(json.dumps({"monoid": {"ambient_rank": 2, "generators": [[big, "0"], ["0", "1"]]},
                             "alpha": {"matrix": [[big, "0"], ["0", "1"]]}}))
    runs = []
    for limit in (None, "0"):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env.update({"PYTHONPATH": SRC_DIR}, **({"PYTHONINTMAXSTRDIGITS": limit} if limit else {}))
        proc = subprocess.run([sys.executable, "-m", "coxtools.cli", "extend", str(p)],
                              capture_output=True, text=True, env=env, timeout=60)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, err, out.count("\n")) == (1, "", 1)
    assert json.loads(out) == {"error": "ValueError",
                               "detail": "result integer has more than 4300 digits"}
