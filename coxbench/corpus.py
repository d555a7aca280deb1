"""Workload ``corpus``: the 28 fixtures replayed warm through
``coxtools.cli.main``, mixed with seeded malformed mutations of their
payloads.  It is the only workload that loads the CLI layer (decode,
encode, argparse); sizes are small, so it is latency-bound."""

import contextlib
import copy
import io
import json

from common import FIXTURES, Mismatch, Op, Workload, expect

MUTATIONS = ("drop_key", "retype", "wrap_list", "wrap_object")
EXIT_CODES = (0, 1, 2)
# Probes of the group commands pass --cap 1: decoding and validation run in
# full, and the closure stops at its first new element.  Otherwise a probe
# whose mutation happens to stay valid closes the whole group (and one with
# a generator of infinite order runs to the default cap of 10000, for
# seconds), so the probes' cost would depend on the seed; group closure is
# what the groups workload measures.
PROBE_CAP = ["--cap", "1"]
GROUP_COMMANDS = ("quotient-report", "reynolds")


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def fixtures():
    docs = []
    for path in sorted(FIXTURES.glob("*.json")):
        docs.append((path, json.loads(path.read_text())))
    return docs


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


def mutate(payload, kind, rng):
    """A seeded malformed copy of ``payload``."""
    doc = copy.deepcopy(payload)
    if kind == "drop_key":
        keys = [p for p, _ in _paths(doc) if isinstance(p[-1], str)]
        path = rng.choice(keys)
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        del parent[path[-1]]
        return doc
    path, value = rng.choice(list(_paths(doc)))
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if kind == "retype":
        parent[path[-1]] = _retyped(value, rng)
    elif kind == "wrap_list":
        parent[path[-1]] = [value]
    else:
        parent[path[-1]] = {"value": value}
    return doc


def run_main(lib, argv):
    """Run ``cli.main`` in-process with stdout captured.

    Returns (exit code, stdout text, escaped exception or None).
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(argv)
    except (Exception, SystemExit) as exc:  # a crash is a measured outcome here
        return None, buf.getvalue(), exc
    return code, buf.getvalue(), None


def check_contract(result):
    """The CLI contract for any input: no escaped exception, exit code 0,
    1 or 2, and exactly one JSON document on one line of stdout."""
    code, out, exc = result
    if exc is not None:
        raise Mismatch(f"exception escaped main: {type(exc).__name__}")
    expect(code in EXIT_CODES, f"undocumented exit code {code!r}")
    expect(out.endswith("\n") and out.count("\n") == 1, "stdout is not exactly one line")
    try:
        json.loads(out)
    except ValueError as exc:
        raise Mismatch("stdout is not JSON") from exc
    return f"{code} {out}"


def build(lib, rng, work_dir):
    valid, probes = [], []
    cold = []
    for path, doc in fixtures():
        cmd = doc["command"]
        expected = canonical(doc["expected"])

        def check_valid(result, expected=expected):
            code, out, exc = result
            if exc is not None:
                raise Mismatch(f"exception escaped main: {type(exc).__name__}")
            expect(code == 0 and out == expected, "replay differs from the frozen output")
            return out

        argv = [cmd, str(path)]
        valid.append(Op("replay", "valid", lambda argv=argv: run_main(lib, argv), check_valid))
        cold.append((cmd, path))
        for kind in MUTATIONS:
            bad = mutate(doc["payload"], kind, rng)
            bad_path = work_dir / f"{path.stem}.{kind}.json"
            bad_path.write_text(json.dumps({"payload": bad}))
            argv = [cmd, str(bad_path)] + (PROBE_CAP if cmd in GROUP_COMMANDS else [])
            probes.append(Op("probe", kind, lambda argv=argv: run_main(lib, argv),
                             check_contract, probe=True))
    rng.shuffle(probes)
    ops = []
    # four probes after each valid replay, in a seeded order
    for i, op in enumerate(valid):
        ops.append(op)
        ops.extend(probes[4 * i:4 * i + 4])
    bands = {"valid": "the 28 fixtures, byte-compared with their frozen expected output",
             **{k: f"one {k} mutation per fixture payload; only the CLI contract is checked"
                for k in MUTATIONS}}
    return Workload(ops=ops, warmup=valid, cold=cold, bands=bands)
