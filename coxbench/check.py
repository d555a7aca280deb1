"""The benchmark's own checks.

    python3 coxbench/check.py            # all checks against baseline.json
    python3 coxbench/check.py --write    # re-record baseline.json

1. Inputs are deterministic per seed: two builds with the same seed give
   the same outputs, and another seed gives other outputs.
2. Verification rejects a deliberately corrupted output of every
   operation kind.
3. The outputs of one round at the default seed hash to the sha256
   recorded in baseline.json, which also records each workload's bands,
   operation counts and malformed-input breach share.
"""

import argparse
import dataclasses
import hashlib
import json
import random
import shutil
import sys
from collections import Counter

from common import BENCH, ROOT, WORK, Breach, Lib, Mismatch
from run import WORKLOADS, execute

BASELINE = BENCH / "baseline.json"
DEFAULT_SEED = 0


def one_round(name, seed, work_dir):
    lib = Lib()
    workload = __import__(name).build(lib, random.Random(f"{name}:{seed}"), work_dir)
    results = [execute(op) for op in workload.ops]
    texts = [text for _, text, _ in results]
    statuses = [st for _, _, st in results]
    return lib, workload, hashlib.sha256("\n".join(texts).encode()).hexdigest(), statuses


def corrupt(lib, op, out):
    """A wrong version of ``out`` for each operation kind."""
    kind = op.kind
    if kind in ("replay", "probe"):
        code, text, exc = out
        return code, text.replace("\n", "\n{}\n", 1), exc
    if kind == "quotient_report":
        return dataclasses.replace(out, order_h=out.order_h + 1)
    if kind == "reynolds_invariants":
        group, basis = out
        return group, basis + [{}]
    if kind == "hilbert_basis":
        return out[:-1]
    if kind == "divisor_axioms":
        dt, rep = out
        return dt, dataclasses.replace(rep, ok=False)
    if kind == "extend_embedding":
        dt, res = out
        m = lib.monoids
        if isinstance(res, m.Beta):
            rows = [list(r) for r in res.matrix]
            rows[0][0] += 1
            return dt, m.Beta(tuple(tuple(r) for r in rows))
        if isinstance(res, m.ViolationStar):
            return dt, dataclasses.replace(res, s=tuple(x + 1 for x in res.s))
        if isinstance(res, m.NotAnEmbedding):
            return dt, dataclasses.replace(res, b=res.a)
        return dt, m.Beta(((1,),))
    if kind == "cox_data":
        cd, monomials = out
        return cd, [monomials[0] * monomials[0]] + monomials[1:]
    if kind == "cone_contains":
        return [not out[0]] + out[1:]
    if kind == "shear_chain":
        chain, det, round_trip = out
        return chain, det + det, round_trip
    if kind == "wildness_certificate":
        res, steps = out
        return dataclasses.replace(res, variable=(res.variable + 1) % 4), steps
    if kind == "search_tame_decomposition":
        return out[:1]
    if kind == "parse_render":
        p, rendered, again = out
        return p, rendered, again + again
    raise KeyError(kind)


def check_corruption(lib, workload):
    seen = set()
    for op in workload.ops:
        key = (op.kind, op.band)
        if key in seen:
            continue
        out = op.call()
        try:
            op.check(out)
        except Breach:
            continue  # a known contract breach: try the next op of its band
        except Mismatch:
            if op.probe:
                continue
            raise
        seen.add(key)
        try:
            op.check(corrupt(lib, op, out))
        except Mismatch:
            continue
        raise AssertionError(f"{op.kind}/{op.band}: a corrupted output passed verification")
    return len(seen)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="re-record baseline.json")
    args = parser.parse_args(argv)
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    work_dir = WORK / "check"
    work_dir.mkdir(parents=True, exist_ok=True)
    record, ok = {}, True
    try:
        for name in WORKLOADS:
            lib, workload, digest, statuses = one_round(name, DEFAULT_SEED, work_dir)
            status = Counter(statuses)
            _, _, again, _ = one_round(name, DEFAULT_SEED, work_dir)
            lib, _, other, _ = one_round(name, DEFAULT_SEED + 1, work_dir)
            assert digest == again, f"{name}: the same seed gave different outputs"
            assert digest != other, f"{name}: another seed gave the same outputs"
            kinds = check_corruption(lib, __import__(name).build(
                lib, random.Random(f"{name}:{DEFAULT_SEED}"), work_dir))
            probes = sum(op.probe for op in workload.ops)
            probe_breaches = sum(op.probe and st == "breach"
                                 for op, st in zip(workload.ops, statuses))
            record[name] = {
                "seed": DEFAULT_SEED,
                "sha256": digest,
                "ops_per_round": len(workload.ops),
                "bands": {band: {"ops_per_round": sum(op.band == band for op in workload.ops),
                                 "size": text}
                          for band, text in workload.bands.items()},
                "cold_fixtures": [p.stem for _, p in workload.cold],
                "failed": status["failed"],
                "contract_breaches": status["breach"],
                "malformed_breach_ratio": probe_breaches / probes if probes else 0.0,
            }
            recorded = baseline.get(name, {}).get("sha256")
            same = recorded == digest
            ok &= same or args.write
            verdict = "matches baseline" if same else f"DIFFERS from baseline {recorded}"
            print(f"{name}: deterministic, {kinds} kinds reject corruption, "
                  f"failed={status['failed']} breaches={status['breach']}, "
                  f"sha256 {digest[:16]} {verdict}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if args.write:
        BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
