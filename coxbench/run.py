"""coxtools benchmark: one closed-loop client in one process.

    python3 coxbench/run.py --workload corpus|groups|lattice|polymaps \
        --seed N --seconds S --trace 0|1

``setup_s`` is the time from starting a fresh interpreter to the end of
its set-up (every import, generating the seeded inputs, one warm-up
pass), measured on SETUPS fresh processes (setup_once.py) and reported
as their median.  This process then sets up once more and runs whole
rounds of the workload's operations, one at a time, until S seconds
have passed and at least MIN_OPS operations have run; only the library
calls are timed, and every output is verified after its timer stops.
Cold ``python -m coxtools.cli`` processes on the workload's fixtures run
between the operations, spread over the loop.

Operation and cold-process times are reported in refs: each is divided
by the time of a fixed pure-Python reference pass (``reference_pass``,
about 2 ms), the median of the REF_NEAR passes taken just before and the
REF_NEAR just after it.  The reference is run every REF_EVERY seconds of
the loop and touches no coxtools code, so a change to the library moves
these figures as it moves the wall times, while the swings of a shared
host's speed (1.2-1.8x, for seconds to minutes at a time) mostly cancel.
The wall-time figures are printed on the ``#`` line before the result.

With ``--trace 1`` the loop first runs untraced for S/2 seconds, then the
same number of rounds again with the library's functions wrapped from
outside (see tracing.py); the per-layer metrics come from that traced
part and are given per round, so they do not depend on how many rounds
the host fits into S/2 seconds.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  ``failed`` counts operations whose answer was wrong or that
raised on valid input.  Malformed-input probes (corpus) have no answer to
check, only the CLI contract; a probe that breaks it (an escaped
exception, an undocumented exit code or anything but one JSON line) is a
breach, reported in ``contract_ok_ratio`` and ``cli.malformed_breaches``.
So is a right answer that breaks another stated contract (polymaps:
``render`` output that ``parse_poly`` rejects).
"""

import argparse
import bisect
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction

from common import BENCH, FIXTURES, ROOT, SRC, WORK, Breach, Lib, Mismatch, median, p90

SETUPS = 5
MIN_OPS = 100
REF_EVERY = 0.1
REF_NEAR = 3
COLD_SAMPLES = 24
PROBES = 5
WORKLOADS = ("corpus", "groups", "lattice", "polymaps")


def execute(op, tracer=None):
    """Run one operation; returns (seconds, canonical text, status)."""
    if tracer:
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        out = op.call()
        err = None
    except Exception as exc:  # a library error on valid input is a failed operation
        err = exc
    dt = time.perf_counter() - t0
    if tracer:
        tracer.enabled = False
    if err is not None:
        return dt, f"raised {type(err).__name__}", "failed"
    try:
        return dt, op.check(out), "ok"
    except Breach as exc:
        return dt, f"breach {exc}", "breach"
    except Mismatch as exc:
        return dt, f"mismatch {exc}", "breach" if op.probe else "failed"
    except Exception as exc:  # the output could not even be inspected
        return dt, f"unreadable {type(exc).__name__}", "breach" if op.probe else "failed"


def reference_pass():
    """Fixed pure-Python work whose time follows the host's speed and
    nothing else: an interpreter loop with dict stores, big-integer and
    Fraction arithmetic, and a small integer matrix product over tuples
    (the kinds of work the workloads do), under 1 ms each."""
    d, acc = {}, 0
    for i in range(6000):
        acc += (i * 7919) % 1013
        d[i % 97] = acc
    x, total = 3 ** 200, Fraction(0)
    for i in range(170):
        x = (x * 1000003 + i) % 7 ** 190
        total += Fraction(x % 1009, i % 13 + 1)
    rows = [tuple((i * j) % 17 - 8 for j in range(12)) for i in range(12)]
    for _ in range(3):
        rows = [tuple(sum(a * b for a, b in zip(r, c)) % 10007 for c in zip(*rows)) for r in rows]
    return acc, total, rows


class HostSpeed:
    """Reference passes taken between the timed events (operations and
    cold processes) of one loop, to express each event's time in refs."""

    def __init__(self):
        self.positions, self.times = [], []  # per pass: events before it, seconds
        self.events = 0
        self.spent = 0.0
        self.next_at = 0.0

    def tick(self, force=False):
        """Time one reference pass if REF_EVERY seconds have passed since the
        last.  The garbage collector is off meanwhile: a collection in the
        pass would time the workload's heap, not the host."""
        if force or time.perf_counter() >= self.next_at:
            gc.disable()
            t0 = time.perf_counter()
            reference_pass()
            dt = time.perf_counter() - t0
            gc.enable()
            self.positions.append(self.events)
            self.times.append(dt)
            self.spent += dt
            self.next_at = time.perf_counter() + REF_EVERY

    def event(self):
        """Index of the timed event that is about to be recorded."""
        self.events += 1
        return self.events - 1

    def refs(self, event, seconds):
        """``seconds`` of ``event`` over the median time of the REF_NEAR
        reference passes just before and the REF_NEAR just after it."""
        k = bisect.bisect_right(self.positions, event)
        return seconds / median(self.times[max(k - REF_NEAR, 0):k + REF_NEAR])


def run_rounds(ops, seconds, rounds=None, tracer=None, cold=None):
    """Whole rounds until ``seconds`` of loop time have passed and at least
    MIN_OPS operations have run (or exactly ``rounds``), with the cold CLI
    runs spread evenly over that time.  Returns per-operation seconds,
    canonical texts and statuses, the number of rounds and the
    per-operation times in refs."""
    lat, texts, status, events = [], [], [], []
    host = HostSpeed()
    t0 = time.perf_counter()
    done = 0

    def busy():
        return time.perf_counter() - t0 - host.spent - (cold.spent if cold else 0.0)

    while (done < rounds) if rounds is not None else (busy() < seconds or len(lat) < MIN_OPS):
        for op in ops:
            host.tick()
            dt, text, st = execute(op, tracer)
            events.append(host.event())
            lat.append(dt)
            texts.append(text)
            status.append(st)
            if cold:
                cold.due(busy() / seconds, host)
        done += 1
    if cold:
        cold.due(1.0, host)
    host.tick(force=True)
    if cold:
        cold.refs = [host.refs(e, dt) for e, dt in zip(cold.events, cold.times)]
    return lat, texts, status, done, [host.refs(e, dt) for e, dt in zip(events, lat)]


class ColdRuns:
    """Wall time of fresh ``python -m coxtools.cli`` processes, each checked
    against its fixture's frozen output.  They run between operations,
    spread over the timed loop, so that they sample the same stretch of
    time as the warm operations rather than a few seconds after it."""

    def __init__(self, pairs):
        count = max(len(pairs), COLD_SAMPLES)
        self.todo = [pairs[i % len(pairs)] for i in range(count)]
        self.times, self.events, self.refs, self.failed, self.spent = [], [], [], 0, 0.0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def due(self, fraction, host):
        """Run the cold processes whose turn has come at this fraction of the loop."""
        from corpus import canonical
        while len(self.times) < min(len(self.todo), len(self.todo) * fraction):
            cmd, path = self.todo[len(self.times)]
            expected = canonical(json.loads(path.read_text())["expected"])
            host.tick()
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "coxtools.cli", cmd, str(path)],
                                  capture_output=True, text=True, env=self.env, cwd=ROOT,
                                  timeout=120)
            dt = time.perf_counter() - t0
            self.events.append(host.event())
            self.times.append(dt)
            self.spent += dt
            self.failed += proc.returncode != 0 or proc.stdout != expected


def setup(name, seed, work_dir):
    """Import coxtools afresh, build the workload and warm it up."""
    lib = Lib()
    module = __import__(name)
    rng = random.Random(f"{name}:{seed}")
    workload = module.build(lib, rng, work_dir)
    for op in workload.warmup:
        _, text, status = execute(op)
        if status != "ok":
            raise RuntimeError(f"warm-up operation {op.kind}/{op.band} failed: {text}")
    return lib, workload


def fresh_setup_s(name, seed):
    """Seconds from starting a fresh interpreter until it has set the
    workload up (setup_once.py prints its line after ``setup``)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "setup_once.py"), name, str(seed)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {name} in a fresh process failed ({proc.returncode})")
    return dt


def interpreter_ms(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * median(times)


def digest(texts, n):
    return hashlib.sha256("\n".join(texts[:n]).encode()).hexdigest()


def summary(times, status, cold_times, unit):
    """Throughput and latency over the operations, and the cold-process
    median, with ``times`` in ``unit`` (seconds or refs)."""
    ok = [t for t, st in zip(times, status) if st != "failed"]
    scale, name = (1e3, "ms") if unit == "s" else (1.0, unit)
    return {
        f"ops_per_{unit}": (len(ok) / sum(ok), f"1/{unit}"),
        f"latency_{name}_p50": (scale * median(times), name),
        f"latency_{name}_p90": (scale * p90(times), name),
        f"cold_{name}_p50": (scale * median(cold_times), name),
    }


def measure(args, lib, workload, setups):
    from tracing import wrapped_objects
    if wrapped_objects():
        raise RuntimeError("tracing wrappers are installed in an untraced run")
    cold = ColdRuns(workload.cold)
    lat, texts, status, rounds, refs = run_rounds(workload.ops, args.seconds, cold=cold)
    metrics = {
        "setup_s": (median(setups), "s"),
        **summary(refs, status, cold.refs, "ref"),
        "contract_ok_ratio": (status.count("ok") / len(status), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = len(status) + len(cold.times)
    failed = status.count("failed") + cold.failed
    wall = {k: round(v, 4) for k, (v, _) in summary(lat, status, cold.times, "s").items()}
    info = dict(rounds=rounds, ops=len(status), cold=len(cold.times),
                breaches=status.count("breach"), wall=wall, digest=digest(texts, len(workload.ops)))
    return attempted, failed, True, metrics, info


def measure_traced(args, lib, workload, setups):
    from tracing import Tracer, wrapped_objects
    if wrapped_objects():
        raise RuntimeError("tracing wrappers are installed in an untraced run")
    cold = ColdRuns(workload.cold)
    lat0, texts0, status0, rounds, _ = run_rounds(workload.ops, args.seconds / 2, cold=cold)
    tracer = Tracer()
    tracer.install(lib)
    try:
        lat1, texts1, status1, _, _ = run_rounds(workload.ops, 0, rounds=rounds, tracer=tracer)
    finally:
        tracer.restore()
    leftover = wrapped_objects()
    same = texts0 == texts1
    interp = interpreter_ms("pass")
    import_ms = interpreter_ms("import coxtools.cli") - interp
    metrics = tracer.metrics(sum(lat1), rounds)
    probe_status = [st for i, st in enumerate(status1) if workload.ops[i % len(workload.ops)].probe]
    malformed = probe_status.count("breach")
    metrics.update({
        "cli.interp_ms": (interp, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.import_share_of_cold": (import_ms / (1e3 * median(cold.times)), "ratio"),
        "cli.malformed_breaches": (malformed / rounds, "count/round"),
        "cli.malformed_breach_ratio": (malformed / len(probe_status) if probe_status else 0.0,
                                       "ratio"),
        "contract.breaches": (status1.count("breach") / rounds, "count/round"),
        "trace.overhead_ratio": (sum(lat1) / sum(lat0), "ratio"),
    })
    attempted = len(status0) + len(status1) + len(cold.times)
    failed = status0.count("failed") + status1.count("failed") + cold.failed
    info = dict(rounds=rounds, ops=len(status1), identical_outputs=same,
                leftover_wrappers=leftover, digest=digest(texts1, len(workload.ops)))
    return attempted, failed, same and not leftover, metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coxtools").is_dir() or not FIXTURES.is_dir():
        print(f"no coxtools sources under {SRC} or no fixtures under {FIXTURES}", file=sys.stderr)
        return 2

    work_dir = WORK / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [fresh_setup_s(args.workload, args.seed) for _ in range(SETUPS)]
        lib, workload = setup(args.workload, args.seed, work_dir)
        run = measure_traced if args.trace else measure
        attempted, failed, correct, metrics, info = run(args, lib, workload, setups)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
