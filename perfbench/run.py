"""The oredecomp benchmark: one closed-loop caller on one thread in one
process, calling the library's public functions on generated operators.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload split --seed 1 --seconds 40 --trace 0

``--trace 0`` calls the workload's function on a fresh operator after the
previous call returns, until ``--seconds`` have passed, with nothing in the
library patched, and prints the end-to-end metrics.  ``--trace 1`` takes a
fixed set of calls (the workload's ``trace_calls``, sized to run about as
long), makes each once plain and once under the layer tracer, and prints the
per-layer metrics and the tracing overhead; its counts repeat exactly.

Every output is checked by the benchmark itself (``workloads.py``) and its
digest is compared with ``digests.json`` where that file has one for the
same workload, seed and call.  The last line of standard output is the
result; the line before it holds the run metadata, the tail percentile, the
error classes and the digest comparison.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from types import SimpleNamespace

from tracer import OP_SPAN, SPAN_NAMES, Tracer
from workloads import WORKLOADS, CheckFailed, digest, input_rng

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
LIB_MODULES = ("fieldkit", "ore", "pcurv", "decomp", "serialize")
SETUP_REPS = 5        # set-up is repeated and its median reported
PREBUILT = 8          # inputs built during set-up; later ones between calls
CALL_LIMIT_S = 10.0   # a call still running after this is stopped and failed
TAIL_BEYOND = 10      # op_tail_s: highest percentile with 10 samples beyond


class CallTimeout(Exception):
    """A call ran past CALL_LIMIT_S."""


def load_library():
    """Import oredecomp afresh from this checkout's src/, and only from there
    (earlier imports are dropped, so every set-up repetition pays for it)."""
    if not os.path.isfile(os.path.join(SRC, "oredecomp", "__init__.py")):
        raise SystemExit("perfbench: no library source at %s" % SRC)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [k for k in sys.modules if k == "oredecomp" or k.startswith("oredecomp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("oredecomp")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise SystemExit("perfbench: oredecomp imported from outside %s" % SRC)
    return SimpleNamespace(**{m: importlib.import_module("oredecomp." + m) for m in LIB_MODULES})


def make_input(lib, wl, fields, seed, index):
    R = fields[index % len(fields)]
    return wl.make(lib, R, input_rng(wl.name, seed, index), index)


def set_up(lib, wl, seed):
    """Fields, a warm-up call per field (fills the lazy caches of the shared
    field constants) and the first PREBUILT inputs."""
    fk = lib.fieldkit
    fields = [fk.RatFuncField(fk.fq_make(p, n)) for p, n in wl.fields]
    for R in fields:
        wl.call(lib, lib.ore.OrePoly(R, [-R.t, R.one]), 0)
    inputs = [make_input(lib, wl, fields, seed, i) for i in range(PREBUILT)]
    return fields, inputs


class CallLimit:
    """Stop a call that runs past ``seconds`` with CallTimeout (SIGALRM)."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            raise CallTimeout("call ran past %.0f s" % self.seconds)

    def __enter__(self):
        self.armed = True
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


class Outcomes:
    """Per-call wall times, error classes and the digest comparison."""

    def __init__(self, lib, wl, reference):
        self.lib, self.wl = lib, wl
        self.reference = reference
        self.times = []
        self.ok = 0
        self.ok_s = 0.0           # time spent in calls that completed
        self.errors = Counter()
        self.failures = []        # (index, error class), in call order
        self.wrong = 0            # outputs that failed the check
        self.compared = 0
        self.mismatched = 0

    def record(self, index, L, seconds, out, err):
        self.times.append(seconds)
        if err is None:
            try:
                self.wl.check(self.lib, L, out)
            except CheckFailed as e:
                err = "CheckFailed: %s" % e
                self.wrong += 1
        if err is not None:
            self.errors[err] += 1
            self.failures.append((index, err))
            return
        self.ok += 1
        self.ok_s += seconds
        if index < len(self.reference):
            self.compared += 1
            if digest(self.wl.serialize(self.lib, L, out)) != self.reference[index]:
                self.mismatched += 1

    @property
    def attempted(self):
        return len(self.times)

    @property
    def failed(self):
        return self.attempted - self.ok


def call_once(lib, wl, L, index, limit, runner=None):
    """(seconds, output, error class) of one call."""
    t0 = time.perf_counter()
    try:
        with limit:
            out = runner(wl.call, lib, L, index) if runner else wl.call(lib, L, index)
        err = None
    except Exception as e:  # a failed call is counted, never fatal
        out, err = None, type(e).__name__
    return time.perf_counter() - t0, out, err


def timed_loop(lib, wl, seed, seconds, fields, inputs, outcomes):
    limit = CallLimit(CALL_LIMIT_S)
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        L = inputs[index] if index < len(inputs) else make_input(lib, wl, fields, seed, index)
        dt, out, err = call_once(lib, wl, L, index, limit)
        outcomes.record(index, L, dt, out, err)
        index += 1
        if time.perf_counter() >= deadline:
            return


def traced_calls(lib, wl, seed, fields, outcomes):
    """Each call of the fixed set once plain and once traced, on separate
    fresh inputs; returns the tracer and the traced/plain time ratio.  A call
    stopped by its time limit is dropped from the span totals (where it was
    stopped is not repeatable) and from the ratio."""
    tracer = Tracer()
    limit = CallLimit(CALL_LIMIT_S)
    plain = traced = 0.0
    for index in range(wl.trace_calls):
        L = make_input(lib, wl, fields, seed, index)
        dt_plain, _, err_plain = call_once(lib, wl, L, index, limit)
        L = make_input(lib, wl, fields, seed, index)
        before = tracer.state()
        tracer.install()
        try:
            dt, out, err = call_once(lib, wl, L, index, limit, runner=tracer.run_op)
        finally:
            tracer.uninstall()
        if err == "CallTimeout":
            tracer.set_state(before)
        elif err_plain != "CallTimeout":
            plain += dt_plain
            traced += dt
        outcomes.record(index, L, dt, out, err)
    return tracer, traced / plain if plain else 0.0


def tail(times):
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples beyond it (the maximum when there are too few)."""
    ordered = sorted(times)
    n = len(ordered)
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def load_reference(workload, seed):
    try:
        with open(DIGESTS) as fh:
            return json.load(fh).get(workload, {}).get(str(seed), [])
    except FileNotFoundError:
        return []


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, trace_calls=None):
    """One benchmark run; returns (details, result) as JSON-ready dicts."""
    wl = WORKLOADS[workload]
    if trace_calls is not None:
        wl = dataclasses.replace(wl, trace_calls=trace_calls)
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lib = load_library()
        fields, inputs = set_up(lib, wl, seed)
        reps.append(time.perf_counter() - t0)
    setup_s = statistics.median(reps)

    outcomes = Outcomes(lib, wl, load_reference(workload, seed))
    extra = {}
    if trace:
        tracer, overhead = traced_calls(lib, wl, seed, fields, outcomes)
        metrics = {k: metric(v, u) for k, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead"] = metric(overhead, "ratio")
        metrics["bench.digest_mismatches"] = metric(outcomes.mismatched, "count")
        total = tracer.incl[OP_SPAN]
        extra["inclusive_share"] = {
            n: round(tracer.incl[n] / total, 4) for n in SPAN_NAMES if tracer.calls[n]}
    else:
        timed_loop(lib, wl, seed, seconds, fields, inputs, outcomes)
        tail_s, _, _ = tail(outcomes.times)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "op_p50_s": metric(statistics.median(outcomes.times), "s"),
            "op_tail_s": metric(tail_s, "s"),
            "ops_per_s": metric(outcomes.ok / outcomes.ok_s if outcomes.ok else 0.0, "1/s"),
            "ok_ratio": metric(outcomes.ok / outcomes.attempted, "ratio"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    _, tail_pct, samples = tail(outcomes.times)
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "commit": git_commit(),
        "setup_reps_s": reps,
        "op_tail_percentile": tail_pct,
        "op_samples": samples,
        "errors": dict(outcomes.errors),
        "failed_calls": outcomes.failures[:20],
        "failed_s": sum(outcomes.times) - outcomes.ok_s,
        "digests_compared": outcomes.compared,
        "digests_mismatched": outcomes.mismatched,
        **extra,
    }
    result = {
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    return details, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    details, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"details": details}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
