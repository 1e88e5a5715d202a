"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

A tiny run of every workload, plain and traced, must print exactly the
metrics BENCHMARK.json names, with their units, and pass the output checks;
and each output check must reject a corrupted output.  Exits 1 on the first
failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run
from workloads import WORKLOADS, CheckFailed


def expect(cond, what):
    if not cond:
        raise SystemExit("selftest FAILED: " + what)


def corrupted(lib, wl, L, out):
    """The output with one factor or invariant damaged."""
    if wl.name == "classify":
        data, factors = out
        chi = data.charpoly
        bumped = chi + lib.fieldkit.Poly.one(chi.field)
        return dataclasses.replace(data, invariants=data.invariants[:-1] + [bumped]), factors
    factors = list(out.factors)
    damaged = factors[-1] + lib.ore.OrePoly.one(L.field)
    return dataclasses.replace(out, factors=tuple(factors[:-1] + [damaged]))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"]),
           "workloads differ from BENCHMARK.json")
    for name, wl in WORKLOADS.items():
        for trace in (0, 1):
            details, result = run.run(name, 0, 0.01, trace, trace_calls=1)
            json.dumps(result)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], "%s trace %d metrics differ: %s"
                   % (name, trace, sorted(set(got) ^ set(wanted[trace]))))
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s trace %d: %r" % (name, trace, details["errors"]))
        lib = run.load_library()
        fields, _ = run.set_up(lib, wl, 0)
        L = run.make_input(lib, wl, fields, 0, 0)
        out = wl.call(lib, L, 0)
        wl.check(lib, L, out)
        try:
            wl.check(lib, L, corrupted(lib, wl, L, out))
        except CheckFailed:
            pass
        else:
            expect(False, "%s check accepted a corrupted output" % name)
        expect(run.make_input(lib, wl, fields, 0, 0) == L, "inputs do not repeat under a seed")
        print("selftest %s ok" % name, flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
