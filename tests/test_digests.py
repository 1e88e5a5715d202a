"""Exact output on the benchmark workloads: the seed-0 outputs of every
workload in perfbench/workloads.py, digested the way perfbench/run.py digests
them, must equal the ones stored in perfbench/digests.json.  Both files are
only read."""

import importlib
import json
import os
import sys
from types import SimpleNamespace

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SEED = 0
CALLS = 8

with open(run.DIGESTS, encoding="utf-8") as fh:
    STORED = json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed0_outputs_match_stored_digests(name):
    # the already-imported library, not run.load_library(), which re-imports
    # oredecomp and would leave other tests holding stale classes
    lib = SimpleNamespace(**{m: importlib.import_module("oredecomp." + m)
                             for m in run.LIB_MODULES})
    wl = WORKLOADS[name]
    fields, _ = run.set_up(lib, wl, SEED)
    got = []
    for index in range(CALLS):
        L = run.make_input(lib, wl, fields, SEED, index)
        try:
            result = wl.call(lib, L, index)
        except Exception as exc:  # stored as "error:<class>"
            got.append("error:" + type(exc).__name__)
            continue
        wl.check(lib, L, result)
        got.append(digest(wl.serialize(lib, L, result)))
    assert got == STORED[name][str(SEED)][:CALLS]
