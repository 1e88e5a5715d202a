"""Write digests.json: for every workload and each seed in SEEDS, the digest
of the serialized output of the first CALLS calls, as the checked-out
library computes them.  ``run.py`` compares its outputs with these and
reports how many differ.  Run from the root of a checkout:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json

import run
from workloads import WORKLOADS, digest

SEEDS = range(0, 11)
CALLS = 8


def main():
    lib = run.load_library()
    limit = run.CallLimit(run.CALL_LIMIT_S)
    out = {}
    for name, wl in WORKLOADS.items():
        fields, _ = run.set_up(lib, wl, 0)
        out[name] = {}
        for seed in SEEDS:
            digests = []
            for index in range(CALLS):
                L = run.make_input(lib, wl, fields, seed, index)
                _, result, err = run.call_once(lib, wl, L, index, limit)
                if err is not None:  # recorded, so a later fix shows as a change
                    digests.append("error:" + err)
                    continue
                wl.check(lib, L, result)
                digests.append(digest(wl.serialize(lib, L, result)))
            out[name][str(seed)] = digests
            print(name, seed, flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
