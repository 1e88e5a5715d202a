"""Pinned `pcurvature` and `decompose --no-timings` output for six inputs
(order 2-3 over GF(3), GF(5), GF(9) and GF(17); one central input, one
with a non-cyclic p-curvature), so that exact output cannot drift when the
arithmetic underneath changes.  Five more cases pin the isomorphism path
(L*, hom space, iso, propagation): three non-cyclic `decompose` inputs, one
of them an order-4 L* with a quadratic N_*, the `repr` that prints that L*,
and a three-operand `lclm`."""

import json
import os

import pytest

from oredecomp.cli import run

with open(os.path.join(os.path.dirname(__file__), "data", "golden_cli.json"),
          encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: "%s-p%s-n%s-%s" % (
    c["argv"][0], c["argv"][2], c["argv"][4], c["argv"][6][:12]))
def test_cli_output_is_pinned(case, capsys):
    assert run(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
