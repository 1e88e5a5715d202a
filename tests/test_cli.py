import json
import os
import random
import subprocess
import sys

import pytest

from oredecomp.cli import operator_str, parse_operator, parse_ypoly, run, spoly_str
from oredecomp.errors import DivisionByOperator, ExprSyntaxError, NoGoodSpecialization
from oredecomp.fieldkit import Poly, RatFuncField, fq_make
from oredecomp.ore import OrePoly, ore_pow

from helpers import rand_operator


def test_parse_commutation_example():
    F3 = fq_make(3)
    R = RatFuncField(F3)
    t = R.t
    assert parse_operator("D*t", F3) == OrePoly(R, [R.one, t])


def test_parse_coefficient_expression():
    F3 = fq_make(3)
    R = RatFuncField(F3)
    t = R.t
    L = parse_operator("(t^2+1)/t*D^2 + 3", F3)
    assert L == OrePoly(R, [R.from_int(3), R.zero, (t * t + R.one) / t])


def test_parse_division_by_operator_rejected():
    F3 = fq_make(3)
    with pytest.raises(DivisionByOperator):
        parse_operator("D/D", F3)


def test_parse_errors_are_positioned():
    F3 = fq_make(3)
    with pytest.raises(ExprSyntaxError) as err:
        parse_operator("D + ?", F3)
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_operator("D^t", F3)
    with pytest.raises(ExprSyntaxError):
        parse_operator("(D", F3)


def test_parse_g_symbol():
    F9 = fq_make(3, 2)
    R9 = RatFuncField(F9)
    L = parse_operator("g*D + g^2", F9)
    g = R9.from_base(F9.gen())
    assert L == OrePoly(R9, [g * g, g])
    with pytest.raises(ExprSyntaxError):
        parse_operator("g*D", fq_make(3))


def test_parse_ypoly():
    F3 = fq_make(3)
    R = RatFuncField(F3)
    t = R.t
    q = parse_ypoly("Y^2 - t*Y + 1", F3)
    assert q == Poly(R, [R.one, -t, R.one])
    # commutative: Y*t == t*Y
    assert parse_ypoly("Y*t", F3) == parse_ypoly("t*Y", F3)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2)])
def test_print_parse_round_trip(p, n):
    field = fq_make(p, n)
    R = RatFuncField(field)
    rng = random.Random(p * 10 + n)
    for _ in range(40):
        L = rand_operator(R, rng, rng.randrange(0, 4), 2, 2)
        assert parse_operator(operator_str(L), field) == L
    D = OrePoly.partial(R)
    assert parse_operator(operator_str(ore_pow(D, 3)), field) == ore_pow(D, 3)
    assert parse_operator(operator_str(OrePoly.zero(R)), field) == OrePoly.zero(R)


def test_spoly_str_never_mentions_s():
    F3 = fq_make(3)
    R = RatFuncField(F3)
    t = R.t
    P = Poly(R, [-t, R.one])  # Y - s, printed with s = t^3
    text = spoly_str(P)
    assert "s" not in text
    assert text == "Y + 2*t^3"


def test_run_decompose_json(capsys):
    code = run(["decompose", "--p", "3", "--n", "1",
                "--expr", "D^2 - D", "--no-timings"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "input", "field", "monic_input", "char_poly", "invariants",
        "invariant_roots", "factors", "iso_witness", "verified", "seed",
    }
    assert doc["verified"] is True
    assert len(doc["factors"]) == 2
    for f in doc["factors"]:
        assert set(f) == {"expr", "order", "degree", "invariant",
                          "indecomposable"}
        assert f["order"] == 1 and f["indecomposable"] is True


def test_run_pcurvature_json(capsys):
    code = run(["pcurvature", "--p", "3", "--n", "1", "--expr", "D",
                "--no-timings"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["char_poly"] == "Y"
    assert doc["invariants"] == ["Y"]
    assert doc["invariant_roots"] == ["Y"]
    assert doc["matrix"] == [["0"]]


def test_run_deterministic_output(capsys):
    args = ["decompose", "--p", "5", "--n", "1", "--seed", "3",
            "--expr", "D^2 - D", "--no-timings"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_run_exit_codes(capsys):
    assert run(["decompose", "--p", "3", "--expr", "D + ?"]) == 2
    assert json.loads(capsys.readouterr().err)["class"] == "ExprSyntaxError"
    # D^3 - t violates the separability hypothesis
    assert run(["decompose", "--p", "3", "--expr", "D^3 - t"]) == 3
    assert json.loads(capsys.readouterr().err)["class"] == "InseparableFactor"
    assert run(["apply", "--p", "3", "--expr", "D/D"]) == 2
    capsys.readouterr()


def test_run_gcrd_lclm(capsys):
    assert run(["lclm", "--p", "3", "--expr", "D", "--expr", "D - 1",
                "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "D^2 + (2)*D"
    assert run(["gcrd", "--p", "3", "--expr", "D^2 + (2)*D",
                "--expr", "D - 1", "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "D + 2"


def test_run_apply(capsys):
    assert run(["apply", "--p", "3", "--expr", "t*D + 1",
                "--expr", "1/t", "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "0"


def test_run_equivalent(capsys):
    assert run(["equivalent", "--p", "5", "--expr", "D",
                "--expr", "D + 2/t", "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equivalent"] is True
    assert run(["equivalent", "--p", "3", "--expr", "D",
                "--expr", "D - 1", "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["equivalent"] is False


def test_run_repr(capsys):
    assert run(["repr", "--p", "3", "--invariants", "Y;Y",
                "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert len(doc["factors"]) == 2
    assert doc["roundtrip_invariants"] == ["Y", "Y"]


def test_run_json_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    assert run(["pcurvature", "--p", "3", "--expr", "D", "--no-timings",
                "--json-out", str(target)]) == 0
    stdout = capsys.readouterr().out
    assert target.read_text() == stdout


def test_run_custom_modulus(capsys):
    assert run(["pcurvature", "--p", "3", "--n", "2", "--modulus", "1,0,1",
                "--expr", "g*D", "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["field"] == {"p": 3, "n": 2, "modulus": [1, 0, 1]}


def test_timings_key_present_by_default(capsys):
    assert run(["pcurvature", "--p", "3", "--expr", "D"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "timings_ms" in doc


def test_expr_dash_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("D^2 - D"))
    assert run(["decompose", "--p", "3", "--expr", "-", "--no-timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True and len(doc["factors"]) == 2


def test_bad_field_parameters_exit_2(capsys):
    assert run(["decompose", "--p", "4", "--expr", "D"]) == 2
    capsys.readouterr()
    assert run(["decompose", "--p", "3", "--n", "2", "--modulus", "0,0,1",
                "--expr", "D"]) == 2
    capsys.readouterr()


def test_json_out_write_failure_exit_2(tmp_path, capsys):
    args = ["gcrd", "--p", "3", "--expr", "D", "--expr", "D-1", "--json-out"]
    assert run(args + [str(tmp_path / "missing" / "x.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert set(doc) == {"error", "class"} and doc["class"] == "FileNotFoundError"
    # a writable path receives exactly the report printed on stdout
    target = tmp_path / "x.json"
    assert run(args + [str(target)]) == 0
    assert target.read_text(encoding="utf-8") == capsys.readouterr().out


_WRONG_OPERAND_COUNTS = [
    ("decompose", 0), ("decompose", 2),
    ("pcurvature", 0), ("pcurvature", 2),
    ("apply", 0), ("apply", 1), ("apply", 3),
    ("equivalent", 0), ("equivalent", 1), ("equivalent", 3),
    ("gcrd", 0), ("gcrd", 1),
    ("lclm", 0), ("lclm", 1),
    ("repr", 1),
]


@pytest.mark.parametrize("command,count", _WRONG_OPERAND_COUNTS)
def test_wrong_operand_count_exit_2(capsys, command, count):
    args = [command, "--p", "3", "--invariants", "Y"] + ["--expr", "D"] * count
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert set(doc) == {"error", "class"} and doc["class"] == "ExprSyntaxError"
    assert command in doc["error"]


def test_gcrd_lclm_take_more_than_two_operands(capsys):
    for command in ("gcrd", "lclm"):
        assert run([command, "--p", "3", "--expr", "D", "--expr", "D - 1",
                    "--expr", "D^2 - D", "--no-timings"]) == 0
        assert len(json.loads(capsys.readouterr().out)["inputs"]) == 3


def test_missing_operand_is_no_traceback():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-m", "oredecomp", "decompose", "--p", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert json.loads(done.stderr)["class"] == "ExprSyntaxError"


def test_parser_edge_expressions():
    F3 = fq_make(3)
    R = RatFuncField(F3)
    t = R.t
    D = OrePoly.partial(R)
    assert parse_operator("((D))^2", F3) == ore_pow(D, 2)
    assert parse_operator("2^3", F3) == OrePoly.const(R, R.from_int(8))
    assert parse_operator("D^0", F3) == OrePoly.one(R)
    assert parse_operator("t/t", F3) == OrePoly.one(R)
    assert parse_operator("1/(t^2+1)*D", F3) == OrePoly(
        R, [R.zero, R.one / (t * t + R.one)])
    # division by zero inside an expression
    from oredecomp.errors import DivisionByZero

    with pytest.raises(DivisionByZero):
        parse_operator("D/(t-t)", F3)


def _error_doc(capsys):
    return json.loads(capsys.readouterr().err)


def test_run_other_domain_errors_exit_6(monkeypatch, capsys):
    assert run(["decompose", "--p", "5", "--expr", "0"]) == 6
    assert _error_doc(capsys)["class"] == "ZeroOperator"
    assert run(["gcrd", "--p", "3", "--expr", "0", "--expr", "0"]) == 6
    assert _error_doc(capsys)["class"] == "BothZero"
    # Y - 1/t has an irreducible central symbol over GF(3)(t)
    assert run(["repr", "--p", "3", "--invariants", "Y - 1/t"]) == 6
    assert _error_doc(capsys)["class"] == "CentralIrreducibleFactor"

    def no_point(*args, **kwargs):
        raise NoGoodSpecialization("no evaluation point")

    monkeypatch.setattr("oredecomp.cli.lclm_decompose", no_point)
    assert run(["decompose", "--p", "3", "--expr", "D"]) == 6
    doc = _error_doc(capsys)
    assert doc == {"error": "no evaluation point", "class": "NoGoodSpecialization"}


def test_python_dash_m_runs():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    ok = subprocess.run(
        [sys.executable, "-m", "oredecomp", "lclm", "--p", "3", "--expr", "D",
         "--expr", "D - 1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["result"] == "D^2 + (2)*D"
    bad = subprocess.run(
        [sys.executable, "-m", "oredecomp", "decompose", "--p", "5", "--expr", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert bad.returncode == 6 and "Traceback" not in bad.stderr
    assert json.loads(bad.stderr)["class"] == "ZeroOperator"


def test_package_import_leaves_cli_unloaded():
    # the library modules load without cli; the package re-exports its two
    # parsers on first use (PEP 562)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "\n".join([
        "import importlib, sys",
        "import oredecomp",
        "for m in ('fieldkit', 'ore', 'pcurv', 'decomp', 'serialize'):",
        "    importlib.import_module('oredecomp.' + m)",
        "assert 'oredecomp.cli' not in sys.modules",
        "from oredecomp import parse_ypoly",
        "from oredecomp import cli",
        "assert oredecomp.parse_operator is cli.parse_operator",
        "assert parse_ypoly is cli.parse_ypoly",
        "try:",
        "    oredecomp.no_such_name",
        "except AttributeError:",
        "    print('ok')",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


# -- nesting depth and the installed console script ----------------------------

def test_parentheses_nest_up_to_the_bound():
    from oredecomp.cli import _MAX_NESTING

    F3 = fq_make(3)
    R = RatFuncField(F3)
    deep = "(" * _MAX_NESTING + "D" + ")" * _MAX_NESTING
    assert parse_operator(deep, F3) == OrePoly.partial(R)
    deep_y = "(" * _MAX_NESTING + "Y" + ")" * _MAX_NESTING
    assert parse_ypoly(deep_y, F3) == Poly.x(R)
    for parse, var in ((parse_operator, "D"), (parse_ypoly, "Y")):
        text = "(" * (_MAX_NESTING + 1) + var + ")" * (_MAX_NESTING + 1)
        with pytest.raises(ExprSyntaxError) as err:
            parse(text, F3)
        assert err.value.position == _MAX_NESTING


@pytest.mark.parametrize("depth", [250, 3000])
@pytest.mark.parametrize("command,flag,var,extra", [
    ("gcrd", "--expr", "D", ["--expr", "D"]),
    ("repr", "--invariants", "Y", []),
])
def test_deep_parentheses_exit_2(capsys, depth, command, flag, var, extra):
    # refused at the first "(" past the bound, before the stack runs out
    text = "(" * depth + var + ")" * depth
    assert run([command, "--p", "3", flag, text] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["class"] == "ExprSyntaxError"


def test_console_script_entry_point(monkeypatch, capsys):
    import importlib
    import re

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)
    target = re.search(r'^oredecomp\s*=\s*"([\w.]+):(\w+)"', scripts.group(1), re.M)
    module, func = target.groups()
    entry = getattr(importlib.import_module(module), func)
    monkeypatch.setattr(sys, "argv", ["oredecomp", "decompose", "--p", "3",
                                      "--expr", "D^2 - D", "--no-timings"])
    with pytest.raises(SystemExit) as done:
        entry()
    assert done.value.code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True and len(doc["factors"]) == 2


# -- stdout that cannot be written ---------------------------------------------

def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("target", ["dev_full", "closed_pipe"])
def test_stdout_write_failure_exits_2_with_json(target, unbuffered):
    if target == "dev_full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if target == "dev_full":
        out = os.open("/dev/full", os.O_WRONLY)
    else:
        out = _closed_pipe()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "oredecomp", "decompose", "--p", "3", "--n", "1",
             "--expr", "D^3 - (t^3+1)/(t^3+2)", "--no-timings"],
            stdout=out, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(out)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr
    doc = json.loads(done.stderr.strip().splitlines()[-1])
    expected = "OSError" if target == "dev_full" else "BrokenPipeError"
    assert doc["class"] == expected


# -- the size bound on powers --------------------------------------------------

@pytest.mark.parametrize("text", ["t^99999999", "D^99999", "((t^999)^999)^999"])
def test_oversized_power_exits_2_at_the_caret(capsys, text):
    import time

    start = time.perf_counter()
    assert run(["decompose", "--p", "3", "--expr", text]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["class"] == "ExprSyntaxError"
    with pytest.raises(ExprSyntaxError) as err:
        parse_operator(text, fq_make(3))
    # t^999 is fine; its 999th power is the first result over the bound
    first = text.index("^")
    caret = text.index("^", first + 1) if text.startswith("(") else first
    assert err.value.position == caret
    assert doc["error"].endswith("(at position %d)" % caret)


def test_power_bound_boundary():
    from oredecomp.cli import _MAX_POWER_DEGREE, _MAX_POWER_T_DEGREE

    assert (_MAX_POWER_DEGREE, _MAX_POWER_T_DEGREE) == (1024, 65536)
    F3 = fq_make(3)
    R = RatFuncField(F3)
    assert parse_ypoly("Y^1024", F3).degree == 1024
    assert parse_ypoly("(Y^2)^512", F3).degree == 1024
    t_max = parse_ypoly("t^65536", F3).coeff(0)
    assert t_max.num.degree == 65536 and t_max.den == Poly.one(F3)
    assert parse_ypoly("(1/t^2)^32768", F3).coeff(0) == R.one / t_max
    for text, caret in (("Y^1025", 1), ("(Y^2)^513", 5), ("t^65537", 1),
                        ("(1/t^2)^32769", 7), ("(t*Y)^1025", 5)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_ypoly(text, F3)
        assert err.value.position == caret, text


def test_oversized_product_exits_2_at_the_star(capsys):
    assert run(["decompose", "--p", "3", "--expr", "D^1024*D^1024"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["class"] == "ExprSyntaxError"
    assert doc["error"].endswith("(at position 6)")


def test_product_and_quotient_bounds():
    F3 = fq_make(3)
    for text, parse, caret in (("D^1024*D^1024", parse_operator, 6),
                               ("Y^600*Y^600", parse_ypoly, 5),
                               ("Y*Y^1024", parse_ypoly, 1),
                               ("t^40000*t^30000", parse_ypoly, 7),
                               ("Y^2*t^40000/t^30000", parse_ypoly, 11)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text, F3)
        assert err.value.position == caret, text
    assert parse_ypoly("Y^512*Y^512", F3).degree == 1024
    assert parse_ypoly("t^30000*t^35536", F3).coeff(0).num.degree == 65536
    assert parse_ypoly("t^30000/t^35536", F3).coeff(0).den.degree == 5536


def test_oversized_product_builds_no_operand(monkeypatch):
    import oredecomp.cli as cli

    calls = []
    power = cli.binary_power

    def spy(x, e, one):
        calls.append(e)
        return power(x, e, one)

    monkeypatch.setattr(cli, "binary_power", spy)
    with pytest.raises(ExprSyntaxError) as err:
        parse_operator("D^1024*D^1024", fq_make(3))
    assert err.value.position == 6
    assert calls == []
    # the estimate is read off the text: cancelling terms still count
    with pytest.raises(ExprSyntaxError) as err:
        parse_operator("(D - D)^5000", fq_make(3))
    assert err.value.position == 7
    assert calls == []
    # a sum of fractions outgrows its estimate (t-degree 3, not 1): the
    # bound holds on the built operand
    with pytest.raises(ExprSyntaxError) as err:
        parse_operator("D - (1/t + 1/(t+1) + 1/(t+2))^30000", fq_make(5))
    assert err.value.position == 29
    assert calls == []


def test_ore_product_bound(capsys, monkeypatch):
    # D^i B holds up to i derivatives of B's coefficients: the t-degree of
    # an operator product A*B is estimated as t(A) + (ord A + 1) t(B)
    import time

    import oredecomp.cli as cli

    start = time.perf_counter()
    assert run(["decompose", "--p", "3", "--expr", "D^1024*(1/(t^64+1))"]) == 2
    assert time.perf_counter() - start < 1.0
    doc = json.loads(capsys.readouterr().err)
    assert doc["class"] == "ExprSyntaxError"
    assert doc["error"].startswith("product too large")
    assert doc["error"].endswith("(at position 6)")
    calls = []
    power = cli.binary_power
    monkeypatch.setattr(cli, "binary_power",
                        lambda x, e, one: calls.append(e) or power(x, e, one))
    with pytest.raises(ExprSyntaxError) as err:
        parse_operator("D^1024*(1/(t^64+1))", fq_make(3))
    assert err.value.position == 6 and calls == []
    # the built operand counts too: this sum of fractions estimates t-degree
    # 300 but has 900, and 101 * 900 exceeds the bound
    with pytest.raises(ExprSyntaxError) as err:
        parse_operator("D^100*(1/t + 1/(t+1) + 1/(t+2))^300", fq_make(5))
    assert err.value.position == 5 and calls == [100, 300]
    F101 = fq_make(101)
    L = parse_operator("D^8*(1/(t^3+t+1))", F101)
    assert L.order == 8
    assert max(c.den.degree for c in L.coeffs) == 27
    assert parse_operator("(1/(t^64+1))*D^8", fq_make(3)).order == 8
    # polynomials in Y commute: their products keep the plain sum
    assert parse_ypoly("Y^1024*(1/(t^64+1))", fq_make(3)).degree == 1024


def test_ore_product_bound_counts_only_denominators_twice(capsys, monkeypatch):
    # derivatives of a polynomial coefficient lose degree: an operator
    # product A*B is sized t(A) + t(B) + ord A * tden(B), so polynomial right
    # factors keep the plain sum and fractions still grow with ord A
    import oredecomp.cli as cli

    F3 = fq_make(3)
    assert run(["decompose", "--p", "3", "--expr", "D*t^40000", "--no-verify"]) == 0
    capsys.readouterr()
    L = parse_operator("D*t^40000", F3)
    assert L.order == 1 and L.coeffs[1].num.degree == 40000
    assert parse_operator("D^2*t^30000", F3).order == 2
    assert run(["decompose", "--p", "3", "--expr", "D^1024*(1/(t^64+1))"]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["class"] == "ExprSyntaxError"
    assert doc["error"].startswith("product too large")
    assert doc["error"].endswith("(at position 6)")
    L = parse_operator("D^8*(1/(t^3+t+1))", fq_make(101))
    assert L.order == 8 and max(c.den.degree for c in L.coeffs) == 27
    # the text's pass carries the denominator degree through a power and a
    # quotient, and refuses before anything is built
    calls = []
    power = cli.binary_power
    monkeypatch.setattr(cli, "binary_power",
                        lambda x, e, one: calls.append(e) or power(x, e, one))
    for text, pos in (("D^2*(1/(t^3+1))^20000", 3), ("D^3*(t/(t^2+1))^10000", 3)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_operator(text, F3)
        assert err.value.position == pos and calls == []
