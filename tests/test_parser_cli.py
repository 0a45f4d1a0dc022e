"""The expression DSL, canonical printing, and the command-line interface."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, strategies as st

import stci
from stci.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    REPORT_SCHEMA,
    main,
)
from stci.core import MAX_EXPONENT, RingContext
from stci.parser import (
    BracketPower,
    EvaluationError,
    Intersection,
    Literal,
    ParseError,
    Power,
    Product,
    Sum,
    evaluate,
    evaluate_program,
    format_program,
    parse,
    parse_monomial,
)


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# parsing


def test_parse_triangle_program():
    ideal = evaluate_program("ring x,y,z; (x,y) & (y,z) & (x,z)")
    assert ideal.generator_strings() == ["x*y", "x*z", "y*z"]


def test_parse_bracket_power():
    ideal = evaluate_program("ring x,y; (x*y)^[2]")
    assert ideal.generator_strings() == ["x^2*y^2"]


def test_parse_error_unclosed_generator_list():
    with pytest.raises(ParseError) as exc:
        parse("ring x; (x")
    assert exc.value.line == 1 and exc.value.column == 11


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("ring x,y; (x,z)")
    assert "undeclared variable 'z'" in str(exc.value)
    assert exc.value.column == 14
    with pytest.raises(ParseError, match="malformed power"):
        parse("ring x; (x)^")
    with pytest.raises(ParseError, match="empty generator list"):
        parse("ring x; ()")
    with pytest.raises(ParseError, match="positive"):
        parse("ring x; (x)^0")
    with pytest.raises(ParseError, match="ring declaration"):
        parse("(x,y)")
    with pytest.raises(ParseError, match="trailing"):
        parse("ring x; (x) (x)")
    with pytest.raises(ParseError, match="distinct"):
        parse("ring x,x; (x)")


def test_precedence_product_sum_left_associative():
    # a + b * c parses as (a + b) * c at one precedence level
    ideal = evaluate_program("ring x,y,z; (x) + (y) * (z)")
    expected = evaluate_program("ring x,y,z; [(x) + (y)] * (z)")
    assert ideal == expected
    # intersection binds loosest
    ideal = evaluate_program("ring x,y,z; (x) + (y) & (z)")
    expected = (
        evaluate_program("ring x,y,z; (x) + (y)")
        & evaluate_program("ring x,y,z; (z)")
    )
    assert ideal == expected


def test_power_suffix_binds_tightest():
    ideal = evaluate_program("ring x,y; (x) + (y)^2")
    expected = evaluate_program("ring x,y; (x) + [(y)^2]")
    assert ideal == expected


def test_symbolic_power_through_dsl():
    ideal = evaluate_program("ring x,y,z; [(x,y) & (y,z) & (x,z)]^(2)")
    assert parse_monomial(RingContext(("x", "y", "z")), "x*y*z").exponents in {
        g.exponents for g in ideal.generators
    }
    prime_cube = evaluate_program("ring x,y; (x,y)^(3)")
    assert prime_cube == evaluate_program("ring x,y; (x,y)^3")


def test_symbolic_power_requires_squarefree():
    with pytest.raises(EvaluationError, match="squarefree"):
        evaluate_program("ring x,y; (x^2,x*y)^(2)")


def test_unit_monomial_via_zero_exponent():
    ideal = evaluate_program("ring x,y; (x^0)")
    assert ideal.is_unit


def test_parse_monomial_helper():
    ctx = RingContext(("x", "y"))
    assert parse_monomial(ctx, "x^2*y").exponents == (2, 1)
    with pytest.raises(ParseError):
        parse_monomial(ctx, "x^2 y")


# ---------------------------------------------------------------------------
# canonical printing


FIXED_POINT_PROGRAMS = [
    "ring x,y,z; (x,y) & (y,z) & (x,z)",
    "ring x, y; (x*y)^[2]",
    "ring x,y,z; [(x) + (y)] * (z)",
    "ring x,y; (x) + (y) * (x*y, y^2)",
    "ring x,y; [(x,y)^2]^[3]",
    "ring a, b, c; (a^2*b, c) & [(a) + (b^3)]",
    "ring x; (x^0)",
]


@pytest.mark.parametrize("text", FIXED_POINT_PROGRAMS)
def test_print_parse_print_fixed_point(text):
    ctx, node = parse(text)
    printed = format_program(ctx, node)
    ctx2, node2 = parse(printed)
    assert format_program(ctx2, node2) == printed
    # canonicalization preserves the evaluated ideal
    assert evaluate(ctx, node) == evaluate(ctx2, node2)


def expression_strategy(nvars=2, depth=3):
    rows = st.lists(
        st.tuples(*[st.integers(0, 2)] * nvars).filter(any),
        min_size=1, max_size=2,
    ).map(lambda r: Literal(tuple(r)))
    if depth == 0:
        return rows
    sub = expression_strategy(nvars, depth - 1)
    return st.one_of(
        rows,
        st.builds(Sum, sub, sub),
        st.builds(Product, sub, sub),
        st.builds(Intersection, sub, sub),
        st.builds(Power, sub, st.integers(1, 2)),
        st.builds(BracketPower, sub, st.integers(1, 2)),
    )


@given(expression_strategy())
def test_printer_round_trips_random_trees(node):
    ctx = RingContext(("x", "y"))
    printed = format_program(ctx, node)
    ctx2, node2 = parse(printed)
    assert format_program(ctx2, node2) == printed
    assert evaluate(ctx, node) == evaluate(ctx2, node2)


# ---------------------------------------------------------------------------
# CLI


TWO_PLANES = "ring x1,x2,x3,x4; (x1,x2) & (x3,x4)"


def test_cli_report_json_two_planes():
    code, out, _ = run_cli(["report", "--json", TWO_PLANES])
    assert code == EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    inv = payload["invariants"]
    assert inv["cd"] == 3
    assert inv["analytic_spread"] == 3
    assert inv["dg"]["value"] == 0
    assert payload["ideal"]["generators"] == [
        "x1*x3", "x1*x4", "x2*x3", "x2*x4"
    ]


def test_cli_report_principal():
    code, out, _ = run_cli(["report", "--json", "ring x; (x)"])
    assert code == EXIT_OK
    inv = json.loads(out)["invariants"]
    assert inv["height"] == inv["cd"] == inv["analytic_spread"] == inv["mu"] == 1


def test_cli_report_text_output():
    code, out, _ = run_cli(["report", TWO_PLANES])
    assert code == EXIT_OK
    assert "cd" in out and "ara" in out and "flags" in out


def test_cli_report_horizon_env_and_flag(monkeypatch):
    monkeypatch.setenv("STCI_HORIZON", "2")
    code, out, _ = run_cli(["report", "--json", TWO_PLANES])
    assert json.loads(out)["invariants"]["dg"]["horizon"] == 2
    # explicit flag wins over the environment
    code, out, _ = run_cli(["report", "--json", "--horizon", "4", TWO_PLANES])
    assert json.loads(out)["invariants"]["dg"]["horizon"] == 4


def test_cli_eval_and_decompose():
    code, out, _ = run_cli(["eval", "ring x,y,z; (x,y) & (y,z)"])
    assert code == EXIT_OK
    assert out.strip() == "ring x, y, z; (x*z, y)"
    code, out, _ = run_cli(["decompose", "--json", "ring x,y; (x^2, x*y)"])
    payload = json.loads(out)
    assert payload["components"] == [["x^2", "y"], ["x"]]
    assert payload["minimal_primes"] == [["x"]]


def test_cli_parse_error_exit_code():
    code, _, err = run_cli(["report", "ring x; (x"])
    assert code == EXIT_USAGE
    assert "column 11" in err


def test_cli_semantic_error_exit_code():
    code, _, err = run_cli(["eval", "ring x,y; (x^2,x*y)^(2)"])
    assert code == EXIT_USAGE
    assert "squarefree" in err


def test_cli_resource_exit_code():
    # four convex staircases in disjoint pairs of variables, every generator
    # times x8: the compact-face walk passes the facet bound
    gens = ", ".join(
        f"x{2 * p}^{i}*x{2 * p + 1}^{(7 - i) * (8 - i) // 2}*x8"
        for p in range(4) for i in range(8)
    )
    names = ",".join(f"x{i}" for i in range(9))
    code, _, err = run_cli(["report", f"ring {names}; ({gens})"])
    assert code == EXIT_RESOURCE
    assert "resource" in err.lower()


@pytest.mark.parametrize("power", ["^(99999999999999999999)", "^99999999999999999999"])
def test_cli_huge_power_exits_within_budget(power):
    # the symbolic and the ordinary power both square (x,y) repeatedly; the
    # generator count doubles each step and trips the pair-cell bound
    src = str(Path(stci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "stci.cli", "eval", f"ring x,y; (x,y){power}"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=10,
    )
    assert done.returncode == EXIT_RESOURCE
    assert "resource" in done.stderr.lower()


def test_cli_report_on_the_9_cycle_within_budget():
    # the lcm lattice of (C9)^3 has 57435 points; building the whole Betti
    # table over it, every complex ranked in every degree, took about 15 s
    names = ",".join(f"x{i}" for i in range(9))
    gens = ", ".join(f"x{i}*x{(i + 1) % 9}" for i in range(9))
    src = str(Path(stci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "stci.cli", "report", "--json", "--horizon", "3",
         f"ring {names}; ({gens})"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=10,
    )
    assert done.returncode == EXIT_OK
    assert json.loads(done.stdout)["invariants"]["proj_dim"] == 6


def test_cli_closed_pipe_exits_1_without_traceback():
    # about 440 kB of JSON, more than a pipe buffer holds, read only in part
    src = str(Path(stci.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "stci.cli", "fuzz", "--json", "--n", "5",
         "--count", "150", "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert len(proc.stdout.read(600)) == 600
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_traced_benchmark_modules_are_loaded_by_the_cli():
    # bench/spans.py wraps sys.modules[f"stci.{m}"] for every m in MODULES,
    # so a renamed or unloaded module breaks the traced benchmark pass
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import stci.cli, stci.invariants  # noqa: F401, E401
    assert [m for m in spans.MODULES if f"stci.{m}" not in sys.modules] == []


def test_cli_exponent_bound_exit_codes():
    code, out, _ = run_cli(["eval", f"ring x; (x^{MAX_EXPONENT})"])
    assert code == EXIT_OK
    assert f"x^{MAX_EXPONENT}" in out
    for program in (
        f"ring x; (x^{MAX_EXPONENT})*(x)",
        "ring x; (x^9223372036854775807)*(x)",
        "ring x; (x^99999999999999999999)*(x)",
    ):
        code, _, err = run_cli(["eval", program])
        assert code == EXIT_RESOURCE
        assert "exceeds the bound" in err


def test_cli_usage_error():
    code, _, _ = run_cli(["report"])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["no-such-command"])
    assert code == EXIT_USAGE


def test_cli_field_flag():
    code, out, _ = run_cli(["report", "--json", "--field", "fp:5", TWO_PLANES])
    assert code == EXIT_OK
    assert json.loads(out)["ring"]["field"] == "fp:5"
    code, _, err = run_cli(["report", "--field", "fp:6", TWO_PLANES])
    assert code == EXIT_USAGE


def test_cli_report_from_file(tmp_path):
    path = tmp_path / "ideal.stci"
    path.write_text(TWO_PLANES, encoding="utf-8")
    code, out, _ = run_cli(["report", "--json", str(path)])
    assert code == EXIT_OK
    assert json.loads(out)["invariants"]["cd"] == 3


def test_cli_verify_paper():
    code, out, _ = run_cli(["verify-paper"])
    assert code == EXIT_OK
    assert "0 failures" in out
    code, out, _ = run_cli(["verify-paper", "--json"])
    payload = json.loads(out)
    assert payload["all_pass"] is True


def test_cli_fuzz_deterministic_and_seeded():
    def run(seed):
        return run_cli(["fuzz", "--json", "--n", "3", "--count", "5",
                        "--seed", seed, "--max-generators", "3"])[1]
    out = run("42")
    assert run("42") == out != run("43")
    assert json.loads(out)["all_pass"]


@pytest.mark.parametrize("command", [["report", TWO_PLANES], ["verify-paper"], ["fuzz"]])
def test_cli_jobs_flag_is_gone(command):
    code, _, err = run_cli(command + ["--jobs", "2"])
    assert code == EXIT_USAGE
    assert "--jobs" in err


def test_cli_fuzz_count_zero():
    code, out, _ = run_cli(["fuzz", "--count", "0", "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["checks"] == []
