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
from stci.core import MAX_EXPONENT, MODULUS_BOUND, RingContext
from stci.parser import (
    BinaryOp,
    EvaluationError,
    Literal,
    ParseError,
    PowerOp,
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


@pytest.mark.parametrize("text, line, column, message", [
    ("ring x; (x) $", 1, 13, "unexpected character '$'"),
    ("(x,y)", 1, 1, "program must start with a ring declaration"),
    ("ring ; (x)", 1, 6, "expected a variable name, found ';'"),
    ("ring x, ; (x)", 1, 9, "expected a variable name, found ';'"),
    ("ring x (x)", 1, 8, "expected ';', found '('"),
    ("ring x,x; (x)", 1, 6, "variable names must be distinct"),
    ("ring x; (x) (x)", 1, 13, "unexpected trailing input '('"),
    ("ring x; [(x)", 1, 13, "expected ']', found end of input"),
    ("ring x; x", 1, 9, "expected a generator list or '[', found 'x'"),
    ("ring x; ()", 1, 9, "empty generator list"),
    ("ring x; (x", 1, 11, "expected ',' or ')', found end of input"),
    ("ring x; (x)^", 1, 13,
     "malformed power: expected a number, '[n]' or '(n)', found end of input"),
    ("ring x; (x)^y", 1, 13,
     "malformed power: expected a number, '[n]' or '(n)', found 'y'"),
    ("ring x; (x)^0", 1, 13, "power exponent must be positive"),
    ("ring x; (x)^[y]", 1, 14, "expected a number, found 'y'"),
    ("ring x; (x)^[2", 1, 15, "expected ']', found end of input"),
    ("ring x; (x)^(2]", 1, 15, "expected ')', found ']'"),
    ("ring x; (x*)", 1, 12, "expected a variable, found ')'"),
    ("ring x; (x^y)", 1, 12, "expected a number, found 'y'"),
    ("ring x,y; (x,z)", 1, 14, "undeclared variable 'z'"),
    ("ring x;\n  (y)", 2, 4, "undeclared variable 'y'"),
])
def test_parse_error_message_and_column(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"line {line}, column {column}: {message}"


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
    "ring x,y,z; [(x*y, y*z)]^(2)",
    "ring x,y; [(x*y)^(2)]^[2]",
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
    # symbolic powers need a squarefree base, so random trees leave them out
    return st.one_of(
        rows,
        *[st.builds(BinaryOp, st.just(op), sub, sub) for op in "&+*"],
        *[st.builds(PowerOp, st.just(b), sub, st.integers(1, 2)) for b in ("", "[")],
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


def test_cli_report_horizon_flag(monkeypatch):
    def horizon(argv):
        code, out, _ = run_cli(["report", "--json"] + argv + [TWO_PLANES])
        assert code == EXIT_OK
        return json.loads(out)["invariants"]["dg"]["horizon"]

    assert horizon([]) == 3
    assert horizon(["--horizon", "4"]) == 4
    # the STCI_HORIZON environment variable is no longer read
    monkeypatch.setenv("STCI_HORIZON", "2")
    assert horizon([]) == 3


# (program, generators, components, minimal primes) of ``decompose``
DECOMPOSE_CASES = [
    ("ring x,y; (x^2, x*y)", ["x^2", "x*y"], [["x^2", "y"], ["x"]], [["x"]]),
    ("ring x,y,z; (x^3*y, x*y^2*z, y^3, x^2*z^2)",
     ["x^3*y", "x^2*z^2", "x*y^2*z", "y^3"],
     [["x^3", "y^3", "z"], ["x^3", "y^2", "z^2"], ["x^2", "y^2"], ["x", "y^3"],
      ["y", "z^2"]],
     [["x", "y"], ["y", "z"]]),
    (TWO_PLANES, ["x1*x3", "x1*x4", "x2*x3", "x2*x4"],
     [["x1", "x2"], ["x3", "x4"]], [["x1", "x2"], ["x3", "x4"]]),
]


def test_cli_eval_and_decompose():
    code, out, _ = run_cli(["eval", "ring x,y,z; (x,y) & (y,z)"])
    assert code == EXIT_OK
    assert out.strip() == "ring x, y, z; (x*z, y)"
    for program, gens, components, primes in DECOMPOSE_CASES:
        variables = program[len("ring "):program.index(";")].split(",")
        code, out, _ = run_cli(["decompose", program])
        assert code == EXIT_OK
        assert out == "".join(
            [f"ring {', '.join(variables)} over rational\n",
             f"ideal ({', '.join(gens)})\n"]
            + [f"component ({', '.join(c)})\n" for c in components]
            + [f"minimal prime ({', '.join(p)})\n" for p in primes]
        )
        code, out, _ = run_cli(["decompose", "--json", program])
        assert code == EXIT_OK
        assert out == json.dumps({
            "ring": {"variables": variables, "field": "rational"},
            "ideal": {"generators": gens},
            "components": components,
            "minimal_primes": primes,
        }, indent=2) + "\n"


def nested(depth):
    return "ring x; " + "[" * depth + "(x)" + "]" * depth


def long_sum(terms):
    return "ring x; " + " + ".join(["(x)"] * terms)


@pytest.mark.parametrize("command", ["eval", "report"])
def test_cli_deep_or_long_expressions_exit_2(command):
    # the parser recurses once per bracket and evaluation once per operator
    for program in (nested(500), long_sum(1200)):
        code, out, err = run_cli([command, program])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "nested too deeply" in err
    for program in (nested(300), long_sum(500)):
        code, out, _ = run_cli([command, program])
        assert code == EXIT_OK
        assert "(x)" in out


def test_deep_expressions_raise_documented_errors():
    with pytest.raises(ParseError, match="brackets nested too deeply"):
        parse(nested(2000))
    ctx, node = parse(long_sum(3000))
    with pytest.raises(EvaluationError, match="too deeply to evaluate"):
        evaluate(ctx, node)
    with pytest.raises(EvaluationError, match="too deeply to print"):
        format_program(ctx, node)


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


def bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_benchmark_modules_are_loaded_by_the_cli():
    # bench/spans.py wraps sys.modules[f"stci.{m}"] for every m in MODULES,
    # so a renamed or unloaded module breaks the traced benchmark pass
    spans = bench_spans()
    import stci.cli, stci.invariants  # noqa: F401, E401
    assert [m for m in spans.MODULES if f"stci.{m}" not in sys.modules] == []


def test_tracer_still_wraps_the_memoized_public_functions():
    # the tracer wraps plain functions only; the memos sit behind them
    import stci.cli, stci.decomposition, stci.invariants  # noqa: F401, E401

    traced = ["decomposition.minimal_primes", "invariants.analytic_spread",
              "invariants.schmitt_vogel_upper", "invariants.proj_dim",
              "invariants.min_depth_powers", "core.MonomialIdeal.radical"]
    tracer = bench_spans().Tracer()
    tracer.install()
    try:
        assert run_cli(["report", TWO_PLANES])[0] == EXIT_OK
    finally:
        tracer.uninstall()
    recorded = {tracer.names[k] for k in tracer.name}
    assert [name for name in traced if name not in recorded] == []


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


def test_cli_field_modulus_bound():
    # 2^31 - 1 is the largest prime below the bound; the prime 2^61 - 1 took
    # trial division past 30 s before the bound was checked first
    code, out, _ = run_cli(["report", "--json", "--field", "fp:2147483647", TWO_PLANES])
    assert code == EXIT_OK
    assert json.loads(out)["ring"]["field"] == "fp:2147483647"
    src = str(Path(stci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "stci.cli", "report", "--field",
         "fp:2305843009213693951", "ring x; (x)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=10,
    )
    assert done.returncode == EXIT_USAGE
    assert done.stderr == (
        f"error: field modulus must be a prime below {MODULUS_BOUND}, "
        "got 2305843009213693951\n"
    )


@pytest.mark.skipif(not os.path.isfile("/proc/self/mem"),
                    reason="needs a file whose read fails")
def test_cli_unreadable_program_file_exits_2():
    # reading /proc/self/mem from offset 0 fails with EIO
    code, out, err = run_cli(["eval", "/proc/self/mem"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: cannot read /proc/self/mem: Input/output error\n"


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


@pytest.mark.parametrize("argv, code", [
    (["--n", "1", "--squarefree"], EXIT_USAGE),
    (["--n", "25", "--squarefree", "--count", "1"], EXIT_RESOURCE),
    (["--count", "-1"], EXIT_USAGE),
])
def test_cli_fuzz_rejects_hopeless_specs_at_once(argv, code):
    # one variable never yielded a squarefree ideal (a loop without end), and
    # past the Stanley-Reisner bound generation enumerated 2^n subsets first
    src = str(Path(stci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "stci.cli", "fuzz"] + argv,
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=5,
    )
    assert done.returncode == code
    assert "Traceback" not in done.stderr


def test_cli_fuzz_count_zero():
    code, out, _ = run_cli(["fuzz", "--count", "0", "--json"])
    assert code == EXIT_OK
    assert json.loads(out)["checks"] == []
