"""The expression DSL, canonical printing, and the command-line interface."""

import contextlib
import copy
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
    _dumps,
    main,
)
from stci.core import MAX_EXPONENT, MODULUS_BOUND, RingContext
from stci.parser import (
    BRACKET_DEPTH_BOUND,
    EvaluationError,
    ParseError,
    _Token,
    _tokenize,
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
    # a digit that is not a decimal digit is no number
    ("ring x; (x^²)", 1, 12, "unexpected character '²'"),
    ("ring x; (x)^²", 1, 13, "unexpected character '²'"),
    # but '²' is alphanumeric, so it continues an identifier
    ("ring x; (x²)", 1, 10, "undeclared variable 'x²'"),
    ("ring x; (x^½)", 1, 12, "unexpected character '½'"),
    ("½", 1, 1, "unexpected character '½'"),
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


def test_tokens_of_digits_outside_ascii():
    # '²' is alphanumeric but no decimal digit, so it continues an
    # identifier; the Arabic-Indic '٣' is a decimal digit, so a number
    assert _tokenize("x² ٣") == [
        _Token("ident", "x²", 1, 1), _Token("nat", "٣", 1, 4), _Token("eof", "", 1, 5)]
    assert evaluate_program("ring x; (x^٣)") == evaluate_program("ring x; (x^3)")
    assert str(evaluate_program("ring x²; (x²)^٣")) == "(x²^3)"


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


# program -> its canonical text
FIXED_POINT_PROGRAMS = {
    "ring x,y,z; (x,y) & (y,z) & (x,z)": "ring x, y, z; (x, y) & (y, z) & (x, z)",
    "ring x, y; (x*y)^[2]": "ring x, y; (x*y)^[2]",
    "ring x,y,z; [(x) + (y)] * (z)": "ring x, y, z; (x) + (y) * (z)",
    "ring x,y; (x) + (y) * (x*y, y^2)": "ring x, y; (x) + (y) * (x*y, y^2)",
    "ring x,y; [(x,y)^2]^[3]": "ring x, y; [(x, y)^2]^[3]",
    "ring a, b, c; (a^2*b, c) & [(a) + (b^3)]": "ring a, b, c; (a^2*b, c) & (a) + (b^3)",
    "ring x; (x^0)": "ring x; (x^0)",
    "ring x,y,z; [(x*y, y*z)]^(2)": "ring x, y, z; (x*y, y*z)^(2)",
    "ring x,y; [(x*y)^(2)]^[2]": "ring x, y; [(x*y)^(2)]^[2]",
}


@pytest.mark.parametrize("text", FIXED_POINT_PROGRAMS)
def test_print_parse_print_fixed_point(text):
    canonical = FIXED_POINT_PROGRAMS[text]
    ctx, steps = parse(text)
    assert format_program(ctx, steps) == canonical
    ctx2, steps2 = parse(canonical)
    assert format_program(ctx2, steps2) == canonical
    # canonicalization preserves the evaluated ideal
    assert evaluate(ctx, steps) == evaluate(ctx2, steps2)


def test_format_program_prints_exponents_past_the_monomial_bound():
    # printing reads the parsed rows and builds no Monomial
    text = f"ring x; (x^{MAX_EXPONENT + 1})"
    assert format_program(*parse(text)) == text


def program_strategy(nvars=2, depth=3):
    """Postfix programs of expressions up to ``depth`` operators deep."""
    rows = st.lists(
        st.tuples(*[st.integers(0, 2)] * nvars).filter(any),
        min_size=1, max_size=2,
    ).map(lambda r: (tuple(r),))
    if depth == 0:
        return rows
    sub = program_strategy(nvars, depth - 1)
    # symbolic powers need a squarefree base, so random programs leave them out
    return st.one_of(
        rows,
        *[st.builds(lambda l, r, op=op: l + r + (op,), sub, sub) for op in "&+*"],
        *[st.builds(lambda base, e, b=b: base + ((b, e),), sub, st.integers(1, 2))
          for b in ("", "[")],
    )


@given(program_strategy())
def test_printer_round_trips_random_trees(steps):
    ctx = RingContext(("x", "y"))
    printed = format_program(ctx, steps)
    ctx2, steps2 = parse(printed)
    assert format_program(ctx2, steps2) == printed
    assert evaluate(ctx, steps) == evaluate(ctx2, steps2)


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


def test_cli_report_past_int64_facet_products():
    # a facet normal of (2147483647, 4611686003395002389, 2147483644) times
    # an exponent of 2^31 - 1 passes int64, so the facet and weight checks
    # multiply Python ints; the values are those of one dot product per point
    program = ("ring x,y,z; (x^2147483647, x*y^2147483646, y*z^5, "
               "z^2147483647*x^3)")
    code, out, _ = run_cli(["report", "--json", "--horizon", "1", program])
    assert code == EXIT_OK
    inv = json.loads(out)["invariants"]
    assert (inv["analytic_spread"], inv["ara"]["upper"]) == (3, 3)


REPORT_TEXT = {
    (TWO_PLANES,): """\
ring x1, x2, x3, x4 over rational
ideal (x1*x3, x1*x4, x2*x3, x2*x4)
mu                 4
height             2
dim_quotient       2
depth              1
proj_dim           3
cd                 3
fgrade             1
analytic_spread    3
ara                [3, 3] certified
dg                 0 (horizon 3, uncertified)
min_depth_powers   1 (horizon 3, uncertified)
flags              squarefree=true cohen_macaulay=false cohomologically_ci=false \
stci_certified=false
""",
    ("--field", "fp:3", "--horizon", "2", "ring x,y,z; (x,y) & (y,z) & (x,z)"): """\
ring x, y, z over fp:3
ideal (x*y, x*z, y*z)
mu                 3
height             2
dim_quotient       1
depth              1
proj_dim           2
cd                 2
fgrade             1
analytic_spread    3
ara                [2, 2] certified
dg                 1 (horizon 2, uncertified)
min_depth_powers   0 (horizon 2, uncertified)
flags              squarefree=true cohen_macaulay=true cohomologically_ci=true \
stci_certified=true
""",
    # the radical is (y), but no Schmitt-Vogel partition has a single level
    ("ring x,y; (x^3*y, y^3)",): """\
ring x, y over rational
ideal (x^3*y, y^3)
mu                 2
height             1
dim_quotient       1
depth              0
proj_dim           2
cd                 1
fgrade             1
analytic_spread    2
ara                [1, 2] interval
dg                 1 (horizon 3, uncertified)
min_depth_powers   0 (horizon 3, uncertified)
flags              squarefree=false cohen_macaulay=false cohomologically_ci=true \
stci_certified=false
""",
}


def test_cli_report_text_output():
    for argv, text in REPORT_TEXT.items():
        assert run_cli(["report", *argv]) == (EXIT_OK, text, "")


def test_report_schema_rejects_a_missing_or_unknown_key():
    code, out, _ = run_cli(["report", "--json", TWO_PLANES])
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)

    def objects(value, path=()):
        """The path of every object in ``value``, the root first."""
        if isinstance(value, dict):
            yield path
            for key, item in value.items():
                yield from objects(item, path + (key,))

    def invalid(edit):
        broken = copy.deepcopy(payload)
        edit(broken)
        return not jsonschema.Draft202012Validator(REPORT_SCHEMA).is_valid(broken)

    def at(tree, path):
        for key in path:
            tree = tree[key]
        return tree

    paths = list(objects(payload))
    assert len(paths) == 8
    for path in paths:
        for key in at(payload, path):
            assert invalid(lambda p: at(p, path).pop(key)), (path, key)
        assert invalid(lambda p: at(p, path).update(unknown=0)), path
    assert invalid(lambda p: p["invariants"]["dg"].update(certified=True))


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
    # the parser recurses once per bracket; operator chains cost no frames
    code, out, err = run_cli([command, nested(500)])
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "nested too deeply" in err
    for program in (nested(300), long_sum(500), long_sum(1200)):
        code, out, _ = run_cli([command, program])
        assert code == EXIT_OK
        assert "(x)" in out


def below(frames, call):
    """``call()`` run ``frames`` Python frames below the caller."""
    return call() if frames == 0 else below(frames - 1, call)


@pytest.mark.parametrize("frames", [0, 200])
@pytest.mark.parametrize("opening", ["[", "[(x) & ", "[(x) * (x) + "])
def test_bracket_bound_does_not_depend_on_the_callers_stack(opening, frames):
    # operators between the brackets must cost the parser no frames of their
    # own, or how deep a parse may go depends on the caller's stack
    def program(depth):
        return "ring x; " + opening * depth + "(x)" + "]" * depth

    code, out, _ = below(
        frames, lambda: run_cli(["report", program(BRACKET_DEPTH_BOUND)]))
    assert code == EXIT_OK and out.startswith("ring x over rational\n")
    code, out, err = below(
        frames, lambda: run_cli(["report", program(BRACKET_DEPTH_BOUND + 1)]))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"brackets nested too deeply (more than {BRACKET_DEPTH_BOUND})" in err


def test_deep_expressions_raise_documented_errors():
    with pytest.raises(ParseError, match="brackets nested too deeply"):
        parse(nested(2000))
    ctx, steps = parse(long_sum(3000))
    assert evaluate(ctx, steps) == evaluate_program("ring x; (x)")
    assert format_program(ctx, steps) == "ring x; " + " + ".join(["(x)"] * 3000)


def test_long_chain_does_not_depend_on_the_callers_stack():
    # evaluation and printing run the postfix steps in a loop, so an operator
    # chain costs no frames, however long
    program = long_sum(5000)
    expected = (EXIT_OK, json.dumps({
        "ring": {"variables": ["x"], "field": "rational"},
        "ideal": {"generators": ["x"]},
        "canonical": program,
    }, indent=2) + "\n", "")
    for frames in (0, 200):
        assert below(frames, lambda: run_cli(["eval", "--json", program])) == expected


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


def test_cli_out_of_memory_exits_3_without_traceback(monkeypatch):
    # fuzz --n 99999 runs out of memory growing irreducible components
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(stci.cli, "fuzz", exhausted)
    code, out, err = run_cli(["fuzz", "--n", "99999", "--count", "1"])
    assert code == EXIT_RESOURCE
    assert err == "resource limit: out of memory\n"
    assert "Traceback" not in out + err


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


def test_cli_report_on_the_readme_product_exits_within_budget():
    # mu 1225: the split gives pd at once, but the greedy Schmitt-Vogel
    # search grows as mu^3 and ran past 60 s; it now stops at its bound
    src = str(Path(stci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "stci.cli", "report", "--json", "--horizon", "1",
         "ring x1,x2,x3,x4,x5,x6,x7,x8; [(x1,x2,x3,x4)*(x5,x6,x7,x8)]^4"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=10,
    )
    assert done.returncode == EXIT_RESOURCE
    assert "greedy Schmitt-Vogel" in done.stderr
    assert "Traceback" not in done.stderr


def fuzz_one_draw(n):
    """``stci fuzz --n n --count 1`` in a fresh interpreter, stopped after 10 s."""
    src = str(Path(stci.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "stci.cli", "fuzz", "--n", str(n), "--count", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=10,
    )


def test_cli_fuzz_n12_within_budget():
    # the seed-0 draw's cube goes to the pd walk through the dg check; its
    # 437 rational ranks took about 9.5 s of exact elimination when no rank
    # was certified over F_2 first
    done = fuzz_one_draw(12)
    assert done.returncode == EXIT_OK, done.stderr


def test_cli_fuzz_n20_within_budget():
    # the seed-0 draw's cube, 20 generators in 20 variables, goes to the pd
    # walk through the dg check; its upper-Koszul complexes have a handful
    # of facets on many variables, and the walk ran past 60 s before it
    # ranked their nerves
    done = fuzz_one_draw(20)
    assert done.returncode == EXIT_OK, done.stderr


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
        # refused before its rows reach int64 arrays
        "ring x,y; (x^2, y^3)^[99999999999999999999]",
    ):
        code, _, err = run_cli(["eval", program])
        assert code == EXIT_RESOURCE
        assert "exceeds the bound" in err and "Traceback" not in err
    # the minimal rows of a product are checked once, with the monomial's words
    code, _, err = run_cli(["eval", f"ring x; (x^{MAX_EXPONENT})^2"])
    assert code == EXIT_RESOURCE
    assert f"exponent 4294967294 exceeds the bound {MAX_EXPONENT}" in err


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


def test_cli_verify_paper_at_horizon_1_has_no_horizon_failure():
    # the triangle's depth reaches 0 only at its square, beyond horizon 1
    code, out, _ = run_cli(["verify-paper", "--json", "--horizon", "1"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_pass"] is True
    verdicts = {c["name"]: c["verdict"] for c in payload["checks"]}
    assert verdicts["triangle-dg"] == "not-applicable"


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


JSON_SCALARS = (st.none() | st.booleans()
                | st.integers(-(1 << 80), 1 << 80) | st.text())
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


@given(JSON_PAYLOADS)
def test_dumps_is_json_dumps_with_indent_2(payload):
    # nested empties, non-ASCII and control characters, bools, ints past
    # 64 bits and tuples, byte for byte
    assert _dumps(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("bad", [1.5, float("nan"), {"a": [0.0]}, {1: 2},
                                 (None, {"k": b"bytes"}), {"s": {1, 2}}])
def test_dumps_raises_on_other_types(bad):
    with pytest.raises(TypeError):
        _dumps(bad)
