"""The README's examples run as printed: its CLI lines, its JSON payload and
its library snippet."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from stci.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(language: str, after: str) -> str:
    """The first ``language`` code block after the heading ``after``."""
    tail = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", tail, re.DOTALL).group(1)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


CLI_LINES = [
    line for line in fenced_block("sh", "## CLI").splitlines()
    if line.startswith("stci ")
]


def test_readme_cli_block_is_found():
    assert len(CLI_LINES) == 6


@pytest.mark.parametrize(
    "line", CLI_LINES, ids=[f"{k}-{line.split()[1]}" for k, line in enumerate(CLI_LINES)]
)
def test_readme_cli_line_exits_0(line):
    code, out = run_cli(shlex.split(line, comments=True)[1:])
    assert code == EXIT_OK and out


def test_readme_json_is_the_two_planes_report():
    code, out = run_cli(["report", "--json", "ring x1,x2,x3,x4; (x1,x2) & (x3,x4)"])
    assert code == EXIT_OK
    assert json.loads(fenced_block("json", "## CLI")) == json.loads(out)


def test_readme_library_snippet():
    *body, last = fenced_block("python", "## Library").strip().splitlines()
    expression, expected = last.split("#")
    namespace: dict = {}
    exec("\n".join(body), namespace)
    assert eval(expression, namespace) == tuple(int(v) for v in expected.split(","))
