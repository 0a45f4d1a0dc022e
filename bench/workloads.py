"""Seeded workloads for the stci benchmark and the checks on their outputs.

Each workload turns a seed into a list of ``Call`` objects: the argv of one
``stci`` CLI call plus what the benchmark expects of its output.  The
program sees only the generated argv, DSL text included.  The expected
values are computed here, independently of the package, so a wrong answer
from the program is caught rather than trusted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations

# Every workload runs a fixed set of inputs; the seed sets the order of the
# calls and of the generators in each DSL text.  On the stci code this
# benchmark was written against, the cost of one input moves by 25% or more
# between random draws, and by 10-30% when its variables are relabelled,
# while a run has room for only a few dozen calls.  With inputs drawn from
# the seed, the per-call percentiles of two seeds differed by more than the
# bounds in BENCHMARK.json; with fixed inputs they differ by a few percent.

# The 15 graphs with six vertices, six edges and no isolated vertex, up to
# isomorphism, one representative each as edges "ab" between vertices a, b.
# Shape i runs once, over POWERS_FIELDS[i % 2]: the two fields cost the same
# within a few percent, and one pass of 15 calls lets three passes fit in a
# run.  Graphs with an isolated vertex are the cheap ones: with them, the
# median call fell in the gap between cheap and expensive calls.
GRAPH_SHAPES = (
    "01 02 03 04 05 12", "01 02 03 04 12 15", "01 02 03 04 12 35",
    "01 02 03 04 15 25", "01 02 03 12 13 45", "01 02 03 12 14 25",
    "01 02 03 12 14 35", "01 02 03 12 34 35", "01 02 03 12 34 45",
    "01 02 03 14 15 24", "01 02 03 14 24 35", "01 02 03 14 24 45",
    "01 02 03 14 25 45", "01 02 12 34 35 45", "01 02 13 24 35 45",
)
GRAPH_VERTICES = 6
POWERS_HORIZON = 3
POWERS_FIELDS = ("rational", "fp:32003")

# The spread family: SPREAD_PER_MU random mixed-degree ideals in five
# variables with exponents at most 4 for each mu, drawn from
# SPREAD_FAMILY_SEED.  mu stops at 10: one mu 12 ideal takes about 4 s, too
# long for the calls that stable percentiles need, while at mu 10 the subset
# enumeration and Fourier-Motzkin already take most of the time.  Five
# values of mu put the median call inside the middle group rather than
# between two groups.
SPREAD_VARIABLES = 5
SPREAD_MAX_EXPONENT = 4
SPREAD_MUS = (6, 7, 8, 9, 10)
SPREAD_PER_MU = 8
SPREAD_FAMILY_SEED = 0

# One round of the checks workload: three fuzz campaigns, then the
# reference suite; round r runs every campaign with --seed r.  Small
# campaigns give the 40 calls per pass that a tail percentile needs while a
# pass stays near 7 s.  One 6-variable squarefree campaign of six ideals
# takes 0.1 s or 2.6 s depending on its fuzz seed.
CHECK_ROUNDS = 10
CHECK_HORIZON = 3
CHECK_CAMPAIGNS = (
    ("--n", "5", "--squarefree", "--count", "12"),
    ("--n", "6", "--squarefree", "--count", "6"),
    ("--n", "4", "--max-generators", "7", "--count", "12"),
)

VERDICTS = ("pass", "fail", "uncertified", "not-applicable")


@dataclass
class Call:
    """One CLI call of a workload and what its output must satisfy."""

    argv: list[str]
    kind: str  # "report" | "fuzz" | "verify"
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent reference values


def min_transversal(supports: list[frozenset[int]], n: int) -> int:
    """Size of the smallest variable set meeting every support (the height)."""
    for size in range(n + 1):
        for chosen in combinations(range(n), size):
            s = set(chosen)
            if all(s & sup for sup in supports):
                return size
    raise ValueError("no transversal")


def graph_spread(edges: list[tuple[int, int]], n: int) -> int:
    """Analytic spread of an edge ideal: non-isolated vertices minus
    bipartite components (Villarreal)."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    colour: dict[int, int] = {}
    bipartite = 0
    for v in range(n):
        if v in colour or not adj[v]:
            continue
        colour[v] = 0
        stack, ok = [v], True
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    ok = False
        bipartite += ok
    return sum(1 for v in range(n) if adj[v]) - bipartite


def minimal_rows(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Exponent rows of the minimal generators: drop duplicates and rows
    divisible by another row."""
    uniq = set(rows)
    return sorted(
        r for r in uniq
        if not any(s != r and all(x <= y for x, y in zip(s, r)) for s in uniq)
    )


def monomial_text(names: list[str], row: tuple[int, ...]) -> str:
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, row) if e
    )


def parse_monomial(names: list[str], text: str) -> tuple[int, ...]:
    row = [0] * len(names)
    for factor in text.split("*"):
        name, _, exp = factor.partition("^")
        row[names.index(name)] += int(exp) if exp else 1
    return tuple(row)


# ---------------------------------------------------------------------------
# generators


def powers_calls(seed: int) -> list[Call]:
    """Every shape in GRAPH_SHAPES under its field, in seeded order;
    consecutive calls alternate the field."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(1, GRAPH_VERTICES + 1)]
    per_field = []
    for f in range(len(POWERS_FIELDS)):
        order = list(GRAPH_SHAPES[f::len(POWERS_FIELDS)])
        rng.shuffle(order)
        per_field.append(order)
    n_fields = len(POWERS_FIELDS)
    calls = []
    for k in range(len(GRAPH_SHAPES)):
        fld = POWERS_FIELDS[k % n_fields]
        shape = per_field[k % n_fields][k // n_fields]
        edges = [(int(e[0]), int(e[1])) for e in shape.split()]
        rows = []
        for a, b in edges:
            row = [0] * GRAPH_VERTICES
            row[a] = row[b] = 1
            rows.append(tuple(row))
        gens = [monomial_text(names, r) for r in rows]
        rng.shuffle(gens)
        text = f"ring {','.join(names)}; ({', '.join(gens)})"
        calls.append(Call(
            ["report", "--json", "--horizon", str(POWERS_HORIZON),
             "--field", fld, text],
            "report",
            {
                "names": names,
                "field": fld,
                "rows": sorted(rows),
                "mu": len(edges),
                "height": min_transversal(
                    [frozenset(e) for e in edges], GRAPH_VERTICES),
                "analytic_spread": graph_spread(edges, GRAPH_VERTICES),
                "horizon": POWERS_HORIZON,
            },
        ))
    return calls


def spread_family() -> dict[int, list[list[tuple[int, ...]]]]:
    """SPREAD_PER_MU mixed-degree minimal generating sets for each mu."""
    rng = random.Random(SPREAD_FAMILY_SEED)
    family: dict[int, list[list[tuple[int, ...]]]] = {}
    for mu in SPREAD_MUS:
        members = family.setdefault(mu, [])
        while len(members) < SPREAD_PER_MU:
            rows = [
                tuple(rng.randint(0, SPREAD_MAX_EXPONENT)
                      for _ in range(SPREAD_VARIABLES))
                for _ in range(mu)
            ]
            if not all(any(r) for r in rows):
                continue
            minimal = minimal_rows(rows)
            if len(minimal) == mu and len({sum(r) for r in minimal}) > 1:
                members.append(minimal)
    return family


def spread_calls(seed: int) -> list[Call]:
    """The spread family in seeded order; mu cycles through SPREAD_MUS."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(1, SPREAD_VARIABLES + 1)]
    family = spread_family()
    order = {mu: rng.sample(range(SPREAD_PER_MU), SPREAD_PER_MU) for mu in SPREAD_MUS}
    calls = []
    for k in range(SPREAD_PER_MU):
        for mu in SPREAD_MUS:
            rows = family[mu][order[mu][k]]
            gens = [monomial_text(names, r) for r in rows]
            rng.shuffle(gens)
            text = f"ring {','.join(names)}; ({', '.join(gens)})"
            supports = [frozenset(j for j, e in enumerate(r) if e) for r in rows]
            calls.append(Call(
                ["report", "--json", "--horizon", "1", text],
                "report",
                {
                    "names": names,
                    "field": "rational",
                    "rows": sorted(rows),
                    "mu": mu,
                    "height": min_transversal(supports, SPREAD_VARIABLES),
                    "horizon": 1,
                },
            ))
    return calls


def checks_calls(seed: int) -> list[Call]:
    """CHECK_ROUNDS rounds of three fuzz campaigns and verify-paper, in an
    order drawn from the seed."""
    calls = []
    for fuzz_seed in range(CHECK_ROUNDS):
        for campaign in CHECK_CAMPAIGNS:
            calls.append(Call(
                ["fuzz", "--json", *campaign, "--seed", str(fuzz_seed),
                 "--horizon", str(CHECK_HORIZON)],
                "fuzz",
                {"seed": fuzz_seed, "count": int(campaign[-1]),
                 "n": int(campaign[1])},
            ))
        calls.append(Call(
            ["verify-paper", "--json", "--horizon", str(CHECK_HORIZON)],
            "verify",
            {},
        ))
    random.Random(seed).shuffle(calls)
    return calls


WORKLOADS = {
    "powers": powers_calls,
    "spread": spread_calls,
    "checks": checks_calls,
}


# ---------------------------------------------------------------------------
# output checks


class OutputCheck:
    """Validates CLI outputs; ``problems`` lists what failed for one call."""

    def __init__(self, report_schema: dict):
        import jsonschema

        self._validator = jsonschema.Draft202012Validator(report_schema)

    def problems(self, call: Call, rc: int, out: str) -> list[str]:
        try:
            payload = json.loads(out)
        except ValueError:
            return [f"exit {rc}, output is not JSON"]
        check = {
            "report": self._report,
            "fuzz": self._fuzz,
            "verify": self._verify,
        }[call.kind]
        try:
            return check(call.expect, rc, payload)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            return [f"exit {rc}, malformed output: {exc!r}"]

    def _report(self, exp: dict, rc: int, p: dict) -> list[str]:
        errs = [e.message for e in self._validator.iter_errors(p)]
        if errs:
            return errs
        out = []
        if rc != 0:
            out.append(f"exit {rc}")
        if p["ring"] != {"variables": exp["names"], "field": exp["field"]}:
            out.append(f"ring {p['ring']}")
        rows = sorted(parse_monomial(exp["names"], g) for g in p["ideal"]["generators"])
        if rows != exp["rows"]:
            out.append("generators differ from the input")
        inv = p["invariants"]
        n = len(exp["names"])
        for key in ("mu", "height", "analytic_spread"):
            if key in exp and inv[key] != exp[key]:
                out.append(f"{key} {inv[key]} != {exp[key]}")
        ara = inv["ara"]
        if not inv["height"] <= inv["cd"] <= ara["upper"] <= inv["mu"]:
            out.append("height <= cd <= ara.upper <= mu fails")
        if not inv["cd"] <= inv["analytic_spread"] <= min(inv["mu"], n):
            out.append("cd <= analytic_spread <= min(mu, n) fails")
        if inv["depth"] + inv["proj_dim"] != n:
            out.append("depth + proj_dim != n")
        for key in ("dg", "min_depth_powers"):
            if inv[key]["horizon"] != exp["horizon"]:
                out.append(f"{key} horizon {inv[key]['horizon']}")
        return out

    @staticmethod
    def _verdicts(p: dict, rc: int) -> list[str]:
        out = []
        checks = p.get("checks")
        if not isinstance(checks, list) or not checks:
            return ["no checks in output"]
        verdicts = [c.get("verdict") for c in checks]
        bad = sorted({str(v) for v in verdicts if v not in VERDICTS})
        if bad:
            out.append(f"unknown verdicts {bad}")
        any_fail = "fail" in verdicts
        if p.get("all_pass") is not (not any_fail):
            out.append("all_pass disagrees with the verdicts")
        if rc != (1 if any_fail else 0):
            out.append(f"exit {rc} disagrees with the verdicts")
        if p.get("horizon") != CHECK_HORIZON:
            out.append(f"horizon {p.get('horizon')}")
        return out

    def _fuzz(self, exp: dict, rc: int, p: dict) -> list[str]:
        out = self._verdicts(p, rc)
        if out:
            return out
        if p["count"] != exp["count"] or p["spec"]["seed"] != exp["seed"]:
            out.append("spec does not echo the request")
        names = set()
        for c in p["checks"]:
            names.add(c["name"])
            w = c["witness"]
            if w.get("checker") != "chain":
                continue
            gens = w["generators"]
            supports = [frozenset(j for j, e in enumerate(g) if e) for g in gens]
            if minimal_rows([tuple(g) for g in gens]) != sorted(map(tuple, gens)):
                out.append(f"{c['name']}: generators are not minimal")
            if w["mu"] != len(gens):
                out.append(f"{c['name']}: mu {w['mu']} != {len(gens)}")
            ht = min_transversal(supports, exp["n"])
            if w["height"] != ht:
                out.append(f"{c['name']}: height {w['height']} != {ht}")
            holds = (w["height"] <= w["cd"] <= w["ara_upper"] <= w["mu"]
                     and w["cd"] <= w["analytic_spread"] <= w["mu"])
            if (c["verdict"] == "pass") != holds:
                out.append(f"{c['name']}: verdict {c['verdict']} disagrees with its witness")
        expected = set()
        mu = {c["name"]: len(c["witness"]["generators"]) for c in p["checks"]
              if c["witness"].get("checker") == "chain"}
        for i in range(exp["count"]):
            expected |= {f"chain[{i}]", f"dg-dichotomy[{i}]", f"squarefree-cm[{i}]"}
            if mu.get(f"chain[{i}]", 0) <= 4:
                expected.add(f"frobenius[{i}]")
        if names != expected or len(names) != len(p["checks"]):
            out.append("check names are not one set per fuzz case")
        return out

    def _verify(self, exp: dict, rc: int, p: dict) -> list[str]:
        return self._verdicts(p, rc)


def verdict_counts(outputs: list[str]) -> dict[str, int]:
    """Checker verdicts in a list of fuzz / verify-paper JSON outputs."""
    counts = dict.fromkeys(VERDICTS, 0)
    for text in outputs:
        try:
            payload = json.loads(text)
        except ValueError:
            continue
        for c in payload.get("checks", ()) if isinstance(payload, dict) else ():
            if c.get("verdict") in counts:
                counts[c["verdict"]] += 1
    return counts

