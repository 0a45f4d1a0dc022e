"""Acceptance criteria: one test per criterion, exact values, stated budgets.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints its own summary line.
"""

import contextlib
import io
import json
import random
import time

from stci.cli import main
from stci.core import Monomial, MonomialIdeal, RingContext
from stci.decomposition import dim_quotient, height, symbolic_power
from stci.homology import taylor_homology
from stci.invariants import (
    analytic_spread,
    depth,
    dg,
    formal_grade,
    report,
)
from stci.parser import evaluate_program
from stci.verification import (
    RandomIdealSpec,
    check_disjoint_prime_intersection,
    random_ideal,
)

from oracles import brute_betti, fiber_growth_oracle, koszul_betti_totals


def _announce(number: int, ok: bool, message: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {message}")
    assert ok, f"criterion {number} failed: {message}"


def test_criterion_1_triangle_fixture():
    start = time.monotonic()
    a = evaluate_program("ring x,y,z; (x,y) & (y,z) & (x,z)")
    ctx = a.context
    ok = a.generator_strings() == ["x*y", "x*z", "y*z"]
    ok = ok and depth(a) == 1
    square = a ** 2
    ok = ok and depth(square) == 0
    ok = ok and formal_grade(a) == 1
    ok = ok and dg(a, 3) == 1
    formula = (
        evaluate_program("ring x,y,z; (x,y)^2 & (y,z)^2 & (x,z)^2")
        & MonomialIdeal.from_exponents(ctx, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    )
    ok = ok and square == formula
    xyz = Monomial(ctx, (1, 1, 1))
    ok = ok and xyz in symbolic_power(a, 2) and xyz not in square
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _announce(1, ok, f"triangle fixture exact values in {elapsed:.3f}s (< 1s)")


def test_criterion_2_two_planes_fixture():
    start = time.monotonic()
    a = evaluate_program("ring x1,x2,x3,x4; (x1,x2) & (x3,x4)")
    inv = report(a, horizon=3)["invariants"]
    ok = (
        inv["mu"] == 4
        and inv["height"] == 2
        and inv["dim_quotient"] == 2
        and inv["cd"] == 3
        and inv["fgrade"] == 1
        and inv["min_depth_powers"]["value"] == 1
        and inv["dg"]["value"] == 0
        and inv["analytic_spread"] == 3
        and inv["ara"]["upper"] == 3
        and inv["ara"]["certified"]
    )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _announce(2, ok, f"two-planes fixture exact values in {elapsed:.3f}s (< 5s)")


def test_criterion_3_disjoint_prime_families():
    start = time.monotonic()
    rng = random.Random(4401)
    failures = []
    for case in range(50):
        n = rng.randint(2, 8)
        k = rng.randint(1, min(4, n))
        sizes = [1] * k
        budget = n - k
        for _ in range(budget):
            if rng.random() < 0.6:
                sizes[rng.randrange(k)] += 1
        variables = list(range(n))
        rng.shuffle(variables)
        prime_sets = []
        cursor = 0
        for size in sizes:
            prime_sets.append(sorted(variables[cursor:cursor + size]))
            cursor += size
        ctx = RingContext(tuple(f"x{i}" for i in range(1, n + 1)))
        result = check_disjoint_prime_intersection(ctx, prime_sets, horizon=3)
        if result.verdict != "pass":
            failures.append((case, prime_sets, result.witness))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    _announce(
        3, ok,
        f"50 disjoint-prime families, cd = sum(r_i) - k + 1 and dg = 0, "
        f"in {elapsed:.1f}s (< 120s); failures: {failures[:2]}",
    )


def test_criterion_4_squarefree_depth_campaign():
    rng = random.Random(4241)
    failures = 0
    for case in range(200):
        n = rng.randint(2, 5)
        spec = RandomIdealSpec(n=n, squarefree=True, seed=0)
        a = random_ideal(spec, rng)
        fg = formal_grade(a)
        dep = depth(a)
        cm = dep == dim_quotient(a)
        cohom_ci = height(a) == a.context.n - fg
        if fg != dep or cm != cohom_ci:
            failures += 1
    _announce(
        4, failures == 0,
        "200 random squarefree ideals: fgrade = depth and "
        "(height = cd) iff Cohen-Macaulay; "
        f"{failures} failures",
    )


def test_criterion_5_betti_oracle_equivalence():
    rng = random.Random(4305)
    mismatches = 0
    for case in range(100):
        n = rng.randint(2, 4)
        spec = RandomIdealSpec(n=n, squarefree=False, max_exponent=3,
                               max_generators=8, seed=0)
        a = random_ideal(spec, rng)
        if taylor_homology(a) != koszul_betti_totals(a):
            mismatches += 1
    tiny_mismatches = 0
    for case in range(20):
        n = rng.randint(2, 3)
        spec = RandomIdealSpec(n=n, squarefree=False, max_exponent=2,
                               max_generators=4, seed=0)
        a = random_ideal(spec, rng)
        expected = brute_betti(a)
        if taylor_homology(a) != expected or koszul_betti_totals(a) != expected:
            tiny_mismatches += 1
    ok = mismatches == 0 and tiny_mismatches == 0
    _announce(
        5, ok,
        "Taylor and upper-Koszul Betti totals agree on 100 ideals; both match "
        f"the quotient-Koszul oracle on 20 tiny ideals ({mismatches}/"
        f"{tiny_mismatches} mismatches)",
    )


def test_criterion_6_chain_burch_min_depth_properties():
    start = time.monotonic()
    rng = random.Random(4600)
    violations = []
    for case in range(300):
        n = rng.randint(2, 4)
        squarefree = rng.random() < 0.5
        spec = RandomIdealSpec(n=n, squarefree=squarefree, max_exponent=3,
                               max_generators=5, seed=0)
        a = random_ideal(spec, rng)
        inv = report(a, horizon=3)["invariants"]
        md = inv["min_depth_powers"]["value"]
        checks = (
            inv["height"] <= inv["cd"] <= inv["ara"]["upper"] <= inv["mu"]
            and inv["cd"] <= inv["analytic_spread"] <= inv["mu"]
            and md <= inv["fgrade"]
            and inv["analytic_spread"] <= n - md
        )
        if not checks:
            violations.append((case, a.generator_strings()))
    elapsed = time.monotonic() - start
    ok = not violations
    _announce(
        6, ok,
        f"300 random ideals: chain, Burch, and min-depth bounds hold "
        f"({len(violations)} violations, {elapsed:.1f}s)",
    )


def test_criterion_7_frobenius_suite():
    rng = random.Random(4700)
    violations = 0
    for case in range(50):
        n = rng.randint(2, 3)
        spec = RandomIdealSpec(n=n, squarefree=False, max_exponent=3,
                               max_generators=4, seed=0)
        a = random_ideal(spec, rng)
        for q in (2, 3):
            bracket = a.bracket_power(q)
            ordinary = a ** q
            ok = (
                bracket.radical() == ordinary.radical()
                and ordinary.contains_ideal(bracket)
                and bracket.contains_ideal(a ** (a.mu * q))
                and depth(bracket) == depth(a)
            )
            if not ok:
                violations += 1
    _announce(
        7, violations == 0,
        f"50 random ideals, q in {{2,3}}: radical identity, sandwich, and "
        f"depth invariance ({violations} violations)",
    )


def test_criterion_8_analytic_spread_cross_check():
    ctx = RingContext(("x", "y"))
    witness = MonomialIdeal.from_exponents(ctx, [(2, 0), (1, 1), (0, 3)])
    est = fiber_growth_oracle(witness, 8)
    ok = analytic_spread(witness) == 2 and est == (2, True, est.generator_counts)
    rng = random.Random(4800)
    checked = 0
    mismatches = 0
    while checked < 50:
        n = rng.randint(2, 3)
        spec = RandomIdealSpec(n=n, squarefree=False, max_exponent=3,
                               max_generators=4, seed=0)
        a = random_ideal(spec, rng)
        est = fiber_growth_oracle(a, 8)
        if not est.stabilized:
            continue
        checked += 1
        if analytic_spread(a) != est.value:
            mismatches += 1
    ok = ok and mismatches == 0
    _announce(
        8, ok,
        "Newton-polyhedron analytic spread equals the growth oracle on 50 "
        f"stabilized ideals and the mixed-degree witness ({mismatches} "
        "mismatches)",
    )


def test_criterion_9_verify_paper_determinism():
    outputs = set()
    for argv in (
        ["verify-paper", "--json"],
        ["verify-paper", "--json"],
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        assert code == 0
        outputs.add(buf.getvalue())
    ok = len(outputs) == 1 and json.loads(next(iter(outputs)))["all_pass"]
    _announce(
        9, ok,
        "verify-paper --json output is byte-identical across runs",
    )
