"""Irreducible decomposition, minimal primes, heights, symbolic powers."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import stci
import stci.decomposition as decomposition
from stci.core import MonomialIdeal, ResourceLimitError, RingContext
from stci.decomposition import (
    dim_quotient,
    height,
    irreducible_decomposition,
    minimal_primes,
    symbolic_power,
)
from stci.invariants import depth

from oracles import (
    brute_height,
    irreducible_decomposition_oracle,
    maximal_ideal,
    minimal_primes_oracle,
)

CTX3 = RingContext(("x", "y", "z"))
CTX4 = RingContext(("x1", "x2", "x3", "x4"))


def ideal(ctx, *rows):
    return MonomialIdeal.from_exponents(ctx, rows)


def triangle():
    return ideal(CTX3, (1, 1, 0), (1, 0, 1), (0, 1, 1))


def two_planes():
    return ideal(CTX4, (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))


def intersect_all(ideals):
    out = ideals[0]
    for i in ideals[1:]:
        out = out & i
    return out


# ---------------------------------------------------------------------------
# irreducible decomposition


def test_decomposition_splits_mixed_generator():
    ctx = RingContext(("x", "y"))
    comps = irreducible_decomposition(ideal(ctx, (2, 0), (1, 1)))
    assert [str(c) for c in comps] == ["(x^2, y)", "(x)"]
    assert intersect_all(comps) == ideal(ctx, (2, 0), (1, 1))


def test_decomposition_of_triangle_is_three_primes():
    comps = irreducible_decomposition(triangle())
    assert [str(c) for c in comps] == ["(x, y)", "(x, z)", "(y, z)"]


def test_already_irreducible():
    ctx = RingContext(("x",))
    comps = irreducible_decomposition(ideal(ctx, (2,)))
    assert len(comps) == 1 and str(comps[0]) == "(x^2)"


def test_decomposition_rejects_zero_and_unit():
    with pytest.raises(ValueError):
        irreducible_decomposition(CTX3.zero_ideal())
    with pytest.raises(ValueError):
        irreducible_decomposition(CTX3.unit_ideal())


def test_component_cell_bound_at_and_past_the_limit(monkeypatch):
    # the matching ideal (x0*x1, x2*x3, x4*x5, x6*x7): its last generator
    # splits all 8 components in two, 16 grown and none kept, which the filter
    # compares in 16 * 16 * 8 = 2048 cells, the most of any step
    ctx = RingContext(tuple(f"x{j}" for j in range(8)))
    a = MonomialIdeal.from_exponents(
        ctx, [[int(j // 2 == i) for j in range(8)] for i in range(4)])
    monkeypatch.setattr(decomposition, "COMPONENT_CELL_BOUND", 2048)
    assert len(irreducible_decomposition(a)) == 16
    monkeypatch.setattr(decomposition, "COMPONENT_CELL_BOUND", 2047)
    with pytest.raises(ResourceLimitError, match="16 grown and 0 kept"):
        irreducible_decomposition(a)
    # the triangle's second and third generators each split one component in
    # two and keep one: 2 * (1 + 2) * 3 = 18 cells, the kept one counted
    monkeypatch.setattr(decomposition, "COMPONENT_CELL_BOUND", 18)
    assert len(irreducible_decomposition(triangle())) == 3
    monkeypatch.setattr(decomposition, "COMPONENT_CELL_BOUND", 17)
    with pytest.raises(ResourceLimitError, match="2 grown and 1 kept"):
        irreducible_decomposition(triangle())


def test_component_radical_is_its_support_prime():
    comps = irreducible_decomposition(ideal(CTX3, (2, 1, 0), (0, 0, 3)))
    for c in comps:
        # pure powers of distinct variables, whose radical is their support
        assert all(sum(map(bool, r)) == 1 for r in c.rows)
        assert c.mu == len(c.support()) >= 1
        assert c.radical() == MonomialIdeal.from_exponents(
            CTX3, [[int(j == i) for j in range(3)] for i in c.support()])


def rows_strategy(n, max_exp, max_gens):
    row = st.tuples(*[st.integers(0, max_exp)] * n).filter(any)
    return st.lists(row, min_size=1, max_size=max_gens)


@given(rows_strategy(5, 4, 4))
def test_reintersection_recovers_the_ideal(rows):
    ctx = RingContext(("a", "b", "c", "d", "e"))
    a = MonomialIdeal.from_exponents(ctx, rows)
    comps = irreducible_decomposition(a)
    assert intersect_all(comps) == a
    # irredundance: dropping any component changes the intersection
    if len(comps) > 1:
        for k in range(len(comps)):
            rest = [c for i, c in enumerate(comps) if i != k]
            assert intersect_all(rest) != a


def seeded_ideals(rng, count, max_n, max_exp, max_gens):
    """``count`` random ideals; squarefree when ``max_exp`` is 1."""
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        rows = [
            tuple(rng.randint(0, max_exp) for _ in range(n))
            for _ in range(rng.randint(1, max_gens))
        ]
        rows = [r for r in rows if any(r)] or [(1,) + (0,) * (n - 1)]
        ctx = RingContext(tuple(f"x{i}" for i in range(n)))
        out.append(MonomialIdeal.from_exponents(ctx, rows))
    return out


def ideals_strategy(max_n, max_exp, max_gens):
    def build(n):
        row = st.tuples(*[st.integers(0, max_exp)] * n).filter(any)
        ctx = RingContext(tuple(f"x{i}" for i in range(n)))
        return st.lists(row, min_size=1, max_size=max_gens).map(
            lambda rows: MonomialIdeal.from_exponents(ctx, rows)
        )
    return st.integers(1, max_n).flatmap(build)


def test_decomposition_matches_splitting_oracle_seeded():
    # the splitting oracle takes seconds from five mixed generators in six
    # variables on, so mixed-degree ideals stop at four generators
    rng = random.Random(11)
    for a in seeded_ideals(rng, 80, 6, 3, 4) + seeded_ideals(rng, 80, 6, 1, 7):
        got = list(irreducible_decomposition(a))
        assert got == irreducible_decomposition_oracle(a), str(a)


@given(st.one_of(ideals_strategy(6, 3, 4), ideals_strategy(6, 1, 7)))
def test_decomposition_matches_splitting_oracle(a):
    got = list(irreducible_decomposition(a))
    assert got == irreducible_decomposition_oracle(a)


def test_squarefree_components_are_the_minimal_primes():
    # a squarefree ideal is its own radical, so both routes give one tuple
    rng = random.Random(13)
    for a in seeded_ideals(rng, 80, 9, 1, 10):
        assert irreducible_decomposition(a) == minimal_primes(a), str(a)


def test_path_decomposition_within_budget():
    # 28 components, but exponentially many generator-splitting branches
    names = [f"x{i}" for i in range(12)]
    edges = ", ".join(f"{u}*{v}" for u, v in zip(names, names[1:]))
    src = str(Path(stci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "stci.cli", "decompose", "--json",
         f"ring {','.join(names)}; ({edges})"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=10, check=True,
    )
    payload = json.loads(done.stdout)
    # minimal vertex covers of the path on 12 vertices: a Padovan number
    assert len(payload["components"]) == len(payload["minimal_primes"]) == 28


# ---------------------------------------------------------------------------
# minimal primes / height / dimension


def test_minimal_primes_examples():
    assert [str(p) for p in minimal_primes(triangle())] == [
        "(x, y)", "(x, z)", "(y, z)"
    ]
    assert [str(p) for p in minimal_primes(two_planes())] == [
        "(x1, x2)", "(x3, x4)"
    ]
    ctx = RingContext(("x",))
    assert [str(p) for p in minimal_primes(ideal(ctx, (2,)))] == ["(x)"]


def test_minimal_primes_agree_with_decomposition_route():
    rng = random.Random(7)
    for _ in range(25):
        rows = [
            tuple(rng.randint(0, 3) for _ in range(4))
            for _ in range(rng.randint(1, 4))
        ]
        rows = [r for r in rows if any(r)] or [(1, 0, 0, 0)]
        a = MonomialIdeal.from_exponents(CTX4, rows)
        via_covers = set(minimal_primes(a))
        comps = irreducible_decomposition(a)
        radicals = {c.radical() for c in comps}
        via_comps = {
            p for p in radicals
            if not any(q != p and p.contains_ideal(q) for q in radicals)
        }
        assert via_covers == via_comps


def test_minimal_primes_match_subset_oracle_seeded():
    rng = random.Random(12)
    for a in seeded_ideals(rng, 80, 12, 3, 10) + seeded_ideals(rng, 80, 12, 1, 12):
        assert list(minimal_primes(a)) == minimal_primes_oracle(a), str(a)


@given(st.one_of(ideals_strategy(12, 3, 8), ideals_strategy(12, 1, 12)))
def test_minimal_primes_match_subset_oracle(a):
    assert list(minimal_primes(a)) == minimal_primes_oracle(a)


def test_path_height_within_budget():
    # 17 variables: past where enumerating variable subsets is feasible
    script = (
        "from stci.core import MonomialIdeal, RingContext\n"
        "from stci.decomposition import height\n"
        "n = 17\n"
        "ctx = RingContext(tuple(f'x{i}' for i in range(n)))\n"
        "rows = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n - 1)]\n"
        "print(height(MonomialIdeal.from_exponents(ctx, rows)))\n"
    )
    src = str(Path(stci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=10, check=True,
    )
    assert done.stdout.strip() == "8"


def test_height_and_dimension_examples():
    assert height(two_planes()) == 2
    assert dim_quotient(two_planes()) == 2
    assert height(triangle()) == 2
    assert height(triangle()) == brute_height(triangle())
    ctx = RingContext(("x",))
    assert height(ideal(ctx, (1,))) == 1


@given(rows_strategy(4, 3, 4))
def test_height_properties(rows):
    a = MonomialIdeal.from_exponents(CTX4, rows)
    assert height(a) == brute_height(a)
    assert height(a) == height(a.radical())
    assert height(a) + dim_quotient(a) == 4


# ---------------------------------------------------------------------------
# symbolic powers


def test_symbolic_power_of_prime_is_ordinary():
    p = ideal(CTX3, (1, 0, 0), (0, 1, 0))
    assert symbolic_power(p, 3) == p ** 3
    assert symbolic_power(p, 1) == p


def test_symbolic_square_of_triangle_contains_xyz():
    tri = triangle()
    xyz = (1, 1, 1)
    assert xyz in symbolic_power(tri, 2)
    assert xyz not in tri ** 2


def test_symbolic_power_rejects_non_squarefree():
    with pytest.raises(ValueError):
        symbolic_power(ideal(CTX3, (2, 0, 0), (1, 1, 0)), 2)
    with pytest.raises(ValueError):
        symbolic_power(triangle(), 0)


def squarefree_strategy(n, max_gens=4):
    row = st.tuples(*[st.integers(0, 1)] * n).filter(any)
    return st.lists(row, min_size=1, max_size=max_gens)


@given(squarefree_strategy(4), st.integers(1, 3))
def test_ordinary_inside_symbolic(rows, t):
    a = MonomialIdeal.from_exponents(CTX4, rows)
    if a.is_unit:
        return
    assert symbolic_power(a, t).contains_ideal(a ** t)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
       st.integers(1, 3))
def test_symbolic_equals_ordinary_for_variable_primes(variables, t):
    rows = []
    for i in variables:
        row = [0] * 4
        row[i] = 1
        rows.append(tuple(row))
    p = MonomialIdeal.from_exponents(CTX4, rows)
    if p.is_unit:
        return
    assert symbolic_power(p, t) == p ** t


# ---------------------------------------------------------------------------
# depth-zero detection


def saturation_moves(a: MonomialIdeal) -> bool:
    """Depth zero, seen as the maximal ideal being associated: saturating
    by it changes ``a``."""
    return a.saturate(maximal_ideal(a.context)) != a


def test_depth_zero_examples():
    tri = triangle()
    ctx = RingContext(("x", "y"))
    for a, zero in ((tri ** 2, True), (tri, False), (ideal(ctx, (1, 0)), False)):
        assert saturation_moves(a) == zero
        assert (depth(a) == 0) == zero


@given(rows_strategy(3, 3, 4))
def test_depth_zero_agrees_with_betti_depth(rows):
    a = MonomialIdeal.from_exponents(CTX3, rows)
    assert saturation_moves(a) == (depth(a) == 0)
