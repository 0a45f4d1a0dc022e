"""Depth, cd, formal grade, analytic spread, arithmetic rank bounds, dg."""

import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stci
import stci.decomposition as decomposition
import stci.homology as homology
import stci.invariants as invariants
from stci.core import MEMOS, FieldSpec, MonomialIdeal, ResourceLimitError, RingContext
from stci.decomposition import dim_quotient
from stci.homology import local_cohomology_nonvanishing
from stci.invariants import (
    analytic_spread,
    cohomological_dimension,
    depth,
    dg,
    formal_grade,
    is_valid_sv_partition,
    min_depth_powers,
    proj_dim,
    report,
    schmitt_vogel_upper,
)
from stci.verification import (
    RandomIdealSpec,
    check_chain,
    check_dg_dichotomy,
    check_frobenius,
    random_ideal,
)

from oracles import (
    analytic_spread_oracle,
    betti_numbers_oracle,
    compact_faces_oracle,
    evaluate_program,
    exposed,
    fiber_growth_oracle,
    min_depth_powers_oracle,
    over_field,
    pair_divisors_oracle,
    rp2_ideal,
    sv_exact_level_bfs,
    sv_exact_pairwise_filter,
    sv_levels_oracle,
    taylor_homology,
)

CTX2 = RingContext(("x", "y"))
CTX3 = RingContext(("x", "y", "z"))
CTX4 = RingContext(("x1", "x2", "x3", "x4"))
CTX8 = RingContext(tuple(f"x{i}" for i in range(8)))


def ideal(ctx, *rows):
    return MonomialIdeal.from_exponents(ctx, rows)


def triangle():
    return ideal(CTX3, (1, 1, 0), (1, 0, 1), (0, 1, 1))


def two_planes():
    return ideal(CTX4, (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))


def rows_strategy(n, max_exp, max_gens):
    row = st.tuples(*[st.integers(0, max_exp)] * n).filter(any)
    return st.lists(row, min_size=1, max_size=max_gens)


def squarefree_strategy(n, max_gens):
    row = st.tuples(*[st.integers(0, 1)] * n).filter(any)
    return st.lists(row, min_size=1, max_size=max_gens).filter(
        lambda rows: any(sum(r) < n for r in rows)
    )


# ---------------------------------------------------------------------------
# depth / pd / cd / fgrade


def test_depth_examples():
    assert depth(triangle()) == 1
    assert depth(triangle() ** 2) == 0
    assert depth(ideal(CTX3, (1, 0, 0), (0, 1, 0))) == 1


def test_cd_examples():
    assert cohomological_dimension(two_planes()) == 3
    assert cohomological_dimension(triangle()) == 2
    for k in range(1, 4):
        rows = []
        for i in range(k):
            row = [0, 0, 0]
            row[i] = 1
            rows.append(tuple(row))
        assert cohomological_dimension(ideal(CTX3, *rows)) == k


def test_fgrade_examples():
    assert formal_grade(triangle()) == 1
    assert formal_grade(two_planes()) == 1
    assert formal_grade(ideal(CTX2, (1, 0), (0, 1))) == 0


def test_betti_splits_match_direct_paths():
    # disjoint-variable sum: tensor convolution
    a = ideal(CTX4, (2, 0, 0, 0), (0, 0, 1, 1))
    assert dict(enumerate(betti_numbers_oracle(a))) == taylor_homology(a)
    assert proj_dim(a) == max(taylor_homology(a))
    # disjoint-variable product: intersection convolution
    b = two_planes() ** 2
    assert dict(enumerate(betti_numbers_oracle(b))) == taylor_homology(b)
    assert proj_dim(b) == max(taylor_homology(b))


def _pad_rows(rows, offset, n):
    return [tuple([0] * offset + list(r) + [0] * (n - offset - len(r)))
            for r in rows]


@given(rows_strategy(2, 2, 3), rows_strategy(2, 2, 3))
def test_sum_split_matches_taylor(rows_a, rows_b):
    # ideals in disjoint pairs of variables, summed
    a = MonomialIdeal.from_exponents(CTX4, _pad_rows(rows_a, 0, 4))
    b = MonomialIdeal.from_exponents(CTX4, _pad_rows(rows_b, 2, 4))
    c = a + b
    if c.is_unit:
        return
    assert dict(enumerate(betti_numbers_oracle(c))) == taylor_homology(c)
    # mu <= 6 goes to Taylor, so check the identity the sum split relies on
    assert proj_dim(c) == max(taylor_homology(c)) == proj_dim(a) + proj_dim(b)


@given(rows_strategy(2, 2, 3), rows_strategy(2, 2, 3))
def test_product_split_matches_taylor(rows_a, rows_b):
    # ideals in disjoint pairs of variables, multiplied (= intersected)
    a = MonomialIdeal.from_exponents(CTX4, _pad_rows(rows_a, 0, 4))
    b = MonomialIdeal.from_exponents(CTX4, _pad_rows(rows_b, 2, 4))
    c = a * b
    assert c == (a & b)
    assert dict(enumerate(betti_numbers_oracle(c))) == taylor_homology(c)
    # mu <= 8 goes to Taylor, so check the identity the product split relies on
    assert proj_dim(c) == max(taylor_homology(c)) == proj_dim(a) + proj_dim(b) - 1


@given(rows_strategy(3, 3, 4))
def test_cd_depends_only_on_radical(rows):
    a = MonomialIdeal.from_exponents(CTX3, rows)
    assert cohomological_dimension(a) == cohomological_dimension(a.radical())


@given(squarefree_strategy(5, 5))
def test_squarefree_fgrade_equals_depth(rows):
    ctx = RingContext(("a", "b", "c", "d", "e"))
    a = MonomialIdeal.from_exponents(ctx, rows)
    if a.is_unit:
        return
    assert formal_grade(a) == depth(a)
    locoh = local_cohomology_nonvanishing(a)
    assert min(locoh) == depth(a)
    assert max(locoh) == dim_quotient(a)


# ---------------------------------------------------------------------------
# projective dimension against the full Betti table

Q = FieldSpec.rationals()
F32003 = FieldSpec.prime(32003)


def seeded_ideals(seed, count, n, top, mus):
    """``count`` seeded ideals in n variables, exponents <= top, mu in ``mus``."""
    rng = random.Random(seed)
    ctx = RingContext(tuple(f"x{i}" for i in range(n)))
    out = []
    while len(out) < count:
        rows = [tuple(rng.randint(0, top) for _ in range(n))
                for _ in range(rng.randint(mus.start, mus.stop + 3))]
        a = MonomialIdeal.from_exponents(ctx, [r for r in rows if any(r)])
        if a.mu in mus:
            out.append(a)
    return out


def cycle_ideal(n, vertices=None):
    """The edge ideal of the cycle on ``vertices`` (default 0..n-1) in n
    variables."""
    vertices = vertices or list(range(n))
    ctx = RingContext(tuple(f"x{i}" for i in range(n)))
    rows = []
    for u, v in zip(vertices, vertices[1:] + vertices[:1]):
        row = [0] * n
        row[u] = row[v] = 1
        rows.append(tuple(row))
    return MonomialIdeal.from_exponents(ctx, rows)


def assert_pd_matches_oracle(a, field):
    a = over_field(a, field)
    pd = len(betti_numbers_oracle(a)) - 1
    assert homology.koszul_proj_dim(a) == pd
    assert proj_dim(a) == pd


@pytest.mark.parametrize("field", [Q, F32003], ids=str)
def test_proj_dim_matches_betti_oracle_seeded(field):
    # mu 9-14 takes the lattice search; mixed degree, then squarefree
    for a in seeded_ideals(71, 24, 5, 3, range(9, 15)):
        assert_pd_matches_oracle(a, field)
    for a in seeded_ideals(72, 24, 7, 1, range(9, 15)):
        assert_pd_matches_oracle(a, field)


@pytest.mark.parametrize("field", [Q, F32003], ids=str)
def test_proj_dim_matches_betti_oracle_on_splits(field):
    ctx = RingContext(tuple(f"x{i}" for i in range(9)))
    parts = [
        [_pad_rows(a.exponent_matrix().tolist(), 3 * k, 9) for a in
         seeded_ideals(73 + k, 6, 3, 2, range(2, 6))]
        for k in range(3)
    ]
    for rows_a, rows_b, rows_c in zip(*parts):
        a, b, c = (MonomialIdeal.from_exponents(ctx, r)
                   for r in (rows_a, rows_b, rows_c))
        for split in (a + b, a + b + c, a * b, a * b * c, a * b + c):
            assert_pd_matches_oracle(split, field)


@pytest.mark.parametrize("field", [Q, F32003], ids=str)
def test_proj_dim_matches_betti_oracle_on_cycle_powers(field):
    for n, top in ((7, 3), (8, 2)):
        for t in range(1, top + 1):
            assert_pd_matches_oracle(cycle_ideal(n) ** t, field)


def test_proj_dim_matches_betti_oracle_past_64_variables():
    # carriers and lattice keys outgrow int64; the 9-cycle has pd 6, far
    # below n = 70, so the search runs until no bound is left above it
    a = cycle_ideal(70, [0, 8, 16, 24, 32, 63, 64, 66, 69])
    for field in (Q, F32003):
        assert_pd_matches_oracle(a, field)
        assert proj_dim(over_field(a, field)) == 6


CTX6 = RingContext(tuple(f"x{i}" for i in range(6)))


def antichain_strategy(n, max_exp, max_gens):
    """At least 3 distinct rows of one degree, so no row divides another."""
    def of_degree(d):
        rows = [r for r in product(range(max_exp + 1), repeat=n) if sum(r) == d]
        return st.lists(st.sampled_from(rows), min_size=3, max_size=max_gens,
                        unique=True)
    return st.integers(2, max_exp * n - 2).flatmap(of_degree)


@settings(max_examples=30)
@given(antichain_strategy(3, 3, 6), antichain_strategy(3, 3, 6))
def test_product_split_finds_the_factors_from_the_rows(rows_a, rows_b):
    # ideals in disjoint triples of variables whose product passes the
    # Taylor dispatch bound; a side may split further (x0 x1^2, x0 x1 x2,
    # x0 x2^2 is x0 times (x1, x2)^2), so its blocks multiply back to it
    a = MonomialIdeal.from_exponents(CTX6, _pad_rows(rows_a, 0, 6))
    b = MonomialIdeal.from_exponents(CTX6, _pad_rows(rows_b, 3, 6))
    c = a * b
    assert c.mu > invariants.TAYLOR_DISPATCH_BOUND
    split = invariants._product_split(c)
    assert split is not None
    for side, block in ((a, {0, 1, 2}), (b, {3, 4, 5})):
        parts = [f for f in split if f.support() <= block]
        whole = parts[0]
        for f in parts[1:]:
            whole = whole * f
        assert whole == side
    assert sum(len(f.support()) for f in split) == len(c.support())
    pd = proj_dim(c)
    assert pd == homology.koszul_proj_dim(c)
    if c.mu <= 12:
        assert pd == max(taylor_homology(c))


@pytest.mark.parametrize("expression, pd", [
    # mu 1225: without the product split the lattice passes its bound
    ("[(x1,x2,x3,x4)*(x5,x6,x7,x8)]^4", 7),
    # mu 70: without the sum split the lattice passes its bound
    ("[(x1,x2,x3,x4)^4]+[(x5,x6,x7,x8)^4]", 8),
])
def test_proj_dim_splits_large_ideals_before_the_lattice(expression, pd):
    a = evaluate_program(f"ring x1,x2,x3,x4,x5,x6,x7,x8; {expression}")
    assert proj_dim(a) == pd


@settings(max_examples=20)
@given(rows_strategy(4, 3, 12))
def test_proj_dim_matches_betti_oracle_drawn(rows):
    assert_pd_matches_oracle(MonomialIdeal.from_exponents(CTX4, rows), Q)


@settings(max_examples=20)
@given(squarefree_strategy(6, 12))
def test_proj_dim_matches_betti_oracle_drawn_squarefree(rows):
    ctx = RingContext(tuple("abcdef"))
    a = MonomialIdeal.from_exponents(ctx, rows)
    if not a.is_unit:
        assert_pd_matches_oracle(a, F32003)


def test_proj_dim_on_few_generators_in_many_variables_needs_no_minimal_primes(
        monkeypatch):
    # the squares of the seed-0 and seed-5 RandomIdealSpec(n=25,
    # max_exponent=1) draws, mu 10 and 15 in 25 variables, take the walk
    # and the product split.  The seed-5 square is x18^2 times an ideal in
    # the other variables; the split found that factor through the minimal
    # primes of the radical, about 0.7 s, where it now reads the rows
    def refuse(*args, **kwargs):
        raise AssertionError("minimal primes reached")

    monkeypatch.setattr(decomposition, "minimal_primes", refuse)
    assert not hasattr(invariants, "minimal_primes")
    for seed, mu, factors in ((0, 10, None), (5, 15, [15, 1])):
        spec = RandomIdealSpec(n=25, max_exponent=1, seed=seed)
        a = random_ideal(spec, random.Random(spec.seed)) ** 2
        assert a.mu == mu
        split = invariants._product_split(a)
        assert (split and [f.mu for f in split]) == factors
        invariants.clear_caches()
        assert proj_dim(a) == max(taylor_homology(a))


def test_proj_dim_check_survives_python_optimize():
    # a Taylor strand patched to one subset of n + 1 generators, whose face
    # the walk reads as beta_{n+1}, breaks Hilbert's syzygy theorem in the
    # k = n variables of the support; the explicit check must raise under
    # -O too
    out = run_python("""
        import sys
        import stci.homology as homology
        import stci.invariants as inv
        from stci.parser import evaluate, parse
        if __debug__:
            sys.exit("not running under -O")
        homology._taylor_strands = lambda a: [
            (a.context.n + 1, [(1 << a.context.n + 1) - 1])]
        try:
            inv.proj_dim(evaluate(*parse("ring x,y,z; (x*y, x*z, y*z)")))
        except AssertionError as exc:
            print(exc)
    """, "-O")
    assert out == "invariant violated: 1 <= pd <= min(k, mu)"


def hat_ideal():
    """The products of 9 of the first 10 of 12 variables: mu = k = 10."""
    ctx = RingContext(tuple(f"x{i}" for i in range(12)))
    return MonomialIdeal.from_exponents(
        ctx, [tuple(int(i != j and i < 10) for i in range(12)) for j in range(10)])


def test_proj_dim_returns_a_floor_above_mu_unchecked(monkeypatch):
    # 1 <= pd <= min(k, mu) binds a computed pd, not a floor: mu can drop
    # from one power to the next (Eliahou, Herzog and Saem 2018), so the
    # horizon can pass a floor above mu.  The products of 9 of 10 of 12
    # variables have mu 10 > 8, so they go to the walk from floors 1 and 3;
    # the support has k = mu = 10 variables, so floors 11 and 12 are at or
    # above min(k, mu) and are returned before the walk, as is floor 3 for
    # a principal ideal
    hat = hat_ideal()
    walks = []
    real_walk = homology.koszul_proj_dim

    def recording_walk(a, floor=1):
        walks.append(floor)
        return real_walk(a, floor)

    monkeypatch.setattr(homology, "koszul_proj_dim", recording_walk)
    invariants.clear_caches()
    assert hat.mu == 10 and proj_dim(hat) == 2
    for floor in (3, 11, 12):
        assert proj_dim(hat, floor) == floor
        assert depth(hat, floor) == 12 - floor
    assert walks == [1, 3]
    x = ideal(CTX3, (1, 0, 0))
    assert proj_dim(x, 3) == 3 and depth(x, 3) == 0 and proj_dim(x) == 1
    assert walks == [1, 3]


F2 = FieldSpec.prime(2)


def top_rule_ideals(seed, count):
    """``count`` seeded ideals in 2-6 variables, some with variables in no
    generator, exponents <= 3 and mu <= 12, half of them with at most 4
    generators drawn, a quarter of them squared."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, used, top = rng.randint(2, 6), rng.randint(1, 6), rng.randint(1, 3)
        rows = [tuple(rng.randint(0, top) if j < used else 0 for j in range(n))
                for _ in range(rng.randint(1, rng.choice([4, 12])))]
        rows = [r for r in rows if any(r)]
        if rows:
            a = MonomialIdeal.from_exponents(
                RingContext(tuple(f"x{i}" for i in range(n))), rows)
            out.append(a * a if rng.random() < 0.25 else a)
    return out


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "fallback"])
@pytest.mark.parametrize("field", [Q, F2, F32003], ids=str)
def test_proj_dim_from_every_floor_reaches_each_top_rule(monkeypatch, field,
                                                          grid):
    # proj_dim(a, f) = max(f, pd) for f in 1..n + 1.  With k the support
    # size and top = min(k, mu): a floor >= top is returned at once; at
    # f = k - 1 < mu the socle test decides pd = k on the grid, and with
    # GRID_CELL_BOUND at 0 the call falls back to the Taylor strands or the
    # walk; at f = mu - 1 < k - 1 the Taylor rule decides pd = mu
    if not grid:
        monkeypatch.setattr(homology, "GRID_CELL_BOUND", 0)
    invariants.clear_caches()
    reached = dict.fromkeys(["top", "k, pd = k", "k, pd < k",
                             "mu, pd = mu", "mu, pd < mu"], 0)
    for a in top_rule_ideals(28, 200):
        a = over_field(a, field)
        n, k, mu = a.context.n, len(a.support()), a.mu
        pd = len(betti_numbers_oracle(a)) - 1
        for f in range(1, n + 2):
            assert proj_dim(a, f) == max(f, pd), (a, f)
            if f >= min(k, mu):
                reached["top"] += 1
            elif f == k - 1:
                reached["k, pd = k" if pd == k else "k, pd < k"] += 1
            elif f == mu - 1 and mu <= invariants.TAYLOR_DISPATCH_BOUND:
                reached["mu, pd = mu" if pd == mu else "mu, pd < mu"] += 1
    assert min(reached.values()) >= 8, reached


def test_proj_dim_builds_nothing_at_the_top_and_no_complex_at_k_minus_1(
        monkeypatch):
    # at floors >= min(k, mu) no Taylor strand, grid or lattice is built; at
    # floor k - 1 < mu only the membership grid is, and at mu - 1 < k - 1
    # nothing.  C8^2 passes GRID_CELL_BOUND in face bits, so its walk takes
    # the lattice, but its 3^8 grid points are few enough for the socle test
    built = []

    def recording(name):
        real = getattr(homology, name)
        return lambda *args: built.append(name) or real(*args)

    for name in ("_taylor_strands", "_membership", "_grid_complexes",
                 "lcm_lattice"):
        monkeypatch.setattr(homology, name, recording(name))
    path = ideal(CTX4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))
    xy_cube = ideal(CTX3, (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0))
    c8 = cycle_ideal(8) ** 2
    assert 3 ** 8 << 8 > homology.GRID_CELL_BOUND >= 3 ** 8
    for a, floors, socle_floor, pd in ((hat_ideal(), (10, 11, 12), 9, 2),
                                       (path, (3, 4, 5), None, 2),
                                       (xy_cube, (2, 3, 4), 1, 2),
                                       (c8, (8, 9), 7, 6)):
        invariants.clear_caches()
        for f in floors:
            assert proj_dim(a, f) == f
        assert built == []
        if socle_floor is not None:
            assert proj_dim(a, socle_floor) == max(socle_floor, pd)
            assert built == ["_membership"]
            built.clear()
    invariants.clear_caches()
    # x2 x3 is alone at no variable's top exponent, so beta_3 = 0
    assert proj_dim(path, 2) == 2 and built == []
    assert proj_dim(path) == 2 and built == ["_taylor_strands"]


# ---------------------------------------------------------------------------
# memos


MEMOIZED = {
    "stci.core.MonomialIdeal._pairwise",
    "stci.core.MonomialIdeal.radical",
    "stci.decomposition.minimal_primes",
    "stci.invariants.proj_dim",
    "stci.invariants.analytic_spread",
    "stci.invariants.schmitt_vogel_upper",
    "stci.invariants.min_depth_powers",
}


def memos_by_name():
    return {f"{m.__module__}.{m.__qualname__}": m for m in MEMOS}


def test_memos_are_bounded_and_cleared():
    memos = memos_by_name()
    assert set(memos) == MEMOIZED
    invariants.clear_caches()
    report(two_planes())
    for name, cached in memos.items():
        info = cached.cache_info()
        assert info.maxsize == 4096 and info.currsize >= 1, name
    invariants.clear_caches()
    sizes = {name: m.cache_info().currsize for name, m in memos.items()}
    assert sizes == dict.fromkeys(MEMOIZED, 0)


def test_memo_keys_carry_the_field():
    # the homology of RP^2 has 2-torsion, so pd over F_2 exceeds pd over Q;
    # a memo key is the ideal alone, and its ring carries the field
    a = rp2_ideal()
    assert a.mu == 10 and {sum(row) for row in a.rows} == {3}
    invariants.clear_caches()
    assert proj_dim(a) == 3
    assert proj_dim(over_field(a, FieldSpec.prime(2))) == 4
    assert proj_dim.cache_info().misses == 2


def test_proj_dim_memo_is_keyed_by_ideal_and_floor():
    # a floor left out is the floor 1
    a = rp2_ideal()
    invariants.clear_caches()
    assert proj_dim(a) == proj_dim(a, 1) == 6 - depth(a) == 3
    assert proj_dim(a, 4) == 4 and proj_dim(a, 2) == 3
    info = proj_dim.cache_info()
    assert (info.misses, info.hits) == (3, 2)


def test_each_invariant_of_one_ideal_is_computed_once():
    # (x1,x3)(x2,x4) has mu 4 and goes to the Taylor complex, so proj_dim
    # asks for neither the radical nor the minimal primes; horizon 1 keeps
    # powers, and with them every product, out.  check_dg_dichotomy asks
    # for min_depth_powers itself and again through dg
    invariants.clear_caches()
    check_chain(two_planes())
    check_dg_dichotomy(two_planes(), 1)
    memos = memos_by_name()
    for name in MEMOIZED - {"stci.invariants.proj_dim",
                            "stci.core.MonomialIdeal._pairwise"}:
        info = memos[name].cache_info()
        assert info.misses == 1 and info.hits >= 1, (name, info)


def test_frobenius_square_reuses_the_square_of_the_powers():
    # min_depth_powers squares a; the a ** 2 of check_frobenius, and of a
    # second horizon, is the same product, taken from the memo
    a = two_planes()
    invariants.clear_caches()
    min_depth_powers(a, 2)
    pairwise = memos_by_name()["stci.core.MonomialIdeal._pairwise"]
    misses = pairwise.cache_info().misses
    assert misses >= 1 and pairwise.cache_info().hits == 0
    assert check_frobenius(a, 2).verdict == "pass"
    info = pairwise.cache_info()
    assert info.misses == misses and info.hits == 1


# every public entry that takes an ideal, with its other arguments fixed, and
# the oracles' Taylor Betti table, which reaches the guard of the Taylor strands
GUARDED = {
    "proj_dim": proj_dim,
    "depth": depth,
    "cohomological_dimension": cohomological_dimension,
    "formal_grade": formal_grade,
    "analytic_spread": analytic_spread,
    "schmitt_vogel_upper": schmitt_vogel_upper,
    "min_depth_powers": lambda a: min_depth_powers(a, 2),
    "dg": lambda a: dg(a, 2),
    "report": lambda a: report(a, 2),
    "minimal_primes": decomposition.minimal_primes,
    "height": decomposition.height,
    "irreducible_decomposition": decomposition.irreducible_decomposition,
    "symbolic_power": lambda a: decomposition.symbolic_power(a, 2),
    "taylor_homology": taylor_homology,
    "koszul_proj_dim": homology.koszul_proj_dim,
    "taylor_proj_dim": homology.taylor_proj_dim,
    "local_cohomology_nonvanishing": local_cohomology_nonvanishing,
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", sorted(GUARDED))
def test_every_entry_rejects_zero_and_unit_ideals(name, warm):
    # a memo keeps no exception, so a rejected ideal is rejected on every
    # call, whatever the memos already hold for other ideals of its ring
    entry = GUARDED[name]
    invariants.clear_caches()
    if warm:
        report(two_planes(), 2)
        entry(two_planes())
    for a in (CTX4.zero_ideal(), CTX4.unit_ideal()):
        for _ in range(2):
            with pytest.raises(ValueError, match="expected a proper, nonzero ideal"):
                entry(a)


@pytest.mark.parametrize("squarefree", [False, True])
def test_memoized_results_equal_direct_computation(squarefree):
    rng = random.Random(8)
    spec = RandomIdealSpec(n=5, squarefree=squarefree, max_generators=7, seed=8)
    direct = {name: m.__wrapped__ for name, m in memos_by_name().items()}
    for _ in range(12):
        a = random_ideal(spec, rng)
        for _ in range(2):  # the second round reads the memos
            assert a.radical() == direct["stci.core.MonomialIdeal.radical"](a)
            assert decomposition.minimal_primes(a) == direct[
                "stci.decomposition.minimal_primes"](a)
            assert analytic_spread(a) == direct["stci.invariants.analytic_spread"](a)
            assert min_depth_powers(a, 2) == direct[
                "stci.invariants.min_depth_powers"](a, 2)
            for field in (FieldSpec.rationals(), FieldSpec.prime(7)):
                b = over_field(a, field)
                assert proj_dim(b) == direct["stci.invariants.proj_dim"](b)
                assert schmitt_vogel_upper(b) == direct[
                    "stci.invariants.schmitt_vogel_upper"](b)


# ---------------------------------------------------------------------------
# analytic spread


def test_analytic_spread_examples():
    assert analytic_spread(two_planes()) == 3
    assert analytic_spread(ideal(CTX2, (1, 0), (0, 1))) == 2
    assert analytic_spread(ideal(CTX2, (2, 0), (1, 1), (0, 3))) == 2
    assert analytic_spread(ideal(CTX2, (1, 0))) == 1
    # x^2*y^2 is the midpoint of x^4 and y^4, on the facet of weight (1, 1, 4)
    assert analytic_spread(ideal(CTX3, (4, 0, 0), (2, 2, 0), (0, 4, 0), (0, 0, 1))) == 3
    # z occurs in no generator
    assert analytic_spread(ideal(CTX3, (3, 0, 0), (1, 1, 0), (0, 2, 0))) == 2


def mixed_degree_rows(rng: random.Random, n: int, max_gens: int):
    """Random exponent rows in n variables, some of them left out of every
    row, and sometimes one generator at the midpoint of two others."""
    unused = set()
    if rng.random() < 0.3:
        unused = set(rng.sample(range(n), rng.randint(0, n - 1)))
    top = rng.randint(1, 4)
    rows = [
        tuple(0 if j in unused else rng.randint(0, top) for j in range(n))
        for _ in range(rng.randint(2, max_gens))
    ]
    if rng.random() < 0.4:
        p, q = rng.sample(rows, 2)
        midpoint = tuple(x + y for x, y in zip(p, q))
        rows = [tuple(2 * x for x in r) for r in rows] + [midpoint]
    return [r for r in rows if any(r)]


def seeded_mixed_degree_ideals(count: int, seed: int, max_gens: int = 9):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 6)
        ctx = RingContext(tuple(f"x{i}" for i in range(n)))
        rows = mixed_degree_rows(rng, n, max_gens + 1)
        if not rows:
            continue
        a = MonomialIdeal.from_exponents(ctx, rows)
        if a.mu <= max_gens and len({sum(row) for row in a.rows}) > 1:
            out.append(a)
    return out


def test_analytic_spread_matches_subset_oracle_seeded():
    ideals = seeded_mixed_degree_ideals(60, seed=11)
    below = 0
    for a in ideals:
        spread = analytic_spread_oracle(a)
        assert analytic_spread(a) == spread, a
        below += spread < min(len(a.support()), a.mu)
    # the family reaches ideals without a compact facet
    assert below >= 5
    assert any(len(a.support()) < a.context.n for a in ideals)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_analytic_spread_matches_subset_oracle_drawn(n, rng):
    ctx = RingContext(tuple(f"x{i}" for i in range(n)))
    rows = mixed_degree_rows(rng, n, 9)
    if not rows:
        return
    a = MonomialIdeal.from_exponents(ctx, rows)
    if a.is_unit or a.mu > 9:
        return
    assert analytic_spread(a) == analytic_spread_oracle(a)


def test_analytic_spread_mu_18_in_five_variables():
    rng = random.Random(18)
    ctx = RingContext(tuple(f"x{i}" for i in range(5)))
    rows: set[tuple[int, ...]] = set()
    while True:
        rows.add(tuple(rng.randint(0, 4) for _ in range(5)))
        a = MonomialIdeal.from_exponents(ctx, [r for r in rows if any(r)])
        if a.mu == 18:
            break
    assert len({sum(row) for row in a.rows}) > 1
    assert 1 <= analytic_spread(a) <= 5


def run_python(script: str, *flags: str) -> str:
    """Stdout of ``script`` run in a fresh interpreter, stopped after 10 s."""
    src = str(Path(stci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=10, check=True,
    )
    return done.stdout.strip()


def test_fuzz_draw_cubes_within_budget():
    # the cubes of the seed-0 fuzz draws in 12 and 20 variables have mu 20
    # and go to the pd walk, which ranks the nerves of their complexes; the
    # n = 12 cube took about 0.8 s without them and the n = 20 cube ran past
    # 60 s, while Taylor gives pd 6 for it in about 6 s
    out = run_python("""
        import random
        from stci.invariants import proj_dim
        from stci.verification import RandomIdealSpec, random_ideal
        for n in (12, 20):
            spec = RandomIdealSpec(n=n)
            cube = random_ideal(spec, random.Random(spec.seed)) ** 3
            print(cube.mu, proj_dim(cube))
    """)
    assert out.splitlines() == ["20 6", "20 6"]


def test_squarefree_n16_draw_within_budget():
    # the seed-0 squarefree draw in 16 variables has 46 generators; with
    # every rational rank from exact elimination, pd took about 28 s and the
    # local cohomology degrees about 63 s
    out = run_python("""
        import random
        from stci.homology import local_cohomology_nonvanishing
        from stci.invariants import proj_dim
        from stci.verification import RandomIdealSpec, random_ideal
        spec = RandomIdealSpec(16, squarefree=True)
        a = random_ideal(spec, random.Random(spec.seed))
        print(a.mu, proj_dim(a), sorted(local_cohomology_nonvanishing(a)))
    """)
    assert out == "46 10 [6, 7, 8, 9, 10, 11, 12, 15]"


def test_analytic_spread_without_compact_facet_is_fast():
    # 17 generators with l = 3 and no compact facet took seconds of
    # Fourier-Motzkin solves in the former generator-subset search
    out = run_python("""
        import random, time
        from stci import MonomialIdeal, RingContext, analytic_spread
        rng = random.Random(4)
        ctx = RingContext(tuple(f"x{i}" for i in range(5)))
        rows = set()
        while True:
            i, j = rng.randint(0, 12), rng.randint(0, 12)
            rows.add((i, j, 24 - i - j + i % 3, 1, 1))
            a = MonomialIdeal.from_exponents(ctx, sorted(rows))
            if a.mu == 17:
                break
        start = time.perf_counter()
        print(analytic_spread(a), time.perf_counter() - start)
    """)
    spread, seconds = out.split()
    assert spread == "3"
    assert float(seconds) < 0.5


def staircase_sum_rows(size: int) -> list[tuple[int, ...]]:
    """Four convex staircases of ``size`` generators in disjoint pairs of
    variables, each generator times a ninth variable so that no facet is
    compact."""
    rows = []
    for p in range(4):
        for i in range(size):
            r = [0] * 8 + [1]
            r[2 * p], r[2 * p + 1] = i, (size - 1 - i) * (size - i) // 2
            rows.append(tuple(r))
    return rows


def test_analytic_spread_facet_bound():
    # eight steps: 2410 facets, but the compact-face walk passes the bound
    # (in the 10 s the subprocess gets); nine steps: the double-description
    # rays pass it, within 0.5 s since adjacency reads the rays tight on each
    # constraint from one bitmask
    for size, message, seconds in (
        (8, "the compact-face walk visits more than 4096 faces", 10),
        (9, "the Newton polyhedron needs more than 4096 double-description rays",
         0.5),
    ):
        out = run_python(f"""
            import time
            from stci import MonomialIdeal, RingContext, analytic_spread
            from stci.core import ResourceLimitError
            ctx = RingContext(tuple(f"x{{i}}" for i in range(9)))
            a = MonomialIdeal.from_exponents(ctx, {staircase_sum_rows(size)!r})
            start = time.perf_counter()
            try:
                analytic_spread(a)
            except ResourceLimitError as exc:
                print(exc)
            print(time.perf_counter() - start)
        """)
        assert out.splitlines()[0] == message
        assert float(out.splitlines()[1]) < seconds
    # without the ninth variable the staircases span a compact facet
    a = MonomialIdeal.from_exponents(
        CTX8, [r[:8] for r in staircase_sum_rows(8)]
    )
    assert analytic_spread(a) == 8


def test_compact_face_walk_bound(monkeypatch):
    # the simplex x0^2..x11^2 plus a cubic: 13 facets, one of them compact,
    # so the 4095 compact faces of the simplex are never walked
    ctx = RingContext(tuple(f"x{i}" for i in range(12)))
    rows = [tuple(2 * (i == j) for i in range(12)) for j in range(12)]
    a = MonomialIdeal.from_exponents(ctx, rows + [(1, 1, 1) + (0,) * 9])
    monkeypatch.setattr(invariants, "NEWTON_FACET_BOUND", 500)
    assert analytic_spread(a) == 12
    # four 4-step staircases times a ninth variable: 90 facets, none of them
    # compact, and a walk over more than 500 faces
    ctx = RingContext(tuple(f"x{i}" for i in range(9)))
    a = MonomialIdeal.from_exponents(ctx, staircase_sum_rows(4))
    with pytest.raises(ResourceLimitError, match="walk visits more than 500"):
        analytic_spread(a)


def test_facet_checks_survive_python_optimize():
    # facets patched one level too high hold on no point of the facet, and a
    # facet patched to miss one of its points is tight on a point outside
    # its mask; the facet check must raise on both under -O as well
    out = run_python("""
        import sys
        import stci.invariants as inv
        from stci.parser import evaluate, parse
        if __debug__:
            sys.exit("not running under -O")
        facets = inv.newton_facets

        def raised(points, bound):
            return [(w, c + 1, mask) for w, c, mask in facets(points, bound)]

        def dropped(points, bound):
            (w, c, mask), *rest = facets(points, bound)
            return [(w, c, mask & mask - 1)] + rest

        for patched in (raised, dropped):
            inv.newton_facets = patched
            inv.clear_caches()
            try:
                inv.analytic_spread(evaluate(*parse("ring x,y; (x^2, x*y, y^3)")))
            except AssertionError as exc:
                print(exc)
    """, "-O")
    assert out.splitlines() == [
        "invariant violated: a facet is valid and tight exactly on its points"] * 2


def test_weight_check_survives_python_optimize():
    # (x*z, y^2*z) has no compact facet, so the walk runs and the weight
    # check takes a second matrix product; patched to drop a point from the
    # first face it returns, that check must raise under -O as well
    out = run_python("""
        import sys
        import stci.invariants as inv
        from stci.parser import evaluate, parse
        if __debug__:
            sys.exit("not running under -O")
        exposed_all = inv._exposed_all
        calls = []

        def dropped(weights, points):
            least, on = exposed_all(weights, points)
            calls.append(len(weights))
            if len(calls) == 2:
                on[0] &= on[0] - 1
            return least, on

        inv._exposed_all = dropped
        try:
            inv.analytic_spread(evaluate(*parse("ring x,y,z; (x*z, y^2*z)")))
        except AssertionError as exc:
            print(exc)
        print(len(calls))
    """, "-O")
    assert out.splitlines() == [
        "invariant violated: a compact face is the argmin of a strictly "
        "positive weight", "2"]


def compact_faces(a):
    """The faces ``invariants._compact_faces`` returns for the generators of
    ``a``, as ``{(points, dim): weight}``."""
    points = list(a.rows)
    out = {}
    for mask, weight in invariants._compact_faces(points).items():
        assert exposed(weight, points)[1] == mask
        pts = tuple(p for k, p in enumerate(points) if mask >> k & 1)
        out[(pts, invariants._affine_dim(list(pts)))] = weight
    return out


def assert_compact_faces_match_oracle(a):
    """Every face returned is a compact face of the Fourier-Motzkin oracle,
    exposed by its strictly positive weight, and the largest has the
    oracle's top dimension."""
    faces, oracle = compact_faces(a), compact_faces_oracle(a)
    assert set(faces) <= oracle, a
    assert all(min(w) > 0 for w in faces.values()), a
    assert max(d for _, d in faces) == max(d for _, d in oracle), a


def test_compact_faces_match_fourier_motzkin_oracle_seeded():
    ideals = seeded_mixed_degree_ideals(40, seed=13)
    for a in ideals + seeded_squarefree_ideals(20, seed=13):
        assert_compact_faces_match_oracle(a)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.integers(1, 5).flatmap(lambda n: rows_strategy(n, 3, 7)),
    st.integers(3, 6).flatmap(lambda n: squarefree_strategy(n, 7)),
))
def test_compact_faces_match_fourier_motzkin_oracle_drawn(rows):
    ctx = RingContext(tuple(f"x{i}" for i in range(len(rows[0]))))
    a = MonomialIdeal.from_exponents(ctx, rows)
    if not a.is_unit:
        assert_compact_faces_match_oracle(a)


def test_newton_polyhedron_structure():
    points = ((2, 0), (1, 1), (0, 3))
    faces = compact_faces(ideal(CTX2, *points))
    for (face_points, dim), weight in faces.items():
        assert dim <= 1
        values = [sum(w * x for w, x in zip(weight, p)) for p in points]
        face_values = [sum(w * x for w, x in zip(weight, p)) for p in face_points]
        assert len(set(face_values)) == 1
        assert min(values) == face_values[0]
        assert all(w >= 1 for w in weight)
    assert max(dim for _, dim in faces) + 1 == 2


def test_face_method_matches_rank_shortcut_for_equigenerated():
    rng = random.Random(5)
    for _ in range(15):
        deg = rng.randint(1, 3)
        rows = set()
        for _ in range(rng.randint(1, 4)):
            row = [0, 0, 0]
            for _ in range(deg):
                row[rng.randint(0, 2)] += 1
            rows.add(tuple(row))
        a = MonomialIdeal.from_exponents(CTX3, sorted(rows))
        if a.is_unit:
            continue
        face_value = 1 + max(dim for _, dim in compact_faces(a))
        assert analytic_spread(a) == face_value


def test_growth_oracle_examples():
    assert fiber_growth_oracle(two_planes(), 6) == (3, True, (1, 4, 9, 16, 25, 36, 49))
    est = fiber_growth_oracle(ideal(CTX2, (1, 0)), 5)
    assert est.value == 1 and est.stabilized
    est = fiber_growth_oracle(ideal(CTX2, (2, 0), (1, 1), (0, 3)), 8)
    assert est.value == 2 and est.stabilized


def test_growth_oracle_short_horizon_is_unstabilized():
    est = fiber_growth_oracle(triangle(), 3)
    assert est.value is None and not est.stabilized


@settings(max_examples=20)
@given(rows_strategy(3, 3, 4))
def test_analytic_spread_matches_growth_oracle(rows):
    a = MonomialIdeal.from_exponents(CTX3, rows)
    est = fiber_growth_oracle(a, 8)
    if est.stabilized:
        assert analytic_spread(a) == est.value


# ---------------------------------------------------------------------------
# Schmitt-Vogel bounds


def test_sv_two_planes():
    sv = schmitt_vogel_upper(two_planes())
    assert (cohomological_dimension(two_planes()), len(sv)) == (3, 3)
    assert is_valid_sv_partition(two_planes(), sv)
    assert len(sv[0]) == 1


def test_sv_regular_sequence():
    sv = schmitt_vogel_upper(ideal(CTX2, (1, 0), (0, 1)))
    assert (cohomological_dimension(ideal(CTX2, (1, 0), (0, 1))), len(sv)) == (2, 2)


def test_sv_triangle():
    sv = schmitt_vogel_upper(triangle())
    assert cohomological_dimension(triangle()) == 2
    assert len(sv) <= 3
    assert is_valid_sv_partition(triangle(), sv)
    # exhaustive search finds the classical two-level witness
    assert len(sv) == 2


def test_sv_greedy_fallback_still_valid(monkeypatch):
    rng = random.Random(3)
    rows = set()
    while len(rows) < 11:
        row = tuple(rng.randint(0, 3) for _ in range(4))
        if any(row):
            rows.add(row)
    a = MonomialIdeal.from_exponents(CTX4, sorted(rows))
    assert a.mu > 4
    monkeypatch.setattr(invariants, "SV_EXACT_BOUND", 4)
    # past the memo, which is keyed by the ideal alone
    sv = schmitt_vogel_upper.__wrapped__(a)
    assert len(sv) <= a.mu
    assert is_valid_sv_partition(a, sv)


def test_sv_greedy_stops_at_its_work_bound(monkeypatch):
    # the greedy search makes about mu^3 steps; past PAIR_CELL_BOUND it
    # raises before the pair table is built, and the exact search has no
    # such bound
    ctx = RingContext(tuple(f"x{i}" for i in range(11)))
    a = MonomialIdeal.from_exponents(
        ctx, [tuple(int(i != j) for i in range(11)) for j in range(11)])
    monkeypatch.setattr(invariants, "_pair_divisors", None)
    monkeypatch.setattr(invariants, "PAIR_CELL_BOUND", 11 ** 3 - 1)
    with pytest.raises(ResourceLimitError, match="greedy Schmitt-Vogel"):
        schmitt_vogel_upper.__wrapped__(a)
    monkeypatch.undo()
    monkeypatch.setattr(invariants, "PAIR_CELL_BOUND", 11 ** 3)
    assert is_valid_sv_partition(a, schmitt_vogel_upper.__wrapped__(a))
    monkeypatch.setattr(invariants, "PAIR_CELL_BOUND", 0)
    monkeypatch.setattr(invariants, "SV_EXACT_BOUND", 11)
    assert is_valid_sv_partition(a, schmitt_vogel_upper.__wrapped__(a))


def test_sv_search_computes_no_projective_dimension():
    # the partition is the whole result; cd, the lower end of the bracket,
    # is the caller's to compute
    invariants.clear_caches()
    schmitt_vogel_upper(triangle())
    assert proj_dim.cache_info().misses == 0


def seeded_squarefree_ideals(count: int, seed: int, max_gens: int = 9):
    """Squarefree ideals in 5-7 variables generated in degrees 2 and 3, each
    grown one random generator at a time until it has a drawn number of
    minimal generators."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(5, 7)
        ctx = RingContext(tuple(f"x{i}" for i in range(n)))
        target = rng.randint(2, max_gens)
        rows = []
        for _ in range(100):
            support = rng.sample(range(n), rng.randint(2, 3))
            rows.append(tuple(int(j in support) for j in range(n)))
            a = MonomialIdeal.from_exponents(ctx, rows)
            if a.mu == target:
                out.append(a)
                break
    return out


def assert_sv_matches_oracle(a):
    """The maximal-level search finds as few levels as the all-submask
    oracle, with a valid witness."""
    levels = invariants._sv_exact(a.mu, invariants._pair_divisors(a.rows))
    assert len(levels) == len(sv_levels_oracle(a)), a
    witness = tuple(
        tuple(r for i, r in enumerate(a.rows) if block >> i & 1) for block in levels
    )
    assert is_valid_sv_partition(a, witness), a


def test_pair_divisors_match_oracle_seeded():
    ideals = seeded_mixed_degree_ideals(60, seed=5) + seeded_squarefree_ideals(60, seed=5)
    # exponents up to 2^31 - 1, so no table may be indexed by an exponent
    ideals.append(evaluate_program(
        "ring x,y,z; (x^2147483647, x*y^2147483646, y*z^5, z^2147483647*x^3)"))
    for a in ideals:
        assert invariants._pair_divisors(a.rows) == pair_divisors_oracle(a.rows), a


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.integers(1, 6).flatmap(lambda n: rows_strategy(n, 4, 10)),
    st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(*[st.sampled_from((0, 1, 2**31 - 2, 2**31 - 1))] * n),
        min_size=1, max_size=8)),
))
def test_pair_divisors_match_oracle_drawn(rows):
    # rows may repeat or divide each other; the table is defined on any rows
    rows = tuple(rows)
    assert invariants._pair_divisors(rows) == pair_divisors_oracle(rows)


def test_sv_exact_matches_submask_oracle_seeded():
    ideals = seeded_mixed_degree_ideals(60, seed=5) + seeded_squarefree_ideals(60, seed=5)
    for a in ideals:
        assert_sv_matches_oracle(a)
    assert sum(a.mu >= 8 for a in ideals) >= 5
    # the level count is what ara reports, and it decides certification
    for a in ideals[::6]:
        sv = schmitt_vogel_upper(a)
        count = len(sv_levels_oracle(a))
        assert len(sv) == count, a


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.integers(2, 5).flatmap(lambda n: rows_strategy(n, 3, 9)),
    st.integers(3, 6).flatmap(lambda n: squarefree_strategy(n, 9)),
))
def test_sv_exact_matches_submask_oracle_drawn(rows):
    ctx = RingContext(tuple(f"x{i}" for i in range(len(rows[0]))))
    a = MonomialIdeal.from_exponents(ctx, rows)
    if a.mu >= 2:
        assert_sv_matches_oracle(a)


def test_sv_exact_pruned_layers_keep_the_level_bfs_length():
    # the search drops each mask inside another of its layer and stops at
    # the expansion that first reaches the full mask; the level-by-level
    # search it replaced finds as many levels, and the witness stays valid.
    # Dropped masks change the witness on some inputs
    ideals = (seeded_mixed_degree_ideals(150, seed=21)
              + seeded_squarefree_ideals(150, seed=21))
    assert sum(a.mu >= 8 for a in ideals) >= 10
    changed = 0
    for a in ideals:
        pair_div = invariants._pair_divisors(a.rows)
        levels = invariants._sv_exact(a.mu, pair_div)
        unpruned = sv_exact_level_bfs(a.mu, pair_div)
        assert len(levels) == len(unpruned), a
        witness = tuple(tuple(r for i, r in enumerate(a.rows)
                              if block >> i & 1) for block in levels)
        assert is_valid_sv_partition(a, witness), a
        changed += levels != unpruned
    assert changed >= 1


def test_sv_exact_maximal_mask_filter_keeps_every_partition():
    # each mask is tested against the layer's maximal masks alone, and the
    # kept masks stay in layer order, so every partition is the one the
    # pairwise filter gave, not only its length
    ideals = (seeded_mixed_degree_ideals(150, seed=33)
              + seeded_squarefree_ideals(150, seed=33))
    assert sum(a.mu >= 8 for a in ideals) >= 10
    for a in ideals:
        assert a.mu <= invariants.SV_EXACT_BOUND
        pair_div = invariants._pair_divisors(a.rows)
        assert invariants._sv_exact(a.mu, pair_div) == (
            sv_exact_pairwise_filter(a.mu, pair_div)), a


def brute_maximal_cliques(adj, vertices):
    members = [v for v in range(len(adj)) if vertices >> v & 1]
    cliques = [
        sum(1 << v for v in c)
        for k in range(1, len(members) + 1)
        for c in combinations(members, k)
        if all(adj[x] >> y & 1 for x, y in combinations(c, 2))
    ]
    return sorted(c for c in cliques if not any(c != d and c & d == c for d in cliques))


def test_maximal_cliques_match_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        size = rng.randint(1, 9)
        density = rng.random()
        adj = [0] * size
        for x, y in combinations(range(size), 2):
            if rng.random() < density:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
        vertices = rng.getrandbits(size) or 1
        # edges leaving the vertex set must not matter
        assert sorted(invariants._maximal_cliques(adj, vertices)) == (
            brute_maximal_cliques(adj, vertices)
        )


def test_sv_partition_check_survives_python_optimize():
    # _sv_exact patched to drop its last level leaves generators unplaced,
    # and the levels [x], [y, z] of (x, y, z) place every generator though
    # no earlier generator divides y*z; the partition check must raise on
    # both under -O as well
    script = textwrap.dedent("""
        import sys
        import stci.invariants as inv
        from stci.parser import evaluate, parse
        if __debug__:
            sys.exit("not running under -O")
        exact = inv._sv_exact
        inv._sv_exact = lambda mu, pair_div: exact(mu, pair_div)[:-1]
        a = evaluate(*parse("ring x,y,z; (x*y, x*z, y*z)"))
        try:
            inv.schmitt_vogel_upper(a)
        except AssertionError as exc:
            print(exc)
        a = evaluate(*parse("ring x,y,z; (x, y, z)"))
        index = a.generator_strings().index
        levels = [1 << index("x"), 1 << index("y") | 1 << index("z")]
        inv._sv_exact = lambda mu, pair_div: levels
        try:
            inv.schmitt_vogel_upper(a)
        except AssertionError as exc:
            print(exc)
    """)
    src = str(Path(stci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip().splitlines() == [
        "invariant violated: valid Schmitt-Vogel partition"] * 2


# ---------------------------------------------------------------------------
# min depth of powers / dg


def test_min_depth_examples():
    assert min_depth_powers(triangle(), 3) == 0
    assert min_depth_powers(two_planes(), 3) == 1
    # powers of a principal prime stay principal
    assert min_depth_powers(ideal(CTX3, (1, 0, 0)), 4) == 2


def test_dg_examples():
    assert dg(two_planes(), 3) == 0
    assert dg(triangle(), 3) == 1
    assert dg(ideal(CTX3, (1, 0, 0), (0, 1, 0)), 3) == 0


def test_min_depth_requires_positive_horizon():
    with pytest.raises(ValueError):
        min_depth_powers(triangle(), 0)


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(2), F32003], ids=str)
def test_min_depth_powers_matches_full_pd_oracle(monkeypatch, field):
    # each power after the first goes to proj_dim with the floor
    # n - (least depth so far); the oracle takes the full pd of every power.
    # The depths of the 6-cycle's powers drop only at t = 4
    c6 = over_field(cycle_ideal(6), field)
    assert [depth(c6 ** t) for t in range(1, 5)] == [2, 2, 2, 1]
    inputs = [c6] + [over_field(a, field) for a in
                     seeded_ideals(95, 8, 4, 2, range(3, 7))
                     + seeded_ideals(96, 6, 5, 1, range(4, 8))
                     + seeded_ideals(97, 6, 5, 2, range(3, 6))]
    floors = []
    real_walk = homology.koszul_proj_dim

    def recording_walk(a, floor=1):
        floors.append(floor)
        return real_walk(a, floor)

    monkeypatch.setattr(homology, "koszul_proj_dim", recording_walk)
    for a in inputs:
        invariants.clear_caches()
        got = [min_depth_powers(a, h) for h in range(1, 5)]
        invariants.clear_caches()
        assert got == [min_depth_powers_oracle(a, h) for h in range(1, 5)], a
    assert max(floors) >= 3


# ---------------------------------------------------------------------------
# assembled report


def test_report_two_planes():
    assert report(two_planes(), horizon=3) == {
        "invariants": {
            "mu": 4, "height": 2, "dim_quotient": 2, "depth": 1, "proj_dim": 3,
            "cd": 3, "fgrade": 1, "analytic_spread": 3,
            "ara": {"lower": 3, "upper": 3, "certified": True},
            "dg": {"value": 0, "horizon": 3, "certified": False},
            "min_depth_powers": {"value": 1, "horizon": 3},
        },
        "flags": {"squarefree": True, "cohen_macaulay": False,
                  "cohomologically_ci": False, "stci_certified": False},
    }


def test_report_maximal_ideal():
    assert report(ideal(CTX3, (1, 0, 0), (0, 1, 0), (0, 0, 1)), horizon=2) == {
        "invariants": {
            "mu": 3, "height": 3, "dim_quotient": 0, "depth": 0, "proj_dim": 3,
            "cd": 3, "fgrade": 0, "analytic_spread": 3,
            "ara": {"lower": 3, "upper": 3, "certified": True},
            "dg": {"value": 0, "horizon": 2, "certified": False},
            "min_depth_powers": {"value": 0, "horizon": 2},
        },
        "flags": {"squarefree": True, "cohen_macaulay": True,
                  "cohomologically_ci": True, "stci_certified": True},
    }


def test_report_triangle():
    # Cohen-Macaulay: depth 1 equals dim 1; the square has depth 0
    assert report(triangle(), horizon=3) == {
        "invariants": {
            "mu": 3, "height": 2, "dim_quotient": 1, "depth": 1, "proj_dim": 2,
            "cd": 2, "fgrade": 1, "analytic_spread": 3,
            "ara": {"lower": 2, "upper": 2, "certified": True},
            "dg": {"value": 1, "horizon": 3, "certified": False},
            "min_depth_powers": {"value": 0, "horizon": 3},
        },
        "flags": {"squarefree": True, "cohen_macaulay": True,
                  "cohomologically_ci": True, "stci_certified": True},
    }


def test_report_checks_survive_python_optimize():
    # analytic_spread patched to mu + 1 breaks cd <= l <= mu; under -O an
    # assert statement would be stripped, the explicit check must not be
    script = textwrap.dedent("""
        import sys
        import stci.invariants as inv
        from stci.parser import evaluate, parse
        if __debug__:
            sys.exit("not running under -O")
        inv.analytic_spread = lambda a: a.mu + 1
        a = evaluate(*parse("ring x,y,z; (x*y, x*z, y*z)"))
        try:
            inv.report(a, horizon=1)
        except AssertionError as exc:
            print(exc)
    """)
    src = str(Path(stci.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "invariant violated: cd <= analytic spread <= mu"


def test_report_depth_check_survives_python_optimize():
    # depth patched to n lies above fgrade = n - cd, which breaks
    # pd(R/rad a) <= pd(R/a); the check must raise under -O as well
    out = run_python("""
        import sys
        import stci.invariants as inv
        from stci.parser import evaluate, parse
        if __debug__:
            sys.exit("not running under -O")
        inv.depth = lambda a: a.context.n
        a = evaluate(*parse("ring x,y,z; (x^2*y, x*z, y*z)"))
        try:
            inv.report(a, horizon=1)
        except AssertionError as exc:
            print(exc)
    """, "-O")
    assert out == "invariant violated: depth <= fgrade"


def test_report_rejects_zero_and_unit():
    with pytest.raises(ValueError):
        report(CTX3.zero_ideal())
    with pytest.raises(ValueError):
        report(CTX3.unit_ideal())


# ---------------------------------------------------------------------------
# inequality properties on random ideals


@settings(max_examples=25)
@given(rows_strategy(4, 3, 4))
def test_chain_and_burch_properties(rows):
    a = MonomialIdeal.from_exponents(CTX4, rows)
    inv = report(a, horizon=3)["invariants"]
    md = inv["min_depth_powers"]["value"]
    assert inv["height"] <= inv["cd"] <= inv["ara"]["upper"] <= inv["mu"]
    assert inv["cd"] <= inv["analytic_spread"] <= inv["mu"]
    assert md <= inv["fgrade"]  # min depth of powers bound
    assert inv["analytic_spread"] <= 4 - md  # Burch
    assert inv["depth"] <= inv["fgrade"] <= inv["dim_quotient"]


@settings(max_examples=15)
@given(rows_strategy(3, 2, 3), st.sampled_from([2, 3]))
def test_bracket_power_depth_invariance(rows, q):
    a = MonomialIdeal.from_exponents(CTX3, rows)
    assert depth(a.bracket_power(q)) == depth(a)


@settings(max_examples=15)
@given(rows_strategy(3, 2, 4))
def test_prime_field_reports_same_chain(rows):
    ctx = RingContext(("x", "y", "z"), FieldSpec.prime(2))
    a = MonomialIdeal.from_exponents(ctx, rows)
    inv = report(a, horizon=2)["invariants"]
    assert inv["height"] <= inv["cd"] <= inv["ara"]["upper"] <= inv["mu"]
