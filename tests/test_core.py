"""Monomial and ideal arithmetic, checked against brute-force membership."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import stci.core as core
import stci.invariants as invariants
from stci.core import (
    MAX_EXPONENT,
    ContextMismatchError,
    FieldSpec,
    Monomial,
    MonomialIdeal,
    ResourceLimitError,
    RingContext,
    _minimal_exponent_rows,
)

from oracles import (
    MembershipOracle,
    monomials_up_to_degree,
    oracle_degree_bound,
    exponent_rows,
    from_rows,
    in_ideal,
    maximal_ideal,
)


CTX2 = RingContext(("x", "y"))
CTX3 = RingContext(("x", "y", "z"))


def ideal(ctx, *rows):
    return MonomialIdeal.from_exponents(ctx, rows)


def mono(ctx, row):
    return Monomial(ctx, row)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_minimalize_drops_divisible_generators():
    a = MonomialIdeal.from_generators(CTX3, [
        mono(CTX3, (2, 1, 0)),  # x^2 y
        mono(CTX3, (1, 1, 0)),  # x y
        mono(CTX3, (3, 0, 0)),  # x^3
    ])
    assert exponent_rows(a) == [(3, 0, 0), (1, 1, 0)]


def test_minimalize_empty_is_zero_ideal():
    z = CTX3.zero_ideal()
    assert z.is_zero and z.mu == 0
    assert MonomialIdeal.from_generators(CTX3, []) == z


def test_minimalize_removes_duplicates():
    a = MonomialIdeal.from_generators(CTX2, [mono(CTX2, (1, 1)), mono(CTX2, (1, 1))])
    assert a.mu == 1


def test_equal_ideals_built_separately_hash_equal():
    # the hash is cached on first use, so read it before and after building
    # the equal ideal, from generators in another order and by a power
    a = ideal(CTX3, (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))
    h = hash(a)
    b = ideal(RingContext(("x", "y", "z")),
              (0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0))
    c = maximal_ideal(CTX3) ** 2
    assert a == b == c and a is not b
    assert hash(a) == h == hash(b) == hash(c)
    assert {a: 1}[b] == 1 and c in {b}
    other = MonomialIdeal.from_exponents(
        RingContext(("x", "y", "z"), FieldSpec.prime(2)), a.exponent_matrix().tolist()
    )
    assert other != a


def test_mixed_contexts_rejected():
    other = RingContext(("x", "y", "z"), FieldSpec.prime(5))
    with pytest.raises(ContextMismatchError):
        ideal(CTX3, (1, 0, 0)) + MonomialIdeal.from_exponents(other, [(0, 1, 0)])
    with pytest.raises(ContextMismatchError):
        MonomialIdeal.from_generators(
            CTX3, [mono(CTX3, (1, 0, 0)), mono(other, (1, 0, 0))])


def test_unit_and_zero_flow_through_operations():
    unit = CTX2.unit_ideal()
    zero = CTX2.zero_ideal()
    a = ideal(CTX2, (1, 1))
    assert a + zero == a
    assert a * unit == a
    assert (a & unit) == a
    assert (a & zero) == zero
    assert a * zero == zero
    assert zero.radical() == zero
    assert unit.radical() == unit
    assert a.colon(CTX2.unit_monomial()) == a


# ---------------------------------------------------------------------------
# sum / product / power


def test_sum_examples():
    assert ideal(CTX2, (1, 0)) + ideal(CTX2, (0, 1)) == ideal(CTX2, (1, 0), (0, 1))
    assert ideal(CTX2, (2, 0)) + ideal(CTX2, (1, 0)) == ideal(CTX2, (1, 0))


def test_product_and_power_examples():
    assert ideal(CTX2, (1, 0)) * ideal(CTX2, (0, 1)) == ideal(CTX2, (1, 1))
    p = ideal(CTX2, (1, 0), (0, 1)) ** 2
    assert p == ideal(CTX2, (2, 0), (1, 1), (0, 2))
    with pytest.raises(ValueError):
        ideal(CTX2, (1, 0)) ** 0


def test_square_of_triangle_ideal_matches_prime_decomposition():
    tri = ideal(CTX3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
    rhs = (
        (ideal(CTX3, (1, 0, 0), (0, 1, 0)) ** 2)
        & (ideal(CTX3, (0, 1, 0), (0, 0, 1)) ** 2)
        & (ideal(CTX3, (1, 0, 0), (0, 0, 1)) ** 2)
        & ideal(CTX3, (2, 0, 0), (0, 2, 0), (0, 0, 2))
    )
    assert tri ** 2 == rhs


# ---------------------------------------------------------------------------
# intersection / colon / saturation / radical / bracket


def test_intersection_examples():
    a = ideal(CTX3, (1, 0, 0), (0, 1, 0)) & ideal(CTX3, (0, 1, 0), (0, 0, 1))
    assert a == ideal(CTX3, (0, 1, 0), (1, 0, 1))  # (y, xz)
    tri = (
        ideal(CTX3, (1, 0, 0), (0, 1, 0))
        & ideal(CTX3, (0, 1, 0), (0, 0, 1))
        & ideal(CTX3, (1, 0, 0), (0, 0, 1))
    )
    assert tri == ideal(CTX3, (1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert (tri & tri) == tri


def test_colon_and_saturation_examples():
    a = ideal(CTX2, (2, 0), (1, 1))
    assert a.colon(mono(CTX2, (1, 0))) == ideal(CTX2, (1, 0), (0, 1))
    assert a.saturate(ideal(CTX2, (1, 0), (0, 1))) == ideal(CTX2, (1, 0))
    assert a.colon(CTX2.unit_monomial()) == a


def test_radical_examples():
    assert ideal(CTX2, (2, 0), (1, 3)).radical() == ideal(CTX2, (1, 0))
    a = ideal(CTX3, (2, 2, 0), (0, 0, 2)).radical()
    assert a == ideal(CTX3, (1, 1, 0), (0, 0, 1))
    sf = ideal(CTX3, (1, 1, 0), (0, 0, 1))
    assert sf.radical() == sf


def test_bracket_power_examples():
    a = ideal(CTX3, (1, 1, 0), (0, 0, 1))
    assert a.bracket_power(2) == ideal(CTX3, (2, 2, 0), (0, 0, 2))
    assert a.bracket_power(2).radical() == (a ** 2).radical()
    assert a.bracket_power(1) == a
    with pytest.raises(ValueError):
        a.bracket_power(0)


def test_exponent_bound_at_and_past_the_limit():
    top = mono(CTX2, (MAX_EXPONENT, 1))
    assert top.exponents == (MAX_EXPONENT, 1)
    with pytest.raises(ResourceLimitError):
        mono(CTX2, (MAX_EXPONENT + 1, 0))
    with pytest.raises(ResourceLimitError):
        mono(CTX2, (0, 10**20))
    at_bound = ideal(CTX2, (MAX_EXPONENT, 0))
    with pytest.raises(ResourceLimitError):
        at_bound * at_bound
    with pytest.raises(ResourceLimitError):
        at_bound ** 2
    with pytest.raises(ResourceLimitError):
        at_bound.bracket_power(2)
    assert ideal(CTX2, (MAX_EXPONENT - 1, 0)) * ideal(CTX2, (1, 0)) == at_bound


def test_exponents_must_be_integers():
    # a float exponent raises instead of being truncated to an int
    with pytest.raises(TypeError):
        mono(CTX2, (1.7, 0))
    with pytest.raises(TypeError):
        MonomialIdeal.from_exponents(CTX2, [(2.9, 0), (0, 1)])
    # any integer passes, numpy's and bools included, and is stored as an int
    m = mono(CTX2, (np.int64(2), True))
    assert m.exponents == (2, 1) and all(type(e) is int for e in m.exponents)
    assert str(m) == "x^2*y" and str(mono(CTX2, (0, 0))) == "1"


@given(st.integers(0, MAX_EXPONENT), st.integers(0, MAX_EXPONENT))
def test_product_of_bounded_monomials_never_wraps(e, f):
    a, b = ideal(CTX2, (e, 1)), ideal(CTX2, (f, 0))
    if e + f <= MAX_EXPONENT:
        assert a * b == ideal(CTX2, (e + f, 1))
    else:
        with pytest.raises(ResourceLimitError):
            a * b


def naive_minimal_rows(rows):
    return sorted({
        r for r in rows
        if not any(s != r and all(x <= y for x, y in zip(s, r)) for s in rows)
    })


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=80))
def test_minimal_exponent_rows_matches_definition(rows):
    assert _minimal_exponent_rows(rows) == naive_minimal_rows(rows)


def test_minimal_exponent_rows_one_row_per_block():
    # about 1600 distinct rows in 4 variables: each block holds a single row
    rng = random.Random(3)
    rows = sorted({tuple(rng.randint(0, 30) for _ in range(4)) for _ in range(1600)})
    assert len(rows) * 4 > core.BLOCK_CELLS
    assert _minimal_exponent_rows(rows) == naive_minimal_rows(rows)


def test_product_of_one_degree_ideals_skips_dominance_pass():
    # two 200-generator ideals of degree 40 in 4 variables: the product's
    # ~28k distinct rows all have degree 80, so none can divide another and
    # minimalization must not compare them pairwise (that took 14 s)
    script = textwrap.dedent("""
        import random
        from stci.core import MonomialIdeal, RingContext
        ctx = RingContext(("a", "b", "c", "d"))
        rng = random.Random(0)
        def of_degree(count, degree):
            rows = set()
            while len(rows) < count:
                c = sorted(rng.randint(0, degree) for _ in range(3))
                rows.add((c[0], c[1] - c[0], c[2] - c[1], degree - c[2]))
            return MonomialIdeal.from_exponents(ctx, sorted(rows))
        a, b = of_degree(200, 40), of_degree(200, 40)
        products = {
            tuple(x + y for x, y in zip(g.exponents, h.exponents))
            for g in a.generators for h in b.generators
        }
        print((a * b).mu, len(products))
    """)
    src = str(Path(core.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=10, check=True,
    )
    mu, distinct = map(int, done.stdout.split())
    assert mu == distinct > 25000


def test_pair_cell_bound_on_products_and_intersections(monkeypatch):
    monkeypatch.setattr(core, "PAIR_CELL_BOUND", 18)
    m = maximal_ideal(CTX3)
    pair = ideal(CTX3, (1, 0, 0), (0, 1, 0))
    assert pair * m == ideal(
        CTX3, (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)
    )
    assert (pair & m) == pair
    with pytest.raises(ResourceLimitError, match="pairs"):
        m * m
    with pytest.raises(ResourceLimitError, match="pairs"):
        m & m
    with pytest.raises(ResourceLimitError, match="pairs"):
        m ** 2


def test_membership_examples():
    xy = ideal(CTX3, (1, 1, 0))
    assert mono(CTX3, (1, 1, 1)) in xy
    squares = ideal(CTX3, (2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert mono(CTX3, (1, 1, 1)) not in squares
    assert ideal(CTX3, (1, 1, 0)).contains_ideal(CTX3.zero_ideal())


# ---------------------------------------------------------------------------
# property tests


def rows_strategy(n, max_exp=3, max_gens=4):
    row = st.tuples(*[st.integers(0, max_exp)] * n).filter(any)
    return st.lists(row, min_size=1, max_size=max_gens)


def ideal_strategy(ctx, max_exp=3, max_gens=4):
    return rows_strategy(ctx.n, max_exp, max_gens).map(
        lambda rows: MonomialIdeal.from_exponents(ctx, rows)
    )


@given(ideal_strategy(CTX3), ideal_strategy(CTX3), ideal_strategy(CTX3))
def test_sum_and_intersection_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a & b) == (b & a)
    assert ((a & b) & c) == (a & (b & c))
    assert a + CTX3.zero_ideal() == a
    assert (a & CTX3.unit_ideal()) == a


@given(ideal_strategy(CTX3, max_exp=2, max_gens=3),
       ideal_strategy(CTX3, max_exp=2, max_gens=3),
       ideal_strategy(CTX3, max_exp=2, max_gens=3))
def test_product_distributes_over_sum(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(ideal_strategy(CTX2, max_exp=2, max_gens=3),
       st.integers(1, 3), st.integers(1, 3))
def test_power_additivity(a, m, n):
    assert a ** (m + n) == (a ** m) * (a ** n)


@given(ideal_strategy(CTX3, max_exp=2, max_gens=3), st.integers(1, 3))
def test_bracket_power_sandwich(a, q):
    bracket = a.bracket_power(q)
    assert (a ** q).contains_ideal(bracket)
    assert bracket.contains_ideal(a ** (a.mu * q))
    assert bracket.contains_ideal(a ** (a.mu * (q - 1) + 1))
    assert bracket.radical() == (a ** q).radical()


def test_pigeonhole_power_is_the_least_that_always_fits():
    # (x, y)^2 holds x*y, which is not in (x^2, y^2): mu(q - 1) = 2 is too small
    a = ideal(CTX2, (1, 0), (0, 1))
    bracket = a.bracket_power(2)
    assert not bracket.contains_ideal(a ** (a.mu * (2 - 1)))
    assert bracket.contains_ideal(a ** (a.mu * (2 - 1) + 1))


@given(ideal_strategy(CTX3, max_exp=2, max_gens=4), ideal_strategy(CTX3, max_exp=2, max_gens=4))
def test_built_exponents_are_python_ints(a, b):
    # JSON witnesses print exponents, and json refuses numpy integers
    built = [a * b, a & b, a ** 2, a.radical(), invariants._restrict(a, {0, 2}),
             a.colon(mono(CTX3, (1, 0, 2))), a.bracket_power(3)]
    for c in built:
        assert all(type(e) is int for r in c.rows for e in r)
        assert all(type(e) is int for g in c.generators for e in g.exponents)


@given(ideal_strategy(CTX3, max_exp=2, max_gens=4), ideal_strategy(CTX3, max_exp=2, max_gens=4))
def test_operations_build_no_monomials(a, b):
    # an ideal is its rows; its generators are built only when asked for
    # (the radical memo may hold an ideal whose generators an earlier example read)
    invariants.clear_caches()
    built = [a * b, a ** 2, a & b, a + b, a.radical(),
             a.colon(mono(CTX3, (1, 0, 2))), a.bracket_power(2)]
    assert not any("generators" in vars(c) for c in built)
    for c in built:
        matrix = c.exponent_matrix().tolist()
        assert [g.exponents for g in c.generators] == list(c.rows)
        assert [list(r) for r in c.rows] == matrix
    for c in (a, b):
        rows = list(c.rows)
        ways = [
            MonomialIdeal.from_exponents(CTX3, rows[::-1]),
            MonomialIdeal.from_generators(CTX3, [mono(CTX3, r) for r in rows]),
            MonomialIdeal._from_rows(CTX3, rows + rows),
        ]
        for d in ways:
            assert d == c and hash(d) == hash(c) and d.rows == c.rows


def test_exponent_matrix_is_read_only_and_built_once():
    a = ideal(CTX2, (2, 0), (1, 1))
    matrix = a.exponent_matrix()
    assert matrix.tolist() == [[2, 0], [1, 1]]
    assert a.exponent_matrix() is matrix
    with pytest.raises(ValueError):
        matrix[0, 0] = 5
    assert CTX2.zero_ideal().exponent_matrix().shape == (0, 2)


def test_contains_ideal_across_blocks(monkeypatch):
    # one row per block: the answer must not depend on where blocks split
    rng = random.Random(5)
    for _ in range(40):
        a = ideal(CTX3, *[tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(4)])
        b = ideal(CTX3, *[tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(5)])
        rows = [g.exponents for g in a.generators]
        want = all(in_ideal(rows, g.exponents) for g in b.generators)
        assert a.contains_ideal(b) == want
        monkeypatch.setattr(core, "BLOCK_CELLS", 1)
        assert a.contains_ideal(b) == want
        monkeypatch.undo()
    zero = CTX3.zero_ideal()
    assert a.contains_ideal(zero) and zero.contains_ideal(zero)
    assert not zero.contains_ideal(a)


@given(ideal_strategy(CTX3))
def test_radical_is_squarefree_and_idempotent(a):
    r = a.radical()
    assert r.is_squarefree
    assert r.radical() == r


@given(rows_strategy(3))
def test_canonical_form_round_trip(rows):
    a = MonomialIdeal.from_exponents(CTX3, rows)
    shuffled = MonomialIdeal.from_exponents(CTX3, list(reversed(rows)) + rows)
    assert a == shuffled
    assert a.generators == shuffled.generators
    rebuilt = CTX3.zero_ideal()
    for g in a.generators:
        rebuilt = rebuilt + MonomialIdeal.from_generators(CTX3, [g])
    assert rebuilt == a


# ---------------------------------------------------------------------------
# oracle equivalence: membership decided monomial by monomial


@given(rows_strategy(3, max_exp=3, max_gens=3), rows_strategy(3, max_exp=3, max_gens=3))
def test_sum_product_intersection_match_oracle(rows_a, rows_b):
    a = from_rows(CTX3, rows_a)
    b = from_rows(CTX3, rows_b)
    oracle = MembershipOracle(exponent_rows(a), exponent_rows(b))
    bound = oracle_degree_bound([exponent_rows(a), exponent_rows(b)])
    bound = min(bound, 7)
    s, p, i = a + b, a * b, a & b
    for m in monomials_up_to_degree(3, bound):
        mm = Monomial(CTX3, m)
        assert (mm in s) == oracle.in_sum(m)
        assert (mm in p) == oracle.in_product(m)
        assert (mm in i) == oracle.in_intersection(m)


@given(rows_strategy(3, max_exp=3, max_gens=3),
       st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
def test_colon_and_radical_match_oracle(rows_a, by):
    a = from_rows(CTX3, rows_a)
    oracle = MembershipOracle(exponent_rows(a))
    bound = min(oracle_degree_bound([exponent_rows(a)]), 6)
    c = a.colon(Monomial(CTX3, by))
    r = a.radical()
    for m in monomials_up_to_degree(3, bound):
        mm = Monomial(CTX3, m)
        assert (mm in c) == oracle.in_colon(m, by)
        assert (mm in r) == oracle.in_radical(m)


@given(rows_strategy(2, max_exp=3, max_gens=3), rows_strategy(2, max_exp=2, max_gens=2))
def test_saturation_matches_oracle(rows_a, rows_b):
    a = from_rows(CTX2, rows_a)
    b = from_rows(CTX2, rows_b)
    oracle = MembershipOracle(exponent_rows(a))
    sat = a.saturate(b)
    for m in monomials_up_to_degree(2, 6):
        mm = Monomial(CTX2, m)
        assert (mm in sat) == oracle.in_saturation(m, exponent_rows(b))


@given(rows_strategy(3, max_exp=2, max_gens=3), st.integers(1, 3))
def test_power_matches_oracle(rows_a, k):
    a = from_rows(CTX3, rows_a)
    oracle = MembershipOracle(exponent_rows(a))
    p = a ** k
    for m in monomials_up_to_degree(3, 6):
        mm = Monomial(CTX3, m)
        assert (mm in p) == oracle.in_power(m, k)


FIXED_ORACLE_IDEALS = [
    [(2, 1, 0), (0, 0, 3)],
    [(1, 1, 0), (0, 1, 1)],
    [(3, 0, 0), (1, 1, 1)],
    [(0, 2, 0), (1, 0, 2)],
]


@pytest.mark.parametrize("rows_a", FIXED_ORACLE_IDEALS)
@pytest.mark.parametrize("rows_b", FIXED_ORACLE_IDEALS)
def test_oracle_equivalence_at_stated_degree_bound(rows_a, rows_b):
    # the full reproducible bound: (max generator degree) x (operands + 1)
    a = from_rows(CTX3, rows_a)
    b = from_rows(CTX3, rows_b)
    oracle = MembershipOracle(exponent_rows(a), exponent_rows(b))
    bound = oracle_degree_bound([exponent_rows(a), exponent_rows(b)])
    s, p, i = a + b, a * b, a & b
    for m in monomials_up_to_degree(3, bound):
        mm = Monomial(CTX3, m)
        assert (mm in s) == oracle.in_sum(m)
        assert (mm in p) == oracle.in_product(m)
        assert (mm in i) == oracle.in_intersection(m)


def test_membership_definition_agrees_with_divisibility():
    rows = [(1, 1, 0), (0, 2, 1)]
    a = from_rows(CTX3, rows)
    for m in monomials_up_to_degree(3, 5):
        assert (Monomial(CTX3, m) in a) == in_ideal(rows, m)
