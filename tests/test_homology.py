"""Exact rank, simplicial homology, the Taylor complex and the lattice
search, against the oracles and the multigraded Betti numbers of the
lattice walk."""

import copy
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stci import homology, invariants
from stci.core import FieldSpec, MonomialIdeal, ResourceLimitError, RingContext
from stci.decomposition import irreducible_decomposition
from stci.homology import (
    ChainComplex,
    koszul_proj_dim,
    lcm_lattice,
    local_cohomology_nonvanishing,
    rank,
    socle_proj_dim,
    taylor_homology,
    taylor_proj_dim,
)

from oracles import (
    RP2_FACETS,
    SimplicialComplex,
    betti_numbers_oracle,
    boundary_chain_complex,
    brute_betti,
    dense_rank_fraction,
    dense_rank_mod,
    koszul_betti,
    koszul_betti_totals,
    lattice_betti_oracle,
    lcm_lattice_oracle,
    local_cohomology_oracle,
    maximal_ideal,
    over_field,
    reduced_homology_ranks,
    rp2_ideal,
    socle_oracle,
    sparse_matmul,
    stanley_reisner_complex,
    taylor_chain_complex,
    upper_koszul_complex,
    validate_chain_complex,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)

CTX1 = RingContext(("x",))
CTX2 = RingContext(("x", "y"))
CTX3 = RingContext(("x", "y", "z"))
CTX4 = RingContext(("x", "y", "z", "w"))


def ideal(ctx, *rows):
    return MonomialIdeal.from_exponents(ctx, rows)


def triangle():
    return ideal(CTX3, (1, 1, 0), (1, 0, 1), (0, 1, 1))


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([]) == 0
    assert rank(np.array([[1, 2], [2, 4]], dtype=np.int64)) == 1
    assert rank(np.array([[2, 0], [0, 2]], dtype=np.int64), F2) == 0
    assert rank(np.zeros((0, 3), dtype=np.int64)) == 0


def test_rank_with_fractions_and_prime_fields():
    # ranks are exact: non-integer entries are refused, never truncated
    for m in (
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]],
        [[0.5, 1], [1, 2]],
        np.array([[0.5, 1.0], [1.0, 2.0]]),
    ):
        for field in (Q, F2):
            with pytest.raises(TypeError):
                rank(m, field)
    with pytest.raises(TypeError):
        rank([[0.4]], F2)
    # [[1,2],[2,4]] over F2 reduces to [[1,0],[0,0]]
    assert rank([[1, 2], [2, 4]], F2) == 1
    assert rank([[2, 0], [0, 2]], F2) == 0
    assert rank([[2, 0], [0, 2]], F3) == 2


def test_rank_against_dense_oracle_random():
    rng = random.Random(11)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [
            [rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)
        ]
        assert rank(rows) == dense_rank_fraction(rows)
        q = rng.choice([2, 3, 5])
        assert rank(rows, FieldSpec.prime(q)) == dense_rank_mod(rows, q)


def test_eliminate_leaves_its_rows_unchanged():
    rng = random.Random(5)
    for _ in range(40):
        rows = {
            i: {j: v for j in range(5) if (v := rng.randint(-3, 3))}
            for i in range(rng.randint(1, 6))
        }
        before = copy.deepcopy(rows)
        dense = [[rows[i].get(j, 0) for j in range(5)] for i in sorted(rows)]
        assert homology._eliminate(rows, None) == dense_rank_fraction(dense)
        assert homology._eliminate(rows, 3) == dense_rank_mod(dense, 3)
        assert rows == before


def seeded_sparse_matrices(seed, count):
    """Integer matrices up to 10 x 10 of three kinds: sparse draws, products
    of two thin factors, which lose rank, and twice a draw plus a sparse
    pattern of odd entries, whose rank over F_2 is mostly below the rational
    one."""
    rng = random.Random(seed)
    out = [[[1, 1], [1, -1]], [[2, 0], [0, 2]], [[1, 1, 0], [1, -1, 0], [0, 0, 3]]]
    while len(out) < count:
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        kind = rng.randrange(3)
        if kind == 0:
            density = rng.random()
            m = [[rng.randint(-3, 3) if rng.random() < density else 0
                  for _ in range(ncols)] for _ in range(nrows)]
        elif kind == 1:
            inner = rng.randint(1, min(nrows, ncols))
            right = [[rng.randint(-2, 2) for _ in range(ncols)]
                     for _ in range(inner)]
            m = [[sum(rng.randint(-2, 2) * r[j] for r in right)
                  for j in range(ncols)] for _ in range(nrows)]
        else:
            m = [[2 * rng.randint(-2, 2) + (rng.random() < 0.2)
                  for _ in range(ncols)] for _ in range(nrows)]
        out.append(m)
    return out


def test_rank_matches_oracles_over_q_f2_and_a_large_prime():
    fp = FieldSpec.prime(32003)
    assert rank([[1, 1], [1, -1]]) == 2 and rank([[1, 1], [1, -1]], F2) == 1
    below = 0
    for m in seeded_sparse_matrices(7, 200):
        q_rank, f2_rank = dense_rank_fraction(m), dense_rank_mod(m, 2)
        assert rank(m) == q_rank, m
        assert rank(m, F2) == f2_rank, m
        assert rank(m, fp) == dense_rank_mod(m, 32003), m
        below += f2_rank < q_rank
        # a caller's upper bound, tight or not, leaves the rank exact
        rows = {i: {j: v for j, v in enumerate(row) if v}
                for i, row in enumerate(m)}
        for bound in (q_rank, q_rank + 1):
            assert homology._eliminate(rows, None, bound) == q_rank, m
        assert homology._eliminate(rows, 2, f2_rank) == f2_rank, m
    assert below >= 30


FP = FieldSpec.parse("fp:32003")


def seeded_unit_matrices(seed, count):
    """The boundary maps D_0, D_1, D_2 of the real projective plane, whose
    D_2 has rank 10 over the rationals and 9 over F_2, then sparse matrices up to 12 x 12
    with entries in {-1, 0, 1}."""
    cc = boundary_chain_complex(SimplicialComplex.from_facets(6, RP2_FACETS))
    out = [[[d.get(i, {}).get(j, 0) for j in range(cc.dims[k])]
            for i in range(cc.dims[k - 1])] for k, d in sorted(cc.diffs.items())]
    rng = random.Random(seed)
    while len(out) < count:
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.random()
        out.append([[rng.choice((-1, 1)) if rng.random() < density else 0
                     for _ in range(ncols)] for _ in range(nrows)])
    return out


def sparse_rows(m):
    return {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(m)}


def unit_rank(units, cap):
    """The rank that the +-1 elimination finds, or None when an entry would
    leave {-1, 0, 1} first."""
    pivots, k = homology._unit_rank(units, cap)
    return len(pivots) if k == len(units) else None


def test_unit_rank_matches_dense_oracles_over_every_field():
    # while no entry leaves {-1, 0, 1} the unit elimination is the one rank
    # over Q, F_2, F_3 and F_32003; RP^2's D_2 has two ranks, so it must
    # overflow
    rp2_d2 = seeded_unit_matrices(0, 0)[2]
    assert dense_rank_fraction(rp2_d2) == 10 and dense_rank_mod(rp2_d2, 2) == 9
    finished = overflowed = 0
    for m in seeded_unit_matrices(13, 300):
        expected = {None: dense_rank_fraction(m), 2: dense_rank_mod(m, 2),
                    3: dense_rank_mod(m, 3), 32003: dense_rank_mod(m, 32003)}
        for q, want in expected.items():
            field = Q if q is None else FieldSpec.prime(q)
            assert rank(m, field) == want, (m, q)
        rows = sparse_rows(m)
        for q in expected:
            assert homology._unit_masks(rows, q) is not None
        got = unit_rank(homology._unit_masks(rows, None), len(rows))
        if got is None:
            overflowed += 1
        else:
            assert set(expected.values()) == {got}, m
            finished += 1
        if m is rp2_d2:
            assert got is None
    assert finished >= 100 and overflowed >= 20
    # a row whose leading entry has the pivot's opposite sign takes the
    # negated pivot, so these finish; [[1, 1], [-1, 1]] has two ranks
    for m, want in (([[1, 1], [-1, -1]], 1), ([[1, -1, 0], [-1, 0, 1], [0, 1, -1]], 2),
                    ([[1, 1], [-1, 1]], None)):
        assert unit_rank(homology._unit_masks(sparse_rows(m), None), 3) == want
    # entries are +-1 mod q: q - 1 is -1 over F_q
    assert homology._unit_masks({0: {0: 32002, 2: 1}, 1: {1: -32004}}, 32003) == [
        (0b100, 0b1), (0, 0b10)]
    assert homology._unit_masks({0: {0: 2, 1: 1}}, None) is None


def test_row_rank_runs_only_after_an_overflow(monkeypatch):
    outcomes, loops = [], []
    real_unit_rank, real_row_rank = homology._unit_rank, homology._row_rank

    def recording_unit_rank(rows, cap):
        found, k = real_unit_rank(rows, cap)
        outcomes.append(len(found) if k == len(rows) else None)
        return found, k

    def counting_row_rank(rows, q, cap, pivots):
        loops.append(q)
        return real_row_rank(rows, q, cap, pivots)

    monkeypatch.setattr(homology, "_unit_rank", recording_unit_rank)
    monkeypatch.setattr(homology, "_row_rank", counting_row_rank)
    overflows = {None: 0, 3: 0, 32003: 0}
    for m in seeded_unit_matrices(14, 200):
        rows = sparse_rows(m)
        for q in overflows:
            outcomes.clear()
            loops.clear()
            expected = dense_rank_fraction(m) if q is None else dense_rank_mod(m, q)
            assert homology._eliminate(rows, q) == expected, (m, q)
            # over Q the F_2 certificate can settle the rank before either
            assert len(outcomes) <= 1
            assert loops == [q] * outcomes.count(None), (m, q)
            overflows[q] += outcomes.count(None)
        outcomes.clear()
        loops.clear()
        homology._eliminate(rows, 2)
        assert outcomes == [] and loops == []
    assert min(overflows.values()) >= 10
    # an entry that is not +-1 goes to the loop without the unit elimination
    outcomes.clear()
    loops.clear()
    assert homology._eliminate({0: {0: 2, 1: 1}, 1: {0: 1}}, 32003) == 2
    assert outcomes == [] and loops == [32003]


def test_row_rank_resumes_from_the_unit_pivots(monkeypatch):
    # after an overflow at row k the sparse loop starts from the +-1 pivots
    # found in rows 0..k-1 and takes exactly the rows from k on, row k as
    # given; the rank is still that of the dense oracles
    calls = []
    real_unit_rank, real_row_rank = homology._unit_rank, homology._row_rank

    def recording_unit_rank(rows, cap):
        found, k = real_unit_rank(rows, cap)
        calls.append((dict(found), k))
        return found, k

    def recording_row_rank(rows, q, cap, pivots):
        rows = list(rows)
        calls.append((rows, copy.deepcopy(pivots)))
        return real_row_rank(rows, q, cap, pivots)

    monkeypatch.setattr(homology, "_unit_rank", recording_unit_rank)
    monkeypatch.setattr(homology, "_row_rank", recording_row_rank)
    resumed = {None: 0, 3: 0, 32003: 0}
    carried = 0
    for m in seeded_unit_matrices(15, 200):
        rows = sparse_rows(m)
        for q in resumed:
            calls.clear()
            expected = dense_rank_fraction(m) if q is None else dense_rank_mod(m, q)
            assert homology._eliminate(rows, q) == expected, (m, q)
            if len(calls) < 2:
                continue
            (found, k), (given, pivots) = calls
            assert k < len(rows)
            assert [id(r) for r in given] == [id(r) for r in list(rows.values())[k:]]
            # the +-1 pivots as they were found, one per leading column
            assert pivots.keys() == found.keys()
            for top, row in pivots.items():
                pos, neg = found[top]
                assert max(row) == top and set(row.values()) <= {1, -1}
                assert sum(1 << j for j, v in row.items() if v == 1) == pos
                assert sum(1 << j for j, v in row.items() if v == -1) == neg
            assert len(pivots) == dense_rank_fraction(m[:k])
            resumed[q] += 1
            carried += bool(pivots)
    assert min(resumed.values()) >= 50 and carried >= 100


def random_boundary_maps(seed):
    """D_2 of seeded random 2-complexes and D_3 of seeded random
    3-complexes, up to 120 x 300, as built for the pd walk, then RP^2's
    D_2, whose rank is 10 over every field but F_2."""
    rng = random.Random(seed)
    out = []
    for n, k, count in ((8, 3, 20), (10, 4, 40), (12, 3, 110), (16, 3, 420),
                        (10, 4, 120), (10, 4, 200)):
        tops = {sum(1 << v for v in rng.sample(range(n), k)) for _ in range(count)}
        out.append(homology._boundary_complex(homology._down_closure(tops)).diffs[k - 1])
    cc = boundary_chain_complex(SimplicialComplex.from_facets(6, RP2_FACETS))
    out.append(cc.diffs[2])
    return out


def test_row_rank_on_boundary_maps_of_random_complexes():
    sizes = []
    maps = random_boundary_maps(16)
    for rows in maps:
        ncols = 1 + max(j for row in rows.values() for j in row)
        dense = [[rows[i].get(j, 0) for j in range(ncols)] for i in sorted(rows)]
        sizes.append((len(dense), ncols))
        for q in (3, 32003):
            got = homology._row_rank(rows.values(), q, len(rows), {})
            assert got == dense_rank_mod(dense, q), (len(dense), ncols, q)
        if len(dense) * ncols <= 6000:
            assert homology._row_rank(rows.values(), None, len(rows), {}) == \
                dense_rank_fraction(dense)
    assert any(r >= 100 and c >= 250 for r, c in sizes) and sizes[-1] == (15, 10)
    rp2_d2 = maps[-1]
    assert homology._row_rank(rp2_d2.values(), None, 15, {}) == 10
    assert homology._row_rank(rp2_d2.values(), 2, 15, {}) == 9


def test_rp2_runs_the_exact_loop_over_q_and_never_over_f2(monkeypatch):
    # H_1(RP^2; Z) = Z/2: over F_2 the reduced homology is F_2 in degrees 1
    # and 2, over Q it is zero.  So over Q the F_2 rank of D_2 misses its
    # bound and only the exact loop can give the rank
    loops = []
    real_row_rank = homology._row_rank

    def counting_row_rank(rows, q, cap, pivots):
        loops.append(q)
        return real_row_rank(rows, q, cap, pivots)

    monkeypatch.setattr(homology, "_row_rank", counting_row_rank)
    cc = boundary_chain_complex(SimplicialComplex.from_facets(6, RP2_FACETS))
    assert cc.homology_ranks(F2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert loops == []
    assert cc.homology_ranks(Q) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert loops and set(loops) == {None}

    loops.clear()
    a = rp2_ideal()
    invariants.clear_caches()
    assert invariants.proj_dim(over_field(a, F2)) == 4
    assert loops == []
    assert invariants.proj_dim(a) == 3
    assert loops and set(loops) == {None}


def test_sparse_matrix_matmul():
    a = {0: {0: 1, 1: 2}, 1: {1: 1}}
    b = {0: {0: 1}, 1: {0: 3, 1: 1}}
    assert sparse_matmul(a, b) == {0: {0: 7, 1: 2}, 1: {0: 3, 1: 1}}
    # zero entries and zero rows are left out
    c = sparse_matmul({0: {0: 1, 1: 1}, 1: {1: 2}}, {0: {0: 1}, 1: {0: -1}})
    assert c == {1: {0: -2}}


# ---------------------------------------------------------------------------
# simplicial complexes and reduced homology


def test_void_and_irrelevant_conventions():
    void = SimplicialComplex.void()
    irrelevant = SimplicialComplex.irrelevant()
    assert void.is_void and not void.is_irrelevant
    assert irrelevant.is_irrelevant and not irrelevant.is_void
    assert reduced_homology_ranks(void) == {}
    assert reduced_homology_ranks(irrelevant) == {-1: 1}


def test_hollow_triangle_is_a_circle():
    k = SimplicialComplex.from_facets(3, [(0, 1), (1, 2), (0, 2)])
    h = reduced_homology_ranks(k)
    assert h == {-1: 0, 0: 0, 1: 1}


def test_two_isolated_vertices():
    k = SimplicialComplex.from_facets(2, [(0,), (1,)])
    assert reduced_homology_ranks(k) == {-1: 0, 0: 1}


def test_filled_triangle_is_contractible():
    k = SimplicialComplex.from_facets(3, [(0, 1, 2)])
    assert all(v == 0 for v in reduced_homology_ranks(k).values())


def test_link_and_downward_closure():
    k = SimplicialComplex.from_facets(4, [(0, 1, 2), (2, 3)])
    assert frozenset((0, 1)) in k.faces
    link = k.link([2])
    assert frozenset((0, 1)) in link.faces and frozenset((3,)) in link.faces


def random_complex(rng):
    n = rng.randint(1, 5)
    facets = [
        tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        for _ in range(rng.randint(1, 4))
    ]
    return SimplicialComplex.from_facets(n, facets)


def test_boundary_squared_zero_and_euler_characteristic():
    rng = random.Random(23)
    for _ in range(40):
        k = random_complex(rng)
        cc = boundary_chain_complex(k)
        validate_chain_complex(cc)
        h = reduced_homology_ranks(k)
        euler_faces = sum((-1) ** (len(f) - 1) for f in k.faces)
        euler_homology = sum((-1) ** i * r for i, r in h.items())
        assert euler_faces == euler_homology


def test_homology_ranks_ranks_each_differential_once(monkeypatch):
    ranked = []
    real_eliminate = homology._eliminate

    def counting_eliminate(rows, q, bound=None):
        ranked.append(id(rows))
        return real_eliminate(rows, q, bound)

    monkeypatch.setattr(homology, "_eliminate", counting_eliminate)
    k = SimplicialComplex.from_facets(5, [(0, 1, 2), (1, 2, 3), (3, 4), (0, 4)])
    cc = boundary_chain_complex(k)
    h = cc.homology_ranks(Q)
    assert sorted(ranked) == sorted(id(d) for d in cc.diffs.values())
    assert h == {-1: 0, 0: 0, 1: 1, 2: 0}


# ---------------------------------------------------------------------------
# Taylor complex


def test_taylor_examples():
    assert taylor_homology(triangle()) == {0: 1, 1: 3, 2: 2}
    assert taylor_homology(ideal(CTX1, (1,))) == {0: 1, 1: 1}
    assert taylor_homology(ideal(CTX2, (1, 0), (0, 1))) == {0: 1, 1: 2, 2: 1}


def test_taylor_resource_bound(monkeypatch):
    monkeypatch.setattr(homology, "TAYLOR_GENERATOR_BOUND", 2)
    with pytest.raises(ResourceLimitError, match="koszul"):
        taylor_homology(triangle())


def test_chain_complex_rejects_bad_boundaries():
    bad = ChainComplex(
        dims={0: 1, 1: 1, 2: 1},
        diffs={1: {0: {0: 1}}, 2: {0: {0: 1}}},
    )
    with pytest.raises(ValueError, match="boundary squared"):
        validate_chain_complex(bad)
    # D_2 as the 2 x 1 matrix [[0], [1]], while C_1 has dimension 1
    mismatched = ChainComplex(
        dims={0: 2, 1: 1, 2: 1},
        diffs={1: {0: {0: 1}}, 2: {1: {0: 1}}},
    )
    with pytest.raises(ValueError, match="compose"):
        validate_chain_complex(mismatched)


def test_taylor_chain_complex_composes_to_zero():
    ideals = [triangle(), ideal(CTX2, (2, 0), (1, 1), (0, 3))]
    rng = random.Random(29)
    while len(ideals) < 24:
        ctx = rng.choice([CTX3, CTX4])
        # monomials of one degree, which are minimal, plus a few of any degree
        degree = rng.randint(2, 3)
        cube = product(range(degree + 1), repeat=ctx.n)
        level = [e for e in cube if sum(e) == degree]
        rows = rng.sample(level, rng.randint(1, min(8, len(level))))
        rows += [tuple(rng.randint(0, 2) for _ in range(ctx.n))
                 for _ in range(rng.randint(0, 2))]
        a = MonomialIdeal.from_exponents(ctx, [r for r in rows if any(r)])
        if a.mu <= 8:
            ideals.append(a)
    assert max(a.mu for a in ideals) >= 7
    for a in ideals:
        cc = taylor_chain_complex(a)
        validate_chain_complex(cc)
        for field in (Q, F2):
            h = cc.homology_ranks(field)
            expected = taylor_homology(over_field(a, field))
            assert {i: r for i, r in h.items() if r} == expected


# ---------------------------------------------------------------------------
# lcm lattice and upper-Koszul path


def test_principal_ideal_upper_koszul_is_irrelevant():
    a = ideal(CTX1, (2,))
    assert lcm_lattice(a).tolist() == [[2]]
    assert upper_koszul_complex(a, (2,)).is_irrelevant
    assert koszul_betti(a) == {(0, (0,)): 1, (1, (2,)): 1}


def test_lattice_size_bound(monkeypatch):
    assert len(lcm_lattice(triangle())) == 4
    monkeypatch.setattr(homology, "LATTICE_SIZE_BOUND", 3)
    # the triangle's grid enumeration would never build the lattice
    monkeypatch.setattr(homology, "GRID_CELL_BOUND", 0)
    with pytest.raises(ResourceLimitError, match="lcm lattice exceeds 3"):
        lcm_lattice(triangle())
    with pytest.raises(ResourceLimitError, match="lcm lattice exceeds 3"):
        koszul_betti_totals(triangle())
    with pytest.raises(ResourceLimitError, match="lcm lattice exceeds 3"):
        koszul_proj_dim(triangle())


def seventy_variable_ideal():
    """Seven generators over 70 variables: carriers and lattice keys no
    longer fit an int64."""
    ctx = RingContext(tuple(f"x{i}" for i in range(70)))
    rows = []
    for pair in ((0, 64), (64, 69), (1, 69), (63, 0), (2, 3), (3, 68), (68, 69)):
        row = [0] * 70
        for v in pair:
            row[v] = 2 if v == 69 else 1
        rows.append(row)
    return MonomialIdeal.from_exponents(ctx, rows)


def test_lcm_lattice_matches_tuple_closure():
    rng = random.Random(43)
    inputs = [triangle() ** 3, cycle(6) ** 2, path(6) ** 2, seventy_variable_ideal()]
    for _ in range(30):
        rows = [tuple(rng.randint(0, 4) for _ in range(4))
                for _ in range(rng.randint(2, 10))]
        inputs.append(MonomialIdeal.from_exponents(CTX4, [r for r in rows if any(r)]))
    # exponents near 2^21.5 in three variables: the radix product passes 2^63
    big = 3_000_000
    huge = ideal(CTX3, (big, 1, 0), (0, big, 2), (5, 0, big), (1, 1, 1), (2, 0, 3))
    inputs.append(huge)
    for a in inputs:
        lattice = lcm_lattice(a)
        assert lattice.dtype == np.int64
        assert [tuple(b) for b in lattice.tolist()] == lcm_lattice_oracle(a)
    assert koszul_betti(huge) == lattice_betti_oracle(huge)


def test_unit_multidegree_has_beta_one():
    table = koszul_betti(triangle())
    assert table[(0, (0, 0, 0))] == 1


def test_koszul_totals_match_taylor_on_examples():
    for a in (
        triangle(),
        ideal(CTX2, (2, 0), (1, 1)),
        ideal(CTX4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)),
        triangle() ** 2,
    ):
        assert koszul_betti_totals(a) == taylor_homology(a)


def edge_ideal(n, edges):
    ctx = RingContext(tuple(f"x{i}" for i in range(n)))
    rows = [tuple(int(v in e) for v in range(n)) for e in edges]
    return MonomialIdeal.from_exponents(ctx, rows)


def cycle(n):
    return edge_ideal(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return edge_ideal(n, [(i, i + 1) for i in range(n - 1)])


@pytest.mark.parametrize("field", [Q, F2], ids=str)
@pytest.mark.parametrize("graph", [cycle(5), cycle(6), path(6)],
                         ids=["C5", "C6", "P6"])
def test_koszul_betti_matches_per_point_composition_on_edge_ideals(graph, field):
    for t in (1, 2):
        a = over_field(graph ** t, field)
        assert koszul_betti(a) == lattice_betti_oracle(a)


@pytest.mark.parametrize("field", [Q, F2], ids=str)
def test_koszul_betti_matches_per_point_composition_mixed_degree(field):
    rng = random.Random(31)
    for _ in range(12):
        rows = [
            tuple(rng.randint(0, 3) for _ in range(4))
            for _ in range(rng.randint(3, 9))
        ]
        a = MonomialIdeal.from_exponents(CTX4, [r for r in rows if any(r)])
        if a.is_zero:
            continue
        a = over_field(a, field)
        assert koszul_betti(a) == lattice_betti_oracle(a)


def test_koszul_betti_with_more_variables_than_mask_bits():
    a = seventy_variable_ideal()
    assert koszul_betti(a) == lattice_betti_oracle(a)
    assert koszul_betti_totals(a) == taylor_homology(a)


def test_cone_points_are_skipped_and_have_no_reduced_homology(monkeypatch):
    a = cycle(5) ** 2
    built = []
    real_builder = homology._boundary_complex

    def counting_builder(faces):
        built.append(1)
        return real_builder(faces)

    monkeypatch.setattr(homology, "_boundary_complex", counting_builder)
    table = koszul_betti(a)
    monkeypatch.undo()
    cones, others = [], set()
    for b in map(tuple, lcm_lattice(a).tolist()):
        k = upper_koszul_complex(a, b)
        facets = [f for f in k.faces if not any(f < g for g in k.faces)]
        if frozenset.intersection(*facets):
            cones.append((b, k, len(facets)))
        else:
            # back to variable labels: points with equal facets share one build
            supp = [j for j, e in enumerate(b) if e]
            others.add(frozenset(frozenset(supp[v] for v in f) for f in facets))
    # some cones are not the full simplex, which was the only skip before
    assert any(n_facets > 1 for _, _, n_facets in cones)
    assert len(built) == len(others)
    for b, k, _ in cones:
        assert not any(reduced_homology_ranks(k).values())
        assert all(key[1] != b for key in table)


def rows_strategy(n, max_exp, max_gens):
    row = st.tuples(*[st.integers(0, max_exp)] * n).filter(any)
    return st.lists(row, min_size=1, max_size=max_gens)


@given(rows_strategy(4, 3, 6))
def test_koszul_totals_match_taylor_random(rows):
    a = MonomialIdeal.from_exponents(CTX4, rows)
    assert koszul_betti_totals(a) == taylor_homology(a)


def strand_sizes(monkeypatch, a):
    """taylor_homology(a), and the sizes of the strands it built complexes for."""
    sizes = []
    real_builder = homology._boundary_complex

    def recording(faces):
        sizes.append(len(faces))
        return real_builder(faces)

    monkeypatch.setattr(homology, "_boundary_complex", recording)
    betti = taylor_homology(a)
    monkeypatch.undo()
    return betti, sizes


def test_taylor_strand_sizes(monkeypatch):
    # the triangle's strand at xyz has the 4 subsets of two or more generators
    betti, sizes = strand_sizes(monkeypatch, triangle())
    assert sizes == [4]
    assert taylor_proj_dim(triangle()) == max(betti) == 2


def test_taylor_counts_singleton_strands_without_a_complex(monkeypatch):
    # generators in disjoint variables: every subset has its own lcm
    rng = random.Random(18)
    for _ in range(12):
        ctx = RingContext(tuple(f"x{i}" for i in range(7)))
        cuts = sorted(rng.sample(range(1, 7), rng.randint(1, 5)))
        blocks = [range(lo, hi) for lo, hi in zip([0] + cuts, cuts + [7])]
        rows = [tuple(rng.randint(1, 3) if j in block else 0 for j in range(7))
                for block in blocks]
        a = MonomialIdeal.from_exponents(ctx, rows)
        betti, sizes = strand_sizes(monkeypatch, a)
        assert sizes == []
        assert betti == koszul_betti_totals(a)


def test_taylor_matches_koszul_on_large_strands(monkeypatch):
    # powers of small ideals: many subsets share one lcm
    rng = random.Random(19)
    powers = [maximal_ideal(CTX3) ** 3]
    for _ in range(8):
        rows = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(4)]
        powers.append(MonomialIdeal.from_exponents(CTX3, [r for r in rows if any(r)]) ** 2)
    largest = 0
    for a in powers:
        betti, sizes = strand_sizes(monkeypatch, a)
        largest = max([largest] + sizes)
        assert betti == koszul_betti_totals(a)
        n = a.context.n
        assert [taylor_proj_dim(a, f) for f in range(1, n + 1)] == [
            max(f, max(betti)) for f in range(1, n + 1)]
    assert largest >= 32


@given(rows_strategy(3, 2, 4))
def test_betti_paths_match_quotient_koszul_oracle(rows):
    a = MonomialIdeal.from_exponents(CTX3, rows)
    expected = brute_betti(a)
    assert taylor_homology(a) == expected
    assert koszul_betti_totals(a) == expected


@given(rows_strategy(4, 1, 5))
def test_betti_field_independent_for_small_squarefree(rows):
    a = MonomialIdeal.from_exponents(CTX4, rows)
    over_q = taylor_homology(a)
    assert taylor_homology(over_field(a, F2)) == over_q
    assert taylor_homology(over_field(a, F3)) == over_q


# ---------------------------------------------------------------------------
# the projective-dimension walk


WALK_ROUTES = ("grid", "lattice")


@contextmanager
def walk_route(monkeypatch, route):
    """Send the pd walk through the grid enumeration wherever its grid has
    at most 2^22 face bits ("grid"), or always through the lcm lattice
    ("lattice"); the block must reach the grid enumeration on the grid
    route and only there."""
    grids = []
    real_grid = homology._grid_complexes

    def recording_grid(axes, gens, floor):
        grids.append(len(axes))
        return real_grid(axes, gens, floor)

    with monkeypatch.context() as patch:
        patch.setattr(homology, "_grid_complexes", recording_grid)
        patch.setattr(homology, "GRID_CELL_BOUND",
                      1 << 22 if route == "grid" else 0)
        yield
    assert bool(grids) == (route == "grid")


def lattice_calls(monkeypatch):
    """Record each ideal that reaches ``homology.lcm_lattice``."""
    calls = []
    real_lattice = homology.lcm_lattice

    def counting_lattice(a):
        calls.append(a)
        return real_lattice(a)

    monkeypatch.setattr(homology, "lcm_lattice", counting_lattice)
    return calls


def largest_carriers(a):
    return homology._largest_carriers(a.exponent_matrix(), lcm_lattice(a))


def count_facet_calls(monkeypatch):
    """Record each lattice point whose carriers, or each distinct grid
    complex whose faces, reach ``homology._facets``."""
    calls = []
    real_facets = homology._facets

    def counting_facets(row):
        calls.append(row)
        return real_facets(row)

    monkeypatch.setattr(homology, "_facets", counting_facets)
    return calls


def assert_pd_matches_betti_oracle(a, field):
    a = over_field(a, field)
    assert koszul_proj_dim(a) == len(betti_numbers_oracle(a)) - 1


@pytest.mark.parametrize("field", [Q, F2], ids=str)
def test_pd_walk_below_top_points_that_are_full_simplices(monkeypatch, field):
    # the points of largest carrier size n carry the full simplex, a cone,
    # and are skipped; pd comes from the groups below them
    for route in WALK_ROUTES:
        rng = random.Random(5)
        kept = below_n = 0
        with walk_route(monkeypatch, route):
            while kept < 40:
                rows = [tuple(rng.randint(0, 3) for _ in range(4))
                        for _ in range(rng.randint(4, 12))]
                a = MonomialIdeal.from_exponents(CTX4, [r for r in rows if any(r)])
                if a.is_zero or a.is_unit or largest_carriers(a).max() < 4:
                    continue
                assert_pd_matches_betti_oracle(a, field)
                kept += 1
                below_n += koszul_proj_dim(a) < 4
        assert below_n >= 20


@pytest.mark.parametrize("field", [Q, F2], ids=str)
def test_pd_walk_stops_in_the_middle_of_a_group(monkeypatch, field):
    # m^t reaches pd = n at a point of carrier size n - 1 that is not the
    # last of its size; the points of size n are full simplices
    for route in WALK_ROUTES:
        for n, t in ((2, 3), (3, 2), (3, 3), (4, 2)):
            ctx = RingContext(tuple(f"x{i}" for i in range(n)), field)
            a = maximal_ideal(ctx) ** t
            sizes = largest_carriers(a)
            assert sizes.max() == n
            with walk_route(monkeypatch, route), monkeypatch.context() as patch:
                calls = count_facet_calls(patch)
                pd = koszul_proj_dim(a)
            assert pd == n == len(betti_numbers_oracle(a)) - 1
            assert 0 < len(calls) < (sizes == n - 1).sum()


@pytest.mark.parametrize("field", [Q, F2], ids=str)
def test_pd_walk_with_more_variables_than_mask_bits(monkeypatch, field):
    # a has a grid of 2^8 points, more than 2^mu; a^2 takes the grid, with
    # face sets of 2^8 bits over the 8 variables that occur
    a = seventy_variable_ideal()
    assert homology._carriers(a.exponent_matrix(), lcm_lattice(a)).dtype == object
    for route in WALK_ROUTES:
        with walk_route(monkeypatch, route):
            for b in (a, a ** 2):
                assert_pd_matches_betti_oracle(b, field)


def test_pd_walk_passes_fewer_points_to_facets_than_the_lattice_has(monkeypatch):
    a = cycle(6) ** 3
    points = len(lcm_lattice(a))
    for route in WALK_ROUTES:
        with walk_route(monkeypatch, route), monkeypatch.context() as patch:
            calls = count_facet_calls(patch)
            assert koszul_proj_dim(a) == 4
        assert 0 < len(calls) < points


def grid_route_ideals(seed, count, n, used, top, mus, power=1):
    """``count`` seeded ideals in n variables whose pd walk takes the grid
    at the default bound: powers of ideals whose generators involve only
    the first ``used`` variables, with exponents <= top, and mu in
    ``mus``."""
    rng = random.Random(seed)
    ctx = RingContext(tuple(f"x{i}" for i in range(n)))
    out = []
    while len(out) < count:
        rows = [tuple(rng.randint(0, top) if j < used else 0 for j in range(n))
                for _ in range(rng.randint(mus.start, mus.stop + 3))]
        a = MonomialIdeal.from_exponents(ctx, [r for r in rows if any(r)])
        if a.is_unit or a.mu not in mus:
            continue
        a = a ** power
        gens = a.exponent_matrix()
        points = 1
        for col in gens.T:
            points *= len(set(col.tolist()) | {0})
        if points << used <= homology.GRID_CELL_BOUND:
            out.append(a)
    return out


@pytest.mark.parametrize("field", [Q, F2, FP], ids=str)
def test_grid_route_matches_lattice_route_and_oracle(monkeypatch, field):
    # n = 7 and 8 give face sets of 128 and 256 bits, several 64-bit words;
    # an ideal with used < n has variables in no generator
    inputs = (
        grid_route_ideals(81, 12, 4, 3, 3, range(4, 12))
        + grid_route_ideals(82, 6, 4, 4, 2, range(3, 5), power=2)
        + grid_route_ideals(83, 10, 5, 5, 2, range(8, 13))
        + grid_route_ideals(84, 6, 7, 7, 1, range(7, 12))
        + grid_route_ideals(85, 4, 7, 7, 2, range(12, 15))
        + grid_route_ideals(86, 6, 8, 7, 1, range(7, 12))
        + grid_route_ideals(87, 6, 8, 8, 1, range(8, 13))
    )
    lattices = lattice_calls(monkeypatch)
    for a in inputs:
        a = over_field(a, field)
        lattices.clear()
        grid = koszul_proj_dim(a)
        assert lattices == []
        with monkeypatch.context() as patch:
            patch.setattr(homology, "GRID_CELL_BOUND", 0)
            lattice = koszul_proj_dim(a)
        assert lattices == [a]
        assert grid == lattice == len(betti_numbers_oracle(a)) - 1


@pytest.mark.parametrize("field", [Q, F2, FP], ids=str)
def test_pd_walk_from_a_floor_is_the_floor_or_pd(monkeypatch, field):
    # koszul_proj_dim(a, f) = max(f, pd) for every floor f in 1..n on both
    # routes; with n = 7 and 8 the faces of at least f vertices span two
    # and four 64-bit words of a face set
    inputs = (
        grid_route_ideals(91, 8, 4, 3, 3, range(4, 12))
        + grid_route_ideals(92, 4, 4, 4, 2, range(3, 5), power=2)
        + grid_route_ideals(93, 6, 5, 5, 2, range(8, 13))
        + grid_route_ideals(94, 3, 7, 7, 1, range(7, 12))
        + grid_route_ideals(95, 3, 8, 8, 1, range(8, 13))
    )
    below = 0
    for route in WALK_ROUTES:
        with walk_route(monkeypatch, route):
            for a in inputs:
                a = over_field(a, field)
                n, pd = a.context.n, koszul_proj_dim(a)
                assert [koszul_proj_dim(a, f) for f in range(1, n + 1)] == [
                    max(f, pd) for f in range(1, n + 1)]
                below += pd < n - 1
    assert below >= 10


def test_pd_walk_dispatch_between_grid_and_lattice(monkeypatch):
    # mu 9 in 5 variables with exponents <= 4: the grid has 2500 points,
    # more than the 2^9 - 1 that the lcm lattice can have, and 2500 * 2^5
    # face bits, so it takes the grid
    larger_grid = ideal(
        RingContext(tuple("abcde")),
        (4, 2, 3, 0, 0), (4, 0, 0, 1, 1), (3, 3, 4, 4, 1), (2, 2, 2, 0, 4),
        (1, 4, 4, 1, 0), (1, 2, 4, 1, 3), (0, 4, 4, 0, 3), (0, 2, 0, 3, 2),
        (0, 0, 1, 2, 4),
    )
    assert larger_grid.mu == 9 and 5 ** 4 * 4 > 1 << 9
    # C8^2: 3^8 grid points of 2^8 faces each pass GRID_CELL_BOUND; C7^2
    # has 3^7 points of 2^7 faces and takes the grid
    assert 3 ** 8 << 8 > homology.GRID_CELL_BOUND >= 3 ** 7 << 7
    lattices = lattice_calls(monkeypatch)
    for a, lattice in ((larger_grid, False), (cycle(8) ** 2, True),
                       (cycle(7) ** 2, False)):
        lattices.clear()
        pd = koszul_proj_dim(a)
        assert lattices == ([a] if lattice else [])
        assert pd == len(betti_numbers_oracle(a)) - 1


def record_nerves(monkeypatch):
    """Record, for each nerve the walk builds, its number of facets r and
    the size of its largest face."""
    nerves = []
    real_nerve = homology._nerve

    def recording(facets):
        faces = real_nerve(facets)
        nerves.append((len(facets), max(f.bit_count() for f in faces)))
        return faces

    monkeypatch.setattr(homology, "_nerve", recording)
    return nerves


def k4_nerve_ideal():
    """A squarefree ideal in 10 variables whose upper-Koszul complex at
    (1, ..., 1) has the complements of its 4 generator supports as facets:
    4 vertices each, every two sharing one vertex and no three.  So its
    nerve is the complete graph on 4 vertices, with top face of dimension 1,
    below r - 2 = 2, and H_1 of rank 3 gives beta_3."""
    pairs = list(combinations(range(4), 2))
    facets = [[k for k, p in enumerate(pairs) if i in p] + [6 + i]
              for i in range(4)]
    ctx = RingContext(tuple(f"x{i}" for i in range(10)))
    return MonomialIdeal.from_exponents(
        ctx, [tuple(int(j not in f) for j in range(10)) for f in facets])


@pytest.mark.parametrize("field", [Q, F2, FP], ids=str)
def test_pd_walk_ranks_the_nerve_of_few_facets(monkeypatch, field):
    # a complex whose r facets are fewer than the vertices of its largest
    # face, s > r - 1, is ranked through its nerve, on both routes
    for route in WALK_ROUTES:
        with walk_route(monkeypatch, route), monkeypatch.context() as patch:
            nerves = record_nerves(patch)
            assert_pd_matches_betti_oracle(k4_nerve_ideal(), field)
            assert (4, 2) in nerves
    # squares of few generators in many variables
    rng = random.Random(3)
    ran = 0
    with monkeypatch.context() as patch:
        nerves = record_nerves(patch)
        for _ in range(12):
            n = rng.randint(6, 8)
            ctx = RingContext(tuple(f"x{i}" for i in range(n)))
            rows = [tuple(rng.randint(0, 2) for _ in range(n))
                    for _ in range(rng.randint(2, 4))]
            a = MonomialIdeal.from_exponents(ctx, [r for r in rows if any(r)])
            nerves.clear()
            assert_pd_matches_betti_oracle(a ** 2, field)
            ran += bool(nerves)
            assert all(top <= r - 1 for r, top in nerves)
    assert ran >= 8


def test_pd_walk_without_a_nerve_when_facets_outnumber_vertices(monkeypatch):
    # every complex the walk ranks on these edge-ideal squares has r - 1 >= s
    nerves = record_nerves(monkeypatch)
    for a in (cycle(5) ** 2, cycle(6) ** 2, path(6) ** 2):
        assert koszul_proj_dim(a) == len(betti_numbers_oracle(a)) - 1
    assert nerves == []


def test_taylor_walk_builds_no_strand_when_all_generators_form_one(monkeypatch):
    # when the lcm of all mu generators is above the lcm of every mu - 1 of
    # them, pd = mu without a strand; otherwise the strands are built
    strands = []
    real_strands = homology._taylor_strands

    def recording(a):
        strands.append(a)
        return real_strands(a)

    rng = random.Random(27)
    shortcut = walked = 0
    for _ in range(150):
        rows = [tuple(rng.randint(0, 3) for _ in range(4))
                for _ in range(rng.randint(1, 8))]
        a = MonomialIdeal.from_exponents(CTX4, [r for r in rows if any(r)])
        if a.is_unit:
            continue
        gens = [g.exponents for g in a.generators]

        def lcm(rows):
            return tuple(max(col) for col in zip((0,) * 4, *rows))

        apart = all(lcm(gens[:i] + gens[i + 1:]) != lcm(gens)
                    for i in range(len(gens)))
        pd = max(taylor_homology(a))
        with monkeypatch.context() as patch:
            patch.setattr(homology, "_taylor_strands", recording)
            strands.clear()
            assert taylor_proj_dim(a) == pd
        assert (strands == []) == apart, a
        if apart:
            assert pd == a.mu
        shortcut += apart
        walked += not apart
    assert shortcut >= 30 and walked >= 30


@settings(max_examples=40)
@given(rows_strategy(4, 2, 7), st.sampled_from([Q, F2, F3]))
def test_taylor_walk_from_every_floor_matches_the_betti_table(rows, field):
    # strands are visited largest subset first, and a strand whose largest
    # subset has at most best generators is skipped
    a = over_field(MonomialIdeal.from_exponents(CTX4, rows), field)
    pd = max(taylor_homology(a))
    assert [taylor_proj_dim(a, f) for f in range(1, 6)] == [
        max(f, pd) for f in range(1, 6)]


def rows_in_some_variables(max_n, max_exp, max_gens):
    """(n, rows) for 1 <= n <= max_n."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), rows_strategy(n, max_exp, max_gens)))


@settings(max_examples=120)
@given(rows_in_some_variables(5, 3, 8))
def test_socle_proj_dim_matches_box_search_and_irreducible_components(drawn):
    # pd R/a = k, the size of the support, exactly when some monomial outside
    # a goes into a times each support variable (a box search), and exactly
    # when some irreducible component of a is primary to the maximal ideal
    # of those k variables
    n, rows = drawn
    a = MonomialIdeal.from_exponents(
        RingContext(tuple(f"x{i}" for i in range(n))), rows)
    k = len(a.support())
    socle = socle_oracle(a)
    assert socle == any(c.support() == a.support()
                        for c in irreducible_decomposition(a))
    assert [socle_proj_dim(a, f) for f in (k - 1, k, k + 1)] == [
        k if socle else k - 1, k, k + 1]


def test_socle_proj_dim_refuses_low_floors_and_large_grids(monkeypatch):
    # the triangle has k = 3, pd 2 and a 2^3-point grid; (x, y)^2 has k = 2,
    # pd 2 and a 3^2-point grid
    square = ideal(CTX2, (2, 0), (1, 1), (0, 2))
    assert socle_proj_dim(triangle(), 2) == 2
    assert socle_proj_dim(square, 1) == 2
    with pytest.raises(ValueError, match="below k - 1"):
        socle_proj_dim(triangle(), 1)
    monkeypatch.setattr(homology, "GRID_CELL_BOUND", 8)
    assert socle_proj_dim(triangle(), 2) == 2
    assert socle_proj_dim(square, 1) is None


# ---------------------------------------------------------------------------
# Stanley-Reisner complexes and local cohomology support


def test_stanley_reisner_of_triangle_is_three_points():
    delta = stanley_reisner_complex(triangle())
    assert delta.faces_of_dim(0) == [(0,), (1,), (2,)]
    assert delta.dim == 0


def test_local_cohomology_examples():
    assert local_cohomology_nonvanishing(triangle()) == frozenset({1})
    planes = ideal(
        RingContext(("x1", "x2", "x3", "x4")),
        (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1),
    )
    assert local_cohomology_nonvanishing(planes) == frozenset({1, 2})
    assert local_cohomology_nonvanishing(ideal(CTX2, (1, 0))) == frozenset({1})
    assert local_cohomology_nonvanishing(
        ideal(CTX2, (1, 0), (0, 1))
    ) == frozenset({0})


def test_local_cohomology_matches_the_face_scan():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 7)
        ctx = RingContext(tuple(f"x{j}" for j in range(n)), rng.choice([Q, F2]))
        rows = [tuple(rng.randint(0, 1) for _ in range(n))
                for _ in range(rng.randint(1, 6))]
        a = MonomialIdeal.from_exponents(ctx, [r for r in rows if any(r)])
        if a.is_zero or a.is_unit:
            continue
        assert local_cohomology_nonvanishing(a) == local_cohomology_oracle(a)


def test_local_cohomology_rejects_non_squarefree():
    with pytest.raises(ValueError):
        local_cohomology_nonvanishing(ideal(CTX2, (2, 0)))


def squarefree_strategy(n, max_gens):
    row = st.tuples(*[st.integers(0, 1)] * n).filter(any)
    return st.lists(row, min_size=1, max_size=max_gens).filter(
        lambda rows: any(sum(r) < n for r in rows)
    )


@given(squarefree_strategy(6, 5))
def test_local_cohomology_consistent_with_betti(rows):
    ctx = RingContext(tuple("abcdef"))
    a = MonomialIdeal.from_exponents(ctx, rows)
    if a.is_unit:
        return
    table = koszul_betti_totals(a)
    pd = max(table)
    locoh = local_cohomology_nonvanishing(a)
    assert min(locoh) == 6 - pd  # depth via Auslander-Buchsbaum
