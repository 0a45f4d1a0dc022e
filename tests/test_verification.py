"""Checkers, the reference suite, fuzz campaigns, and rerunning a check from
its witness."""

import random
import time

import pytest

from stci.core import (PAIR_CELL_BOUND, FieldSpec, MonomialIdeal, ResourceLimitError,
                       RingContext)
from stci.homology import STANLEY_REISNER_BOUND
from stci.verification import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    UNCERTIFIED,
    RandomIdealSpec,
    check_chain,
    check_dg_dichotomy,
    check_disjoint_prime_intersection,
    check_frobenius,
    check_one_dimensional_prime,
    check_squarefree_cm,
    fuzz,
    _products_in,
    _random_squarefree,
    random_ideal,
    run_reference_suite,
    triangle_edge_ideal,
    two_planes_ideal,
)

from oracles import random_squarefree_oracle

CTX3 = RingContext(("x", "y", "z"))
CTX4 = RingContext(("x1", "x2", "x3", "x4"))


def ideal(ctx, *rows):
    return MonomialIdeal.from_exponents(ctx, rows)


def test_check_chain_examples():
    assert check_chain(two_planes_ideal()).verdict == PASS
    assert check_chain(ideal(CTX3, (1, 0, 0), (0, 1, 0), (0, 0, 1))).verdict == PASS
    assert check_chain(triangle_edge_ideal()).verdict == PASS


def test_dg_dichotomy_cases():
    # dg = 0 with height < cd: both sides of the equivalence are false
    r = check_dg_dichotomy(two_planes_ideal(), 3)
    assert r.verdict == PASS and r.witness["dg"] == 0
    # dg = 1: spread equals n - min depth and cd differs from spread
    r = check_dg_dichotomy(triangle_edge_ideal(), 3)
    assert r.verdict == PASS and r.witness["dg"] == 1
    # dg = 0 with height = cd and a certifying partition
    r = check_dg_dichotomy(ideal(CTX3, (1, 0, 0), (0, 1, 0)), 3)
    assert r.verdict == PASS and r.witness["dg"] == 0


def test_dg_dichotomy_not_applicable_for_large_dg():
    # (x^2, xy) has fgrade 1 but min depth 0 ... find dg >= 2 instead:
    # a complete intersection of two disjoint planes cubed keeps dg 0, so
    # use a known dg-2 witness: the join of two triangle ideals in 6 vars
    ctx6 = RingContext(tuple("abcdef"))
    tri1 = ideal(ctx6, (1, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0))
    tri2 = ideal(ctx6, (0, 0, 0, 1, 1, 0), (0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 1, 1))
    candidate = tri1 + tri2
    r = check_dg_dichotomy(candidate, 3)
    assert r.verdict in (PASS, NOT_APPLICABLE, UNCERTIFIED)
    if r.witness["dg"] >= 2:
        assert r.verdict == NOT_APPLICABLE


@pytest.mark.parametrize("spec, index", [
    (RandomIdealSpec(n=5, seed=1), 39),
    (RandomIdealSpec(n=5, seed=1), 57),
    (RandomIdealSpec(n=5, seed=1), 78),
    (RandomIdealSpec(n=4, max_generators=7, seed=3), 174),
])
def test_dg_dichotomy_bounds_min_depth_by_burch(spec, index):
    # fuzz cases that failed while the horizon minimum depth was trusted: the
    # horizon sees dg = 1, but its minimum exceeds n - l, so by Burch the
    # true dg is at least 2
    rng = random.Random(spec.seed)
    a = [random_ideal(spec, rng) for _ in range(index + 1)][-1]
    r = check_dg_dichotomy(a)
    assert r.witness["dg"] == 1
    assert r.witness["min_depth"] > spec.n - r.witness["analytic_spread"]
    assert r.verdict == NOT_APPLICABLE


def test_one_dimensional_prime_examples():
    p = ideal(CTX3, (1, 0, 0), (0, 1, 0))
    assert check_one_dimensional_prime(p).verdict == PASS
    p4 = ideal(CTX4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert check_one_dimensional_prime(p4).verdict == PASS
    high = ideal(CTX4, (1, 0, 0, 0), (0, 1, 0, 0))
    r = check_one_dimensional_prime(high)
    assert r.verdict == NOT_APPLICABLE and "formal grade" in r.witness["reason"]
    maximal = ideal(CTX3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert check_one_dimensional_prime(maximal).verdict == NOT_APPLICABLE
    not_prime = triangle_edge_ideal()
    assert check_one_dimensional_prime(not_prime).verdict == NOT_APPLICABLE


def test_squarefree_cm_examples():
    assert check_squarefree_cm(triangle_edge_ideal()).verdict == PASS
    assert check_squarefree_cm(two_planes_ideal()).verdict == PASS
    assert check_squarefree_cm(ideal(CTX3, (1, 0, 0), (0, 1, 0))).verdict == PASS
    r = check_squarefree_cm(ideal(CTX3, (2, 0, 0)))
    assert r.verdict == NOT_APPLICABLE


def test_disjoint_primes_examples():
    ctx5 = RingContext(("x1", "x2", "x3", "x4", "x5"))
    r = check_disjoint_prime_intersection(CTX4, [[0, 1], [2, 3]], 3)
    assert r.verdict == PASS and r.witness["cd"] == 3
    r = check_disjoint_prime_intersection(ctx5, [[0, 1], [2, 3], [4]], 3)
    assert r.verdict == PASS and r.witness["cd"] == 3
    r = check_disjoint_prime_intersection(RingContext(("x1",)), [[0]], 3)
    assert r.verdict == PASS and r.witness["cd"] == 1
    with pytest.raises(ValueError):
        check_disjoint_prime_intersection(CTX4, [[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError):
        check_disjoint_prime_intersection(CTX4, [], 3)
    # an index outside the ring names no variable
    for bad in ([[0, 4]], [[-1], [0]]):
        with pytest.raises(ValueError, match="0..3"):
            check_disjoint_prime_intersection(CTX4, bad, 3)
    # a repeated index would count one variable twice in the expected cd
    with pytest.raises(ValueError, match="distinct"):
        check_disjoint_prime_intersection(CTX4, [[0, 0], [1]], 3)


def test_frobenius_examples():
    assert check_frobenius(ideal(CTX3, (1, 1, 0), (0, 0, 1)), 2).verdict == PASS
    r = check_frobenius(triangle_edge_ideal(), 2)
    assert r.verdict == PASS and r.witness["depth_bracket"] == 1
    assert check_frobenius(ideal(RingContext(("x",)), (1,)), 5).verdict == PASS
    with pytest.raises(ValueError):
        check_frobenius(triangle_edge_ideal(), 1)


@pytest.mark.parametrize("wrong", ["drops a generator", "raises an exponent"])
def test_frobenius_fails_on_a_wrong_bracket_power(monkeypatch, wrong):
    # (x^3, y^2) in place of (x^2, y^2) keeps the radical, the depth and
    # a^[2] <= a^2, so only the pigeonhole inclusion a^3 <= a^[2] catches it
    def bracket_power(self, q):
        rows = [tuple(e * q for e in r) for r in self.rows]
        if wrong == "drops a generator":
            rows = rows[:-1]
        else:
            rows[0] = tuple(e + (j == 0) for j, e in enumerate(rows[0]))
        return MonomialIdeal.from_exponents(self.context, rows)

    a = ideal(RingContext(("x", "y")), (1, 0), (0, 1))
    assert check_frobenius(a, 2).verdict == PASS
    monkeypatch.setattr(MonomialIdeal, "bracket_power", bracket_power)
    assert check_frobenius(a, 2).verdict == FAIL


def test_reference_suite_all_pass_and_deterministic():
    first = run_reference_suite()
    assert run_reference_suite() == first
    assert all(r.verdict != FAIL for r in first)
    assert len(first) >= 20


@pytest.mark.parametrize("horizon", [1, 2, 3, 4])
def test_replay_reruns_the_reference_suite_at_the_recorded_horizon(horizon):
    first = run_reference_suite(horizon)
    assert run_reference_suite(horizon) == first
    assert all(r.verdict != FAIL for r in first)
    # a witness that records a horizon records the one the suite ran at
    for r in first:
        w = r.witness
        recorded = w["invariants"]["dg"]["horizon"] if "invariants" in w else w.get("horizon")
        assert recorded in (None, horizon), r.name


# each checker a fuzz campaign runs, called with the ideal its witness
# rebuilds and the horizon or q the witness records
RERUN = {
    "chain": lambda a, w: check_chain(a),
    "dg-dichotomy": lambda a, w: check_dg_dichotomy(a, w["horizon"]),
    "squarefree-cm": lambda a, w: check_squarefree_cm(a),
    "frobenius": lambda a, w: check_frobenius(a, w["q"]),
}


def test_fuzz_deterministic_and_replayable():
    # a witness is sufficient to replay its check: the ring, field and
    # generators rebuild the ideal, and the named checker gives the verdict;
    # two of the squarefree draws have a smaller depth at the square than at
    # horizon 1, so a horizon recorded wrong would change the rerun
    for spec, horizon in [
        (RandomIdealSpec(n=3, max_exponent=2, max_generators=3, seed=42), 3),
        (RandomIdealSpec(n=4, squarefree=True, seed=26), 1),
    ]:
        results = fuzz(spec, 8, horizon)
        assert fuzz(spec, 8, horizon) == results
        assert all(r.verdict != FAIL for r in results)
        assert {r.witness["checker"] for r in results} == set(RERUN)
        for r in results:
            w = r.witness
            ctx = RingContext(tuple(w["ring"]), FieldSpec.parse(w["field"]))
            rebuilt = MonomialIdeal.from_exponents(ctx, w["generators"])
            again = RERUN[w["checker"]](rebuilt, w)
            assert (again.verdict, again.witness) == (r.verdict, w), r.name


def test_fuzz_empty_campaign():
    spec = RandomIdealSpec(seed=1)
    assert fuzz(spec, 0) == []


def test_fuzz_rejects_a_negative_count():
    with pytest.raises(ValueError):
        fuzz(RandomIdealSpec(seed=1), -1)


def test_random_squarefree_spec_bounds():
    with pytest.raises(ValueError):
        RandomIdealSpec(n=1, squarefree=True)
    with pytest.raises(ResourceLimitError):
        RandomIdealSpec(n=STANLEY_REISNER_BOUND + 1, squarefree=True)
    RandomIdealSpec(n=STANLEY_REISNER_BOUND, squarefree=True)
    RandomIdealSpec(n=1)


def test_random_spec_cell_bound_at_and_past_the_limit():
    # n * max_generators cells of drawn rows; only the spec is built here
    RandomIdealSpec(n=PAIR_CELL_BOUND // 4, max_generators=4)
    RandomIdealSpec(n=PAIR_CELL_BOUND, max_generators=1)
    with pytest.raises(ResourceLimitError, match="4 drawn rows"):
        RandomIdealSpec(n=PAIR_CELL_BOUND // 4 + 1, max_generators=4)
    with pytest.raises(ResourceLimitError, match="1 drawn rows"):
        RandomIdealSpec(n=PAIR_CELL_BOUND + 1, max_generators=1)
    with pytest.raises(ResourceLimitError, match="3 drawn rows"):
        RandomIdealSpec(n=PAIR_CELL_BOUND // 2, max_generators=3)
    with pytest.raises(ResourceLimitError):
        RandomIdealSpec(n=99999999999)


def test_random_squarefree_draws_are_pinned():
    # the benchmark's output digest depends on these draws
    expected = {
        2: [["x1"], ["x2"], ["x2"]],
        6: [["x1*x3", "x1*x5", "x2", "x3*x4", "x3*x5", "x4*x5", "x6"],
            ["x2*x3", "x2*x6"], ["x4*x6"]],
        12: [["x6"], ["x3*x4", "x4*x5", "x4*x6", "x4*x7", "x4*x10", "x4*x11"],
             ["x2", "x4"]],
    }
    for n, gens in expected.items():
        rng = random.Random(7)
        spec = RandomIdealSpec(n=n, squarefree=True, seed=7)
        assert [random_ideal(spec, rng).generator_strings() for _ in gens] == gens


def test_random_squarefree_draws_match_subset_enumeration():
    for n in range(2, 11):
        ctx = RingContext(tuple(f"x{i}" for i in range(1, n + 1)))
        for seed in range(20):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert _random_squarefree(ctx, rng) == random_squarefree_oracle(
                    ctx, oracle_rng)


def test_random_squarefree_draw_in_20_variables_is_fast():
    # enumerating the 2^20 vertex subsets took seconds
    spec = RandomIdealSpec(n=20, squarefree=True, seed=0)
    start = time.perf_counter()
    random_ideal(spec, random.Random(0))
    assert time.perf_counter() - start < 1


def test_fuzz_reports_not_applicable_rather_than_skipping():
    spec = RandomIdealSpec(n=3, squarefree=False, max_exponent=3,
                           max_generators=4, seed=5)
    results = fuzz(spec, 12)
    verdicts = {r.verdict for r in results}
    assert NOT_APPLICABLE in verdicts  # squarefree checker on mixed ideals


def test_squarefree_campaign_passes():
    spec = RandomIdealSpec(n=4, squarefree=True, seed=11)
    results = fuzz(spec, 25)
    bad = [r for r in results if r.verdict == FAIL]
    assert not bad


def test_squarefree_campaign_n4_seed42_count100():
    spec = RandomIdealSpec(n=4, squarefree=True, seed=42)
    results = fuzz(spec, 100)
    bad = [r for r in results if r.verdict == FAIL]
    assert not bad, [r.witness for r in bad[:3]]


def test_multiset_products_agree_with_the_minimalized_power():
    # the products of count generators, one multiset at a time, generate
    # a^count, so the two inclusions agree at every count, into the bracket
    # power, into one with a generator raised, and into the bracket power
    # at top + 1, which no product of top generators reaches (g^top misses
    # it, as the generators are minimal)
    rng = random.Random(29)
    agreed = {True: 0, False: 0}
    for _ in range(60):
        n = rng.randint(1, 4)
        ctx = RingContext(tuple(f"x{i}" for i in range(n)))
        rows = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        a = ideal(ctx, *[r for r in rows if any(r)] or [(1,) * n])
        q = rng.randint(2, 3)
        bracket = a.bracket_power(q)
        raised = [list(r) for r in bracket.rows]
        raised[0][raised[0].index(max(raised[0]))] += 1
        top = a.mu * (q - 1) + 1
        past = a.bracket_power(top + 1)
        assert _products_in(a, top, bracket)
        assert not _products_in(a, top, past)
        for b in (bracket, MonomialIdeal.from_exponents(ctx, raised), past):
            for count in range(1, top + 1):
                got = _products_in(a, count, b)
                assert got == b.contains_ideal(a ** count), (a, q, count)
                agreed[got] += 1
    assert min(agreed.values()) >= 50, agreed


def test_multiset_products_refuse_past_the_cell_bound():
    a = ideal(CTX4, *[(i, 4 - i, j, 4 - j) for i in range(5) for j in range(5)])
    with pytest.raises(ResourceLimitError, match="products of"):
        _products_in(a, a.mu + 1, a.bracket_power(2))
