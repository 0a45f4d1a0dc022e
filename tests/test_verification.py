"""Checkers, the reference suite, fuzz campaigns, and replayability."""

import random
import time

import pytest

from stci.core import MonomialIdeal, ResourceLimitError, RingContext
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
    _random_squarefree,
    random_ideal,
    replay,
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
        rows = [tuple(e * q for e in g.exponents) for g in self.generators]
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
    second = run_reference_suite()
    assert [r.verdict for r in first] == [r.verdict for r in second]
    assert [r.name for r in first] == [r.name for r in second]
    assert all(r.verdict != FAIL for r in first)
    assert len(first) >= 20


def test_fuzz_deterministic_and_replayable():
    spec = RandomIdealSpec(n=3, squarefree=False, max_exponent=2,
                           max_generators=3, seed=42)
    a = fuzz(spec, 8)
    b = fuzz(spec, 8)
    assert [(r.name, r.verdict) for r in a] == [(r.name, r.verdict) for r in b]
    assert all(r.verdict != FAIL for r in a)
    for r in a[:6]:
        again = replay(r)
        assert again.verdict == r.verdict


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


def test_replay_of_reference_fixture():
    first = run_reference_suite()
    target = next(r for r in first if r.name == "two-planes-invariants")
    assert replay(target).verdict == target.verdict


@pytest.mark.parametrize("horizon", [1, 2, 3, 4])
def test_replay_reruns_the_reference_suite_at_the_recorded_horizon(horizon):
    for r in run_reference_suite(horizon):
        assert replay(r) == r, r.name
