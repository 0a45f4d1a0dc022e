"""Executable checks of the identities and bounds the library is built around.

Each checker takes concrete inputs, evaluates one statement, and returns a
CheckResult with a verdict and a witness sufficient to replay the check.
A hypothesis that fails yields "not-applicable", never a silent skip; a
conclusion our bounds cannot decide yields "uncertified".

The reference suite pins the library against a fixed battery of worked
examples with known values; ``fuzz`` runs the checkers over seeded random
ideals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from . import invariants
from .core import (PAIR_CELL_BOUND, FieldSpec, MonomialIdeal,
                   ResourceLimitError, RingContext)
from .decomposition import _variable_prime, dim_quotient, height, symbolic_power
from .homology import STANLEY_REISNER_BOUND, local_cohomology_nonvanishing

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
UNCERTIFIED = "uncertified"


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str
    witness: dict

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL


def _ideal_witness(a: MonomialIdeal) -> dict:
    return {
        "ring": list(a.context.variables),
        "field": str(a.context.field),
        "generators": [list(r) for r in a.rows],
        "generator_strings": a.generator_strings(),
    }


def _rebuild(witness: dict) -> MonomialIdeal:
    ctx = RingContext(tuple(witness["ring"]), FieldSpec.parse(witness["field"]))
    return MonomialIdeal.from_exponents(ctx, witness["generators"])


# ---------------------------------------------------------------------------
# individual checkers


def check_chain(a: MonomialIdeal, name: str = "chain") -> CheckResult:
    """The inequality chain ht <= cd <= ara-upper <= mu and cd <= l <= mu."""
    ht = height(a)
    cd = invariants.cohomological_dimension(a)
    upper = len(invariants.schmitt_vogel_upper(a))
    spread = invariants.analytic_spread(a)
    mu = a.mu
    witness = _ideal_witness(a) | {
        "checker": "chain",
        "height": ht,
        "cd": cd,
        "ara_lower": cd,
        "ara_upper": upper,
        "analytic_spread": spread,
        "mu": mu,
    }
    ok = ht <= cd <= upper <= mu and cd <= spread <= mu
    return CheckResult(name, PASS if ok else FAIL, witness)


def check_dg_dichotomy(
    a: MonomialIdeal, horizon: int = 3, name: str = "dg-dichotomy"
) -> CheckResult:
    """Consequences of dg = 0 and dg = 1.

    dg = 0: being a set-theoretic complete intersection is equivalent to
    height = cd.  dg = 1: the analytic spread differs from
    n - min depth of powers exactly when cd = ara = l.

    The horizon minimum depth is not certified, but Burch's inequality
    bounds the true infimum by min(observed, n - l), so dg is at least
    fgrade minus that.  At 2 or more neither case applies; this covers every
    dg = 1 verdict that rests on an observed minimum above n - l.
    """
    n = a.context.n
    ht = height(a)
    cd = invariants.cohomological_dimension(a)
    upper = len(invariants.schmitt_vogel_upper(a))
    spread = invariants.analytic_spread(a)
    md = invariants.min_depth_powers(a, horizon)
    fg = invariants.formal_grade(a)
    dg_value = invariants.dg(a, horizon)
    witness = _ideal_witness(a) | {
        "checker": "dg-dichotomy",
        "horizon": horizon,
        "dg": dg_value,
        "height": ht,
        "cd": cd,
        "ara_upper": upper,
        "analytic_spread": spread,
        "min_depth": md,
    }
    if fg - min(md, n - spread) >= 2:
        return CheckResult(name, NOT_APPLICABLE, witness)
    if dg_value == 0:
        if ht != cd:
            # not cohomologically CI, and ara >= cd > ht rules out STCI:
            # both sides of the equivalence are false
            return CheckResult(name, PASS, witness)
        if cd == upper == ht:
            return CheckResult(name, PASS, witness)
        # ht = cd requires STCI, but the partition bound cannot exhibit it
        return CheckResult(name, UNCERTIFIED, witness)
    if dg_value == 1:
        lhs = spread != n - md
        rhs = cd == spread  # cd <= ara <= l forces ara = l = cd then
        return CheckResult(name, PASS if lhs == rhs else FAIL, witness)
    return CheckResult(name, NOT_APPLICABLE, witness)


def check_one_dimensional_prime(
    p: MonomialIdeal, horizon: int = 3, name: str = "one-dimensional-prime"
) -> CheckResult:
    """Variable-generated primes with formal grade at most one.

    When the symbolic and ordinary powers agree, the analytic spread and
    cohomological dimension both equal n - 1, and the prime is a
    set-theoretic complete intersection.  Primes with formal grade above
    one, and the maximal ideal itself, are out of hypothesis.
    """
    witness = _ideal_witness(p) | {"checker": "one-dimensional-prime",
                                   "horizon": horizon}
    variable_generated = all(sum(r) == 1 for r in p.rows)
    if not variable_generated:
        witness["reason"] = "not generated by variables"
        return CheckResult(name, NOT_APPLICABLE, witness)
    n = p.context.n
    fg = invariants.formal_grade(p)
    witness["fgrade"] = fg
    if fg > 1:
        witness["reason"] = "formal grade exceeds 1"
        return CheckResult(name, NOT_APPLICABLE, witness)
    if dim_quotient(p) == 0:
        witness["reason"] = "maximal ideal: needs a nonmaximal prime"
        return CheckResult(name, NOT_APPLICABLE, witness)
    for t in range(1, horizon + 1):
        if symbolic_power(p, t) != p ** t:
            witness["failed_power"] = t
            return CheckResult(name, FAIL, witness)
    spread = invariants.analytic_spread(p)
    cd = invariants.cohomological_dimension(p)
    upper = len(invariants.schmitt_vogel_upper(p))
    ht = height(p)
    witness |= {"analytic_spread": spread, "cd": cd, "ara_upper": upper,
                "height": ht}
    ok = spread == cd == n - 1 and cd == upper == ht
    return CheckResult(name, PASS if ok else FAIL, witness)


def check_squarefree_cm(a: MonomialIdeal, name: str = "squarefree-cm") -> CheckResult:
    """Local cohomology support of squarefree quotients.

    The nonvanishing degrees with support in ``a``, read off from the
    quotient's local cohomology at the maximal ideal, must peak at the
    projective dimension, and the quotient is Cohen-Macaulay exactly when
    height = cd.
    """
    witness = _ideal_witness(a) | {"checker": "squarefree-cm"}
    if not a.is_squarefree:
        witness["reason"] = "not squarefree"
        return CheckResult(name, NOT_APPLICABLE, witness)
    n = a.context.n
    locoh = sorted(local_cohomology_nonvanishing(a))
    support_in_a = sorted(n - j for j in locoh)
    pd = invariants.proj_dim(a)
    dep = n - pd
    cd = invariants.cohomological_dimension(a)
    ht = height(a)
    dim_q = dim_quotient(a)
    witness |= {
        "locoh_degrees": locoh,
        "support_degrees": support_in_a,
        "proj_dim": pd,
        "depth": dep,
        "cd": cd,
        "height": ht,
        "dim_quotient": dim_q,
    }
    ok = (
        max(support_in_a) == pd
        and min(locoh) == dep
        and max(locoh) == dim_q
        and (ht == cd) == (dep == dim_q)
    )
    return CheckResult(name, PASS if ok else FAIL, witness)


def check_disjoint_prime_intersection(
    ctx: RingContext,
    prime_sets: list[list[int]],
    horizon: int = 3,
    name: str = "disjoint-primes",
) -> CheckResult:
    """cd of an intersection of primes in pairwise disjoint variables.

    For I the intersection of k variable-generated primes of sizes r_i with
    disjoint supports, cd(I) = sum r_i - k + 1 and dg(I) = 0.
    """
    if not prime_sets:
        raise ValueError("need at least one prime")
    seen: set[int] = set()
    for s in prime_sets:
        if not s:
            raise ValueError("primes must be nonempty")
        if not set(s) <= set(range(ctx.n)):
            raise ValueError(f"variable indices must lie in 0..{ctx.n - 1}")
        if len(set(s)) != len(s):
            raise ValueError("a prime's variable indices must be distinct")
        if seen & set(s):
            raise ValueError("variable sets must be pairwise disjoint")
        seen |= set(s)
    primes = [_variable_prime(ctx, frozenset(s)) for s in prime_sets]
    ideal = primes[0]
    for p in primes[1:]:
        ideal = ideal & p
    expected = sum(len(s) for s in prime_sets) - len(prime_sets) + 1
    cd = invariants.cohomological_dimension(ideal)
    dg_value = invariants.dg(ideal, horizon)
    witness = _ideal_witness(ideal) | {
        "checker": "disjoint-primes",
        "prime_sets": [sorted(s) for s in prime_sets],
        "horizon": horizon,
        "cd": cd,
        "expected_cd": expected,
        "dg": dg_value,
    }
    ok = cd == expected and dg_value == 0
    return CheckResult(name, PASS if ok else FAIL, witness)


def _products_in(a: MonomialIdeal, count: int, b: MonomialIdeal) -> bool:
    """Whether every product of ``count`` generators of ``a``, repeats
    allowed, lies in ``b``: these products generate a^count, so this is
    a^count <= b with no power minimalized.  Raises ResourceLimitError when
    the multisets times their size and the variables exceed
    ``PAIR_CELL_BOUND`` cells."""
    cells = comb(a.mu + count - 1, count) * count * a.context.n
    if cells > PAIR_CELL_BOUND:
        raise ResourceLimitError(
            f"products of {count} of {a.mu} generators exceed the bound of "
            f"{PAIR_CELL_BOUND} cells")
    picks = np.array(list(combinations_with_replacement(range(a.mu), count)),
                     dtype=np.intp).reshape(-1, count)
    return b.contains_rows(a.exponent_matrix()[picks].sum(axis=1))


def check_frobenius(a: MonomialIdeal, q: int, name: str = "frobenius") -> CheckResult:
    """Bracket powers: the sandwich a^(mu(q-1)+1) <= a^[q] <= a^q, equal
    radicals, unchanged depth, and depth <= fgrade <= dim of the quotient.
    The left inclusion is pigeonhole: a product of mu(q-1)+1 generators
    repeats one of them q times.  It implies the weaker a^(mu q) <= a^[q]."""
    if q < 2:
        raise ValueError("bracket-power checks need q >= 2")
    bracket = a.bracket_power(q)
    ordinary = a ** q
    pigeonhole = _products_in(a, a.mu * (q - 1) + 1, bracket)
    dep = invariants.depth(a)
    fg = invariants.formal_grade(a)
    dim_q = dim_quotient(a)
    dep_bracket = invariants.depth(bracket)
    witness = _ideal_witness(a) | {
        "checker": "frobenius",
        "q": q,
        "depth": dep,
        "depth_bracket": dep_bracket,
        "fgrade": fg,
        "dim_quotient": dim_q,
    }
    ok = (
        bracket.radical() == ordinary.radical()
        and pigeonhole
        and ordinary.contains_ideal(bracket)
        and dep_bracket == dep
        and dep <= fg <= dim_q
    )
    return CheckResult(name, PASS if ok else FAIL, witness)


# ---------------------------------------------------------------------------
# fixed reference suite


def _value_check(name: str, witness: dict, ok: bool) -> CheckResult:
    return CheckResult(name, PASS if ok else FAIL, witness)


def _triangle_context() -> RingContext:
    return RingContext(("x", "y", "z"))


def triangle_edge_ideal(ctx: RingContext | None = None) -> MonomialIdeal:
    """(x*y, x*z, y*z): the edge ideal of a triangle, depth 1 with a
    depth-zero square."""
    ctx = ctx or _triangle_context()
    return MonomialIdeal.from_exponents(ctx, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])


def two_planes_ideal(ctx: RingContext | None = None) -> MonomialIdeal:
    """(x1,x2) ^ (x3,x4): two disjoint planes in four variables."""
    ctx = ctx or RingContext(("x1", "x2", "x3", "x4"))
    p12 = MonomialIdeal.from_exponents(ctx, [(1, 0, 0, 0), (0, 1, 0, 0)])
    p34 = MonomialIdeal.from_exponents(ctx, [(0, 0, 1, 0), (0, 0, 0, 1)])
    return p12 & p34


def run_reference_suite(horizon: int = 3) -> list[CheckResult]:
    """Replay the fixed battery of known values and checkers; all must pass."""
    results: list[CheckResult] = []
    ctx3 = _triangle_context()
    tri = triangle_edge_ideal(ctx3)
    px_y = MonomialIdeal.from_exponents(ctx3, [(1, 0, 0), (0, 1, 0)])
    py_z = MonomialIdeal.from_exponents(ctx3, [(0, 1, 0), (0, 0, 1)])
    px_z = MonomialIdeal.from_exponents(ctx3, [(1, 0, 0), (0, 0, 1)])

    results.append(_value_check(
        "triangle-generators",
        _ideal_witness(tri),
        (px_y & py_z & px_z) == tri,
    ))
    results.append(_value_check(
        "triangle-depth", _ideal_witness(tri) | {"depth": invariants.depth(tri)},
        invariants.depth(tri) == 1,
    ))
    tri_sq = tri ** 2
    results.append(_value_check(
        "triangle-square-depth",
        _ideal_witness(tri_sq) | {"depth": invariants.depth(tri_sq)},
        invariants.depth(tri_sq) == 0,
    ))
    sq_formula = (px_y ** 2) & (py_z ** 2) & (px_z ** 2) & MonomialIdeal.from_exponents(
        ctx3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]
    )
    results.append(_value_check(
        "triangle-square-decomposition", _ideal_witness(tri_sq), tri_sq == sq_formula,
    ))
    results.append(_value_check(
        "triangle-fgrade",
        _ideal_witness(tri) | {"fgrade": invariants.formal_grade(tri)},
        invariants.formal_grade(tri) == 1,
    ))
    xyz = ctx3.monomial((1, 1, 1))
    results.append(_value_check(
        "triangle-symbolic-square-gap",
        _ideal_witness(tri),
        xyz in symbolic_power(tri, 2) and xyz not in tri_sq,
    ))
    tri_dg = _ideal_witness(tri) | {"dg": invariants.dg(tri, horizon),
                                    "horizon": horizon}
    if horizon < 2:
        tri_dg["reason"] = "the depth-zero square lies beyond the horizon"
        results.append(CheckResult("triangle-dg", NOT_APPLICABLE, tri_dg))
    else:
        results.append(_value_check("triangle-dg", tri_dg, tri_dg["dg"] == 1))
    results.append(check_dg_dichotomy(tri, horizon, name="dg-dichotomy-triangle"))
    results.append(check_squarefree_cm(tri, name="squarefree-cm-triangle"))
    results.append(check_chain(tri, name="chain-triangle"))

    planes = two_planes_ideal()
    rep = invariants.report(planes, horizon=horizon)
    inv = rep["invariants"]
    results.append(_value_check(
        "two-planes-invariants",
        _ideal_witness(planes) | rep,
        (
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
        ),
    ))
    results.append(check_chain(planes, name="chain-two-planes"))
    results.append(check_dg_dichotomy(planes, horizon, name="dg-dichotomy-two-planes"))
    results.append(check_squarefree_cm(planes, name="squarefree-cm-two-planes"))

    ctx5 = RingContext(("x1", "x2", "x3", "x4", "x5"))
    results.append(check_disjoint_prime_intersection(
        ctx5, [[0, 1], [2, 3], [4]], horizon, name="disjoint-primes-three-blocks"
    ))
    ctx1 = RingContext(("x1",))
    results.append(check_disjoint_prime_intersection(
        ctx1, [[0]], horizon, name="disjoint-primes-principal"
    ))

    xy_z = MonomialIdeal.from_exponents(ctx3, [(1, 1, 0), (0, 0, 1)])
    results.append(check_frobenius(xy_z, 2, name="frobenius-two-generators"))
    results.append(check_frobenius(tri, 2, name="frobenius-triangle"))
    ctx_x = RingContext(("x",))
    principal = MonomialIdeal.from_exponents(ctx_x, [(1,)])
    results.append(check_frobenius(principal, 5, name="frobenius-principal"))
    results.append(_value_check(
        "bracket-radical-identity",
        _ideal_witness(xy_z) | {"q": 2},
        xy_z.bracket_power(2).radical() == (xy_z ** 2).radical(),
    ))

    results.append(check_one_dimensional_prime(
        px_y, horizon, name="one-dim-prime-three-vars"
    ))
    ctx4 = RingContext(("x1", "x2", "x3", "x4"))
    p123 = MonomialIdeal.from_exponents(
        ctx4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    )
    results.append(check_one_dimensional_prime(
        p123, horizon, name="one-dim-prime-four-vars"
    ))
    p12_in4 = MonomialIdeal.from_exponents(ctx4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    na = check_one_dimensional_prime(
        p12_in4, horizon, name="one-dim-prime-high-fgrade"
    )
    results.append(CheckResult(
        na.name,
        PASS if na.verdict == NOT_APPLICABLE else FAIL,
        na.witness | {"expected_verdict": NOT_APPLICABLE},
    ))
    return results


# ---------------------------------------------------------------------------
# randomized campaigns


@dataclass(frozen=True)
class RandomIdealSpec:
    """Deterministic generation recipe for random proper nonzero ideals."""

    n: int = 4
    squarefree: bool = False
    max_exponent: int = 3
    max_generators: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.max_exponent < 1 or self.max_generators < 1:
            raise ValueError("exponent and generator bounds must be positive")
        if self.squarefree and self.n < 2:
            # every facet is then the whole vertex set: no nonface to draw
            raise ValueError("random squarefree ideals need at least two variables")
        if self.squarefree and self.n > STANLEY_REISNER_BOUND:
            raise ResourceLimitError(
                f"the squarefree checks enumerate 2^n faces; n = {self.n} "
                f"exceeds the Stanley-Reisner bound {STANLEY_REISNER_BOUND}"
            )


def _random_squarefree(ctx: RingContext, rng: random.Random) -> MonomialIdeal:
    """Stanley-Reisner ideal of a complex with random facets.

    Its minimal nonfaces are the minimal transversals of the facet
    complements, so it is the intersection of the primes generated by the
    variables outside each facet.  A facet has at most n - 1 vertices, so
    no prime is zero.
    """
    n = ctx.n
    ideal = ctx.unit_ideal()
    for _ in range(rng.randint(1, n - 1)):
        facet = rng.sample(range(n), rng.randint(1, n - 1))
        ideal = ideal & _variable_prime(ctx, frozenset(range(n)).difference(facet))
    return ideal


def random_ideal(spec: RandomIdealSpec, rng: random.Random) -> MonomialIdeal:
    ctx = RingContext(tuple(f"x{i}" for i in range(1, spec.n + 1)))
    if spec.squarefree:
        return _random_squarefree(ctx, rng)
    while True:
        m = rng.randint(1, spec.max_generators)
        rows = []
        for _ in range(m):
            while True:
                row = tuple(rng.randint(0, spec.max_exponent) for _ in range(spec.n))
                if any(row):
                    rows.append(row)
                    break
        ideal = MonomialIdeal.from_exponents(ctx, rows)
        if not ideal.is_zero and not ideal.is_unit:
            return ideal


def _fuzz_one(index: int, a: MonomialIdeal, horizon: int) -> list[CheckResult]:
    results = [
        check_chain(a, name=f"chain[{index}]"),
        check_dg_dichotomy(a, horizon, name=f"dg-dichotomy[{index}]"),
        check_squarefree_cm(a, name=f"squarefree-cm[{index}]"),
    ]
    if a.mu <= 4:
        results.append(check_frobenius(a, 2, name=f"frobenius[{index}]"))
    return results


def fuzz(spec: RandomIdealSpec, count: int, horizon: int = 3) -> list[CheckResult]:
    """Run every applicable checker on ``count`` seeded random ideals."""
    if count < 0:
        raise ValueError(f"fuzz count must be non-negative, got {count}")
    rng = random.Random(spec.seed)
    ideals = [random_ideal(spec, rng) for _ in range(count)]
    return [r for i, a in enumerate(ideals) for r in _fuzz_one(i, a, horizon)]


# ---------------------------------------------------------------------------
# replay


_CHECKER_REGISTRY = {
    "chain": lambda w, name: check_chain(_rebuild(w), name=name),
    "dg-dichotomy": lambda w, name: check_dg_dichotomy(
        _rebuild(w), w.get("horizon", 3), name=name
    ),
    "one-dimensional-prime": lambda w, name: check_one_dimensional_prime(
        _rebuild(w), w.get("horizon", 3), name=name
    ),
    "squarefree-cm": lambda w, name: check_squarefree_cm(_rebuild(w), name=name),
    "disjoint-primes": lambda w, name: check_disjoint_prime_intersection(
        RingContext(tuple(w["ring"]), FieldSpec.parse(w["field"])),
        w["prime_sets"],
        w.get("horizon", 3),
        name=name,
    ),
    "frobenius": lambda w, name: check_frobenius(_rebuild(w), w["q"], name=name),
}


def replay(result: CheckResult) -> CheckResult:
    """Re-run the checker recorded in a result's witness.

    A reference check, and a checker whose verdict the suite compares with
    an ``expected_verdict``, is found by name in the reference suite rerun
    at the horizon its witness records, or at 3 when it records none.
    """
    w = result.witness
    checker = w.get("checker")
    if checker in _CHECKER_REGISTRY and "expected_verdict" not in w:
        return _CHECKER_REGISTRY[checker](w, result.name)
    if "invariants" in w:
        horizon = w["invariants"]["dg"]["horizon"]
    else:
        horizon = w.get("horizon", 3)
    for r in run_reference_suite(horizon):
        if r.name == result.name:
            return r
    raise ValueError(f"cannot replay check {result.name!r}")
