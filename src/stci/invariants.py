"""Derived invariants of monomial ideals.

Everything here reduces to the decomposition and homology engines: depth
and projective dimension come from the Taylor complex or the lcm lattice,
cohomological dimension from the radical's projective dimension, formal
grade from the dimension formula, analytic spread from the compact faces of
the Newton polyhedron, and the arithmetic-rank upper bound from a
Schmitt-Vogel partition search.  Invariants that depend on the coefficient
field, from the projective dimension on, use the field of the ideal's ring.
Each memoized invariant is the public function itself, which rejects the
zero and unit ideal first; entries that only call one of them leave the
check to it.

Depth of high powers carries an explicit horizon and is never presented as
certified: no effective stabilization bound is assumed.  dg, the formal
grade minus that minimum, is computed in :func:`dg` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from . import homology
from .core import (MEMOS, Monomial, MonomialIdeal, ResourceLimitError, memo,
                   require_proper)
from .decomposition import dim_quotient, height, minimal_primes
from .linfeas import _bits, newton_facets

TAYLOR_DISPATCH_BOUND = 8
# Largest mu for the exact Schmitt-Vogel search; the greedy search runs above.
SV_EXACT_BOUND = 9
# Double-description rays, and faces the compact-face walk visits, for one
# Newton polyhedron; the benchmark ideals have at most 69 facets.
NEWTON_FACET_BOUND = 1 << 12


def clear_caches() -> None:
    """Empty every memo: projective dimension, minimal primes, radical,
    analytic spread, the Schmitt-Vogel bound and depth of powers."""
    for cached in MEMOS:
        cached.cache_clear()


def _check(ok: bool, relation: str) -> None:
    """An invariant check that, unlike ``assert``, also runs under ``python -O``."""
    if not ok:
        raise AssertionError(f"invariant violated: {relation}")


# ---------------------------------------------------------------------------
# projective dimension: dispatcher over Taylor / lattice with splittings


def _connected_blocks(sets: list[frozenset[int]]) -> list[set[int]]:
    """Unions of the nonempty ``sets`` that are connected through shared
    elements, ordered by their least element."""
    blocks: list[set[int]] = []
    for s in sets:
        block = set(s)
        apart = []
        for b in blocks:
            if b & block:
                block |= b
            else:
                apart.append(b)
        blocks = apart + [block]
    return sorted(blocks, key=min)


def _support_components(a: MonomialIdeal) -> list[list[int]]:
    """Partition generator indices by connected variable support."""
    blocks = _connected_blocks([g.support() for g in a.generators])
    return [
        [k for k, g in enumerate(a.generators) if g.support() <= block]
        for block in blocks
    ]


def _restrict(a: MonomialIdeal, variables: set[int]) -> MonomialIdeal:
    rows = []
    for g in a.generators:
        rows.append(
            tuple(e if j in variables else 0 for j, e in enumerate(g.exponents))
        )
    return MonomialIdeal.from_exponents(a.context, rows)


def _product_split(a: MonomialIdeal) -> list[MonomialIdeal] | None:
    """Factor ``a`` as a product of ideals in disjoint variables, if it is one.

    Candidate variable blocks come from the minimal primes of the radical;
    the factorization is verified by multiplying back, so a wrong candidate
    can only cost time, never correctness.
    """
    primes = minimal_primes(a.radical())
    blocks = _connected_blocks(
        [p.support() for p in primes] + [frozenset([v]) for v in a.support()]
    )
    if len(blocks) <= 1:
        return None
    factors = [_restrict(a, block) for block in blocks]
    if any(f.is_unit or f.is_zero for f in factors):
        return None
    factors.sort(key=lambda f: min(f.support()))
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    if product != a:
        return None
    return factors


@memo
def proj_dim(a: MonomialIdeal) -> int:
    """Projective dimension of R/a.

    Ideals with at most ``TAYLOR_DISPATCH_BOUND`` generators take the top
    degree of the Taylor complex.  Larger ones are split before the lattice
    search: disjoint-variable summands add their projective dimensions, and
    k factors of a product in disjoint variables add theirs less k - 1 (the
    Mayer-Vietoris sequence of the intersection splits).  The field is
    that of the ideal's ring.
    """
    require_proper(a)
    if a.mu <= TAYLOR_DISPATCH_BOUND:
        pd = max(homology.taylor_homology(a))
    elif len(components := _support_components(a)) > 1:
        pd = sum(
            proj_dim(MonomialIdeal.from_generators(
                a.context, [a.generators[k] for k in comp]))
            for comp in components
        )
    elif (factors := _product_split(a)) is not None:
        pd = sum(proj_dim(f) for f in factors) - (len(factors) - 1)
    else:
        pd = homology.koszul_proj_dim(a)
    # Hilbert's syzygy theorem, and the length of the Taylor resolution
    _check(1 <= pd <= min(a.context.n, a.mu), "1 <= pd <= min(n, mu)")
    return pd


def depth(a: MonomialIdeal) -> int:
    """depth of R/a, by the Auslander-Buchsbaum formula n - pd."""
    return a.context.n - proj_dim(a)


def cohomological_dimension(a: MonomialIdeal) -> int:
    """cd(a, R): the top nonvanishing local cohomology index with support in a.

    Local cohomology with support in ``a`` depends only on the radical, and
    for squarefree ideals cd equals the projective dimension of the
    quotient, so we compute pd(R / rad a).
    """
    return proj_dim(a.radical())


def formal_grade(a: MonomialIdeal) -> int:
    """Least nonvanishing index of formal local cohomology, as n - cd."""
    fg = a.context.n - cohomological_dimension(a)
    if a.is_squarefree:
        _check(fg == depth(a), "squarefree formal grade equals depth")
    return fg


# ---------------------------------------------------------------------------
# analytic spread via the Newton polyhedron


def _affine_dim(points: list[tuple[int, ...]]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[p[j] - base[j] for j in range(len(base))] for p in points[1:]]
    return homology.rank(rows)


def _exposed(w, points) -> tuple[int, int]:
    """The least w.p over the points p, and the mask of the points taking it."""
    values = [sum(x * y for x, y in zip(w, p)) for p in points]
    least = min(values)
    return least, sum(1 << k for k, v in enumerate(values) if v == least)


def _compact_faces(points) -> dict[int, tuple[int, ...]]:
    """Compact faces of the Newton polyhedron of ``points``, every maximal
    one among them, each as the mask of the points on it mapped to a
    strictly positive integer weight whose argmin over the points is that
    face.

    A face is compact when the normals of the facets through it cover every
    variable, and their sum is then such a weight.  The walk starts at the
    facets and cuts each face that is not compact by each facet covering one
    variable that its own facets miss; a compact face inside it lies on one
    of those, so every compact face lies in a compact face the walk reaches.
    It stops at the first compact face on each path, which leaves out no
    maximal one, and it returns just a compact facet when there is one, as
    no compact face is larger.
    """
    facets = newton_facets(points, NEWTON_FACET_BOUND)
    for w, c, mask in facets:
        _check(min(w) >= 0 and _exposed(w, points) == (c, mask),
               "a facet is valid and tight exactly on its points")
    compact = [(mask, w) for w, _, mask in facets if min(w) > 0]
    if compact:
        return dict(compact[:1])
    # facet sets as bitmasks: through each point, and with w_j > 0 for each j
    through = [sum(1 << i for i, f in enumerate(facets) if f[2] >> k & 1)
               for k in range(len(points))]
    cover = [sum(1 << i for i, f in enumerate(facets) if f[0][j])
             for j in range(len(points[0]))]
    everyone = (1 << len(facets)) - 1
    seen: set[int] = set()
    found: dict[int, tuple[int, ...]] = {}
    stack = [mask for _, _, mask in facets]
    while stack:
        fs = everyone  # the facets through every point of the popped mask
        for k in _bits(stack.pop()):
            fs &= through[k]
        face = sum(1 << k for k, t in enumerate(through) if t & fs == fs)
        if face in seen:
            continue
        seen.add(face)
        if len(seen) > NEWTON_FACET_BOUND:
            raise ResourceLimitError(
                f"the compact-face walk visits more than {NEWTON_FACET_BOUND} faces"
            )
        # the facets covering the missed variable that fewest facets cover
        cuts = min((c for c in cover if not fs & c), key=int.bit_count, default=0)
        if not cuts:
            weight = tuple(map(sum, zip(*(facets[i][0] for i in _bits(fs)))))
            _check(min(weight) > 0 and _exposed(weight, points)[1] == face,
                   "a compact face is the argmin of a strictly positive weight")
            found[face] = weight
        for i in _bits(cuts & ~fs):
            if face & facets[i][2]:
                stack.append(face & facets[i][2])
    return found


@memo
def analytic_spread(a: MonomialIdeal) -> int:
    """l(a): one plus the top dimension of a compact face of the Newton
    polyhedron; for ideals generated in one degree, the rank of the
    exponent matrix.

    Variables in no generator only add a free orthant factor, so they are
    dropped.
    """
    require_proper(a)
    points = [g.exponents for g in a.generators]
    degrees = {sum(p) for p in points}
    if len(degrees) == 1:
        return homology.rank(points)
    used = [j for j in range(a.context.n) if any(p[j] for p in points)]
    points = [tuple(p[j] for j in used) for p in points]
    return 1 + max(
        _affine_dim([p for k, p in enumerate(points) if mask >> k & 1])
        for mask in _compact_faces(points)
    )


# ---------------------------------------------------------------------------
# arithmetic rank upper bound (Schmitt-Vogel partitions)


@dataclass(frozen=True)
class AraBounds:
    """Bracketing of the arithmetic rank: cd(a) <= ara(a) <= upper."""

    lower: int
    upper: int
    certified: bool
    witness: tuple[tuple[Monomial, ...], ...]


def is_valid_sv_partition(
    a: MonomialIdeal, partition: tuple[tuple[Monomial, ...], ...]
) -> bool:
    """Check the partition certificate behind the upper bound.

    Levels partition the minimal generators, the first level is a single
    monomial, and the product of any two distinct monomials in one level
    is divisible by a monomial of an earlier level.
    """
    flat = [m for level in partition for m in level]
    if sorted(str(m) for m in flat) != sorted(str(g) for g in a.generators):
        return False
    if not partition or len(partition[0]) != 1:
        return False
    earlier: list[Monomial] = []
    for level in partition:
        for p, q in combinations(level, 2):
            prod = p * q
            if not any(e.divides(prod) for e in earlier):
                return False
        earlier.extend(level)
    return True


def _pair_divisors(exps: list[tuple[int, ...]]) -> dict[tuple[int, int], int]:
    """For each pair ``i < j`` of exponent rows, the bitmask of the rows
    dividing the product of rows ``i`` and ``j``."""
    pair_div: dict[tuple[int, int], int] = {}
    for i, j in combinations(range(len(exps)), 2):
        prod = [a + b for a, b in zip(exps[i], exps[j])]
        mask = 0
        for k, e in enumerate(exps):
            if all(a <= b for a, b in zip(e, prod)):
                mask |= 1 << k
        pair_div[(i, j)] = mask
    return pair_div


def _maximal_cliques(adj: list[int], vertices: int) -> list[int]:
    """Maximal cliques, as bitmasks, of the graph on the bitmask ``vertices``
    in which ``adj[v]`` is the neighbour mask of ``v`` (no self-loops).

    Bron-Kerbosch with a pivot: a vertex of ``p | x`` with the most
    neighbours in ``p``, so only its non-neighbours in ``p`` are branched on.
    """
    cliques: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                cliques.append(r)
            return
        px = p | x
        pivot = max(
            (v for v in range(px.bit_length()) if px >> v & 1),
            key=lambda v: (adj[v] & p).bit_count(),
        )
        rest = p & ~adj[pivot]
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            expand(r | low, p & adj[v], x & adj[v])
            p ^= low
            x |= low
            rest ^= low

    expand(0, vertices, 0)
    return cliques


def _sv_exact(gens: list[Monomial], pair_div: dict[tuple[int, int], int]) -> list[int]:
    """Breadth-first search over placed-generator masks; returns level masks.

    Only maximal levels are added.  A level stays valid when more is placed
    before it, and every subset of a valid level is valid.  So in a shortest
    partition each level can be grown to a maximal valid set among the
    unplaced generators, and its new members deleted from later levels,
    without adding a level.  The maximal levels after ``placed`` are the
    maximal cliques of the graph on the unplaced generators that joins
    ``x`` and ``y`` when an earlier generator divides their product.
    """
    mu = len(gens)
    full = (1 << mu) - 1
    parent: dict[int, tuple[int, int]] = {}
    frontier = []
    for i in range(mu):
        mask = 1 << i
        parent[mask] = (0, mask)
        frontier.append(mask)
    while frontier:
        nxt = []
        for placed in frontier:
            if placed == full:
                levels = []
                cur = placed
                while cur:
                    prev, block = parent[cur]
                    levels.append(block)
                    cur = prev
                return list(reversed(levels))
            comp = full ^ placed
            adj = [0] * mu
            for x, y in combinations([i for i in range(mu) if comp >> i & 1], 2):
                if pair_div[(x, y)] & placed:
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
            for level in _maximal_cliques(adj, comp):
                new = placed | level
                if new not in parent:
                    parent[new] = (placed, level)
                    nxt.append(new)
        frontier = nxt
    raise AssertionError("singleton levels always reach the full mask")


def _sv_greedy(gens: list[Monomial], pair_div: dict[tuple[int, int], int]) -> list[int]:
    """Largest-compatible-level-first heuristic, best over all first picks."""
    mu = len(gens)
    best: list[int] | None = None
    for start in range(mu):
        placed = 1 << start
        levels = [placed]
        while placed != (1 << mu) - 1:
            block = 0
            chosen: list[int] = []
            for i in range(mu):
                if placed >> i & 1 or block >> i & 1:
                    continue
                if all(pair_div[(min(i, j), max(i, j))] & placed for j in chosen):
                    chosen.append(i)
                    block |= 1 << i
            levels.append(block)
            placed |= block
        if best is None or len(levels) < len(best):
            best = levels
    assert best is not None
    return best


@memo
def schmitt_vogel_upper(a: MonomialIdeal) -> AraBounds:
    """Upper bound on the arithmetic rank from a Schmitt-Vogel partition.

    Searches partitions P_0, ..., P_r of the generators with |P_0| = 1 where
    every product of two distinct members of a level is divisible by an
    earlier member; then r + 1 elements (the level sums) generate ``a`` up
    to radical.  Exhaustive for mu <= ``SV_EXACT_BOUND``, greedy beyond; the
    singleton partition is always valid, so upper <= mu.
    """
    require_proper(a)
    gens = list(a.generators)
    mu = len(gens)
    pair_div = _pair_divisors([g.exponents for g in gens])
    if mu <= 1:
        level_masks = [1] if mu else []
    elif mu <= SV_EXACT_BOUND:
        level_masks = _sv_exact(gens, pair_div)
    else:
        level_masks = _sv_greedy(gens, pair_div)
    witness = tuple(
        tuple(gens[i] for i in range(mu) if block >> i & 1)
        for block in level_masks
    )
    lower = cohomological_dimension(a)
    upper = len(level_masks)
    bounds = AraBounds(lower, upper, lower == upper, witness)
    _check(is_valid_sv_partition(a, witness), "valid Schmitt-Vogel partition")
    return bounds


# ---------------------------------------------------------------------------
# depth of powers, dg, and the assembled report


class MinDepthResult(NamedTuple):
    value: int
    horizon: int
    certified: bool


class DgResult(NamedTuple):
    value: int
    horizon: int


@memo
def min_depth_powers(a: MonomialIdeal, horizon: int) -> MinDepthResult:
    """min over 1 <= t <= horizon of depth R/a^t; explicitly uncertified.

    Stabilization of depth of powers holds eventually, but no effective
    bound for the onset is used here; the horizon is reported alongside.
    Short-circuits once depth zero is reached; memoized on ``(a, horizon)``.
    """
    require_proper(a)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    power = a
    best = depth(power)
    for _ in range(horizon - 1):
        if best == 0:
            break
        power = power * a
        best = min(best, depth(power))
    _check(0 <= best <= a.context.n, "0 <= depth <= n")
    return MinDepthResult(best, horizon, False)


def dg(a: MonomialIdeal, horizon: int) -> DgResult:
    """formal grade minus the observed minimum depth of powers."""
    value = formal_grade(a) - min_depth_powers(a, horizon).value
    _check(value >= 0, "dg >= 0")
    return DgResult(value, horizon)


@dataclass(frozen=True)
class InvariantReport:
    """Every computed invariant of one ideal, with certification flags."""

    mu: int
    height: int
    dim_quotient: int
    depth: int
    proj_dim: int
    cd: int
    fgrade: int
    analytic_spread: int
    ara: AraBounds
    dg_value: int
    dg_horizon: int
    min_depth_value: int
    min_depth_horizon: int
    squarefree: bool
    cohen_macaulay: bool
    cohomologically_ci: bool
    stci_certified: bool

    def invariants_dict(self) -> dict:
        """The invariants/flags payload, in the published key order."""
        return {
            "invariants": {
                "mu": self.mu,
                "height": self.height,
                "dim_quotient": self.dim_quotient,
                "depth": self.depth,
                "proj_dim": self.proj_dim,
                "cd": self.cd,
                "fgrade": self.fgrade,
                "analytic_spread": self.analytic_spread,
                "ara": {
                    "lower": self.ara.lower,
                    "upper": self.ara.upper,
                    "certified": self.ara.certified,
                },
                "dg": {
                    "value": self.dg_value,
                    "horizon": self.dg_horizon,
                    "certified": False,
                },
                "min_depth_powers": {
                    "value": self.min_depth_value,
                    "horizon": self.min_depth_horizon,
                },
            },
            "flags": {
                "squarefree": self.squarefree,
                "cohen_macaulay": self.cohen_macaulay,
                "cohomologically_ci": self.cohomologically_ci,
                "stci_certified": self.stci_certified,
            },
        }


def report(a: MonomialIdeal, horizon: int = 3) -> InvariantReport:
    """Assemble the full invariant report; internal inequalities checked."""
    n = a.context.n
    ht = height(a)
    dim_q = dim_quotient(a)
    pd = proj_dim(a)
    dep = n - pd
    cd = cohomological_dimension(a)
    fg = n - cd
    spread = analytic_spread(a)
    ara = schmitt_vogel_upper(a)
    md = min_depth_powers(a, horizon)
    dg_res = dg(a, horizon)
    squarefree = a.is_squarefree
    rep = InvariantReport(
        mu=a.mu,
        height=ht,
        dim_quotient=dim_q,
        depth=dep,
        proj_dim=pd,
        cd=cd,
        fgrade=fg,
        analytic_spread=spread,
        ara=ara,
        dg_value=dg_res.value,
        dg_horizon=horizon,
        min_depth_value=md.value,
        min_depth_horizon=horizon,
        squarefree=squarefree,
        cohen_macaulay=dep == dim_q,
        cohomologically_ci=ht == cd,
        stci_certified=ara.certified and ara.upper == ht,
    )
    _check(rep.height <= rep.cd, "height <= cd")
    _check(rep.ara.lower == rep.cd <= rep.ara.upper <= rep.mu,
           "ara lower = cd <= ara upper <= mu")
    _check(rep.cd <= rep.analytic_spread <= rep.mu, "cd <= analytic spread <= mu")
    _check(rep.depth + rep.proj_dim == n, "depth + proj_dim = n")
    _check(rep.fgrade == n - rep.cd, "fgrade = n - cd")
    _check(rep.dg_value >= 0, "dg >= 0")
    return rep
