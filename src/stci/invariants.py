"""Derived invariants of monomial ideals.

Everything here reduces to the decomposition and homology engines: depth
and projective dimension come from the socle test on the exponent grid, the
Taylor strands, or the walk over the exponent grid or the lcm lattice; cd
from the radical's projective dimension, formal grade from the dimension
formula, analytic spread from the compact faces of the Newton polyhedron,
and the arithmetic-rank upper bound as the length of the Schmitt-Vogel
partition, levels of exponent rows, that :func:`schmitt_vogel_upper` returns.
Invariants that depend on the coefficient field, from the projective
dimension on, use the field of the ideal's ring.  Each memoized invariant
is the public function itself, which rejects the zero and unit ideal first;
entries that only call one of them leave the check to it.

Depth of high powers carries an explicit horizon and is never presented as
certified: no effective stabilization bound is assumed.
:func:`min_depth_powers` returns the minimum over the horizon as an int, and
dg, the formal grade minus that minimum, is computed in :func:`dg` alone.
:func:`report` builds the ``invariants`` and ``flags`` of the ``report``
payload as one dict; the horizon and certification of dg appear only there.
It checks ``height <= cd <= ara upper``, ``cd <= analytic spread <= mu`` and
``depth <= fgrade``, relations between numbers computed apart.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from operator import add, le

import numpy as np

from . import homology
from .core import (MEMOS, PAIR_CELL_BOUND, MonomialIdeal, ResourceLimitError,
                   _bits, memo, require_proper)
from .decomposition import dim_quotient, height
from .linfeas import newton_facets

TAYLOR_DISPATCH_BOUND = 8
# Largest mu for the exact Schmitt-Vogel search; the greedy search runs above.
SV_EXACT_BOUND = 9
# Double-description rays, and faces the compact-face walk visits, for one
# Newton polyhedron; only one with no compact facet has its facets all listed.
NEWTON_FACET_BOUND = 1 << 12


def clear_caches() -> None:
    """Empty every memo: projective dimension, minimal primes, radical,
    analytic spread, the Schmitt-Vogel partition and depth of powers."""
    for cached in MEMOS:
        cached.cache_clear()


def _check(ok: bool, relation: str) -> None:
    """An invariant check that, unlike ``assert``, also runs under ``python -O``."""
    if not ok:
        raise AssertionError(f"invariant violated: {relation}")


# ---------------------------------------------------------------------------
# projective dimension: socle test, Taylor strands, grid / lattice walk


def _connected_blocks(sets: list[int]) -> list[int]:
    """Unions of the nonempty ``sets``, as bitmasks, that are connected
    through shared elements, in no fixed order."""
    blocks: list[int] = []
    for block in sets:
        apart = []
        for b in blocks:
            if b & block:
                block = block | b
            else:
                apart.append(b)
        blocks = apart + [block]
    return blocks


def _support_components(a: MonomialIdeal) -> list[list[int]]:
    """Partition generator indices by connected variable support, the parts
    ordered by their least variable."""
    supports = [sum(1 << j for j, e in enumerate(r) if e) for r in a.rows]
    blocks = sorted(_connected_blocks(supports), key=lambda b: b & -b)
    return [[k for k, s in enumerate(supports) if s & b == s] for b in blocks]


def _restrict(a: MonomialIdeal, variables: set[int]) -> MonomialIdeal:
    """The ideal of ``a``'s generators with every exponent outside
    ``variables`` set to 0."""
    keep = np.zeros(a.context.n, dtype=np.int64)
    keep[list(variables)] = 1
    return MonomialIdeal._from_rows(a.context, (a.exponent_matrix() * keep).tolist())


def _product_split(a: MonomialIdeal) -> list[MonomialIdeal] | None:
    """Factor ``a`` as a product of ideals in disjoint variables, if it is one.

    The minimal generators of such a product are the products of one
    generator from each factor, so the rows take every pair of an exponent
    of u and one of v that occur, for u and v in different factors.
    Candidate variable blocks join u and v when the rows miss such a pair;
    the factorization is verified by multiplying back, so a wrong candidate
    can only cost time, never correctness.
    """
    cols = list(zip(*a.rows))
    support = [j for j, col in enumerate(cols) if any(col)]
    values = [len(set(col)) for col in cols]
    blocks = _connected_blocks(
        [1 << u | 1 << v for u, v in combinations(support, 2)
         if len(set(zip(cols[u], cols[v]))) < values[u] * values[v]]
        + [1 << j for j in support]
    )
    if len(blocks) <= 1:
        return None
    factors = [_restrict(a, {j for j in support if b >> j & 1})
               for b in sorted(blocks, key=lambda b: b & -b)]
    if any(f.is_unit for f in factors):
        return None
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    if product != a:
        return None
    return factors


@memo
def proj_dim(a: MonomialIdeal, floor: int = 1) -> int:
    """max(floor, pd R/a); ``floor = 1`` gives the projective dimension of
    R/a, and the memo is keyed by ``(a, floor)``.

    pd R/a <= top = min(k, mu), k the number of variables in the support
    of a, by Hilbert's syzygy theorem over those k variables and by the
    length of the Taylor resolution; so a floor of at least top is
    returned at once.  At floor = k - 1 < mu, pd = k is a socle test on the
    exponent grid (:func:`homology.socle_proj_dim`) when the grid has at
    most ``GRID_CELL_BOUND`` points.  Otherwise ideals with at most
    ``TAYLOR_DISPATCH_BOUND`` generators take the Taylor strands.  Other
    ideals are split before the lattice search: disjoint-variable summands
    add their projective dimensions, and j factors of a product in
    disjoint variables add theirs less j - 1 (the Mayer-Vietoris sequence
    of the intersection splits).  The splits compute the whole projective
    dimension; the Taylor and lattice walks start from the floor, and skip
    what cannot raise pd above it.  The field is that of the ideal's ring.
    """
    require_proper(a)
    k = sum(map(any, zip(*a.rows)))
    if floor >= min(k, a.mu):
        return floor
    if floor == k - 1 and (pd := homology.socle_proj_dim(a, floor)) is not None:
        return pd
    if a.mu <= TAYLOR_DISPATCH_BOUND:
        pd = homology.taylor_proj_dim(a, floor)
    elif len(components := _support_components(a)) > 1:
        pd = sum(
            proj_dim(MonomialIdeal(a.context, tuple(a.rows[k] for k in comp)))
            for comp in components
        )
    elif (factors := _product_split(a)) is not None:
        pd = sum(proj_dim(f) for f in factors) - (len(factors) - 1)
    else:
        pd = homology.koszul_proj_dim(a, floor)
    # Hilbert's syzygy theorem, and the length of the Taylor resolution,
    # which the early return of the floor relies on; a walk that did not
    # raise the floor did not compute pd R/a <= floor
    _check(pd == floor or 1 <= pd <= min(k, a.mu), "1 <= pd <= min(k, mu)")
    return max(pd, floor)


def depth(a: MonomialIdeal, floor: int = 1) -> int:
    """depth of R/a, by the Auslander-Buchsbaum formula n - pd, or n - floor
    when that is less (see :func:`proj_dim`)."""
    return a.context.n - proj_dim(a, floor)


def cohomological_dimension(a: MonomialIdeal) -> int:
    """cd(a, R): the top nonvanishing local cohomology index with support in a.

    Local cohomology with support in ``a`` depends only on the radical, and
    for squarefree ideals cd equals the projective dimension of the
    quotient, so we compute pd(R / rad a).
    """
    return proj_dim(a.radical())


def formal_grade(a: MonomialIdeal) -> int:
    """Least nonvanishing index of formal local cohomology, as n - cd."""
    return a.context.n - cohomological_dimension(a)


# ---------------------------------------------------------------------------
# analytic spread via the Newton polyhedron


def _affine_dim(points: list[tuple[int, ...]]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[p[j] - base[j] for j in range(len(base))] for p in points[1:]]
    return homology.rank(rows)


def _exposed_all(weights, points) -> tuple[list[int], list[int]]:
    """For each weight w, the least w.p over the points p and the mask of the
    points taking it, from one integer matrix product.  Its entries are at
    most max|w| max p n, so the product is int64 below 2^62 and Python ints
    otherwise, as exponents reach 2^31 - 1."""
    top = max(abs(x) for w in weights for x in w) * max(map(max, points))
    dtype = np.int64 if top * len(points[0]) < 1 << 62 else object
    values = np.array(weights, dtype=dtype) @ np.array(points, dtype=dtype).T
    least = values.min(axis=1)
    on = np.packbits(values == least[:, None], axis=1, bitorder="little")
    return least.tolist(), [int.from_bytes(row.tobytes(), "little") for row in on]


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
    maximal one.  When there is a compact facet, :func:`newton_facets`
    returns just that one, and so does this: no compact face is larger.
    """
    facets = newton_facets(points, NEWTON_FACET_BOUND)
    least, on = _exposed_all([w for w, _, _ in facets], points)
    _check(all(min(w) >= 0 for w, _, _ in facets)
           and least == [c for _, c, _ in facets]
           and on == [mask for _, _, mask in facets],
           "a facet is valid and tight exactly on its points")
    compact = [(mask, w) for w, _, mask in facets if min(w) > 0]
    if compact:
        return dict(compact)
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
            found[face] = tuple(map(sum, zip(*(facets[i][0] for i in _bits(fs)))))
        for i in _bits(cuts & ~fs):
            if face & facets[i][2]:
                stack.append(face & facets[i][2])
    _, on = _exposed_all(list(found.values()), points)
    _check(all(min(w) > 0 for w in found.values()) and on == list(found),
           "a compact face is the argmin of a strictly positive weight")
    return found


@memo
def analytic_spread(a: MonomialIdeal) -> int:
    """l(a): one plus the top dimension of a compact face of the Newton
    polyhedron; for ideals generated in one degree, the rank of the
    exponent matrix.

    Variables in no generator only add a free orthant factor, so they are
    dropped.  The points go to :func:`_compact_faces` in increasing degree,
    which builds fewer double-description rays; the spread is a maximum
    over the compact faces, so the order does not change it.  A face of m
    points has dimension at most m - 1, and every face at most n' - 1 for
    the n' variables left, so the faces are taken by decreasing point count
    until neither bound can raise the best dimension found.
    """
    require_proper(a)
    points = a.rows
    degrees = {sum(p) for p in points}
    if len(degrees) == 1:
        return homology.rank(points)
    used = [j for j in range(a.context.n) if any(p[j] for p in points)]
    points = sorted((tuple(p[j] for j in used) for p in points), key=sum)
    best = 0
    for mask in sorted(_compact_faces(points), key=int.bit_count, reverse=True):
        if mask.bit_count() - 1 <= best or best == len(used) - 1:
            break
        face = [p for k, p in enumerate(points) if mask >> k & 1]
        best = max(best, _affine_dim(face))
    return 1 + best


# ---------------------------------------------------------------------------
# arithmetic rank upper bound (Schmitt-Vogel partitions)


def is_valid_sv_partition(
    a: MonomialIdeal, partition: tuple[tuple[tuple[int, ...], ...], ...]
) -> bool:
    """Check the partition certificate behind the upper bound.

    Levels of exponent rows partition the minimal generators, the first
    level is a single row, and the product of any two distinct monomials in
    one level is divisible by a monomial of an earlier level.
    """
    flat = [r for level in partition for r in level]
    if sorted(flat) != sorted(a.rows):
        return False
    if not partition or len(partition[0]) != 1:
        return False
    earlier: list[tuple[int, ...]] = []
    for level in partition:
        for p, q in combinations(level, 2):
            prod = tuple(map(add, p, q))
            if not any(all(map(le, e, prod)) for e in earlier):
                return False
        earlier.extend(level)
    return True


def _pair_divisors(exps: tuple[tuple[int, ...], ...]) -> dict[tuple[int, int], int]:
    """For each pair ``i < j`` of exponent rows, the bitmask of the rows
    dividing the product of rows ``i`` and ``j``.

    For each variable, ``at_most[t]`` is the bitmask of the rows whose
    exponent is at most ``values[t]``, the t-th distinct exponent in that
    column; a pair's mask ANDs, over the variables, the entry of the
    largest value not past the pair's sum, found by bisection, so no table
    is indexed by an exponent.
    """
    tables = []
    for col in zip(*exps):
        values = sorted(set(col))
        at_most, below = [], 0
        for t in values:
            below |= sum(1 << k for k, e in enumerate(col) if e == t)
            at_most.append(below)
        tables.append((values, at_most))
    pair_div: dict[tuple[int, int], int] = {}
    for i, j in combinations(range(len(exps)), 2):
        mask = -1
        for (values, at_most), a, b in zip(tables, exps[i], exps[j]):
            mask &= at_most[bisect_right(values, a + b) - 1]
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


def _sv_exact(mu: int, pair_div: dict[tuple[int, int], int]) -> list[int]:
    """Breadth-first search over placed-generator masks, one layer of equal
    level count at a time; returns level masks.

    Only maximal levels are added.  A level stays valid when more is placed
    before it, and every subset of a valid level is valid.  So in a shortest
    partition each level can be grown to a maximal valid set among the
    unplaced generators, and its new members deleted from later levels,
    without adding a level.  The maximal levels after ``placed`` are the
    maximal cliques of the graph on the unplaced generators that joins
    ``x`` and ``y`` when an earlier generator divides their product.  For
    the same reason a mask inside another mask of its layer is dropped
    before the layer is expanded: the levels that complete the smaller
    mask, less the generators the larger one has placed, complete the
    larger one, so it needs no more levels.  Each mask is tested against
    the maximal masks alone, and the masks kept stay in the layer's order.
    The search ends with the expansion that first reaches the full mask; a
    mask's parent is set once, so a later expansion could not change the
    partition.
    """
    full = (1 << mu) - 1
    # the singleton levels reach the full mask, so the layers never run dry
    parent = {1 << i: (0, 1 << i) for i in range(mu)}
    layer = list(parent)
    while full not in parent:
        # a mask inside another lies inside a maximal one, which has more
        # bits; masks of a layer are distinct, so those of equal count are
        # not nested
        maximal: list[int] = []
        for p in sorted(layer, key=int.bit_count, reverse=True):
            if not any(p & q == p for q in maximal):
                maximal.append(p)
        kept = set(maximal)
        layer = [p for p in layer if p in kept]
        expanded = []
        for placed in layer:
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
                    expanded.append(new)
            if full in parent:
                break
        layer = expanded
    levels = []
    cur = full
    while cur:
        cur, block = parent[cur]
        levels.append(block)
    return levels[::-1]


def _sv_greedy(mu: int, pair_div: dict[tuple[int, int], int]) -> list[int]:
    """Largest-compatible-level-first heuristic, best over all first picks."""
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
def schmitt_vogel_upper(a: MonomialIdeal) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """A Schmitt-Vogel partition of the generators, as a tuple of levels of
    exponent rows.

    Searches partitions P_0, ..., P_r of the generators with |P_0| = 1 where
    every product of two distinct members of a level is divisible by an
    earlier member; then r + 1 elements (the level sums) generate ``a`` up
    to radical, so cd(a) <= ara(a) <= the number of levels.  Exhaustive for
    mu <= ``SV_EXACT_BOUND``, greedy beyond; the singleton partition is
    always valid, so there are at most mu levels.  The greedy search costs
    about mu^3 pair lookups, and raises ResourceLimitError, before the pair
    table is built, when mu^3 exceeds ``PAIR_CELL_BOUND``.
    """
    require_proper(a)
    mu = a.mu
    if mu > SV_EXACT_BOUND and mu ** 3 > PAIR_CELL_BOUND:
        raise ResourceLimitError(
            f"mu(a) = {mu} makes {mu ** 3} greedy Schmitt-Vogel steps, past "
            f"the bound of {PAIR_CELL_BOUND}"
        )
    pair_div = _pair_divisors(a.rows)
    search = _sv_exact if mu <= SV_EXACT_BOUND else _sv_greedy
    partition = tuple(
        tuple(a.rows[i] for i in range(mu) if block >> i & 1)
        for block in search(mu, pair_div)
    )
    _check(is_valid_sv_partition(a, partition), "valid Schmitt-Vogel partition")
    return partition


# ---------------------------------------------------------------------------
# depth of powers, dg, and the assembled report


@memo
def min_depth_powers(a: MonomialIdeal, horizon: int) -> int:
    """min over 1 <= t <= horizon of depth R/a^t; explicitly uncertified.

    Stabilization of depth of powers holds eventually, but no effective
    bound for the onset is used here; :func:`report` shows the horizon
    alongside.  Only n - max_t pd R/a^t is needed, so each power after the
    first has its projective dimension taken from the floor n - (least
    depth so far), where the pd walk skips every complex that cannot raise
    it.  Short-circuits once depth zero is reached; memoized on
    ``(a, horizon)``.
    """
    require_proper(a)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n = a.context.n
    power = a
    best = depth(power)
    for _ in range(horizon - 1):
        if best == 0:
            break
        power = power * a
        best = depth(power, n - best)
    return best


def dg(a: MonomialIdeal, horizon: int) -> int:
    """formal grade minus the observed minimum depth of powers."""
    value = formal_grade(a) - min_depth_powers(a, horizon)
    _check(value >= 0, "dg >= 0")
    return value


def report(a: MonomialIdeal, horizon: int = 3) -> dict:
    """The ``invariants`` and ``flags`` of the ``report`` payload, in the
    published key order.  ``depth <= fgrade`` is pd(R/rad a) <= pd(R/a)
    (Herzog, Takayama and Terai 2005)."""
    mu = a.mu
    ht = height(a)
    dim_q = dim_quotient(a)
    pd = proj_dim(a)
    dep = depth(a)
    cd = cohomological_dimension(a)
    fg = formal_grade(a)
    spread = analytic_spread(a)
    upper = len(schmitt_vogel_upper(a))
    _check(ht <= cd <= upper, "height <= cd <= ara upper")
    _check(cd <= spread <= mu, "cd <= analytic spread <= mu")
    _check(dep <= fg, "depth <= fgrade")
    md = min_depth_powers(a, horizon)
    dg_value = dg(a, horizon)
    return {
        "invariants": {
            "mu": mu,
            "height": ht,
            "dim_quotient": dim_q,
            "depth": dep,
            "proj_dim": pd,
            "cd": cd,
            "fgrade": fg,
            "analytic_spread": spread,
            "ara": {"lower": cd, "upper": upper, "certified": cd == upper},
            "dg": {"value": dg_value, "horizon": horizon, "certified": False},
            "min_depth_powers": {"value": md, "horizon": horizon},
        },
        "flags": {
            "squarefree": a.is_squarefree,
            "cohen_macaulay": dep == dim_q,
            "cohomologically_ci": ht == cd,
            "stci_certified": cd == upper == ht,
        },
    }
