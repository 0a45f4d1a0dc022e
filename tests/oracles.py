"""Independent brute-force oracles for the test suite.

Everything here recomputes results from first principles, deliberately
avoiding the code paths under test: ideal membership is decided monomial
by monomial over a bounded degree range, Betti numbers come from Koszul
strands on the quotient's monomial basis, heights from exhaustive
transversal search, and matrix ranks from dense Gaussian elimination over
``Fraction`` or mod a prime.  Code that only the tests use lives here too: ``over_field``,
which moves an ideal to another coefficient field, since the library takes
the field from the ring; ``maximal_ideal``, the ideal of every variable, which
no library code needs; ``evaluate_program``, which parses and evaluates a
program text in one call; the real projective plane, whose homology has
2-torsion; the full Taylor complex; the Taylor Betti table
(``taylor_homology``), the Betti-number reference of the tests, built from
the strands that :func:`stci.homology.taylor_proj_dim` walks without a
table; a boundary-squared check
for chain complexes with the product of sparse rows behind it; simplicial complexes
as face sets with their reduced homology, upper-Koszul and Stanley-Reisner
complexes, the Stanley-Reisner faces from a scan of all vertex subsets and
the face-by-face links of Hochster's formula that the links built from the
facets, taken from the minimal primes, of
:func:`stci.homology.local_cohomology_nonvanishing` replaced; the tuple-set
lcm-lattice closure, the per-point lcm-lattice Betti composition, and the full lattice walk over every point
(``koszul_points``) with the multigraded Betti numbers it gives
(``koszul_betti``), which :func:`stci.homology.koszul_proj_dim` replaced
by a walk over the points that can still raise pd, and the Betti table
that :func:`stci.invariants.proj_dim` no longer builds; the numpy
membership grid (``membership_grid``) that the bit grid of
:mod:`stci.homology` replaced; the loop over
powers with the full projective dimension of each that
:func:`stci.invariants.min_depth_powers` replaced with walks from the
running floor; Fourier-Motzkin
feasibility with the all-subsets compact-face searches built on it that
the facet walk of :mod:`stci.invariants` replaced, and the dot product per
point (``exposed``) that its facet and weight checks replaced with one
matrix product; the growth of mu(a^t)
as an estimate of the analytic spread; the row-by-row pair table
(``pair_divisors_oracle``) that threshold bitmasks replaced; the all-submask Schmitt-Vogel
search that :func:`stci.invariants.schmitt_vogel_upper` replaced with
maximal levels, and the level-by-level maximal-level search that it
replaced with an early goal test; the generator-splitting decomposition and
subset-enumeration minimal primes that the incremental pass of
:mod:`stci.decomposition` replaced; and the subset enumeration of random
Stanley-Reisner ideals that the prime intersection of
:mod:`stci.verification` replaced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import and_
from typing import NamedTuple

import numpy as np

from stci import homology
from stci.core import (
    BLOCK_CELLS,
    FieldSpec,
    MonomialIdeal,
    ResourceLimitError,
    RingContext,
)
from stci.homology import ChainComplex, _subset_lcms
from stci.invariants import (
    TAYLOR_DISPATCH_BOUND,
    _affine_dim,
    _maximal_cliques,
    _product_split,
    _support_components,
    proj_dim,
)
from stci.parser import evaluate, parse


def over_field(a: MonomialIdeal, field: FieldSpec) -> MonomialIdeal:
    """The ideal with the generators of ``a`` in the ring of its variables
    over ``field``."""
    ctx = RingContext(a.context.variables, field)
    return MonomialIdeal.from_exponents(ctx, a.rows)


def evaluate_program(text: str, field: FieldSpec = FieldSpec.rationals()) -> MonomialIdeal:
    """The ideal that the program ``text`` evaluates to."""
    return evaluate(*parse(text, field))


def maximal_ideal(ctx: RingContext) -> MonomialIdeal:
    """The ideal generated by every variable of ``ctx``."""
    n = ctx.n
    return from_rows(ctx, [[int(j == i) for j in range(n)] for i in range(n)])


def row_support(row) -> frozenset[int]:
    """Indices of the variables with positive exponent in ``row``."""
    return frozenset(j for j, e in enumerate(row) if e)


def monomials_up_to_degree(n: int, bound: int):
    """All exponent tuples in n variables with total degree <= bound."""

    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + [e], remaining - e, slots - 1)

    yield from rec([], bound, n)


def in_ideal(gens: list[tuple[int, ...]], m: tuple[int, ...]) -> bool:
    return any(all(g[j] <= m[j] for j in range(len(m))) for g in gens)


def divisors(m: tuple[int, ...]):
    ranges = [range(e + 1) for e in m]
    for d in product(*ranges):
        yield d


def _sub(m, d):
    return tuple(a - b for a, b in zip(m, d))


def _add(m, d):
    return tuple(a + b for a, b in zip(m, d))


def membership_grid(axes, cols) -> np.ndarray:
    """1 at each point of the exponent grid whose monomial is in the ideal,
    0 elsewhere, as a uint64 array with one axis per variable: each
    generator at its own point, then the prefix-OR along every axis.  The
    numpy grid that the bit grid of :func:`stci.homology._membership`
    replaced; ``axes`` and ``cols`` are as :func:`homology._exponent_grid`
    gives them."""
    member = np.zeros([len(v) for v in axes], dtype=np.uint64)
    member[tuple(np.searchsorted(v, col) for v, col in zip(axes, cols))] = 1
    for j in range(len(axes)):
        np.bitwise_or.accumulate(member, axis=j, out=member)
    return member


def socle_oracle(a: MonomialIdeal) -> bool:
    """Whether some monomial u outside ``a`` has x_j u in ``a`` for every
    variable j in the support of ``a``, by a search of the box
    0 <= u <= lcm of the generators, which holds every such u."""
    rows = exponent_rows(a)
    n = a.context.n
    support = sorted(a.support())
    lcm = [max(col) for col in zip(*rows)]
    for u in product(*(range(e + 1) for e in lcm)):
        if not in_ideal(rows, u) and all(
                in_ideal(rows, _add(u, tuple(int(i == j) for i in range(n))))
                for j in support):
            return True
    return False


class MembershipOracle:
    """First-principles membership tests for the results of ideal operations.

    Inputs are given by their generator exponent tuples (taken as the
    definition of the input ideals); each method answers whether a monomial
    lies in the ideal an operation should produce.
    """

    def __init__(self, *operand_gens: list[tuple[int, ...]]):
        self.operands = [list(g) for g in operand_gens]

    def in_sum(self, m) -> bool:
        return any(in_ideal(g, m) for g in self.operands)

    def in_intersection(self, m) -> bool:
        return all(in_ideal(g, m) for g in self.operands)

    def in_product(self, m) -> bool:
        a, b = self.operands
        return any(
            in_ideal(a, d) and in_ideal(b, _sub(m, d)) for d in divisors(m)
        )

    def in_power(self, m, k: int) -> bool:
        (a,) = self.operands
        if k == 1:
            return in_ideal(a, m)
        return any(
            in_ideal(a, d) and self.in_power(_sub(m, d), k - 1)
            for d in divisors(m)
        )

    def in_colon(self, m, by: tuple[int, ...]) -> bool:
        (a,) = self.operands
        return in_ideal(a, _add(m, by))

    def in_saturation(self, m, b_gens: list[tuple[int, ...]], max_k: int = 8) -> bool:
        (a,) = self.operands
        for k in range(max_k + 1):
            products = [tuple(0 for _ in m)]
            for _ in range(k):
                products = [_add(p, g) for p in products for g in b_gens]
            if all(in_ideal(a, _add(m, p)) for p in products):
                return True
        return False

    def in_radical(self, m) -> bool:
        (a,) = self.operands
        top = max((max(g) for g in a), default=1)
        power = m
        for _ in range(max(top, 1)):
            if in_ideal(a, power):
                return True
            power = _add(power, m)
        return in_ideal(a, power)

    def in_bracket_power(self, m, q: int) -> bool:
        (a,) = self.operands
        return any(all(q * g[j] <= m[j] for j in range(len(m))) for g in a)


def oracle_degree_bound(operand_gens: list[list[tuple[int, ...]]]) -> int:
    """(max generator degree) x (operand count + 1), as pinned for the tests."""
    max_deg = max(
        (sum(g) for gens in operand_gens for g in gens), default=1
    )
    return max_deg * (len(operand_gens) + 1)


def brute_height(a: MonomialIdeal) -> int:
    """Smallest variable subset meeting every generator support."""
    supports = [row_support(r) for r in a.rows]
    n = a.context.n
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            t = set(subset)
            if all(s & t for s in supports):
                return size
    raise AssertionError("a proper nonzero ideal always has a cover")


def dense_rank_fraction(rows: list[list]) -> int:
    """Plain Gaussian elimination over Fraction, as a rank oracle."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                f = m[r][col] / pv
                for c in range(col, ncols):
                    m[r][c] -= f * m[row][c]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def dense_rank_mod(rows: list[list], q: int) -> int:
    """Plain Gaussian elimination mod the prime q, as a rank oracle."""
    m = [[v % q for v in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    row = 0
    for col in range(ncols):
        pivot = next((k for k in range(row, nrows) if m[k][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], q - 2, q)
        for k in range(nrows):
            if k != row and m[k][col]:
                f = m[k][col] * inv % q
                for c in range(col, ncols):
                    m[k][c] = (m[k][c] - f * m[row][c]) % q
        row += 1
        r += 1
        if row == nrows:
            break
    return r


def brute_betti(a: MonomialIdeal) -> dict[int, int]:
    """Betti numbers via the Koszul complex on the variables, tensored with
    the quotient: strand-by-strand over all multidegrees below the lcm of
    the generators.  Exponential; tiny ideals only."""
    n = a.context.n
    gens = list(a.rows)
    top = tuple(max(g[j] for g in gens) for j in range(n))

    def outside(m) -> bool:
        return not in_ideal(gens, m)

    betti: dict[int, int] = {}
    for b in product(*[range(t + 1) for t in top]):
        # basis of strand i: (tau, m) with |tau| = i, m = b - chi(tau) >= 0,
        # x^m outside the ideal
        basis: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for size in range(n + 1):
            items = []
            for tau in combinations(range(n), size):
                m = list(b)
                ok = True
                for j in tau:
                    m[j] -= 1
                    if m[j] < 0:
                        ok = False
                        break
                if not ok:
                    continue
                m = tuple(m)
                if outside(m):
                    items.append((tau, m))
            if items:
                basis[size] = items
        ranks: dict[int, int] = {}
        for i, items in basis.items():
            if i - 1 not in basis:
                ranks[i] = 0
                continue
            index = {key: k for k, key in enumerate(basis[i - 1])}
            rows = [[0] * len(items) for _ in basis[i - 1]]
            for col, (tau, m) in enumerate(items):
                for pos, j in enumerate(tau):
                    target_tau = tau[:pos] + tau[pos + 1:]
                    target_m = _add(m, tuple(1 if t == j else 0 for t in range(n)))
                    if outside(target_m):
                        sign = -1 if pos % 2 else 1
                        rows[index[(target_tau, target_m)]][col] = sign
            ranks[i] = dense_rank_fraction(rows)
        for i, items in basis.items():
            h = len(items) - ranks.get(i, 0) - ranks.get(i + 1, 0)
            if h:
                betti[i] = betti.get(i, 0) + h
    return dict(sorted(betti.items()))


def exponent_rows(a: MonomialIdeal) -> list[tuple[int, ...]]:
    return list(a.rows)


def from_rows(ctx, rows) -> MonomialIdeal:
    return MonomialIdeal.from_exponents(ctx, rows)


def sparse_matmul(a: dict, b: dict) -> dict:
    """The product a @ b of two matrices given as sparse rows
    ``{row: {col: value}}``; zero entries and zero rows are left out."""
    out = {}
    for i, row in a.items():
        acc: dict[int, object] = {}
        for k, v in row.items():
            for j, w in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + v * w
        if acc := {j: v for j, v in acc.items() if v}:
            out[i] = acc
    return out


def validate_chain_complex(cc: ChainComplex) -> None:
    """Raise ValueError unless every boundary D_i fits C_i -> C_{i-1} of
    ``cc.dims`` and consecutive boundaries compose to zero."""
    for i, d in cc.diffs.items():
        nrows, ncols = cc.dims.get(i - 1, 0), cc.dims.get(i, 0)
        if not all(0 <= r < nrows and all(0 <= c < ncols for c in row)
                   for r, row in d.items()):
            raise ValueError(f"boundary shapes at degree {i} do not compose")
    for i, d in cc.diffs.items():
        up = cc.diffs.get(i + 1)
        if up is not None and sparse_matmul(d, up):
            raise ValueError(f"boundary squared is nonzero at degree {i}")


def taylor_chain_complex(a: MonomialIdeal, max_generators: int = 12) -> ChainComplex:
    """The full Taylor complex of the minimal generators, tensored to the field.

    Exponential in mu; meant for small ideals and for validating the blocked
    computation in :func:`taylor_homology`.  Degree i holds
    the subsets of i generators, in increasing mask order.
    """
    if a.is_unit or a.is_zero:
        raise ValueError("taylor complex needs a proper, nonzero ideal")
    mu = a.mu
    if mu > max_generators:
        raise ResourceLimitError(
            f"mu(a) = {mu} exceeds the full-complex bound {max_generators}"
        )
    lcms = _subset_lcms(a.exponent_matrix())
    by_size: dict[int, list[int]] = {i: [] for i in range(mu + 1)}
    for mask in range(1 << mu):
        by_size[bin(mask).count("1")].append(mask)
    index = {
        i: {mask: k for k, mask in enumerate(sorted(masks))}
        for i, masks in by_size.items()
    }
    dims = {i: len(masks) for i, masks in by_size.items()}
    diffs = {}
    for i in range(1, mu + 1):
        rows: dict[int, dict[int, int]] = {}
        for mask, col in index[i].items():
            members = [b for b in range(mu) if mask >> b & 1]
            for pos, b in enumerate(members):
                sub = mask ^ (1 << b)
                if np.array_equal(lcms[sub], lcms[mask]):
                    rows.setdefault(index[i - 1][sub], {})[col] = -1 if pos % 2 else 1
        diffs[i] = rows
    return ChainComplex(dims=dims, diffs=diffs)


def taylor_homology(a: MonomialIdeal) -> dict[int, int]:
    """Betti numbers of R/a from the Taylor complex on the minimal generators.

    The tensored differential only connects subsets with equal lcm, so the
    computation is blocked by lcm multidegree
    (:func:`stci.homology._taylor_strands`).  The strand at one lcm L is the
    quotient complex that :func:`stci.homology._boundary_complex` builds
    from the subsets with lcm L as faces, a subset of i generators in
    dimension i - 1: the subsets with smaller lcm are closed under taking
    subsets.  A strand of one subset S has its one face as homology, so it
    adds 1 to beta_|S| without a complex being built.
    """
    field = a.context.field
    betti: dict[int, int] = {}
    for s, members in homology._taylor_strands(a):
        if len(members) == 1:
            betti[s] = betti.get(s, 0) + 1
            continue
        for j, h in homology._boundary_complex(members).homology_ranks(field).items():
            if h:
                betti[j + 1] = betti.get(j + 1, 0) + h
    return dict(sorted(betti.items()))


class SimplicialComplex:
    """A finite simplicial complex given by its face set.

    The VOID complex (no faces, not even the empty one) and the IRRELEVANT
    complex (only the empty face) are distinct: the irrelevant complex has
    reduced homology of rank one in degree -1, the void complex has none.
    """

    def __init__(self, vertex_count: int, faces):
        self.vertex_count = vertex_count
        self.faces = frozenset(frozenset(f) for f in faces)
        for f in self.faces:
            for v in f:
                if not (0 <= v < vertex_count):
                    raise ValueError(f"vertex {v} out of range")

    @classmethod
    def void(cls, vertex_count: int = 0) -> "SimplicialComplex":
        return cls(vertex_count, [])

    @classmethod
    def irrelevant(cls, vertex_count: int = 0) -> "SimplicialComplex":
        return cls(vertex_count, [frozenset()])

    @classmethod
    def from_facets(cls, vertex_count: int, facets) -> "SimplicialComplex":
        faces = {frozenset()}
        for facet in facets:
            facet = tuple(sorted(set(facet)))
            k = len(facet)
            for mask in range(1 << k):
                faces.add(frozenset(facet[i] for i in range(k) if mask >> i & 1))
        return cls(vertex_count, faces)

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def is_irrelevant(self) -> bool:
        return self.faces == frozenset([frozenset()])

    @property
    def dim(self) -> int:
        """Dimension; -1 for the irrelevant complex, -2 for the void one."""
        if self.is_void:
            return -2
        return max(len(f) for f in self.faces) - 1

    def faces_of_dim(self, i: int) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(f)) for f in self.faces if len(f) == i + 1)

    def link(self, sigma) -> "SimplicialComplex":
        sigma = frozenset(sigma)
        if sigma not in self.faces:
            raise ValueError("link of a non-face")
        faces = [f - sigma for f in self.faces if f >= sigma]
        return SimplicialComplex(self.vertex_count, faces)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.vertex_count == other.vertex_count
            and self.faces == other.faces
        )

    def __hash__(self):
        return hash((self.vertex_count, self.faces))

    def __repr__(self) -> str:
        if self.is_void:
            return "SimplicialComplex(VOID)"
        if self.is_irrelevant:
            return "SimplicialComplex(IRRELEVANT)"
        facets = sorted(
            (tuple(sorted(f)) for f in self.faces
             if not any(g > f for g in self.faces)),
        )
        return f"SimplicialComplex(facets={facets})"


def boundary_chain_complex(complex_: SimplicialComplex) -> ChainComplex:
    """The augmented (reduced) simplicial chain complex, C_{-1} included."""
    return homology._boundary_complex(sum(1 << v for v in f) for f in complex_.faces)


def reduced_homology_ranks(
    complex_: SimplicialComplex, field: FieldSpec = FieldSpec.rationals()
) -> dict[int, int]:
    """Ranks of reduced homology for degrees -1 .. dim.

    The void complex has no homology at all; the irrelevant complex has
    rank one in degree -1.
    """
    return boundary_chain_complex(complex_).homology_ranks(field)


# the ten triangles of the 6-vertex real projective plane; every edge is a face
RP2_FACETS = ((0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
              (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5))


def rp2_ideal() -> MonomialIdeal:
    """Stanley-Reisner ideal of the 6-vertex real projective plane: every
    edge is a face, so the 10 triangles outside the complex generate it."""
    ctx = RingContext(tuple(f"x{i}" for i in range(6)))
    return MonomialIdeal.from_exponents(ctx, [
        [int(i in t) for i in range(6)]
        for t in combinations(range(6), 3) if t not in RP2_FACETS
    ])


def upper_koszul_complex(a: MonomialIdeal, b) -> SimplicialComplex:
    """The upper-Koszul complex at multidegree b, on the support of b.

    Faces are the squarefree tau with x^(b - tau) in a.  Vertices are
    relabelled to 0..s-1 following the sorted support of b.
    """
    b = tuple(int(x) for x in b)
    supp = [j for j, e in enumerate(b) if e > 0]
    carriers = homology._carriers(a.exponent_matrix(), np.array([b], dtype=np.int64))
    facets = homology._facets(carriers[0].tolist())
    return SimplicialComplex(
        len(supp),
        [frozenset(k for k, j in enumerate(supp) if f >> j & 1)
         for f in homology._down_closure(facets)],
    )


def stanley_reisner_complex(a: MonomialIdeal) -> SimplicialComplex:
    """The complex whose faces are the squarefree monomials outside ``a``,
    from a scan of all 2^n vertex subsets against every generator."""
    if not a.is_squarefree:
        raise ValueError("Stanley-Reisner complexes need a squarefree ideal")
    n = a.context.n
    gen_masks = [sum(1 << j for j in row_support(r)) for r in a.rows]
    return SimplicialComplex(n, [
        frozenset(j for j in range(n) if sigma >> j & 1)
        for sigma in range(1 << n)
        if not any(gm & ~sigma == 0 for gm in gen_masks)
    ])


def local_cohomology_oracle(a: MonomialIdeal) -> frozenset[int]:
    """Degrees of nonvanishing local cohomology of a squarefree R/a, by
    Hochster's formula face by face: the link of every face of the
    Stanley-Reisner complex from a scan over all faces, and its reduced
    homology.  The links built from the facets, with cones skipped, of
    :func:`stci.homology.local_cohomology_nonvanishing` replaced it."""
    delta = stanley_reisner_complex(a)
    out = set()
    for sigma in delta.faces:
        for j, h in reduced_homology_ranks(delta.link(sigma), a.context.field).items():
            if h:
                out.add(j + len(sigma) + 1)
    return frozenset(out)


def koszul_points(a: MonomialIdeal):
    """Yield ``(b, facets)`` at every lcm-lattice point b, as a tuple, whose
    upper-Koszul complex is not a cone; facets are its maximal carriers as
    bitmasks, largest first.

    The full walk that :func:`stci.homology.koszul_proj_dim` replaced with
    one over the points that can still raise the projective dimension: the
    carriers of all generators at a block of lattice points come from one
    vectorised pass, and a point whose facets share a vertex is skipped.
    """
    lattice = homology.lcm_lattice(a)
    gens = a.exponent_matrix()
    step = max(1, BLOCK_CELLS // len(gens))
    for start in range(0, len(lattice), step):
        block = lattice[start:start + step]
        for b, row in zip(block.tolist(), homology._carriers(gens, block).tolist()):
            facets = homology._facets(row)
            if facets and not reduce(and_, facets):
                yield tuple(b), facets


def koszul_betti(a: MonomialIdeal) -> dict[tuple[int, tuple[int, ...]], int]:
    """Multigraded Betti numbers of R/a over the lcm lattice.

    beta_{i,b} is the rank of reduced homology in degree i-2 of the
    upper-Koszul complex at b; beta_{0,0} = 1 for a proper ideal.  Only the
    non-cone points of the lattice walk can contribute.  Their faces, as
    bitmasks, go straight into the boundary matrices, each matrix is ranked
    once, and points with the same facets share one homology computation.
    """
    if a.is_unit or a.is_zero:
        raise ValueError("betti numbers need a proper, nonzero ideal")
    zero = (0,) * a.context.n
    out: dict[tuple[int, tuple[int, ...]], int] = {(0, zero): 1}
    # nonzero reduced homology (degree, rank) of each complex met so far
    found: dict[frozenset[int], list[tuple[int, int]]] = {}
    for b, facets in koszul_points(a):
        key = frozenset(facets)
        if key not in found:
            chain = homology._boundary_complex(homology._down_closure(facets))
            found[key] = [
                (j, h) for j, h in chain.homology_ranks(a.context.field).items() if h
            ]
        for j, h in found[key]:
            out[(j + 2, b)] = h
    return out


def koszul_betti_totals(a: MonomialIdeal) -> dict[int, int]:
    """Total Betti numbers, summing the multigraded ones per homological degree."""
    out: dict[int, int] = {}
    for (i, _), h in koszul_betti(a).items():
        out[i] = out.get(i, 0) + h
    return dict(sorted(out.items()))


def lcm_lattice_oracle(a: MonomialIdeal) -> list[tuple[int, ...]]:
    """The lcm lattice as a closure over a Python set of tuples, sorted; the
    packed-key :func:`stci.homology.lcm_lattice` replaced it."""
    gens = [tuple(g) for g in a.exponent_matrix().tolist()]
    known = set(gens)
    frontier = known
    while frontier:
        frontier = {tuple(map(max, b, g)) for b in frontier for g in gens} - known
        known |= frontier
    return sorted(known)


def lattice_betti_oracle(a: MonomialIdeal) -> dict[tuple[int, tuple[int, ...]], int]:
    """Multigraded Betti numbers point by point: the upper-Koszul complex at
    every lcm-lattice point, its reduced homology over the ring's field, and
    no shortcuts."""
    out = {(0, (0,) * a.context.n): 1}
    field = a.context.field
    for b in lcm_lattice_oracle(a):
        for j, h in reduced_homology_ranks(upper_koszul_complex(a, b), field).items():
            if h:
                out[(j + 2, b)] = h
    return out


def _convolve_tensor(bs: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Betti vector of a tensor product of quotients (disjoint-variable sum)."""
    out = bs[0]
    for b in bs[1:]:
        res = [0] * (len(out) + len(b) - 1)
        for p, x in enumerate(out):
            for q, y in enumerate(b):
                res[p + q] += x * y
        out = tuple(res)
    return out


def _convolve_intersection(bs: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Betti vector of an intersection of ideals in pairwise disjoint variables.

    For disjoint supports the Mayer-Vietoris sequence splits, giving
    beta_i(R/(b ^ c)) = sum over p+q = i+1, p,q >= 1 of beta_p beta_q.
    """
    out = bs[0]
    for b in bs[1:]:
        res = [0] * (len(out) + len(b) - 1)
        res[0] = 1
        for p in range(1, len(out)):
            for q in range(1, len(b)):
                res[p + q - 1] += out[p] * b[q]
        while res and res[-1] == 0:
            res.pop()
        out = tuple(res)
    return out


def betti_numbers_oracle(a: MonomialIdeal) -> tuple[int, ...]:
    """Total Betti numbers (beta_0, ..., beta_pd) of R/a over the ring's
    field: the table that :func:`stci.invariants.proj_dim` built before it
    searched for pd alone.

    Splits off disjoint-variable summands and factors before falling back
    to the Taylor complex (small ideals) or the upper-Koszul path (large
    ones, in particular powers).
    """
    components = _support_components(a)
    if len(components) > 1:
        parts = [
            MonomialIdeal.from_exponents(a.context, [a.rows[k] for k in comp])
            for comp in components
        ]
        return _convolve_tensor([betti_numbers_oracle(p) for p in parts])
    factors = _product_split(a) if a.mu >= 4 else None
    if factors is not None and len(factors) > 1:
        return _convolve_intersection(
            [betti_numbers_oracle(f) for f in factors]
        )
    if a.mu <= TAYLOR_DISPATCH_BOUND:
        table = taylor_homology(a)
    else:
        table = koszul_betti_totals(a)
    return tuple(table.get(i, 0) for i in range(max(table) + 1))


def min_depth_powers_oracle(a: MonomialIdeal, horizon: int) -> int:
    """min over 1 <= t <= horizon of depth R/a^t, from the full projective
    dimension of each power in turn, stopping at depth 0."""
    n = a.context.n
    power, best = a, n - proj_dim(a)
    for _ in range(horizon - 1):
        if best == 0:
            break
        power = power * a
        best = min(best, n - proj_dim(power))
    return best


Row = tuple[tuple[Fraction, ...], Fraction]  # (coefficients, rhs) meaning <c,x> >= r


def _normalize(coeffs, rhs) -> Row:
    scale = 0
    for c in coeffs:
        scale = max(scale, abs(c.numerator))
    if scale:
        g = None
        for c in list(coeffs) + [rhs]:
            if c:
                g = abs(c) if g is None else min(g, abs(c))
        # divide through by the smallest magnitude to keep numbers tame
        if g and g != 1:
            coeffs = [c / g for c in coeffs]
            rhs = rhs / g
    return tuple(coeffs), rhs


def feasible_point(
    equalities: list[tuple[list[Fraction], Fraction]],
    inequalities: list[tuple[list[Fraction], Fraction]],
    nvars: int,
) -> list[Fraction] | None:
    """A rational point with <c,x> = r on equalities and <c,x> >= r on
    inequalities, or None when the system is infeasible."""
    eqs = [([Fraction(c) for c in cs], Fraction(r)) for cs, r in equalities]
    ineqs = [([Fraction(c) for c in cs], Fraction(r)) for cs, r in inequalities]

    # eliminate equalities by substitution
    pivots: list[tuple[int, list[Fraction], Fraction]] = []
    for cs, r in eqs:
        cs, r = list(cs), r
        for j, pcs, pr in pivots:
            f = cs[j]
            if f:
                cs = [a - f * b for a, b in zip(cs, pcs)]
                r = r - f * pr
        pj = next((j for j, c in enumerate(cs) if c), None)
        if pj is None:
            if r != 0:
                return None
            continue
        pc = cs[pj]
        cs = [c / pc for c in cs]
        r = r / pc
        for k, (j, pcs, pr) in enumerate(pivots):
            f = pcs[pj]
            if f:
                pivots[k] = (j, [a - f * b for a, b in zip(pcs, cs)], pr - f * r)
        pivots.append((pj, cs, r))
    bound = {j for j, _, _ in pivots}
    free = [j for j in range(nvars) if j not in bound]

    # rewrite inequalities over the free variables
    reduced: list[Row] = []
    for cs, r in ineqs:
        cs, r = list(cs), r
        for j, pcs, pr in pivots:
            f = cs[j]
            if f:
                # x_j = (pr - sum_{k != j} pcs[k] x_k) substituted in place
                cs = [a - f * b for a, b in zip(cs, pcs)]
                cs[j] = Fraction(0)
                r = r - f * pr
        row = _normalize([cs[j] for j in free], r)
        if all(c == 0 for c in row[0]):
            if row[1] > 0:
                return None
            continue
        reduced.append(row)
    reduced = sorted(set(reduced))

    # Fourier-Motzkin elimination; snapshot each stage for back-substitution.
    # `remaining` holds positions into `free`; row coefficients align with it.
    stages: list[tuple[int, list[int], list[Row]]] = []
    active = reduced
    remaining = list(range(len(free)))
    while remaining:
        # eliminate the variable with the fewest lower*upper pairings
        best_k, best_cost = 0, None
        for k_idx in range(len(remaining)):
            lo = sum(1 for cs, _ in active if cs[k_idx] > 0)
            hi = sum(1 for cs, _ in active if cs[k_idx] < 0)
            cost = lo * hi
            if best_cost is None or cost < best_cost:
                best_k, best_cost = k_idx, cost
        k = best_k
        stages.append((remaining[k], list(remaining), active))
        lower = [row for row in active if row[0][k] > 0]
        upper = [row for row in active if row[0][k] < 0]
        rest = [row for row in active if row[0][k] == 0]
        new: set[Row] = set()
        for lcs, lr in lower:
            for ucs, ur in upper:
                coeffs = [
                    a / lcs[k] - b / ucs[k]
                    for a, b in zip(lcs, ucs)
                ]
                rhs = lr / lcs[k] - ur / ucs[k]
                coeffs = coeffs[:k] + coeffs[k + 1:]
                if all(c == 0 for c in coeffs):
                    if rhs > 0:
                        return None
                    continue
                new.add(_normalize(coeffs, rhs))
        for cs, r in rest:
            new.add((cs[:k] + cs[k + 1:], r))
        active = sorted(new)
        del remaining[k]

    # back-substitute a witness for the free variables
    values: dict[int, Fraction] = {}  # position in `free` -> value
    for var_pos, snapshot, rows in reversed(stages):
        k = snapshot.index(var_pos)
        low: Fraction | None = None
        high: Fraction | None = None
        for cs, r in rows:
            c = cs[k]
            if c == 0:
                continue
            rest = r
            for pos, v in enumerate(snapshot):
                if v != var_pos:
                    rest -= cs[pos] * values[v]
            bound_val = rest / c
            if c > 0:
                low = bound_val if low is None else max(low, bound_val)
            else:
                high = bound_val if high is None else min(high, bound_val)
        if low is not None and high is not None:
            value = (low + high) / 2
        elif low is not None:
            value = low
        elif high is not None:
            value = min(high, Fraction(0))
        else:
            value = Fraction(0)
        values[var_pos] = value

    point = [Fraction(0)] * nvars
    for pos, j in enumerate(free):
        point[j] = values.get(pos, Fraction(0))
    for j, pcs, pr in reversed(pivots):
        acc = pr
        for k, c in enumerate(pcs):
            if k != j and c:
                acc -= c * point[k]
        point[j] = acc

    # safety: verify the witness before handing it out
    for cs, r in eqs:
        if sum(c * x for c, x in zip(cs, point)) != r:
            raise AssertionError("feasibility back-substitution failed (equality)")
    for cs, r in ineqs:
        if sum(c * x for c, x in zip(cs, point)) < r:
            raise AssertionError("feasibility back-substitution failed (inequality)")
    return point


def _positive_weight(points, subset, gap: int = 0) -> list[Fraction] | None:
    """A weight vector w >= 1 constant on ``subset`` and minimal there, at
    least ``gap`` below its value on every other point."""
    n = len(points[0])
    base = points[subset[0]]
    eqs = []
    for k in subset[1:]:
        eqs.append(([Fraction(points[k][j] - base[j]) for j in range(n)], Fraction(0)))
    ineqs = []
    for q in range(len(points)):
        if q in subset:
            continue
        ineqs.append(
            ([Fraction(points[q][j] - base[j]) for j in range(n)], Fraction(gap))
        )
    for j in range(n):
        coeffs = [Fraction(0)] * n
        coeffs[j] = Fraction(1)
        ineqs.append((coeffs, Fraction(1)))
    return feasible_point(eqs, ineqs, n)


def exposed(w, points) -> tuple[int, int]:
    """The least w.p over the points p, and the mask of the points taking
    it, one dot product per point: the facet and weight check that
    :func:`stci.invariants._exposed_all` replaced with one matrix product."""
    values = [sum(x * y for x, y in zip(w, p)) for p in points]
    least = min(values)
    return least, sum(1 << k for k, v in enumerate(values) if v == least)


def compact_faces_oracle(a: MonomialIdeal) -> set[tuple[tuple, int]]:
    """The compact faces of the Newton polyhedron as ``(points, dim)``: the
    generator subsets that some positive weight minimises strictly, one
    Fourier-Motzkin solve per subset."""
    points = list(a.rows)
    faces = set()
    indices = range(len(points))
    for size in range(1, len(points) + 1):
        for subset in combinations(indices, size):
            if _positive_weight(points, subset, gap=1) is not None:
                pts = [points[k] for k in subset]
                faces.add((tuple(pts), _affine_dim(pts)))
    return faces


def analytic_spread_oracle(a: MonomialIdeal) -> int:
    """One plus the top compact-face dimension of the Newton polyhedron, by
    trying every generator subset from the largest down, with one
    Fourier-Motzkin solve for a positive weight exposing each subset that
    could raise the best dimension so far.  No rank shortcut for ideals
    generated in one degree."""
    points = list(a.rows)
    best = 0
    indices = range(len(points))
    for size in range(len(points), 0, -1):
        if size - 1 <= best:
            break
        for subset in combinations(indices, size):
            d = _affine_dim([points[k] for k in subset])
            if d <= best:
                continue
            if _positive_weight(points, subset) is not None:
                best = d
    return best + 1


class GrowthEstimate(NamedTuple):
    value: int | None
    stabilized: bool
    generator_counts: tuple[int, ...]


def fiber_growth_oracle(a: MonomialIdeal, horizon: int) -> GrowthEstimate:
    """Estimate the fiber-cone dimension from the growth of mu(a^t).

    Finds the least d for which the d-th finite differences of mu(a^t),
    t <= horizon, vanish at the tail, so mu grows like a polynomial of
    degree d - 1.  Horizons below 4 never stabilize.  A test oracle for
    :func:`stci.invariants.analytic_spread`.
    """
    if a.is_zero or a.is_unit:
        raise ValueError("the growth oracle needs a proper, nonzero ideal")
    counts = [1]
    power = None
    for _ in range(horizon):
        power = a if power is None else power * a
        counts.append(power.mu)
    counts = tuple(counts)
    if horizon < 4:
        return GrowthEstimate(None, False, counts)
    seq = list(counts)
    for d in range(1, len(seq)):
        seq = [seq[i + 1] - seq[i] for i in range(len(seq) - 1)]
        if len(seq) >= 2 and seq[-1] == 0 and seq[-2] == 0:
            return GrowthEstimate(d, True, counts)
    return GrowthEstimate(None, False, counts)


def pair_divisors_oracle(exps: tuple[tuple[int, ...], ...]) -> dict[tuple[int, int], int]:
    """For each pair ``i < j`` of exponent rows, the bitmask of the rows
    dividing the product of rows ``i`` and ``j``, testing every row against
    every pair product: the loop that the threshold bitmasks of
    :func:`stci.invariants._pair_divisors` replaced."""
    pair_div: dict[tuple[int, int], int] = {}
    for i, j in combinations(range(len(exps)), 2):
        prod = [a + b for a, b in zip(exps[i], exps[j])]
        mask = 0
        for k, e in enumerate(exps):
            if all(a <= b for a, b in zip(e, prod)):
                mask |= 1 << k
        pair_div[(i, j)] = mask
    return pair_div


def sv_levels_oracle(a: MonomialIdeal) -> list[int]:
    """Level masks of a shortest Schmitt-Vogel partition of the generators of
    ``a``, by breadth-first search over placed-generator masks that tries
    every submask of the unplaced generators as the next level.  The pair
    table compares exponent rows with their pair sums
    (:func:`pair_divisors_oracle`)."""
    mu = a.mu
    pair_div = pair_divisors_oracle(a.rows)
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
            sub = comp
            while sub:
                ok = True
                members = [i for i in range(mu) if sub >> i & 1]
                for x in range(len(members)):
                    for y in range(x + 1, len(members)):
                        if not pair_div[(members[x], members[y])] & placed:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    new = placed | sub
                    if new not in parent:
                        parent[new] = (placed, sub)
                        nxt.append(new)
                sub = (sub - 1) & comp
        frontier = nxt
    return []


def sv_exact_level_bfs(mu: int, pair_div: dict[tuple[int, int], int]) -> list[int]:
    """The maximal-level Schmitt-Vogel search of
    :func:`stci.invariants._sv_exact` as it was before its early goal test:
    the whole previous level is expanded before the full mask is met."""
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


def sv_exact_pairwise_filter(mu: int, pair_div: dict[tuple[int, int], int]) -> list[int]:
    """:func:`stci.invariants._sv_exact` with the layer filter it had before
    the maximal-mask test: each mask is compared with every other mask of
    its layer, and dropped when it lies inside one."""
    full = (1 << mu) - 1
    parent = {1 << i: (0, 1 << i) for i in range(mu)}
    layer = list(parent)
    while full not in parent:
        layer = [p for p in layer if not any(p & q == p != q for q in layer)]
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


def _sorted_by_generators(ideals) -> list[MonomialIdeal]:
    return sorted(
        ideals, key=lambda c: [tuple(-e for e in r) for r in c.rows]
    )


def irreducible_decomposition_oracle(a: MonomialIdeal) -> list[MonomialIdeal]:
    """Irredundant irreducible components of ``a``, sorted by their generator
    lists: split a generator u*v with coprime u, v into a+(u) and a+(v) until
    every generator is a pure power, then drop, one at a time, a component
    containing the intersection of all the others."""
    ctx = a.context
    components: set[MonomialIdeal] = set()
    seen: set[MonomialIdeal] = set()
    stack = [a]
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        mixed = [r for r in b.rows if len(row_support(r)) > 1]
        if not mixed:
            components.add(b)
            continue
        g = mixed[0]
        j = min(row_support(g))
        u = tuple(e if i == j else 0 for i, e in enumerate(g))
        v = tuple(0 if i == j else e for i, e in enumerate(g))
        for part in (u, v):
            stack.append(b + MonomialIdeal.from_exponents(ctx, [part]))
    kept = _sorted_by_generators(components)
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            if not others:
                break
            inter = others[0]
            for o in others[1:]:
                inter = inter & o
            if kept[i].contains_ideal(inter):
                del kept[i]
                changed = True
                break
    return kept


def minimal_primes_oracle(a: MonomialIdeal) -> list[MonomialIdeal]:
    """Minimal primes of ``a``, sorted by their generator lists: the minimal
    variable subsets meeting every generator support, by enumerating the
    subsets of the support of ``a`` in increasing size."""
    ctx = a.context
    supports = [row_support(r) for r in a.rows]
    covers: list[frozenset[int]] = []
    universe = sorted(a.support())
    for size in range(1, len(universe) + 1):
        for subset in combinations(universe, size):
            t = frozenset(subset)
            if not any(c <= t for c in covers) and all(s & t for s in supports):
                covers.append(t)
    return _sorted_by_generators(
        MonomialIdeal.from_exponents(
            ctx, [[int(j == i) for j in range(ctx.n)] for i in sorted(t)]
        )
        for t in covers
    )


def random_squarefree_oracle(ctx: RingContext, rng) -> MonomialIdeal:
    """Stanley-Reisner ideal of a complex with random facets, drawn with the
    same ``rng`` calls as :func:`stci.verification._random_squarefree`: the
    minimal nonfaces found by testing every vertex subset in increasing
    size against the facets and the nonfaces found so far."""
    n = ctx.n
    facets = []
    for _ in range(rng.randint(1, n - 1)):
        facets.append(frozenset(rng.sample(range(n), rng.randint(1, n - 1))))
    nonfaces = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            s = frozenset(subset)
            if any(f >= s for f in facets):
                continue
            if any(s > frozenset(m) for m in nonfaces):
                continue
            nonfaces.append(subset)
    return MonomialIdeal.from_exponents(
        ctx, [[int(i in s) for i in range(n)] for s in nonfaces]
    )
