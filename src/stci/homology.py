"""Exact linear algebra and simplicial homology over the rationals or F_q.

Computes the projective dimension of quotients by monomial ideals in two
ways: from the Betti numbers of the Taylor complex on the minimal
generators, or by a pruned search over the upper-Koszul simplicial
complexes at the multidegrees of the lcm lattice.  Also computes the
nonvanishing degrees of local cohomology of squarefree quotients through
links in the Stanley-Reisner complex.  Every computation on an ideal works
over the field of the ideal's ring; :func:`rank` and
:meth:`ChainComplex.homology_ranks`, which have no ring, take the field as
an argument.

Chain complexes, the Taylor strands included, have one builder,
:func:`_boundary_complex`, which takes faces as vertex bitmasks (bit v set
when v is in the face).  Every matrix is one form, sparse integer rows, and
every rank comes from one elimination loop, :func:`_eliminate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce
from math import gcd
from operator import and_, index

import numpy as np

from .core import (
    BLOCK_CELLS,
    FieldSpec,
    MonomialIdeal,
    ResourceLimitError,
    require_proper,
)
from .decomposition import minimal_primes

TAYLOR_GENERATOR_BOUND = 20
LATTICE_SIZE_BOUND = 200_000
# Variables of a Stanley-Reisner complex, whose up to 2^n faces are all visited.
STANLEY_REISNER_BOUND = 20
# BLOCK_CELLS also sets lattice points times generators in one numpy block of
# the lattice passes.  Small blocks cost no speed and keep the transient
# arrays of a Betti computation near 0.5 MB; blocks of 64k cells added 1.5 MB
# to peak RSS.


# ---------------------------------------------------------------------------
# sparse rows {row: {col: int}} and exact rank


def _normalize_row(row: dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


def _combine(row: dict[int, int], pivot_row: dict[int, int], pj: int,
             q: int | None) -> dict[int, int]:
    """pivot_row[pj] * row - row[pj] * pivot_row, which clears column pj.

    The field-specific part: over F_q the entries are reduced mod q, over
    the rationals the row is divided by the gcd of its entries.  Either way
    the new row is a nonzero multiple of the textbook update, so its zero
    pattern, and with it the pivot order, is the same.
    """
    pval, v = pivot_row[pj], row[pj]
    new_row: dict[int, int] = {}
    for j in row.keys() | pivot_row.keys():
        w = row.get(j, 0) * pval - v * pivot_row.get(j, 0)
        if q:
            w %= q
        if w:
            new_row[j] = w
    if not q:
        _normalize_row(new_row)
    return new_row


def _eliminate(rows: dict[int, dict[int, int]], q: int | None) -> int:
    """Rank of sparse integer rows over the rationals (q None) or F_q, by
    sparse elimination with Markowitz pivots.

    Entries are reduced mod q and empty rows dropped on entry; the rows
    passed in, the dict and each row, are left unchanged.
    """
    if q:
        rows = {i: {j: w for j, v in row.items() if (w := v % q)}
                for i, row in rows.items()}
    rows = {i: row for i, row in rows.items() if row}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    rank = 0
    while rows:
        # Markowitz-style pivot: minimize projected fill, break ties by index
        best = None
        for i in sorted(rows):
            rlen = len(rows[i])
            for j in sorted(rows[i]):
                cost = (rlen - 1) * (len(cols[j]) - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, j)
            if best is not None and best[0] == 0:
                break
        _, pi, pj = best
        pivot_row = rows.pop(pi)
        for j in pivot_row:
            cols[j].discard(pi)
        for ri in sorted(cols.get(pj, ())):
            row = rows[ri]
            new_row = _combine(row, pivot_row, pj, q)
            for j in row:
                cols[j].discard(ri)
            if new_row:
                rows[ri] = new_row
                for j in new_row:
                    cols.setdefault(j, set()).add(ri)
            else:
                del rows[ri]
        cols.pop(pj, None)
        rank += 1
    return rank


def rank(matrix, field: FieldSpec = FieldSpec.rationals()) -> int:
    """Exact rank over the given field of a sequence of integer rows or an
    integer numpy array.

    A float or Fraction entry raises TypeError: ranks here are exact.
    """
    if isinstance(matrix, np.ndarray):
        matrix = matrix.tolist()
    return _eliminate(
        {i: {j: w for j, v in enumerate(row) if (w := index(v))}
         for i, row in enumerate(matrix)},
        field.modulus,
    )


# ---------------------------------------------------------------------------
# chain complexes


@dataclass
class ChainComplex:
    """Boundary maps D_i : C_i -> C_{i-1} with D_i . D_{i+1} = 0."""

    dims: dict[int, int]
    # D_i as sparse rows: {index in C_{i-1}: {index in C_i: int}}
    diffs: dict[int, dict[int, dict[int, int]]] = dc_field(default_factory=dict)

    def homology_ranks(self, field: FieldSpec = FieldSpec.rationals()) -> dict[int, int]:
        """dim C_i - rank D_i - rank D_{i+1} in each degree; every
        differential is ranked once."""
        ranks = {i: _eliminate(d, field.modulus) for i, d in self.diffs.items()}
        return {
            i: dim - ranks.get(i, 0) - ranks.get(i + 1, 0)
            for i, dim in sorted(self.dims.items())
        }


def _boundary_complex(faces) -> ChainComplex:
    """The augmented chain complex spanned by the given faces.

    Faces are distinct vertex bitmasks, each dimension's indexed in
    increasing mask order.  The face v_0 < ... < v_k has boundary
    sum_p (-1)^p (face without v_p), less the terms whose face is not
    given: when the faces missing from the down-closure are closed under
    taking subsets, this is the quotient by their complex.  Faces closed
    under taking subsets, 0 included, give the simplicial complex; no faces
    give the void complex, which has no chain groups at all.  Faces closed
    under taking subsets only down to dimension k give the maps D_i for
    i > k, which are those of the whole complex.
    """
    by_dim: dict[int, list[int]] = {}
    for f in sorted(faces):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    position = {f: k for fs in by_dim.values() for k, f in enumerate(fs)}
    diffs = {}
    for i, fs in by_dim.items():
        if i - 1 not in by_dim:
            continue
        rows: dict[int, dict[int, int]] = {}
        for col, f in enumerate(fs):
            sign, rest = 1, f
            while rest:
                low = rest & -rest
                if (k := position.get(f ^ low)) is not None:
                    rows.setdefault(k, {})[col] = sign
                sign, rest = -sign, rest ^ low
        diffs[i] = rows
    dims = {i: len(fs) for i, fs in sorted(by_dim.items())}
    return ChainComplex(dims=dims, diffs=diffs)


# ---------------------------------------------------------------------------
# Taylor complex


def _subset_lcms(exponents: np.ndarray) -> np.ndarray:
    """lcm exponent vector for every subset mask of the generators."""
    m, n = exponents.shape
    table = np.zeros((1 << m, n), dtype=np.int64)
    for mask in range(1, 1 << m):
        low = mask & -mask
        table[mask] = np.maximum(table[mask ^ low], exponents[low.bit_length() - 1])
    return table


def taylor_homology(a: MonomialIdeal) -> dict[int, int]:
    """Betti numbers of R/a from the Taylor complex on the minimal generators.

    The tensored differential only connects subsets with equal lcm, so the
    computation is blocked by lcm multidegree.  The strand at one lcm L is
    the quotient complex that :func:`_boundary_complex` builds from the
    subsets with lcm L as faces, a subset of i generators in dimension
    i - 1: the subsets with smaller lcm are closed under taking subsets.
    Raises ResourceLimitError when mu exceeds ``TAYLOR_GENERATOR_BOUND``;
    :func:`koszul_proj_dim` gives the projective dimension of larger
    ideals, in particular powers.
    """
    require_proper(a)
    field = a.context.field
    mu = a.mu
    if mu > TAYLOR_GENERATOR_BOUND:
        raise ResourceLimitError(
            f"mu(a) = {mu} exceeds the Taylor bound {TAYLOR_GENERATOR_BOUND}; "
            "use koszul_proj_dim for the projective dimension"
        )
    lcms = _subset_lcms(a.exponent_matrix())
    classes: dict[bytes, list[int]] = {}
    for mask in range(1 << mu):
        classes.setdefault(lcms[mask].tobytes(), []).append(mask)
    betti: dict[int, int] = {}
    for members in classes.values():
        for j, h in _boundary_complex(members).homology_ranks(field).items():
            if h:
                betti[j + 1] = betti.get(j + 1, 0) + h
    return dict(sorted(betti.items()))


# ---------------------------------------------------------------------------
# lcm lattice and upper-Koszul complexes


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of a nonempty 1-D array, sorted.  Sorting beat
    the hashing of ``np.unique`` (NumPy 2.4) on lattice key blocks."""
    keys = np.sort(keys)
    return keys[np.append(True, keys[1:] != keys[:-1])]


def lcm_lattice(a: MonomialIdeal) -> np.ndarray:
    """All joins of nonempty generator subsets as the rows of an (L, n)
    int64 array, sorted; excludes the bottom.

    Each point is keyed by one mixed-radix integer over the column maxima,
    with column 0 the most significant digit, so the keys sort as the rows
    do.  The keys are int64, or Python ints once the radix product reaches
    2^63, and sets of points are sorted key arrays.
    """
    n = a.context.n
    if a.is_zero:
        return np.zeros((0, n), dtype=np.int64)
    gens = a.exponent_matrix()
    radix = [int(r) + 1 for r in gens.max(axis=0)]
    places = [1] * n
    for j in range(n - 1, 0, -1):
        places[j - 1] = places[j] * radix[j]
    dtype = np.int64 if places[0] * radix[0] < 1 << 63 else object
    place = np.array(places, dtype=dtype)

    def points(keys: np.ndarray) -> np.ndarray:
        return np.stack([keys // p % r for p, r in zip(places, radix)],
                        axis=1).astype(np.int64)

    known = _distinct(gens @ place)
    frontier = gens
    chunk = max(1, BLOCK_CELLS // len(gens))
    while len(frontier):
        fresh = _distinct(np.concatenate([
            _distinct(np.maximum(frontier[start:start + chunk, None, :],
                                 gens[None, :, :]).reshape(-1, n) @ place)
            for start in range(0, len(frontier), chunk)
        ]))
        fresh = fresh[~np.isin(fresh, known, assume_unique=True)]
        known = np.sort(np.concatenate((known, fresh)))
        if len(known) > LATTICE_SIZE_BOUND:
            raise ResourceLimitError(
                f"lcm lattice exceeds {LATTICE_SIZE_BOUND} elements"
            )
        frontier = points(fresh)
    return points(known)


def _carriers(gens: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The carrier of every generator at every point, as an L x m array.

    The carrier of a generator e at b is the bitmask of the variables j
    with e_j < b_j; it is -1 where e does not divide b.  The L x m arrays
    are built one variable at a time, never as an L x m x n broadcast.
    """
    n = gens.shape[1]
    # bits 0..62 keep an int64 mask non-negative
    dtype = np.int64 if n < 64 else object
    divides = np.ones((len(points), len(gens)), dtype=bool)
    carrier = np.zeros(divides.shape, dtype=dtype)
    for j in range(n):
        g, b = gens[None, :, j], points[:, j, None]
        divides &= g <= b
        carrier |= (g < b).astype(dtype) << j
    carrier[~divides] = -1
    return carrier


def _facets(carriers) -> list[int]:
    """The maximal bitmasks among the given ones: of the carriers at a
    point, the facets of its upper-Koszul complex; of the faces of a
    complex, its facets.  -1 entries (non-dividing generators) are
    ignored."""
    distinct = set(carriers)
    distinct.discard(-1)
    facets: list[int] = []
    # a strict superset has more bits, so it is met first
    for c in sorted(distinct, key=int.bit_count, reverse=True):
        for f in facets:
            if c & f == c:
                break
        else:
            facets.append(c)
    return facets


def _down_closure(facets: list[int]) -> set[int]:
    """Every subset of some facet, as bitmasks."""
    faces: set[int] = set()
    for c in facets:
        sub = c
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & c
    return faces


def _largest_carriers(gens: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The size of the largest carrier at every point, as a length-L array.

    Runs the per-variable loop of :func:`_carriers`, but counts the
    variables with e_j < b_j instead of setting their bits, so the sizes
    are int64 for any number of variables.
    """
    divides = np.ones((len(points), len(gens)), dtype=bool)
    size = np.zeros(divides.shape, dtype=np.int64)
    for j in range(gens.shape[1]):
        g, b = gens[None, :, j], points[:, j, None]
        divides &= g <= b
        size += g < b
    return np.where(divides, size, -1).max(axis=1)


def koszul_proj_dim(a: MonomialIdeal) -> int:
    """Projective dimension of R/a over the lcm lattice, without the Betti
    table.

    The complex at a point with largest carrier of size s has reduced
    homology in degrees at most s - 1, so it gives Betti numbers beta_i with
    i <= s + 1.  One vectorised pass finds s at every point.  Points with
    s = n are skipped: their complex is the full simplex, a cone.  The rest
    are visited in groups of equal s, highest first and in lattice order
    within a group, from best = 1 (beta_1 = mu); since s + 1 <= n, the walk
    ends at the first point with s + 1 <= best, in particular once best = n.
    Only the points visited get their carriers, facets and cone test (a
    complex whose facets share a vertex is a cone, with no reduced
    homology).  A complex can raise best only by homology in a degree
    j >= best - 1, so only the boundary maps of those degrees are ranked,
    from the top down, and the first nonzero homology ends the complex.
    Each distinct complex is ranked once.
    """
    require_proper(a)
    q = a.context.field.modulus
    n = a.context.n
    lattice = lcm_lattice(a)
    gens = a.exponent_matrix()
    step = max(1, BLOCK_CELLS // len(gens))
    sizes = np.concatenate([
        _largest_carriers(gens, lattice[start:start + step])
        for start in range(0, len(lattice), step)
    ])
    order = np.argsort(-sizes, kind="stable")
    order = order[sizes[order] < n]
    seen: set[frozenset[int]] = set()
    best = 1
    for start in range(0, len(order), step):
        chosen = order[start:start + step]
        for s, row in zip(sizes[chosen].tolist(),
                          _carriers(gens, lattice[chosen]).tolist()):
            if s + 1 <= best:
                return best
            facets = _facets(row)
            if reduce(and_, facets):
                continue
            key = frozenset(facets)
            if key in seen:
                continue
            seen.add(key)
            # the faces of dimension best - 2 and up: the maps D_j, j >= best - 1
            chain = _boundary_complex(
                f for f in _down_closure(facets) if f.bit_count() >= best - 1
            )
            above = 0  # rank of D_{j+1}
            for j in range(s - 1, best - 2, -1):
                here = _eliminate(chain.diffs[j], q)
                if chain.dims[j] - here - above:
                    best = j + 2
                    break
                above = here
    return best


# ---------------------------------------------------------------------------
# Stanley-Reisner complexes and local cohomology support


def local_cohomology_nonvanishing(a: MonomialIdeal) -> frozenset[int]:
    """Degrees j with nonvanishing local cohomology of R/a at the maximal ideal.

    For a squarefree ideal, j contributes exactly when some face of the
    Stanley-Reisner complex has a link with reduced homology in degree
    j - |face| - 1.  The minimum of the set is the depth of the quotient
    and the maximum is its dimension.  The facets of the complex are the
    complements of the supports of the minimal primes of ``a``.  The link
    of a face sigma is the down-closure of F - sigma over the facets F
    containing sigma; when those share a vertex, the link is a cone with no
    reduced homology and is skipped.
    """
    require_proper(a)
    if not a.is_squarefree:
        raise ValueError("this computation requires a squarefree ideal")
    n = a.context.n
    if n > STANLEY_REISNER_BOUND:
        raise ResourceLimitError(
            f"Stanley-Reisner enumeration is bounded at "
            f"{STANLEY_REISNER_BOUND} variables"
        )
    full = (1 << n) - 1
    facets = [
        full & ~sum(1 << j for g in p.generators for j in g.support())
        for p in minimal_primes(a)
    ]
    field = a.context.field
    out: set[int] = set()
    for sigma in _down_closure(facets):
        star = [f ^ sigma for f in facets if f & sigma == sigma]
        if reduce(and_, star):
            continue
        chain = _boundary_complex(_down_closure(star))
        for j, h in chain.homology_ranks(field).items():
            if h:
                out.add(j + sigma.bit_count() + 1)
    return frozenset(out)
