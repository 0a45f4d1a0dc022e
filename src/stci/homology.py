"""Exact linear algebra and simplicial homology over the rationals or F_q.

Computes the projective dimension of quotients by monomial ideals with one
pruned walk (:func:`_walk`) over complexes whose homology gives Betti
numbers: the strands of the Taylor complex on the minimal generators
(:func:`taylor_proj_dim`), or the upper-Koszul simplicial complexes,
enumerated either at the points of the exponent grid, when the grid is
small, or at the points of the lcm lattice (:func:`koszul_proj_dim`), each
ranked through the nerve of its facets when that has fewer vertices; and
decides pd = k, the number of variables that occur, by a socle test on the
exponent grid (:func:`socle_proj_dim`) with no complex built.  Also
computes the Taylor Betti table and the nonvanishing degrees of local
cohomology of squarefree quotients through links in the Stanley-Reisner
complex.  Every computation on an ideal works over the field of the
ideal's ring; :func:`rank` and :meth:`ChainComplex.homology_ranks`, which
have no ring, take the field as an argument.

Chain complexes, the Taylor strands included, have one builder,
:func:`_boundary_complex`, which takes faces as vertex bitmasks (bit v set
when v is in the face).  Every matrix is one form, sparse integer rows, and
every rank comes from one entry point, :func:`_eliminate`, whose loops share
one pivot rule: each row, in the order given, is reduced by the pivot row of
its leading column until it is empty or becomes that column's pivot, up to
a cap on the rank.  Over the rationals the rank over F_2 of the rows as
bitmasks comes first, a lower bound, and is the rank when it meets an upper
bound that the caller knows: for the boundary maps of a chain complex,
ranked from the top degree down (:func:`_descending_homology`),
D_i . D_{i+1} = 0 gives rank D_i <= dim C_i - rank D_{i+1}.  Otherwise, and
over odd primes, rows of +-1 entries, as in every boundary map, are reduced
with +-1 pivots, exact over every field at once while no entry leaves
{-1, 0, 1}.  When one would, as it must at 2-torsion, the loop on sparse
rows goes on from the pivots found so far."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial, reduce
from math import gcd, prod
from operator import and_, index, itemgetter

import numpy as np

from .core import (
    BLOCK_CELLS,
    FieldSpec,
    MonomialIdeal,
    ResourceLimitError,
    _bits,
    require_proper,
)
from .decomposition import minimal_primes

TAYLOR_GENERATOR_BOUND = 20
LATTICE_SIZE_BOUND = 200_000
# Face bits, grid points times the 2^k faces of each, of the grid
# enumeration in koszul_proj_dim; past it the lcm lattice is walked.
GRID_CELL_BOUND = 1 << 20
# _WITHOUT[v]: the bits t < 64 with bit v of t clear, the faces of one word
# of a face set that miss vertex v
_WITHOUT = [np.uint64(sum(1 << t for t in range(64) if not t >> v & 1))
            for v in range(6)]
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
    the new row is a nonzero multiple of the textbook update, so it has the
    same zero pattern, and with it the same leading column.
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


def _bit_rank(bits: list[int], cap: int) -> int:
    """Rank over F_2 of rows given as column bitmasks; stops once it
    reaches ``cap``."""
    pivots: dict[int, int] = {}  # leading bit -> reduced row
    for row in bits:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                if len(pivots) == cap:
                    return cap
                break
            row ^= pivot
    return len(pivots)


def _unit_masks(rows: dict[int, dict[int, int]],
                q: int | None) -> list[tuple[int, int]] | None:
    """Each row as (pos, neg), the bitmasks of its columns with entry 1 and
    with entry -1 (q - 1 over F_q); None when some entry is neither."""
    out = []
    for row in rows.values():
        pos = neg = 0
        for j, v in row.items():
            if q:
                v %= q
                if v == q - 1:
                    v = -1
            if v == 1:
                pos |= 1 << j
            elif v == -1:
                neg |= 1 << j
            elif v:
                return None
        out.append((pos, neg))
    return out


def _unit_rank(rows: list[tuple[int, int]],
               cap: int) -> tuple[dict[int, tuple[int, int]], int]:
    """(pivots, k) of the elimination of (pos, neg) rows with +-1 pivots,
    keyed by leading column: k is the row in which an entry would leave
    {-1, 0, 1}, or len(rows) once all are reduced or the rank is ``cap``.

    Each row is reduced by the pivot row with its leading column: the
    pivot, negated when the signs there differ, is subtracted.  While every
    entry stays in {-1, 0, 1} the integer rows are the rows over every
    field, nonzero entries included, so the pivots found are the rank over
    each; an entry 1 - (-1) = 2 would vanish over F_2 alone.
    """
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> reduced row
    for k, (pos, neg) in enumerate(rows):
        while pos | neg:
            top = (pos | neg).bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = (pos, neg)
                if len(pivots) == cap:
                    return pivots, len(rows)
                break
            p, m = pivot if (pos ^ pivot[0]) >> top & 1 == 0 else pivot[::-1]
            if pos & m or neg & p:
                return pivots, k
            pos, neg = pos & ~p | m & ~neg, neg & ~m | p & ~pos
    return pivots, len(rows)


def _row_rank(rows, q: int | None, cap: int,
              pivots: dict[int, dict[int, int]]) -> int:
    """Rank over the rationals (q None) or F_q of the reduced ``pivots``,
    keyed by leading column, and the sparse ``rows`` after them, in the
    order given; stops once it reaches ``cap``.  Each row, reduced mod q on
    entry, is reduced by the pivot of its leading column (:func:`_combine`)
    until it is empty or becomes the pivot there.  ``pivots`` grows; the
    rows passed in are left unchanged."""
    for row in rows:
        if q:
            row = {j: w for j, v in row.items() if (w := v % q)}
        while row:
            top = max(row)
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                if len(pivots) == cap:
                    return cap
                break
            row = _combine(row, pivot, top, q)
    return len(pivots)


def _eliminate(rows: dict[int, dict[int, int]], q: int | None,
               bound: int | None = None) -> int:
    """Rank of sparse integer rows over the rationals (q None) or F_q.

    ``bound`` is an upper bound on the rank that the caller knows, such as
    dim C_i - rank D_{i+1} for a boundary map D_i; the number of rows
    bounds it too, and each loop stops once the rank reaches it.  Over F_2
    the rank is that of the rows' odd entries as bitmasks
    (:func:`_bit_rank`).  Over the rationals that F_2 rank comes first: it
    is a lower bound, since a minor that is odd is nonzero, so when it
    reaches the upper bound it is the rank.  Otherwise, and over odd
    primes, rows whose entries are all +-1, as in every boundary map, go to
    :func:`_unit_rank`.  If an entry there would leave {-1, 0, 1} at row k,
    :func:`_row_rank` goes on from the +-1 pivots, as sparse rows under the
    same leading columns, with the rows from k on, row k as given.  Rows
    with an entry not +-1 go to :func:`_row_rank` alone.
    """
    cap = len(rows) if bound is None else min(len(rows), bound)
    units = _unit_masks(rows, q)
    if q in (None, 2):
        if units is not None:
            bits = [pos | neg for pos, neg in units]
        else:
            bits = [sum(1 << j for j, v in row.items() if v & 1)
                    for row in rows.values()]
        low = _bit_rank(bits, cap)
        if q == 2 or low == cap:
            return low
    found, k = _unit_rank(units, cap) if units is not None else ({}, 0)
    if k == len(rows):
        return len(found)
    pivots = {top: dict.fromkeys(_bits(pos), 1) | dict.fromkeys(_bits(neg), -1)
              for top, (pos, neg) in found.items()}
    return _row_rank(list(rows.values())[k:], q, cap, pivots)


def rank(matrix, field: FieldSpec = FieldSpec.rationals()) -> int:
    """Exact rank over the given field of a sequence of integer rows or an
    integer numpy array.

    A float or Fraction entry raises TypeError: ranks here are exact.
    """
    if isinstance(matrix, np.ndarray):
        matrix = matrix.tolist()
    rows = {i: {j: w for j, v in enumerate(row) if (w := index(v))}
            for i, row in enumerate(matrix)}
    # the rank is at most the number of rows and of nonzero columns
    return _eliminate(rows, field.modulus,
                      len({j for row in rows.values() for j in row}))


# ---------------------------------------------------------------------------
# chain complexes


@dataclass
class ChainComplex:
    """Boundary maps D_i : C_i -> C_{i-1} with D_i . D_{i+1} = 0."""

    dims: dict[int, int]
    # D_i as sparse rows: {index in C_{i-1}: {index in C_i: int}}
    diffs: dict[int, dict[int, dict[int, int]]] = dc_field(default_factory=dict)

    def homology_ranks(self, field: FieldSpec = FieldSpec.rationals()) -> dict[int, int]:
        """dim C_i - rank D_i - rank D_{i+1} in each degree i."""
        dims = self.dims
        h = dict(_descending_homology(self, field.modulus, max(dims, default=0),
                                      min(dims, default=1)))
        return {i: h[i] for i in sorted(dims)}


def _descending_homology(chain: ChainComplex, q: int | None, top: int,
                         least: int):
    """(j, dim C_j - rank D_j - rank D_{j+1}) for j from ``top``, at or
    above the chain's top degree, down to ``least``: each map is ranked
    once, with the bound dim C_j - rank D_{j+1}, and a degree with no faces
    or no map ranks 0."""
    above = 0  # rank of D_{j+1}
    for j in range(top, least - 1, -1):
        dim = chain.dims.get(j, 0)
        here = (_eliminate(chain.diffs[j], q, dim - above)
                if j in chain.diffs else 0)
        yield j, dim - here - above
        above = here


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
    for i in range(m):
        # the masks with top bit i: the masks below it, joined with generator i
        half = 1 << i
        np.maximum(table[:half], exponents[i], out=table[half:2 * half])
    return table


def _taylor_strands(a: MonomialIdeal) -> list[tuple[int, list[int]]]:
    """The strands of the Taylor complex of R/a, as (s, members): the masks
    of the generator subsets with one lcm, in increasing order, and the size
    s of the largest, s descending.

    Raises ResourceLimitError when mu exceeds ``TAYLOR_GENERATOR_BOUND``;
    :func:`koszul_proj_dim` gives the projective dimension of larger
    ideals, in particular powers.
    """
    require_proper(a)
    mu = a.mu
    if mu > TAYLOR_GENERATOR_BOUND:
        raise ResourceLimitError(
            f"mu(a) = {mu} exceeds the Taylor bound {TAYLOR_GENERATOR_BOUND}; "
            "use koszul_proj_dim for the projective dimension"
        )
    lcms = _subset_lcms(a.exponent_matrix())
    # equal lcms sort next to each other as equal row keys
    keys = lcms.view(np.dtype((np.void, lcms.itemsize * lcms.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    stops = np.append(starts[1:], 1 << mu)
    size = np.zeros(1 << mu, dtype=np.int64)  # subset sizes, by doubling too
    for i in range(mu):
        size[1 << i:2 << i] = size[:1 << i] + 1
    largest = np.maximum.reduceat(size[order], starts).tolist()
    order = order.tolist()
    return [(s, order[start:stop]) for s, start, stop in sorted(
        zip(largest, starts.tolist(), stops.tolist()),
        key=itemgetter(0), reverse=True)]


def taylor_homology(a: MonomialIdeal) -> dict[int, int]:
    """Betti numbers of R/a from the Taylor complex on the minimal generators.

    The tensored differential only connects subsets with equal lcm, so the
    computation is blocked by lcm multidegree (:func:`_taylor_strands`).
    The strand at one lcm L is the quotient complex that
    :func:`_boundary_complex` builds from the subsets with lcm L as faces,
    a subset of i generators in dimension i - 1: the subsets with smaller
    lcm are closed under taking subsets.  A strand of one subset S has its
    one face as homology, so it adds 1 to beta_|S| without a complex being
    built.
    """
    field = a.context.field
    betti: dict[int, int] = {}
    for s, members in _taylor_strands(a):
        if len(members) == 1:
            betti[s] = betti.get(s, 0) + 1
            continue
        for j, h in _boundary_complex(members).homology_ranks(field).items():
            if h:
                betti[j + 1] = betti.get(j + 1, 0) + h
    return dict(sorted(betti.items()))


def taylor_proj_dim(a: MonomialIdeal, floor: int = 1) -> int:
    """max(floor, pd R/a) from the Taylor strands (:func:`taylor_homology`)
    by the pruned walk (:func:`_walk`), largest subset first; homology in
    degree j of a strand is beta_{j+1}.  A strand of one subset S is its
    one face, with homology in degree |S| - 1, so these raise the floor
    before the walk.  When each generator alone takes the top exponent of
    some variable, the lcm of all mu generators is above that of any
    mu - 1, so all mu form a strand of their own, and pd = mu, the length of
    the Taylor resolution, with no strand built.  Otherwise some mu - 1
    generators have the lcm of all mu, so the one subset of mu generators
    has a boundary face in its strand, is no cycle, and beta_mu = 0; then
    pd <= mu - 1, and a floor of at least mu - 1 is returned with no strand
    built either.
    """
    require_proper(a)
    alone = set()  # the generators alone at the top of some variable
    for col in zip(*a.rows):
        if col.count(top := max(col)) == 1:
            alone.add(col.index(top))
    if len(alone) == a.mu:
        return max(floor, a.mu)
    if floor >= a.mu - 1:
        return floor
    strands = _taylor_strands(a)
    best = max([floor] + [s for s, members in strands if len(members) == 1])
    return _walk(((s, 1, partial(_at_least, members))
                  for s, members in strands if len(members) > 1),
                 a.context.field.modulus, best)


def _at_least(faces, least: int) -> list[int]:
    """The faces, as bitmasks, with at least ``least`` vertices."""
    return [f for f in faces if f.bit_count() >= least]


def _walk(complexes, q: int | None, best: int) -> int:
    """max(best, pd) over complexes given as (s, shift, faces), s
    descending, whose homology in degree j is beta_{j + shift} at one
    multidegree.

    ``faces(least)`` lists the faces of at least ``least`` vertices of the
    complex, or none when it has no homology in degree least or above, and
    s bounds the size of its largest face, so it has homology in degrees at
    most s - 1.  A complex can raise best only by homology in a degree
    j >= least = best - shift + 1, so the walk ends at the first complex
    with s <= least, builds only the faces of dimension least - 1 and up,
    and ranks only the boundary maps of those degrees, from the top down
    (:func:`_descending_homology`).  The first nonzero homology ends the
    complex.
    """
    for s, shift, faces in complexes:
        least = best - shift + 1
        if s <= least:
            break
        chain = _boundary_complex(faces(least))
        for j, h in _descending_homology(chain, q, s - 1, least):
            if h:
                best = j + shift
                break
    return best


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


def _lattice_complexes(a: MonomialIdeal):
    """(s, facets) of the upper-Koszul complex at every lcm lattice point
    whose largest carrier has s < n vertices, s descending and in lattice
    order within equal s.

    One vectorised pass finds s at every point; the carriers and facets of
    a point are found only when the walk asks for it, in blocks of points.
    """
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
    for start in range(0, len(order), step):
        chosen = order[start:start + step]
        for s, row in zip(sizes[chosen].tolist(),
                          _carriers(gens, lattice[chosen]).tolist()):
            yield s, _facets(row)


def _exponent_grid(a: MonomialIdeal) -> tuple[list[np.ndarray], np.ndarray]:
    """(axes, gens): the generator exponents of ``a`` in the k variables
    that occur in it, as columns, and each one's distinct exponents with 0.
    The exponent grid is the product of the axes."""
    gens = a.exponent_matrix()
    gens = gens[:, gens.any(axis=0)]
    return [np.unique(np.append(col, 0)) for col in gens.T], gens


def _membership(axes: list[np.ndarray], gens: np.ndarray) -> np.ndarray:
    """1 at each point of the exponent grid whose monomial is in a, 0
    elsewhere, as a uint64 array with one axis per variable: each generator
    at its own point, then the prefix-OR along every axis."""
    member = np.zeros([len(v) for v in axes], dtype=np.uint64)
    member[tuple(np.searchsorted(v, col) for v, col in zip(axes, gens.T))] = 1
    for j in range(len(axes)):
        np.bitwise_or.accumulate(member, axis=j, out=member)
    return member


def socle_proj_dim(a: MonomialIdeal, floor: int) -> int | None:
    """max(floor, pd R/a) for floor >= k - 1, k the number of variables in
    the support of a, from the membership grid (:func:`_membership`); None
    when the grid has more than ``GRID_CELL_BOUND`` points.

    pd R/a <= k by Hilbert's syzygy theorem over those k variables, and by
    Auslander-Buchsbaum pd R/a = k when depth is 0 there: when some
    monomial u outside a has x_j u in a for every variable j of the
    support.  A generator g dividing x_j u but not u has g_j = u_j + 1, a
    grid value, so u lies at a grid point c below the last value on every
    axis, with c outside a and c + e_j in a for every j; conversely such a
    point gives u_j = (the grid value after c_j) - 1.
    """
    require_proper(a)
    axes, gens = _exponent_grid(a)
    k = len(axes)
    if floor < k - 1:
        raise ValueError(f"floor {floor} is below k - 1 = {k - 1}")
    if prod(len(v) for v in axes) > GRID_CELL_BOUND:
        return None
    member = _membership(axes, gens)
    below = (slice(0, -1),) * k
    socle = ~member[below]
    for j in range(k):
        socle &= member[below[:j] + (slice(1, None),) + below[j + 1:]]
    return max(floor, k) if socle.any() else floor


def _grid_complexes(axes: list[np.ndarray], gens: np.ndarray, floor: int):
    """(s, facets) of every distinct upper-Koszul complex on the exponent
    grid that is neither void nor a cone and has a face of at least
    ``floor`` vertices, s descending.

    ``axes`` holds each variable's distinct exponents with 0, for the k
    variables that occur in ``gens``, whose columns they are; face bit j is
    variable j of them.  The complex at each grid point is a set of faces,
    kept as 2^k bits in 64-bit words, bit T set when face T is in it.
    Membership in a at every grid point (:func:`_membership`) is bit 0, the
    empty face.  At grid point c with multidegree b, face T is in the
    complex when x^(b - T) is in a; every generator exponent is a grid
    value, so e_j <= b_j - 1 holds exactly when e_j is at most the grid
    value before b_j, and face T is membership at the point c - 1_T.  So each axis j in turn adds the faces with j at
    c as the faces without j at c - e_j, and none at c_j = 0.
    """
    k = len(axes)
    faces = _membership(axes, gens)[..., None]
    for j in range(k):
        if j < 6:
            down = np.moveaxis(faces, j, 0)
            down[1:] |= down[:-1] << np.uint64(1 << j)
        else:
            words = faces.shape[-1]
            wide = np.zeros(faces.shape[:-1] + (2 * words,), dtype=np.uint64)
            wide[..., :words] = faces
            np.moveaxis(wide, j, 0)[1:, ..., words:] = np.moveaxis(faces, j, 0)[:-1]
            faces = wide
    faces = faces.reshape(-1, faces.shape[-1])
    # void without the empty face; a cone with apex v when every face T
    # without v has T | v as a face too; s < floor without a face T of at
    # least floor bits
    keep = (faces[:, 0] & np.uint64(1)).astype(bool)
    at_floor = [t.bit_count() >= floor for t in range(64 * faces.shape[1])]
    keep &= (faces & np.packbits(at_floor, bitorder="little").view("<u8")).any(axis=1)
    for v in range(k):
        if v < 6:
            escape = faces & _WITHOUT[v] & ~(faces >> np.uint64(1 << v))
        else:
            pairs = faces.reshape(len(faces), -1, 2, 1 << (v - 6))
            escape = pairs[:, :, 0] & ~pairs[:, :, 1]
        keep &= escape.reshape(len(faces), -1).any(axis=1)
    faces = faces[keep]
    keys = faces.view(np.dtype((np.void, faces.itemsize * faces.shape[1]))).ravel()
    faces = faces[np.unique(keys, return_index=True)[1]]
    bits = np.unpackbits(faces.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little")
    size = np.array([t.bit_count() for t in range(bits.shape[1])])
    sizes = np.where(bits, size, -1).max(axis=1)
    for i in np.argsort(-sizes, kind="stable").tolist():
        yield int(sizes[i]), _facets(np.flatnonzero(bits[i]).tolist())


def _nerve(facets: list[int]) -> list[int]:
    """The faces of the nerve of the facets, as masks over their indices: a
    set of facets is a face when their AND is nonzero.  Built by doubling,
    facet by facet, with the AND of each face."""
    faces = {0: -1}  # face -> AND of its facets; the empty face ANDs none
    for i, f in enumerate(facets):
        faces.update([(t | 1 << i, meet & f) for t, meet in faces.items()
                      if meet & f])
    return list(faces)


def _upper_koszul_faces(s: int, facets: list[int], seen: set, least: int):
    """The faces of at least ``least`` vertices of the upper-Koszul complex
    with these facets, or of its nerve when that has fewer vertices.

    Every nonempty intersection of simplices is a simplex, so the complex
    and the nerve of its facets have the same reduced homology in every
    degree and over every field (Borsuk 1948; Bjorner 1995, Thm 10.6).
    When the r facets share no vertex the nerve lacks the face of all r,
    so both have homology only in degrees at most r - 2.  So a cone (the
    facets share a vertex), a complex with r - 2 < least and a complex
    already seen give no faces, and the nerve stands in for the complex
    when r - 1 < s.
    """
    r = len(facets)
    if reduce(and_, facets) or r - 2 < least:
        return []
    key = frozenset(facets)
    if key in seen:
        return []
    seen.add(key)
    return _at_least(_nerve(facets) if r - 1 < s else _down_closure(facets),
                     least)


def koszul_proj_dim(a: MonomialIdeal, floor: int = 1) -> int:
    """max(floor, pd R/a), from the upper-Koszul complexes of a, without
    the Betti table; ``floor = 1`` gives the projective dimension.

    The upper-Koszul complex at a multidegree b is {T : x^(b - T) in a};
    its reduced homology in degree j is beta_{j+2}(R/a) at b.  The
    complexes come from one of two enumerations, which give the same
    complexes apart from cones and void ones, so the same pd:

    - the exponent grid, the product over the k variables that occur of
      their distinct exponents with 0 (:func:`_grid_complexes`), when its
      G points have G * 2^k <= ``GRID_CELL_BOUND`` face bits;
    - otherwise the lcm lattice (:func:`_lattice_complexes`), where the
      facets at a point are its maximal carriers.

    Points off the lattice carry cones, and pd is a maximum, so neither the
    extra points of the grid nor the order of the visits changes it.

    A complex whose largest face has s vertices has reduced homology in
    degrees at most s - 1, so it gives Betti numbers beta_i with
    i <= s + 1.  :func:`_walk` visits the complexes by s, highest first,
    from best = floor (beta_1 = mu gives pd >= 1), and ends at the first
    complex with s + 1 <= best, in particular once best = n; the grid
    enumeration leaves out the complexes with s < floor.  The faces it
    ranks are those of :func:`_upper_koszul_faces`: cones and complexes of
    too few facets give none, each distinct complex is ranked once, and a
    complex with fewer facets than vertices in its largest face is ranked
    through its nerve.
    """
    require_proper(a)
    axes, gens = _exponent_grid(a)
    if prod(len(v) for v in axes) << len(axes) <= GRID_CELL_BOUND:
        complexes = _grid_complexes(axes, gens, floor)
    else:
        complexes = _lattice_complexes(a)
    seen: set[frozenset[int]] = set()
    return _walk(((s, 2, partial(_upper_koszul_faces, s, facets, seen))
                  for s, facets in complexes), a.context.field.modulus, floor)


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
        full & ~sum(1 << j for j in p.support())
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
