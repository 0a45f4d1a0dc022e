"""Exact linear algebra and simplicial homology over the rationals or F_q.

Provides the two independent Betti-number paths for quotients by monomial
ideals: the Taylor complex on the minimal generators, and upper-Koszul
simplicial complexes at the multidegrees of the lcm lattice.  Each serves
as the other's oracle.  The projective dimension alone comes from a pruned
search over the same lattice complexes.  Also computes the nonvanishing
degrees of local cohomology of squarefree quotients through links in the
Stanley-Reisner complex.

Simplicial chain complexes have one builder, :func:`_boundary_complex`,
which takes faces as vertex bitmasks (bit v set when v is in the face).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import and_

import numpy as np

from .core import (
    BLOCK_CELLS,
    FieldSpec,
    MonomialIdeal,
    ResourceLimitError,
)

TAYLOR_GENERATOR_BOUND = 20
LATTICE_SIZE_BOUND = 200_000
# Variables of a Stanley-Reisner complex, whose 2^n faces are enumerated.
STANLEY_REISNER_BOUND = 20
# BLOCK_CELLS also sets lattice points times generators in one numpy block of
# the lattice passes.  Small blocks cost no speed and keep the transient
# arrays of a Betti computation near 0.5 MB; blocks of 64k cells added 1.5 MB
# to peak RSS.


# ---------------------------------------------------------------------------
# sparse matrices and exact rank


class SparseMatrix:
    """A sparse matrix stored as a triplet list, for exact rank computations."""

    def __init__(self, nrows: int, ncols: int, triplets=()):
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], object] = {}
        for i, j, v in triplets:
            if v:
                self.entries[(i, j)] = v

    def __setitem__(self, key, value):
        if value:
            self.entries[key] = value
        else:
            self.entries.pop(key, None)

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    @classmethod
    def from_rows(cls, rows) -> "SparseMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        m = cls(nrows, ncols)
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                if v:
                    m[(i, j)] = v
        return m


def _integer_row(row: dict[int, object], q: int | None) -> dict[int, int]:
    """A row with Fraction or numpy entries as Python ints: over F_q each
    entry becomes a representative of its residue, over the rationals the
    row is scaled by the lcm of its denominators (which keeps the rank)."""
    if q:
        out = {}
        for j, v in row.items():
            if isinstance(v, Fraction):
                den = v.denominator % q
                if den == 0:
                    raise ZeroDivisionError("denominator divisible by the modulus")
                out[j] = v.numerator * pow(den, q - 2, q)
            else:
                out[j] = int(v)
        return out
    denom = 1
    for v in row.values():
        if isinstance(v, Fraction):
            denom = denom * v.denominator // gcd(denom, v.denominator)
    return {j: int(v * denom) for j, v in row.items()}


def _field_rows(matrix: SparseMatrix, q: int | None) -> dict[int, dict[int, int]]:
    """The nonzero rows as dicts of Python ints, reduced mod q over F_q."""
    rows: dict[int, dict[int, object]] = {}
    for (i, j), v in matrix.entries.items():
        rows.setdefault(i, {})[j] = v
    out: dict[int, dict[int, int]] = {}
    for i, row in rows.items():
        if any(type(v) is not int for v in row.values()):
            row = _integer_row(row, q)
        if q:
            row = {j: w for j, v in row.items() if (w := v % q)}
        if row:
            out[i] = row
    return out


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
    """Rank of integer rows by sparse elimination with Markowitz pivots."""
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
    """Exact rank of a matrix over the given field.

    Accepts a SparseMatrix, a sequence of rows, or a numpy array.  Over the
    rationals the elimination is fraction-free on integer-cleared rows; over
    a prime field it reduces entries modulo q first.
    """
    if not isinstance(matrix, SparseMatrix):
        if isinstance(matrix, np.ndarray):
            matrix = SparseMatrix.from_rows(matrix.tolist())
        else:
            matrix = SparseMatrix.from_rows(matrix)
    if matrix.is_zero():
        return 0
    return _eliminate(_field_rows(matrix, field.modulus), field.modulus)


# ---------------------------------------------------------------------------
# chain complexes


@dataclass
class ChainComplex:
    """Boundary maps D_i : C_i -> C_{i-1} with D_i . D_{i+1} = 0."""

    dims: dict[int, int]
    diffs: dict[int, SparseMatrix] = dc_field(default_factory=dict)

    def homology_ranks(self, field: FieldSpec = FieldSpec.rationals()) -> dict[int, int]:
        """dim C_i - rank D_i - rank D_{i+1} in each degree; every
        differential is ranked once."""
        ranks = {i: rank(d, field) for i, d in self.diffs.items()}
        return {
            i: dim - ranks.get(i, 0) - ranks.get(i + 1, 0)
            for i, dim in sorted(self.dims.items())
        }


def _boundary_complex(faces) -> ChainComplex:
    """The augmented chain complex of the complex with the given faces.

    Faces are vertex bitmasks, the empty face 0 included, closed under
    taking subsets.  Each dimension's faces are indexed in increasing mask
    order, and the face v_0 < ... < v_k has boundary
    sum_p (-1)^p (face without v_p).  No faces gives the void complex,
    which has no chain groups at all.  Faces closed under taking subsets
    only down to some dimension k give the maps D_i for i > k, which are
    those of the whole complex.
    """
    by_dim: dict[int, list[int]] = {}
    for f in sorted(faces):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    index = {f: k for fs in by_dim.values() for k, f in enumerate(fs)}
    diffs = {}
    for i, fs in by_dim.items():
        if i - 1 not in by_dim:
            continue
        m = SparseMatrix(len(by_dim[i - 1]), len(fs))
        for col, f in enumerate(fs):
            sign, rest = 1, f
            while rest:
                low = rest & -rest
                m.entries[(index[f ^ low], col)] = sign
                sign, rest = -sign, rest ^ low
        diffs[i] = m
    dims = {i: len(fs) for i, fs in sorted(by_dim.items())}
    return ChainComplex(dims=dims, diffs=diffs)


# ---------------------------------------------------------------------------
# simplicial complexes


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


def boundary_chain_complex(
    complex_: SimplicialComplex, field: FieldSpec = FieldSpec.rationals()
) -> ChainComplex:
    """The augmented (reduced) simplicial chain complex, C_{-1} included."""
    return _boundary_complex(sum(1 << v for v in f) for f in complex_.faces)


def reduced_homology_ranks(
    complex_: SimplicialComplex, field: FieldSpec = FieldSpec.rationals()
) -> dict[int, int]:
    """Ranks of reduced homology for degrees -1 .. dim.

    The void complex has no homology at all; the irrelevant complex has
    rank one in degree -1.
    """
    return boundary_chain_complex(complex_).homology_ranks(field)


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


def taylor_homology(
    a: MonomialIdeal,
    field: FieldSpec | None = None,
    max_generators: int = TAYLOR_GENERATOR_BOUND,
) -> dict[int, int]:
    """Betti numbers of R/a from the Taylor complex on the minimal generators.

    The tensored differential only connects subsets with equal lcm, so the
    computation is blocked by lcm multidegree.  Raises ResourceLimitError
    when mu exceeds ``max_generators``; use :func:`koszul_betti` for larger
    ideals, in particular for powers.
    """
    if a.is_unit or a.is_zero:
        raise ValueError("betti numbers need a proper, nonzero ideal")
    if field is None:
        field = a.context.field
    mu = a.mu
    if mu > max_generators:
        raise ResourceLimitError(
            f"mu(a) = {mu} exceeds the Taylor bound {max_generators}; "
            "use koszul_betti instead"
        )
    exps = a.exponent_matrix()
    lcms = _subset_lcms(exps)
    classes: dict[bytes, list[int]] = {}
    for mask in range(1 << mu):
        classes.setdefault(lcms[mask].tobytes(), []).append(mask)
    betti: dict[int, int] = {}
    for members in classes.values():
        members_set = set(members)
        by_size: dict[int, list[int]] = {}
        for mask in members:
            by_size.setdefault(bin(mask).count("1"), []).append(mask)
        index = {
            i: {mask: k for k, mask in enumerate(sorted(masks))}
            for i, masks in by_size.items()
        }
        ranks: dict[int, int] = {}
        for i, masks in by_size.items():
            if i - 1 not in by_size:
                ranks[i] = 0
                continue
            m = SparseMatrix(len(by_size[i - 1]), len(masks))
            for mask in masks:
                col = index[i][mask]
                members_of = [b for b in range(mu) if mask >> b & 1]
                for pos, b in enumerate(members_of):
                    sub = mask ^ (1 << b)
                    if sub in members_set:
                        m[(index[i - 1][sub], col)] = -1 if pos % 2 else 1
            ranks[i] = rank(m, field)
        for i, masks in by_size.items():
            h = len(masks) - ranks.get(i, 0) - ranks.get(i + 1, 0)
            if h:
                betti[i] = betti.get(i, 0) + h
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
    """The maximal carriers, i.e. the facets of the upper-Koszul complex;
    -1 entries (non-dividing generators) are ignored."""
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


def upper_koszul_complex(a: MonomialIdeal, b) -> SimplicialComplex:
    """The upper-Koszul complex at multidegree b, on the support of b.

    Faces are the squarefree tau with x^(b - tau) in a.  Vertices are
    relabelled to 0..s-1 following the sorted support of b.
    """
    b = tuple(int(x) for x in b)
    supp = [j for j, e in enumerate(b) if e > 0]
    carriers = _carriers(a.exponent_matrix(), np.array([b], dtype=np.int64))
    facets = _facets(carriers[0].tolist())
    return SimplicialComplex(
        len(supp),
        [frozenset(k for k, j in enumerate(supp) if f >> j & 1)
         for f in _down_closure(facets)],
    )


def _koszul_points(a: MonomialIdeal):
    """Yield ``(b, facets)`` at every lcm-lattice point b, as a tuple, whose
    upper-Koszul complex is not a cone; facets are its maximal carriers as
    bitmasks, largest first.

    The carriers of all generators at a block of lattice points come from
    one vectorised pass.  A point whose facets share a vertex is skipped:
    its complex is a cone and has no reduced homology.
    """
    lattice = lcm_lattice(a)
    gens = a.exponent_matrix()
    step = max(1, BLOCK_CELLS // len(gens))
    for start in range(0, len(lattice), step):
        block = lattice[start:start + step]
        for b, row in zip(block.tolist(), _carriers(gens, block).tolist()):
            facets = _facets(row)
            if facets and not reduce(and_, facets):
                yield tuple(b), facets


def koszul_betti(
    a: MonomialIdeal, field: FieldSpec | None = None
) -> dict[tuple[int, tuple[int, ...]], int]:
    """Multigraded Betti numbers of R/a over the lcm lattice.

    beta_{i,b} is the rank of reduced homology in degree i-2 of the
    upper-Koszul complex at b; beta_{0,0} = 1 for a proper ideal.  Only the
    points of :func:`_koszul_points` can contribute.  Their faces, as
    bitmasks, go straight into the boundary matrices, each matrix is ranked
    once, and points with the same facets share one homology computation.
    """
    if a.is_unit or a.is_zero:
        raise ValueError("betti numbers need a proper, nonzero ideal")
    if field is None:
        field = a.context.field
    zero = (0,) * a.context.n
    out: dict[tuple[int, tuple[int, ...]], int] = {(0, zero): 1}
    # nonzero reduced homology (degree, rank) of each complex met so far
    homology: dict[frozenset[int], list[tuple[int, int]]] = {}
    for b, facets in _koszul_points(a):
        key = frozenset(facets)
        if key not in homology:
            ranks = _boundary_complex(_down_closure(facets)).homology_ranks(field)
            homology[key] = [(j, h) for j, h in ranks.items() if h]
        for j, h in homology[key]:
            out[(j + 2, b)] = h
    return out


def koszul_proj_dim(a: MonomialIdeal, field: FieldSpec | None = None) -> int:
    """Projective dimension of R/a over the lcm lattice, without the Betti
    table.

    The complex at a point with largest facet of size s has reduced
    homology in degrees at most s - 1, so it gives Betti numbers beta_i with
    i <= s + 1.  The distinct complexes are visited by that bound, highest
    first, from best = 1 (beta_1 = mu).  A complex can raise best only by
    homology in a degree j >= best - 1, so only the boundary maps of those
    degrees are ranked, from the top down, and the first nonzero homology
    ends the complex.  The search ends once no bound left exceeds best, or
    best = n.
    """
    if a.is_unit or a.is_zero:
        raise ValueError("projective dimension needs a proper, nonzero ideal")
    if field is None:
        field = a.context.field
    bounds: dict[frozenset[int], int] = {}
    for _, facets in _koszul_points(a):
        bounds.setdefault(frozenset(facets), facets[0].bit_count() + 1)
    best, n = 1, a.context.n
    for facets, bound in sorted(bounds.items(), key=lambda kv: -kv[1]):
        if bound <= best or best == n:
            break
        # the faces of dimension best - 2 and up: the maps D_j, j >= best - 1
        chain = _boundary_complex(
            f for f in _down_closure(facets) if f.bit_count() >= best - 1
        )
        above = 0  # rank of D_{j+1}
        for j in range(bound - 2, best - 2, -1):
            here = rank(chain.diffs[j], field)
            if chain.dims[j] - here - above:
                best = j + 2
                break
            above = here
    return best


def koszul_betti_totals(
    a: MonomialIdeal, field: FieldSpec | None = None
) -> dict[int, int]:
    """Total Betti numbers, summing the multigraded ones per homological degree."""
    out: dict[int, int] = {}
    for (i, _), h in koszul_betti(a, field).items():
        out[i] = out.get(i, 0) + h
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Stanley-Reisner complexes and local cohomology support


def _stanley_reisner_faces(a: MonomialIdeal) -> list[int]:
    """Bitmasks of the squarefree monomials outside ``a``."""
    if not a.is_squarefree:
        raise ValueError("Stanley-Reisner complexes need a squarefree ideal")
    n = a.context.n
    if n > STANLEY_REISNER_BOUND:
        raise ResourceLimitError(
            f"Stanley-Reisner enumeration is bounded at "
            f"{STANLEY_REISNER_BOUND} variables"
        )
    gen_masks = []
    for g in a.generators:
        mask = 0
        for j in g.support():
            mask |= 1 << j
        gen_masks.append(mask)
    return [
        sigma for sigma in range(1 << n)
        if not any(gm & ~sigma == 0 for gm in gen_masks)
    ]


def stanley_reisner_complex(a: MonomialIdeal) -> SimplicialComplex:
    """The complex whose faces are the squarefree monomials outside ``a``."""
    n = a.context.n
    return SimplicialComplex(n, [
        frozenset(j for j in range(n) if sigma >> j & 1)
        for sigma in _stanley_reisner_faces(a)
    ])


def local_cohomology_nonvanishing(
    a: MonomialIdeal, field: FieldSpec | None = None
) -> frozenset[int]:
    """Degrees j with nonvanishing local cohomology of R/a at the maximal ideal.

    For a squarefree ideal, j contributes exactly when some face of the
    Stanley-Reisner complex has a link with reduced homology in degree
    j - |face| - 1.  The minimum of the set is the depth of the quotient
    and the maximum is its dimension.
    """
    if a.is_unit or a.is_zero:
        raise ValueError("local cohomology support needs a proper, nonzero ideal")
    if not a.is_squarefree:
        raise ValueError("this computation requires a squarefree ideal")
    if field is None:
        field = a.context.field
    faces = _stanley_reisner_faces(a)
    out: set[int] = set()
    for sigma in faces:
        link = [f ^ sigma for f in faces if f & sigma == sigma]
        for j, h in _boundary_complex(link).homology_ranks(field).items():
            if h:
                out.add(j + sigma.bit_count() + 1)
    return frozenset(out)
