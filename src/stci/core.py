"""Exact arithmetic of monomial ideals.

A monomial is its exponent row, a tuple of Python ints, in a fixed ring
context (an ordered list of variables over an exact coefficient field).  A
monomial ideal is stored in canonical form: the exponent rows of its unique
minimal monomial generating set, in decreasing lexicographic order.  Rows
from outside are checked where they enter: ``from_exponents``, ``in`` and
``.colon``.  All values are immutable; every operation returns fresh
objects and never mutates its inputs.

Conventions: the zero ideal is the empty generator set, the unit ideal is
generated by the monomial 1.  Both flow through all operations without
special-casing by callers; the invariants reject both in
:func:`require_proper`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce, wraps
from operator import and_, index, le
from typing import Iterable

import numpy as np

# Largest exponent a monomial may carry.  The sum of two bounded exponents
# (a product of monomials, computed in int64 arrays before the result is
# checked) and the total degree of a bounded monomial in fewer than 2^32
# variables both fit in int64.
MAX_EXPONENT = 2**31 - 1
# Cells (rows times entries) in one numpy block of a pairwise comparison.
BLOCK_CELLS = 1 << 12
# Largest mu_a * mu_b * n array a product or an intersection may broadcast.
# Repeated squaring in a power doubles the generator count each step, so a
# huge exponent trips this long before MAX_EXPONENT does.  It also bounds
# the mu^3 steps of the greedy Schmitt-Vogel search.
PAIR_CELL_BOUND = 1 << 22
# Entries each memo keeps, least recently used out.
MEMO_SIZE = 1 << 12
# Every memo made by ``memo``; ``invariants.clear_caches`` empties them all.
MEMOS: list = []
# Prime-field moduli lie below this bound, where trial division settles
# primality in a few milliseconds.
MODULUS_BOUND = 2**31


def memo(fn):
    """``fn`` with its results kept in a bounded LRU memo, keyed by its
    (hashable, immutable) arguments and listed in ``MEMOS``.  The result is
    a plain function, so it binds as a method and tracers can wrap it.
    Positional arguments left out take their defaults before the lookup, so
    ``f(a)`` and ``f(a, default)`` share one entry."""
    cached = lru_cache(maxsize=MEMO_SIZE)(fn)
    arity, defaults = fn.__code__.co_argcount, fn.__defaults__ or ()

    @wraps(fn)
    def memoized(*args, **kwargs):
        if not kwargs and arity - len(defaults) <= len(args) < arity:
            args += defaults[len(args) - arity:]
        return cached(*args, **kwargs)

    memoized.cache_info, memoized.cache_clear = cached.cache_info, cached.cache_clear
    MEMOS.append(memoized)
    return memoized


def _bits(x: int):
    """The indices of the set bits of x, in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def require_proper(a: MonomialIdeal) -> None:
    """Raise ValueError unless ``a`` is a proper, nonzero ideal."""
    if a.is_zero or a.is_unit:
        raise ValueError(f"expected a proper, nonzero ideal, got {a}")


class ContextMismatchError(ValueError):
    """Raised when operands belong to different ring contexts."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured size bound."""


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals, or a prime field of order ``modulus``."""

    modulus: int | None = None  # None means the rationals

    def __post_init__(self):
        q = self.modulus
        if q is not None and not (q < MODULUS_BOUND and _is_prime(q)):
            raise ValueError(
                f"field modulus must be a prime below {MODULUS_BOUND}, got {q}"
            )

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def prime(cls, q: int) -> "FieldSpec":
        return cls(q)

    def __str__(self) -> str:
        return "rational" if self.modulus is None else f"fp:{self.modulus}"

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse ``rational`` or ``fp:<q>``."""
        if text == "rational":
            return cls.rationals()
        if text.startswith("fp:"):
            try:
                q = int(text[3:])
            except ValueError:
                raise ValueError(f"bad field spec {text!r}") from None
            return cls.prime(q)
        raise ValueError(f"bad field spec {text!r} (expected 'rational' or 'fp:<q>')")


@dataclass(frozen=True)
class RingContext:
    """A polynomial ring: ordered variable names over an exact field."""

    variables: tuple[str, ...]
    field: FieldSpec = FieldSpec.rationals()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) < 1:
            raise ValueError("a ring context needs at least one variable")
        if any(not v for v in self.variables):
            raise ValueError("variable names must be nonempty")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")

    @property
    def n(self) -> int:
        return len(self.variables)

    def zero_ideal(self) -> "MonomialIdeal":
        return MonomialIdeal(self, ())

    def unit_ideal(self) -> "MonomialIdeal":
        return MonomialIdeal(self, ((0,) * self.n,))

    def __str__(self) -> str:
        return f"ring {', '.join(self.variables)} over {self.field}"


def _check_same_context(a, b) -> None:
    if a.context != b.context:
        raise ContextMismatchError(
            f"operands live in different rings: {a.context} vs {b.context}"
        )


def _exponent_text(variables: tuple[str, ...], exponents: Iterable[int]) -> str:
    """``x^2*y`` for the exponents (2, 1) on x, y; the empty string for the
    unit, which each caller spells its own way."""
    parts = []
    for name, e in zip(variables, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _checked_row(context: RingContext, row: Iterable[int]) -> tuple[int, ...]:
    """``row`` as a tuple of Python ints, refused unless it is n exponents in
    0..``MAX_EXPONENT``.  A float raises TypeError rather than truncating."""
    row = tuple(map(index, row))
    if len(row) != context.n:
        raise ValueError(f"expected {context.n} exponents, got {len(row)}")
    if min(row) < 0:
        raise ValueError("exponents must be non-negative")
    top = max(row)
    if top > MAX_EXPONENT:
        raise ResourceLimitError(f"exponent {top} exceeds the bound {MAX_EXPONENT}")
    return row


def _minimal_exponent_rows(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The rows not componentwise-dominated by another row, distinct and
    sorted in increasing lexicographic order (duplicates collapse).

    A proper divisor of a row has strictly smaller degree, and distinct rows
    of one degree never divide each other.  So the distinct rows are grouped
    by degree, and rows of a single degree are returned with no comparison.
    Otherwise each group, in increasing degree order, is compared only with
    rows of smaller degree:

    * when all rows against all rows would fit in one numpy block of
      ``BLOCK_CELLS`` cells, in plain Python against the rows kept so far;
      a dropped row has a kept divisor, so these are enough;
    * above that, in numpy blocks of at most about ``BLOCK_CELLS`` cells
      against every row of smaller degree, on one array built over all
      distinct rows in degree order.
    """
    groups: dict[int, list[tuple[int, ...]]] = {}
    for r in set(rows):
        groups.setdefault(sum(r), []).append(r)
    if len(groups) < 2:
        return sorted(next(iter(groups.values()), []))
    order = sorted(groups)
    m = sum(map(len, groups.values()))
    n = len(rows[0])
    if m * m * n <= BLOCK_CELLS:
        kept: list[tuple[int, ...]] = []
        for d in order:
            group = groups[d]
            if kept:
                group = [r for r in group if not any(all(map(le, s, r)) for s in kept)]
            kept += group
        return sorted(kept)
    uniq = [r for d in order for r in groups[d]]
    degrees = [d for d in order for _ in groups[d]]
    arr = np.array(uniq, dtype=np.int64)
    deg = np.array(degrees, dtype=np.int64)
    keep = [True] * m
    step = max(1, BLOCK_CELLS // (m * n))
    for start in range(0, m, step):
        stop = min(start + step, m)
        lower = bisect_left(degrees, degrees[stop - 1])
        if lower:
            divides = (arr[None, :lower] <= arr[start:stop, None]).all(axis=2)
            divides &= deg[None, :lower] < deg[start:stop, None]
            keep[start:stop] = (~divides.any(axis=1)).tolist()
    return sorted(r for r, k in zip(uniq, keep) if k)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in canonical form: the exponent rows of its minimal
    generators, tuples of Python ints in decreasing lexicographic order."""

    context: RingContext
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def _from_rows(
        cls, context: RingContext, rows: Iterable[Iterable[int]]
    ) -> "MonomialIdeal":
        """The ideal of non-negative exponent rows of length n, each a
        sequence of Python ints (a list from ``ndarray.tolist()`` will do).
        Rows may repeat: a product or an intersection passes the row of
        every generator pair, and ``_minimal_exponent_rows`` collapses the
        duplicates.  Only the minimal rows are kept, so the exponent bound is
        checked on them alone; every entry must still fit in int64, which
        large inputs are compared in."""
        # decreasing lexicographic term order: x before y before z
        rows = _minimal_exponent_rows(list(map(tuple, rows)))[::-1]
        top = next((e for e in map(max, rows) if e > MAX_EXPONENT), None)
        if top is not None:
            raise ResourceLimitError(f"exponent {top} exceeds the bound {MAX_EXPONENT}")
        return cls(context, tuple(rows))

    @classmethod
    def from_exponents(
        cls, context: RingContext, rows: Iterable[Iterable[int]]
    ) -> "MonomialIdeal":
        """The ideal of ``rows``, each checked, the non-minimal ones too."""
        return cls._from_rows(context, [_checked_row(context, r) for r in rows])

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the memos hash their key ideal on every lookup; equal fields give
        # equal hashes, as with the dataclass hash this replaces
        return hash((self.context, self.rows))

    # -- structure -------------------------------------------------------

    @property
    def mu(self) -> int:
        """Minimal number of generators (0 for the zero ideal)."""
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_unit(self) -> bool:
        return len(self.rows) == 1 and not any(self.rows[0])

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for r in self.rows for e in r)

    def exponent_matrix(self) -> np.ndarray:
        """Generator exponents as a read-only mu x n integer array, built once."""
        return self._exponent_matrix

    @cached_property
    def _exponent_matrix(self) -> np.ndarray:
        matrix = np.array(self.rows, dtype=np.int64).reshape(self.mu, self.context.n)
        matrix.flags.writeable = False
        return matrix

    def support(self) -> frozenset[int]:
        """Variables occurring in some generator."""
        return frozenset(j for r in self.rows for j, e in enumerate(r) if e)

    # -- membership ------------------------------------------------------

    def __contains__(self, row: Iterable[int]) -> bool:
        row = _checked_row(self.context, row)
        return any(all(map(le, r, row)) for r in self.rows)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """Whether every generator of ``other`` has a divisor among ours."""
        _check_same_context(self, other)
        return self.contains_rows(other.exponent_matrix())

    def contains_rows(self, b: np.ndarray) -> bool:
        """Whether every row of the exponent array ``b`` has a divisor
        among our generators, compared in blocks of at most about
        ``BLOCK_CELLS`` cells."""
        a = self.exponent_matrix()
        step = max(1, BLOCK_CELLS // max(a.size, 1))
        return all(
            (a[None, :, :] <= b[start:start + step, None, :]).all(axis=2).any(axis=1).all()
            for start in range(0, len(b), step)
        )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        _check_same_context(self, other)
        return MonomialIdeal._from_rows(self.context, self.rows + other.rows)

    @memo
    def _pairwise(self, other: "MonomialIdeal", combine) -> "MonomialIdeal":
        """The ideal generated by ``combine`` of every pair of generators,
        kept in a memo: a power's squares are the products other callers
        ask for too."""
        _check_same_context(self, other)
        if self.is_zero or other.is_zero:
            return self.context.zero_ideal()
        n = self.context.n
        if self.mu * other.mu * n > PAIR_CELL_BOUND:
            raise ResourceLimitError(
                f"{self.mu} x {other.mu} generator pairs in {n} variables exceed "
                f"the bound of {PAIR_CELL_BOUND} cells"
            )
        a = self.exponent_matrix()
        b = other.exponent_matrix()
        rows = combine(a[:, None, :], b[None, :, :]).reshape(-1, n)
        return MonomialIdeal._from_rows(self.context, rows.tolist())

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return self._pairwise(other, np.add)

    def __pow__(self, k: int) -> "MonomialIdeal":
        if k < 1:
            raise ValueError(
                "power() needs a positive exponent; ask for the unit ideal explicitly"
            )
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        assert result is not None
        return result

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Ideal intersection, via pairwise lcms of generators."""
        return self._pairwise(other, np.maximum)

    def colon(self, row: Iterable[int]) -> "MonomialIdeal":
        """(self : m) = { u : u*m in self }, m given by its exponent row."""
        row = _checked_row(self.context, row)
        return MonomialIdeal._from_rows(self.context, [
            [max(e - f, 0) for e, f in zip(r, row)] for r in self.rows
        ])

    def colon_ideal(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(self : other), the intersection of colons by each generator."""
        _check_same_context(self, other)
        return reduce(and_, map(self.colon, other.rows), self.context.unit_ideal())

    def saturate(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(self : other^infinity), by iterating the colon until stable."""
        _check_same_context(self, other)
        current = self
        while True:
            nxt = current.colon_ideal(other)
            if nxt == current:
                return current
            current = nxt

    @memo
    def radical(self) -> "MonomialIdeal":
        if self.is_squarefree:
            return self
        rows = np.minimum(self.exponent_matrix(), 1)
        return MonomialIdeal._from_rows(self.context, rows.tolist())

    def bracket_power(self, q: int) -> "MonomialIdeal":
        """The ideal of q-th powers of the minimal generators."""
        if q < 1:
            raise ValueError("bracket power needs q >= 1")
        # the q-th powers of minimal generators are minimal, so a row past
        # the bound would be refused anyway; refuse it before building rows
        top = q * max(map(max, self.rows), default=0)
        if top > MAX_EXPONENT:
            raise ResourceLimitError(f"exponent {top} exceeds the bound {MAX_EXPONENT}")
        return MonomialIdeal._from_rows(
            self.context, [[e * q for e in r] for r in self.rows]
        )

    # -- presentation ----------------------------------------------------

    def generator_strings(self) -> list[str]:
        names = self.context.variables
        return [_exponent_text(names, r) or "1" for r in self.rows]

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(self.generator_strings()) + ")"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self}"
