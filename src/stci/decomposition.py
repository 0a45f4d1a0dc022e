"""Irreducible decomposition of monomial ideals and derived invariants.

An irreducible monomial ideal is generated by pure powers of variables.
Every proper nonzero monomial ideal is the irredundant intersection of a
unique finite set of irreducible ones.  One incremental pass computes it:
the generators are added one at a time, and each irreducible component not
containing the new generator splits into one component per variable of
its support.  Minimal primes are the components of the radical.  One
builder turns every component, and every prime generated by variables,
into a ``MonomialIdeal``.  Height, dimension of the quotient and symbolic
powers of squarefree ideals are derived from the minimal primes.
"""

from __future__ import annotations

from typing import Iterable

from .core import MonomialIdeal, ResourceLimitError, RingContext, memo, require_proper

# Largest c * (kept + c) * n cells one step of ``_components`` may filter,
# for c the components it grows: 2048 grown in 22 variables (9.2e7) pass.
COMPONENT_CELL_BOUND = 1 << 27


def _contains(q: tuple[int, ...], p: tuple[int, ...]) -> bool:
    """Whether the irreducible ideal ``q`` contains the irreducible ``p``:
    every pure power x_j^{p_j} of ``p`` lies in ``q``."""
    return all(0 < q[j] <= e for j, e in enumerate(p) if e)


def _components(rows: Iterable[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """Irredundant irreducible components of the ideal generated by ``rows``.

    A component is an exponent tuple, 0 for an absent variable.  Starting
    from the zero ideal, generators m are added one at a time.  Monomial
    ideals form a distributive lattice, so J + (m) is the intersection of
    the Q + (m) over the components Q of J.  Q + (m) is Q when m lies in Q;
    otherwise it is the intersection of the irreducible Q + (x_j^{m_j}) for
    j in the support of m.  An irreducible monomial ideal containing an
    intersection contains one of its members (if u in I and v in J lie
    outside Q, so does lcm(u, v) in I & J), so a component is redundant
    exactly when it contains another one.  A grown component contains the
    old one it grew from, so an old component kept unchanged that contained
    it would contain another old one; only grown components are filtered,
    and a step that would filter past ``COMPONENT_CELL_BOUND`` cells raises
    ResourceLimitError before it grows any.
    """
    comps = [(0,) * n]
    for m in rows:
        support = [j for j, e in enumerate(m) if e]
        kept: list[tuple[int, ...]] = []
        split: list[tuple[int, ...]] = []
        for q in comps:
            (kept if any(0 < q[j] <= m[j] for j in support) else split).append(q)
        c = len(split) * len(support)
        if c * (len(kept) + c) * n > COMPONENT_CELL_BOUND:
            raise ResourceLimitError(
                f"{c} grown and {len(kept)} kept irreducible components in {n} "
                f"variables exceed the bound of {COMPONENT_CELL_BOUND} cells"
            )
        grown: dict[tuple[int, ...], None] = {}
        for q in split:
            for j in support:
                g = list(q)
                g[j] = m[j]
                grown[tuple(g)] = None
        comps = kept + [
            g for g in grown
            if not any(_contains(g, p) for p in kept)
            and not any(p != g and _contains(g, p) for p in grown)
        ]
    return comps


def _irreducible(ctx: RingContext, q: tuple[int, ...]) -> MonomialIdeal:
    """The ideal of the pure powers x_i^{q_i}, q_i > 0.  In increasing
    variable index their rows are already its minimal rows in canonical
    order."""
    n = ctx.n
    return MonomialIdeal(ctx, tuple(
        tuple(e if j == i else 0 for j in range(n)) for i, e in enumerate(q) if e
    ))


def _component_ideals(
    ctx: RingContext, rows: Iterable[tuple[int, ...]]
) -> tuple[MonomialIdeal, ...]:
    """The irredundant irreducible components of the ideal of ``rows``,
    sorted by their (variable, -exponent) pairs: the order of their
    generator lists in the decreasing lexicographic term order."""
    comps = sorted(
        _components(rows, ctx.n),
        key=lambda q: [(i, -e) for i, e in enumerate(q) if e],
    )
    return tuple(_irreducible(ctx, q) for q in comps)


def _variable_prime(ctx: RingContext, variables: frozenset[int]) -> MonomialIdeal:
    """The prime generated by ``variables``: the irreducible ideal whose
    exponents are all 1."""
    return _irreducible(ctx, tuple(int(j in variables) for j in range(ctx.n)))


def irreducible_decomposition(a: MonomialIdeal) -> tuple[MonomialIdeal, ...]:
    """Irredundant irreducible components whose intersection is ``a``,
    sorted by their generator lists."""
    require_proper(a)
    return _component_ideals(a.context, a.rows)


@memo
def minimal_primes(a: MonomialIdeal) -> tuple[MonomialIdeal, ...]:
    """Inclusion-minimal primes over ``a``; each is generated by variables.

    They are the irreducible components of the radical, whose generators
    are the distinct supports of the generators of ``a``.  Sorted by their
    variable lists.
    """
    require_proper(a)
    rows = sorted({tuple(min(e, 1) for e in r) for r in a.rows})
    return _component_ideals(a.context, rows)


def height(a: MonomialIdeal) -> int:
    """Minimum number of variables generating a minimal prime of ``a``."""
    return min(p.mu for p in minimal_primes(a))


def dim_quotient(a: MonomialIdeal) -> int:
    """Krull dimension of the quotient ring, n - height."""
    return a.context.n - height(a)


def symbolic_power(a: MonomialIdeal, t: int) -> MonomialIdeal:
    """t-th symbolic power of a squarefree ideal.

    For squarefree ideals this is the intersection of the t-th ordinary
    powers of the minimal primes.  General monomial ideals are rejected.
    """
    require_proper(a)
    if t < 1:
        raise ValueError("symbolic power needs t >= 1")
    if a.radical() != a:
        raise ValueError("symbolic powers are only defined here for squarefree ideals")
    if t == 1:
        return a
    primes = minimal_primes(a)
    result = primes[0] ** t
    for p in primes[1:]:
        result = result & (p ** t)
    return result

