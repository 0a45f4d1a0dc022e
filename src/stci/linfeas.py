"""Facets of a Newton polyhedron by exact integer double description.

The valid inequalities w.x >= c of P = conv(p_1..p_mu) + R^n_{>=0} form the
pointed cone {(w, c) : w >= 0, w.p_k >= c}; its extreme rays with w != 0 are
the facets of P, and the one other, (0, -1), is tight on no point.  Double
description (Motzkin et al. 1953; Fukuda-Prodon 1996) cuts the simplicial
cone of w >= 0 and w.p_1 >= c by one point at a time, joining each positive
ray to each negative ray adjacent to it: no third ray is tight on every
constraint both are tight on.  That test ANDs, over those constraints, the
bitmask of the rays tight on each.
"""

from __future__ import annotations

from math import gcd

from .core import ResourceLimitError


def newton_facets(
    points: list[tuple[int, ...]], bound: int
) -> list[tuple[tuple[int, ...], int, int]]:
    """The facets w.x >= c of the Newton polyhedron of ``points`` as
    ``(w, c, mask)``, w primitive, with bit k of ``mask`` set when points[k]
    lies on the facet.  Past ``bound`` rays it raises ResourceLimitError."""
    n = len(points[0])
    # a ray is (w_1..w_n, c); its zero set has bit j when w_j = 0 and bit
    # n + k when w.p_k = c, over the constraints cut in so far
    rays = [tuple(int(i == j) for i in range(n)) + (points[0][j],) for j in range(n)]
    rays.append((0,) * n + (-1,))
    zs = [((1 << n) - 1 ^ 1 << j) | 1 << n for j in range(n)] + [(1 << n) - 1]
    for k in range(1, len(points)):
        vals = [sum(w * x for w, x in zip(r, points[k])) - r[n] for r in rays]
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_zs = [z | (v == 0) << (n + k) for z, v in zip(zs, vals) if v >= 0]
        # bit q of tight[c] is set when ray q is tight on constraint c
        tight = [0] * (n + k)
        for q, z in enumerate(zs):
            for c in _bits(z):
                tight[c] |= 1 << q
        neg = sum(1 << m for m, v in enumerate(vals) if v < 0)
        for i in (i for i, v in enumerate(vals) if v > 0):
            # adjacent rays share n - 1 or more constraints, so m misses at
            # most d of those of ray i; near[e] holds the negative rays that
            # miss at most e of the constraints met so far
            d = zs[i].bit_count() - (n - 1)
            near = [neg] * (d + 1)
            for c in _bits(zs[i]):
                for e in range(d, 0, -1):
                    near[e] = near[e] & tight[c] | near[e - 1]
                near[0] &= tight[c]
            for m in _bits(near[d]):
                common = zs[i] & zs[m]
                pair = 1 << i | 1 << m
                on = (1 << len(zs)) - 1  # the rays tight wherever both are
                for c in _bits(common):
                    on &= tight[c]
                if on != pair:
                    continue
                ray = [vals[i] * y - vals[m] * x for x, y in zip(rays[i], rays[m])]
                g = gcd(*ray)
                new_rays.append(tuple(x // g for x in ray))
                new_zs.append(common | 1 << (n + k))
                if len(new_rays) > bound:
                    raise ResourceLimitError(
                        f"the Newton polyhedron needs more than {bound} "
                        "double-description rays"
                    )
        rays, zs = new_rays, new_zs
    return [(r[:n], r[n], z >> n) for r, z in zip(rays, zs) if any(r[:n])]


def _bits(x: int):
    """The indices of the set bits of x, in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low
