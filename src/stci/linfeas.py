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
from operator import mul

from .core import ResourceLimitError, _bits


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
    # the set bits of each zero set, listed once for the ray's lifetime
    cons = [list(_bits(z)) for z in zs]
    for k in range(1, len(points)):
        vals = [sum(map(mul, r, points[k])) - r[n] for r in rays]
        tight_k = 1 << (n + k)
        keep = [q for q, v in enumerate(vals) if v >= 0]
        new_rays = [rays[q] for q in keep]
        new_zs = [zs[q] | (vals[q] == 0) * tight_k for q in keep]
        new_cons = [cons[q] + [n + k] if vals[q] == 0 else cons[q] for q in keep]
        # bit q of tight[c] is set when ray q is tight on constraint c
        tight = [0] * (n + k)
        for q, cs in enumerate(cons):
            for c in cs:
                tight[c] |= 1 << q
        neg = sum(1 << m for m, v in enumerate(vals) if v < 0)
        full = (1 << len(zs)) - 1
        for i in (i for i, v in enumerate(vals) if v > 0):
            # adjacent rays share n - 1 or more constraints, so m misses at
            # most d of those of ray i; near[e] holds the negative rays that
            # miss at most e of the constraints met so far
            d = len(cons[i]) - (n - 1)
            near = [neg] * (d + 1)
            for c in cons[i]:
                for e in range(d, 0, -1):
                    near[e] = near[e] & tight[c] | near[e - 1]
                near[0] &= tight[c]
            for m in _bits(near[d]):
                zm = zs[m]
                common = [c for c in cons[i] if zm >> c & 1]
                on = full  # the rays tight wherever both are
                for c in common:
                    on &= tight[c]
                if on != 1 << i | 1 << m:
                    continue
                ray = [vals[i] * y - vals[m] * x for x, y in zip(rays[i], rays[m])]
                g = gcd(*ray)
                new_rays.append(tuple(x // g for x in ray))
                new_zs.append(zs[i] & zm | tight_k)
                new_cons.append(common + [n + k])
                if len(new_rays) > bound:
                    raise ResourceLimitError(
                        f"the Newton polyhedron needs more than {bound} "
                        "double-description rays"
                    )
        rays, zs, cons = new_rays, new_zs, new_cons
    return [(r[:n], r[n], z >> n) for r, z in zip(rays, zs) if any(r[:n])]
