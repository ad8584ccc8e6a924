"""Toric towers over `blowup_base`: every chart of a regular fan that subdivides
the (x2, x3) quadrant, each pulled back from the one base chart.

A regular two-dimensional fan is a sequence of rays from (1, 0) to (0, 1)
where each neighbouring pair has determinant 1; inserting the sum of two
neighbours keeps it regular (a Farey subdivision).  Each cone (u, v) gives
the substitution whose columns are e1, (0, u) and (0, v), in some order;
the charts' unit polydiscs then cover the base polydisc with overlaps of
measure zero, so the chart values sum to the base value.
"""

from residuelab import Scenario, pullback


def farey_cones(insertions):
    """The cones of the fan made by inserting, for each index k in turn, the sum
    of rays k and k + 1 (k taken modulo the number of cones so far)."""
    rays = [(1, 0), (0, 1)]
    for k in insertions:
        k %= len(rays) - 1
        u, v = rays[k], rays[k + 1]
        rays.insert(k + 1, (u[0] + v[0], u[1] + v[1]))
    return list(zip(rays, rays[1:]))


def cone_substitution(cone, order):
    """S with columns e1, (0, u), (0, v) permuted by `order`; det S = +-1."""
    u, v = cone
    cols = [(1, 0, 0), (0, *u), (0, *v)]
    cols = [cols[j] for j in order]
    return [[c[i] for c in cols] for i in range(3)]


def tower(base: Scenario, substitutions) -> Scenario:
    """One chart per substitution, named c0, c1, ..., each pulled back from `base`."""
    pulled = [pullback(base, f"c{k}", s) for k, s in enumerate(substitutions)]
    return Scenario(
        base.signature,
        [chart for chart, _ in pulled],
        {chart.name: tf for chart, tf in pulled},
    )
