"""Graphical zonotopes against graph theory: forest counts and T_G(x, 1)."""

from itertools import combinations

import pytest

from graph_reference import forest_counts, graph_generators, tutte_at_y1
from zonoehrhart.matroid import VectorConfiguration
from zonoehrhart.oracle import ehrhart_via_oracle
from zonoehrhart.polycore import (Poly, hstar_from_ehrhart, is_alternatingly_increasing,
                                  is_real_rooted)
from zonoehrhart.zonotope import ZonotopeSpec, ehrhart, hstar, hstar_totally_unimodular


def _complete(m):
    return list(combinations(range(m), 2))


# (vertices, edges, E(n) lowest coefficient first or None, coloop-free)
GRAPHS = {
    "K4": (4, _complete(4), (1, 6, 15, 16), True),
    "K5": (5, _complete(5), (1, 10, 45, 110, 125), True),
    "K6": (6, _complete(6), (1, 15, 105, 435, 1080, 1296), True),
    "C6": (6, [(i, (i + 1) % 6) for i in range(6)], None, True),
    "K4-doubled-edge": (4, _complete(4) + [(0, 1)], None, True),
    # Two triangles joined by the edge (2, 3): a bridge, so a coloop.
    "bridged-triangles": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
                          None, False),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_graphical_zonotope_matches_graph_theory(name):
    m, edges, expected, coloop_free = GRAPHS[name]
    d = m - 1
    config = VectorConfiguration(graph_generators(m, edges), d)
    forests = forest_counts(m, edges)
    e = Poly(forests)
    if expected is not None:
        assert e.coeffs == expected
    assert config.is_coloop_free() == coloop_free
    # Internal activity: sum_B x^(d - |IP(B)|) = T_G(x, 1).  IP(B) depends on
    # the ground-set order; the sum does not.
    activity = [0] * (d + 1)
    for b in config.bases():
        activity[d - len(config.internally_passive(b))] += 1
    assert activity == tutte_at_y1(forests, d)
    for mode, scale in (("standard", 1), ("typeB", 2)):
        z = ZonotopeSpec(config, mode)
        counting = e.scale_argument(scale)  # E(2n) in typeB mode
        assert ehrhart(z) == counting, mode
        h = hstar(z)
        assert h == hstar_from_ehrhart(counting, d) == hstar_totally_unimodular(z), mode
        assert is_real_rooted(h.poly()), (mode, h)
        if coloop_free:
            assert is_alternatingly_increasing(h), (mode, h)
        if d <= 4:
            assert ehrhart_via_oracle(z) == counting, mode
