"""Generated complexes with closed-form geometry, shared by the tests.

* `fan`: unit-leg triangles around one apex, glued into a closed cone whose
  angle is the sum of the apex angles.
* `graph_product`: the product G x C_m of a metric graph with a cycle.  Each
  rectangle e x f is a square spec split along its v0-v2 diagonal, as
  `build_complex` splits squares, and the rectangles are chained around each
  factor vertex as `corpus.theta_times_circle` chains its pages.  The link
  of a product vertex (u, c) is the spherical join Lk(u) * Lk(c), a complete
  bipartite graph with arcs of pi/2 and girth 2*pi, so every product passes
  the link condition (BH II.5); the metric is d^2 = d_G^2 + d_C^2.
* `random_graph`: a connected metric graph for `graph_product`.
"""

import math

import numpy as np

from gcba.complexes import build_complex
from gcba.corpus import square_point


def fan(angles, pinch: bool = False):
    """Triangles with unit sides around apex slot 0 and the given apex
    angles, consecutive outer sides glued into a closed cone; with `pinch`,
    two such cones with their apexes glued."""
    specs, gluings = [], []
    for copy in range(2 if pinch else 1):
        base = copy * len(angles)
        for i, ang in enumerate(angles):
            far = math.sqrt(2 - 2 * math.cos(ang))
            specs.append((2, np.array([[0.0, 1.0, 1.0], [1.0, 0.0, far],
                                       [1.0, far, 0.0]])))
            j = (i + 1) % len(angles)
            gluings.append(((base + i, (0, 2)), (base + j, (0, 1)), (0, 1)))
    if pinch:
        gluings.append(((0, (0,)), (len(angles), (0,)), (0,)))
    return build_complex(specs, gluings)


def graph_product(graph, cycle):
    """G x C_m for `graph` a list of edges (u, w, length) between distinct
    vertices and `cycle` the list of the m >= 2 edge lengths of C_m.

    Rectangle (e, j), input square e + len(graph) * j, runs along edge e
    from u (v0-v3 side) to w (v1-v2 side) in x and along cycle edge j in y;
    its top is glued to the bottom of rectangle (e, j + 1)."""
    E, m = len(graph), len(cycle)
    specs = [(2, np.array(_rectangle(a, b)))
             for b in cycle for _, _, a in graph]
    gluings = []
    for j in range(m):
        for e in range(E):
            gluings.append(((e + E * ((j + 1) % m), (0, 1)),
                            (e + E * j, (2, 3)), (3, 2)))
    # the sides {v} x f_j, listed (c_j end, c_j+1 end), chained around v
    sides: dict = {}
    for e, (u, w, _) in enumerate(graph):
        sides.setdefault(u, []).append((e, (0, 3)))
        sides.setdefault(w, []).append((e, (1, 2)))
    for chain in sides.values():
        for (e, f), (e2, f2) in zip(chain, chain[1:]):
            for j in range(m):
                gluings.append(((e + E * j, f), (e2 + E * j, f2), f2))
    return build_complex(specs, gluings)


def random_graph(n: int, m: int, rng):
    """m edges on n vertices: the path 0-1-...-(n-1) plus random extra
    edges between distinct vertices, none repeated, with lengths drawn
    uniformly from [0.3, 1]."""
    edges = [(i, i + 1) for i in range(n - 1)]
    while len(edges) < m:
        u, w = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        if (u, w) not in edges:
            edges.append((u, w))
    return [(u, w, float(rng.uniform(0.3, 1.0))) for u, w in edges]


def _rectangle(a: float, b: float):
    """Edge-length matrix of an a x b rectangle, slots v0-v1-v2-v3 in order
    with v0-v1 of length a."""
    d = math.hypot(a, b)
    return [[0.0, a, d, b], [a, 0.0, b, d], [d, b, 0.0, a], [b, d, a, 0.0]]


def product_point(comp, graph, cycle, e: int, s: float, c: float):
    """The point at position s along graph edge e (from its u end) and at
    arclength c around the cycle."""
    c %= sum(cycle)
    j = 0
    while j < len(cycle) - 1 and c >= cycle[j]:
        c -= cycle[j]
        j += 1
    return square_point(comp, e + len(graph) * j, s / graph[e][2],
                        min(c / cycle[j], 1.0))


def random_product_coords(graph, cycle, rng):
    """(e, s, c) of a random point for `product_point`."""
    e = int(rng.integers(len(graph)))
    return (e, float(rng.random()) * graph[e][2],
            float(rng.random()) * sum(cycle))


def product_distance(graph, cycle, p, q) -> float:
    """Closed form d^2 = d_G^2 + d_C^2 between coordinates (e, s, c)."""
    n = 1 + max(max(u, w) for u, w, _ in graph)
    D = np.full((n, n), math.inf)
    np.fill_diagonal(D, 0.0)
    for u, w, a in graph:
        D[u, w] = D[w, u] = min(D[u, w], a)
    for k in range(n):
        D = np.minimum(D, D[:, k:k + 1] + D[k:k + 1, :])
    (e1, s1, c1), (e2, s2, c2) = p, q
    (u1, w1, a1), (u2, w2, a2) = graph[e1], graph[e2]
    dg = min(t1 + D[v1, v2] + t2
             for v1, t1 in ((u1, s1), (w1, a1 - s1))
             for v2, t2 in ((u2, s2), (w2, a2 - s2)))
    if e1 == e2:
        dg = min(dg, abs(s1 - s2))
    dc = abs(c1 - c2) % sum(cycle)
    return math.hypot(dg, min(dc, sum(cycle) - dc))
