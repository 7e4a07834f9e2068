"""Generated n x n grid flat tori and their closed-form metric.

The unit flat torus is cut into n x n squares of side 1/n; each square is
split along its v0-v2 diagonal by `build_complex`.  At n = 1 the
gluing table is exactly the one of `corpus.flat_torus`, so the two complexes
agree point for point.  Every vertex sees four right-angled squares, so the
vertex links are circles of length exactly 2*pi and the curvature check
passes for every n.
"""

from __future__ import annotations

import math

import numpy as np

from gcba import complexes
from gcba.config import DEFAULTS, Settings
from gcba.corpus import square_point


def _square_lengths(a: float):
    """Edge-length matrix of a side-a square, slots v0-v1-v2-v3 in order."""
    d = math.hypot(a, a)
    return [[0.0, a, d, a], [a, 0.0, a, d], [d, a, 0.0, a], [a, d, a, 0.0]]


def grid_torus(n: int,
               settings: Settings = DEFAULTS) -> complexes.MetricComplex:
    """The unit flat torus as an n x n grid of squares.

    Square (i, j) has input index i + n*j; its x axis runs v0->v1 and its
    y axis v0->v3, as in `corpus.square_point`."""
    if n < 1:
        raise ValueError("grid size must be at least 1")
    a = 1.0 / n

    def idx(i, j):
        return (i % n) + n * (j % n)

    specs = [(2, np.array(_square_lengths(a))) for _ in range(n * n)]
    gluings = []
    for j in range(n):
        for i in range(n):
            # bottom (v0,v1) of the square above to the top (v2,v3) of this one
            gluings.append(((idx(i, j + 1), (0, 1)), (idx(i, j), (2, 3)),
                            (3, 2)))
            # left (v0,v3) of the square to the right to the right (v1,v2)
            gluings.append(((idx(i + 1, j), (0, 3)), (idx(i, j), (1, 2)),
                            (1, 2)))
    # module attribute lookup, so a span wrapped around
    # complexes.build_complex sees this call
    return complexes.build_complex(specs, gluings, 0.0, settings)


def grid_point(comp, n: int, u: float, v: float):
    """The point at torus coordinates (u, v), taken modulo 1."""
    a = 1.0 / n
    u, v = u % 1.0, v % 1.0
    i, j = min(int(u / a), n - 1), min(int(v / a), n - 1)
    return square_point(comp, i + n * j, u - i * a, v - j * a, side=a)


def torus_distance(p, q) -> float:
    """Closed-form unit flat-torus distance between coordinate pairs."""
    dx = abs(p[0] - q[0]) % 1.0
    dy = abs(p[1] - q[1]) % 1.0
    return math.hypot(min(dx, 1.0 - dx), min(dy, 1.0 - dy))
