"""Reference complexes used by the tests, demos and the shipped corpus files.

Hand-checked gluing tables:

* theta graph: vertices a, b joined by three unit edges.
* flat torus: one side-s square, opposite sides identified.
* theta x circle: three unit squares (page x S^1); each square's top edge is
  glued to its own bottom edge (the circle direction), and the left/right
  edges of all pages are identified into the two spine circles.
* pillowcase: two unit squares glued along their full boundary (four corner
  cone points of angle pi; fails the curvature check).
* three-page book: three unit squares sharing one binding edge, the other
  edges free (fails geodesic completeness).
* segment: a single unit edge (fails geodesic completeness at both ends).
* segment wedge square: mixed-dimension complex, a unit segment attached to
  a unit square corner.
"""

from __future__ import annotations

import math

import numpy as np

from .complexes import MetricComplex, build_complex
from .config import DEFAULTS, Settings

_EDGE = [[0.0, 1.0], [1.0, 0.0]]


def _square_lengths(s: float = 1.0, t: float | None = None):
    t = s if t is None else t
    d = math.hypot(s, t)
    return [
        [0.0, s, d, t],
        [s, 0.0, t, d],
        [d, t, 0.0, s],
        [t, d, s, 0.0],
    ]


def theta_graph(settings: Settings = DEFAULTS) -> MetricComplex:
    specs = [(1, np.array(_EDGE)) for _ in range(3)]
    gluings = [
        ((0, (0,)), (1, (0,)), (0,)),
        ((1, (0,)), (2, (0,)), (0,)),
        ((0, (1,)), (1, (1,)), (1,)),
        ((1, (1,)), (2, (1,)), (1,)),
    ]
    return build_complex(specs, gluings, 0.0, settings)


def segment(settings: Settings = DEFAULTS) -> MetricComplex:
    return build_complex([(1, np.array(_EDGE))], [], 0.0, settings)


def flat_torus(side: float = 1.0, settings: Settings = DEFAULTS) -> MetricComplex:
    specs = [(2, np.array(_square_lengths(side)))]
    gluings = [
        # bottom (v0,v1) to top (v2,v3): v0<->v3, v1<->v2
        ((0, (0, 1)), (0, (2, 3)), (3, 2)),
        # left (v0,v3) to right (v1,v2): v0<->v1, v3<->v2
        ((0, (0, 3)), (0, (1, 2)), (1, 2)),
    ]
    return build_complex(specs, gluings, 0.0, settings)


def theta_times_circle(settings: Settings = DEFAULTS) -> MetricComplex:
    """Three unit-square pages around two spine circles (theta graph x S^1)."""
    specs = [(2, np.array(_square_lengths(1.0))) for _ in range(3)]
    gluings = []
    for i in range(3):
        # page's own top to bottom: the S^1 direction
        gluings.append(((i, (0, 1)), (i, (2, 3)), (3, 2)))
    for i, j in ((0, 1), (1, 2)):
        # spine over vertex a: left edges (v0,v3), S^1 coordinate preserved
        gluings.append(((i, (0, 3)), (j, (0, 3)), (0, 3)))
        # spine over vertex b: right edges (v1,v2)
        gluings.append(((i, (1, 2)), (j, (1, 2)), (1, 2)))
    return build_complex(specs, gluings, 0.0, settings)


def pillowcase(settings: Settings = DEFAULTS) -> MetricComplex:
    specs = [(2, np.array(_square_lengths(1.0))) for _ in range(2)]
    gluings = []
    for face in ((0, 1), (1, 2), (2, 3), (0, 3)):
        gluings.append(((0, face), (1, face), face))
    return build_complex(specs, gluings, 0.0, settings)


def three_page_book(settings: Settings = DEFAULTS) -> MetricComplex:
    specs = [(2, np.array(_square_lengths(1.0))) for _ in range(3)]
    gluings = []
    for i, j in ((0, 1), (1, 2)):
        gluings.append(((i, (0, 3)), (j, (0, 3)), (0, 3)))
    return build_complex(specs, gluings, 0.0, settings)


def segment_wedge_square(settings: Settings = DEFAULTS) -> MetricComplex:
    specs = [(2, np.array(_square_lengths(1.0))), (1, np.array(_EDGE))]
    # attach the segment's vertex 0 to the square's corner v0
    gluings = [((1, (0,)), (0, (0,)), (0,))]
    return build_complex(specs, gluings, 0.0, settings)


def bad_triangle_dict() -> dict:
    """JSON payload of a 1,1,3 triangle (violates the triangle inequality)."""
    return {
        "kappa": 0.0,
        "simplices": [{"dim": 2,
                       "lengths": [[0.0, 1.0, 1.0],
                                   [1.0, 0.0, 3.0],
                                   [1.0, 3.0, 0.0]]}],
        "gluings": [],
    }


def square_point(comp: MetricComplex, square: int, x: float, y: float,
                 side: float = 1.0):
    """Point at square coordinates (x, y) of the `square`-th input square
    (builders split square i into triangles 2i and 2i+1 along the main
    diagonal; x runs v0->v1, y runs v0->v3)."""
    from .complexes import ComplexPoint
    u, v = x / side, y / side
    if u >= v:
        return ComplexPoint(comp, 2 * square, [1.0 - u, u - v, v])
    return ComplexPoint(comp, 2 * square + 1, [1.0 - v, u, v - u])


def torus_point(comp: MetricComplex, x: float, y: float, side: float = 1.0):
    return square_point(comp, 0, x, y, side)


def theta_point(comp: MetricComplex, edge: int, t: float):
    """Point at parameter t along edge `edge` of the theta graph."""
    from .complexes import ComplexPoint
    return ComplexPoint(comp, edge, [1.0 - t, t])


BUILDERS = {
    "theta_graph": theta_graph,
    "segment": segment,
    "flat_torus": flat_torus,
    "theta_times_circle": theta_times_circle,
    "pillowcase": pillowcase,
    "three_page_book": three_page_book,
    "segment_wedge_square": segment_wedge_square,
}
