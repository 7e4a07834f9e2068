import heapq
import math
import os
import sys

import numpy as np
import pytest

from gcba import complexes, corpus, links, strata
from gcba import geodesics as geo
from gcba.config import DEFAULTS
from gcba.corpus import square_point, theta_point, torus_point

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
from gridtorus import grid_point, grid_torus  # noqa: E402

from generated import fan  # noqa: E402


def torus_oracle(p, q):
    best = math.inf
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            best = min(best, math.hypot(p[0] - q[0] + dx, p[1] - q[1] + dy))
    return best


def theta_oracle_dense(tgraph, x, y, n=2000):
    """Independent Dijkstra on a dense subdivision of the theta graph."""
    # nodes: (edge, k) for k in 0..n; vertices shared
    def nid(e, k):
        if k == 0:
            return (-1, 0)
        if k == n:
            return (-1, 1)
        return (e, k)
    adj = {}
    step = 1.0 / n
    for e in range(3):
        for k in range(n):
            u, v = nid(e, k), nid(e, k + 1)
            adj.setdefault(u, []).append((v, step))
            adj.setdefault(v, []).append((u, step))
    def locate(pt):
        e, t = pt
        k = round(t * n)
        return nid(e, k)
    dist = {locate(x): 0.0}
    pq = [(0.0, locate(x))]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, math.inf):
            continue
        for v, w in adj.get(u, []):
            nd = d + w
            if nd < dist.get(v, math.inf) - 1e-12:
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist[locate(y)]


def test_theta_distances(theta):
    a = theta_point(theta, 0, 0.0)
    b = theta_point(theta, 0, 1.0)
    d, _ = geo.distance(theta, a, b)
    assert d == pytest.approx(1.0, abs=1e-12)
    m1 = theta_point(theta, 0, 0.5)
    m2 = theta_point(theta, 1, 0.5)
    d, _ = geo.distance(theta, m1, m2)
    assert d == pytest.approx(1.0, abs=1e-12)


T_FINE = 0.1234567890123456     # more digits than a 1e-12 rounding keeps


@pytest.mark.parametrize("builder, edge", [(corpus.segment, 0),
                                           (corpus.theta_graph, 1)])
def test_pieces_along_a_1_cell_are_exact(builder, edge):
    # the difference of the two positions, to the last bit
    comp = builder()
    L = float(comp.cells[edge].lengths[0, 1])
    x = complexes.point(comp, edge, [1.0 - T_FINE, T_FINE])
    y = complexes.point(comp, edge, [0.5, 0.5])
    d, path = geo.engine(comp).distance(x, y)
    assert d == abs(0.5 - T_FINE) * L
    assert path.length == d and [s[0] for s in path.segs] == [edge]


@pytest.mark.parametrize("name, builder, a, b, length", [
    # the theta x S^1 spine over vertex a, from page 0 to page 1
    ("theta_s1", corpus.theta_times_circle, (0, 0.0, T_FINE),
     (1, 0.0, 0.5), 0.5 - T_FINE),
    # the flat torus's bottom edge, glued to its top edge
    ("torus", corpus.flat_torus, (0, T_FINE, 0.0), (0, 0.5, 0.0),
     0.5 - T_FINE),
    # the three-page book's spine, from page 0 to page 2
    ("book", corpus.three_page_book, (0, 0.0, T_FINE), (2, 0.0, 0.75),
     0.75 - T_FINE)], ids=lambda v: v if isinstance(v, str) else "")
def test_pieces_along_an_edge_of_a_2_cell(name, builder, a, b, length):
    # a source tree's root chord: one segment in a 2-cell holding both
    comp = builder()
    x, y = square_point(comp, *a), square_point(comp, *b)
    d, path = geo.engine(comp).distance(x, y)
    assert abs(d - length) <= 1e-15
    assert len(path.segs) == 1 and path.start == x and path.end == y
    cid = path.segs[0][0]
    assert comp.cells[cid].dim == 2
    assert cid in dict(x.representations(comp))
    assert cid in dict(y.representations(comp))


def test_theta_vs_dense_dijkstra(theta, rng):
    for _ in range(12):
        e1, e2 = rng.integers(0, 3, size=2)
        t1, t2 = np.round(rng.random(2), 3)
        x = theta_point(theta, int(e1), float(t1))
        y = theta_point(theta, int(e2), float(t2))
        d, _ = geo.distance(theta, x, y)
        oracle = theta_oracle_dense(theta, (e1, t1), (e2, t2))
        assert d == pytest.approx(oracle, abs=2e-3)


def test_torus_closed_form(torus, rng):
    d, _ = geo.distance(torus, torus_point(torus, 0.1, 0.1),
                        torus_point(torus, 0.9, 0.1))
    assert d == pytest.approx(0.2, abs=1e-12)
    for _ in range(15):
        a, b = rng.random(2), rng.random(2)
        d, _ = geo.distance(torus, torus_point(torus, *a),
                            torus_point(torus, *b))
        assert d == pytest.approx(torus_oracle(a, b), abs=1e-9)


def test_theta_s1_product_metric(theta_s1, rng):
    def theta_dist(e1, t1, e2, t2):
        if e1 == e2:
            return min(abs(t1 - t2), t1 + 1 + (1 - t2), t2 + 1 + (1 - t1))
        return min(t1 + t2, 2 - t1 - t2)

    def circ(a, b):
        d = abs(a - b) % 1.0
        return min(d, 1 - d)

    for _ in range(15):
        e1, e2 = rng.integers(0, 3, size=2)
        t1, h1, t2, h2 = rng.random(4)
        x = square_point(theta_s1, int(e1), t1, h1)
        y = square_point(theta_s1, int(e2), t2, h2)
        d, _ = geo.distance(theta_s1, x, y)
        oracle = math.hypot(theta_dist(e1, t1, e2, t2), circ(h1, h2))
        assert d == pytest.approx(oracle, abs=1e-9)


def test_thin_torus_same_cell_wraparound():
    # 1 x 0.1 flat torus: each pair lies in one triangle, yet its geodesic
    # wraps around the short circle, so the chord inside the shared cell is
    # a path but not the distance (the complex is locally CAT(0) only)
    specs = [(2, np.array(corpus._square_lengths(1.0, 0.1)))]
    gluings = [((0, (0, 1)), (0, (2, 3)), (3, 2)),
               ((0, (0, 3)), (0, (1, 2)), (1, 2))]
    comp = complexes.build_complex(specs, gluings, 0.0)
    assert comp.check_curvature_bound()["pass"]

    def pt(x, y):
        u, v = x, y / 0.1
        assert u >= v   # triangle 0 of the split rectangle
        return complexes.point(comp, 0, [1.0 - u, u - v, v])

    cases = [((0.9, 0.005), (0.9, 0.085), 0.02),                 # chord 0.08
             ((0.8, 0.002), (0.82, 0.078), math.hypot(0.02, 0.024))]
    for a, b, expect in cases:
        x, y = pt(*a), pt(*b)
        eng = geo.GeodesicEngine(comp)
        d, _ = eng.distance(x, y, need_path=False)
        assert d == pytest.approx(expect, abs=1e-9)
        d, p = eng.distance(x, y)
        assert d == pytest.approx(expect, abs=1e-9)
        assert p.length == pytest.approx(d, abs=1e-9)
        assert sum(p.seg_lengths()) == pytest.approx(d, abs=1e-9)
        assert p.start == x and p.end == y


def test_engine_kept_with_its_trees(torus):
    # the complex has one engine: later calls return it with its caches
    eng = geo.engine(torus)
    x, y = torus_point(torus, 0.13, 0.27), torus_point(torus, 0.61, 0.74)
    eng.distance(x, y, need_path=False)
    tree = eng._cached_tree(x.key())
    assert tree is not None
    assert geo.engine(torus) is eng
    assert geo.engine(torus)._cached_tree(x.key()) is tree


def test_truncated_tree_raises():
    # the complex's own Settings reach the engine: a cap of 4 developments
    # cannot hold the tree of a far pair, and the engine says so
    x, y = (0.1, 0.1), (0.6, 0.55)
    capped = corpus.flat_torus(settings=DEFAULTS.replace(max_developments=4))
    with pytest.raises(geo.GeodesicError, match="max_developments=4"):
        geo.engine(capped).distance(torus_point(capped, *x),
                                    torus_point(capped, *y))
    comp = corpus.flat_torus()
    d, _ = geo.engine(comp).distance(torus_point(comp, *x),
                                     torus_point(comp, *y))
    assert d == pytest.approx(torus_oracle(x, y), abs=1e-9)


def test_growth_stops_past_the_edge_path_bound(monkeypatch):
    # a lone triangle's tree holds it at any radius; were no path ever
    # assembled, growing would not end, so the engine stops once the radius
    # passes the length of a path through the edges
    tri = 1 - np.eye(3)
    comp = complexes.build_complex([(2, tri)], [])
    monkeypatch.setattr(geo.GeodesicEngine, "_assemble",
                        lambda self, tx, x, y, need_path: None)
    with pytest.raises(geo.GeodesicError, match="past the length 5 "):
        geo.engine(comp).distance(complexes.point(comp, 0, [0.8, 0.1, 0.1]),
                                  complexes.point(comp, 0, [0.1, 0.1, 0.8]))


@pytest.mark.parametrize("name, x, r", [
    ("torus", (0.3, 0.4), 0.15), ("torus", (0.0, 0.5), 0.3),
    ("theta_s1", (0, 0.05, 0.3), 0.2), ("theta_s1", (1, 0.0, 0.7), 0.35),
    ("grid", (0.3, 0.4), 0.15), ("cone", None, 0.3)])
def test_ball_cover_holds_the_ball(name, x, r, torus, theta_s1, rng):
    # every uniform point within r of x lies in a disk of the cover in its
    # own cell; on the 4 pi cone, x at 0.1 from the apex, the points whose
    # shortest path bends at the apex lie only in the apex's disks
    if name == "grid":
        comp = grid_torus(8)
        x = grid_point(comp, 8, *x)
    elif name == "torus":
        comp, x = torus, torus_point(torus, *x)
    elif name == "cone":
        comp, h = fan([math.pi / 2] * 8), 0.1 / math.sqrt(2)
        x = complexes.point(comp, 0, [1 - 2 * h, h, h])
    else:
        comp, x = theta_s1, square_point(theta_s1, *x)
    disks = strata.BallCover(comp, x, r).disks
    eng = geo.engine(comp)
    inside = 0
    for _ in range(300):
        y = geo.uniform_point(comp, rng)
        if eng.distance(x, y, need_path=False)[0] <= r:
            inside += 1
            q = y.bary @ comp.cells[y.cid].coords
            assert any(cid == y.cid and np.linalg.norm(q - c) <= rho + 1e-12
                       for cid, c, rho, _ in disks), y
    assert inside >= 10


def test_ball_samples_are_never_short(theta, rng):
    # ball_samples draws from the exact intervals of the ball, so a ball of
    # length 0.001 in a graph of length 3 gets its points all the same
    x = theta_point(theta, 0, 0.5)
    eng = geo.engine(theta)
    for r in (0.0005, 0.001, 0.002, 0.004):
        pts = geo.ball_samples(theta, x, r, 4, rng)
        assert len(pts) == 4
        assert all(eng.distance(x, y, need_path=False)[0] <= r + 1e-12
                   for y in pts)


def test_ball_samples_reach_the_square_through_its_corner(rng):
    # x on the segment of the segment-wedge-square, 0.1 from the square:
    # the 2-dimensional part of B_0.3(x) is the quarter disk of radius 0.2
    # about the corner, a singular vertex; B_0.05(x) has none
    comp = corpus.segment_wedge_square()
    eng = geo.engine(comp)
    x = complexes.point(comp, 2, [0.9, 0.1])
    for y in geo.ball_samples(comp, x, 0.3, 20, rng):
        assert comp.cells[y.cid].dim == 2
        assert eng.distance(x, y, need_path=False)[0] <= 0.3
    with pytest.raises(geo.GeodesicError, match="no 2-dimensional mass"):
        geo.ball_samples(comp, x, 0.05, 4, rng)


def test_symmetry_and_triangle_inequality(theta_s1, rng):
    pts = [square_point(theta_s1, int(rng.integers(0, 3)),
                        *rng.random(2)) for _ in range(6)]
    eng = geo.engine(theta_s1)
    for x in pts:
        for y in pts:
            dxy, _ = eng.distance(x, y, need_path=False)
            dyx, _ = eng.distance(y, x, need_path=False)
            assert dxy == pytest.approx(dyx, abs=1e-9)
            for z in pts:
                dxz, _ = eng.distance(x, z, need_path=False)
                dzy, _ = eng.distance(z, y, need_path=False)
                assert dxy <= dxz + dzy + 1e-9


def test_path_length_consistency(theta_s1, rng):
    for _ in range(6):
        x = square_point(theta_s1, int(rng.integers(0, 3)), *rng.random(2))
        y = square_point(theta_s1, int(rng.integers(0, 3)), *rng.random(2))
        d, p = geo.distance(theta_s1, x, y)
        assert p.length == pytest.approx(d, abs=1e-9)
        assert sum(p.seg_lengths()) == pytest.approx(d, abs=1e-9)
        assert p.start == x and p.end == y
        mid = p.point_at(d / 2)
        d1, _ = geo.distance(theta_s1, x, mid)
        assert d1 == pytest.approx(d / 2, abs=1e-9)


def test_comparison_angle_closed_forms(theta, torus):
    x = torus_point(torus, 0.3, 0.3)
    y = torus_point(torus, 0.4, 0.3)
    z = torus_point(torus, 0.3, 0.45)
    assert geo.comparison_angle(torus, x, y, z) == pytest.approx(math.pi / 2)
    # 3-4-5 right triangle scaled into the torus
    x, y, z = (torus_point(torus, 0.1, 0.1), torus_point(torus, 0.4, 0.1),
               torus_point(torus, 0.1, 0.5))
    assert geo.comparison_angle(torus, x, y, z) == pytest.approx(math.pi / 2)
    a = theta_point(theta, 0, 0.0)
    # equilateral comparison from equal unit sides
    m1 = theta_point(theta, 0, 1.0)
    m2 = theta_point(theta, 1, 1.0)
    assert m1 == m2  # both are vertex b


def test_angle_examples(theta, torus, theta_s1):
    x = torus_point(torus, 0.5, 0.5)
    y = torus_point(torus, 0.6, 0.5)
    z = torus_point(torus, 0.5, 0.62)
    assert geo.angle(torus, x, y, z) == pytest.approx(math.pi / 2, abs=1e-9)
    a = theta_point(theta, 0, 0.0)
    y1 = theta_point(theta, 0, 0.4)
    y2 = theta_point(theta, 1, 0.4)
    assert geo.angle(theta, a, y1, y2) == pytest.approx(math.pi, abs=1e-9)
    sp = square_point(theta_s1, 0, 0.0, 0.5)
    p1 = square_point(theta_s1, 0, 0.3, 0.5)
    p2 = square_point(theta_s1, 1, 0.3, 0.5)
    assert geo.angle(theta_s1, sp, p1, p2) == pytest.approx(math.pi, abs=1e-9)


def ball_sampler(comp, center, radius):
    pool = []

    def sample(g):
        if not pool:
            pool.extend(geo.ball_samples(comp, center, radius, 24, g))
        return pool[int(g.integers(0, len(pool)))]
    return sample


def test_angle_below_comparison(theta_s1, rng):
    # comparison holds on triangles inside a CAT(0)-scale ball
    sampler = ball_sampler(theta_s1, square_point(theta_s1, 0, 0.2, 0.5), 0.2)
    res = geo.cat_sample_test(theta_s1, sampler, 40, rng)
    assert res["worst_angle_excess"] <= 1e-6
    assert res["worst_midpoint_excess"] <= 1e-6


def test_cat_flat_torus(torus, rng):
    sampler = ball_sampler(torus, torus_point(torus, 0.5, 0.5), 0.2)
    res = geo.cat_sample_test(torus, sampler, 40, rng)
    assert res["worst_angle_excess"] <= 1e-6
    assert res["worst_midpoint_excess"] <= 1e-6


def test_cat_fails_near_pillow_corner(pillow, rng):
    corner = corpus.square_point(pillow, 0, 0.0, 0.0)

    def sampler(g):
        return corpus.square_point(pillow, int(g.integers(0, 2)),
                                   *(0.25 * g.random(2)))
    res = geo.cat_sample_test(pillow, sampler, 60, rng)
    excess = max(res["worst_angle_excess"], res["worst_midpoint_excess"])
    assert excess > 1e-3


def test_log_map(torus, theta):
    x = torus_point(torus, 0.2, 0.2)
    t, v = geo.log_map(torus, x, x)
    assert t == 0.0 and v is None
    y = torus_point(torus, 0.3, 0.2)
    t, v = geo.log_map(torus, x, y)
    assert t == pytest.approx(0.1)
    # v is a point of the link at x; its walker state holds the vector
    state = links.link_at(torus, x).realize(v, x)
    assert state[0] == "ray"
    assert np.allclose(np.abs(state[3]), [1.0, 0.0], atol=1e-9)
    # theta: direction toward the nearest vertex on the minimizing route
    x = theta_point(theta, 0, 0.1)
    y = theta_point(theta, 1, 0.3)
    t, v = geo.log_map(theta, x, y)
    assert t == pytest.approx(0.4)
    state = links.link_at(theta, x).realize(v, x)
    # toward vertex a (t decreasing)
    assert state[0] == "edge" and state[1] == 0 and state[3] < 0


def test_contraction(torus, rng):
    x = torus_point(torus, 0.5, 0.5)
    y = torus_point(torus, 0.7, 0.6)
    assert geo.contraction(torus, x, 0.3, 0.3, y) == y
    # Euclidean homothety on the flat torus
    c = geo.contraction(torus, x, 0.4, 0.2, y)
    d, _ = geo.distance(torus, x, c)
    dxy, _ = geo.distance(torus, x, y)
    assert d == pytest.approx(dxy / 2, abs=1e-9)


def test_contraction_lipschitz(theta_s1, rng):
    # d(c(y1), c(y2)) <= 2 (r/R) d(y1, y2) on sampled pairs
    x = square_point(theta_s1, 0, 0.5, 0.5)
    R, r = 0.45, 0.2
    eng = geo.engine(theta_s1)
    for _ in range(25):
        y1 = square_point(theta_s1, int(rng.integers(0, 3)), *rng.random(2))
        y2 = square_point(theta_s1, int(rng.integers(0, 3)), *rng.random(2))
        d1, _ = eng.distance(x, y1, need_path=False)
        d2, _ = eng.distance(x, y2, need_path=False)
        if d1 > R or d2 > R or d1 == 0 or d2 == 0:
            continue
        c1 = geo.contraction(theta_s1, x, R, r, y1)
        c2 = geo.contraction(theta_s1, x, R, r, y2)
        dc, _ = eng.distance(c1, c2, need_path=False)
        dy, _ = eng.distance(y1, y2, need_path=False)
        assert dc <= 2 * (r / R) * dy + 1e-9


def test_log_is_2_lipschitz(theta_s1, rng):
    x = square_point(theta_s1, 0, 0.0, 0.5)   # spine point
    L = links.link_at(theta_s1, x)
    eng = geo.engine(theta_s1)
    pts = geo.ball_samples(theta_s1, x, 0.3, 30, rng)
    for _ in range(20):
        y1 = pts[int(rng.integers(0, len(pts)))]
        y2 = pts[int(rng.integers(0, len(pts)))]
        if y1 == x or y2 == x or y1 == y2:
            continue
        t1, v1 = geo.log_map(theta_s1, x, y1)
        t2, v2 = geo.log_map(theta_s1, x, y2)
        a = L.dist(v1, v2)
        dcone = math.sqrt(max(0.0, t1 * t1 + t2 * t2
                              - 2 * t1 * t2 * math.cos(a)))
        dy, _ = eng.distance(y1, y2, need_path=False)
        assert dcone <= 2 * dy + 1e-9


def test_extend_geodesic_branching(theta, torus):
    d, p = geo.distance(theta, theta_point(theta, 0, 0.6),
                        theta_point(theta, 0, 0.0))
    ext, count, _ = geo.extend_geodesic(theta, p, 0.5)
    assert count == 2
    assert ext.length == pytest.approx(1.1)
    assert ext.end == theta_point(theta, 1, 0.5)  # smallest carrier wins
    d, p = geo.distance(torus, torus_point(torus, 0.2, 0.3),
                        torus_point(torus, 0.5, 0.3))
    ext, count, _ = geo.extend_geodesic(torus, p, 0.4)
    assert count == 1
    assert ext.end == torus_point(torus, 0.9, 0.3)


def test_extend_fails_on_segment():
    s = corpus.segment()
    d, p = geo.distance(s, complexes.point(s, 0, [0.7, 0.3]),
                        complexes.point(s, 0, [0.0, 1.0]))
    with pytest.raises(geo.NoContinuation):
        geo.extend_geodesic(s, p, 0.2)


def test_log_almost_isometry(theta, torus, theta_s1):
    # flat torus: exact equality up to the injectivity scale
    x = torus_point(torus, 0.5, 0.5)
    r = geo.log_almost_isometry_check(torus, x, eps=0.01,
                                      radii=[0.4, 0.2, 0.1])
    assert r == pytest.approx(0.2)  # injectivity scale of the unit torus
    # theta vertex: cone over 3 points; exact until the route through the
    # far vertex undercuts (r = 1/2)
    a = theta_point(theta, 0, 0.0)
    r = geo.log_almost_isometry_check(theta, a, eps=0.01, radii=[0.45, 0.2])
    assert r >= 0.45
    # spine point: passes at some positive radius, monotone in eps
    sp = square_point(theta_s1, 0, 0.0, 0.5)
    r1 = geo.log_almost_isometry_check(theta_s1, sp, eps=0.05,
                                       radii=[0.4, 0.2, 0.1])
    assert r1 > 0


def _recording(monkeypatch):
    """Record the (x, y) of every scalar `distance` call."""
    calls = []
    scalar = geo.GeodesicEngine.distance

    def distance(self, x, y, need_path=True):
        calls.append((x, y))
        return scalar(self, x, y, need_path)

    monkeypatch.setattr(geo.GeodesicEngine, "distance", distance)
    return calls


def _dist_matrix_cases():
    """(complex, points): interior, edge and vertex points, repeats."""
    rng = np.random.default_rng(4)
    torus = corpus.flat_torus()
    ts = corpus.theta_times_circle()
    theta = corpus.theta_graph()
    cone = fan([math.pi / 2] * 8)
    h = 0.1 / math.sqrt(2)
    return {
        "flat_torus": (torus, [torus_point(torus, *rng.random(2))
                               for _ in range(8)]
                       + [torus_point(torus, 0.3, 0.3),      # diagonal
                          torus_point(torus, 0.0, 0.6),      # edge
                          torus_point(torus, 0.0, 0.0)]      # vertex
                       + [torus_point(torus, 0.7 + u, 0.2 + v)   # cluster
                          for u, v in 0.02 * rng.random((4, 2))]),
        "theta_s1": (ts, [square_point(ts, int(rng.integers(3)),
                                       *rng.random(2)) for _ in range(6)]
                     + [square_point(ts, 0, 0.0, 0.4),       # spine
                        square_point(ts, 2, 0.0, 0.4),       # the same point
                        square_point(ts, 1, 0.0, 0.0),       # vertex
                        square_point(ts, 0, 0.6, 0.3),
                        square_point(ts, 0, 0.6, 0.3),       # repeated
                        square_point(ts, 0, 0.62, 0.29)]
                     + [square_point(ts, 1, 0.3 + u, 0.6 + v)   # cluster
                        for u, v in 0.02 * rng.random((4, 2))]),
        "theta_graph": (theta, [theta_point(theta, e, t) for e, t in
                                [(0, 0.1), (1, 0.7), (2, 0.3), (0, 0.0),
                                 (1, 0.5), (0, 0.1)]]),
        "cone_4pi": (cone, [complexes.point(cone, 0, [1 - 2 * h, h, h]),
                            complexes.point(cone, 0, [1 - 3 * h, h, 2 * h])]
                     + [complexes.point(cone, int(c), rng.dirichlet([1] * 3))
                        for c in rng.integers(8, size=7)]),
    }


def _scalar_rows(comp, xs, ys, pairwise=False):
    """The loop `dist_matrix` replaces, on an engine of its own: row by
    row, farthest targets first, as `FlowTrack.diameter` queried.  Scalar
    queries grow and reuse cached trees, which can move a distance in its
    last bit, so the reference makes the same queries in the same order."""
    eng = geo.GeodesicEngine(comp)
    M = np.zeros((len(xs), len(ys)))
    for i, x in enumerate(xs):
        for j in range(len(ys) - 1, i if pairwise else -1, -1):
            M[i, j] = eng.distance(x, ys[j], need_path=False)[0]
    return M + M.T if pairwise else M


@pytest.mark.parametrize("name", ["flat_torus", "theta_s1", "theta_graph",
                                  "cone_4pi"])
def test_dist_matrix_equals_scalar_distance(name, monkeypatch):
    # every entry is the float the scalar query gives, in the same
    # orientation: equal, not approximately equal
    comp, pts = _dist_matrix_cases()[name]
    xs, ys = pts[::2], pts[1::2] + pts[:3]
    calls = _recording(monkeypatch)
    M = geo.GeodesicEngine(comp).dist_matrix(xs, ys)
    assert M.shape == (len(xs), len(ys))
    if comp.dim == 1:
        # no 2-cell: every pair takes the scalar path
        assert sorted(map(str, calls)) == sorted(
            str((x, y)) for x in xs for y in ys)
    assert (M == _scalar_rows(comp, xs, ys)).all()
    eng = geo.engine(comp)
    assert eng.dist_matrix(xs, []).shape == (len(xs), 0)
    assert eng.dist_matrix([], ys).shape == (0, len(ys))
    assert eng.dist_matrix([]).shape == (0, 0)


@pytest.mark.parametrize("name", ["flat_torus", "theta_s1", "theta_graph",
                                  "cone_4pi"])
def test_dist_matrix_pairwise(name, monkeypatch):
    # symmetric, zero on the diagonal, and each pair i < j queried at most
    # once as d(xs[i], xs[j]): on a 1-complex exactly the old loop's calls
    comp, pts = _dist_matrix_cases()[name]
    calls = _recording(monkeypatch)
    M = geo.GeodesicEngine(comp).dist_matrix(pts)
    assert (M == M.T).all() and (np.diag(M) == 0.0).all()
    index = {id(p): i for i, p in enumerate(pts)}
    asked = [(index[id(x)], index[id(y)]) for x, y in calls]
    assert all(i < j for i, j in asked) and len(set(asked)) == len(asked)
    if comp.dim == 1:
        assert sorted(asked) == [(i, j) for i in range(len(pts))
                                 for j in range(i + 1, len(pts))]
    assert (M == _scalar_rows(comp, pts, pts, pairwise=True)).all()
    if name == "theta_s1":
        # the spine point given twice, and a repeated page point
        assert M[6, 7] == 0.0 and M[9, 10] == 0.0
