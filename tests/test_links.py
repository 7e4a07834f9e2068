import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from gcba import complexes, corpus, links, strainers
from gcba import geodesics as geo
from gcba.corpus import square_point, theta_point, torus_point

PI = math.pi


def cone_complex(angles):
    """Fan of triangles around one central vertex with given apex angles;
    outer edges of consecutive pages glued, closing the cone."""
    specs = []
    for ang in angles:
        # apex at slot 0, unit sides, far edge by law of cosines
        far = math.sqrt(2 - 2 * math.cos(ang))
        L = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, far], [1.0, far, 0.0]])
        specs.append((2, L))
    n = len(angles)
    gluings = []
    for i in range(n):
        j = (i + 1) % n
        # side (0,2) of page i to side (0,1) of page j
        gluings.append(((i, (0, 2)), (j, (0, 1)), (0, 1)))
    return complexes.build_complex(specs, gluings)


def test_theta_vertex_link(theta):
    a = theta_point(theta, 0, 0.0)
    L = links.link_at(theta, a)
    assert len(L.nodes) == 3 and len(L.arcs) == 0
    for i in range(3):
        for j in range(i + 1, 3):
            assert L.dist(("node", i), ("node", j)) == pytest.approx(PI)
    assert L.betti() == (3, 0)
    assert L.diameter() == pytest.approx(PI)


def test_torus_interior_is_circle(torus):
    x = torus_point(torus, 0.3, 0.1)
    L = links.link_at(torus, x)
    assert L.betti() == (1, 1)
    assert sum(a.length for a in L.arcs) == pytest.approx(2 * PI)
    assert L.girth() == pytest.approx(2 * PI)


def test_torus_vertex_is_flat_circle(torus):
    v = torus_point(torus, 0.0, 0.0)
    L = links.link_at(torus, v)
    assert sum(a.length for a in L.arcs) == pytest.approx(2 * PI)
    assert L.girth() == pytest.approx(2 * PI)
    assert L.betti()[0] == 1


def test_spine_link_is_theta_shaped(theta_s1):
    sp = square_point(theta_s1, 0, 0.0, 0.4)
    L = links.link_at(theta_s1, sp)
    assert len(L.nodes) == 2 and len(L.arcs) == 3
    assert all(a.length == pytest.approx(PI) for a in L.arcs)
    assert L.betti() == (1, 2)
    assert L.dist(("node", 0), ("node", 1)) == pytest.approx(PI)
    assert L.dist(("arc", 0, PI / 2), ("node", 0)) == pytest.approx(PI / 2)
    # distance between midpoints of two different pages is pi
    assert L.dist(("arc", 0, PI / 2), ("arc", 1, PI / 2)) == pytest.approx(PI)


def test_edge_interior_link_poles(theta_s1):
    p = square_point(theta_s1, 0, 0.5, 0.0)  # horizontal boundary edge e_i x {c}
    L = links.link_at(theta_s1, p)
    # manifold edge: two incident half-planes, circle of length 2 pi
    assert len(L.arcs) == 2
    assert sum(a.length for a in L.arcs) == pytest.approx(2 * PI)


def test_antipodes_examples(theta, torus, theta_s1):
    a = theta_point(theta, 0, 0.0)
    L = links.link_at(theta, a)
    anti = links.antipodes(L, ("node", 0), 1e-9)
    assert sorted(anti) == [("node", 1), ("node", 2)]
    x = torus_point(torus, 0.3, 0.1)
    Lc = links.link_at(torus, x)
    anti = links.antipodes(Lc, ("arc", 0, 0.7), 1e-9)
    assert len(anti) == 1
    assert Lc.dist(("arc", 0, 0.7), anti[0]) == pytest.approx(PI)
    sp = square_point(theta_s1, 0, 0.0, 0.4)
    Ls = links.link_at(theta_s1, sp)
    anti = links.antipodes(Ls, ("node", 0), 1e-9)
    assert anti == [("node", 1)]


def test_delta_spherical_examples(theta, torus, theta_s1):
    x = torus_point(torus, 0.3, 0.1)
    Lc = links.link_at(torus, x)
    v = ("arc", 0, 0.3)
    vbar = ("arc", 0, 0.3 + PI)
    ok, _, s = links.is_delta_spherical(Lc, v, vbar, 0.01)
    assert ok and s == pytest.approx(PI)
    a = theta_point(theta, 0, 0.0)
    Lt = links.link_at(theta, a)
    ok, witness, s = links.is_delta_spherical(Lt, ("node", 0), ("node", 1), 0.1)
    assert not ok and witness == ("node", 2) and s == pytest.approx(2 * PI)
    sp = square_point(theta_s1, 0, 0.0, 0.4)
    Ls = links.link_at(theta_s1, sp)
    ok, _, s = links.is_delta_spherical(Ls, ("node", 0), ("node", 1), 0.05)
    assert ok and s == pytest.approx(PI)


def test_lemma_antipode_diameter(theta_s1):
    # whenever the pair passes, every antipode of v is within delta of vbar
    sp = square_point(theta_s1, 0, 0.0, 0.4)
    L = links.link_at(theta_s1, sp)
    delta = 0.05
    ok, _, _ = links.is_delta_spherical(L, ("node", 0), ("node", 1), delta)
    assert ok
    for rep in links.antipodes(L, ("node", 0), 1e-9):
        assert L.dist(rep, ("node", 1)) < delta
    regions = L.antipode_regions(("node", 0), 1e-9)
    pts = [r["rep"] for r in regions]
    for p in pts:
        for q in pts:
            assert L.dist(p, q) < 2 * delta


def test_find_tuple_examples(theta, torus, theta_s1):
    x = torus_point(torus, 0.3, 0.1)
    Lc = links.link_at(torus, x)
    assert links.find_spherical_tuple(Lc, 1, 0.01) is not None
    assert links.find_spherical_tuple(Lc, 2, 0.05) is not None
    a = theta_point(theta, 0, 0.0)
    Lt = links.link_at(theta, a)
    assert links.find_spherical_tuple(Lt, 1, 0.1) is None
    sp = square_point(theta_s1, 0, 0.0, 0.4)
    Ls = links.link_at(theta_s1, sp)
    assert links.find_spherical_tuple(Ls, 1, 0.05) is not None
    assert links.find_spherical_tuple(Ls, 2, 0.1) is None


def test_tuple_pairwise_distance_window(torus):
    # Cor. 6.4 forward: returned tuples have pairwise distances in the window
    x = torus_point(torus, 0.3, 0.1)
    L = links.link_at(torus, x)
    delta = 0.05
    res = links.find_spherical_tuple(L, 2, delta)
    vs = res["v"]
    d = L.dist(vs[0], vs[1])
    assert PI / 2 - 2 * delta < d < PI / 2 + delta


def test_cor64_reverse(torus):
    # points at distance within (pi/2 - delta, pi/2 + delta) with arbitrary
    # antipodes form a 2*delta-spherical pair of tuples
    x = torus_point(torus, 0.3, 0.1)
    L = links.link_at(torus, x)
    delta = 0.08
    v1 = ("arc", 0, 1.0)
    v2 = ("arc", 0, 1.0 + PI / 2 + 0.5 * delta)
    assert PI / 2 - delta < L.dist(v1, v2) < PI / 2 + delta
    b1 = links.antipodes(L, v1, 1e-9)[0]
    b2 = links.antipodes(L, v2, 1e-9)[0]
    for v, b in ((v1, b1), (v2, b2)):
        ok, _, _ = links.is_delta_spherical(L, v, b, 2 * delta)
        assert ok
    assert L.dist(v1, b2) < PI / 2 + 2 * delta
    assert L.dist(b1, b2) < PI / 2 + 2 * delta


def test_suspension_proximity(theta, torus, theta_s1):
    x = torus_point(torus, 0.3, 0.1)
    Lc = links.link_at(torus, x)
    assert links.suspension_proximity(Lc, 1) <= 2e-3
    a = theta_point(theta, 0, 0.0)
    Lt = links.link_at(theta, a)
    assert links.suspension_proximity(Lt, 1) >= PI - 2e-3
    sp = square_point(theta_s1, 0, 0.0, 0.4)
    Ls = links.link_at(theta_s1, sp)
    assert links.suspension_proximity(Ls, 1) <= 2e-3
    # threshold pi/4: mid-arc points with the far pole as common opposite
    assert links.suspension_proximity(Ls, 2) == pytest.approx(PI / 4, abs=2e-3)


def test_long_circle_excess():
    # cone of total angle 2 pi + 0.2: smallest delta is excess/2 (the best
    # opposite is the midpoint of the antipode arc)
    excess = 0.2
    comp = cone_complex([(2 * PI + excess) / 3] * 3)
    apex = complexes.point(comp, 0, [1.0, 0.0, 0.0])
    L = links.link_at(comp, apex)
    assert sum(a.length for a in L.arcs) == pytest.approx(2 * PI + excess)
    prox = links.suspension_proximity(L, 1)
    assert prox == pytest.approx(excess / 2, abs=2e-3)


def test_links_of_complete_complexes_are_complete(theta, torus, theta_s1):
    for comp, pt in ((theta, theta_point(theta, 0, 0.0)),
                     (torus, torus_point(torus, 0.0, 0.0)),
                     (theta_s1, square_point(theta_s1, 0, 0.0, 0.4))):
        L = links.link_at(comp, pt)
        assert L.geodesically_complete()


def test_locate_realize_roundtrip(theta_s1):
    sp = square_point(theta_s1, 0, 0.0, 0.4)
    L = links.link_at(theta_s1, sp)
    p = ("arc", 1, 0.7)
    state = L.realize(p, sp)
    assert state[0] == "ray"
    bary = geo.engine(theta_s1).bary_from_xy(state[1], state[2])
    assert L.dist(L.locate(sp, state[1], bary, state[3]), p) < 1e-9


def test_one_link_per_open_face():
    # every point of an open face has the same link (BH I.7), so 138 points
    # of a few faces share a few links
    comp = corpus.flat_torus()
    n = 138
    pts = [torus_point(comp, 0.05 + 0.9 * i / n, 0.3) for i in range(n)]
    cache = geo.engine(comp)._link_cache
    by_face = {}
    for x in pts:
        L = links.link_at(comp, x)
        assert by_face.setdefault((x.cid, x.carrier), L) is L
        assert len(cache) == len(by_face)
    assert len(by_face) <= len(comp.face_classes())
    assert (pts[0].cid, pts[0].carrier) == (pts[1].cid, pts[1].carrier)
    assert links.link_at(comp, pts[1]) is links.link_at(comp, pts[0])


def test_second_point_of_a_face_reuses_the_search(monkeypatch):
    ts = corpus.theta_times_circle()
    x1, x2 = square_point(ts, 0, 0.0, 0.4), square_point(ts, 0, 0.0, 0.7)
    assert (x1.cid, x1.carrier) == (x2.cid, x2.carrier)   # one spine edge
    assert strainers.is_strained(ts, x1, 1, 0.05, reach=0.15) is not None

    def no_search(*args):
        raise AssertionError("the stored search was not reused")

    monkeypatch.setattr(links, "_search_tuple", no_search)
    s = strainers.is_strained(ts, x2, 1, 0.05, reach=0.15)
    monkeypatch.undo()
    # realized at x2 itself, not at the point that ran the search
    eng = geo.engine(ts)
    for p in s.points + s.opposites:
        d, _ = eng.distance(x2, p, need_path=False)
        assert d == pytest.approx(0.15, abs=1e-9)
    fresh = corpus.theta_times_circle()
    y = square_point(fresh, 0, 0.0, 0.7)
    s_fresh = strainers.is_strained(fresh, y, 1, 0.05, reach=0.15)
    assert s.k == s_fresh.k == 1
    assert (links.find_spherical_tuple(links.link_at(ts, x2), 1, 0.05) ==
            links.find_spherical_tuple(links.link_at(fresh, y), 1, 0.05))
    assert ([p.key() for p in s.points + s.opposites] ==
            [p.key() for p in s_fresh.points + s_fresh.opposites])


# -- the array metric against closed forms --------------------------------

def book_complex(m):
    """m equilateral triangles sharing the edge (0, 1)."""
    tri = 1 - np.eye(3)
    gluings = [((0, (0, 1)), (k, (0, 1)), (0, 1)) for k in range(1, m)]
    return complexes.build_complex([(2, tri)] * m, gluings)


def link_points(L, picks):
    """Link points from (index, fraction) pairs: a node, or a fraction of
    an arc's length along it."""
    out = []
    for idx, frac in picks:
        idx %= len(L.nodes) + len(L.arcs)
        if idx < len(L.nodes):
            out.append(("node", idx))
        else:
            a = idx - len(L.nodes)
            out.append(("arc", a, frac * L.arcs[a].length))
    return out


def cycle_coordinate(L):
    """Position along the cycle of each point of a link that is one cycle."""
    pos, start = {L.arcs[0].i: 0.0}, {}
    node, x, left = L.arcs[0].i, 0.0, set(range(len(L.arcs)))
    while left:
        k = min(k for k in left if node in (L.arcs[k].i, L.arcs[k].j))
        a = L.arcs[k]
        left.discard(k)
        start[k] = (x, 1.0) if a.i == node else (x + a.length, -1.0)
        node = a.j if a.i == node else a.i
        x += a.length
        pos.setdefault(node, x)
    return lambda p: (pos[p[1]] if p[0] == "node"
                      else start[p[1]][0] + start[p[1]][1] * p[2])


def check_metric(L, pts, closed):
    M = L.dist_matrix(pts, pts)
    for a, p in enumerate(pts):
        for b, q in enumerate(pts):
            assert abs(M[a, b] - closed(p, q)) <= 1e-12
            assert M[a, b] == L.dist(p, q)
    # max_sum attains its sup at the argmax, and no dense sample beats it
    dense = L.samples(0.01)
    sups, args = L.max_sum(pts[0], pts)
    for vbar, s, w in zip(pts, sups, args):
        assert L.dist(pts[0], w) + L.dist(w, vbar) == s
        sample = (L.dist_matrix(pts[:1], dense)[0]
                  + L.dist_matrix(dense, [vbar])[:, 0])
        assert s >= sample.max() - 1e-12


picks = st.lists(st.tuples(st.integers(0, 100), st.floats(0.0, 1.0)),
                 min_size=1, max_size=6)


@given(st.lists(st.floats(0.3, 2.8), min_size=3, max_size=6), picks)
@hsettings(max_examples=25, deadline=None)
def test_cone_apex_metric_is_cycle_distance(angles, chosen):
    comp = cone_complex(angles)
    L = links.link_at(comp, complexes.point(comp, 0, [1.0, 0.0, 0.0]))
    assert len(L.arcs) == len(angles)
    total = sum(a.length for a in L.arcs)
    h = cycle_coordinate(L)

    def closed(p, q):
        d = abs(h(p) - h(q)) % total
        return min(d, total - d, PI)

    check_metric(L, link_points(L, chosen), closed)


@given(st.integers(2, 5), picks)
@hsettings(max_examples=25, deadline=None)
def test_edge_link_metric_is_suspension(m, chosen):
    comp = book_complex(m)
    L = links.link_at(comp, complexes.point(comp, 0, [0.5, 0.5, 0.0]))
    assert len(L.arcs) == m

    def h(p):
        return (0.0, PI)[p[1]] if p[0] == "node" else p[2]

    def closed(p, q):
        if "node" in (p[0], q[0]) or p[1] == q[1]:
            return abs(h(p) - h(q))
        return min(h(p) + h(q), 2 * PI - h(p) - h(q))

    check_metric(L, link_points(L, chosen), closed)


def loop_raw_dist(L, p, q):
    """Reference: the least sum over an end of p's arc, the node distance
    and an end of q's arc (a node is its own end), or |t - s| on one arc."""
    def ends(x):
        if x[0] == "node":
            return [(x[1], 0.0)]
        a = L.arcs[x[1]]
        return [(a.i, x[2]), (a.j, a.length - x[2])]

    best = (abs(p[2] - q[2]) if p[0] == q[0] == "arc" and p[1] == q[1]
            else math.inf)
    for cn, cd in ends(p):
        for dn, dd in ends(q):
            best = min(best, cd + L._D[cn, dn] + dd)
    return best


@given(picks)
@hsettings(max_examples=25, deadline=None)
def test_matrix_equals_loop_reference(theta_s1, chosen):
    # spine vertex of theta x S^1: 8 nodes, 9 arcs, paths over several arcs
    L = links.link_at(theta_s1, square_point(theta_s1, 0, 0.0, 0.0))
    pts = link_points(L, chosen)
    M = L.dist_matrix(pts, pts, math.inf)
    for a, p in enumerate(pts):
        for b, q in enumerate(pts):
            assert M[a, b] == loop_raw_dist(L, p, q) == L.raw_dist(p, q)
