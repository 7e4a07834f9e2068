"""The gate table, array source trees, singular vertices and grid-torus
closed forms.

The grid tori come from `bench/gridtorus.py`, put on the path as
`bench/conftest.py` does.  Every vertex of a grid torus is flat, so its
geodesics are straight lines that may run through vertices."""

import functools
import glob
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from gcba import complexes, corpus
from gcba import geodesics as geo
from gcba.complexes import ComplexError, build_complex, load_complex
from gcba.config import DEFAULTS

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "bench"))
from gridtorus import grid_point, grid_torus, torus_distance  # noqa: E402

from generated import (fan, graph_product, product_distance,  # noqa: E402
                       product_point, random_graph, random_product_coords)


def _corpus_complexes():
    out = []
    for path in sorted(glob.glob(os.path.join(ROOT, "corpus", "*.json"))):
        try:
            out.append(load_complex(path))
        except ComplexError:
            pass     # bad_triangle.json is degenerate on purpose
    return out


def _cross(e0, e1, p) -> float:
    """Twice the signed area of the triangle e0 e1 p."""
    return ((e1[0] - e0[0]) * (p[1] - e0[1])
            - (e1[1] - e0[1]) * (p[0] - e0[0]))


def _assert_closed_form(comp, n, pairs):
    eng = geo.engine(comp)
    for p, q in pairs:
        d, path = eng.distance(grid_point(comp, n, *p), grid_point(comp, n, *q))
        assert d == pytest.approx(torus_distance(p, q), abs=1e-9), (p, q)
        assert path.length == pytest.approx(d, abs=1e-9), (p, q)


@functools.lru_cache(maxsize=None)
def _grid(n):
    """One grid torus per size, shared so its engine's trees are reused."""
    return grid_torus(n)


# (0.5, 0.5) is a vertex of every grid below; (0.25, 0.25), (0.25, 0.75),
# (0.75, 0.75) and (0.75, 0.25) are vertices for n >= 4, (0.625, 0.75) for
# n >= 8
THROUGH_VERTICES = [
    ((0.45, 0.4), (0.6, 0.7)),       # slope 2 through (0.5, 0.5)
    ((0.35, 0.45), (0.8, 0.6)),      # slope 1/3 through (0.5, 0.5)
    ((0.48, 0.46), (0.66, 0.82)),    # slope 2, also through (0.625, 0.75)
    ((0.2, 0.8), (0.55, 0.45)),      # slope -1 across two square corners
    ((0.1, 0.1), (0.4, 0.4)),        # along diagonal edges
    ((0.45, 0.45), (0.8, 0.8)),      # along diagonal edges, two vertices
    ((0.3, 0.5), (0.7, 0.5)),        # along a horizontal grid line
    ((0.25, 0.1), (0.25, 0.55)),     # along a vertical grid line
]
# vertex sources, vertex targets and vertex-to-vertex pairs
AT_VERTICES = [
    ((0.5, 0.5), (0.83, 0.31)),
    ((0.12, 0.64), (0.25, 0.75)),
    ((0.5, 0.5), (0.75, 0.25)),
    ((0.25, 0.75), (0.5, 0.5)),
    ((0.0, 0.0), (0.5, 0.5)),
]


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_grid_torus_closed_form(n):
    # a 16 x 16 grid takes minutes when every vertex is a bending point
    comp = _grid(n)
    rng = np.random.default_rng(n)
    pairs = [(tuple(rng.random(2)), tuple(rng.random(2))) for _ in range(12)]
    # both points on grid lines, and a pair along one grid line
    k = rng.integers(0, n, size=4)
    pairs += [((k[0] / n, 0.3), (0.7, k[1] / n)),
              ((0.15, k[2] / n), (0.9, k[3] / n)),
              ((k[0] / n, 0.2), (k[0] / n, 0.65))]
    _assert_closed_form(comp, n, pairs + THROUGH_VERTICES + AT_VERTICES)


def test_grid_source_beside_an_edge_crosses_it():
    # a weight of 5e-12 on the vertex opposite an edge is past bary_tol, so
    # the source stays inside its cell, about 4e-13 from the edge, with one
    # root; that root must still cross the edge to reach the cell beyond
    n, w = 8, 5e-12 / 8
    _assert_closed_form(grid_torus(n), n, [
        ((0.05 + w, 0.05), (0.045, 0.06)),     # beside the diagonal
        ((0.05 + w, 0.05), (0.02, 0.1)),
        ((0.06, w), (0.07, -0.02)),            # beside the bottom edge
        ((0.06 + w, 0.06), (0.3, 0.8))])


lattice = st.integers(0, 31)


@given(st.sampled_from([2, 4, 8]), lattice, lattice, lattice, lattice)
@hsettings(max_examples=40, deadline=None)
def test_grid_lattice_points_closed_form(n, i, j, k, m):
    # points k / (2n): vertices, edge midpoints and square centres, whose
    # geodesics often run along edges and through vertices
    h = 1.0 / (2 * n)
    _assert_closed_form(_grid(n), n, [((i * h, j * h), (k * h, m * h))])


def test_extend_through_the_flat_torus_vertex():
    # each tail runs straight through the torus's one vertex, (1, 1); the
    # second along the diagonal edge into it.  The counts are those of a
    # walk that continues at the vertex through its link.
    comp = corpus.flat_torus()
    eng = geo.engine(comp)
    for p, q, delta, counts in (((0.5, 0.6), (0.75, 0.8), 0.5, [1]),
                                ((0.5, 0.5), (0.7, 0.7), 0.6, [1]),
                                ((0.3, 0.5), (0.6, 0.75), 0.7, [1, 1])):
        d, path = eng.distance(corpus.torus_point(comp, *p),
                               corpus.torus_point(comp, *q))
        ext, count, junctions = geo.extend_geodesic(comp, path, delta)
        assert (count, junctions) == (1, counts)
        assert ext.length == pytest.approx(d + delta, abs=1e-12)
        u = (np.array(q) - p) / d
        end = corpus.torus_point(comp, *((np.array(q) + delta * u) % 1.0))
        assert eng.distance(ext.end, end, need_path=False)[0] <= 1e-12


def _apex_is_singular(comp) -> bool:
    apex = complexes.point(comp, 0, [1.0, 0.0, 0.0])
    return apex.key() in {v.key() for v in geo.engine(comp).singular_points()}


def test_singular_vertex_classification():
    eng = geo.engine(corpus.flat_torus())
    assert len(eng.vertex_points()) == 1 and eng.singular_points() == []
    for build in (corpus.theta_times_circle, corpus.three_page_book,
                  corpus.segment_wedge_square, corpus.pillowcase):
        eng = geo.engine(build())
        assert eng.singular_points() == eng.vertex_points(), build.__name__
    assert geo.engine(_grid(4)).singular_points() == []
    # a closed fan of four right corners is a flat disc: its apex is flat,
    # its rim vertices lie on the boundary
    disc = fan([math.pi / 2] * 4)
    assert not _apex_is_singular(disc)
    assert len(geo.engine(disc).singular_points()) == \
        len(geo.engine(disc).vertex_points()) - 1
    # cone angle 4 pi, and a pinch whose link is two circles of 2 pi
    assert _apex_is_singular(fan([math.pi / 2] * 8))
    assert _apex_is_singular(fan([math.pi / 2] * 4, pinch=True))


def _record_trees(monkeypatch):
    """List that collects (source key, radius) of every source tree built."""
    built = []
    init = geo._SourceTree.__init__

    def record(self, engine, x, radius):
        built.append((x.key(), round(radius, 9)))
        init(self, engine, x, radius)

    monkeypatch.setattr(geo._SourceTree, "__init__", record)
    return built


def test_grid_query_builds_no_vertex_layer(monkeypatch):
    built = _record_trees(monkeypatch)
    comp = grid_torus(4)
    eng = geo.engine(comp)
    x, y = grid_point(comp, 4, 0.13, 0.71), grid_point(comp, 4, 0.62, 0.2)
    d, _ = eng.distance(x, y)
    assert d == pytest.approx(torus_distance((0.13, 0.71), (0.62, 0.2)),
                              abs=1e-9)
    assert [key for key, _ in built] == [x.key()]
    assert eng._vertex_trees == {} and eng._vv is None


def test_theta_s1_vertex_layer_builds_the_same_trees(monkeypatch):
    # both vertices of theta x S^1 are singular; the trees are those the
    # engine built when every vertex was threaded.  The two points share no
    # closed cell but a vertex, so x's tree starts at the path through it
    built = _record_trees(monkeypatch)
    comp = corpus.theta_times_circle()
    eng = geo.engine(comp)
    d, _ = eng.distance(corpus.square_point(comp, 0, 0.2, 0.3),
                        corpus.square_point(comp, 2, 0.7, 0.6))
    assert d == pytest.approx(math.hypot(0.9, 0.3), abs=1e-9)
    assert built == [((1, (0, 1, 2), (7000000000, 2000000000, 1000000000)),
                      1.282509575),
                     ((0, (0,), (10000000000,)), 2.828427125),
                     ((0, (2,), (10000000000,)), 2.828427125)]
    assert len(eng._vertex_trees) == 2 and eng._vv is not None


def test_inner_chord_needs_no_tree(monkeypatch):
    # a chord shorter than the distance to the cell's boundary is the
    # geodesic; it comes out as the same float as the tree's root candidate
    built = _record_trees(monkeypatch)
    comp = corpus.flat_torus()
    eng = geo.engine(comp)
    rng = np.random.default_rng(5)
    for _ in range(20):
        b = rng.dirichlet([4.0, 4.0, 4.0], size=2)
        x = complexes.point(comp, 0, b[0])
        y = complexes.point(comp, 0, 0.9 * b[0] + 0.1 * b[1])
        d, path = eng.distance(x, y)
        assert path.start == x and path.end == y
        tree = geo._SourceTree(eng, x, d * 1.5)
        assert d == eng._assemble(tree, x, y, need_path=False)[0]
    assert len(built) == 20     # the 20 reference trees only


def test_no_source_builds_a_second_tree(monkeypatch):
    # farther targets grow a point's one tree, and the vertex trees of
    # theta x S^1 grow with the vertex table
    built = _record_trees(monkeypatch)
    rng = np.random.default_rng(4)
    grid, ts = grid_torus(4), corpus.theta_times_circle()
    for _ in range(5):
        p = rng.random(2)
        x = grid_point(grid, 4, *p)
        for k, f in enumerate((0.05, 0.2, 0.4, 0.7)):
            q = (p + f * np.array([1.0, 0.3])) % 1.0
            d, _ = geo.engine(grid).distance(x, grid_point(grid, 4, *q),
                                             need_path=k % 2 == 0)
            assert d == pytest.approx(torus_distance(p, q), abs=1e-9)
        x = corpus.square_point(ts, int(rng.integers(3)), *rng.random(2))
        for _ in range(4):
            y = corpus.square_point(ts, int(rng.integers(3)), *rng.random(2))
            geo.engine(ts).distance(x, y, need_path=False)
    keys = [key for key, _ in built]
    assert len(keys) > 10 and len(keys) == len(set(keys))


def _placements(tree):
    return {c: np.concatenate([tree.A[sl].reshape(-1, 4), tree.t[sl]], axis=1)
            for c, sl in tree.cells.items()}


@pytest.mark.parametrize("name", ["torus", "theta_s1_spine", "grid",
                                  "cone_apex"])
def test_grown_tree_holds_the_placements_of_a_built_one(name):
    if name == "torus":
        comp = corpus.flat_torus()
        x = corpus.torus_point(comp, 0.3, 0.45)
    elif name == "theta_s1_spine":
        comp = corpus.theta_times_circle()
        x = corpus.square_point(comp, 0, 0.0, 0.37)
    elif name == "grid":
        comp = grid_torus(4)
        x = grid_point(comp, 4, 0.3, 0.55)
    else:
        comp = fan([math.pi / 2] * 8)
        x = complexes.point(comp, 0, [1.0, 0.0, 0.0])
    eng = geo.engine(comp)
    grown = geo._SourceTree(eng, x, 0.4)
    small = len(grown.cid)
    eng._to_vertex(grown, x)
    grown.grow(0.8)
    grown.grow(1.3)
    assert grown.to_vertex is None and grown.radius == 1.3
    built = geo._SourceTree(eng, x, 1.3)
    # the apex tree is its 8 roots at any radius: no gate faces the apex
    # but the rim, which leads nowhere
    assert len(grown.cid) == len(built.cid) > small or \
        (name == "cone_apex" and small == len(built.cid) == 8)
    have, want = _placements(grown), _placements(built)
    assert have.keys() == want.keys()
    for c, rows in want.items():
        gap = np.abs(rows[:, None] - have[c][None]).max(axis=2).min(axis=1)
        assert gap.max() <= 1e-9, c
    rng = np.random.default_rng(6)
    for _ in range(20):
        y = geo.uniform_point(comp, rng)
        a = eng._assemble(grown, x, y, need_path=False)
        b = eng._assemble(built, x, y, need_path=False)
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0] == pytest.approx(b[0], abs=1e-12)


def test_separate_triangle_is_disconnected():
    # a flat torus and a triangle glued to nothing: the engine names the
    # two components instead of growing a tree until the cap stops it
    specs = [(2, np.array(corpus._square_lengths(1.0))), (2, 1 - np.eye(3))]
    gluings = [((0, (0, 1)), (0, (2, 3)), (3, 2)),
               ((0, (0, 3)), (0, (1, 2)), (1, 2))]
    comp = build_complex(specs, gluings, 0.0)
    eng = geo.engine(comp)
    x = complexes.point(comp, 0, [0.2, 0.3, 0.5])
    y = complexes.point(comp, 2, [0.2, 0.3, 0.5])
    eng.distance(x, complexes.point(comp, 1, [0.5, 0.2, 0.3]))
    for p, q in ((x, y), (y, x)):
        with pytest.raises(geo.Disconnected):
            eng.distance(p, q)


def test_disconnected_names_the_search():
    tri = 1 - np.eye(3)
    comp = build_complex([(2, tri), (2, tri)], [])
    x = complexes.point(comp, 0, [0.2, 0.3, 0.5])
    y = complexes.point(comp, 1, [0.2, 0.3, 0.5])
    with pytest.raises(geo.Disconnected,
                       match=r"different connected components \(0 and 3\)"):
        geo.engine(comp).distance(x, y)


def test_gate_table_places_neighbours_across_the_edge():
    for comp in _corpus_complexes() + [grid_torus(4)]:
        gates = geo.engine(comp).gates
        for cell in comp.cells:
            if cell.dim != 2:
                continue
            co = cell.coords
            for drop in range(3):
                tup = tuple(v for v in range(3) if v != drop)
                members = comp.face_class_members(comp.face_root(cell.cid, tup))
                lo, hi = gates.span[cell.cid, drop]
                assert gates.slot[lo:hi] == [
                    m for m in sorted(members)
                    if m != (cell.cid, tup) and comp.cells[m[0]].dim == 2]
                my_corr = comp.face_corr(cell.cid, tup)
                e0, e1 = co[tup[0]], co[tup[1]]
                for g in range(lo, hi):
                    mcid, mtup = gates.slot[g]
                    R, s = gates.R[g], gates.s[g]
                    mco = comp.cells[mcid].coords
                    assert R.T @ R == pytest.approx(np.eye(2), abs=1e-12)
                    mcorr = comp.face_corr(mcid, mtup)
                    for p, v in enumerate(tup):
                        mv = mtup[mcorr.index(my_corr[p])]
                        assert R @ mco[mv] + s == pytest.approx(co[v],
                                                                abs=1e-12)
                    opp = next(v for v in range(3) if v not in mtup)
                    far = R @ mco[opp] + s
                    assert _cross(e0, e1, far) * _cross(e0, e1, co[drop]) \
                        < -1e-12


def test_gate_table_refuses_a_misfit_gluing():
    # a loose rel_tol lets two edges of lengths 1 and 1.0001 be glued; no
    # isometry places one triangle across the other, and the engine says so
    stretched = 1 - np.eye(3)
    stretched[0, 1] = stretched[1, 0] = 1.0001
    comp = build_complex([(2, 1 - np.eye(3)), (2, stretched)],
                         [((0, (0, 1)), (1, (0, 1)), (0, 1))],
                         settings=DEFAULTS.replace(rel_tol=1e-3))
    with pytest.raises(ComplexError, match="cannot be placed"):
        geo.engine(comp)


def _loop_tree(comp, x, radius):
    """(cid, A, t) of every development, one at a time: the reference for
    the level-by-level array build.  Each neighbour is placed with
    `_place_cell` from its parent's corners in the development plane, across
    the gates that come within the radius and have the source strictly on
    the parent's side."""
    devs, seen, bary_of = [], set(), {}

    def push(cid, A, t):
        key = (cid, tuple(np.round(A.ravel(), 6)), tuple(np.round(t, 6)))
        if key not in seen:
            seen.add(key)
            devs.append((cid, A, t))

    for cid, bary in x.representations(comp):
        if comp.cells[cid].dim == 2:
            bary_of[len(devs)] = bary
            push(cid, np.eye(2), -(np.asarray(bary) @ comp.cells[cid].coords))
    head = 0
    while head < len(devs):
        cid, A, t = devs[head]
        bary = bary_of.get(head)
        head += 1
        corners = comp.cells[cid].coords @ A.T + t
        for drop in range(3):
            tup = tuple(v for v in range(3) if v != drop)
            e0, e1 = corners[tup[0]], corners[tup[1]]
            near = geo._seg_dist_origin(e0[None], e1[None])[0]
            if near > radius:
                continue
            # a ray from the source crosses the gate from the source's side;
            # it meets a gate line through the source only at the source.  A
            # root holds the source, on the edges whose opposite weight is 0
            source_side = _cross(e0, e1, (0.0, 0.0)) / np.linalg.norm(e1 - e0)
            if bary is not None and bary[drop] == 0 or bary is None and (
                    source_side * np.sign(_cross(e0, e1, corners[drop]))
                    <= 1e-13 * (1 + np.linalg.norm(t))):
                continue
            my_corr = comp.face_corr(cid, tup)
            for mcid, mtup in comp.face_class_members(
                    comp.face_root(cid, tup)):
                if (mcid, mtup) == (cid, tup) or comp.cells[mcid].dim != 2:
                    continue
                mcorr = comp.face_corr(mcid, mtup)
                pair = [mtup[mcorr.index(my_corr[p])] for p in range(2)]
                push(mcid, *geo._place_cell(comp.cells[mcid], pair, e0, e1,
                                            -geo._side(e0, e1, corners[drop])))
    return devs


def test_array_tree_matches_one_at_a_time_placement():
    ts, grid = corpus.theta_times_circle(), grid_torus(4)
    # the last source lies 4e-13 from its cell's diagonal, not on it
    for comp, x, radius in ((ts, corpus.square_point(ts, 0, 0.0, 0.37), 1.2),
                            (grid, grid_point(grid, 4, 0.3, 0.55), 0.9),
                            (grid, grid_point(grid, 4, 0.1 + 5e-12 / 4, 0.1),
                             0.6)):
        tree = geo.engine(comp).tree(x, radius)
        ref = _loop_tree(comp, x, radius)
        assert len(tree.A) == len(ref)
        for cid, A, t in ref:
            sl = tree.cells[cid]
            err = (np.abs(tree.A[sl] - A).max(axis=(1, 2))
                   + np.abs(tree.t[sl] - t).max(axis=1))
            assert err.min() <= 1e-12


def test_tree_crosses_gates_from_the_source_side():
    # at a branching edge the other pages lie on the parent's side of the
    # entry gate, where no straight ray from the source goes: crossing back
    # would hold 9, 21, 48 and 72 developments at these radii
    ts = corpus.theta_times_circle()
    x = corpus.square_point(ts, 0, 0.3, 0.4)
    sizes = [len(geo._SourceTree(geo.engine(ts), x, R).cid)
             for R in (0.3, 0.6, 1.0, 1.5)]
    assert sizes == [4, 10, 26, 46]


THETA = [(0, 1, 1.0)] * 3
# 4 vertices, 5 edges: a 4-cycle with one chord
G45 = [(0, 1, 0.55), (1, 2, 0.8), (2, 3, 0.35), (3, 0, 0.95), (0, 2, 0.6)]


@pytest.mark.parametrize("graph, cycle", [(THETA, [0.3, 0.45, 0.25]),
                                          (G45, [0.45, 0.7, 0.3, 0.9])],
                         ids=["theta_x_C3", "G45_x_C4"])
def test_graph_product_closed_form(graph, cycle):
    # d^2 = d_G^2 + d_C^2; a tree that crossed gates back into the other
    # pages at each branching edge would pass the development cap on G45 x C4
    comp = graph_product(graph, cycle)
    assert comp.check_curvature_bound()["pass"]
    eng = geo.engine(comp)
    rng = np.random.default_rng(3)
    for _ in range(40):
        p = random_product_coords(graph, cycle, rng)
        q = random_product_coords(graph, cycle, rng)
        d, path = eng.distance(product_point(comp, graph, cycle, *p),
                               product_point(comp, graph, cycle, *q))
        assert d == pytest.approx(product_distance(graph, cycle, p, q),
                                  abs=1e-9), (p, q)
        assert path.length == pytest.approx(d, abs=1e-9), (p, q)


@pytest.mark.parametrize("n, m, k, pairs", [(8, 12, 6, 20), (12, 20, 8, 10)],
                         ids=["G8_12_x_C6", "G12_20_x_C8"])
def test_random_graph_product_closed_form(n, m, k, pairs):
    # 144 and 320 triangles with 24 and 72 singular vertices; a vertex tree
    # that crossed the gates whose lines run through its source wound
    # around the vertex past the development cap
    rng = np.random.default_rng(1)
    graph = random_graph(n, m, rng)
    cycle = [float(c) for c in rng.uniform(0.3, 1.0, size=k)]
    comp = graph_product(graph, cycle)
    eng = geo.engine(comp)
    for _ in range(pairs):
        p = random_product_coords(graph, cycle, rng)
        q = random_product_coords(graph, cycle, rng)
        d, path = eng.distance(product_point(comp, graph, cycle, *p),
                               product_point(comp, graph, cycle, *q))
        assert d == pytest.approx(product_distance(graph, cycle, p, q),
                                  abs=1e-9), (p, q)
        assert path.length == pytest.approx(d, abs=1e-9), (p, q)


def test_ray_walk_stops_at_its_first_match(monkeypatch):
    # the G(12, 20) x C8 pairs above: a candidate of length 2.9246 has 72
    # straight continuations and the 25th ends at the target; the walk
    # takes no step past the outcome that matches
    log = []
    step, match = geo.GeodesicEngine._ray_step, geo.GeodesicEngine._match_point
    direct = geo.GeodesicEngine._direct

    def logged_step(self, *args, **kw):
        out = step(self, *args, **kw)
        log.append(("step", out))
        return out

    def logged_match(self, out, y):
        hit = match(self, out, y)
        if hit:
            log.append(("match", out))
        return hit

    def logged_direct(self, *args):
        log.append(("direct", None))
        return direct(self, *args)

    monkeypatch.setattr(geo.GeodesicEngine, "_ray_step", logged_step)
    monkeypatch.setattr(geo.GeodesicEngine, "_match_point", logged_match)
    monkeypatch.setattr(geo.GeodesicEngine, "_direct", logged_direct)
    test_random_graph_product_closed_form(12, 20, 8, 10)
    calls = []
    for kind, out in log:
        if kind == "direct":
            calls.append([])
        else:
            calls[-1].append((kind, out))
    matched = 0
    for entries in calls:
        kinds = [kind for kind, _ in entries]
        if "match" not in kinds:
            continue
        matched += 1
        first = kinds.index("match")
        # the matching outcome is the last one walked
        assert "step" not in kinds[first:]
        assert entries[first - 1][1] is entries[first][1]
    assert matched > 0


def test_cone_of_angle_7_closed_form():
    # seven unit-leg triangles of apex angle 1 make a CAT(0) cone of angle
    # 7; points (s, phi) at angle dphi around the apex are at distance
    # sqrt(s^2 + t^2 - 2 s t cos(min(pi, dphi))), bending at the apex when
    # dphi > pi (BH I.5)
    cone = fan([1.0] * 7)
    eng = geo.engine(cone)

    def point(s, phi):
        i, f = int(phi), phi - int(phi)
        co = cone.cells[i].coords
        u, v = co[1] - co[0], co[2] - co[0]
        w = v - (v @ u) * u
        xy = co[0] + s * (math.cos(f) * u + math.sin(f) * w / np.linalg.norm(w))
        return complexes.point(cone, i, eng.bary_from_xy(i, xy))

    rng = np.random.default_rng(0)
    apex = complexes.point(cone, 0, [1.0, 0.0, 0.0])
    for k in range(30):
        s, t = rng.uniform(0.05, 0.85, size=2)
        phi = rng.uniform(0.0, 7.0)
        dphi = (rng.uniform(0.2, math.pi - 0.1) if k % 2
                else rng.uniform(math.pi + 0.05, 3.45))
        exact = math.sqrt(s * s + t * t
                          - 2 * s * t * math.cos(min(math.pi, dphi)))
        x, y = point(s, phi), point(t, (phi + dphi) % 7.0)
        d, path = eng.distance(x, y)
        assert d == pytest.approx(exact, abs=1e-9), (s, t, phi, dphi)
        assert path.length == pytest.approx(d, abs=1e-9)
        assert eng.distance(apex, y, need_path=False)[0] == \
            pytest.approx(t, abs=1e-9)
    assert len(eng.tree(apex, 1.0).cid) == 7


def test_cached_tree_memory_is_small():
    # a cached source tree holds arrays, not per-development objects: on the
    # 4 x 4 grid a tree of radius about 0.75 takes about 70 KB as objects
    # and under 20 KB as arrays
    n = 4
    comp = grid_torus(n)
    eng = geo.engine(comp)
    uv = np.random.default_rng(0).random((10, 2))
    sources = [grid_point(comp, n, u, v) for u, v in uv]
    targets = [grid_point(comp, n, u + 0.5, v + 0.5) for u, v in uv]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x, y in zip(sources, targets):
            eng.distance(x, y, need_path=False)
        per_tree = (tracemalloc.get_traced_memory()[0] - before) / len(sources)
    finally:
        tracemalloc.stop()
    for x in sources:
        tree = eng._cached_tree(x.key())
        assert tree.radius > 0.7
        assert all((tree.cid[sl] == c).all() for c, sl in tree.cells.items())
    assert per_tree <= 40 * 1024


def test_grown_vertex_table_keeps_final_pieces(monkeypatch):
    # a piece no longer than the old radius is final, so growth re-runs
    # `_direct` only for the rest; the grown table is the one a full re-run
    # on the grown trees gives, and a fresh engine's to rounding
    rng = np.random.default_rng(1)
    graph = random_graph(4, 5, rng)
    cycle = [float(c) for c in rng.uniform(0.3, 1.0, size=4)]
    comp = graph_product(graph, cycle)
    eng = geo.engine(comp)
    r1 = 0.8 * eng._scale
    old = dict(eng._vertex_table(r1))
    calls = []
    direct = geo.GeodesicEngine._direct
    monkeypatch.setattr(geo.GeodesicEngine, "_direct",
                        lambda self, t, v, w: calls.append((v, w))
                        or direct(self, t, v, w))
    grown = eng._vertex_table(2 * r1)
    monkeypatch.undo()
    verts = eng.singular_points()
    final = {k for k, (d, _) in old.items() if d <= r1}
    assert 0 < len(final) < len(verts) * (len(verts) - 1) == len(calls) + len(
        final)
    assert all(grown[k] is old[k] for k in final)
    rerun = {}
    for i, v in enumerate(verts):
        for j, w in enumerate(verts):
            if i != j:
                d, _ = eng._direct(eng.tree(v, 2 * r1), v, w)
                if d < math.inf:
                    rerun[(i, j)] = d
    assert {k: d for k, (d, _) in grown.items()} == rerun
    fresh = geo.GeodesicEngine(comp)._vertex_table(2 * r1)
    assert fresh.keys() == grown.keys()
    for k, (d, _) in grown.items():
        assert d == pytest.approx(fresh[k][0], abs=1e-12)
