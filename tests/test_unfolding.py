"""The gate table, array source trees and grid-torus closed forms.

The grid tori come from `bench/gridtorus.py`, put on the path as
`bench/conftest.py` does."""

import glob
import os
import sys
import tracemalloc

import numpy as np
import pytest

from gcba import corpus
from gcba import geodesics as geo
from gcba.complexes import ComplexError, build_complex, load_complex
from gcba.config import DEFAULTS

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "bench"))
from gridtorus import grid_point, grid_torus, torus_distance  # noqa: E402


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


@pytest.mark.parametrize("n", [2, 4])
def test_grid_torus_closed_form(n):
    comp = grid_torus(n)
    rng = np.random.default_rng(n)
    pairs = [(tuple(rng.random(2)), tuple(rng.random(2))) for _ in range(12)]
    # both points on grid lines, and a pair along one grid line
    k = rng.integers(0, n, size=4)
    pairs += [((k[0] / n, 0.3), (0.7, k[1] / n)),
              ((0.15, k[2] / n), (0.9, k[3] / n)),
              ((k[0] / n, 0.2), (k[0] / n, 0.65))]
    if n == 4:
        # the segment passes straight through the grid vertex (0.25, 0.25)
        pairs.append(((0.1, 0.1), (0.4, 0.4)))
    _assert_closed_form(comp, n, pairs)


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
    `_place_cell` from its parent's corners in the development plane."""
    devs, seen = [], set()

    def push(cid, A, t):
        key = (cid, tuple(np.round(A.ravel(), 6)), tuple(np.round(t, 6)))
        if key not in seen:
            seen.add(key)
            devs.append((cid, A, t))

    for cid, bary in x.representations(comp):
        if comp.cells[cid].dim == 2:
            push(cid, np.eye(2), -(np.asarray(bary) @ comp.cells[cid].coords))
    head = 0
    while head < len(devs):
        cid, A, t = devs[head]
        head += 1
        corners = comp.cells[cid].coords @ A.T + t
        for drop in range(3):
            tup = tuple(v for v in range(3) if v != drop)
            e0, e1 = corners[tup[0]], corners[tup[1]]
            near = geo._seg_dist_origin(e0[None], e1[None])[0]
            if near > radius:
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
    for comp, x, radius in ((ts, corpus.square_point(ts, 0, 0.0, 0.37), 1.2),
                            (grid, grid_point(grid, 4, 0.3, 0.55), 0.9)):
        tree = geo.engine(comp).tree(x, radius)
        ref = _loop_tree(comp, x, radius)
        assert len(tree.A) == len(ref)
        for cid, A, t in ref:
            sl = tree.cells[cid]
            err = (np.abs(tree.A[sl] - A).max(axis=(1, 2))
                   + np.abs(tree.t[sl] - t).max(axis=1))
            assert err.min() <= 1e-12


def test_cached_tree_memory_is_small():
    # a cached source tree holds arrays, not per-development objects: on the
    # 4 x 4 grid a tree of radius about 0.75 takes about 70 KB as objects
    # and under 20 KB as arrays
    n = 4
    comp = grid_torus(n)
    eng = geo.engine(comp)
    eng._vertex_table(2.0)    # sized once, so no query below rebuilds it
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
