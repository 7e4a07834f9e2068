"""The three benchmark workloads.

Each workload is a closed loop: one caller in one thread sends the next op
when the previous one has returned.  A workload builds its context in
`setup` (complex, curvature check, strainers, warm-up query), draws op inputs
from the seeded generator `inputs`, runs one op in `op` (the timed part) and
verifies the result in `check`.  The library only ever receives the
generated points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gcba import corpus, flows, strainers
from gcba import geodesics as geo

import gridtorus


class SetupError(Exception):
    pass


def _require_cat0(comp) -> None:
    report = comp.check_curvature_bound()
    if not report["pass"]:
        raise SetupError(f"curvature check failed: {report['violations']}")


def _open_face(x) -> tuple:
    """Key of the open face carrying x (points are stored in root form)."""
    return (x.cid, x.carrier)


def is_spine_point(comp, x) -> bool:
    """True when x lies on the singular set: an edge shared by a number of
    2-cells other than two, or a vertex at the end of such an edge."""
    cell = comp.cells[x.cid]
    if len(x.carrier) == cell.nverts:
        return False
    if len(x.carrier) == 2:
        return _edge_is_singular(comp, comp.face_root(x.cid, x.carrier))
    root = comp.face_root(x.cid, x.carrier)
    for cid, (v,) in comp.face_class_members(root):
        for w in range(comp.cells[cid].nverts):
            if w != v and _edge_is_singular(
                    comp, comp.face_root(cid, tuple(sorted((v, w))))):
                return True
    return False


def _edge_is_singular(comp, root) -> bool:
    members = comp.face_class_members(root)
    return sum(1 for cid, _ in members if comp.cells[cid].dim == 2) != 2


@dataclass
class Checked:
    ok: bool
    digest: str          # canonical text of the result, for the checksum
    comp: object         # the complex the op ran on
    points: list         # the op's input points


# ---------------------------------------------------------------------------
# flow_retract: the criterion-4 loop


@dataclass
class _FlowCase:
    comp: object
    s: object
    F: object
    fx: np.ndarray


class FlowRetract:
    name = "flow_retract"
    why = ("criterion-4 loop: ball sample, retract_to_fiber, "
           "FlowTrack.diameter; mostly short same-cell distance queries")

    def setup(self):
        torus = corpus.flat_torus()
        _require_cat0(torus)
        ts = corpus.theta_times_circle()
        _require_cat0(ts)
        # the strainers torus_k2 and page_k2 of the acceptance suite
        found = [
            (torus, strainers.is_strained(
                torus, corpus.torus_point(torus, 0.42, 0.3), 2, 0.04,
                reach=0.2, estimate_radius=True)),
            (ts, strainers.is_strained(
                ts, corpus.square_point(ts, 0, 0.5, 0.25), 2, 0.04,
                reach=0.15, estimate_radius=True)),
        ]
        cases = []
        for comp, s in found:
            if s is None or s.radius_estimate <= 0:
                raise SetupError("strainer not found")
            F = strainers.StrainerMap(comp=comp, points=s.points,
                                      opposites=s.opposites)
            # warm-up query: the strainer coordinates of the centre
            cases.append(_FlowCase(comp, s, F, F.value(s.center)))
        return cases

    def inputs(self, ctx, rng):
        i = 0
        while True:
            yield i % 2        # alternate torus_k2 and page_k2
            i += 1

    def op(self, ctx, inp, rng):
        c = ctx[inp]
        ys = geo.ball_samples(c.comp, c.s.center, c.s.radius_estimate, 1, rng)
        if not ys:
            raise geo.GeodesicError("ball sample came back empty")
        y = ys[0]
        track = flows.retract_to_fiber(c.comp, c.s, c.s.center, y=y,
                                       tol=1e-6)
        return y, track, track.diameter(c.comp)

    def check(self, ctx, inp, out) -> Checked:
        c = ctx[inp]
        y, track, diam = out
        s = c.s
        gap = float(np.linalg.norm(c.F.value(y) - c.fx))
        dyx, _ = geo.engine(c.comp).distance(s.center, y, need_path=False)
        dists = track.dist_to_center
        mono = all(b <= a + 1e-8 for a, b in zip(dists, dists[1:]))
        inside = all(d <= dyx + 1e-9 for d in dists)
        ok = (track.residual <= 1e-6
              and diam <= 8 * s.k * gap * 1.05 + 1e-9
              and mono and inside)
        digest = (f"{inp}:{y.key()}:{track.residual!r}:{diam!r}:"
                  f"{len(track.trace)}:{track.length!r}")
        return Checked(ok, digest, c.comp, [y])


# ---------------------------------------------------------------------------
# strainer_atlas: the `gcba strainers` loop on theta x S^1

ATLAS_DELTA = 0.05
ATLAS_REACH = 0.15


class StrainerAtlas:
    name = "strainer_atlas"
    why = ("gcba strainers loop on theta x S1: is_strained k=2 then k=1 on "
           "page points and spine points; links and strainers do the work")

    def setup(self):
        ts = corpus.theta_times_circle()
        _require_cat0(ts)
        # warm-up query: one page point
        warm = strainers.is_strained(ts, corpus.square_point(ts, 0, 0.5, 0.25),
                                     2, ATLAS_DELTA, reach=ATLAS_REACH)
        if warm is None:
            raise SetupError("page point is not 2-strained")
        return ts

    def inputs(self, ts, rng):
        """Two page points then one spine point, repeating: page points are
        uniform on a random page, spine points uniform on a random spine
        circle (square edge x = 0 or x = 1)."""
        i = 0
        while True:
            if i % 3 == 2:
                side = float(rng.integers(2))
                yield corpus.square_point(ts, 0, side, float(rng.random())), 1
            else:
                page = int(rng.integers(3))
                u, v = rng.random(2)
                yield corpus.square_point(ts, page, float(u), float(v)), 2
            i += 1

    def op(self, ts, inp, rng):
        x, _ = inp
        for k in (2, 1):
            s = strainers.is_strained(ts, x, k, ATLAS_DELTA,
                                      reach=ATLAS_REACH)
            if s is not None:
                return k, s
        return 0, None

    def check(self, ts, inp, out) -> Checked:
        x, expect = inp
        k, s = out
        pts = [] if s is None else [p.key() for p in s.points + s.opposites]
        return Checked(k == expect, f"{x.key()}:{k}:{pts}", ts, [x])


# ---------------------------------------------------------------------------
# grid_geodesics: distance queries on the 8 x 8 grid torus

GRID_N = 8
QUERIES_PER_SOURCE = 4
PATH_EVERY = 5
# Warm-up pair in lattice units (cell side 1/8).  It is the pair whose route
# through the vertex graph is longest (found by Nelder-Mead over pairs from
# 25 starts), so the engine sizes its vertex table once, during set-up,
# instead of at an unpredictable op of the measured phase.
GRID_WARMUP = ((0.26127448, 0.73911606), (3.73878701, 5.26116362))


@dataclass
class _Grid:
    comp: object
    n: int


class GridGeodesics:
    name = "grid_geodesics"
    why = ("8x8 grid torus, 128 triangles: long-range distance queries "
           "(coarse bound, vertex table, Dijkstra), never links or flows")

    def setup(self):
        comp = gridtorus.grid_torus(GRID_N)
        _require_cat0(comp)
        a = 1.0 / GRID_N
        (u0, v0), (u1, v1) = GRID_WARMUP
        p, q = (u0 * a, v0 * a), (u1 * a, v1 * a)
        d, _ = geo.engine(comp).distance(
            gridtorus.grid_point(comp, GRID_N, *p),
            gridtorus.grid_point(comp, GRID_N, *q), need_path=False)
        if abs(d - gridtorus.torus_distance(p, q)) > 1e-9:
            raise SetupError("warm-up distance disagrees with the closed form")
        return _Grid(comp, GRID_N)

    def inputs(self, g, rng):
        """A fresh uniform source every QUERIES_PER_SOURCE ops and a fresh
        uniform target every op; every PATH_EVERY-th op asks for the path."""
        i = 0
        while True:
            if i % QUERIES_PER_SOURCE == 0:
                src = tuple(float(t) for t in rng.random(2))
                x = gridtorus.grid_point(g.comp, g.n, *src)
            tgt = tuple(float(t) for t in rng.random(2))
            y = gridtorus.grid_point(g.comp, g.n, *tgt)
            yield src, tgt, x, y, i % PATH_EVERY == PATH_EVERY - 1
            i += 1

    def op(self, g, inp, rng):
        _, _, x, y, need_path = inp
        return geo.engine(g.comp).distance(x, y, need_path=need_path)

    def check(self, g, inp, out) -> Checked:
        src, tgt, x, y, need_path = inp
        d, path = out
        ok = abs(d - gridtorus.torus_distance(src, tgt)) <= 1e-9
        plen = None
        if need_path:
            plen = sum(path.seg_lengths()) if path is not None else math.inf
            ok = ok and abs(plen - d) <= 1e-9
        return Checked(ok, f"{x.key()}:{y.key()}:{d!r}:{plen!r}", g.comp,
                       [x, y])


WORKLOADS = {w.name: w for w in (FlowRetract(), StrainerAtlas(),
                                 GridGeodesics())}
