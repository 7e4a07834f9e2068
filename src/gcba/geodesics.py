"""Distances, geodesics, angles and the logarithmic/contraction maps.

The engine for complexes of dimension <= 2 is exact.  Corridors of flat
cells are unfolded isometrically into the plane (the development step of
Mitchell-Mount-Papadimitriou and Chen-Han).  One gate table per complex
holds, for every edge of a 2-cell, the isometry that places each glued
neighbour across it; a source tree composes these level by level in a
breadth-first search pruned at a radius, deduplicated by placement, and
keeps its developments as arrays.  A query that needs more grows the tree
in place from its frontier, a development front that only grows as in
Chen-Han.  A straight candidate from a root development is a chord inside
one closed convex cell, hence a path (Bridson-Haefliger I.1, II.1.4), and is
taken as it is; every piece along an edge of a 2-cell is one.  Any other
candidate is validated by walking its ray through the complex with the same
table, one branch at a time, up to the first that ends at the target.  A
piece along a 1-cell is the difference of the two points' positions on it.

A shortest path bends only at singular vertices.  A vertex is flat when its
link is one circle of length 2*pi; it then has a Euclidean disc as a
neighbourhood, so a shortest path through it is straight there: its two
directions are at link distance pi (Bridson-Haefliger I.5).  A ray walk goes
on through a flat vertex along that one antipode, as `shoot_from_state` does,
and paths that bend are assembled by a Dijkstra layer threaded over the
singular vertices only (boundary vertices, vertices on a 1-cell, pinches and
cone points of angle other than 2*pi).  Complexes have dimension <= 2 and
flat cells (load rejects anything else), so every distance takes this route
and is exact to about 1e-9.

One-to-many queries (`GeodesicEngine.dist_matrix`) answer the pairs that a
chord inside one convex 2-cell settles in one array step, and send the rest
through the scalar `distance`.

A direction at a point x is a point of its space of directions,
`links.link_at(comp, x)`: `log_map` locates the first segment of a geodesic
there once, and the angle at x between two geodesics is the link distance of
their directions (BH I.7).
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .complexes import ComplexError, ComplexPoint, MetricComplex


class GeodesicError(Exception):
    pass


class Disconnected(GeodesicError):
    pass


class NoContinuation(GeodesicError):
    """No extension at angle >= pi - tol: completeness failure at this point."""


# ---------------------------------------------------------------------------
# paths


@dataclass
class GeodesicPath:
    """Polyline through cells: per-segment carrier and barycentric endpoints."""

    comp: MetricComplex
    segs: list          # (cid, bary0, bary1) per segment; may be empty
    length: float
    deviations: list    # turning deviation from pi at interior breakpoints
    _lens: list = field(default=None, init=False, repr=False, compare=False)

    @property
    def start(self) -> ComplexPoint:
        if not self.segs:
            return self._single
        cid, b0, _ = self.segs[0]
        return ComplexPoint(self.comp, cid, b0)

    @property
    def end(self) -> ComplexPoint:
        if not self.segs:
            return self._single
        cid, _, b1 = self.segs[-1]
        return ComplexPoint(self.comp, cid, b1)

    def seg_lengths(self) -> list[float]:
        """Segment lengths, computed once: a path's segments never change."""
        if self._lens is None:
            self._lens = [
                float(np.linalg.norm((b1 - b0) @ self.comp.cells[cid].coords))
                for cid, b0, b1 in self.segs]
        return self._lens

    def point_at(self, s: float) -> ComplexPoint:
        """Point at arclength s from the start (clamped to [0, length])."""
        if not self.segs:
            return self._single
        s = min(max(s, 0.0), self.length)
        for (cid, b0, b1), ls in zip(self.segs, self.seg_lengths()):
            if s <= ls or ls == 0.0:
                f = 0.0 if ls == 0.0 else s / ls
                return ComplexPoint(self.comp, cid, (1 - f) * b0 + f * b1)
            s -= ls
        cid, _, b1 = self.segs[-1]
        return ComplexPoint(self.comp, cid, b1)

    def heading(self, i: int):
        """(cid, unit vector) of segment i, in its cell's shape coords."""
        cid, b0, b1 = self.segs[i]
        v = (np.asarray(b1) - np.asarray(b0)) @ self.comp.cells[cid].coords
        return cid, v / np.linalg.norm(v)

    def is_local_geodesic(self, tol: float) -> bool:
        return all(d <= tol for d in self.deviations)

    def reversed(self) -> "GeodesicPath":
        segs = [(cid, b1, b0) for cid, b0, b1 in reversed(self.segs)]
        p = GeodesicPath(self.comp, segs, self.length,
                         list(reversed(self.deviations)))
        if not segs:
            p._single = self._single
        return p

    def to_json_dict(self) -> dict:
        return {
            "length": float(self.length),
            "segments": [
                {"cell": int(cid), "from": [float(v) for v in b0],
                 "to": [float(v) for v in b1]}
                for cid, b0, b1 in self.segs
            ],
            "deviations": [float(d) for d in self.deviations],
        }


def _trivial_path(comp: MetricComplex, x: ComplexPoint) -> GeodesicPath:
    p = GeodesicPath(comp, [], 0.0, [])
    p._single = x
    return p


def concatenate(a: GeodesicPath, b: GeodesicPath,
                junction_deviation: float = 0.0) -> GeodesicPath:
    segs = list(a.segs) + list(b.segs)
    devs = list(a.deviations)
    if a.segs and b.segs:
        devs = devs + [junction_deviation] + list(b.deviations)
    else:
        devs = devs + list(b.deviations)
    p = GeodesicPath(a.comp, segs, a.length + b.length, devs)
    if not segs:
        p._single = a._single
    return p


class _LRU(OrderedDict):
    """Dict holding at most `size` entries; storing one more drops the
    least recently stored or read entry."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def get(self, key, default=None):
        if key not in self:
            return default
        self.move_to_end(key)
        return self[key]

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        if len(self) > self.size:
            self.popitem(last=False)


# bound of the per-engine LRU of source trees (vertex trees excluded)
_TREE_CACHE_SIZE = 512


# ---------------------------------------------------------------------------
# gate table and planar development tree (dim <= 2)


class GateTable(NamedTuple):
    """Where each 2-cell edge leads.  Edge `drop` of cell c is the edge
    opposite its vertex slot `drop`; entries span[c, drop, 0] up to
    span[c, drop, 1] are the other 2-cell slots glued to it, and entry g
    places cell cid[g] (at its face slot slot[g]) beside c across that edge
    by x_c = R[g] @ x_cid[g] + s[g], on the far side from c's vertex drop."""
    span: np.ndarray     # (cells, 3, 2) entry range per (cell, edge)
    cid: np.ndarray      # (G,)
    slot: list           # (cid, face tuple) per entry
    R: np.ndarray        # (G, 2, 2) orthogonal
    s: np.ndarray        # (G, 2)
    coords: np.ndarray   # (cells, 3, 2) vertex coordinates of the 2-cells
    inward: np.ndarray   # (cells, 3, 3) per edge (n, k): n @ x + k is the
                         # signed distance of x from it, >= 0 on c's side


def _gate_table(comp: MetricComplex) -> GateTable:
    span = np.zeros((len(comp.cells), 3, 2), dtype=np.intp)
    coords = np.zeros((len(comp.cells), 3, 2))
    inward = np.zeros((len(comp.cells), 3, 3))
    slots, Rs, ss = [], [], []
    for cell in comp.cells:
        if cell.dim != 2:
            continue
        coords[cell.cid] = cell.coords
        for drop in range(3):
            tup = tuple(v for v in range(3) if v != drop)
            e0, e1 = cell.coords[tup[0]], cell.coords[tup[1]]
            side = _side(e0, e1, cell.coords[drop])
            n = side * np.array([e0[1] - e1[1], e1[0] - e0[0]])
            inward[cell.cid, drop] = np.append(n, -n @ e0) / np.linalg.norm(n)
            my_corr = comp.face_corr(cell.cid, tup)
            span[cell.cid, drop, 0] = len(slots)
            for (mcid, mtup) in sorted(comp.face_class_members(
                    comp.face_root(cell.cid, tup))):
                if (mcid, mtup) == (cell.cid, tup) or \
                        comp.cells[mcid].dim != 2:
                    continue
                # the vertex of mtup matching tup[p] meets the same root
                # vertex as it does
                mcorr = comp.face_corr(mcid, mtup)
                pair = [mtup[mcorr.index(my_corr[p])] for p in range(2)]
                R, s = _place_cell(comp.cells[mcid], pair, e0, e1, -side)
                slots.append((mcid, mtup))
                Rs.append(R)
                ss.append(s)
            span[cell.cid, drop, 1] = len(slots)
    return GateTable(span, np.array([m for m, _ in slots], dtype=np.intp),
                     slots, np.array(Rs).reshape(-1, 2, 2),
                     np.array(ss).reshape(-1, 2), coords, inward)


class _SourceTree:
    """Placements of 2-cells reachable from a source point by unfolding,
    pruned at a radius that only grows; the source sits at the origin of the
    dev plane.

    Development k places cell cid[k] by dev = A[k] @ local + t[k] and grew
    from the root development roots[root[k]], the source in one of its
    cells, held as (cid, xy, bary, index of its development).  The
    developments are grouped by cell, in order of growth within a cell, and
    `cells` maps each cell to the slice of its own.  `frontier` marks those
    that face a gate beyond the radius, where `grow` restarts the build: a
    development front that only grows (Chen-Han)."""

    def __init__(self, engine: "GeodesicEngine", x: ComplexPoint, radius: float):
        self.comp = engine.comp
        self.gates = engine.gates
        # direct distances to the engine's singular vertices, filled by a
        # query and cleared by growth
        self.to_vertex = None
        comp = self.comp
        roots = [(cid, np.asarray(bary) @ comp.cells[cid].coords,
                  np.asarray(bary))
                 for cid, bary in x.representations(comp)
                 if comp.cells[cid].dim == 2]
        # distinct representations place the source at distinct points
        self.roots = [r + (i,) for i, r in enumerate(roots)]
        self.cid = np.array([r[0] for r in roots], dtype=np.intp)
        self.A = np.eye(2)[None].repeat(len(roots), axis=0)
        self.t = -np.array([r[1] for r in roots]).reshape(-1, 2)
        self.root = np.arange(len(roots))
        self.frontier = np.ones(len(roots), dtype=bool)
        self.radius, self.cells = 0.0, {}
        self.grow(radius)

    def grow(self, radius: float):
        """Extend the tree to `radius`.  A development off the frontier has
        crossed every gate it faces, so the build restarts from the
        frontier and keeps the placements the tree does not hold: a tree
        grown from r1 to r2 holds the placements of one built at r2."""
        if radius <= self.radius:
            return
        self.to_vertex = None
        gates = self.gates
        seen: set = set()
        _unseen(seen, self.cid, self.A, self.t)
        f = np.flatnonzero(self.frontier)
        level = (self.cid[f], self.A[f], self.t[f], self.root[f])
        # a root holds the source and faces exactly the edges whose opposite
        # weight is nonzero: canonical weights are 0 or above bary_tol, so
        # no rounding decides it
        at = np.array([r[3] for r in self.roots], dtype=np.intp)
        fixed = np.flatnonzero(at[level[3]] == f)
        exact = np.array([r[2] > 0 for r in self.roots]).reshape(-1, 3)
        levels, beyond = [], []
        total = len(self.cid)
        cap = self.comp.settings.max_developments
        while True:
            # one breadth-first level: every gate of a parent that comes
            # within the radius places a child at (A @ R, A @ s + t).  A
            # straight segment from the source meets a line through the
            # source only there, and every cell that holds the source is a
            # root, so a ray from it crosses a gate only when the source
            # lies strictly on the side of the parent's third vertex
            pc, pA, pt, pr = level
            corners = gates.coords[pc] @ pA.transpose(0, 2, 1) + pt[:, None]
            # the source in each parent's own coordinates
            src = np.einsum("nji,nj->ni", pA, -pt)
            w = gates.inward[pc]
            tol = _LINE_TOL * (1.0 + np.hypot(pt[:, 0], pt[:, 1]))
            faces = (np.einsum("nkj,nj->nk", w[..., :2], src) + w[..., 2]
                     > tol[:, None])
            faces[fixed] = exact[pr[fixed]]
            fixed = fixed[:0]
            near = _seg_dist_origin(corners[:, _EDGE[:, 0]],
                                    corners[:, _EDGE[:, 1]]) <= radius
            beyond.append((faces & ~near).any(axis=1))
            par, drop = np.nonzero(faces & near)
            if not len(par):
                break
            lo, hi = gates.span[pc[par], drop].T
            n = hi - lo
            par = np.repeat(par, n)
            g = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
            cA = pA[par] @ gates.R[g]
            ct = np.einsum("nij,nj->ni", pA[par], gates.s[g]) + pt[par]
            keep = _unseen(seen, gates.cid[g], cA, ct)
            if not len(keep):
                break
            level = (gates.cid[g][keep], cA[keep], ct[keep], pr[par][keep])
            levels.append(level)
            total += len(keep)
            if total > cap:
                # a tree cut short can miss the shortest path
                raise GeodesicError(
                    f"source tree truncated: {total} developments "
                    f"passed the cap max_developments={cap}")
        frontier = np.concatenate([self.frontier] + beyond[1:])
        frontier[f] = beyond[0]
        cols = [np.concatenate(col) for col in zip(
            (self.cid, self.A, self.t, self.root), *levels)] + [frontier]
        order = np.argsort(cols[0], kind="stable")
        self.cid, self.A, self.t, self.root, self.frontier = (
            col[order] for col in cols)
        where = np.argsort(order)
        self.roots = [r[:3] + (int(where[r[3]]),) for r in self.roots]
        cells, start = np.unique(self.cid, return_index=True)
        self.cells = {c: slice(a, b) for c, a, b in zip(
            cells.tolist(), start.tolist(), start[1:].tolist() + [total])}
        self.radius = radius

    def beyond(self, y: ComplexPoint) -> float:
        """Shortest chord to a placement of y past the radius, inf if none:
        the radius at which the tree next offers a candidate for y."""
        lns = [math.inf]
        for cid, bary in y.representations(self.comp):
            sl = self.cells.get(cid)
            if sl is not None:
                ps = self.A[sl] @ (bary @ self.comp.cells[cid].coords)
                lns += np.hypot(*(ps + self.t[sl]).T).tolist()
        return min(ln for ln in lns if ln > self.radius + 1e-12)

    def candidates(self, y: ComplexPoint):
        """Straight candidates (length, root_cid, root_xy, direction, chord)
        in increasing length order; deduplicated lazily so early exits stay
        cheap.  For a candidate from a root development, `chord` is the
        segment (cid, bary_x, bary_y) inside one cell holding both points;
        otherwise it is None."""
        comp = self.comp
        lns_all = []
        recs = []
        for cid, bary in y.representations(comp):
            sl = self.cells.get(cid)
            if sl is None:
                continue
            xy = np.asarray(bary) @ comp.cells[cid].coords
            ps = self.A[sl] @ xy + self.t[sl]
            lns = np.hypot(ps[:, 0], ps[:, 1])
            ok = (lns <= self.radius + 1e-12) & (lns > 1e-15)
            for pos in np.nonzero(ok)[0]:
                k = sl.start + pos
                rcid, rxy, rbary, rk = self.roots[self.root[k]]
                lns_all.append(lns[pos])
                chord = (cid, rbary, bary) if k == rk else None
                recs.append((rcid, rxy, ps[pos], chord))
        if not recs:
            return
        order = np.argsort(np.asarray(lns_all), kind="stable")
        seen = set()
        for oi in order:
            rcid, rxy, p, chord = recs[int(oi)]
            ln = lns_all[int(oi)]
            key = (rcid, round(float(ln), 10),
                   round(float(p[0]), 8), round(float(p[1]), 8))
            if key in seen:
                continue
            seen.add(key)
            yield (float(ln), rcid, rxy, p / ln, chord)


# a development's key: its cell, A and t as the bytes of 7 float64
_KEY = np.dtype((np.void, 56))


def _unseen(seen: set, cid, A, t) -> np.ndarray:
    """Indices of the placements whose (cell, A, t) rounded to 1e-9 is not
    in `seen`, first occurrences only; adds their keys to `seen`."""
    keys = np.concatenate([cid[:, None], A.reshape(-1, 4), t], axis=1)
    keys = keys.round(9) + 0.0     # one key for -0.0 and 0.0
    keep = []
    for k, key in enumerate(keys.view(_KEY).ravel().tolist()):
        if key not in seen:
            seen.add(key)
            keep.append(k)
    return np.array(keep, dtype=np.intp)


# past the roots a gate's line runs through the source only by rounding,
# measured at up to 3e-16 of the parent's distance from the source; a
# source nearer a line than this fraction counts as on it
_LINE_TOL = 1e-13

# the two vertex slots of the edge opposite slot 0, 1 and 2 of a triangle
_EDGE = np.array([(1, 2), (0, 2), (0, 1)])


def _seg_dist_origin(e0, e1) -> np.ndarray:
    """Distance from the origin to each segment e0[k] e1[k] (nondegenerate)."""
    d = e1 - e0
    f = np.clip(-np.sum(e0 * d, axis=-1) / np.sum(d * d, axis=-1), 0.0, 1.0)
    q = e0 + f[..., None] * d
    return np.hypot(q[..., 0], q[..., 1])


def _side(e0, e1, p) -> float:
    return float(np.sign((e1[0] - e0[0]) * (p[1] - e0[1])
                         - (e1[1] - e0[1]) * (p[0] - e0[0])))


def _reflect_about(u):
    return np.array([[u[0]**2 - u[1]**2, 2 * u[0] * u[1]],
                     [2 * u[0] * u[1], u[1]**2 - u[0]**2]])


def _place_cell(cell, pair, e0, e1, want_side):
    """Isometry (A, t) of `cell` placing vertex pair[0] at e0, pair[1] at e1,
    with the remaining vertex on the requested side of the gate line."""
    q0 = cell.coords[pair[0]]
    q1 = cell.coords[pair[1]]
    v_local = q1 - q0
    v_dev = e1 - e0
    nl = np.linalg.norm(v_local)
    nd = np.linalg.norm(v_dev)
    if nl < 1e-15 or abs(nl - nd) > 1e-7 * max(1.0, nd):
        raise ComplexError(f"cell {cell.cid} cannot be placed across a glued "
                           f"edge: lengths {nl!r} and {nd!r}")
    ul, ud = v_local / nl, v_dev / nd
    c = ul[0] * ud[0] + ul[1] * ud[1]
    s = ul[0] * ud[1] - ul[1] * ud[0]
    rot = np.array([[c, -s], [s, c]])
    for A in (rot, rot @ _reflect_about(ul)):
        t = e0 - A @ q0
        if np.linalg.norm(A @ q1 + t - e1) > 1e-7 * max(1.0, nd):
            continue
        others = [v for v in range(cell.nverts) if v not in pair]
        w = A @ cell.coords[others[0]] + t
        sd = _side(e0, e1, w)
        if want_side == 0.0 or sd == want_side or sd == 0.0:
            return A, t
    raise ComplexError(f"cell {cell.cid} cannot be placed across a glued "
                       "edge on its far side")


# ---------------------------------------------------------------------------
# ray walking (exact straight propagation through 2-cells)


class _RayOutcome:
    __slots__ = ("status", "segs", "cid", "xy", "vec", "counts")

    def __init__(self, status, segs, cid=None, xy=None, vec=None, counts=None):
        # "inside" | "corner" (a singular vertex, or a vertex the ray
        # starts at) | "boundary" | "stuck"
        self.status = status
        self.segs = segs
        self.cid = cid
        self.xy = xy
        self.vec = vec
        self.counts = counts or []


class GeodesicEngine:
    """Per-complex geodesic machinery; `engine(comp)` returns the one engine
    of a complex.  It builds the complex's gate table (`gates`) once: the
    only place that decides where a neighbour lands across a glued edge, for
    source trees, ray walks and `strainers`.  It owns every cache kept for
    that complex:

    * source trees, each a few arrays (`_SourceTree`): a point has one
      tree, grown in place when a query needs a larger radius; trees at
      singular vertices are kept for the engine's lifetime, others sit in
      an LRU;
    * the singular vertices (`singular_points`), decided once from the
      vertex links: a shortest path bends only there (a flat vertex has a
      Euclidean disc as neighbourhood, BH I.5), so the vertex distances of a
      tree, the vertex table and the Dijkstra layer of `_assemble` cover
      them alone, and ray walks go straight on through flat vertices;
    * the vertex table, the vertex of each cell corner (`vid_map`) and the
      connected components, which let `distance` raise `Disconnected`
      before it grows any tree;
    * links (`links.link_at`), one per open face, so the complex bounds
      their number; each keeps its spherical-tuple searches.

    `distance` answers one pair; `dist_matrix` answers a set of sources
    against a set of targets (or all pairs of one set) with the same floats.

    The tree LRU has a fixed size.  Queries mutate the caches, so
    concurrent use is not safe.  Settings are read from the complex.
    """

    def __init__(self, comp: MetricComplex):
        self.comp = comp
        self._bary = {}
        self._trees = _LRU(_TREE_CACHE_SIZE)
        # `_assemble` reaches the target from every singular vertex
        # through these
        self._vertex_trees: dict = {}
        self._vertex_points = None
        self._singular = None
        self._singular_keys = None
        # (cell, vertex slot) of the corners at flat vertices
        self._flat_corners = None
        self._vv = None
        self._vv_radius = -1.0
        self._link_cache: dict = {}
        self._vids = None
        self._components = None
        self.gates = _gate_table(comp)
        self._scale = max(
            float(np.max(c.lengths)) if c.dim > 0 else 1.0 for c in comp.cells)
        # no two points of one component are farther apart: a cell to one
        # of its vertices, every edge of the 1-skeleton, a vertex to a cell
        self._reach = 2 * self._scale + sum(
            float(np.triu(c.lengths).sum()) for c in comp.cells)

    # -- local linear algebra -------------------------------------------------

    def _solver(self, cid: int):
        if cid not in self._bary:
            cell = self.comp.cells[cid]
            M = (cell.coords[1:] - cell.coords[0]).T
            self._bary[cid] = np.linalg.inv(M)
        return self._bary[cid]

    def bary_from_xy(self, cid: int, xy) -> np.ndarray:
        cell = self.comp.cells[cid]
        lam = self._solver(cid) @ (np.asarray(xy) - cell.coords[0])
        b = np.empty(cell.nverts)
        b[1:] = lam
        b[0] = 1.0 - lam.sum()
        b = np.clip(b, 0.0, None)
        return b / b.sum()

    def bary_velocity(self, cid: int, w) -> np.ndarray:
        lam = self._solver(cid) @ np.asarray(w)
        db = np.empty(self.comp.cells[cid].nverts)
        db[1:] = lam
        db[0] = -lam.sum()
        return db

    # -- ray walking ------------------------------------------------------------

    def ray_walk_all(self, cid: int, xy, vec, length: float):
        """The straight continuations of the ray, one at a time (forking at
        faces incident to three or more 2-cells, going straight on through
        flat vertices), so a caller can stop at the first it wants.  Used to
        validate distance candidates."""
        stack = [(cid, np.asarray(xy, float), np.asarray(vec, float),
                  length, [])]
        while stack:
            yield self._ray_step(*stack.pop(), fork=stack)

    def _ray_step(self, cid, q, w, rem, segs, fork=None, counts=None):
        comp, gates = self.comp, self.gates
        while True:
            cell = comp.cells[cid]
            b = self.bary_from_xy(cid, q)
            db = self.bary_velocity(cid, w)
            t_exit = math.inf
            for i in range(cell.nverts):
                if db[i] < -1e-12:
                    ti = 0.0 if b[i] <= 1e-9 else b[i] / -db[i]
                    if ti < t_exit:
                        t_exit = ti
            if t_exit >= rem - 1e-12:
                b_end = self.bary_from_xy(cid, q + rem * w)
                return _RayOutcome("inside", segs + [(cid, b, b_end)],
                                   cid=cid, xy=q + rem * w, vec=w,
                                   counts=counts)
            q_hit = q + t_exit * w
            b_hit = self.bary_from_xy(cid, q_hit)
            zero = [i for i in range(cell.nverts)
                    if b_hit[i] <= 1e-9 and db[i] < -1e-12]
            near_zero = [i for i in range(cell.nverts) if b_hit[i] <= 1e-9]
            if len(zero) == 0:
                return _RayOutcome("stuck", segs, cid=cid, xy=q_hit, vec=w,
                                   counts=counts)
            segs = segs + [(cid, b, b_hit)]
            if len(near_zero) != 1:
                if t_exit <= 0.0 or not self._flat_corner(cid, near_zero):
                    return _RayOutcome("corner", segs, cid=cid, xy=q_hit,
                                       vec=w, counts=counts)
                # straight on through a flat vertex: the one antipode of the
                # incoming direction, as `shoot_from_state` continues there
                step: list = []
                _, cid, q, w = _continue_past(comp, cid, b_hit, -w, step)
                if counts is not None:
                    counts = counts + step
                rem -= t_exit
                continue
            lo, hi = gates.span[cid, near_zero[0]]
            if lo == hi:
                return _RayOutcome("boundary", segs, cid=cid, xy=q_hit,
                                   vec=w, counts=counts)
            # the ray enters each neighbour across the gate in its own frame
            branches = [(int(gates.cid[g]), gates.R[g].T @ (q_hit - gates.s[g]),
                         gates.R[g].T @ w) for g in range(lo, hi)]
            if counts is not None:
                counts = counts + [len(branches)]
            first = branches[0]
            if fork is not None:
                for br in branches[1:]:
                    fork.append((br[0], br[1], br[2], rem - t_exit, segs))
            cid, q, w = first
            rem -= t_exit

    def _flat_corner(self, cid: int, near_zero: list) -> bool:
        """Whether the ray's exit point, where the coordinates near_zero of
        triangle cid vanish, is a corner at a flat vertex."""
        if self._flat_corners is None:
            self.singular_points()
        return len(near_zero) == 2 and \
            (cid, 3 - sum(near_zero)) in self._flat_corners

    # -- 1-cell pieces ---------------------------------------------------------

    def _edge_positions(self, p: ComplexPoint):
        """Sorted (1-cell, position along it from slot 0, its length) of
        every 1-cell whose closure holds p.  A piece along an edge of a
        2-cell is a chord of a root development of the source tree."""
        out = []
        for cid, bary in p.representations(self.comp):
            cell = self.comp.cells[cid]
            if cell.dim == 1:
                L = float(cell.lengths[0, 1])
                out.append((cid, float(bary[1]) * L, L))
        return sorted(out)

    def _edge_piece(self, x: ComplexPoint, y: ComplexPoint):
        """(length, segments) of the shortest piece along one 1-cell whose
        closure holds x and y; (inf, None) if there is none."""
        best, segs = math.inf, None
        ey = self._edge_positions(y)
        for cid, px, L in self._edge_positions(x):
            for cy, py, _ in ey:
                if cy == cid and abs(px - py) < best:
                    best = abs(px - py)
                    segs = [(cid, np.array([1 - px / L, px / L]),
                             np.array([1 - py / L, py / L]))]
        return best, segs

    # -- trees, direct distances, threading --------------------------------------

    def _cached_tree(self, key):
        hit = self._vertex_trees.get(key)
        return hit if hit is not None else self._trees.get(key)

    def tree(self, x: ComplexPoint, radius: float) -> _SourceTree:
        """x's source tree, grown to at least `radius`; one per point."""
        key = x.key()
        t = self._cached_tree(key)
        if t is not None:
            t.grow(radius)
            return t
        t = _SourceTree(self, x, radius)
        self.singular_points()   # fills _singular_keys
        if key in self._singular_keys:
            self._vertex_trees[key] = t
        else:
            self._trees[key] = t
        return t

    def vertex_points(self) -> list[ComplexPoint]:
        if self._vertex_points is None:
            from .complexes import vertex_point
            roots = sorted(self.comp.face_classes(dim=0))
            pts = []
            seen = set()
            for r in roots:
                vp = vertex_point(self.comp, r)
                if vp.key() not in seen:
                    seen.add(vp.key())
                    pts.append(vp)
            self._vertex_points = pts
        return self._vertex_points

    def singular_points(self) -> list[ComplexPoint]:
        """The vertices whose link is not one circle of length 2*pi, in
        `vertex_points` order: the only places where a shortest path can
        bend."""
        if self._singular is None:
            from . import links
            verts = self.vertex_points()
            flat = [links.link_at(self.comp, v).is_flat() for v in verts]
            self._singular = [v for v, f in zip(verts, flat) if not f]
            self._singular_keys = {v.key() for v in self._singular}
            self._flat_corners = {c for c, i in self.vid_map().items()
                                  if flat[i]}
        return self._singular

    def vid_map(self) -> dict:
        """(cell, vertex slot) -> index of its vertex in `vertex_points`."""
        if self._vids is None:
            from .complexes import vertex_point
            comp = self.comp
            index = {v.key(): i for i, v in enumerate(self.vertex_points())}
            self._vids = {
                (cell.cid, s): index[vertex_point(
                    comp, comp.face_root(cell.cid, (s,))).key()]
                for cell in comp.cells for s in range(cell.nverts)}
        return self._vids

    def _component(self, x: ComplexPoint) -> int:
        """Label of x's connected component.  Every glued face holds a
        vertex, so cells that share a vertex are joined; once per engine."""
        if self._components is None:
            vids, up = self.vid_map(), list(range(len(self.vertex_points())))

            def find(i):
                while up[i] != i:
                    i = up[i]
                return i

            for (cid, _), v in vids.items():
                up[find(v)] = find(vids[(cid, 0)])
            self._components = [find(vids[(c.cid, 0)]) for c in self.comp.cells]
        return self._components[x.cid]

    def _local_path(self, x: ComplexPoint, y: ComplexPoint) -> float:
        """Length of the shortest path from x to y made of a segment inside
        one closed cell that holds both, or of two segments through a vertex
        of a closed cell holding x and one holding y (inf if none).  Each
        segment lies in a convex cell, so it bounds d(x, y) from above; on
        the torus or theta x S^1 a wrap-around can be shorter, so it is not
        the distance."""
        xreps = dict(x.representations(self.comp))
        best = math.inf
        for cid, ybary in y.representations(self.comp):
            if cid in xreps:
                co = self.comp.cells[cid].coords
                best = min(best,
                           float(np.linalg.norm((xreps[cid] - ybary) @ co)))

        def corners(p):
            """vertex index -> distance from p, over p's closed cells"""
            out: dict = {}
            vids = self.vid_map()
            for cid, bary in p.representations(self.comp):
                co = self.comp.cells[cid].coords
                for s, d in enumerate(
                        np.linalg.norm(co - bary @ co, axis=1).tolist()):
                    v = vids[(cid, s)]
                    out[v] = min(out.get(v, math.inf), d)
            return out

        cy = corners(y)
        return min([best] + [d + cy[v] for v, d in corners(x).items()
                             if v in cy])

    def _match_point(self, out: _RayOutcome, y: ComplexPoint) -> bool:
        tol = 1e-7 * max(1.0, self._scale)
        for cid, bary in y.representations(self.comp):
            if cid == out.cid:
                co = self.comp.cells[cid].coords
                if np.linalg.norm(np.asarray(bary) @ co - out.xy) <= tol:
                    return True
        return False

    def _direct(self, tree: _SourceTree, x: ComplexPoint, y: ComplexPoint):
        """Best single-stretch candidate (no bending at vertices).

        Returns (length, segments | None)."""
        best, best_segs = self._edge_piece(x, y)
        for (ln, rcid, rxy, u, chord) in tree.candidates(y):
            if ln >= best - 1e-15:
                break
            if chord is not None:
                # a segment inside one convex cell is a path: nothing to walk
                best, best_segs = ln, [chord]
                break
            for out in self.ray_walk_all(rcid, rxy, u, ln):
                if out.status == "inside" and self._match_point(out, y):
                    best = ln
                    best_segs = out.segs
                    break
        return best, best_segs

    def _vertex_table(self, radius: float):
        """Direct pieces between the singular vertices.  A piece no longer
        than the radius the table was built at is final: a tree of that
        radius holds every placement within it, so every candidate a larger
        tree adds is longer.  Growth re-runs `_direct` for the others only."""
        if self._vv_radius >= radius - 1e-12:
            return self._vv
        verts = self.singular_points()
        old, kept, table = self._vv_radius, self._vv or {}, {}
        for i, v in enumerate(verts):
            tv = self.tree(v, radius)
            for j, w in enumerate(verts):
                if i == j:
                    continue
                piece = kept.get((i, j))
                if piece is None or piece[0] > old:
                    piece = self._direct(tv, v, w)
                if piece[0] < math.inf:
                    table[(i, j)] = piece
        self._vv = table
        self._vv_radius = radius
        return table

    # -- public distance ----------------------------------------------------------

    def distance(self, x: ComplexPoint, y: ComplexPoint, need_path: bool = True):
        """Geodesic distance; returns (length, GeodesicPath | None)."""
        comp = self.comp
        if x == y:
            return 0.0, (_trivial_path(comp, x) if need_path else None)
        inner = self._inner_chord(x, y)
        if inner is not None:
            ln, seg = inner
            return ln, (self._finalize_path([seg], x) if need_path else None)
        if self._component(x) != self._component(y):
            raise Disconnected(
                f"no path between the given points: they lie in different "
                f"connected components ({self._component(x)} and "
                f"{self._component(y)})")
        swap = False
        tx = self._cached_tree(x.key())
        ty = self._cached_tree(y.key())
        if tx is None and ty is not None:
            x, y, tx = y, x, ty
            swap = True
        if tx is None:
            # no piece of the geodesic is longer than a path, so a tree that
            # long holds them all
            ub = self._local_path(x, y)
            tx = self.tree(x, ub * (1 + 1e-9) + 1e-12
                           if ub < math.inf else self._scale)
        while True:
            # every straight piece no longer than the radius is in the
            # tree, so a result within the radius is the distance
            res = self._assemble(tx, x, y, need_path)
            if res is not None and res[0] <= tx.radius + 1e-12:
                return self._orient(res, swap)
            if res is None and tx.radius > self._reach:
                raise GeodesicError(
                    f"no path found within radius {tx.radius:.6g}, past the "
                    f"length {self._reach:.6g} of a path through the edges")
            if res is not None:
                tx = self.tree(x, res[0] * (1 + 1e-9) + 1e-12)
            else:
                # grow to the nearest placement of y past the radius, a
                # chord but not a path; a cell in the tree lies within the
                # longest edge of the radius, so grow by that when there is
                # none, and by a quarter at least
                tx = self.tree(x, max(1.25 * tx.radius, min(
                    tx.beyond(y), tx.radius + self._scale)))

    def dist_matrix(self, xs: list, ys: list | None = None) -> np.ndarray:
        """The array of d(xs[i], ys[j]); with `ys` None the pairwise matrix
        of `xs`, each pair i < j queried once as d(xs[i], xs[j]) and
        mirrored.

        A source inside an open 2-cell takes `_inner_chord`'s rule against
        every target in that cell in one array step: a path that leaves the
        convex cell is at least as long as the distance from the source to
        the cell's boundary, so a shorter chord is the geodesic.  Every
        other pair goes through `distance`, so each entry is the float
        `distance(xs[i], ys[j], need_path=False)[0]` gives."""
        comp = self.comp
        pairwise = ys is None
        ys = xs if pairwise else ys
        out = np.zeros((len(xs), len(ys)))
        todo = np.ones(out.shape, dtype=bool)
        if pairwise:
            todo = np.triu(todo, 1)
        rows: dict = {}
        for i, x in enumerate(xs):
            if len(x.carrier) == 3:
                rows.setdefault(x.cid, []).append(i)
        cols: dict = {}
        for j, y in enumerate(ys):
            # the last representation in a cell, as `_inner_chord` reads it
            for cid, b in dict(y.representations(comp)).items():
                if cid in rows:
                    js, bs = cols.setdefault(cid, ([], []))
                    js.append(j)
                    bs.append(b)
        # x == y goes through `distance`: equal keys differ by under 1e-10
        # in each weight, so they lie this close
        same = 1e-9 * self._scale
        for cid, (js, bs) in cols.items():
            cell = comp.cells[cid]
            i, j = np.array(rows[cid]), np.array(js)
            bx = np.array([xs[k].bary for k in rows[cid]])
            d = (np.array(bs) @ cell.coords)[None] - (bx @ cell.coords)[:, None]
            ln = np.hypot(d[..., 0], d[..., 1])
            # each source's distance to its cell's boundary, as in
            # `_inner_chord`
            L = cell.lengths
            inner = 2.0 * cell.volume * np.min(
                bx / [L[1, 2], L[0, 2], L[0, 1]], axis=1)
            ii, jj = np.nonzero(todo[np.ix_(i, j)] & (ln > same)
                                & (ln + 1e-12 < inner[:, None]))
            out[i[ii], j[jj]] = ln[ii, jj]
            todo[i[ii], j[jj]] = False
        # last targets first, as `FlowTrack.diameter` queried: along a trace
        # they are the farthest, and the first query from xs[i] sizes its
        # source tree for the nearer ones that follow
        ii, jj = np.nonzero(todo[:, ::-1])
        for i, j in zip(ii.tolist(), (len(ys) - 1 - jj).tolist()):
            out[i, j] = self.distance(xs[i], ys[j], need_path=False)[0]
        return out + out.T if pairwise else out

    def _inner_chord(self, x: ComplexPoint, y: ComplexPoint):
        """(length, segment) of the chord xy when x lies inside a 2-cell
        holding y and is nearer to y than to that cell's boundary, else
        None.  A path that leaves the convex cell is at least that long, so
        the chord is the geodesic.  The length is summed as for a root
        development in `_SourceTree.candidates`, so it is the same float."""
        if len(x.carrier) != 3:
            return None
        yb = dict(y.representations(self.comp)).get(x.cid)
        if yb is None:
            return None
        cell = self.comp.cells[x.cid]
        d = yb @ cell.coords - x.bary @ cell.coords
        ln = float(np.hypot(d[0], d[1]))
        # the distance to the edge opposite vertex i is bary[i] times the
        # height 2 * area / |edge i|
        L = cell.lengths
        inner = 2.0 * cell.volume * min(
            x.bary[0] / L[1, 2], x.bary[1] / L[0, 2], x.bary[2] / L[0, 1])
        return (ln, (x.cid, x.bary, yb)) if ln + 1e-12 < inner else None

    def _orient(self, res, swap: bool):
        total, path = res
        if path is not None and swap:
            path = path.reversed()
        return total, path

    def _assemble(self, tx: _SourceTree, x: ComplexPoint, y: ComplexPoint,
                  need_path: bool):
        """Dijkstra over {source} + singular vertices + {target} with exact
        direct pieces; returns (total, path|None) or None if unreachable
        within the available trees."""
        d0, segs0 = self._direct(tx, x, y)
        verts = self.singular_points()
        if d0 == math.inf and not verts:
            return None
        to_vertex = self._to_vertex(tx, x)
        # a path that bends does so at a singular vertex, so it is at least
        # as long as the closest one: a shorter validated direct segment is
        # already optimal
        if d0 < math.inf and all(dv >= d0 - 1e-12 for dv in to_vertex):
            if not need_path:
                return d0, None
            return d0, self._finalize_path(segs0, x)
        vtable = self._vertex_table(max(tx.radius, 2.0 * self._scale))
        n = len(verts)
        SRC, DST = n, n + 1
        adj: dict[int, list] = {i: [] for i in range(n + 2)}
        meta = {}
        for i, v in enumerate(verts):
            d = to_vertex[i]
            if d < math.inf:
                adj[SRC].append((i, d))
            dy, sy = self._direct(self._vertex_trees[v.key()], v, y)
            if dy < math.inf:
                adj[i].append((DST, dy))
                meta[(i, DST)] = sy
        for (i, j), (d, segs) in vtable.items():
            adj[i].append((j, d))
            meta[(i, j)] = segs
        if d0 < math.inf:
            adj[SRC].append((DST, d0))
            meta[(SRC, DST)] = segs0
        dist, prev = _dijkstra(adj, SRC, with_prev=True)
        if DST not in dist:
            return None
        total = dist[DST]
        if not need_path:
            return total, None
        hops = []
        cur = DST
        while cur != SRC:
            p = prev[cur]
            hops.append((p, cur))
            cur = p
        hops.reverse()
        segs = []
        for hop in hops:
            if hop[0] == SRC and hop[1] != DST:
                # the source-to-vertex piece is walked again, not kept
                segs.extend(self._direct(tx, x, verts[hop[1]])[1])
            else:
                segs.extend(meta[hop])
        return total, self._finalize_path(segs, x)

    def _to_vertex(self, tx: _SourceTree, x: ComplexPoint) -> tuple:
        if tx.to_vertex is None:
            tx.to_vertex = tuple(self._direct(tx, x, v)[0]
                                 for v in self.singular_points())
        return tx.to_vertex

    def singular_within(self, x: ComplexPoint, r: float) -> list:
        """(v, d(x, v)) for the singular vertices v other than x within r
        of x.  A shortest path to one reaches its first singular vertex
        straight, so there is none unless a direct piece from x is at most
        r long; `_assemble` threads the pieces after it."""
        tx = self.tree(x, r * (1 + 1e-9) + 1e-12)
        if min(self._to_vertex(tx, x), default=math.inf) > r:
            return []
        found = [(v, self._assemble(tx, x, v, need_path=False))
                 for v in self.singular_points() if v != x]
        return [(v, res[0]) for v, res in found
                if res is not None and res[0] <= r]

    def _finalize_path(self, segs, x: ComplexPoint) -> GeodesicPath:
        comp = self.comp
        clean = []
        for cid, b0, b1 in segs:
            co = comp.cells[cid].coords
            b0 = np.asarray(b0, float)
            b1 = np.asarray(b1, float)
            if np.linalg.norm((b1 - b0) @ co) < 1e-13:
                continue
            clean.append((cid, b0, b1))
        path = GeodesicPath(comp, clean, 0.0, [0.0] * max(0, len(clean) - 1))
        path.length = sum(path.seg_lengths())
        if not clean:
            path._single = x
        return path


def _dijkstra(adj, src, with_prev=False):
    """Shortest-path lengths from src over the adjacency lists `adj`, and
    with `with_prev` the predecessor of each reached node."""
    dist = {src: 0.0}
    prev = {}
    pq = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, math.inf) + 1e-15:
            continue
        for (v, w) in adj.get(u, []):
            nd = d + w
            if nd < dist.get(v, math.inf) - 1e-15:
                dist[v] = nd
                prev[v] = u
                heapq.heappush(pq, (nd, v))
    if with_prev:
        return dist, prev
    return dist


def engine(comp: MetricComplex) -> GeodesicEngine:
    """The complex's geodesic engine, built on first use."""
    if comp._geodesic_engine is None:
        comp._geodesic_engine = GeodesicEngine(comp)
    return comp._geodesic_engine


# ---------------------------------------------------------------------------
# public operations


def distance(comp: MetricComplex, x: ComplexPoint, y: ComplexPoint):
    """Distance and a geodesic path realizing it."""
    return engine(comp).distance(x, y)


def comparison_angle(comp: MetricComplex, x: ComplexPoint, y: ComplexPoint,
                     z: ComplexPoint) -> float:
    """Euclidean comparison angle at x of the triangle xyz (kappa = 0)."""
    eng = engine(comp)
    a, _ = eng.distance(y, z, need_path=False)
    b, _ = eng.distance(x, y, need_path=False)
    c, _ = eng.distance(x, z, need_path=False)
    if b == 0.0 or c == 0.0:
        raise GeodesicError("degenerate triangle side")
    cosang = (b * b + c * c - a * a) / (2 * b * c)
    return math.acos(min(1.0, max(-1.0, cosang)))


def angle(comp: MetricComplex, x: ComplexPoint, y: ComplexPoint,
          z: ComplexPoint) -> float:
    """Angle at x between the geodesics xy and xz: the link distance of
    their directions (BH I.7), in [0, pi]."""
    if x == y or x == z:
        raise GeodesicError("degenerate: y or z equals x")
    from . import links
    return links.link_at(comp, x).dist(log_map(comp, x, y)[1],
                                       log_map(comp, x, z)[1])


def log_map(comp: MetricComplex, x: ComplexPoint, y: ComplexPoint):
    """(t, v): the distance of xy and its initial direction v, a point of
    `links.link_at(comp, x)`; (0, None) at x."""
    if x == y:
        return 0.0, None
    d, path = engine(comp).distance(x, y)
    if not path.segs:
        return d, None
    from . import links
    cid, vec = path.heading(0)
    return d, links.link_at(comp, x).locate(x, cid, path.segs[0][1], vec)


def contraction(comp: MetricComplex, x: ComplexPoint, R: float, r: float,
                y: ComplexPoint) -> ComplexPoint:
    """Point at parameter (r/R) * d(x,y) along the geodesic xy."""
    if not (0 < r <= R):
        raise GeodesicError("need 0 < r <= R")
    d, path = engine(comp).distance(x, y)
    if d == 0.0:
        return x
    return path.point_at((r / R) * d)


# ---------------------------------------------------------------------------
# shooting and extension


def shoot_from_state(comp: MetricComplex, x: ComplexPoint, state: tuple,
                     length: float):
    """Walk a local geodesic of the given length from x, starting from a
    walker state ("edge", cid, t, sgn) or ("ray", cid, xy, vec) as
    `LinkSpace.realize` produces it.

    Returns (GeodesicPath, junction_counts).  Branches are resolved
    deterministically (smallest continuation carrier); counts record the
    number of admissible continuations at each junction passed."""
    eng = engine(comp)
    segs: list = []
    counts: list[int] = []
    rem = length
    while rem > 1e-12:
        if state[0] == "ray":
            _, rcid, q, w = state
            # the first branch in (cid, slot) order at each junction
            out = eng._ray_step(rcid, np.asarray(q, float),
                                np.asarray(w, float), rem, [], counts=[])
            segs.extend(out.segs)
            counts.extend(out.counts)
            walked = sum(
                float(np.linalg.norm((np.asarray(b1) - np.asarray(b0))
                                     @ comp.cells[c].coords))
                for c, b0, b1 in out.segs)
            rem -= walked
            if out.status == "inside" or rem <= 1e-12:
                break
            state = _continue_past(comp, out.cid,
                                   eng.bary_from_xy(out.cid, out.xy),
                                   -np.asarray(out.vec), counts)
        else:
            _, ecid, tpos, sgn = state
            L = float(comp.cells[ecid].lengths[0, 1])
            target = L if sgn > 0 else 0.0
            step = min(rem, abs(target - tpos))
            npos = tpos + sgn * step
            b0 = np.array([1 - tpos / L, tpos / L])
            b1 = np.array([1 - npos / L, npos / L])
            if step > 1e-15:
                segs.append((ecid, b0, b1))
            rem -= step
            if rem <= 1e-12:
                break
            state = _continue_past(comp, ecid, b1, (-sgn,), counts)
    path = eng._finalize_path(segs, x)
    return path, counts


def _continue_past(comp, cid, bary, back, counts):
    """Continuation states at the point hit = (cid, bary) at link distance
    >= pi from the direction `back` there, a vector in cell cid."""
    from . import links
    hit = ComplexPoint(comp, cid, bary)
    L = links.link_at(comp, hit)
    conts = links.antipodes(L, L.locate(hit, cid, bary, back),
                            comp.settings.angle_tolerance * 10 + 1e-9)
    states = [L.realize(p, hit) for p in conts]
    if not states:
        raise NoContinuation(f"no continuation at {hit!r} within tolerance")
    states.sort(key=_state_order)
    counts.append(len(states))
    return states[0]


def _state_order(state):
    if state[0] == "edge":
        return (state[1], 0, (state[3],))
    return (state[1], 1, tuple(np.round(state[3], 9)))


def extend_geodesic(comp: MetricComplex, path: GeodesicPath, delta: float):
    """Extend a verified local geodesic by arclength delta beyond its end.

    Returns (extended_path, continuation_count, per_junction_counts)."""
    if not path.is_local_geodesic(comp.settings.angle_tolerance):
        raise GeodesicError("input path fails the local-geodesic certificate")
    if not path.segs:
        raise GeodesicError("cannot extend a trivial path")
    # the walker state of the last segment's direction at its end
    cid, vec = path.heading(-1)
    cell = comp.cells[cid]
    b1 = np.asarray(path.segs[-1][2])
    if cell.dim == 1:
        state = ("edge", cid, float(b1[1]) * float(cell.lengths[0, 1]),
                 1.0 if vec[0] >= 0 else -1.0)
    else:
        state = ("ray", cid, b1 @ cell.coords, vec)
    tail, counts = shoot_from_state(comp, path.end, state, delta)
    ext = concatenate(path, tail)
    branching = [c for c in counts if c > 1]
    return ext, (branching[0] if branching else 1), counts


# ---------------------------------------------------------------------------
# sampled tests and helpers


def uniform_point(comp: MetricComplex, rng: np.random.Generator) -> ComplexPoint:
    """Uniform random point of the top-dimensional part."""
    cells = [c for c in comp.cells if c.dim == comp.dim]
    vols = np.array([max(c.volume, 1e-300) for c in cells])
    idx = int(rng.choice(len(cells), p=vols / vols.sum()))
    cell = cells[idx]
    b = rng.dirichlet(np.ones(cell.nverts))
    return ComplexPoint(comp, cell.cid, b)


def cat_sample_test(comp: MetricComplex, region, n: int,
                    rng: np.random.Generator | None = None) -> dict:
    """Sampled comparison test over n random triangles: worst excess of the
    measured angle over the comparison angle, and of the midpoint distance
    over the comparison median.  `region` is a point sampler or None."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    eng = engine(comp)
    sampler = region if callable(region) else (lambda g: uniform_point(comp, g))
    worst_angle = 0.0
    worst_mid = 0.0
    for _ in range(n):
        x, y, z = sampler(rng), sampler(rng), sampler(rng)
        if x == y or x == z or y == z:
            continue
        try:
            ang = angle(comp, x, y, z)
            comp_ang = comparison_angle(comp, x, y, z)
        except GeodesicError:
            continue
        worst_angle = max(worst_angle, ang - comp_ang)
        dyz, pyz = eng.distance(y, z)
        m = pyz.point_at(dyz / 2.0)
        dxm, _ = eng.distance(x, m, need_path=False)
        b, _ = eng.distance(x, y, need_path=False)
        c, _ = eng.distance(x, z, need_path=False)
        med = math.sqrt(max(0.0, (2 * b * b + 2 * c * c - dyz * dyz) / 4.0))
        worst_mid = max(worst_mid, dxm - med)
    return {"worst_angle_excess": worst_angle,
            "worst_midpoint_excess": worst_mid}


def log_almost_isometry_check(comp: MetricComplex, x: ComplexPoint,
                              eps: float, radii=None, n_pairs: int = 40,
                              rng: np.random.Generator | None = None) -> float:
    """Largest tested radius r such that sampled pairs y1, y2 in B_r(x)
    satisfy |d(y1,y2) - d_cone(log y1, log y2)| <= eps * r."""
    from . import links
    rng = rng or np.random.default_rng(comp.settings.seed)
    eng = engine(comp)
    L = links.link_at(comp, x)
    if radii is None:
        radii = [0.4, 0.2, 0.1, 0.05]
    best = 0.0
    for r in sorted(radii):
        pts = ball_samples(comp, x, r, 2 * n_pairs, rng)
        ok = True
        for _ in range(n_pairs):
            i, j = rng.integers(0, len(pts), size=2)
            y1, y2 = pts[int(i)], pts[int(j)]
            if y1 == y2:
                continue
            d12, _ = eng.distance(y1, y2, need_path=False)
            t1, v1 = log_map(comp, x, y1)
            t2, v2 = log_map(comp, x, y2)
            if v1 is None or v2 is None:
                dc = abs(t1 - t2)
            else:
                a = L.dist(v1, v2)
                dc = math.sqrt(max(
                    0.0, t1 * t1 + t2 * t2 - 2 * t1 * t2 * math.cos(a)))
            if abs(d12 - dc) > eps * r + 1e-9:
                ok = False
                break
        if ok:
            best = max(best, r)
    return best


def ball_samples(comp: MetricComplex, x: ComplexPoint, r: float, n: int,
                 rng: np.random.Generator) -> list[ComplexPoint]:
    """n points drawn uniformly from the top-dimensional part of B_r(x),
    each within r of x, from the pieces `strata` sums its mass over.

    On a graph a point is drawn uniformly from the exact intervals of the
    ball on the edges.  On a 2-complex a draw from the disk cover of the
    ball, held by m of its disks, is kept with probability 1/m when it lies
    within r of x.  Raises GeodesicError when the ball has no
    top-dimensional mass."""
    from . import strata
    if comp.dim == 1:
        pieces = strata.ball_intervals_1d(comp, x, r)
        lens = np.array([b - a for _, a, b in pieces])
        if not lens.sum() > 0:
            raise GeodesicError(f"B_{r:g}({x!r}) has no 1-dimensional mass")
        out = []
        for k, f in zip(rng.choice(len(pieces), size=n, p=lens / lens.sum()),
                        rng.random(n)):
            cid, a, b = pieces[int(k)]
            t = (a + f * (b - a)) / float(comp.cells[cid].lengths[0, 1])
            out.append(ComplexPoint(comp, cid, np.array([1.0 - t, t])))
        return out
    cover = strata.BallCover(comp, x, r)
    if not cover.disks:
        raise GeodesicError(f"B_{r:g}({x!r}) has no 2-dimensional mass")
    eng = engine(comp)
    out = []
    while len(out) < n:
        cid, q, m = cover.draw(rng)
        if m > 1 and rng.random() * m >= 1.0:
            continue
        y = ComplexPoint(comp, cid, eng.bary_from_xy(cid, q))
        if eng.distance(x, y, need_path=False)[0] <= r:
            out.append(y)
    return out
