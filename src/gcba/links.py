"""Spaces of directions as metric graphs with the angle metric.

Complexes have dimension <= 2 (load rejects higher ones), so every link is an
exact metric graph: nodes are directions along incident edges, arcs are the
planar corner angles of incident 2-cells (an interior point of a 2-cell gets
a full circle, an edge-interior point two poles joined by one length-pi arc
per incident cell).  All distances are clamped at pi, the diameter of any
nontrivial space of directions.

A link belongs to an open face, not to a point: every point of an open cell
sigma has the same space of directions, the spherical join
S^(dim sigma - 1) * Lk(sigma) (Bridson-Haefliger I.7).  `link_at` builds one
`LinkSpace` per open face and keeps it on the geodesic engine, and the
spherical-tuple search is kept on the link.  A link holds no point's
coordinates: each node and arc records a cell slot of the face (an index into
`ComplexPoint.representations`) and a direction in that cell, and
`LinkSpace.realize(p, x)` turns a link point into a walker state at the point
x of the face from x's barycentric coordinates in that slot.

A link point is the one form of a direction at a point: `geodesics.log_map`
returns the direction of a geodesic as the link point that
`LinkSpace.locate(x, cid, bary, vec)` finds for the vector of its first
segment, and the angle between two geodesics is the link distance of their
directions (BH I.7).

Point sets are held in one array form, `_Form`: per point its arc (negative
for a node) and its distances t, tj along it to the arc's ends i, j.  The
metric has one implementation, `LinkSpace.dist_matrix`: a point's row of
distances to the nodes is min(t + D[i], tj + D[j]) over the node-distance
matrix D (a node's row is its row of D), and its distance to a point s along
arc b is min(row[b.i] + s, row[b.j] + (len_b - s)), or |t - s| if smaller
and both lie on b; `raw_dist` and `dist` are its 1x1 case.  Along an arc the
distance is the min of four lines, linear between the breakpoints `_knots`
finds, so suprema of w -> d(v,w) + d(w,vbar), antipode sets and distance
rings are solved exactly and the delta-spherical checks below are exhaustive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexes import ComplexPoint, MetricComplex
from .geodesics import _dijkstra, engine

PI = math.pi
# slopes of the four lines whose min is t -> raw_dist(x, ("arc", a, t)): from
# end i, from end j, and the two branches of |t - t_x| when x lies on arc a
_SLOPES = np.array([1.0, -1.0, -1.0, 1.0])


class LinkError(Exception):
    pass


@dataclass
class _Node:
    label: tuple         # deterministic ordering key
    slot: int            # cell slot of the face holding this direction
    vec: np.ndarray | float  # unit vector in a 2-cell, or sign along a 1-cell


@dataclass
class _Arc:
    i: int
    j: int
    length: float
    slot: int            # cell slot of the face at the 2-cell corner
    b1: np.ndarray       # direction at t = 0
    bp: np.ndarray       # unit perpendicular toward the arc


class _Form(NamedTuple):
    """Link points in array form: point k lies on arc arc[k] at distances
    off[k] = (t, length - t) from its ends end[k] = (i, j).  A node n has
    arc -1 - n (equal only to itself), ends (n, n) and offsets (0, inf)."""
    arc: np.ndarray      # (P,)
    end: np.ndarray      # (P, 2)
    off: np.ndarray      # (P, 2)


def _cat(*forms: _Form) -> _Form:
    return _Form(*(np.concatenate(cols) for cols in zip(*forms)))


def _point(F: _Form, k: int) -> tuple:
    """The link point at index k of F."""
    return (("node", int(F.end[k, 0])) if F.arc[k] < 0
            else ("arc", int(F.arc[k]), float(F.off[k, 0])))


class LinkSpace:
    """The space of directions at every point of an open face, with angular
    metric (<= pi).

    Points of the link are ("node", i) or ("arc", a, t) with t in
    [0, arc length].  A slot of a node or arc indexes the face's cell slots
    in `ComplexPoint.representations` order.  `_tuples` keeps the results of
    `find_spherical_tuple` by (k, delta).
    """

    def __init__(self, comp: MetricComplex, face: tuple,
                 nodes: list[_Node], arcs: list[_Arc]):
        self.comp = comp
        self.face = face
        self.nodes = nodes
        self.arcs = arcs
        self._tuples: dict = {}
        self._ends = np.array([(a.i, a.j) for a in arcs],
                              dtype=np.intp).reshape(-1, 2)
        self._len = np.array([a.length for a in arcs], dtype=float)
        self._D = self._node_dists()
        self._node_form = self._form([("node", n) for n in range(len(nodes))])

    # -- metric -------------------------------------------------------------

    def _adjacency(self, skip: int | None = None) -> dict[int, list]:
        """Node -> [(neighbour, arc length)] over every arc but `skip`."""
        adj: dict[int, list] = {}
        for k, a in enumerate(self.arcs):
            if k != skip:
                adj.setdefault(a.i, []).append((a.j, a.length))
                adj.setdefault(a.j, []).append((a.i, a.length))
        return adj

    def _node_dists(self) -> np.ndarray:
        n = len(self.nodes)
        D = np.full((n, n), math.inf)
        np.fill_diagonal(D, 0.0)
        adj = self._adjacency()
        for s in range(n):
            for t, d in _dijkstra(adj, s).items():
                D[s, t] = d
        # the searches from the two ends of a path may sum its arcs in
        # different orders; one value keeps the metric symmetric
        return np.minimum(D, D.T)

    def _form(self, pts) -> _Form:
        """Array form of a list of link points."""
        a = np.array([(-1 - p[1], p[1], p[1], 0.0, math.inf)
                      if p[0] == "node" else
                      (p[1], self.arcs[p[1]].i, self.arcs[p[1]].j, p[2],
                       self.arcs[p[1]].length - p[2]) for p in pts],
                     dtype=float).reshape(-1, 5)
        return _Form(a[:, 0].astype(np.intp), a[:, 1:3].astype(np.intp),
                     a[:, 3:])

    def _on_arcs(self, arc: np.ndarray, t: np.ndarray) -> _Form:
        """Array form of the points ("arc", arc[k], t[k])."""
        return _Form(arc, self._ends[arc],
                     np.stack([t, self._len[arc] - t], axis=-1))

    def _rows(self, F: _Form) -> np.ndarray:
        """Raw distances from each point of F to every node."""
        X = self._D[F.end] + F.off[..., None]
        return np.minimum(X[:, 0], X[:, 1])

    def dist_matrix(self, P, Q, cap: float = PI) -> np.ndarray:
        """Distances from each point of P (rows) to each point of Q
        (columns), clamped at cap (math.inf for raw distances).  P and Q are
        lists of link points or `_Form`s.  Entry (p, q) is summed from p's
        row, so entry (q, p) can differ from it in the last bit."""
        P = P if isinstance(P, _Form) else self._form(P)
        Q = Q if isinstance(Q, _Form) else self._form(Q)
        X = self._rows(P)[:, Q.end] + Q.off
        M = np.minimum(X[..., 0], X[..., 1])
        same = P.arc[:, None] == Q.arc
        if same.any():
            M = np.where(same, np.minimum(
                M, np.abs(P.off[:, :1] - Q.off[:, 0])), M)
        return np.minimum(M, cap)

    def raw_dist(self, p, q) -> float:
        return float(self.dist_matrix([p], [q], math.inf)[0, 0])

    def dist(self, p, q) -> float:
        return float(self.dist_matrix([p], [q])[0, 0])

    def _knots(self, F: _Form, caps: bool = False):
        """Breakpoints inside every arc a of t -> raw_dist(x, ("arc", a, t))
        for each point x of F, as an (X, A, 4) array (X, A, 8 with caps), nan
        where absent, and the (X, A) mask of the arcs x reaches.  The distance
        is the min of four lines alpha + slope * t (`_SLOPES`; a line is
        absent when x misses the arc's end or the arc), so it is linear
        between their crossings; `caps` adds where each line reaches pi."""
        R = self._rows(F)
        tx = np.where(F.arc[:, None] == np.arange(len(self.arcs)),
                      F.off[:, :1], np.nan)
        al = np.stack([R[:, self._ends[:, 0]], R[:, self._ends[:, 1]]
                       + self._len, tx, -tx], axis=-1)
        al[np.isinf(al)] = np.nan      # an end x does not reach
        # each rising line (0, 3) against each falling one (1, 2)
        kn = (al[..., [1, 2, 1, 2]] - al[..., [0, 0, 3, 3]]) / 2.0
        if caps:
            kn = np.concatenate([kn, (PI - al) / _SLOPES], axis=-1)
        inside = (kn > 0) & (kn < self._len[:, None])
        return np.where(inside, kn, np.nan), ~np.isnan(al).all(axis=-1)

    def _profile(self, v, cap: float):
        """Distances from v, clamped at cap: to each node (a list), and along
        each arc v reaches as (arc, breakpoints, distances there); between
        consecutive breakpoints the raw distance is linear."""
        V = self._form([v])
        kn, reach = self._knots(V)
        arcs = np.flatnonzero(reach[0])
        bps = [sorted({0.0, self.arcs[a].length,
                       *kn[0, a][~np.isnan(kn[0, a])].tolist()})
               for a in arcs.tolist()]
        along = self._on_arcs(np.repeat(arcs, [len(b) for b in bps]),
                              np.array([t for b in bps for t in b]))
        d = self.dist_matrix(V, _cat(self._node_form, along), cap)[0].tolist()
        cut = np.cumsum([len(self.nodes)] + [len(b) for b in bps]).tolist()
        return d[:cut[0]], [(a, b, d[c0:c1]) for a, b, c0, c1
                            in zip(arcs.tolist(), bps, cut, cut[1:])]

    def diameter(self) -> float:
        pts = self.samples(PI / 24)
        M = self.dist_matrix(pts, pts)
        return float(M[np.triu_indices(len(pts), 1)].max(initial=0.0))

    def girth(self) -> float:
        """Length of the shortest cycle of the underlying metric graph
        (math.inf for forests)."""
        best = math.inf
        for skip, a in enumerate(self.arcs):
            if a.i == a.j:
                best = min(best, a.length)
                continue
            # shortest i->j path avoiding this arc
            dist = _dijkstra(self._adjacency(skip), a.i)
            if a.j in dist:
                best = min(best, a.length + dist[a.j])
        return best

    def geodesically_complete(self, tol: float = 1e-9) -> bool:
        """Every node admits a continuation at angle pi (has an antipode)."""
        for i in range(len(self.nodes)):
            if not self.antipode_regions(("node", i), tol):
                return False
        return True

    def betti(self) -> tuple[int, int]:
        """(components, cycle rank) of the underlying graph."""
        n = len(self.nodes)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a in self.arcs:
            ri, rj = find(a.i), find(a.j)
            if ri != rj:
                parent[ri] = rj
        b0 = len({find(i) for i in range(n)})
        b1 = len(self.arcs) - n + b0
        return b0, b1

    def is_flat(self) -> bool:
        """True when the link is one circle of length 2*pi (within 1e-12):
        connected, every node an end of exactly two arcs.  A vertex with
        such a link has a Euclidean disc as neighbourhood."""
        deg = np.bincount(self._ends.ravel(), minlength=len(self.nodes))
        return (len(self.nodes) > 0 and bool(np.all(deg == 2))
                and self.betti()[0] == 1
                and abs(float(self._len.sum()) - 2 * PI) <= 1e-12)

    # -- sampling -------------------------------------------------------------

    def samples(self, resolution: float):
        pts = [("node", i) for i in range(len(self.nodes))]
        for ai, a in enumerate(self.arcs):
            m = max(1, int(math.ceil(a.length / resolution)))
            for k in range(1, m):
                pts.append(("arc", ai, a.length * k / m))
        return pts

    # -- exact sup of d(v, .) + d(., vbar) -------------------------------------

    def max_sum(self, v, vbars):
        """Exact sup and argmax of w -> dist(v,w) + dist(w,vbar) for each vbar
        of vbars, as (array of sups, list of argmaxes).  The sum is linear
        between the breakpoints of both distances and the points where either
        reaches the pi cap, so it is evaluated at the nodes, the arc ends and
        those points: v's serve every vbar, each vbar's own serve it alone."""
        V, B = self._form([v]), self._form(vbars)
        m, A = len(vbars), len(self.arcs)
        kn, _ = self._knots(_cat(V, B), caps=True)
        ts = np.concatenate([np.zeros((A, 1)), self._len[:, None], kn[0]], 1)
        sa, sk = np.nonzero(~np.isnan(ts))
        W = _cat(self._node_form, self._on_arcs(sa, ts[sa, sk]))
        own = self._on_arcs(np.broadcast_to(np.arange(A)[:, None],
                                            kn[1:].shape).ravel(),
                            kn[1:].ravel())
        nw, k = len(W.arc), A * kn.shape[2]
        WO = _cat(W, own)
        d1 = self.dist_matrix(V, _cat(B, WO))[0]   # from v to B, W, own
        d2 = self.dist_matrix(WO, B)                # from W and own to B
        so = (d1[m + nw:] +
              d2[nw + np.arange(m * k), np.repeat(np.arange(m), k)])
        s = np.concatenate([d1[None, :m], d1[m:m + nw, None] + d2[:nw],
                            np.where(np.isnan(so), -math.inf, so)
                            .reshape(m, k).T])
        best = np.argmax(s, axis=0)
        args = [_point(WO, r - 1 + (c * k if r > nw else 0)) if r else
                vbars[c] for c, r in enumerate(best.tolist())]
        return s[best, np.arange(m)], args

    # -- antipodes ---------------------------------------------------------------

    def antipode_regions(self, v, tol: float):
        """Clusters of {w : d(v,w) >= pi - tol}: list of clusters, each a dict
        with point lists, a representative (max distance) and a center."""
        thresh = PI - tol
        node_d, along = self._profile(v, PI)
        # (kind, data, dmax, argmax)
        items = [("node", i, d, ("node", i))
                 for i, d in enumerate(node_d) if d >= thresh]
        for ai, bps, f in along:
            for t0, t1, f0, f1 in zip(bps, bps[1:], f, f[1:]):
                # linear on [t0, t1]
                lo, hi = None, None
                if f0 >= thresh and f1 >= thresh:
                    lo, hi = t0, t1
                elif f0 >= thresh or f1 >= thresh:
                    tc = t0 + (thresh - f0) / (f1 - f0) * (t1 - t0)
                    lo, hi = (t0, tc) if f0 >= thresh else (tc, t1)
                if lo is not None:
                    dmax = max(f0 if lo == t0 else thresh,
                               f1 if hi == t1 else thresh)
                    argt = (lo if (f0 >= f1) else hi)
                    items.append(("interval", (ai, lo, hi), dmax,
                                  ("arc", ai, argt)))
        if not items:
            return []
        # cluster items whose end points touch, by transitive closure
        ends = [[("node", it[1])] if it[0] == "node" else
                [("arc", it[1][0], it[1][1]), ("arc", it[1][0], it[1][2])]
                for it in items]
        pts = [p for e in ends for p in e]
        one = np.repeat(np.eye(len(items)), [len(e) for e in ends], axis=0)
        touch = one.T @ (self.dist_matrix(pts, pts, math.inf) <= 1e-9) @ one
        link = np.triu(touch > 0, 1)
        link |= link.T | np.eye(len(items), dtype=bool)
        for _ in range(len(items).bit_length()):
            link = link @ link
        clusters: dict[int, list] = {}
        for it, root in zip(items, np.argmax(link, axis=1).tolist()):
            clusters.setdefault(root, []).append(it)
        out = []
        for members in clusters.values():
            rep = max(members, key=lambda it: it[2])
            centers = [("node", it[1]) if it[0] == "node" else
                       ("arc", it[1][0], 0.5 * (it[1][1] + it[1][2]))
                       for it in members]
            out.append({"members": members, "rep": rep[3],
                        "max_dist": rep[2], "centers": centers})
        return out

    # -- locating and realizing directions ---------------------------------------

    def _slot(self, x: ComplexPoint, slot: int):
        """(cid, barycentric coordinates) of x, a point of this link's face,
        in the face's cell slot `slot`."""
        if (x.cid, x.carrier) != self.face:
            raise LinkError(f"{x!r} does not lie on this link's open face")
        return x.representations(self.comp)[slot]

    def locate(self, x: ComplexPoint, cid: int, bary, vec) -> tuple:
        """Link point of the direction `vec` at x, a point of this link's
        face: a unit vector in the 2-cell cid, or a 1-vector whose sign
        points along the 1-cell cid.  `bary` are x's barycentric coordinates
        in cid; they pick the slot when x's face meets cid in several."""
        cell = self.comp.cells[cid]
        if cell.dim == 1:
            sgn = 1.0 if vec[0] >= 0 else -1.0
            for i, nd in enumerate(self.nodes):
                scid, b = self._slot(x, nd.slot)
                if scid == cid and nd.vec == sgn and abs(
                        b[1] - bary[1]) * cell.lengths[0, 1] < 1e-6:
                    return ("node", i)
            raise LinkError("1-cell direction not represented in this link")
        anchor_xy = np.asarray(bary) @ cell.coords
        best = None
        for ai, a in enumerate(self.arcs):
            scid, b = self._slot(x, a.slot)
            if scid != cid or np.linalg.norm(
                    b @ cell.coords - anchor_xy) > 1e-7:
                continue
            c = float(np.dot(vec, a.b1))
            s = float(np.dot(vec, a.bp))
            t = math.atan2(s, c)
            if -1e-7 <= t <= a.length + 1e-7:
                t = min(max(t, 0.0), a.length)
                err = abs(1.0 - math.hypot(c, s))
                if best is None or err < best[0]:
                    best = (err, ("arc", ai, t))
            elif t < 0 and t + 2 * PI <= a.length + 1e-7:
                best = (0.0, ("arc", ai, min(t + 2 * PI, a.length)))
        if best is not None:
            p = best[1]
            ai, t = p[1], p[2]
            a = self.arcs[ai]
            if t <= 1e-9:
                return ("node", a.i)
            if t >= a.length - 1e-9:
                return ("node", a.j)
            return p
        raise LinkError("direction could not be located in the link")

    def realize(self, p, x: ComplexPoint) -> tuple:
        """Walker state at x, a point of this link's face, for the link point
        p: ("edge", cid, t, sgn) along a 1-cell or ("ray", cid, xy, vec)."""
        if p[0] == "node":
            nd = self.nodes[p[1]]
            slot, vec = nd.slot, nd.vec
        else:
            a = self.arcs[p[1]]
            slot = a.slot
            vec = math.cos(p[2]) * a.b1 + math.sin(p[2]) * a.bp
        cid, b = self._slot(x, slot)
        cell = self.comp.cells[cid]
        if cell.dim == 1:
            return ("edge", cid, float(b[1]) * float(cell.lengths[0, 1]), vec)
        return ("ray", cid, b @ cell.coords, vec)


# ---------------------------------------------------------------------------
# construction


def link_at(comp: MetricComplex, x: ComplexPoint) -> LinkSpace:
    """The space of directions at x: the link of x's open face.  Points are
    stored in root form, so (x.cid, x.carrier) names that face; the geodesic
    engine keeps one link per open face."""
    face = (x.cid, x.carrier)
    cache = engine(comp)._link_cache
    L = cache.get(face)
    if L is None:
        L = cache[face] = _face_link(comp, face)
    return L


def _face_link(comp: MetricComplex, face: tuple) -> LinkSpace:
    """The link of the open face (cid, carrier), given in root form."""
    cid, carrier = face
    cell = comp.cells[cid]
    nodes, arcs = [], []
    if len(carrier) < cell.nverts:
        root = comp.face_root(cid, carrier)
        build = _edge_interior_link if len(carrier) == 2 else _vertex_link
        nodes, arcs = build(comp, root)
    elif cell.dim == 2:
        # interior of a 2-cell: circle of length 2*pi
        b1 = np.array([1.0, 0.0])
        bp = np.array([0.0, 1.0])
        nodes = [_Node(label=("circle", cid), slot=0, vec=b1)]
        arcs = [_Arc(0, 0, 2 * PI, 0, b1, bp)]
    elif cell.dim == 1:
        # interior of a maximal 1-cell: two poles
        nodes = [_Node(label=("pole", cid, sgn), slot=0, vec=float(sgn))
                 for sgn in (+1, -1)]
    return LinkSpace(comp, face, nodes, arcs)


def _edge_interior_link(comp: MetricComplex, root: tuple):
    """Two poles joined by one arc of length pi per incident 2-cell slot."""
    members = comp.face_class_members(root)
    arcs = []
    for (mcid, mtup) in sorted(members):
        if comp.cells[mcid].dim != 2:
            continue
        mcorr = comp.face_corr(mcid, mtup)
        co = comp.cells[mcid].coords
        root_to_m = {mcorr[p]: mtup[p] for p in range(2)}
        v0, v1 = root_to_m[root[1][0]], root_to_m[root[1][1]]
        opp = next(v for v in range(3) if v not in mtup)
        u = co[v1] - co[v0]
        u = u / np.linalg.norm(u)
        w = co[opp] - co[v0]
        wp = w - np.dot(w, u) * u
        wp = wp / np.linalg.norm(wp)
        arcs.append(_Arc(0, 1, PI, members.index((mcid, mtup)), u, wp))
    # the poles are the +-u rays of the first arc: the smallest incident
    # slot, oriented by the root tuple
    nodes = [_Node(label=("pole", sgn), slot=arcs[0].slot,
                   vec=sgn * arcs[0].b1) for sgn in (+1, -1)]
    return nodes, arcs


def _vertex_link(comp: MetricComplex, root: tuple):
    """Nodes: directions along incident 1-faces and 1-cells; arcs: 2-cell
    corner angles between their side directions."""
    members = comp.face_class_members(root)
    node_index: dict[tuple, int] = {}
    nodes: list[_Node] = []
    arcs: list[_Arc] = []

    def node_for(edge_key, end: int, slot: int, vec) -> int:
        key = (edge_key, end)
        if key not in node_index:
            node_index[key] = len(nodes)
            nodes.append(_Node(label=key, slot=slot, vec=vec))
        return node_index[key]

    # incident 1-faces via 2-cell corners, and the corner arcs
    for (mcid, mtup) in sorted(members):
        cell = comp.cells[mcid]
        if cell.dim != 2:
            continue
        slot = members.index((mcid, mtup))
        v = mtup[0]
        others = [w for w in range(cell.nverts) if w != v]
        co = cell.coords
        side_nodes = []
        side_vecs = []
        for w in others:
            etup = tuple(sorted((v, w)))
            eroot = comp.face_root(mcid, etup)
            ecorr = comp.face_corr(mcid, etup)
            pos = etup.index(v)
            end = eroot[1].index(ecorr[pos])
            u = co[w] - co[v]
            u = u / np.linalg.norm(u)
            side_nodes.append(node_for(("face", eroot), end, slot, u))
            side_vecs.append(u)
        theta = comp.corner_angle(mcid, v, others[0], others[1])
        b1 = side_vecs[0]
        w2 = side_vecs[1] - np.dot(side_vecs[1], b1) * b1
        bp = w2 / np.linalg.norm(w2)
        arcs.append(_Arc(side_nodes[0], side_nodes[1], theta, slot, b1, bp))
    # incident maximal 1-cells, leaving their end 0 forward and end 1 back
    for slot in sorted(range(len(members)), key=lambda m: members[m][0]):
        mcid, (end,) = members[slot]
        if comp.cells[mcid].dim == 1:
            node_for(("cell", mcid), end, slot, (1.0, -1.0)[end])
    # isolated 1-faces of 2-cells with no corner at x cannot occur: every
    # 1-face containing x meets x at a corner of each incident 2-cell.
    return nodes, arcs


# ---------------------------------------------------------------------------
# operations


def antipodes(L: LinkSpace, v, tol: float):
    """Representatives (one per connectivity cluster) of the set of
    directions at distance >= pi - tol from v."""
    if not L.nodes:
        raise LinkError("empty link")
    regions = L.antipode_regions(v, tol)
    return [r["rep"] for r in regions]


def is_delta_spherical(L: LinkSpace, v, vbar, delta: float,
                       margin: float = 1e-9):
    """Exhaustive check of sup_w [d(v,w) + d(w,vbar)] < pi + delta.

    Returns (ok, worst_witness, sup_value)."""
    sups, args = L.max_sum(v, [vbar])
    s = float(sups[0])
    return (s < PI + delta - margin), args[0], s


def _best_opposite(L: LinkSpace, v):
    """Candidate vbar minimizing the sup of the two-sided sum, with that
    sup: the centres and representatives of v's far regions, else every
    node."""
    cands = [c for r in L.antipode_regions(v, PI / 2)
             for c in r["centers"] + [r["rep"]]]
    cands = cands or [("node", i) for i in range(len(L.nodes))]
    if not cands:
        return None, math.inf
    sups, _ = L.max_sum(v, cands)
    i = int(np.argmin(sups))
    return cands[i], float(sups[i])


def ring_points(L: LinkSpace, v, rho: float):
    """Exact points at raw link distance rho from v (solved per arc)."""
    node_d, along = L._profile(v, math.inf)
    out = [("node", i) for i, d in enumerate(node_d) if abs(d - rho) <= 1e-12]
    for ai, bps, f in along:
        for t0, t1, f0, f1 in zip(bps, bps[1:], f, f[1:]):
            if (f0 - rho) * (f1 - rho) <= 0 and f0 != f1:
                t = t0 + (rho - f0) / (f1 - f0) * (t1 - t0)
                out.append(("arc", ai, min(max(t, 0.0), L.arcs[ai].length)))
    return out


def find_spherical_tuple(L: LinkSpace, k: int, delta: float):
    """Search for a delta-spherical k-tuple with opposites.

    Candidates come from a coarse link sample plus exact ring points at
    distance ~pi/2 around accepted members, so successes are certified by
    the exact sup check while the scan stays cheap.  Returns
    {"v": (...), "vbar": (...)} or None.  The result depends on L alone, so
    it is kept on L and served to every point of L's open face."""
    key = (k, delta)
    if key not in L._tuples:
        L._tuples[key] = _search_tuple(L, k, delta)
    return L._tuples[key]


def _search_tuple(L: LinkSpace, k: int, delta: float):
    margin = L.comp.settings.strict_margin
    pts = L.samples(max(L.comp.settings.angular_resolution, PI / 60))
    if not pts:
        return None
    pts = _farthest_point_order(L, pts)
    adm_cache: dict = {}

    def adm(p):
        if p not in adm_cache:
            vbar, s = _best_opposite(L, p)
            adm_cache[p] = (vbar, s) if (
                vbar is not None and s < PI + delta - margin) else None
        return adm_cache[p]

    win_hi = PI / 2 + delta - margin
    chosen: list = []
    rings_made = [0]

    def extend(cands) -> bool:
        if len(chosen) == k:
            return True
        # candidates p in the pi/2 window of every chosen pair (q, bq) ...
        qs, bqs = [c[0] for c in chosen], [c[1] for c in chosen]
        near = L.dist_matrix(cands, qs + bqs)
        fit = (np.all(near < win_hi, axis=1) &
               np.all(near[:, :len(chosen)] > PI / 2 - 2 * delta, axis=1))
        for p, p_fits in zip(cands, fit.tolist()):
            a = adm(p) if p_fits else None
            # ... whose opposite is in it too
            if a is None or chosen and not (
                    np.all(L.dist_matrix(qs, [a[0]]) < win_hi)
                    and np.all(L.dist_matrix([a[0]], bqs) < win_hi)):
                continue
            chosen.append((p, a[0]))
            nxt = list(cands)
            if len(chosen) < k and rings_made[0] < 12:
                rings_made[0] += 1
                nxt = (ring_points(L, p, PI / 2) + ring_points(
                    L, p, PI / 2 - min(delta / 2, PI / 8)) + nxt)
            if extend(nxt):
                return True
            chosen.pop()
        return False

    if extend(pts):
        return {"v": tuple(c[0] for c in chosen),
                "vbar": tuple(c[1] for c in chosen)}
    return None


def _farthest_point_order(L: LinkSpace, pts):
    """pts reordered greedily, each next point farthest from those before."""
    M = L.dist_matrix(pts, pts)
    left = np.arange(len(pts)) > 0
    near = M[:, 0]
    order = [0]
    for _ in range(len(pts) - 1):
        i = int(np.argmax(np.where(left, near, -1.0)))
        order.append(i)
        left[i] = False
        near = np.minimum(near, M[:, i])
    return [pts[i] for i in order]


def suspension_proximity(L: LinkSpace, k: int) -> float:
    """Smallest grid delta admitting a delta-spherical k-tuple (pi + grid if
    none exists even at delta = pi)."""
    grid = L.comp.settings.delta_grid
    lo, hi = 0, int(math.ceil(PI / grid)) + 1
    if find_spherical_tuple(L, k, hi * grid) is None:
        return (hi + 1) * grid
    while lo < hi:
        mid = (lo + hi) // 2
        if find_spherical_tuple(L, k, mid * grid) is not None:
            hi = mid
        else:
            lo = mid + 1
    return hi * grid

