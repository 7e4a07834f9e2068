"""Spaces of directions as metric graphs with the angle metric.

Complexes have dimension <= 2 (load rejects higher ones), so every link is an
exact metric graph: nodes are directions along incident edges, arcs are the
planar corner angles of incident 2-cells (an interior point of a 2-cell gets
a full circle, an edge-interior point two poles joined by one length-pi arc
per incident cell).  All distances are clamped at pi, the diameter of any
nontrivial space of directions.  The distance from a link point is piecewise
linear along each arc, with the breakpoints `LinkSpace._arc_breakpoints`
lists, so suprema of w -> d(v,w) + d(w,vbar), antipode sets and distance
rings are solved exactly and the delta-spherical checks below are
exhaustive.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .complexes import ComplexPoint, MetricComplex
from .config import Settings

PI = math.pi


class LinkError(Exception):
    pass


@dataclass
class _Node:
    label: tuple                 # deterministic ordering key
    state: tuple | None          # walker state realizing this direction


@dataclass
class _Arc:
    i: int
    j: int
    length: float
    cid: int | None = None       # realization: 2-cell of the corner
    xy: np.ndarray | None = None  # base point coords inside that cell
    b1: np.ndarray | None = None  # direction at t = 0
    bp: np.ndarray | None = None  # unit perpendicular toward the arc


class LinkSpace:
    """The space of directions at a point, with angular metric (<= pi).

    Points of the link are ("node", i) or ("arc", a, t) with t in
    [0, arc length].
    """

    kind = "graph"     # exact metric graph

    def __init__(self, comp: MetricComplex, base: ComplexPoint,
                 nodes: list[_Node], arcs: list[_Arc]):
        self.comp = comp
        self.base = base
        self.nodes = nodes
        self.arcs = arcs
        self._D = self._node_dists()

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
        return D

    def _pieces(self, p, arc_idx: int):
        """Linear pieces (alpha, beta) with value alpha + beta*t bounding the
        raw distance from p to points of arc arc_idx from above; the raw
        distance is their pointwise min."""
        a = self.arcs[arc_idx]
        out = []
        da = self._point_node_raw(p, a.i)
        db = self._point_node_raw(p, a.j)
        if math.isfinite(da):
            out.append((da, 1.0))
        if math.isfinite(db):
            out.append((db + a.length, -1.0))
        if p[0] == "arc" and p[1] == arc_idx:
            tv = p[2]
            out.append((tv, -1.0))    # |t - tv| left branch
            out.append((-tv, 1.0))    # right branch
        return out

    def _arc_breakpoints(self, p, arc_idx: int):
        """(pieces, breakpoints) of the piecewise-linear map
        t -> raw_dist(p, ("arc", arc_idx, t)), which is linear between
        consecutive breakpoints.  The breakpoints are the arc ends, then
        every pairwise crossing of the `_pieces` inside the arc, in the order
        found (with repeats).  p's own t, when p lies inside the arc, is
        among the crossings: the two branches of |t - tv| cross there.
        Both lists are empty when p does not reach the arc."""
        pieces = self._pieces(p, arc_idx)
        if not pieces:
            return [], []
        length = self.arcs[arc_idx].length
        out = [0.0, length]
        for (al1, be1) in pieces:
            for (al2, be2) in pieces:
                if be1 != be2:
                    t = (al2 - al1) / (be1 - be2)
                    if 0 < t < length:
                        out.append(t)
        return pieces, out

    def _point_node_raw(self, p, node: int) -> float:
        if p[0] == "node":
            return float(self._D[p[1], node])
        a = self.arcs[p[1]]
        t = p[2]
        best = math.inf
        if math.isfinite(self._D[a.i, node]):
            best = min(best, t + self._D[a.i, node])
        if math.isfinite(self._D[a.j, node]):
            best = min(best, (a.length - t) + self._D[a.j, node])
        return best

    def raw_dist(self, p, q) -> float:
        if p[0] == "node" and q[0] == "node":
            return float(self._D[p[1], q[1]])
        if q[0] == "node":
            p, q = q, p
        if p[0] == "node":
            a = self.arcs[q[1]]
            t = q[2]
            cands = [self._point_node_raw(p, a.i) + t,
                     self._point_node_raw(p, a.j) + (a.length - t)]
            return min(cands)
        # arc-arc
        pa, qa = self.arcs[p[1]], self.arcs[q[1]]
        t, s = p[2], q[2]
        best = math.inf
        if p[1] == q[1]:
            best = abs(t - s)
        for (cn, cd) in ((pa.i, t), (pa.j, pa.length - t)):
            for (dn, dd) in ((qa.i, s), (qa.j, qa.length - s)):
                if math.isfinite(self._D[cn, dn]):
                    best = min(best, cd + self._D[cn, dn] + dd)
        return best

    def dist(self, p, q) -> float:
        return min(self.raw_dist(p, q), PI)

    def diameter(self) -> float:
        pts = self.samples(PI / 24)
        best = 0.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                best = max(best, self.dist(pts[i], pts[j]))
        return best

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

    # -- sampling -------------------------------------------------------------

    def samples(self, resolution: float):
        pts = [("node", i) for i in range(len(self.nodes))]
        for ai, a in enumerate(self.arcs):
            m = max(1, int(math.ceil(a.length / resolution)))
            for k in range(1, m):
                pts.append(("arc", ai, a.length * k / m))
        return pts

    # -- exact sup of d(v, .) + d(., vbar) -------------------------------------

    def max_sum(self, v, vbar):
        """Exact (sup, argmax) of w -> dist(v,w) + dist(w,vbar): the sum is
        linear between the breakpoints of both distances and the points
        where either reaches the pi cap."""
        best = self.dist(v, vbar)
        arg = vbar
        for i in range(len(self.nodes)):
            w = ("node", i)
            s = self.dist(v, w) + self.dist(w, vbar)
            if s > best:
                best, arg = s, w
        for ai, a in enumerate(self.arcs):
            cand = {0.0, a.length}
            for p in (v, vbar):
                pieces, bps = self._arc_breakpoints(p, ai)
                for (al1, be1) in pieces:
                    # pi-cap crossing of each piece
                    if be1 != 0.0:
                        t = (PI - al1) / be1
                        if 0 < t < a.length:
                            cand.add(t)
                cand.update(bps)
            for t in cand:
                w = ("arc", ai, t)
                s = self.dist(v, w) + self.dist(w, vbar)
                if s > best:
                    best, arg = s, w
        return best, arg

    # -- antipodes ---------------------------------------------------------------

    def antipode_regions(self, v, tol: float):
        """Clusters of {w : d(v,w) >= pi - tol}: list of clusters, each a dict
        with point lists, a representative (max distance) and a center."""
        thresh = PI - tol
        items = []   # (kind, data, dmax, argmax)
        for i in range(len(self.nodes)):
            d = self.raw_dist(v, ("node", i))
            if min(d, PI) >= thresh:
                items.append(("node", i, min(d, PI), ("node", i)))
        for ai in range(len(self.arcs)):
            bps = sorted(set(self._arc_breakpoints(v, ai)[1]))
            for k in range(len(bps) - 1):
                t0, t1 = bps[k], bps[k + 1]
                f0 = min(self.raw_dist(v, ("arc", ai, t0)), PI)
                f1 = min(self.raw_dist(v, ("arc", ai, t1)), PI)
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
        # cluster by adjacency
        m = len(items)
        parent = list(range(m))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def touch(i, j) -> bool:
            gap = 1e-9
            pi_, pj_ = items[i], items[j]
            pts_i = [("node", pi_[1])] if pi_[0] == "node" else [
                ("arc", pi_[1][0], pi_[1][1]), ("arc", pi_[1][0], pi_[1][2])]
            pts_j = [("node", pj_[1])] if pj_[0] == "node" else [
                ("arc", pj_[1][0], pj_[1][1]), ("arc", pj_[1][0], pj_[1][2])]
            for a_ in pts_i:
                for b_ in pts_j:
                    if self.raw_dist(a_, b_) <= gap:
                        return True
            return False

        for i in range(m):
            for j in range(i + 1, m):
                if find(i) != find(j) and touch(i, j):
                    parent[find(i)] = find(j)
        clusters: dict[int, list] = {}
        for i in range(m):
            clusters.setdefault(find(i), []).append(items[i])
        out = []
        for members in clusters.values():
            rep = max(members, key=lambda it: it[2])
            centers = []
            for it in members:
                if it[0] == "node":
                    centers.append(("node", it[1]))
                else:
                    ai, lo, hi = it[1]
                    centers.append(("arc", ai, 0.5 * (lo + hi)))
            out.append({"members": members, "rep": rep[3],
                        "max_dist": rep[2], "centers": centers})
        return out

    # -- locating and realizing directions ---------------------------------------

    def locate(self, d) -> tuple:
        """Link point of a Direction based at this link's base point."""
        from .geodesics import Direction
        if not isinstance(d, Direction):
            return d
        comp = self.comp
        cell = comp.cells[d.cid]
        if cell.dim == 1:
            sgn = 1.0 if d.vec[0] >= 0 else -1.0
            anchor = np.asarray(d.anchor) if d.anchor else None
            for i, nd in enumerate(self.nodes):
                if nd.state and nd.state[0] == "edge" and nd.state[1] == d.cid:
                    if nd.state[3] == sgn:
                        if anchor is None or abs(
                                nd.state[2] - float(anchor[1]) *
                                cell.lengths[0, 1]) < 1e-6:
                            return ("node", i)
            raise LinkError("1-cell direction not represented in this link")
        anchor_xy = (d.anchor_xy(comp) if d.anchor
                     else dict(d.base.representations(comp))[d.cid]
                     @ cell.coords)
        vec = d.array()
        best = None
        for ai, a in enumerate(self.arcs):
            if a.cid != d.cid or a.xy is None:
                continue
            if np.linalg.norm(a.xy - anchor_xy) > 1e-7:
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

    def realize(self, p) -> tuple | None:
        """Walker state for a link point: ("edge", cid, t, sgn) or
        ("ray", cid, xy, vec)."""
        if p[0] == "node":
            return self.nodes[p[1]].state
        a = self.arcs[p[1]]
        t = p[2]
        if a.cid is None:
            return None
        vec = math.cos(t) * a.b1 + math.sin(t) * a.bp
        return ("ray", a.cid, a.xy.copy(), vec)


def _dijkstra(adj: dict[int, list], src: int) -> dict[int, float]:
    """Shortest-path lengths from src over the adjacency lists `adj`."""
    dist = {src: 0.0}
    pq = [(0.0, src)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist.get(u, math.inf):
            continue
        for (v, w) in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, math.inf) - 1e-15:
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


# ---------------------------------------------------------------------------
# construction


def link_at(comp: MetricComplex, x: ComplexPoint) -> LinkSpace:
    """The space of directions at x, an exact metric graph."""
    cache = getattr(comp, "_link_cache", None)
    if cache is None:
        cache = {}
        comp._link_cache = cache
    hit = cache.get(x.key())
    if hit is None:
        hit = cache[x.key()] = _exact_link(comp, x)
    return hit


def _exact_link(comp: MetricComplex, x: ComplexPoint) -> LinkSpace:
    cell = comp.cells[x.cid]
    carrier_dim = len(x.carrier) - 1
    if len(x.carrier) == cell.nverts and cell.dim == 2:
        # interior of a 2-cell: circle of length 2*pi
        xy = x.xy(comp)
        b1 = np.array([1.0, 0.0])
        bp = np.array([0.0, 1.0])
        nodes = [_Node(label=("circle", x.cid), state=("ray", x.cid, xy, b1))]
        arcs = [_Arc(0, 0, 2 * PI, cid=x.cid, xy=xy, b1=b1, bp=bp)]
        return LinkSpace(comp, x, nodes, arcs)
    if len(x.carrier) == cell.nverts and cell.dim == 1:
        # interior of a maximal 1-cell: two poles
        L = float(cell.lengths[0, 1])
        t = float(x.bary[1]) * L
        nodes = [
            _Node(label=("pole", x.cid, +1),
                  state=("edge", x.cid, t, +1.0)),
            _Node(label=("pole", x.cid, -1),
                  state=("edge", x.cid, t, -1.0)),
        ]
        return LinkSpace(comp, x, nodes, [])
    if len(x.carrier) == cell.nverts and cell.dim == 0:
        return LinkSpace(comp, x, [], [])
    root = comp.face_root(x.cid, x.carrier)
    if carrier_dim == 1:
        return _edge_interior_link(comp, x, root)
    return _vertex_link(comp, x, root)


def _edge_interior_link(comp: MetricComplex, x: ComplexPoint,
                        root: tuple) -> LinkSpace:
    """Two poles joined by one arc of length pi per incident 2-cell slot."""
    members = sorted(comp.face_class_members(root))
    reps = dict(x.representations(comp))
    nodes = []
    arcs = []
    # poles realized in the smallest incident slot, oriented by root tuple
    pole_state = {}
    for sgn in (+1, -1):
        state = None
        for (mcid, mtup) in members:
            mcorr = comp.face_corr(mcid, mtup)
            if comp.cells[mcid].dim != 2 or mcid not in reps:
                continue
            co = comp.cells[mcid].coords
            root_to_m = {mcorr[p]: mtup[p] for p in range(2)}
            v0, v1 = root_to_m[root[1][0]], root_to_m[root[1][1]]
            u = co[v1] - co[v0]
            u = u / np.linalg.norm(u)
            xy = np.asarray(reps[mcid]) @ co
            state = ("ray", mcid, xy, sgn * u)
            break
        pole_state[sgn] = state
    nodes.append(_Node(label=("pole", +1), state=pole_state[+1]))
    nodes.append(_Node(label=("pole", -1), state=pole_state[-1]))
    for (mcid, mtup) in members:
        if comp.cells[mcid].dim != 2:
            continue
        mcorr = comp.face_corr(mcid, mtup)
        co = comp.cells[mcid].coords
        root_to_m = {mcorr[p]: mtup[p] for p in range(2)}
        v0, v1 = root_to_m[root[1][0]], root_to_m[root[1][1]]
        opp = next(v for v in range(3) if v not in mtup)
        xy = np.asarray(reps[mcid]) @ co
        u = co[v1] - co[v0]
        u = u / np.linalg.norm(u)
        w = co[opp] - xy
        wp = w - np.dot(w, u) * u
        wp = wp / np.linalg.norm(wp)
        arcs.append(_Arc(0, 1, PI, cid=mcid, xy=xy, b1=u, bp=wp))
    return LinkSpace(comp, x, nodes, arcs)


def _vertex_link(comp: MetricComplex, x: ComplexPoint, root: tuple) -> LinkSpace:
    """Nodes: directions along incident 1-faces and 1-cells; arcs: 2-cell
    corner angles between their side directions."""
    node_index: dict[tuple, int] = {}
    nodes: list[_Node] = []
    arcs: list[_Arc] = []
    reps = x.representations(comp)

    def node_for(edge_key, end: int, state) -> int:
        key = (edge_key, end)
        if key not in node_index:
            node_index[key] = len(nodes)
            nodes.append(_Node(label=key, state=state))
        return node_index[key]

    # incident 1-faces via 2-cell corners, and the corner arcs
    for (mcid, mtup) in sorted(comp.face_class_members(root)):
        cell = comp.cells[mcid]
        if cell.dim != 2:
            continue
        v = mtup[0]
        others = [w for w in range(cell.nverts) if w != v]
        co = cell.coords
        xy = co[v]
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
            state = ("ray", mcid, xy.copy(), u)
            side_nodes.append(node_for(("face", eroot), end, state))
            side_vecs.append(u)
        theta = comp.corner_angle(mcid, v, others[0], others[1])
        b1 = side_vecs[0]
        w2 = side_vecs[1] - np.dot(side_vecs[1], b1) * b1
        bp = w2 / np.linalg.norm(w2)
        arcs.append(_Arc(side_nodes[0], side_nodes[1], theta,
                         cid=mcid, xy=xy, b1=b1, bp=bp))
    # incident maximal 1-cells
    for cell in comp.cells:
        if cell.dim != 1:
            continue
        L = float(cell.lengths[0, 1])
        for (cid, bary) in reps:
            if cid != cell.cid:
                continue
            if bary[0] > 0.5:   # at endpoint 0
                state = ("edge", cell.cid, 0.0, +1.0)
                node_for(("cell", cell.cid), 0, state)
            else:
                state = ("edge", cell.cid, L, -1.0)
                node_for(("cell", cell.cid), 1, state)
    # isolated 1-faces of 2-cells with no corner at x cannot occur: every
    # 1-face containing x meets x at a corner of each incident 2-cell.
    return LinkSpace(comp, x, nodes, arcs)


# ---------------------------------------------------------------------------
# operations


def link_distance(L: LinkSpace, u, v) -> float:
    """Angular distance, clamped to [0, pi]."""
    return L.dist(L.locate(u), L.locate(v))


def antipodes(L: LinkSpace, v, tol: float):
    """Representatives (one per connectivity cluster) of the set of
    directions at distance >= pi - tol from v."""
    if not L.nodes:
        raise LinkError("empty link")
    regions = L.antipode_regions(L.locate(v), tol)
    return [r["rep"] for r in regions]


def realize(L: LinkSpace, p):
    return L.realize(p)


def is_delta_spherical(L: LinkSpace, v, vbar, delta: float,
                       margin: float = 1e-9):
    """Exhaustive check of sup_w [d(v,w) + d(w,vbar)] < pi + delta.

    Returns (ok, worst_witness, sup_value)."""
    s, arg = L.max_sum(L.locate(v), L.locate(vbar))
    return (s < PI + delta - margin), arg, s


def _best_opposite(L: LinkSpace, v, extra_candidates=()):
    """Candidate vbar minimizing the sup of the two-sided sum."""
    cands = list(extra_candidates)
    for r in L.antipode_regions(v, PI / 2):
        cands.extend(r["centers"])
        cands.append(r["rep"])
    if not cands:
        cands = [("node", i) for i in range(len(L.nodes))]
    best = (math.inf, None)
    for c in cands:
        s, _ = L.max_sum(v, c)
        if s < best[0]:
            best = (s, c)
    return best[1], best[0]


def ring_points(L: LinkSpace, v, rho: float):
    """Exact points at raw link distance rho from v (solved per arc)."""
    out = []
    for i in range(len(L.nodes)):
        if abs(L.raw_dist(v, ("node", i)) - rho) <= 1e-12:
            out.append(("node", i))
    for ai, a in enumerate(L.arcs):
        bps = sorted(set(L._arc_breakpoints(v, ai)[1]))
        for j in range(len(bps) - 1):
            t0, t1 = bps[j], bps[j + 1]
            f0 = L.raw_dist(v, ("arc", ai, t0))
            f1 = L.raw_dist(v, ("arc", ai, t1))
            if (f0 - rho) * (f1 - rho) <= 0 and f0 != f1:
                t = t0 + (rho - f0) / (f1 - f0) * (t1 - t0)
                out.append(("arc", ai, min(max(t, 0.0), a.length)))
    return out


def find_spherical_tuple(L: LinkSpace, k: int, delta: float,
                         settings: Settings | None = None):
    """Search for a delta-spherical k-tuple with opposites.

    Candidates come from a coarse link sample plus exact ring points at
    distance ~pi/2 around accepted members, so successes are certified by
    the exact sup check while the scan stays cheap.  Returns
    {"v": [...], "vbar": [...]} or None."""
    cfg = settings or L.comp.settings
    margin = cfg.strict_margin
    res = max(cfg.angular_resolution, PI / 60)
    pts = L.samples(res)
    if not pts:
        return None
    pts = _farthest_point_order(L, pts)
    adm_cache: dict = {}

    def adm(p):
        key = p
        if key not in adm_cache:
            vbar, s = _best_opposite(L, p)
            adm_cache[key] = (vbar, s) if (
                vbar is not None and s < PI + delta - margin) else None
        return adm_cache[key]

    def cross_ok(p, bp, q, bq) -> bool:
        win_hi = PI / 2 + delta - margin
        d = L.dist(p, q)
        if not (PI / 2 - 2 * delta < d < win_hi):
            return False
        return (L.dist(p, bq) < win_hi and L.dist(q, bp) < win_hi
                and L.dist(bp, bq) < win_hi)

    chosen: list = []
    rings_made = [0]

    def extend(cands) -> bool:
        if len(chosen) == k:
            return True
        for p in cands:
            a = adm(p)
            if a is None:
                continue
            if not all(cross_ok(p, a[0], q, b) for (q, b) in chosen):
                continue
            chosen.append((p, a[0]))
            nxt = list(cands)
            if len(chosen) < k and rings_made[0] < 12:
                rings_made[0] += 1
                ring = ring_points(L, p, PI / 2) + \
                    ring_points(L, p, PI / 2 - min(delta / 2, PI / 8))
                nxt = ring + nxt
            if extend(nxt):
                return True
            chosen.pop()
        return False

    if extend(pts):
        return {"v": [c[0] for c in chosen],
                "vbar": [c[1] for c in chosen]}
    return None


def _farthest_point_order(L: LinkSpace, pts):
    if not pts:
        return pts
    order = [pts[0]]
    rest = list(pts[1:])
    dist = [L.dist(p, order[0]) for p in rest]
    while rest:
        i = int(np.argmax(dist))
        order.append(rest.pop(i))
        dist.pop(i)
        for j, p in enumerate(rest):
            dist[j] = min(dist[j], L.dist(p, order[-1]))
    return order


def suspension_proximity(L: LinkSpace, k: int,
                         settings: Settings | None = None) -> float:
    """Smallest grid delta admitting a delta-spherical k-tuple (pi + grid if
    none exists even at delta = pi)."""
    cfg = settings or L.comp.settings
    grid = cfg.delta_grid
    lo, hi = 0, int(math.ceil(PI / grid)) + 1
    if find_spherical_tuple(L, k, hi * grid, cfg) is None:
        return (hi + 1) * grid
    while lo < hi:
        mid = (lo + hi) // 2
        if find_spherical_tuple(L, k, mid * grid, cfg) is not None:
            hi = mid
        else:
            lo = mid + 1
    return hi * grid

