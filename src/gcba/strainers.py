"""Strained points, strainer maps, straining radii, bad sets and the
strainer-extension exceptional set.

A point is (k, delta)-strained when its space of directions contains a
delta-spherical k-tuple; the associated strainer map collects the distance
functions to realizing points and behaves like an almost-submersion: it is
2*sqrt(k)-Lipschitz and 2*sqrt(k)-open for delta <= 1/(4k), its composition
with geodesics has derivative oscillation at most 4*delta*sqrt(k), and where
it cannot be extended by one more coordinate the points form uniformly
finite fibers on which the map is biLipschitz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geodesics as geo
from . import links as lk
from .complexes import ComplexPoint, MetricComplex, star

PI = math.pi


class StrainerError(Exception):
    pass


@dataclass
class Strainer:
    """A realized (k, delta)-strainer at a point, with opposites."""

    center: ComplexPoint
    points: list[ComplexPoint]
    opposites: list[ComplexPoint]
    delta: float
    # angles p_i x p_j and p_i x q_j stacked, (k, 2k): the link distances of
    # the found tuple's directions, which are the angles (BH I.7) because
    # the reach check certifies each shot segment as a shortest path
    angle_matrix: np.ndarray
    radius_estimate: float = 0.0   # straining-radius estimate

    @property
    def k(self) -> int:
        return len(self.points)


@dataclass
class StrainerMap:
    """Distance map y -> (d(p_1, y), ..., d(p_k, y))."""

    comp: MetricComplex
    points: list[ComplexPoint]
    opposites: list[ComplexPoint] | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def k(self) -> int:
        return len(self.points)

    def value(self, y: ComplexPoint) -> np.ndarray:
        key = y.key()
        hit = self._cache.get(key)
        if hit is None:
            eng = geo.engine(self.comp)
            hit = np.array([eng.distance(p, y, need_path=False)[0]
                            for p in self.points])
            if len(self._cache) < 200000:
                self._cache[key] = hit
        return hit


# ---------------------------------------------------------------------------
# strained-point detection


def directions_to(comp: MetricComplex, x: ComplexPoint,
                  targets) -> list:
    """Link points of the initial directions of the geodesics x -> target."""
    out = []
    for t in targets:
        _, v = geo.log_map(comp, x, t)
        if v is None:
            raise StrainerError("target coincides with the base point")
        out.append(v)
    return out


def check_opposite_tuples(L: lk.LinkSpace, vs, ws, delta: float,
                          margin: float = 1e-9):
    """Def. 6.3 for the pair of tuples (vs, ws) at level delta.

    Returns (ok, worst) where worst is the largest violation in radians."""
    worst = -math.inf
    ok = True
    for v, w in zip(vs, ws):
        _, _, s = lk.is_delta_spherical(L, v, w, delta, margin)
        worst = max(worst, s - PI - delta)
        if s >= PI + delta - margin:
            ok = False
    k = len(vs)
    if k > 1:
        # rows vs_i then ws_i: entries (vs_i, vs_j), (vs_i, ws_j), (ws_i, ws_j)
        P = list(vs) + list(ws)
        M = L.dist_matrix(P, P)
        off = ~np.eye(k, dtype=bool)
        d = np.concatenate([M[:k, :k][off], M[:k, k:][off], M[k:, k:][off]])
        worst = max(worst, float(np.max(d - (PI / 2 + delta))))
        ok = ok and not np.any(d >= PI / 2 + delta - margin)
    return ok, worst


def is_strained(comp: MetricComplex, x: ComplexPoint, k: int, delta: float,
                reach: float = 0.2,
                estimate_radius: bool = False) -> Strainer | None:
    """Search the link of x for a delta-spherical k-tuple and realize it as
    strainer points at distance `reach`, halved up to five times until each
    shot segment is a shortest path (its end lies at distance r from x);
    raises StrainerError when no reach tried certifies that.

    The straining-radius estimate is an extra sampled computation; pass
    estimate_radius=True (or call straining_radius) when it is needed."""
    L = lk.link_at(comp, x)
    found = lk.find_spherical_tuple(L, k, delta)
    if found is None:
        return None
    eng = geo.engine(comp)
    for i in range(6):
        r = reach / 2.0 ** i
        try:
            pts = [_realize_point(comp, x, L, v, r) for v in found["v"]]
            opps = [_realize_point(comp, x, L, w, r) for w in found["vbar"]]
        except geo.NoContinuation:
            return None
        dists = [eng.distance(x, p, need_path=False)[0] for p in pts + opps]
        if all(abs(d - r) <= 1e-7 * max(1.0, r) for d in dists):
            break
    else:
        raise StrainerError(
            f"no reach certifies the {k}-strainer at {x!r}: the shot points "
            f"are not at distance {r:.6g}, the last reach tried")
    v = list(found["v"])
    s = Strainer(center=x, points=pts, opposites=opps, delta=delta,
                 angle_matrix=L.dist_matrix(v, v + list(found["vbar"])))
    if estimate_radius:
        s.radius_estimate = min(r / 2.0, straining_radius(
            comp, s, n_ball=4, n_probe=4))
    else:
        # conservative default scale; refine with straining_radius on demand
        s.radius_estimate = 0.25 * max(s.delta, 1e-3) * r
    return s


def _realize_point(comp, x, L, linkpoint, r) -> ComplexPoint:
    path, _ = geo.shoot_from_state(comp, x, L.realize(linkpoint, x), r)
    return path.end


def _angle_matrix(comp, x, pts, opps) -> np.ndarray:
    k = len(pts)
    M = np.zeros((k, 2 * k))
    for i in range(k):
        for j in range(k):
            if i != j:
                M[i, j] = geo.angle(comp, x, pts[i], pts[j])
            M[i, k + j] = geo.angle(comp, x, pts[i], opps[j])
    return M


def verify_strainer(comp: MetricComplex, s: Strainer):
    """Re-derive the starting directions and check Def. 6.3 at level 2*delta,
    plus consistency of the stored angle matrix with angles recomputed by
    angle() from geodesics to the realized points."""
    L = lk.link_at(comp, s.center)
    vs = directions_to(comp, s.center, s.points)
    ws = directions_to(comp, s.center, s.opposites)
    ok, worst = check_opposite_tuples(L, vs, ws, 2 * s.delta)
    fresh = _angle_matrix(comp, s.center, s.points, s.opposites)
    consistent = bool(np.max(np.abs(fresh - s.angle_matrix)) <= 1e-6)
    return ok and consistent, worst


def is_one_strainer_at(comp: MetricComplex, p: ComplexPoint, x: ComplexPoint,
                       delta: float) -> bool:
    """Is p a (1, delta)-strainer at x: the direction (xp)' is
    delta-spherical in the link of x."""
    if p == x:
        return False
    _, v = geo.log_map(comp, x, p)
    vbar, s = lk._best_opposite(lk.link_at(comp, x), v)
    return vbar is not None and s < PI + delta - comp.settings.strict_margin


def natural_strainer_radius(comp: MetricComplex, p: ComplexPoint,
                            delta: float, radii=None, n_dirs: int = 8,
                            rng: np.random.Generator | None = None) -> float:
    """Largest grid radius rho such that p is a (1, delta)-strainer at
    sampled points of B_rho(p) - {p}."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    if radii is None:
        radii = [0.4, 0.2, 0.1, 0.05]
    best = 0.0
    for rho in sorted(radii):
        pts = geo.ball_samples(comp, p, rho, n_dirs, rng)
        ok = True
        for x in pts:
            if x == p:
                continue
            if not is_one_strainer_at(comp, p, x, delta):
                ok = False
                break
        if ok:
            best = rho
    return best


# ---------------------------------------------------------------------------
# differentials


def euclidean_point(comp: MetricComplex, x: ComplexPoint,
                    angular_tol: float = 1e-3) -> bool:
    """Link is the round circle of length 2*pi (dimension-2 complexes)."""
    sdim = max(comp.cells[c].dim for c in star(comp, x))
    if sdim != comp.dim:
        return False
    if sdim != 2:
        # 1-dimensional: Euclidean iff exactly two directions at pi
        L = lk.link_at(comp, x)
        return len(L.nodes) == 2 and not L.arcs
    L = lk.link_at(comp, x)
    b0, b1 = L.betti()
    total = sum(a.length for a in L.arcs)
    degree_ok = _all_degree_two(L)
    return (b0, b1) == (1, 1) and degree_ok and \
        abs(total - 2 * PI) <= angular_tol


def _all_degree_two(L: lk.LinkSpace) -> bool:
    deg = [0] * len(L.nodes)
    for a in L.arcs:
        if a.i == a.j:
            deg[a.i] += 2
        else:
            deg[a.i] += 1
            deg[a.j] += 1
    return all(d == 2 for d in deg)


def strainer_jacobian(comp: MetricComplex, F: StrainerMap,
                      x: ComplexPoint) -> np.ndarray:
    """Rows: minus the unit vectors at x toward the p_i, in an orthonormal
    frame of the carrier cell (k x carrier-dim).  Requires a Euclidean point
    whose star is one cell or two cells glued along a codim-1 face."""
    if not euclidean_point(comp, x):
        raise StrainerError("point is not Euclidean: no linear differential")
    eng = geo.engine(comp)
    rows = []
    for p in F.points:
        _, path = eng.distance(x, p)
        if not path.segs:
            raise StrainerError("strainer point coincides with x")
        rows.append(-_into_frame(comp, x, *path.heading(0)))
    return np.asarray(rows)


def _into_frame(comp: MetricComplex, x: ComplexPoint, cid: int, vec):
    """Express the unit vector vec of cell cid at x in the frame of x's
    canonical carrier cell, developing across the shared codim-1 face when
    needed."""
    if cid == x.cid:
        return vec
    cell = comp.cells[x.cid]
    if len(x.carrier) != cell.nverts and len(x.carrier) == cell.dim:
        # x interior of a codim-1 face shared by both cells: the gate across
        # it places cid in x.cid's plane
        gates = geo.engine(comp).gates
        drop = next(s for s in range(cell.nverts) if s not in x.carrier)
        lo, hi = gates.span[x.cid, drop]
        for g in range(lo, hi):
            if gates.cid[g] == cid:
                return gates.R[g] @ vec
    raise StrainerError("direction not expressible in the carrier frame")


def strainer_jacobian_fd(comp: MetricComplex, F: StrainerMap,
                         x: ComplexPoint, h: float = 1e-5) -> np.ndarray:
    """Finite-difference differential along the carrier's coordinate frame
    (oracle for strainer_jacobian at interior points)."""
    cell = comp.cells[x.cid]
    if len(x.carrier) != cell.nverts:
        raise StrainerError("finite differences need an interior point")
    eng = geo.engine(comp)
    xy = x.xy(comp)
    base = F.value(x)
    cols = []
    for d in range(cell.dim):
        e = np.zeros(cell.dim)
        e[d] = h
        y = ComplexPoint(comp, x.cid, eng.bary_from_xy(x.cid, xy + e))
        cols.append((F.value(y) - base) / h)
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# openness and straining radius


def verify_openness(comp: MetricComplex, F: StrainerMap, region, n: int,
                    rng: np.random.Generator | None = None) -> dict:
    """Empirical Lipschitz and co-Lipschitz constants of F on a ball region.

    Lip: max ||F(x)-F(y)|| / d(x,y) over sampled pairs.  co-Lip: targets t
    near F(x) are hit by the retraction flow; the certified witness is
    d(x, flow endpoint) / ||t - F(x)||."""
    from . import flows
    rng = rng or np.random.default_rng(comp.settings.seed)
    center, radius = region
    eng = geo.engine(comp)
    pts = geo.ball_samples(comp, center, radius, max(12, n // 8), rng)
    lip = 0.0
    for _ in range(n):
        i, j = rng.integers(0, len(pts), size=2)
        xx, yy = pts[int(i)], pts[int(j)]
        if xx == yy:
            continue
        d, _ = eng.distance(xx, yy, need_path=False)
        lip = max(lip, float(np.linalg.norm(F.value(xx) - F.value(yy))) / d)
    colip = 0.0
    failures = 0
    n_targets = max(8, n // 16)
    for _ in range(n_targets):
        xx = pts[int(rng.integers(0, len(pts)))]
        fx = F.value(xx)
        step = radius * 0.2
        t = fx + step * rng.uniform(-1.0, 1.0, size=F.k)
        try:
            track = flows.retract_to_fiber(comp, _as_strainer(F, xx), xx,
                                           target=t, tol=1e-7)
        except flows.FlowError:
            failures += 1
            continue
        d, _ = eng.distance(xx, track.final, need_path=False)
        gap = float(np.linalg.norm(t - fx))
        if gap > 1e-12:
            colip = max(colip, d / gap)
    return {"lipschitz": lip, "colipschitz": colip,
            "target_failures": failures,
            "bound": 2.0 * math.sqrt(F.k)}


def _as_strainer(F: StrainerMap, x: ComplexPoint,
                 delta: float = 0.05) -> Strainer:
    if F.opposites is None:
        raise StrainerError("strainer map lacks opposite points")
    k = len(F.points)
    return Strainer(center=x, points=F.points, opposites=F.opposites,
                    delta=delta, angle_matrix=np.zeros((k, 2 * k)))


def straining_radius(comp: MetricComplex, s: Strainer, radii=None,
                     n_ball: int = 6, n_probe: int = 6,
                     rng: np.random.Generator | None = None) -> float:
    """Largest grid radius eps such that extensions q_i of p_i y beyond
    sampled y in B_eps(x) give opposite (k, 2*delta)-strainers on sampled
    points of B_eps(y)."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    eng = geo.engine(comp)
    reach = float(np.median([eng.distance(s.center, p, need_path=False)[0]
                             for p in s.points]))
    if radii is None:
        # cross angles drift by about 2*eps/reach; the grid cap keeps the
        # drift inside the 2*delta budget of the opposite check
        cap = 0.5 * max(s.delta, 1e-3) * reach
        radii = [cap, cap / 2, cap / 4, cap / 8]
    best = 0.0
    for eps in sorted(radii):
        ok = True
        ys = [s.center] + geo.ball_samples(comp, s.center, eps, n_ball, rng)
        for y in ys:
            try:
                # opposites live at the strainer's reach beyond y
                qs = [extend_through(comp, p, y, reach) for p in s.points]
            except geo.NoContinuation:
                ok = False
                break
            zs = [y] + geo.ball_samples(comp, y, eps, n_probe, rng)
            for z in zs:
                if any(z == p for p in s.points) or any(z == q for q in qs):
                    continue
                L = lk.link_at(comp, z)
                try:
                    vs = directions_to(comp, z, s.points)
                    ws = directions_to(comp, z, qs)
                except StrainerError:
                    continue
                good, _ = check_opposite_tuples(L, vs, ws, 2 * s.delta)
                if not good:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = eps
    return best


def extend_through(comp: MetricComplex, p: ComplexPoint, y: ComplexPoint,
                   length: float) -> ComplexPoint:
    """A point q on a continuation of the geodesic p y beyond y."""
    _, path = geo.engine(comp).distance(p, y)
    ext, _, _ = geo.extend_geodesic(comp, path, length)
    return ext.end


# ---------------------------------------------------------------------------
# bad sets and the BGP selection lemma


def bad_set_greedy(comp: MetricComplex, region, delta: float,
                   budget: int = 400,
                   rng: np.random.Generator | None = None) -> dict:
    """Greedy maximal subset of samples from `region` in which no member is
    a (1, delta)-strainer at another member (vertices tried first)."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    center, radius = region
    eng = geo.engine(comp)
    candidates = []
    for vp in geo.engine(comp).vertex_points():
        d, _ = eng.distance(center, vp, need_path=False)
        if d <= radius:
            candidates.append(vp)
    candidates += geo.ball_samples(comp, center, radius,
                                   max(4, budget // 16), rng)
    chosen: list[ComplexPoint] = []
    used = 0
    exhausted = False
    for z in candidates:
        used += 1
        if used > budget:
            exhausted = True
            break
        if any(z == t for t in chosen):
            continue
        bad = True
        for t in chosen:
            if is_one_strainer_at(comp, t, z, delta) or \
               is_one_strainer_at(comp, z, t, delta):
                bad = False
                break
        if bad:
            chosen.append(z)
    if len(chosen) > comp.settings.c0_ceiling:
        raise StrainerError("bad set exceeds the configured C0 ceiling "
                            f"{comp.settings.c0_ceiling}")
    return {"points": chosen, "size": len(chosen),
            "budget_exhausted": exhausted}


def bgp_select(S, M: int, L: float):
    """An M-tuple with d(x_i, x_{i+1}) >= L * d(x_i, x_k) for all
    1 <= k <= i <= M-1 (indices into S).

    S is a FiniteMetricSpace.  The covering recursion from the selection
    lemma's proof runs first; below its cardinality threshold a deterministic
    lexicographic DFS searches directly before failing."""
    idx = _bgp_recursive(S, list(range(S.n)), M, L)
    if idx is None:
        idx = _bgp_dfs(S, M, L)
    if idx is None:
        raise StrainerError("no admissible tuple found (set too small)")
    assert bgp_verify(S, idx, L)
    return idx


def _bgp_recursive(S, subset, M: int, L: float):
    if M == 1:
        return [min(subset)] if subset else None
    pts = subset
    if len(pts) < 2:
        return None
    D = max(S.d(i, j) for i in pts for j in pts)
    if D == 0.0:
        return None
    target = D / (2.0 * L)
    # greedy covering by balls of radius target/2 around farthest points
    centers = [pts[0]]
    while True:
        rest = [p for p in pts
                if min(S.d(p, c) for c in centers) > target / 2]
        if not rest:
            break
        far = max(rest, key=lambda p: min(S.d(p, c) for c in centers))
        centers.append(far)
    pieces: dict[int, list] = {c: [] for c in centers}
    for p in pts:
        c = min(centers, key=lambda c2: (S.d(p, c2), c2))
        pieces[c].append(p)
    piece = max(pieces.values(), key=len)
    head = _bgp_recursive(S, piece, M - 1, L)
    if head is None:
        return None
    lastd = {p: S.d(p, head[-1]) for p in pts}
    cands = [p for p in pts if lastd[p] >= D / 2]
    if not cands:
        return None
    tail = min(cands)
    tup = head + [tail]
    return tup if bgp_verify(S, tup, L) else None


def _bgp_dfs(S, M: int, L: float, node_cap: int = 2_000_000):
    order = sorted(range(S.n))
    chosen: list[int] = []
    budget = [node_cap]

    def ok_next(c: int) -> bool:
        i = len(chosen) - 1   # index of current last element
        # adding c as x_{i+2}: need d(x_{i+1}, c) >= L * d(x_{i+1}, x_k) for
        # all k <= i+1
        last = chosen[-1]
        req = max(S.d(last, chosen[k]) for k in range(len(chosen)))
        return S.d(last, c) >= L * req - 1e-12 and c not in chosen

    def rec() -> bool:
        if len(chosen) == M:
            return True
        for c in order:
            budget[0] -= 1
            if budget[0] <= 0:
                return False
            if not chosen:
                chosen.append(c)
                if rec():
                    return True
                chosen.pop()
            elif ok_next(c):
                chosen.append(c)
                if rec():
                    return True
                chosen.pop()
        return False

    return chosen if rec() else None


def bgp_verify(S, idx, L: float) -> bool:
    """Exhaustive check of the selection inequalities for a concrete tuple."""
    M = len(idx)
    for i in range(M - 1):
        for k in range(i + 1):
            if S.d(idx[i], idx[i + 1]) < L * S.d(idx[i], idx[k]) - 1e-12:
                return False
    return True


# ---------------------------------------------------------------------------
# extension of strainer maps


def extension_exceptional_set(comp: MetricComplex, F: StrainerMap, region,
                              samples: int = 40, delta: float = 0.05,
                              reach: float = 0.2,
                              rng: np.random.Generator | None = None) -> dict:
    """Sampled points of the region where no candidate extra point yields a
    (k+1, 12*delta)-strainer; reports per-fiber counts and the empirical
    lower bound on ||F(x)-F(x')|| / d(x,x') over close pairs in E."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    center, radius = region
    eng = geo.engine(comp)
    pts = geo.ball_samples(comp, center, radius, samples, rng)
    exceptional = []
    for x in pts:
        L = lk.link_at(comp, x)
        vs = directions_to(comp, x, F.points)
        extended = False
        # candidates: a net on the link resolves every geometrically
        # distinct extra direction (mirrors the delta*r0-net on the
        # distance sphere plus fiber mates)
        cands = L.samples(comp.settings.angular_resolution * 8)
        # every pair (tup[i], tup[j]), i < j, of tup = vs + [cand] lies in
        # row vs[i] of M, so one matrix gives each candidate's pair window
        M = L.dist_matrix(vs, vs + cands)
        win = (PI / 2 - 2 * 12 * delta < M) & (M < PI / 2 + 12 * delta)
        fits = (win[:, len(vs):].all(axis=0)
                & win[:, :len(vs)][np.triu_indices(len(vs), 1)].all())
        for cand, okpair in zip(cands, fits.tolist()):
            if not okpair:
                continue
            tup = vs + [cand]
            vbar, s = lk._best_opposite(L, cand)
            if vbar is None or \
                    s >= PI + 12 * delta - comp.settings.strict_margin:
                continue
            ws = [lk._best_opposite(L, v)[0] for v in vs] + [vbar]
            ok, _ = check_opposite_tuples(L, tup, ws, 12 * delta)
            if ok:
                extended = True
                break
        if not extended:
            exceptional.append(x)
    # fiberwise counts at the map's resolution
    fibers: dict = {}
    for x in exceptional:
        key = tuple(np.round(F.value(x) / (radius * 0.1)).astype(int))
        fibers.setdefault(key, []).append(x)
    counts = {k: len(v) for k, v in fibers.items()}
    if counts and max(counts.values()) > comp.settings.c1_ceiling:
        raise StrainerError("per-fiber exceptional count exceeds C1 ceiling")
    # biLipschitz witness over close pairs
    lower = math.inf
    for i in range(len(exceptional)):
        for j in range(i + 1, len(exceptional)):
            a, b = exceptional[i], exceptional[j]
            d, _ = eng.distance(a, b, need_path=False)
            if d < 1e-9 or d > radius:
                continue
            lower = min(lower,
                        float(np.linalg.norm(F.value(a) - F.value(b))) / d)
    return {"points": exceptional, "fiber_counts": counts,
            "bilipschitz_lower": lower,
            "sample_count": len(pts)}
