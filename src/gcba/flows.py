"""Fiber-retraction flows of strainer maps and the topology checks built on
them: the residual-halving retraction onto a fiber, the injective /
non-discrete fiber dichotomy, and the small-sphere-versus-link comparison
through a Vietoris-Rips Betti proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geodesics as geo
from . import links as lk
from .complexes import ComplexPoint, MetricComplex
from .strainers import Strainer


class FlowError(Exception):
    """A flow that cannot go on.  A coordinate flow's error carries i,
    steps (breakpoints placed), path_queries, solver_queries and gap (the
    last |f_i - a_i|) as attributes."""

    def __init__(self, msg: str, **counts):
        super().__init__(msg + "".join(f", {k} {v:.4g}"
                                       for k, v in counts.items()))
        self.__dict__.update(counts)


@dataclass
class FlowTrack:
    start: ComplexPoint
    final: ComplexPoint
    trace: list                    # breakpoints, start..final
    residual: float                # M(final) = max_i |f_i - a_i|
    length: float                  # total arclength of the trace
    round_residuals: list = field(default_factory=list)
    dist_to_center: list = field(default_factory=list)

    def diameter(self, comp: MetricComplex) -> float:
        """Largest distance between 40 trace points spread evenly from the
        start to the final point (all of them when the trace is shorter)."""
        pts = self.trace
        if len(pts) > 40:
            idx = np.linspace(0, len(pts) - 1, 40).astype(int)
            pts = [self.trace[i] for i in idx]
        return float(geo.engine(comp).dist_matrix(pts).max())

    def to_json_dict(self) -> dict:
        return {"residual": float(self.residual),
                "length": float(self.length),
                "rounds": [float(r) for r in self.round_residuals],
                "breakpoints": len(self.trace)}


def flow_phi_i(comp: MetricComplex, s: Strainer, i: int, y: ComplexPoint,
               target_ai: float, tol: float = 1e-9, step_cap: float = None):
    """Move y along the geodesic toward p_i (or the opposite q_i) until
    |f_i - target_ai| <= tol, f_i = d(p_i, .).  Returns (endpoint, trace,
    moved).

    The path to the goal is queried once and the move is one arclength on
    it, found from two facts:
    - toward p_i, f_i(gamma(t)) = f_i(y) - t on a shortest path gamma to
      p_i, in any geodesic space, because a subpath of a shortest path is
      one (BH I.1, II.1.4).  f_i is read from the arclength: no query.
    - toward q_i, f(t) = f_i(gamma(t)) is convex as long as one lift of p_i
      stays the nearest: curvature <= 0 makes the universal cover CAT(0)
      (BH II.4.1), where distance functions are convex (BH II.2.2).  The
      chord over the first step h must pass the rate check (slope at least
      1 - 2*delta - 0.02); chord slopes of a convex function grow from
      left to right, so it certifies every later step.  The level is then
      bracketed and solved by `_solve_level`, with f queried only at its
      iterates.  Each iterate is checked against the convexity bound it
      relies on, and a violation raises FlowError.
    Breakpoints follow the step rule t += min(0.1 * rem, step_cap), with
    rem the remaining gap toward p_i or the remaining arclength toward q_i,
    so the trace is as dense as a flow that queries every step."""
    eng = geo.engine(comp)
    if step_cap is None:
        step_cap = max(s.radius_estimate / 100.0, 1e-4)
    # positions are reliable to ~1e-9 of the geometry scale; chasing the
    # level set below that floor stalls on reconstruction noise
    tol = max(tol, 3e-9)
    f0, _ = eng.distance(s.points[i], y, need_path=False)
    if abs(f0 - target_ai) <= tol:
        return y, [y], 0.0
    if f0 > target_ai:
        _, path = eng.distance(y, s.points[i])
        arcs = _arclengths(path.length - target_ai, step_cap, tol)
        trace = [y] + [path.point_at(t) for t in arcs]
    else:
        _, path = eng.distance(y, s.opposites[i])
        end, final = _solve_level(eng, s, i, path, f0, target_ai, tol,
                                  step_cap)
        arcs = _arclengths(end, step_cap, tol)
        arcs[-1] = end
        trace = [y] + [path.point_at(t) for t in arcs[:-1]] + [final]
    return trace[-1], trace, arcs[-1]


def _arclengths(to_go: float, cap: float, tol: float) -> list[float]:
    """Breakpoints t_1 < t_2 < ... of a move that has to_go - t left at
    arclength t: t += min(0.1 * (to_go - t), cap) until to_go - t <= tol
    (at least one breakpoint)."""
    t, out = 0.0, []
    while True:
        t += min(0.1 * (to_go - t), cap)
        out.append(t)
        if to_go - t <= tol:
            return out


def _solve_level(eng, s: Strainer, i: int, path, f0: float, a: float,
                 tol: float, step_cap: float):
    """(t, path.point_at(t)) with |f(t) - a| <= tol, where f(t) =
    d(p_i, path.point_at(t)) is convex and f(0) = f0 < a - tol.

    A safeguarded secant on a bracket lo < crossing < hi, f(lo) < a <
    f(hi).  The root of the chord from lo to hi lies left of the crossing;
    the extension of the chord through the last two left points meets a
    right of it.  A new left point is followed by the extension, a new
    right point (or an extension at or past hi) by the chord, so each
    query moves one end of the bracket."""
    rate = 1.0 - 2.0 * max(s.delta, 1e-6)
    h = min(0.1 * (a - f0), step_cap, path.length / 2.0)
    lo, hi = (0.0, f0), None
    t, kind, g = h, "first", a - f0

    def fail(msg):
        return FlowError(msg, i=i, steps=0, path_queries=1, solver_queries=n,
                         gap=g)

    for n in range(1, 41):
        pt = path.point_at(t)
        f, _ = eng.distance(s.points[i], pt, need_path=False)
        g = abs(f - a)
        if g <= tol:
            return t, pt
        if kind == "first":
            if g >= (a - f0) - 1e-11:
                raise fail("flow stagnation")
            if g > (a - f0) - rate * h + 1e-9 + 0.02 * h:
                raise fail(f"non-monotone flow step (strainer quality): "
                           f"|gap| {a - f0:.3e} -> {g:.3e} with step "
                           f"{h:.3e}")
        elif kind == "chord" and f > a:
            raise fail(f"convexity violated: f is {g:.3e} above its chord")
        elif kind == "extension" and f < a:
            if t == path.length:
                raise fail("level not reached on the path to q_i")
            raise fail(f"convexity violated: f is {g:.3e} below its "
                       f"chord's extension")
        if f < a:
            prev, lo = lo, (t, f)
            t = (lo[0] + (a - lo[1]) * (lo[0] - prev[0]) / (lo[1] - prev[1])
                 if lo[1] > prev[1] else math.nan)
        else:
            hi = (t, f)
        kind = "extension"
        if hi is not None and not t < hi[0]:
            t = lo[0] + (a - lo[1]) * (hi[0] - lo[0]) / (hi[1] - lo[1])
            kind = "chord"
        t = min(t, path.length)
        if not lo[0] < t < (hi[0] if hi else math.inf):
            raise fail("flow stagnation: the solver made no progress")
    raise fail("flow failed to converge (solver budget)")


def retract_to_fiber(comp: MetricComplex, s: Strainer, x: ComplexPoint,
                     y: ComplexPoint | None = None, tol: float = 1e-6,
                     target=None) -> FlowTrack:
    """Concatenate the coordinate flows until the residual
    M(y) = max_i |f_i(y) - a_i| drops below tol (a_i = f_i(x) by default).

    Asserts the per-round residual halving from the construction; records
    the trace, its length and the distances to x along it."""
    eng = geo.engine(comp)
    if y is None:
        y = x
    k = s.k
    tol = max(tol, 1e-8)   # numeric floor of the position pipeline
    for p in s.points + s.opposites:
        eng.distance(p, y, need_path=False)   # warm the source trees
    if target is None:
        target = np.array([eng.distance(p, x, need_path=False)[0]
                           for p in s.points])
    target = np.asarray(target, dtype=float)
    cur = y
    trace = [y]
    total = 0.0
    res = _residual(eng, s, cur, target)
    rounds = [res]
    dists = [eng.distance(x, cur, need_path=False)[0]]
    # the acceptance budget for flows binds tighter than the phi default
    # discretization; a cap of eps/40 keeps breakpoints local.  The rate is
    # guarded by the chord over a q_i move's first step, which certifies
    # every later chord of its convex f_i; toward p_i the rate is exactly 1
    cap = max(s.radius_estimate / 40.0, 1e-4)
    guard = 0
    while res > tol:
        guard += 1
        if guard > 60:
            raise FlowError(f"residual stagnation at round {guard}: {res:.3e}")
        inner_tol = max(tol / (4.0 * k), res * 1e-3)
        for i in range(k):
            cur, tr, moved = flow_phi_i(comp, s, i, cur, float(target[i]),
                                        tol=inner_tol, step_cap=cap)
            trace.extend(tr[1:])
            total += moved
            dists.extend(eng.dist_matrix([x], tr[1:])[0].tolist())
        new_res = _residual(eng, s, cur, target)
        if new_res > 0.5 * res + tol:
            raise FlowError(
                f"round contraction failed: {res:.3e} -> {new_res:.3e}")
        res = new_res
        rounds.append(res)
    return FlowTrack(start=y, final=cur, trace=trace, residual=res,
                     length=total, round_residuals=rounds,
                     dist_to_center=dists)


def _residual(eng, s: Strainer, y: ComplexPoint, target) -> float:
    vals = np.array([eng.distance(p, y, need_path=False)[0]
                     for p in s.points])
    return float(np.max(np.abs(vals - target)))


# ---------------------------------------------------------------------------
# dichotomy


def fiber_dichotomy(comp: MetricComplex, s: Strainer, region, samples: int = 24,
                    rng: np.random.Generator | None = None) -> dict:
    """Either the strainer map is injective on the region or every fiber
    meets it in a connected set of diameter comparable to the region.

    Fibers are probed by retracting sampled points onto sampled fiber
    values; the spread of the resulting fiber samples is the evidence."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    center, radius = region
    eng = geo.engine(comp)
    pts = geo.ball_samples(comp, center, radius, samples, rng)
    anchors = pts[:4]
    spreads = []
    for a in anchors:
        fa = np.array([eng.distance(p, a, need_path=False)[0]
                       for p in s.points])
        mates = [a]
        for y in pts[4:4 + 10]:
            try:
                track = retract_to_fiber(comp, s, a, y=y, tol=1e-6, target=fa)
            except FlowError:
                continue
            d_end, _ = eng.distance(center, track.final, need_path=False)
            if d_end <= 1.5 * radius:
                mates.append(track.final)
        spreads.append(float(eng.dist_matrix(mates).max()))
    small = radius / 10.0
    big = radius / 2.0
    verdicts = ["injective" if sp <= small else
                "non-discrete" if sp >= big else "ambiguous"
                for sp in spreads]
    if all(v == "injective" for v in verdicts):
        verdict = "injective"
    elif all(v == "non-discrete" for v in verdicts):
        verdict = "fibers-non-discrete"
    else:
        verdict = "mixed"
    return {"verdict": verdict, "spreads": spreads,
            "mixed_evidence": verdict == "mixed",
            "min_spread": min(spreads) if spreads else 0.0}


# ---------------------------------------------------------------------------
# sphere versus link (Betti proxy)


def _rips_betti(dmat: np.ndarray, scale: float) -> tuple[int, int]:
    """(b0, b1) of the Vietoris-Rips complex at the given scale."""
    n = dmat.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if dmat[i, j] <= scale]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (i, j) in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    b0 = len({find(i) for i in range(n)})
    eidx = {e: m for m, e in enumerate(edges)}
    adj = [set() for _ in range(n)]
    for (i, j) in edges:
        adj[i].add(j)
        adj[j].add(i)
    tris = []
    for (i, j) in edges:
        for k in adj[i] & adj[j]:
            if k > j:
                tris.append((i, j, k))
    if tris:
        B = np.zeros((len(tris), len(edges)), dtype=np.uint8)
        for t, (i, j, k) in enumerate(tris):
            for e in ((i, j), (i, k), (j, k)):
                B[t, eidx[e]] = 1
        rank = _gf2_rank(B)
    else:
        rank = 0
    b1 = len(edges) - n + b0 - rank
    return b0, b1


def _gf2_rank(B: np.ndarray) -> int:
    B = B.copy()
    rank = 0
    rows, cols = B.shape
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if B[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        B[[rank, pivot]] = B[[pivot, rank]]
        mask = B[:, col].astype(bool).copy()
        mask[rank] = False
        B[mask] ^= B[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def sphere_vs_link_check(comp: MetricComplex, x: ComplexPoint, radii,
                         rng: np.random.Generator | None = None) -> dict:
    """Compare (b0, b1) of sampled metric spheres around x with the link's.

    Spheres are sampled at net spacing r/20 and triangulated by a Rips graph
    at 2.5x the spacing; agreement across consecutive radii is the
    acceptance signal."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    eng = geo.engine(comp)
    L = lk.link_at(comp, x)
    link_betti = L.betti()
    rows = []
    for r in sorted(radii, reverse=True):
        spacing = r / 20.0
        scale = 2.5 * spacing
        net = []
        tags = []
        for p in L.samples(spacing / r):
            try:
                path, _ = geo.shoot_from_state(comp, x, L.realize(p, x), r)
            except geo.GeodesicError:
                continue
            d, _ = eng.distance(x, path.end, need_path=False)
            if abs(d - r) <= 1e-6 * max(1.0, r):
                net.append(path.end)
                tags.append(p)
        n = len(net)
        # comparison lower bound d >= r*sqrt(2-2cos(link angle)) prunes far
        # pairs exactly on curvature-verified complexes
        angles = L.dist_matrix(tags, tags).tolist()
        dmat = np.full((n, n), 10.0 * scale)
        np.fill_diagonal(dmat, 0.0)
        for i in range(n):
            for j in range(i + 1, n):
                alpha = angles[i][j]
                lower = r * math.sqrt(max(0.0, 2.0 - 2.0 * math.cos(alpha)))
                if lower > 1.2 * scale:
                    continue
                dmat[i, j] = dmat[j, i] = eng.distance(
                    net[i], net[j], need_path=False)[0]
        betti = _rips_betti(dmat, scale)
        rows.append({"radius": r, "net_size": n, "sphere_betti": betti,
                     "match": betti == link_betti})
    rows.sort(key=lambda row: row["radius"])
    stable = None
    for i, row in enumerate(rows):
        if all(r2["match"] for r2 in rows[:i + 1]):
            stable = row["radius"]
    return {"link_betti": link_betti, "per_radius": rows,
            "stable_up_to": stable}
