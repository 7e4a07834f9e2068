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
    """A flow that cannot go on.  A coordinate flow's error carries i, steps,
    stalls, path_queries and gap (the last |f_i - a_i|) as attributes."""

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
    |d(p_i, y) - target_ai| <= tol.  Returns (endpoint, trace, moved).

    The path is queried once per goal and walked by arclength: a subsegment
    of a shortest path is one, on a CAT(0) complex the only one (BH II.1.4).
    The goal flips only by rounding (a step is at most |gap|/10 and f_i is
    1-Lipschitz).  A first-variation rate check (1 - 2*delta per unit
    length) guards each step; a non-monotone step aborts the run."""
    eng = geo.engine(comp)
    if step_cap is None:
        step_cap = max(s.radius_estimate / 100.0, 1e-4)
    rate = 1.0 - 2.0 * max(s.delta, 1e-6)
    # positions are reliable to ~1e-9 of the geometry scale; chasing the
    # level set below that floor stalls on reconstruction noise
    tol = max(tol, 3e-9)
    trace = [y]
    cur = y
    fi, _ = eng.distance(s.points[i], cur, need_path=False)
    gap = fi - target_ai
    moved = 0.0
    guard = stall = stalls = queries = 0
    held = None             # the goal of the path in hand

    def fail(msg, g):
        return FlowError(msg, i=i, steps=len(trace) - 1, stalls=stalls,
                         path_queries=queries, gap=g)

    while abs(gap) > tol:
        guard += 1
        if guard > 5000:
            raise fail("flow failed to converge (step budget)", abs(gap))
        goal = s.points[i] if gap > 0 else s.opposites[i]
        step = min(0.1 * abs(gap), step_cap)
        if goal is not held:
            _, path = eng.distance(cur, goal)
            held, base = goal, moved   # moved - base is walked along path
            queries += 1
        d = path.length - (moved - base)
        if d <= step:
            step = min(step, d / 2.0) or d / 2.0
        nxt = path.point_at(moved - base + step)
        fi2, _ = eng.distance(s.points[i], nxt, need_path=False)
        gap2 = fi2 - target_ai
        if abs(gap2) >= abs(gap) - 1e-11:
            stall += 1
            stalls += 1
            if stall > 3:
                if abs(gap2) <= 10 * tol:
                    cur = nxt
                    break
                raise fail("flow stagnation", abs(gap2))
        elif abs(gap2) > abs(gap) - rate * step + 1e-9 + 0.02 * step:
            raise fail(f"non-monotone flow step (strainer quality): |gap| "
                       f"{abs(gap):.3e} -> {abs(gap2):.3e} with step "
                       f"{step:.3e}", abs(gap2))
        else:
            stall = 0
        moved += step
        cur = nxt
        gap = gap2
        trace.append(cur)
    return cur, trace, moved


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
    # discretization; a cap of eps/40 keeps steps local while the per-step
    # first-variation check still guards the rate
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
