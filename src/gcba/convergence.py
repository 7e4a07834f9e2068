"""Finite-sample Gromov-Hausdorff machinery at desk scale: greedy nets,
doubling constants, GH upper bounds with a brute-force oracle for up to
seven points, the sup-norm distance-map embedding, tangent-cone convergence
of rescaled balls, and canonical-measure stability along declared families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geodesics as geo
from . import links as lk
from .complexes import ComplexPoint, MetricComplex


class ConvergenceError(Exception):
    pass


@dataclass
class FiniteMetricSpace:
    labels: list
    dmat: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dmat, dtype=float)
        if d.shape[0] != d.shape[1] or d.shape[0] != len(self.labels):
            raise ConvergenceError("distance matrix shape mismatch")
        if np.any(np.abs(np.diag(d)) > 0):
            raise ConvergenceError("nonzero diagonal")
        if not np.allclose(d, d.T, atol=1e-12):
            raise ConvergenceError("asymmetric distance matrix")
        self.dmat = d

    @property
    def n(self) -> int:
        return len(self.labels)

    def d(self, i: int, j: int) -> float:
        return float(self.dmat[i, j])

    def triangle_defect(self) -> float:
        n = self.n
        worst = 0.0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    worst = max(worst, self.dmat[i, j] - self.dmat[i, k]
                                - self.dmat[k, j])
        return worst


def space_from_points(comp: MetricComplex, pts: list[ComplexPoint],
                      scale: float = 1.0) -> FiniteMetricSpace:
    d = scale * geo.engine(comp).dist_matrix(pts)
    return FiniteMetricSpace(labels=list(range(len(pts))), dmat=d)


def sample_net(comp: MetricComplex, region, eps: float,
               pool: int = 400, rng: np.random.Generator | None = None):
    """Greedy farthest-point eps-net of a region (whole complex or a ball)
    with its geodesic distance matrix.  Returns (points, FiniteMetricSpace)."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    eng = geo.engine(comp)
    if region is None:
        cands = [geo.uniform_point(comp, rng) for _ in range(pool)]
        for vp in eng.vertex_points():
            cands.insert(0, vp)
    else:
        center, radius = region
        cands = [center] + geo.ball_samples(comp, center, radius,
                                            pool, rng)
    net: list[ComplexPoint] = []
    mind: list[float] = []
    net.append(cands[0])
    mind = [eng.distance(c, net[0], need_path=False)[0] for c in cands]
    while True:
        i = int(np.argmax(mind))
        if mind[i] <= eps:
            break
        net.append(cands[i])
        for j, c in enumerate(cands):
            dj = eng.distance(c, net[-1], need_path=False)[0]
            if dj < mind[j]:
                mind[j] = dj
        if len(net) > 3000:
            raise ConvergenceError("net budget exceeded")
    return net, space_from_points(comp, net)


def doubling_constant(S: FiniteMetricSpace) -> int:
    """Max over centers and radii of the size of a greedy (r/2)-separated
    subset of the r-ball."""
    if S.n == 0:
        raise ConvergenceError("empty space")
    radii = sorted(set(float(v) for v in S.dmat.ravel() if v > 0))
    best = 1
    for c in range(S.n):
        for r in radii:
            ball = [i for i in range(S.n) if S.dmat[c, i] <= r]
            sep: list[int] = []
            for i in ball:
                if all(S.dmat[i, j] > r / 2 for j in sep):
                    sep.append(i)
            best = max(best, len(sep))
    return best


# ---------------------------------------------------------------------------
# Gromov-Hausdorff


def _distortion_np(DA, DB, ia, ib) -> float:
    sub_a = DA[np.ix_(ia, ia)]
    sub_b = DB[np.ix_(ib, ib)]
    return float(np.max(np.abs(sub_a - sub_b)))


def gh_upper(SA: FiniteMetricSpace, SB: FiniteMetricSpace,
             restarts: int = 6, anchors=None,
             rng: np.random.Generator | None = None) -> float:
    """Upper bound: half the distortion of the best correspondence found by
    greedy incremental matching plus a reassignment local search."""
    rng = rng or np.random.default_rng(0)
    n, m = SA.n, SB.n
    DA, DB = SA.dmat, SB.dmat
    best = math.inf
    for trial in range(restarts):
        order = list(range(n)) if trial == 0 else list(rng.permutation(n))
        fa: list[int] = []
        fb: list[int] = []
        if anchors:
            for (a, b) in anchors:
                fa.append(a)
                fb.append(b)
        for a in order:
            if anchors and a in [p for (p, _) in anchors]:
                continue
            da = DA[a, fa]
            costs = np.max(np.abs(da[None, :] - DB[:, fb]), axis=1) \
                if fa else np.abs(np.sort(DA[a])[-1] - np.sort(DB, axis=1)[:, -1])
            fa.append(a)
            fb.append(int(np.argmin(costs)))
        covered = set(fb[:])
        for b in range(m):
            if b in covered:
                continue
            db = DB[b, fb]
            costs = np.max(np.abs(DA[:, fa] - db[None, :]), axis=1)
            fa.append(int(np.argmin(costs)))
            fb.append(b)
        ia = np.array(fa)
        ib = np.array(fb)
        dis = _distortion_np(DA, DB, ia, ib)
        protected = len(anchors) if anchors else 0
        for _ in range(60):
            # reassign the row with the worst contribution
            gaps = np.abs(DA[np.ix_(ia, ia)] - DB[np.ix_(ib, ib)])
            row = int(np.argmax(np.max(gaps, axis=1)))
            if row < protected:
                order2 = np.argsort(-np.max(gaps, axis=1))
                row = next((int(i) for i in order2 if i >= protected), None)
                if row is None:
                    break
            improved = False
            cur = ib[row]
            for b2 in range(m):
                if b2 == cur:
                    continue
                old = ib[row]
                ib[row] = b2
                if set(ib.tolist()) >= set(range(m)):
                    d2 = _distortion_np(DA, DB, ia, ib)
                    if d2 < dis - 1e-15:
                        dis = d2
                        improved = True
                        cur = b2
                        continue
                ib[row] = old
            if not improved:
                break
        best = min(best, dis)
    return best / 2.0


def gh_exact_small(SA: FiniteMetricSpace, SB: FiniteMetricSpace) -> float:
    """Exact GH distance by branch-and-bound over correspondences
    R = graph(f) + graph(g); |A|, |B| <= 7."""
    if SA.n > 7 or SB.n > 7:
        raise ConvergenceError("exact GH limited to 7 points")
    n, m = SA.n, SB.n
    # gap[a * m + b, a2 * m + b2] = |d_A(a, a2) - d_B(b, b2)|
    gap = np.abs(SA.dmat[:, None, :, None] - SB.dmat[None, :, None, :])
    gap = gap.reshape(n * m, n * m)
    vals = np.unique(gap).tolist()

    def feasible(delta: float) -> bool:
        # the pairs that may sit in one correspondence with each pair
        compatible = (gap <= delta + 1e-12).tolist()
        pairs: list = []

        def fits(cand: int) -> bool:
            row = compatible[cand]
            return all(row[q] for q in pairs)

        def assign_a(i: int) -> bool:
            if i == n:
                return assign_b(0)
            for b in range(m):
                if fits(i * m + b):
                    pairs.append(i * m + b)
                    if assign_a(i + 1):
                        return True
                    pairs.pop()
            return False

        def assign_b(b: int) -> bool:
            if b == m:
                return True
            if any(q % m == b for q in pairs):
                return assign_b(b + 1)
            for a in range(n):
                if fits(a * m + b):
                    pairs.append(a * m + b)
                    if assign_b(b + 1):
                        return True
                    pairs.pop()
            return False

        return assign_a(0)

    lo, hi = 0, len(vals) - 1
    if not feasible(vals[-1]):
        raise ConvergenceError("no feasible correspondence (unexpected)")
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(vals[mid]):
            hi = mid
        else:
            lo = mid + 1
    return vals[lo] / 2.0


# ---------------------------------------------------------------------------
# sup-norm embedding


def linf_embed(comp: MetricComplex, center: ComplexPoint, r0: float,
               delta: float, n_pairs: int = 60,
               rng: np.random.Generator | None = None) -> dict:
    """Distance map to a delta*r0-net on the distance sphere of radius 2*r0:
    a (1+delta)-biLipschitz embedding into sup-norm space on samples."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    eng = geo.engine(comp)
    L = lk.link_at(comp, center)
    sphere = []
    for p in L.samples(delta * r0 / (2 * r0) / 2):
        try:
            path, _ = geo.shoot_from_state(comp, center, L.realize(p, center),
                                           2 * r0)
        except geo.GeodesicError:
            continue
        d, _ = eng.distance(center, path.end, need_path=False)
        if abs(d - 2 * r0) <= 1e-6:
            sphere.append(path.end)
    if not sphere:
        raise ConvergenceError("distance-sphere net construction failed")
    net: list[ComplexPoint] = []
    for y in sphere:
        if all(eng.distance(y, z, need_path=False)[0] > delta * r0
               for z in net):
            net.append(y)
    pts = geo.ball_samples(comp, center, r0, max(16, n_pairs // 2), rng)

    def F(y):
        return np.array([eng.distance(p, y, need_path=False)[0]
                         for p in net])

    worst_lower = 0.0   # violation of (1+delta)^-1 d <= |F(x)-F(y)|_inf
    worst_upper = 0.0   # violation of |F(x)-F(y)|_inf <= d
    worst_ratio = 1.0
    for _ in range(n_pairs):
        i, j = rng.integers(0, len(pts), size=2)
        xx, yy = pts[int(i)], pts[int(j)]
        if xx == yy:
            continue
        d, _ = eng.distance(xx, yy, need_path=False)
        v = float(np.max(np.abs(F(xx) - F(yy))))
        worst_upper = max(worst_upper, v - d)
        worst_lower = max(worst_lower, d / (1 + delta) - v)
        worst_ratio = max(worst_ratio, d / max(v, 1e-300))
    return {"m": len(net), "worst_upper_violation": worst_upper,
            "worst_lower_violation": worst_lower,
            "worst_distortion": worst_ratio}


# ---------------------------------------------------------------------------
# tangent-cone convergence


def cone_space(L: lk.LinkSpace, pts, radii) -> FiniteMetricSpace:
    """Finite sample of the Euclidean cone over a link: points (t, v)."""
    n = len(pts)
    # link angles between the points' directions, 0 where one is the apex
    idx = [i for i, (_, v) in enumerate(pts) if v is not None]
    vs = [pts[i][1] for i in idx]
    ang = np.zeros((n, n))
    ang[np.ix_(idx, idx)] = L.dist_matrix(vs, vs)
    ang = ang.tolist()
    d = np.zeros((n, n))
    for i in range(n):
        ti = pts[i][0]
        for j in range(i + 1, n):
            tj, a = pts[j][0], ang[i][j]
            d[i, j] = d[j, i] = math.sqrt(
                max(0.0, ti * ti + tj * tj - 2 * ti * tj * math.cos(a)))
    return FiniteMetricSpace(labels=list(range(n)), dmat=d)


def cone_ball_net(L: lk.LinkSpace, eps: float):
    """Greedy eps-net of the unit ball of the cone over L (origin included).

    Returns (points, FiniteMetricSpace); points are (t, link point)."""
    cand = [(0.0, None)]
    for t in np.linspace(0.2, 1.0, 5):
        for p in L.samples(max(eps / max(t, eps), 0.05)):
            cand.append((float(t), p))

    vs = [p for _, p in cand[1:]]
    ang = L.dist_matrix(vs, vs).tolist()    # row i - 1: candidate i tested

    def cdist(i, j):
        (ti, vi), (tj, vj) = cand[i], cand[j]
        if vi is None or vj is None:
            return abs(ti - tj)
        return math.sqrt(max(0.0, ti * ti + tj * tj - 2 * ti * tj
                             * math.cos(ang[i - 1][j - 1])))
    net = [0]
    for c in range(1, len(cand)):
        if all(cdist(c, z) > eps for z in net):
            net.append(c)
    net = [cand[i] for i in net]
    return net, cone_space(L, net, None)


def tangent_convergence(comp: MetricComplex, x: ComplexPoint, radii,
                        eps: float = 0.12,
                        rng: np.random.Generator | None = None) -> dict:
    """GH upper bounds between rescaled balls (1/r) B_r(x) and the unit ball
    of the tangent cone; the sequence should trend to zero.

    The certified correspondence maps each cone net point (t, v) to the
    endpoint of the geodesic of length t*r shot along v (the logarithmic
    almost-isometry), so the bound is half the worst distance defect; the
    generic heuristic bound is also computed and the minimum reported."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    L = lk.link_at(comp, x)
    cone_pts, cone = cone_ball_net(L, eps)
    eng = geo.engine(comp)
    out = []
    for r in sorted(radii, reverse=True):
        mapped = []
        keep = []
        for i, (t, v) in enumerate(cone_pts):
            if t == 0.0 or v is None:
                mapped.append(x)
                keep.append(i)
                continue
            try:
                path, _ = geo.shoot_from_state(comp, x, L.realize(v, x),
                                               t * r)
            except geo.GeodesicError:
                continue
            mapped.append(path.end)
            keep.append(i)
        S = space_from_points(comp, mapped, scale=1.0 / r)
        sub = cone.dmat[np.ix_(keep, keep)]
        exp_bound = 0.5 * float(np.max(np.abs(S.dmat - sub)))
        heur = gh_upper(S, cone, restarts=2, anchors=[(0, 0)], rng=rng)
        out.append({"radius": r, "net": S.n, "cone_net": cone.n,
                    "gh_upper": min(exp_bound, heur),
                    "exp_bound": exp_bound})
    values = [row["gh_upper"] for row in out]
    trend_ok = all(values[i + 1] <= 1.2 * max(values[:i + 1]) + 1e-9
                   for i in range(len(values) - 1))
    return {"rows": out, "trend_ok": trend_ok, "final": values[-1]}


# ---------------------------------------------------------------------------
# measure stability


def measure_stability(family, limit_masses: dict) -> dict:
    """Per-k canonical masses along a declared family, with GH certificates.

    `family` is a list of dicts {"comp": MetricComplex, "region":
    (center, radius) | None, "scale": s}; masses are computed by the
    stratification module and rescaled by scale**k.  The family must come
    with its declared limit masses."""
    from . import strata
    rows = []
    for member in family:
        comp = member["comp"]
        region = member.get("region")
        scale = member.get("scale", 1.0)
        masses = strata.canonical_measure(comp, region)
        scaled = {k: v * scale**k for k, v in masses["masses"].items()}
        rows.append({"masses": scaled, "region": region is not None})
    gaps = []
    for k, lim in limit_masses.items():
        seq = [row["masses"].get(k, 0.0) for row in rows]
        gaps.append(abs(seq[-1] - lim))
    return {"rows": rows, "limit": limit_masses,
            "final_gap": max(gaps) if gaps else 0.0}
