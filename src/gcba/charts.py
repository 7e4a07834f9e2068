"""Strainer charts on regular parts: injectivity, the pullback Riemannian
tensor at Euclidean points, chart-based length, the averaged-opposite
special function, convexity of pushforwards, and length stability of curves
with bounded second-difference variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geodesics as geo
from . import links as lk
from . import strainers as st
from .complexes import ComplexPoint, MetricComplex


class ChartError(Exception):
    pass


@dataclass
class Chart:
    comp: MetricComplex
    strainer: st.Strainer
    center: ComplexPoint
    radius: float
    F: st.StrainerMap
    tensor_samples: list = field(default_factory=list)
    # (point, image, g matrix) at Euclidean sample points

    @property
    def k(self) -> int:
        return self.F.k

    def value(self, y: ComplexPoint) -> np.ndarray:
        return self.F.value(y)

    def tensor_at(self, y: ComplexPoint) -> np.ndarray:
        """Pullback metric g_F = (A^{-1})^T A^{-1} from the differential at
        the Euclidean point y."""
        A = st.strainer_jacobian(self.comp, self.F, y)
        if A.shape[0] != A.shape[1]:
            raise ChartError("tensor needs k = carrier dimension")
        Ainv = np.linalg.inv(A)
        return Ainv.T @ Ainv

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "radius": float(self.radius),
            "center_cell": int(self.center.cid),
            "tensor_samples": [
                {"image": [float(v) for v in img],
                 "g": [[float(a) for a in row] for row in g]}
                for (_, img, g) in self.tensor_samples
            ],
        }


def build_chart(comp: MetricComplex, s: st.Strainer, x: ComplexPoint,
                radius: float | None = None, n_samples: int = 24,
                rng: np.random.Generator | None = None) -> Chart:
    """Chart around x from a strainer with opposites: verifies injectivity on
    samples (via close pairs of far points) and collects the tensor field at
    Euclidean sample points."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    if radius is None:
        radius = s.radius_estimate if s.radius_estimate > 0 else \
            0.25 * max(s.delta, 1e-3) * 0.2
    F = st.StrainerMap(comp=comp, points=s.points, opposites=s.opposites)
    eng = geo.engine(comp)
    pts = geo.ball_samples(comp, x, radius, n_samples, rng)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = float(np.linalg.norm(F.value(pts[i]) - F.value(pts[j])))
            d, _ = eng.distance(pts[i], pts[j], need_path=False)
            # far points with near-equal values: a fold at this resolution
            if gap < 1e-3 * radius and d > 0.1 * radius:
                raise ChartError(
                    f"injectivity violated at resolution: {pts[i]!r} vs "
                    f"{pts[j]!r}")
    chart = Chart(comp=comp, strainer=s, center=x, radius=radius, F=F)
    for y in pts:
        if st.euclidean_point(comp, y):
            try:
                g = chart.tensor_at(y)
            except (st.StrainerError, ChartError):
                continue
            chart.tensor_samples.append((y, F.value(y), g))
    return chart


def tensor_eigen_range(chart: Chart) -> tuple[float, float]:
    lo, hi = math.inf, 0.0
    for (_, _, g) in chart.tensor_samples:
        w = np.linalg.eigvalsh(g)
        lo = min(lo, float(w[0]))
        hi = max(hi, float(w[-1]))
    return lo, hi


def tensor_continuity_modulus(chart: Chart) -> float:
    """Largest |g(y1) - g(y2)| / d(y1, y2) over tensor sample pairs."""
    eng = geo.engine(chart.comp)
    worst = 0.0
    ts = chart.tensor_samples
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            d, _ = eng.distance(ts[i][0], ts[j][0], need_path=False)
            if d < 1e-12:
                continue
            gap = float(np.linalg.norm(ts[i][2] - ts[j][2]))
            worst = max(worst, gap / d)
    return worst


def chart_length(chart: Chart, curve: list[ComplexPoint],
                 refine_tol: float = 1e-3) -> float:
    """Length of a domain polyline through the chart:
    integral of |gamma_bar'|_{g_F} with midpoint tensor evaluation,
    refining the polyline until the value moves less than refine_tol."""
    comp = chart.comp
    pts = list(curve)
    prev = None
    for _ in range(6):
        total = 0.0
        ok = True
        for a, b in zip(pts, pts[1:]):
            va = chart.value(a)
            vb = chart.value(b)
            mid = _midpoint(comp, a, b)
            try:
                g = chart.tensor_at(mid)
            except (st.StrainerError, ChartError):
                ok = False
                break
            dv = vb - va
            total += math.sqrt(max(0.0, float(dv @ g @ dv)))
        if not ok:
            # fall back to a nearby tensor sample for the failing stretch
            total = _length_with_nearest_tensor(chart, pts)
        if prev is not None and abs(total - prev) <= refine_tol * max(total, 1e-12):
            return total
        prev = total
        pts = _refine(comp, pts)
    return prev


def _length_with_nearest_tensor(chart: Chart, pts) -> float:
    if not chart.tensor_samples:
        raise ChartError("tensor undefined on the curve and no samples")
    eng = geo.engine(chart.comp)
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        va, vb = chart.value(a), chart.value(b)
        mid = _midpoint(chart.comp, a, b)
        best = min(chart.tensor_samples,
                   key=lambda t: eng.distance(t[0], mid, need_path=False)[0])
        dv = vb - va
        total += math.sqrt(max(0.0, float(dv @ best[2] @ dv)))
    return total


def _midpoint(comp, a, b) -> ComplexPoint:
    d, path = geo.engine(comp).distance(a, b)
    return path.point_at(d / 2.0)


def _refine(comp, pts):
    out = [pts[0]]
    for a, b in zip(pts, pts[1:]):
        out.append(_midpoint(comp, a, b))
        out.append(b)
    return out


# ---------------------------------------------------------------------------
# special functions and convexity


def alpha_special(chart: Chart, n_checks: int = 40,
                  rng: np.random.Generator | None = None) -> dict:
    """g = (1/k) sum of distances to the opposite points; verified to drop
    at rate alpha = 1/(4 k^2) along directions where all F-coordinates are
    nondecreasing (derivatives by first variation)."""
    comp = chart.comp
    rng = rng or np.random.default_rng(comp.settings.seed)
    s = chart.strainer
    k = chart.k
    alpha = 1.0 / (4.0 * k * k)
    worst = -math.inf
    checked = 0
    pts = geo.ball_samples(comp, chart.center, chart.radius,
                           max(8, n_checks // 4), rng)
    for y in pts:
        L = lk.link_at(comp, y)
        try:
            vs = st.directions_to(comp, y, s.points)
            ws = st.directions_to(comp, y, s.opposites)
        except st.StrainerError:
            continue
        cands = L.samples(comp.settings.angular_resolution * 6)
        # row per candidate: its angles to the vs, then to the ws
        M = L.dist_matrix(cands, vs + ws).tolist()
        for row in M:
            if checked >= n_checks:
                break
            # first variation: D f_i(v) = -cos d(v, direction to p_i)
            dfi = [-math.cos(d) for d in row[:len(vs)]]
            if any(df < 0.0 for df in dfi):
                continue
            dg = float(np.mean([-math.cos(d) for d in row[len(vs):]]))
            worst = max(worst, dg)
            checked += 1
    passed = checked > 0 and worst <= -alpha + 1e-6
    return {"alpha": alpha, "worst_directional_derivative": worst,
            "checked": checked, "pass": passed}


def convexity_pushforward_check(chart: Chart, probes=None, samples: int = 10,
                                rng: np.random.Generator | None = None) -> dict:
    """Midpoint convexity, in the chart, of the 0-special decomposition
    parts h1, h2 of convex distance-function probes (h2 = (L0/alpha) g)."""
    from . import flows
    comp = chart.comp
    rng = rng or np.random.default_rng(comp.settings.seed)
    s = chart.strainer
    k = chart.k
    alpha = 1.0 / (4.0 * k * k)
    eng = geo.engine(comp)
    if probes is None:
        probes = [s.points[0], geo.uniform_point(comp, rng)]

    def gfun(y):
        return float(np.mean([eng.distance(q, y, need_path=False)[0]
                              for q in s.opposites]))

    pts = geo.ball_samples(comp, chart.center, chart.radius * 0.8,
                           max(6, samples), rng)
    worst = -math.inf
    worst_negctrl = -math.inf
    count = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = pts[i], pts[j]
            va, vb = chart.value(a), chart.value(b)
            target = 0.5 * (va + vb)
            try:
                track = flows.retract_to_fiber(comp, s, chart.center, y=a,
                                               target=target, tol=1e-8)
            except flows.FlowError:
                continue
            mid = track.final
            for z in probes:
                def h(y):
                    return eng.distance(z, y, need_path=False)[0]
                h2 = lambda y: (1.0 / alpha) * gfun(y)   # L0 = 1
                h1 = lambda y: h(y) + h2(y)
                for part, fn in (("h1", h1), ("h2", h2)):
                    viol = fn(mid) - 0.5 * (fn(a) + fn(b))
                    worst = max(worst, viol)
                neg = -h(mid) - 0.5 * (-h(a) - h(b))
                worst_negctrl = max(worst_negctrl, neg)
                count += 1
    return {"worst_violation": worst, "pairs_checked": count,
            "negative_control_worst": worst_negctrl,
            "pass": count > 0 and worst <= 1e-6}


# ---------------------------------------------------------------------------
# DC-curve length stability


def dc_norm_proxy(comp: MetricComplex, curve: list[ComplexPoint],
                  probes: list[ComplexPoint]) -> float:
    """Lipschitz constant plus total variation of the discrete derivative of
    d_p composed with the curve, maximized over the probe net."""
    eng = geo.engine(comp)
    seglens = []
    for a, b in zip(curve, curve[1:]):
        d, _ = eng.distance(a, b, need_path=False)
        seglens.append(max(d, 1e-12))
    worst = 0.0
    for p in probes:
        vals = [eng.distance(p, y, need_path=False)[0] for y in curve]
        derivs = [(v2 - v1) / dl
                  for v1, v2, dl in zip(vals, vals[1:], seglens)]
        tv = sum(abs(d2 - d1) for d1, d2 in zip(derivs, derivs[1:]))
        lip = max(abs(d) for d in derivs) if derivs else 0.0
        worst = max(worst, lip + tv)
    return worst


def curve_length(comp: MetricComplex, curve: list[ComplexPoint]) -> float:
    eng = geo.engine(comp)
    return sum(eng.distance(a, b, need_path=False)[0]
               for a, b in zip(curve, curve[1:]))


def dc_length_stability(comp: MetricComplex, family: list,
                        limit_curve: list, norm_bound: float,
                        probes: list[ComplexPoint] | None = None,
                        rng: np.random.Generator | None = None) -> dict:
    """Length convergence along a family of polylines converging pointwise.

    Families whose second-difference variation proxy exceeds the declared
    bound are rejected (the hypothesis of the stability statement)."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    if probes is None:
        probes = [geo.uniform_point(comp, rng) for _ in range(16)]
    norms = [dc_norm_proxy(comp, c, probes) for c in family]
    if any(n > norm_bound for n in norms):
        return {"accepted": False, "norms": norms,
                "reason": "norm proxy exceeds the declared bound"}
    lens = [curve_length(comp, c) for c in family]
    lim = curve_length(comp, limit_curve)
    gaps = [abs(l - lim) for l in lens]
    return {"accepted": True, "norms": norms, "lengths": lens,
            "limit_length": lim, "gaps": gaps, "final_gap": gaps[-1]}
