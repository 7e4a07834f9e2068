"""Dimensional stratification and the canonical measure.

On complexes the k-dimensional part is combinatorial ground truth: a point
belongs to X^k when the top dimension of its star is k, so X^k is a union
of open faces and the canonical measure restricted to it is the total
k-volume of the maximal k-cells.

A ball B_r(x) is measured over pieces that hold it, and
`geodesics.ball_samples` draws from the same pieces.  On the 1-cells they
are the exact intervals of `ball_intervals_1d`, whose summed length is the
1-mass.  On the 2-cells they are the disks of `BallCover`: the unfolded
disks of radius r about x, and those of radius r - d(x, v) about each
singular vertex v within r, where shortest paths bend.  The 2-mass is Monte
Carlo over that cover, with each draw weighted by one over the number of
disks that hold it, so the reported standard error is honest.  The disks are
sorted by cell, center and radius: a seeded draw must not depend on which
source trees the engine has cached or how far they grew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geodesics as geo
from . import links as lk
from .complexes import ComplexPoint, MetricComplex


class StrataError(Exception):
    pass


# ---------------------------------------------------------------------------
# combinatorial strata


def _units(comp: MetricComplex):
    """Open units of the complex: cell interiors and face classes, with the
    dimension of their stars."""
    units = []
    for c in comp.cells:
        units.append({"kind": "cell", "id": c.cid, "dim": c.dim,
                      "star_dim": c.dim})
    for root in comp.face_classes():
        sdim = max(comp.cells[cid].dim for cid in comp.incident_cells(root))
        units.append({"kind": "face", "id": root, "dim": len(root[1]) - 1,
                      "star_dim": sdim})
    # a cell whose interior is glued into higher cells cannot occur (cells
    # are top cells by construction), so cell star_dim is its own dim
    return units


@dataclass
class StrataReport:
    units: list
    parts: dict          # k -> list of units with star_dim == k
    masses: dict         # k -> total H^k of X^k

    def to_json_dict(self) -> dict:
        return {
            "masses": {str(k): float(v) for k, v in sorted(self.masses.items())},
            "parts": {str(k): [_unit_name(u) for u in us]
                      for k, us in sorted(self.parts.items())},
        }


def _unit_name(u) -> str:
    if u["kind"] == "cell":
        return f"cell:{u['id']}"
    cid, tup = u["id"]
    return f"face:{cid}:{','.join(map(str, tup))}"


def strata(comp: MetricComplex) -> StrataReport:
    """Face-wise dimension assignment and per-k masses."""
    units = _units(comp)
    parts: dict[int, list] = {}
    for u in units:
        parts.setdefault(u["star_dim"], []).append(u)
    masses: dict[int, float] = {k: 0.0 for k in parts}
    for u in units:
        if u["kind"] == "cell" and u["dim"] == u["star_dim"]:
            masses[u["dim"]] += (1.0 if u["dim"] == 0
                                 else comp.simplex_volume(u["id"]))
    return StrataReport(units=units, parts=parts, masses=masses)


def unit_interior_points(comp: MetricComplex, u, n: int,
                         rng: np.random.Generator):
    """Interior sample points of a unit (its barycenter plus n random)."""
    if u["kind"] == "cell":
        cid = u["id"]
        nv = comp.cells[cid].nverts
        pts = [ComplexPoint(comp, cid, np.full(nv, 1.0 / nv))]
        for _ in range(n):
            pts.append(ComplexPoint(comp, cid, rng.dirichlet(np.ones(nv))))
        return pts
    cid, tup = u["id"]
    nv = comp.cells[cid].nverts
    pts = []
    b = np.zeros(nv)
    for v in tup:
        b[v] = 1.0 / len(tup)
    pts.append(ComplexPoint(comp, cid, b))
    for _ in range(n):
        b = np.zeros(nv)
        w = rng.dirichlet(np.ones(len(tup)))
        for pos, v in enumerate(tup):
            b[v] = w[pos]
        pts.append(ComplexPoint(comp, cid, b))
    return pts


def regular_set(comp: MetricComplex, k: int, delta: float,
                samples_per_unit: int = 2, reach: float = 0.15,
                rng: np.random.Generator | None = None) -> dict:
    """Units of X^k whose sampled points are (k, delta)-strained, the
    singular complement inside the closure of X^k, and its (k-1)-mass.

    The paper's smallness convention for delta is delta0 = 1/(50 n0^2);
    larger deltas are accepted (the check is still well defined)."""
    from . import strainers
    rng = rng or np.random.default_rng(comp.settings.seed)
    rep = strata(comp)
    regular = []
    singular = []
    for u in rep.units:
        if u["star_dim"] != k:
            continue
        pts = unit_interior_points(comp, u, samples_per_unit, rng)
        ok = True
        for x in pts:
            s = strainers.is_strained(comp, x, k, delta, reach=reach)
            if s is None:
                ok = False
                break
        (regular if ok else singular).append(u)
    mass_km1 = sum(
        comp.face_volume(u["id"]) if u["kind"] == "face"
        else comp.simplex_volume(u["id"])
        for u in singular if u["dim"] == k - 1)
    count_singular_points = sum(1 for u in singular if u["dim"] == 0)
    if k == 1:
        mass_km1 = float(count_singular_points)
    return {"regular": regular, "singular": singular,
            "singular_mass_km1": mass_km1,
            "delta0": 1.0 / (50.0 * comp.dim**2)}


# ---------------------------------------------------------------------------
# balls: measured and sampled over the same pieces


def _disk_poly_area(center: np.ndarray, r: float, poly: np.ndarray) -> float:
    """Area of the intersection of a disk with a convex polygon.  By Green's
    theorem it is the signed area swept from the center along the clipped
    boundary: along each part of an edge inside the disk, the triangle it
    makes with the center, and outside the disk, the sector.  An edge whose
    line does not cross the circle is outside, even where it touches it."""
    pts = np.asarray(poly, float) - np.asarray(center, float)
    area = 0.0
    for p1, p2 in zip(pts, np.roll(pts, -1, axis=0)):
        d = p2 - p1
        a, b, c = float(d @ d), float(p1 @ d), float(p1 @ p1) - r * r
        crosses = b * b - a * c > 0
        ts = [0.0, 1.0]
        if crosses:
            sq = math.sqrt(b * b - a * c)
            ts += [t for t in ((-b - sq) / a, (-b + sq) / a) if 0 < t < 1]
        ts.sort()
        for t0, t1 in zip(ts, ts[1:]):
            q1, q2 = p1 + t0 * d, p1 + t1 * d
            cross = float(q1[0] * q2[1] - q1[1] * q2[0])
            mid = q1 + q2
            inside = crosses and float(mid @ mid) <= 4 * r * r
            area += 0.5 * (cross if inside
                           else r * r * math.atan2(cross, float(q1 @ q2)))
    return abs(area)


class BallCover:
    """Disks in the 2-cells, in cell coordinates, whose union holds the
    2-dimensional part of B_r(x).

    A shortest path from x is straight after its last singular vertex (BH
    I.5 and II.1.4).  So a point of the ball lies in the disk of radius r
    about the source in a development of x's tree, when its path does not
    bend, or in the disk of radius r - d(x, v) about v in a development of
    the tree of the path's last singular vertex v.  `disks` holds (cid,
    center, radius, area of the disk inside the cell) for every development
    whose disk meets its cell, sorted by cell, center and radius."""

    def __init__(self, comp: MetricComplex, x: ComplexPoint, r: float):
        self.comp = comp
        self.eng = eng = geo.engine(comp)
        self.disks = []
        for v, rho in [(x, r)] + [(v, r - dv) for v, dv
                                  in eng.singular_within(x, r) if dv < r]:
            tree = eng.tree(v, rho * (1 + 1e-9) + 1e-12)
            self.disks += _tree_disks(comp, tree, rho)
        self.disks.sort(key=lambda d: (d[0], *d[1], d[2]))
        areas = np.array([d[3] for d in self.disks])
        self.area = float(areas.sum())
        self.probs = areas / self.area

    def draw(self, rng: np.random.Generator):
        """(cid, q, m): a disk chosen by area, a uniform point q of it inside
        its cell, and the number m of the cell's disks that hold q.  Points
        come with density m / area, so weight 1/m makes them uniform."""
        j = int(rng.choice(len(self.disks), p=self.probs))
        cid, center, rho, _ = self.disks[j]
        poly = self.comp.cells[cid].coords
        while True:
            ang = 2 * math.pi * float(rng.random())
            rad = rho * math.sqrt(float(rng.random()))
            q = center + rad * np.array([math.cos(ang), math.sin(ang)])
            lam = self.eng._solver(cid) @ (q - poly[0])
            if min(lam.min(), 1.0 - lam.sum()) >= -1e-12:
                break
        m = sum(1 for (c2, cen2, rho2, _) in self.disks
                if c2 == cid and float((q - cen2) @ (q - cen2))
                <= rho2 * rho2 + 1e-15)
        return cid, q, m


def _tree_disks(comp: MetricComplex, tree, rho: float) -> list:
    """(cid, center, rho, area) of the developments of a source tree whose
    disk of radius rho about the source meets their cell."""
    disks = []
    for cid, sl in tree.cells.items():
        poly = comp.cells[cid].coords
        # the cell lies within `reach` of its centroid g, so a disk whose
        # center is farther than rho + reach from g misses it; a cached tree
        # can reach far past rho
        g = poly.mean(axis=0)
        reach = float(np.max(np.hypot(*(poly - g).T)))
        gd = tree.A[sl] @ g + tree.t[sl]
        near = np.nonzero(np.hypot(gd[:, 0], gd[:, 1]) <= rho + reach)[0]
        for A, t in zip(tree.A[sl][near], tree.t[sl][near]):
            center = A.T @ (-t)
            area = _disk_poly_area(center, rho, poly)
            # a disk tangent to its cell gets a rounding-level area, 0 or
            # not by the last bits of its placement; relative to the disk's
            # own area so the cover does not depend on the tree
            if area > 1e-12 * math.pi * rho * rho:
                disks.append((cid, center, rho, area))
    return disks


def ball_mass_2d(comp: MetricComplex, x: ComplexPoint, r: float,
                 target_rel_se: float = 0.005, max_samples: int = 40000,
                 rng: np.random.Generator | None = None) -> dict:
    """H^2 of B_r(x): Monte Carlo over the disks of `BallCover`, summing
    1/m for each draw within r of x.  Returns mass, standard error and
    sample count."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    eng = geo.engine(comp)
    cover = BallCover(comp, x, r)
    if not cover.disks:
        return {"mass": 0.0, "se": 0.0, "n": 0}
    vals = []
    n = 0
    batch = 1500
    while n < max_samples:
        for _ in range(batch):
            cid, q, m = cover.draw(rng)
            y = ComplexPoint(comp, cid, eng.bary_from_xy(cid, q))
            d, _ = eng.distance(x, y, need_path=False)
            vals.append((1.0 / m) if d <= r + 1e-12 else 0.0)
        n = len(vals)
        arr = np.asarray(vals)
        mean = float(arr.mean())
        se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
        if mean > 0 and se <= target_rel_se * mean:
            break
    return {"mass": cover.area * mean, "se": cover.area * se, "n": n}


def ball_intervals_1d(comp: MetricComplex, x: ComplexPoint, r: float):
    """B_r(x) on the 1-cells, exactly: disjoint (cid, a, b), the points at
    positions a to b along 1-cell cid from its slot 0, in cell order.

    Along an edge, d(x, .) = min(da + t, db + L - t, |t - own|); the
    sublevel set is a union of intervals with closed-form endpoints."""
    eng = geo.engine(comp)
    pieces = []
    for cell in comp.cells:
        if cell.dim != 1:
            continue
        L = float(cell.lengths[0, 1])
        ends = [ComplexPoint(comp, cell.cid, np.array([1.0, 0.0])),
                ComplexPoint(comp, cell.cid, np.array([0.0, 1.0]))]
        da, _ = eng.distance(x, ends[0], need_path=False)
        db, _ = eng.distance(x, ends[1], need_path=False)
        intervals = [(0.0, r - da), (L - (r - db), L)]
        for (ecid, pos, _) in eng._edge_positions(x):
            if ecid == cell.cid:
                intervals.append((pos - r, pos + r))
        clipped = sorted((max(0.0, a), min(L, b)) for a, b in intervals
                         if min(L, b) > max(0.0, a))
        cur = -1.0
        for a, b in clipped:
            lo = max(a, cur)
            if b > lo:
                pieces.append((cell.cid, lo, b))
            cur = max(cur, b)
    return pieces


def ball_mass_1d(comp: MetricComplex, x: ComplexPoint, r: float) -> float:
    """Exact H^1 of B_r(x) restricted to the 1-dimensional part X^1: the
    summed length of `ball_intervals_1d`."""
    return sum(b - a for _, a, b in ball_intervals_1d(comp, x, r))


def canonical_measure(comp: MetricComplex, region=None,
                      target_rel_se: float | None = None,
                      rng: np.random.Generator | None = None) -> dict:
    """Per-k masses of the canonical measure on the whole complex (exact) or
    restricted to a ball (Monte Carlo for k = 2, exact intervals for k = 1,
    counts for k = 0)."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    if region is None:
        rep = strata(comp)
        return {"masses": dict(rep.masses), "errors": {k: 0.0 for k in rep.masses}}
    x, r = region
    target = (target_rel_se if target_rel_se is not None
              else comp.settings.mc_target_rel_error)
    masses: dict[int, float] = {}
    errors: dict[int, float] = {}
    rep = strata(comp)
    eng = geo.engine(comp)
    for k in rep.masses:
        if k == 2:
            out = ball_mass_2d(comp, x, r, target_rel_se=target, rng=rng)
            masses[2] = out["mass"]
            errors[2] = out["se"]
        elif k == 1:
            masses[1] = ball_mass_1d(comp, x, r)
            errors[1] = 0.0
        elif k == 0:
            cnt = 0
            for c in comp.cells:
                if c.dim == 0:
                    p = ComplexPoint(comp, c.cid, np.array([1.0]))
                    d, _ = eng.distance(x, p, need_path=False)
                    if d <= r:
                        cnt += 1
            masses[0] = float(cnt)
            errors[0] = 0.0
        else:
            raise StrataError("ball masses implemented for k <= 2")
    return {"masses": masses, "errors": errors}


# ---------------------------------------------------------------------------
# densities and dimension


def cone_unit_mass(L: lk.LinkSpace, k: int) -> float:
    """H^k of the unit ball of the Euclidean cone over the link."""
    if k == 2:
        return 0.5 * sum(a.length for a in L.arcs)
    if k == 1:
        touched = set()
        for a in L.arcs:
            touched.add(a.i)
            touched.add(a.j)
        return float(len(L.nodes) - len(touched))
    if k == 0:
        return 1.0 if not L.nodes else 0.0
    raise StrataError("cone masses implemented for k <= 2")


def density_at(comp: MetricComplex, x: ComplexPoint, k: int, radii,
               rng: np.random.Generator | None = None) -> dict:
    """Table of mu^k(B_r(x)) / r^k over decreasing radii, with the tangent
    cone's unit-ball mass as the declared limit."""
    rng = rng or np.random.default_rng(comp.settings.seed)
    L = lk.link_at(comp, x)
    limit = cone_unit_mass(L, k)
    rows = []
    for r in sorted(radii, reverse=True):
        m = canonical_measure(comp, (x, r), rng=rng)
        rows.append({"radius": r, "density": m["masses"].get(k, 0.0) / r**k,
                     "se": m["errors"].get(k, 0.0) / r**k})
    return {"rows": rows, "cone_limit": limit,
            "final": rows[-1]["density"] if rows else math.nan}


def _net_counts(comp: MetricComplex, scales, pool: int,
                rng: np.random.Generator):
    """Greedy covering numbers at several scales.

    Distances from each chosen center to the pool are evaluated in bulk as
    the minimum over the chord lengths of the center's tree developments
    (plus the threading bound through vertex classes).  No ray walk
    validates a chord, so this is not the distance: it, and `box_counting`
    with it, depends on which developments the tree holds."""
    eng = geo.engine(comp)
    verts = eng.vertex_points()
    nv = len(verts)
    vids = eng.vid_map()
    pts = [geo.uniform_point(comp, rng) for _ in range(pool)]
    xys = np.array([p.xy(comp) for p in pts]) if comp.dim == 2 else None
    cells = np.array([p.cid for p in pts])
    by_cell = {cid: np.nonzero(cells == cid)[0]
               for cid in set(cells.tolist())}
    tov = np.full((pool, nv), np.inf)
    for a, p in enumerate(pts):
        cell = comp.cells[p.cid]
        for s in range(cell.nverts):
            j = vids[(p.cid, s)]
            if cell.dim == 2:
                w = float(np.linalg.norm(xys[a] - cell.coords[s]))
            else:
                w = float(abs(p.bary[1 - s] * cell.lengths[0, 1]))
            tov[a, j] = min(tov[a, j], w)

    pool_edge_pos: dict = {}
    for a, p in enumerate(pts):
        for (root, posn, _) in eng._edge_positions(p):
            pool_edge_pos.setdefault(root, []).append((a, posn))
    pool_edge_pos = {root: (np.array([i for i, _ in lst]),
                            np.array([q for _, q in lst]))
                     for root, lst in pool_edge_pos.items()}

    def dists_from(center: ComplexPoint, radius: float) -> np.ndarray:
        out = np.full(pool, np.inf)
        tree = eng.tree(center, radius * 1.05)
        if comp.dim == 2:
            for cid, idx in by_cell.items():
                sl = tree.cells.get(cid)
                if sl is None:
                    continue
                A, t = tree.A[sl], tree.t[sl]
                ps = np.einsum("nij,mj->nmi", A, xys[idx]) + t[:, None, :]
                lns = np.min(np.hypot(ps[..., 0], ps[..., 1]), axis=0)
                out[idx] = np.minimum(out[idx], lns)
        for (root, cpos, _) in eng._edge_positions(center):
            hit = pool_edge_pos.get(root)
            if hit is not None:
                idx, qs = hit
                out[idx] = np.minimum(out[idx], np.abs(qs - cpos))
        # threading through vertex classes
        cd = np.array([eng.distance(center, v, need_path=False)[0]
                       for v in verts])
        out = np.minimum(out, np.min(cd[None, :] + tov, axis=1))
        return out

    counts = []
    diam = 4.0 * max(float(np.max(c.lengths)) for c in comp.cells)
    for eps in scales:
        uncovered = np.ones(pool, dtype=bool)
        count = 0
        order = rng.permutation(pool)
        for i in order:
            if not uncovered[i]:
                continue
            count += 1
            d = dists_from(pts[int(i)], min(eps * 1.2, diam))
            uncovered &= d > eps
            uncovered[i] = False
        counts.append(count)
    return counts


def dimension_report(comp: MetricComplex, region=None,
                     rng: np.random.Generator | None = None) -> dict:
    """Topological dimension, box-counting estimate, max strained k, and a
    witness point with round-sphere link."""
    from . import convergence, strainers
    rng = rng or np.random.default_rng(comp.settings.seed)
    n = comp.dim
    # box counting from eps-net counts at three scales (vectorized distance
    # upper bound: same-cell chords and chords through the vertex graph)
    diam_est = max(float(np.max(c.lengths)) for c in comp.cells)
    scales = [diam_est / 8, diam_est / 16, diam_est / 32]
    counts = _net_counts(comp, scales, pool=10000, rng=rng)
    logs = np.log(np.array(counts, dtype=float))
    les = np.log(1.0 / np.array(scales))
    slope = float(np.polyfit(les, logs, 1)[0])
    # max strained k on samples: sweep upward, breaking at the first failing
    # level; the expensive k = n+1 refutation runs on a smaller sample
    kmax = 0
    witness = None
    samples = [geo.uniform_point(comp, rng) for _ in range(16)]
    for x in samples:
        k = kmax + 1
        while k <= n:
            s = strainers.is_strained(comp, x, k, 1.0 / (4.0 * k), reach=0.1)
            if s is None:
                break
            kmax = k
            k += 1
        if witness is None and strainers.euclidean_point(comp, x):
            witness = x
    overshoot = 0
    for x in samples[:6]:
        k = n + 1
        if strainers.is_strained(comp, x, k, 1.0 / (4.0 * k),
                                 reach=0.1) is not None:
            overshoot += 1
    return {"topological_dim": n, "box_counting": slope,
            "max_strained_k": max(kmax, n + 1 if overshoot else kmax),
            "overstrained_samples": overshoot,
            "euclidean_witness": witness}
