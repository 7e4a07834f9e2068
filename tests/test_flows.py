import math

import numpy as np
import pytest

from gcba import corpus, flows, strainers
from gcba import geodesics as geo
from gcba.corpus import square_point, theta_point, torus_point


@pytest.fixture(scope="module")
def torus_setup(torus):
    x = torus_point(torus, 0.4, 0.4)
    s = strainers.is_strained(torus, x, 2, 0.04, reach=0.2,
                              estimate_radius=True)
    return x, s


def test_phi_identity_on_fiber(torus, torus_setup):
    x, s = torus_setup
    eng = geo.engine(torus)
    a0, _ = eng.distance(s.points[0], x, need_path=False)
    end, trace, moved = flows.flow_phi_i(torus, s, 0, x, a0, tol=1e-9)
    assert moved == 0.0 and end == x and len(trace) == 1


def test_phi_moves_to_level_set(torus, torus_setup, rng):
    x, s = torus_setup
    eng = geo.engine(torus)
    a0, _ = eng.distance(s.points[0], x, need_path=False)
    y = geo.ball_samples(torus, x, s.radius_estimate, 1, rng)[0]
    end, trace, moved = flows.flow_phi_i(torus, s, 0, y, a0, tol=1e-8)
    f, _ = eng.distance(s.points[0], end, need_path=False)
    assert abs(f - a0) <= 1e-7
    # rate check: |f_i| changed at >= 1 - 2 delta per unit length
    f0, _ = eng.distance(s.points[0], y, need_path=False)
    assert abs(f0 - a0) >= (1 - 2 * s.delta) * moved - 1e-9


def test_retract_properties(torus, torus_setup, rng):
    x, s = torus_setup
    eng = geo.engine(torus)
    F = strainers.StrainerMap(comp=torus, points=s.points,
                              opposites=s.opposites)
    fx = F.value(x)
    for y in geo.ball_samples(torus, x, s.radius_estimate, 5, rng):
        track = flows.retract_to_fiber(torus, s, x, y=y, tol=1e-6)
        assert track.residual <= 1e-6
        gap = float(np.linalg.norm(F.value(y) - fx))
        assert track.length <= 8 * s.k * gap * 1.05 + 1e-9
        assert track.diameter(torus) <= 8 * s.k * gap * 1.05 + 1e-9
        dyx, _ = eng.distance(x, y, need_path=False)
        assert all(d <= dyx + 1e-9 for d in track.dist_to_center)
        # residual halves per round
        rr = track.round_residuals
        for a, b in zip(rr, rr[1:]):
            assert b <= 0.5 * a + 1e-6
        # restarting from the endpoint is a fixed point
        again = flows.retract_to_fiber(torus, s, x, y=track.final, tol=1e-6)
        assert again.length <= 1e-5


def test_diameter_matches_fresh_engine(torus, torus_setup, rng):
    # neither the query order nor the shared engine's caches may change the
    # value: recompute the same sampled pairs with an engine of its own
    x, s = torus_setup
    y = geo.ball_samples(torus, x, s.radius_estimate, 1, rng)[0]
    track = flows.retract_to_fiber(torus, s, x, y=y, tol=1e-6)
    pts = track.trace
    assert len(pts) > 40
    pts = [pts[i] for i in np.linspace(0, len(pts) - 1, 40).astype(int)]
    fresh = geo.GeodesicEngine(torus)
    ref = max(fresh.distance(p, q, need_path=False)[0]
              for i, p in enumerate(pts) for q in pts[i + 1:])
    assert track.diameter(torus) == pytest.approx(ref, abs=1e-12)


def test_diameter_of_a_chord_track_makes_no_scalar_query(torus, monkeypatch):
    # every sampled pair of this track lies in one triangle, nearer than the
    # boundary: the one array step answers them all
    x = torus_point(torus, 0.42, 0.3)
    s = strainers.is_strained(torus, x, 2, 0.04, reach=0.2,
                              estimate_radius=True)
    y = geo.ball_samples(torus, x, s.radius_estimate, 1,
                         np.random.default_rng(1))[0]
    track = flows.retract_to_fiber(torus, s, x, y=y, tol=1e-6)
    eng = geo.engine(torus)
    pts = [track.trace[i]
           for i in np.linspace(0, len(track.trace) - 1, 40).astype(int)]
    assert all(p != q and eng._inner_chord(p, q) is not None
               for i, p in enumerate(pts) for q in pts[i + 1:])
    calls = []
    scalar = geo.GeodesicEngine.distance
    monkeypatch.setattr(geo.GeodesicEngine, "distance",
                        lambda *a, **k: calls.append(a) or scalar(*a, **k))
    diam = track.diameter(torus)
    assert calls == []
    assert diam == max(eng._inner_chord(p, q)[0]
                       for i, p in enumerate(pts) for q in pts[i + 1:])


def test_retract_trivial_cases(torus, torus_setup):
    x, s = torus_setup
    track = flows.retract_to_fiber(torus, s, x, y=x, tol=1e-6)
    assert track.length == 0.0 and track.residual <= 1e-6


def test_dichotomy_injective_torus(torus, torus_setup, rng):
    x, s = torus_setup
    res = flows.fiber_dichotomy(torus, s, (x, s.radius_estimate),
                                samples=18, rng=rng)
    assert res["verdict"] == "injective"
    assert not res["mixed_evidence"]


def test_dichotomy_nondiscrete_theta_s1(theta_s1, rng):
    xp = square_point(theta_s1, 0, 0.5, 0.25)
    s1 = strainers.is_strained(theta_s1, xp, 1, 0.04, reach=0.2,
                               estimate_radius=True)
    res = flows.fiber_dichotomy(theta_s1, s1, (xp, s1.radius_estimate),
                                samples=18, rng=rng)
    assert res["verdict"] == "fibers-non-discrete"
    assert not res["mixed_evidence"]
    assert res["min_spread"] >= s1.radius_estimate / 2


def test_dichotomy_injective_theta_edge(theta, rng):
    x = theta_point(theta, 0, 0.5)
    s = strainers.is_strained(theta, x, 1, 0.04, reach=0.2,
                              estimate_radius=True)
    res = flows.fiber_dichotomy(theta, s, (x, s.radius_estimate),
                                samples=14, rng=rng)
    assert res["verdict"] == "injective"


def test_rips_betti_shapes():
    # circle of 12 points
    n = 12
    ang = np.linspace(0, 2 * math.pi, n, endpoint=False)
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    assert flows._rips_betti(d, 0.7) == (1, 1)
    # two far points
    d2 = np.array([[0.0, 5.0], [5.0, 0.0]])
    assert flows._rips_betti(d2, 1.0) == (2, 0)
    # filled triangle: b1 = 0
    d3 = np.ones((3, 3)) - np.eye(3)
    assert flows._rips_betti(d3, 1.5) == (1, 0)


def test_sphere_vs_link_examples(torus, theta, theta_s1, rng):
    r = flows.sphere_vs_link_check(torus, torus_point(torus, 0.3, 0.6),
                                   [0.1, 0.05], rng=rng)
    assert r["link_betti"] == (1, 1)
    assert all(row["match"] for row in r["per_radius"])
    assert r["stable_up_to"] == 0.1
    r = flows.sphere_vs_link_check(theta, theta_point(theta, 0, 0.0),
                                   [0.2, 0.1], rng=rng)
    assert r["link_betti"] == (3, 0)
    assert all(row["match"] for row in r["per_radius"])
    r = flows.sphere_vs_link_check(theta_s1, square_point(theta_s1, 0, 0.0, 0.4),
                                   [0.1, 0.05], rng=rng)
    assert r["link_betti"] == (1, 2)
    assert all(row["match"] for row in r["per_radius"])


# ---------------------------------------------------------------------------
# the flow walks the geodesic it queried


def _flow_phi_i_requery(comp, s, i, y, target_ai, tol=1e-9, step_cap=None):
    """The coordinate flow that steps: one fresh geodesic query to the goal
    and one query of f_i at every step.  Kept only as the reference the
    exact moves of `flows.flow_phi_i` are compared against."""
    eng = geo.engine(comp)
    if step_cap is None:
        step_cap = max(s.radius_estimate / 100.0, 1e-4)
    rate = 1.0 - 2.0 * max(s.delta, 1e-6)
    tol = max(tol, 3e-9)
    trace = [y]
    cur = y
    fi, _ = eng.distance(s.points[i], cur, need_path=False)
    gap = fi - target_ai
    moved = 0.0
    guard = 0
    stall = 0
    while abs(gap) > tol:
        guard += 1
        if guard > 5000:
            raise flows.FlowError("flow failed to converge (step budget)")
        goal = s.points[i] if gap > 0 else s.opposites[i]
        step = min(0.1 * abs(gap), step_cap)
        d, path = eng.distance(cur, goal)
        if d <= step:
            step = min(step, d / 2.0) or d / 2.0
        nxt = path.point_at(step)
        fi2, _ = eng.distance(s.points[i], nxt, need_path=False)
        gap2 = fi2 - target_ai
        if abs(gap2) >= abs(gap) - 1e-11:
            stall += 1
            if stall > 3:
                if abs(gap2) <= 10 * tol:
                    cur = nxt
                    break
                raise flows.FlowError("flow stagnation")
        elif abs(gap2) > abs(gap) - rate * step + 1e-9 + 0.02 * step:
            raise flows.FlowError("non-monotone flow step")
        else:
            stall = 0
        moved += step
        cur = nxt
        gap = gap2
        trace.append(cur)
    return cur, trace, moved


@pytest.fixture(scope="module")
def criterion_4_setups(torus, theta_s1):
    """The strainers torus_k2 and page_k2 of the acceptance suite."""
    return {
        "torus_k2": (torus, strainers.is_strained(
            torus, torus_point(torus, 0.42, 0.3), 2, 0.04, reach=0.2,
            estimate_radius=True)),
        "page_k2": (theta_s1, strainers.is_strained(
            theta_s1, square_point(theta_s1, 0, 0.5, 0.25), 2, 0.04,
            reach=0.15, estimate_radius=True)),
    }


def _rate_check_holds(f_prev, f_next, a, step, rate):
    """The per-step check of the stepwise flow: |gap| falls by at least
    (rate - 0.02) * step, up to 1e-9."""
    return abs(f_next - a) <= abs(f_prev - a) - rate * step + 1e-9 + 0.02 * step


@pytest.mark.parametrize("name", ["torus_k2", "page_k2"])
def test_exact_moves_match_requery(criterion_4_setups, name, monkeypatch):
    comp, s = criterion_4_setups[name]
    eng = geo.engine(comp)
    rate = 1.0 - 2.0 * max(s.delta, 1e-6)
    real_distance = geo.GeodesicEngine.distance
    real_point_at = geo.GeodesicPath.point_at
    real_phi = flows.flow_phi_i
    F = strainers.StrainerMap(comp=comp, points=s.points,
                              opposites=s.opposites)
    fx = F.value(s.center)
    ys = geo.ball_samples(comp, s.center, s.radius_estimate, 12,
                          np.random.default_rng(15))
    p_checked = q_checked = 0
    for y in ys:
        goals, placed, moves = {}, [], []

        def distance(self, x, z, need_path=True):
            out = real_distance(self, x, z, need_path)
            if need_path:
                goals[id(out[1])] = (out[1], z)
            return out

        def point_at(self, t):
            pt = real_point_at(self, t)
            placed.append((self, t, pt))
            return pt

        def phi(comp, s, i, y, target_ai, tol, **kwargs):
            out = real_phi(comp, s, i, y, target_ai, tol=tol, **kwargs)
            moves.append((i, target_ai, max(tol, 3e-9), out[1]))
            return out

        with monkeypatch.context() as m:
            m.setattr(geo.GeodesicEngine, "distance", distance)
            m.setattr(geo.GeodesicPath, "point_at", point_at)
            m.setattr(flows, "flow_phi_i", phi)
            new = flows.retract_to_fiber(comp, s, s.center, y=y, tol=1e-6)
        with monkeypatch.context() as m:
            m.setattr(flows, "flow_phi_i", _flow_phi_i_requery)
            ref = flows.retract_to_fiber(comp, s, s.center, y=y, tol=1e-6)
        assert new.residual <= 1e-6 and ref.residual <= 1e-6
        d, _ = eng.distance(new.final, ref.final, need_path=False)
        assert d <= 1e-6
        assert new.length == pytest.approx(ref.length, abs=1e-6)
        # the diameter samples 40 trace points, so it moves with the trace
        # length; both keep criterion 4's bound
        gap = float(np.linalg.norm(F.value(y) - fx))
        for track in (new, ref):
            assert track.diameter(comp) <= 8 * s.k * gap * 1.05 + 1e-9
        # toward p_i, f_i is the arclength still to go: no query needed
        for path, t, pt in placed:
            if id(path) in goals and goals[id(path)][1] in s.points:
                p = goals[id(path)][1]
                f, _ = eng.distance(p, pt, need_path=False)
                assert f == pytest.approx(path.length - t, abs=1e-12)
                p_checked += 1
        # every move lands on its level; toward q_i, every step passes the
        # stepwise flow's rate check
        for i, a, tol, trace in moves:
            f = [eng.distance(s.points[i], b, need_path=False)[0]
                 for b in trace]
            assert abs(f[-1] - a) <= tol + 1e-12
            if len(trace) < 2 or f[0] > a:
                continue
            for k in range(len(trace) - 1):
                step, _ = eng.distance(trace[k], trace[k + 1],
                                       need_path=False)
                assert _rate_check_holds(f[k], f[k + 1], a, step, rate)
                q_checked += 1
    assert p_checked > 100 and q_checked > 100


@pytest.mark.parametrize("name", ["torus_k2", "page_k2"])
def test_one_path_query_per_flow(criterion_4_setups, name, monkeypatch):
    comp, s = criterion_4_setups[name]
    queries, scalar = [], []
    real_distance = geo.GeodesicEngine.distance

    def counted(self, x, y, need_path=True):
        (queries if need_path else scalar).append((x, y))
        return real_distance(self, x, y, need_path)

    per_call, per_retraction = [], []
    real_phi = flows.flow_phi_i

    def phi(comp, s, i, y, target_ai, **kwargs):
        f0, _ = real_distance(geo.engine(comp), s.points[i], y,
                              need_path=False)
        before, f_before = len(queries), len(scalar)
        out = real_phi(comp, s, i, y, target_ai, **kwargs)
        f_queries = sum(x == s.points[i] for x, _ in scalar[f_before:])
        per_call.append((len(queries) - before, len(out[1]) - 1,
                         f0 < target_ai, f_queries - 1))
        return out

    monkeypatch.setattr(geo.GeodesicEngine, "distance", counted)
    monkeypatch.setattr(flows, "flow_phi_i", phi)
    for y in geo.ball_samples(comp, s.center, s.radius_estimate, 5,
                              np.random.default_rng(16)):
        before = len(queries) + len(scalar)
        flows.retract_to_fiber(comp, s, s.center, y=y, tol=1e-6)
        per_retraction.append(len(queries) + len(scalar) - before)
    assert sum(steps for _, steps, _, _ in per_call) > 10 * len(per_call)
    # a flow that takes a step queries its path once; one that starts on
    # the level set queries none
    assert all(q == (1 if steps else 0) for q, steps, _, _ in per_call)
    # a p_i move reads f_i from the arclength; a q_i move queries f_i only
    # at its solver's iterates
    assert any(toward_q and steps for _, steps, toward_q, _ in per_call)
    assert all(n <= 8 if toward_q and steps else n == 0
               for _, steps, toward_q, n in per_call)
    assert max(per_retraction) < 60


class _Measured:
    """An engine whose distances from `p` pass through measure(n, d), n
    counting those queries, and which records the goal of each path query;
    everything else goes to the real engine."""

    def __init__(self, real, p, measure):
        self.real, self.p, self.measure = real, p, measure
        self.n = 0
        self.goals = []

    def distance(self, x, y, need_path=True):
        d, path = self.real.distance(x, y, need_path)
        if need_path:
            self.goals.append(y)
        elif x == self.p:
            d = self.measure(self.n, d)
            self.n += 1
        return d, path

    def __getattr__(self, name):
        return getattr(self.real, name)


def _q_move_error(torus, torus_setup, monkeypatch, measure):
    """The FlowError of a q_0 move by 0.01 from x whose measured f_0
    passes through measure(n, d, f0)."""
    x, s = torus_setup
    real = geo.engine(torus)
    f0, _ = real.distance(s.points[0], x, need_path=False)
    stub = _Measured(real, s.points[0], lambda n, d: measure(n, d, f0))
    monkeypatch.setattr(geo, "engine", lambda comp: stub)
    with pytest.raises(flows.FlowError) as err:
        flows.flow_phi_i(torus, s, 0, x, f0 + 0.01, tol=1e-9)
    assert stub.goals == [s.opposites[0]]
    return err.value


def _counts(e):
    return (e.i, e.steps, e.path_queries, e.solver_queries)


def test_stagnation_reports_counts(torus, torus_setup, monkeypatch):
    # a measured f_0 that never moves: the first step makes no progress
    e = _q_move_error(torus, torus_setup, monkeypatch, lambda n, d, f0: f0)
    assert _counts(e) == (0, 0, 1, 1)
    assert e.gap == pytest.approx(0.01, abs=1e-12)
    assert str(e) == ("flow stagnation, i 0, steps 0, path_queries 1, "
                      "solver_queries 1, gap 0.01")


def test_shallow_first_chord_is_non_monotone(torus, torus_setup,
                                            monkeypatch):
    # f_0 rising at half its rate fails the rate check on the first chord
    x, s = torus_setup
    e = _q_move_error(torus, torus_setup, monkeypatch,
                      lambda n, d, f0: d if n == 0 else f0 + 0.5 * (d - f0))
    h = min(0.001, max(s.radius_estimate / 100.0, 1e-4))
    assert _counts(e) == (0, 0, 1, 1)
    assert e.gap == pytest.approx(0.01 - 0.5 * h, abs=1e-9)
    assert str(e) == (f"non-monotone flow step (strainer quality): |gap| "
                      f"{0.01:.3e} -> {e.gap:.3e} with step {h:.3e}, i 0, "
                      f"steps 0, path_queries 1, solver_queries 1, "
                      f"gap {e.gap:.4g}")


@pytest.mark.parametrize("where, shift, queries", [
    ("above its chord", 0.005, 3),
    ("below its chord's extension", -0.005, 2)])
def test_convexity_violation_raises(torus, torus_setup, monkeypatch, where,
                                    shift, queries):
    # the first step is true; then f_0 is shifted from the second solver
    # iterate on.  Shifted up, the extension's iterate becomes the right end
    # and the chord's root reads above the level; shifted down, the
    # extension's iterate reads below it.
    e = _q_move_error(torus, torus_setup, monkeypatch,
                      lambda n, d, f0: d if n < 2 else d + shift)
    assert _counts(e) == (0, 0, 1, queries)
    assert 1e-9 < e.gap <= abs(shift)
    assert str(e) == (f"convexity violated: f is {e.gap:.3e} {where}, i 0, "
                      f"steps 0, path_queries 1, solver_queries {queries}, "
                      f"gap {e.gap:.4g}")


def test_unreachable_level_raises(torus, torus_setup):
    # q_0 is 0.2 from x and f_0 rises at rate 1 toward it: a level 0.5
    # above f_0(x) lies beyond q_0 on the path
    x, s = torus_setup
    f0, _ = geo.engine(torus).distance(s.points[0], x, need_path=False)
    with pytest.raises(flows.FlowError) as err:
        flows.flow_phi_i(torus, s, 0, x, f0 + 0.5, tol=1e-9)
    e = err.value
    assert _counts(e) == (0, 0, 1, 2)
    assert e.gap == pytest.approx(0.3, abs=1e-9)
    assert str(e).startswith("level not reached on the path to q_i, i 0")
