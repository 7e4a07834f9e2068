import math
import os
import sys

import numpy as np
import pytest

from gcba import convergence, corpus, strainers
from gcba import geodesics as geo
from gcba.corpus import square_point, theta_point, torus_point

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
from workloads import StrainerAtlas  # noqa: E402

PI = math.pi


@pytest.fixture(scope="module")
def torus_strainer(torus):
    x = torus_point(torus, 0.42, 0.3)
    s = strainers.is_strained(torus, x, 2, 0.04, reach=0.2,
                              estimate_radius=True)
    assert s is not None
    return s


def test_is_strained_examples(theta, torus, theta_s1):
    s = strainers.is_strained(theta, theta_point(theta, 0, 0.4), 1, 0.05,
                              reach=0.2)
    assert s is not None and s.k == 1
    assert strainers.is_strained(theta, theta_point(theta, 0, 0.0), 1, 0.1,
                                 reach=0.2) is None
    page = strainers.is_strained(theta_s1, square_point(theta_s1, 0, 0.5, 0.25),
                                 2, 0.05, reach=0.2)
    assert page is not None and page.k == 2
    spine = square_point(theta_s1, 0, 0.0, 0.4)
    assert strainers.is_strained(theta_s1, spine, 1, 0.05, reach=0.2) is not None
    assert strainers.is_strained(theta_s1, spine, 2, 0.05, reach=0.2) is None


def test_strainer_verification(torus, torus_strainer):
    ok, worst = strainers.verify_strainer(torus, torus_strainer)
    assert ok and worst < 0


def test_angle_matrix_orthogonal(torus, torus_strainer):
    M = torus_strainer.angle_matrix
    k = torus_strainer.k
    assert M[0, 1] == pytest.approx(PI / 2, abs=1e-6)
    for i in range(k):
        assert M[i, k + i] == pytest.approx(PI, abs=1e-6)


def test_is_strained_queries_only_the_reach(theta_s1, monkeypatch):
    # the angle matrix is read from the link: the 2k reach-check queries
    # are the only distance queries, and angle() is never called
    real = geo.GeodesicEngine.distance
    calls = []

    def counted(self, x, y, need_path=True):
        calls.append((x, y))
        return real(self, x, y, need_path)

    def no_angle(*args):
        raise AssertionError("angle() called")

    monkeypatch.setattr(geo.GeodesicEngine, "distance", counted)
    monkeypatch.setattr(geo, "angle", no_angle)
    x = square_point(theta_s1, 2, 0.6, 0.7)
    for k in (2, 1):
        calls.clear()
        s = strainers.is_strained(theta_s1, x, k, 0.05, reach=0.15)
        assert s is not None and s.k == k
        assert len(calls) == 2 * k


def _assert_matrix_is_angles(comp, s):
    fresh = strainers._angle_matrix(comp, s.center, s.points, s.opposites)
    assert s.angle_matrix.shape == (s.k, 2 * s.k)
    assert np.max(np.abs(s.angle_matrix - fresh)) <= 1e-12


def test_angle_matrix_equals_angles(torus, theta, theta_s1):
    # the acceptance strainers of criteria 3 and 10
    for comp, x, k, reach in (
            (torus, torus_point(torus, 0.42, 0.3), 2, 0.2),
            (theta, theta_point(theta, 0, 0.5), 1, 0.2),
            (theta_s1, square_point(theta_s1, 0, 0.5, 0.25), 2, 0.15),
            (theta_s1, square_point(theta_s1, 0, 0.5, 0.25), 1, 0.15)):
        s = strainers.is_strained(comp, x, k, 0.04, reach=reach)
        assert s is not None
        _assert_matrix_is_angles(comp, s)


def test_angle_matrix_equals_angles_on_atlas_inputs():
    # 60 inputs of the strainer_atlas benchmark stream at seed 7
    wl = StrainerAtlas()
    ts = corpus.theta_times_circle()
    stream = wl.inputs(ts, np.random.default_rng(7))
    for _ in range(60):
        inp = next(stream)
        k, s = wl.op(ts, inp, None)
        assert k == inp[1]
        _assert_matrix_is_angles(ts, s)


def test_uncertified_reach_raises(theta_s1, monkeypatch):
    # a reach check that never passes: no silent uncertified strainer
    real = geo.GeodesicEngine.distance

    def off(self, x, y, need_path=True):
        d, path = real(self, x, y, need_path)
        return d + 1e-3, path

    monkeypatch.setattr(geo.GeodesicEngine, "distance", off)
    x = square_point(theta_s1, 0, 0.5, 0.25)
    with pytest.raises(strainers.StrainerError,
                       match=r"2-strainer at ComplexPoint.*0\.00625"):
        strainers.is_strained(theta_s1, x, 2, 0.05, reach=0.2)


def test_straining_radius_properties(torus, torus_strainer):
    eps = torus_strainer.radius_estimate
    assert eps > 0
    # 1-Lipschitz property of x -> eps_x on a nearby strained point
    rng = np.random.default_rng(0)
    y = geo.ball_samples(torus, torus_strainer.center, eps / 2, 1, rng)[0]
    s2 = strainers.Strainer(center=y, points=torus_strainer.points,
                            opposites=torus_strainer.opposites,
                            delta=torus_strainer.delta,
                            angle_matrix=torus_strainer.angle_matrix)
    eps_y = strainers.straining_radius(torus, s2, n_ball=3, n_probe=3)
    d, _ = geo.distance(torus, torus_strainer.center, y)
    # grid-quantized check with one grid step of slack
    assert eps_y >= eps - d - eps / 2


def test_near_spine_radius_truncated(theta_s1):
    # a page point close to the spine cannot be 2-strained across it
    h = 0.002
    x = square_point(theta_s1, 0, h, 0.25)
    s = strainers.is_strained(theta_s1, x, 2, 0.05, reach=0.15,
                              estimate_radius=True)
    assert s is not None
    assert s.radius_estimate <= h + 0.002


def test_natural_strainer_radius(torus, theta, rng):
    rho = strainers.natural_strainer_radius(torus, torus_point(torus, 0.2, 0.7),
                                            0.01, rng=rng)
    assert rho >= 0.2   # injectivity scale
    rho = strainers.natural_strainer_radius(theta, theta_point(theta, 0, 0.0),
                                            0.1, radii=[0.2, 0.1], rng=rng)
    assert rho > 0


def test_jacobian_closed_form_and_fd(torus, torus_strainer):
    F = strainers.StrainerMap(comp=torus, points=torus_strainer.points,
                              opposites=torus_strainer.opposites)
    x = torus_strainer.center
    A = strainers.strainer_jacobian(torus, F, x)
    # rows are unit vectors, pairwise angle pi/2 (orthogonal strainer)
    for row in A:
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-9)
    assert abs(np.linalg.det(A)) == pytest.approx(1.0, abs=1e-6)
    Afd = strainers.strainer_jacobian_fd(torus, F, x, h=1e-5)
    assert np.max(np.abs(A - Afd)) < 1e-4


def test_jacobian_sixty_degrees(torus):
    # p1, p2 at 60 degrees: det = sin 60
    x = torus_point(torus, 0.5, 0.5)
    p1 = torus_point(torus, 0.7, 0.5)
    p2 = torus_point(torus, 0.5 + 0.2 * math.cos(PI / 3),
                     0.5 + 0.2 * math.sin(PI / 3))
    F = strainers.StrainerMap(comp=torus, points=[p1, p2])
    A = strainers.strainer_jacobian(torus, F, x)
    assert abs(np.linalg.det(A)) == pytest.approx(math.sin(PI / 3), abs=1e-9)
    assert float(A[0] @ A[1]) == pytest.approx(math.cos(PI / 3), abs=1e-9)


def test_jacobian_rejects_singular_points(theta_s1):
    spine = square_point(theta_s1, 0, 0.0, 0.4)
    F = strainers.StrainerMap(
        comp=theta_s1, points=[square_point(theta_s1, 0, 0.2, 0.4)])
    with pytest.raises(strainers.StrainerError):
        strainers.strainer_jacobian(theta_s1, F, spine)


def test_verify_openness_flat(torus, torus_strainer, rng):
    F = strainers.StrainerMap(comp=torus, points=torus_strainer.points,
                              opposites=torus_strainer.opposites)
    rep = strainers.verify_openness(
        torus, F, (torus_strainer.center, torus_strainer.radius_estimate),
        60, rng=rng)
    assert rep["lipschitz"] <= 2 * math.sqrt(2) + 0.05
    assert rep["colipschitz"] <= 2 * math.sqrt(2) + 0.05
    assert rep["lipschitz"] == pytest.approx(1.0, abs=0.05)
    assert rep["colipschitz"] == pytest.approx(1.0, abs=0.05)


def test_openness_1d(theta, rng):
    x = theta_point(theta, 0, 0.5)
    s = strainers.is_strained(theta, x, 1, 0.05, reach=0.2,
                              estimate_radius=True)
    F = strainers.StrainerMap(comp=theta, points=s.points,
                              opposites=s.opposites)
    rep = strainers.verify_openness(theta, F, (x, s.radius_estimate), 40,
                                    rng=rng)
    assert rep["lipschitz"] == pytest.approx(1.0, abs=0.02)
    assert rep["colipschitz"] <= 2.0 + 0.05


def test_lemma_almost_perpendicular(torus, rng):
    # p, q opposite (1,delta)-strainers at both x and y (y inside the
    # straining radius): pi - 2 delta < angle(pxy) + angle(pyx) < pi
    delta = 0.04
    x = torus_point(torus, 0.42, 0.3)
    s = strainers.is_strained(torus, x, 1, delta, reach=0.2,
                              estimate_radius=True)
    p = s.points[0]
    assert s.radius_estimate > 0
    for y in geo.ball_samples(torus, x, s.radius_estimate, 10, rng):
        if y == x:
            continue
        a1 = geo.angle(torus, x, p, y)
        a2 = geo.angle(torus, y, p, x)
        assert PI - 2 * delta < a1 + a2 <= PI + 1e-9
        # equidistant variant: pi/2 - 2 delta < angle(pxy) < pi/2
        dpx, _ = geo.distance(torus, p, x)
        dpy, _ = geo.distance(torus, p, y)
        if abs(dpx - dpy) < 1e-12:
            assert PI / 2 - 2 * delta < a1 < PI / 2


def test_bad_sets(torus, theta, rng):
    bs = strainers.bad_set_greedy(torus, (torus_point(torus, 0.5, 0.5), 0.3),
                                  0.1, rng=rng)
    assert bs["size"] == 1
    bs = strainers.bad_set_greedy(theta, (theta_point(theta, 0, 0.5), 1.4),
                                  0.1, rng=rng)
    assert bs["size"] == 2
    keys = {p.key() for p in bs["points"]}
    assert keys == {theta_point(theta, 0, 0.0).key(),
                    theta_point(theta, 0, 1.0).key()}


def test_bgp_line_example():
    pts = [0.0, 1.0, 3.0, 9.0, 27.0]
    d = np.abs(np.subtract.outer(pts, pts))
    S = convergence.FiniteMetricSpace(list(range(5)), d)
    idx = strainers.bgp_select(S, 4, 2.0)
    assert strainers.bgp_verify(S, idx, 2.0)
    assert [pts[i] for i in idx] == [0.0, 1.0, 3.0, 9.0]


def test_bgp_single():
    S = convergence.FiniteMetricSpace([0], np.zeros((1, 1)))
    assert strainers.bgp_select(S, 1, 2.0) == [0]


def test_bgp_random_doubling_sets(rng):
    for _ in range(10):
        pts = rng.random((40, 2))
        d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        S = convergence.FiniteMetricSpace(list(range(40)), d)
        idx = strainers.bgp_select(S, 3, 2.0)
        assert len(idx) == 3
        assert strainers.bgp_verify(S, idx, 2.0)


def test_extension_exceptional_set(torus, theta_s1, rng):
    # flat torus, k = 2: top dimension, nothing extends; fibers are discrete
    x = torus_point(torus, 0.42, 0.3)
    s = strainers.is_strained(torus, x, 2, 0.04, reach=0.2)
    F = strainers.StrainerMap(comp=torus, points=s.points,
                              opposites=s.opposites)
    rep = strainers.extension_exceptional_set(torus, F, (x, 0.02),
                                              samples=14, delta=0.04,
                                              rng=rng)
    assert len(rep["points"]) == rep["sample_count"]   # E is everything
    assert max(rep["fiber_counts"].values()) <= 64
    # theta x S1, k = 1 in-page strainer: page points extend transversally
    xp = square_point(theta_s1, 0, 0.5, 0.25)
    sp = strainers.is_strained(theta_s1, xp, 1, 0.04, reach=0.15)
    Fp = strainers.StrainerMap(comp=theta_s1, points=sp.points,
                               opposites=sp.opposites)
    rep = strainers.extension_exceptional_set(theta_s1, Fp, (xp, 0.05),
                                              samples=14, delta=0.04,
                                              rng=rng)
    assert len(rep["points"]) == 0   # interior page points all extend
