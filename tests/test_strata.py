import math

import numpy as np
import pytest

from gcba import complexes, corpus, strata
from gcba import geodesics as geo
from gcba.corpus import square_point, theta_point, torus_point

from generated import fan

PI = math.pi


def test_strata_masses(theta, torus, theta_s1):
    assert strata.strata(theta).masses == {1: pytest.approx(3.0, abs=1e-12)}
    assert strata.strata(torus).masses == {2: pytest.approx(1.0, abs=1e-12)}
    assert strata.strata(theta_s1).masses == {2: pytest.approx(3.0, abs=1e-12)}


def test_strata_mixed_dims():
    comp = corpus.segment_wedge_square()
    m = strata.strata(comp).masses
    assert m[1] == pytest.approx(1.0)
    assert m[2] == pytest.approx(1.0)


def test_strata_partition(theta_s1):
    rep = strata.strata(theta_s1)
    total_units = sum(len(us) for us in rep.parts.values())
    assert total_units == len(rep.units)
    # closure of X^2 contains no lower-dimensional part on this GC complex
    assert set(rep.parts.keys()) == {2}


def test_regular_sets(theta, torus, theta_s1, rng):
    rs = strata.regular_set(theta_s1, 2, 0.05, rng=rng)
    singular_faces = [u for u in rs["singular"] if u["dim"] == 1]
    assert len(singular_faces) == 2           # the two spine circles
    assert rs["singular_mass_km1"] == pytest.approx(2.0, abs=1e-9)
    rs = strata.regular_set(theta, 1, 0.05, rng=rng)
    assert rs["singular_mass_km1"] == pytest.approx(2.0)
    assert len(rs["singular"]) == 2           # the two vertices
    rs = strata.regular_set(torus, 2, 0.05, rng=rng)
    assert rs["singular"] == []
    assert rs["singular_mass_km1"] == 0.0


def test_regular_subset_of_part(theta_s1, rng):
    rep = strata.strata(theta_s1)
    rs = strata.regular_set(theta_s1, 2, 0.05, rng=rng)
    part_ids = {id(u) for u in rep.parts[2]}
    names = {strata._unit_name(u) for u in rep.parts[2]}
    for u in rs["regular"]:
        assert strata._unit_name(u) in names


def test_disk_polygon_area_oracle(rng):
    # dense-grid oracle for the circular clipping routine
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    for _ in range(8):
        center = rng.uniform(-0.3, 1.3, size=2)
        r = rng.uniform(0.1, 0.8)
        exact = strata._disk_poly_area(center, r, tri)
        xs = rng.uniform(0.0, 1.0, size=(120000, 2))
        in_tri = xs[:, 1] <= xs[:, 0]
        pts = xs[in_tri]
        inside = np.linalg.norm(pts - center, axis=1) <= r
        mc = 0.5 * inside.mean()
        assert exact == pytest.approx(mc, abs=0.012)
    # a disk touching an edge from outside, as a source tree of theta x S^1
    # places one: the edge's midpoint lies on the circle up to rounding
    tri = np.array([[0.0, 0.0], [1.4142135623730951, 0.0],
                    [0.7071067811865476, 0.7071067811865475]])
    center = np.array([0.21213203435596434, 0.4949747468305833])
    assert strata._disk_poly_area(center, 0.2, tri) == 0.0


def test_ball_masses(theta, theta_s1, rng):
    sp = square_point(theta_s1, 0, 0.0, 0.37)
    for r in (0.05, 0.1):
        out = strata.ball_mass_2d(theta_s1, sp, r, rng=rng)
        assert out["mass"] == pytest.approx(3 * PI * r * r / 2, rel=0.01)
    m = strata.ball_mass_1d(theta, theta_point(theta, 0, 0.5), 0.25)
    assert m == pytest.approx(0.5, abs=1e-12)
    # ball spanning the vertex: three rays
    m = strata.ball_mass_1d(theta, theta_point(theta, 0, 0.0), 0.2)
    assert m == pytest.approx(0.6, abs=1e-12)


def test_ball_mass_across_the_spine(theta_s1):
    # x at h = 0.05 from a spine circle, r = 0.4: the ball is the disk in
    # x's page, less the cap beyond the spine, plus that cap in each of the
    # two other pages
    x = square_point(theta_s1, 0, 0.05, 0.3)
    r, h = 0.4, 0.05
    cap = r * r * math.acos(h / r) - h * math.sqrt(r * r - h * h)
    exact = PI * r * r + cap
    assert exact == pytest.approx(0.714087, abs=1e-6)
    masses = [strata.ball_mass_2d(theta_s1, x, r,
                                  rng=np.random.default_rng(seed))["mass"]
              for seed in (1, 2, 3)]
    assert np.mean(masses) == pytest.approx(exact, rel=3e-3)


@pytest.mark.parametrize("name, warm", [("theta_s1", 1.0), ("torus", 0.2),
                                        ("torus", 0.9)])
def test_ball_draws_do_not_depend_on_cached_trees(name, warm):
    # a tree built earlier for a farther query holds more developments than
    # one grown for the ball, and one grown from a nearer query holds them
    # in another order, and places disks tangent to their cell with other
    # rounding; the cover lists each disk once, sorted, and drops the
    # tangent ones, so the draws are the same
    def draws(warm):
        if name == "theta_s1":
            comp = corpus.theta_times_circle()
            x = square_point(comp, 0, 0.05, 0.3)
        else:
            comp = corpus.flat_torus()
            x = torus_point(comp, 0.3, 0.4)
        if warm:
            geo.engine(comp).tree(x, warm)
        disks = strata.BallCover(comp, x, 0.4).disks
        cover = [(c, *np.round(center, 9), rho) for c, center, rho, _ in disks]
        assert len(set(cover)) == len(cover)
        out = strata.ball_mass_2d(comp, x, 0.4, rng=np.random.default_rng(1))
        pts = geo.ball_samples(comp, x, 0.4, 20, np.random.default_rng(2))
        return cover, out, [p.key() for p in pts]

    assert draws(None) == draws(warm)


def test_ball_on_the_4pi_cone():
    # x at s = 0.1 from the apex of the cone of angle 4 pi, on cell 0's
    # bisector: B_rho(x) has area pi rho^2 + (4 pi - 2 pi)(rho - s)_+^2 / 2,
    # the second term past the apex, where shortest paths bend
    cone = fan([PI / 2] * 8)
    h = 0.1 / math.sqrt(2)
    x = complexes.point(cone, 0, [1 - 2 * h, h, h])

    def area(rho):
        return PI * rho * rho + PI * max(rho - 0.1, 0.0) ** 2

    r = 0.3
    assert area(r) == pytest.approx(0.40841, abs=1e-5)
    eng = geo.engine(cone)
    pts = geo.ball_samples(cone, x, r, 3000, np.random.default_rng(7))
    d = np.array([eng.distance(x, y, need_path=False)[0] for y in pts])
    assert len(d) == 3000 and d.max() <= r
    for rho in (0.1, 0.2, 0.25):
        p = area(rho) / area(r)
        assert abs(np.mean(d <= rho) - p) <= 4 * math.sqrt(p * (1 - p) / 3000)
    out = strata.ball_mass_2d(cone, x, r, target_rel_se=0.02,
                              rng=np.random.default_rng(7))
    assert abs(out["mass"] - area(r)) <= 3 * out["se"]


def test_canonical_measure_whole(theta_s1, theta):
    out = strata.canonical_measure(theta_s1)
    assert out["masses"] == {2: pytest.approx(3.0, abs=1e-12)}
    out = strata.canonical_measure(theta)
    assert out["masses"] == {1: pytest.approx(3.0, abs=1e-12)}


def test_densities(theta, torus, theta_s1, rng):
    d = strata.density_at(torus, torus_point(torus, 0.3, 0.4), 2,
                          [0.1, 0.05], rng=rng)
    assert d["cone_limit"] == pytest.approx(PI)
    assert d["final"] == pytest.approx(PI, rel=0.01)
    d = strata.density_at(theta_s1, square_point(theta_s1, 0, 0.0, 0.37), 2,
                          [0.1, 0.05], rng=rng)
    assert d["cone_limit"] == pytest.approx(3 * PI / 2)
    assert d["final"] == pytest.approx(3 * PI / 2, rel=0.01)
    d = strata.density_at(theta, theta_point(theta, 0, 0.0), 1,
                          [0.2, 0.1], rng=rng)
    assert d["cone_limit"] == pytest.approx(3.0)
    assert d["final"] == pytest.approx(3.0, abs=1e-9)


def test_dimension_reports(theta, torus, rng):
    rep = strata.dimension_report(theta, rng=rng)
    assert rep["topological_dim"] == 1
    assert rep["max_strained_k"] == 1
    assert abs(rep["box_counting"] - 1) <= 0.15
    assert rep["euclidean_witness"] is not None
    rep = strata.dimension_report(torus, rng=rng)
    assert rep["topological_dim"] == 2
    assert rep["max_strained_k"] == 2
    assert rep["overstrained_samples"] == 0
    assert abs(rep["box_counting"] - 2) <= 0.15
