import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from gcba import convergence as cv
from gcba import corpus, strata
from gcba.corpus import square_point, theta_point, torus_point


def random_space(rng, n):
    pts = rng.random((n, 2))
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    return cv.FiniteMetricSpace(list(range(n)), d)


def test_finite_space_validation():
    with pytest.raises(cv.ConvergenceError):
        cv.FiniteMetricSpace([0, 1], np.array([[0.0, 1.0], [2.0, 0.0]]))
    S = cv.FiniteMetricSpace([0, 1], np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert S.triangle_defect() <= 0.0


def test_sample_net_examples(theta, rng):
    seg = corpus.segment()
    net, _ = cv.sample_net(seg, None, 0.5, pool=120, rng=rng)
    assert 2 <= len(net) <= 4
    net, S = cv.sample_net(theta, None, 0.4, pool=200, rng=rng)
    # net covers all three edges
    assert {p.cid for p in net if len(p.carrier) == 2} | \
        {cid for p in net for cid, _ in p.representations(theta)} >= {0, 1, 2}
    big, _ = cv.sample_net(theta, None, 10.0, pool=50, rng=rng)
    assert len(big) == 1


def test_doubling_constants(rng):
    line = cv.FiniteMetricSpace([0, 1, 2],
                                np.abs(np.subtract.outer([0, .5, 1.],
                                                         [0, .5, 1.])))
    assert cv.doubling_constant(line) == 3
    single = cv.FiniteMetricSpace([0], np.zeros((1, 1)))
    assert cv.doubling_constant(single) == 1


def test_doubling_of_theta_net(theta, rng):
    _, S = cv.sample_net(theta, None, 0.25, pool=300, rng=rng)
    assert cv.doubling_constant(S) <= 64


def test_gh_basics():
    two = cv.FiniteMetricSpace([0, 1], np.array([[0.0, 1.0], [1.0, 0.0]]))
    one = cv.FiniteMetricSpace([0], np.zeros((1, 1)))
    assert cv.gh_exact_small(two, one) == pytest.approx(0.5)
    assert cv.gh_exact_small(two, two) == pytest.approx(0.0)
    assert cv.gh_upper(two, two) == pytest.approx(0.0, abs=1e-12)


def test_gh_heuristic_dominates_exact(rng):
    for _ in range(25):
        SA = random_space(rng, int(rng.integers(3, 8)))
        SB = random_space(rng, int(rng.integers(3, 8)))
        ub = cv.gh_upper(SA, SB, rng=rng)
        ex = cv.gh_exact_small(SA, SB)
        assert ub >= ex - 1e-12


def test_gh_exact_symmetry_and_triangle(rng):
    spaces = [random_space(rng, 5) for _ in range(3)]
    d01 = cv.gh_exact_small(spaces[0], spaces[1])
    d10 = cv.gh_exact_small(spaces[1], spaces[0])
    assert d01 == pytest.approx(d10, abs=1e-12)
    d02 = cv.gh_exact_small(spaces[0], spaces[2])
    d12 = cv.gh_exact_small(spaces[1], spaces[2])
    assert d02 <= d01 + d12 + 1e-12


def _gh_exact_reference(SA, SB):
    """`gh_exact_small` as it was written before its compatibility became
    one boolean array per delta: the reference for the array version."""
    vals = sorted({abs(float(da) - float(db))
                   for da in SA.dmat.ravel() for db in SB.dmat.ravel()})

    def feasible(delta):
        n, m = SA.n, SB.n
        pairs = []

        def compatible(p, q):
            return abs(SA.d(p[0], q[0]) - SB.d(p[1], q[1])) <= delta + 1e-12

        def assign_a(i):
            if i == n:
                return assign_b(0)
            for b in range(m):
                cand = (i, b)
                if all(compatible(cand, q) for q in pairs):
                    pairs.append(cand)
                    if assign_a(i + 1):
                        return True
                    pairs.pop()
            return False

        def assign_b(b):
            if b == m:
                return True
            if any(q[1] == b for q in pairs):
                return assign_b(b + 1)
            for a in range(n):
                cand = (a, b)
                if all(compatible(cand, q) for q in pairs):
                    pairs.append(cand)
                    if assign_b(b + 1):
                        return True
                    pairs.pop()
            return False

        return assign_a(0)

    lo, hi = 0, len(vals) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(vals[mid]):
            hi = mid
        else:
            lo = mid + 1
    return vals[lo] / 2.0


def test_gh_exact_matches_reference():
    # the same search over the same values gives the same float, on planar
    # samples and on integer metrics full of ties
    rng = np.random.default_rng(8)
    for _ in range(40):
        SA = random_space(rng, int(rng.integers(1, 8)))
        SB = random_space(rng, int(rng.integers(1, 8)))
        assert cv.gh_exact_small(SA, SB) == _gh_exact_reference(SA, SB)
    for _ in range(20):
        spaces = []
        for n in rng.integers(1, 8, size=2):
            pts = rng.integers(0, 4, size=(n, 2))
            d = np.abs(pts[:, None] - pts[None]).sum(axis=2).astype(float)
            spaces.append(cv.FiniteMetricSpace(list(range(n)), d))
        assert cv.gh_exact_small(*spaces) == _gh_exact_reference(*spaces)


@given(st.integers(2, 6), st.integers(0, 10**6))
@hsettings(max_examples=15, deadline=None)
def test_gh_rescaling_property(n, seed):
    rng = np.random.default_rng(seed)
    S = random_space(rng, n)
    shifted = cv.FiniteMetricSpace(S.labels, S.dmat * 1.0)
    assert cv.gh_exact_small(S, shifted) == pytest.approx(0.0, abs=1e-12)


def test_linf_embed(torus, rng):
    out = cv.linf_embed(torus, torus_point(torus, 0.5, 0.5), r0=0.12,
                        delta=0.2, rng=rng)
    assert out["worst_upper_violation"] <= 1e-9     # 1-Lipschitz side exact
    assert out["worst_lower_violation"] <= 1e-9
    assert out["worst_distortion"] <= 1.2
    assert out["m"] >= 3


def test_tangent_convergence_spine(theta_s1, rng):
    tc = cv.tangent_convergence(theta_s1, square_point(theta_s1, 0, 0.0, 0.4),
                                [0.4, 0.2, 0.1, 0.05], rng=rng)
    vals = [r["gh_upper"] for r in tc["rows"]]
    assert tc["trend_ok"]
    assert vals[-1] < 0.05
    assert vals == sorted(vals, reverse=True) or vals[-1] <= vals[0]


def test_tangent_convergence_flat_cases(torus, theta, rng):
    tc = cv.tangent_convergence(torus, torus_point(torus, 0.3, 0.4),
                                [0.2, 0.1], rng=rng)
    assert all(r["gh_upper"] <= 1e-6 for r in tc["rows"])
    tc = cv.tangent_convergence(theta, theta_point(theta, 0, 0.5),
                                [0.2, 0.1], rng=rng)
    assert all(r["gh_upper"] <= 1e-6 for r in tc["rows"])


def test_measure_stability_families(theta_s1, rng):
    # rescaled balls at the spine: mu^2/r^2 -> 3 pi / 2
    sp = square_point(theta_s1, 0, 0.0, 0.37)
    family = [{"comp": theta_s1, "region": (sp, r), "scale": 1.0 / r}
              for r in (0.2, 0.1, 0.05)]
    res = cv.measure_stability(family, {2: 3 * math.pi / 2})
    assert res["final_gap"] <= 0.01 * (3 * math.pi / 2)
    # constant family
    fam2 = [{"comp": theta_s1, "region": None, "scale": 1.0}] * 2
    res2 = cv.measure_stability(fam2, {2: 3.0})
    assert res2["final_gap"] <= 1e-12
    # flat tori with side -> 1
    fam3 = [{"comp": corpus.flat_torus(side=s), "region": None, "scale": 1.0}
            for s in (1.2, 1.1, 1.0)]
    res3 = cv.measure_stability(fam3, {2: 1.0})
    assert res3["final_gap"] <= 1e-12
    masses = [row["masses"][2] for row in res3["rows"]]
    assert masses == sorted(masses, reverse=True)
