import json
import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from gcba import ComplexError, InputError, complexes, corpus, load_complex
from gcba.complexes import (cayley_menger_volume2, complex_from_json_dict,
                            dimension_of_star, point, star, vertex_point)


def test_theta_loads_as_three_edges(theta):
    assert len(theta.cells) == 3
    assert all(c.dim == 1 for c in theta.cells)
    # two vertex classes
    verts = {vertex_point(theta, r).key() for r in theta.face_classes(dim=0)}
    assert len(verts) == 2


def test_bad_triangle_rejected():
    with pytest.raises(ComplexError, match="degenerate"):
        complex_from_json_dict(corpus.bad_triangle_dict())


def test_theta_s1_squares_split(theta_s1):
    assert len(theta_s1.cells) == 6
    assert theta_s1.total_volumes() == {2: pytest.approx(3.0)}


def test_geodesic_completeness_examples(theta, theta_s1):
    assert theta.check_geodesic_completeness()[0]
    ok, off = corpus.segment().check_geodesic_completeness()
    assert not ok and len(off) == 2
    ok, off = corpus.three_page_book().check_geodesic_completeness()
    assert not ok and len(off) == 9
    assert theta_s1.check_geodesic_completeness()[0]


def test_completeness_equals_codim1_incidence(theta, torus, theta_s1):
    # on pure complexes the criterion is exactly the codim-1 incidence count
    for comp in (theta, torus, theta_s1, corpus.three_page_book()):
        ok, off = comp.check_geodesic_completeness()
        for c in comp.cells:
            for tup in comp.codim1_slots(c.cid):
                root = comp.face_root(c.cid, tup)
                deg = len(comp.face_class_members(root))
                if (c.cid, tup) in off:
                    assert deg < 2
                elif ok:
                    assert deg >= 2


def test_wedge_vertex_is_extendable():
    # a segment wedged onto a square corner: the wedge vertex passes, the
    # free segment end and the square boundary edges fail
    comp = corpus.segment_wedge_square()
    ok, off = comp.check_geodesic_completeness()
    assert not ok
    seg_cid = next(c.cid for c in comp.cells if c.dim == 1)
    seg_faces = [f for (cid, f) in off if cid == seg_cid]
    assert seg_faces == [(1,)]  # only the free end; the glued end extends


def test_curvature_examples(torus, theta_s1, pillow):
    assert torus.check_curvature_bound()["pass"]
    assert theta_s1.check_curvature_bound()["pass"]
    rep = pillow.check_curvature_bound()
    assert not rep["pass"]
    assert all(v["girth"] == pytest.approx(math.pi) for v in rep["violations"])


def test_simplex_volume_closed_forms():
    seg = corpus.segment()
    assert seg.simplex_volume(0) == pytest.approx(1.0)
    torus = corpus.flat_torus()
    assert torus.simplex_volume(0) == pytest.approx(0.5)
    tri = complexes.build_complex(
        [(2, np.full((3, 3), 2.0) - 2.0 * np.eye(3))], [])
    assert tri.simplex_volume(0) == pytest.approx(math.sqrt(3.0))


@given(st.permutations(range(3)))
@hsettings(max_examples=20, deadline=None)
def test_volume_permutation_invariant(perm):
    L = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 2.0], [1.5, 2.0, 0.0]])
    base = cayley_menger_volume2(L)
    P = np.eye(3)[list(perm)]
    assert cayley_menger_volume2(P @ L @ P.T) == pytest.approx(base)


def test_star_examples(theta, theta_s1, torus):
    a = point(theta, 0, [1, 0])
    assert star(theta, a) == {0, 1, 2}
    assert dimension_of_star(theta, a) == 1
    sp = corpus.square_point(theta_s1, 0, 0.0, 0.4)
    assert len(star(theta_s1, sp)) == 3
    assert dimension_of_star(theta_s1, sp) == 2
    interior = corpus.torus_point(torus, 0.7, 0.2)
    assert star(torus, interior) == {0}
    assert dimension_of_star(torus, interior) == 2


def test_point_canonicalization(torus):
    # the same location reached through either triangle canonicalizes equally
    p1 = point(torus, 0, [0.5, 0.0, 0.5])   # on the diagonal
    p2 = point(torus, 1, [0.5, 0.5, 0.0])
    assert p1 == p2
    assert all(b > 0 for b in p1.bary[list(p1.carrier)])


def test_serialization_roundtrip(tmp_path, theta_s1):
    path = tmp_path / "ts.json"
    theta_s1.save(str(path))
    again = load_complex(str(path))
    assert len(again.cells) == len(theta_s1.cells)
    assert again.total_volumes() == theta_s1.total_volumes()
    assert len(again.gluings) == len(theta_s1.gluings)
    # deterministic serialization
    text1 = json.dumps(theta_s1.to_json_dict(), sort_keys=True)
    text2 = json.dumps(load_complex(str(path)).to_json_dict(), sort_keys=True)
    assert text1 == text2


# one regular unit tetrahedron: dimension 3, rejected at load
TETRAHEDRON = {"kappa": 0.0,
               "simplices": [{"dim": 3, "lengths": (1 - np.eye(4)).tolist()}]}


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_complex(str(bad))
    with pytest.raises(InputError):
        complex_from_json_dict({"kappa": 1.0, "simplices": []})
    with pytest.raises(InputError, match="dimension >= 3"):
        complex_from_json_dict(TETRAHEDRON)


def test_nonzero_kappa_rejected(torus):
    # cells are flat simplices: a complex declared curved is refused, not
    # silently analysed as a flat one
    data = torus.to_json_dict()
    assert data["kappa"] == 0.0
    for kappa in (-1.0, 0.5):
        with pytest.raises(InputError, match="kappa"):
            complex_from_json_dict(dict(data, kappa=kappa))
    spec = (2, 1 - np.eye(3))
    with pytest.raises(InputError, match="kappa"):
        complexes.build_complex([spec], [], -1.0)
    assert complexes.build_complex([spec], [], 0.0).dim == 2


def _frozen_point(comp, cid, bary):
    """The numpy `ComplexPoint` constructor this library shipped before its
    rewrite on Python floats, kept as the reference: returns (cid, bary,
    carrier, key)."""
    bary = np.asarray(bary, dtype=float)
    cell = comp.cells[cid]
    if bary.shape != (cell.nverts,):
        raise ComplexError("barycentric coordinate arity mismatch")
    if np.any(bary < -comp.settings.bary_tol) or abs(bary.sum() - 1.0) > 1e-9:
        raise ComplexError("barycentric coordinates invalid")
    bary = np.clip(bary, 0.0, None)
    bary = bary / bary.sum()
    tol = comp.settings.bary_tol
    support = tuple(i for i in range(cell.nverts) if bary[i] > tol)
    if len(support) < cell.nverts:
        root = comp.face_root(cid, support)
        corr = comp.face_corr(cid, support)
        rcid, rtup = root
        rb = np.zeros(comp.cells[rcid].nverts)
        for pos, v in enumerate(support):
            rb[corr[pos]] = bary[v]
        cid, bary = rcid, rb / rb.sum()
        cell = comp.cells[cid]
        support = tuple(i for i in range(cell.nverts) if bary[i] > tol)
    clean = np.where(bary > tol, bary, 0.0)
    clean = clean / clean.sum()
    key = (cid, support, tuple(int(round(clean[i] / 1e-10)) for i in support))
    return cid, clean, support, key


def _sample_barys(comp, rng, n):
    """(cid, bary) of seeded interior, face and vertex points of every cell,
    some with weights inside the canonicalization tolerance."""
    out = []
    for cell in comp.cells:
        nv = cell.nverts
        for _ in range(n):
            b = rng.dirichlet(np.ones(nv))
            out.append((cell.cid, b))
            for drop in range(nv):
                e = b.copy()
                e[drop] = 0.0
                e /= e.sum()
                out.append((cell.cid, e.copy()))
                e[drop] = rng.choice([-5e-13, 3e-13, 2e-12])
                out.append((cell.cid, e))
        for v in range(nv):
            out.append((cell.cid, np.eye(nv)[v]))
            out.append((cell.cid, list(np.eye(nv)[v] * (1 - 1e-13)
                                       + 1e-13 / nv)))
    return out


@pytest.mark.parametrize("name", ["flat_torus", "theta_times_circle",
                                  "theta_graph"])
def test_point_matches_the_numpy_constructor(name):
    # cid, carrier, key and bary are bit-identical to the numpy version
    comp = getattr(corpus, name)()
    rng = np.random.default_rng(11)
    for cid, b in _sample_barys(comp, rng, 25):
        ref_cid, ref_bary, ref_carrier, ref_key = _frozen_point(comp, cid, b)
        p = point(comp, cid, b)
        assert (p.cid, p.carrier, p.key()) == (ref_cid, ref_carrier, ref_key)
        assert p.bary.dtype == ref_bary.dtype
        assert p.bary.tobytes() == ref_bary.tobytes()
    nv = comp.cells[0].nverts
    for bad in (np.full(nv + 1, 1.0 / (nv + 1)),      # arity
                np.r_[-0.1, np.full(nv - 1, 1.1 / (nv - 1))],   # negative
                np.full(nv, 0.2)):                    # sum != 1
        with pytest.raises(ComplexError):
            _frozen_point(comp, 0, bad)
        with pytest.raises(ComplexError):
            point(comp, 0, bad)
