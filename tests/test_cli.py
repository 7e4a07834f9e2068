import json
import math
import os

import numpy as np
import pytest

from gcba import cli, corpus

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


# one regular unit tetrahedron: dimension 3, rejected at load
TETRAHEDRON = {"kappa": 0.0,
               "simplices": [{"dim": 3, "lengths": (1 - np.eye(4)).tolist()}]}


def path(name):
    return os.path.join(CORPUS, name + ".json")


def test_validate_exit_codes(tmp_path):
    assert cli.main(["validate", path("theta_graph"),
                     "--json", str(tmp_path / "a.json")]) == 0
    assert cli.main(["validate", path("three_page_book"),
                     "--json", str(tmp_path / "b.json")]) == 2
    assert cli.main(["validate", path("pillowcase"),
                     "--json", str(tmp_path / "c.json")]) == 2
    assert cli.main(["validate", path("bad_triangle"),
                     "--json", str(tmp_path / "d.json")]) == 3
    assert cli.main(["validate", str(tmp_path / "missing.json")]) == 3
    tet = tmp_path / "tetrahedron.json"
    tet.write_text(json.dumps(TETRAHEDRON))
    assert cli.main(["validate", str(tet),
                     "--json", str(tmp_path / "e.json")]) == 3
    curved = tmp_path / "curved_torus.json"
    with open(path("flat_torus")) as fh:
        curved.write_text(json.dumps(dict(json.load(fh), kappa=-1)))
    assert cli.main(["validate", str(curved),
                     "--json", str(tmp_path / "g.json")]) == 3
    # a settings file with a key Settings does not have
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"geodesic_eta": 0.001}))
    assert cli.main(["validate", path("theta_graph"), "--config", str(old),
                     "--json", str(tmp_path / "f.json")]) == 3
    rep = json.loads((tmp_path / "b.json").read_text())
    assert len(rep["offending_faces"]) == 9


def test_validate_deterministic(tmp_path):
    a, b = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli.main(["validate", path("theta_times_circle"),
                     "--json", a, "--seed", "7"]) == 0
    assert cli.main(["validate", path("theta_times_circle"),
                     "--json", b, "--seed", "7"]) == 0
    assert open(a).read() == open(b).read()


def test_analyze(tmp_path):
    out = str(tmp_path / "an.json")
    svg = str(tmp_path / "an.svg")
    assert cli.main(["analyze", path("theta_graph"), "--json", out,
                     "--seed", "2"]) == 0
    rep = json.loads(open(out).read())
    assert rep["strata"]["masses"] == {"1": 3.0}
    assert rep["regular"]["singular_mass"] == 2.0
    assert cli.main(["analyze", path("flat_torus"), "--json", out,
                     "--svg", svg, "--seed", "2"]) == 0
    assert "<svg" in open(svg).read()
    rep = json.loads(open(out).read())
    assert rep["strata"]["masses"] == {"2": 1.0}
    assert rep["dimension"]["max_strained_k"] == 2


def test_analyze_deterministic(tmp_path):
    a, b = str(tmp_path / "d1.json"), str(tmp_path / "d2.json")
    for f in (a, b):
        assert cli.main(["analyze", path("theta_graph"), "--json", f,
                         "--seed", "5"]) == 0
    assert open(a).read() == open(b).read()


def test_strainers_atlas(tmp_path):
    out = str(tmp_path / "atlas.json")
    assert cli.main(["strainers", path("flat_torus"), "--json", out,
                     "--samples", "6", "--seed", "3"]) == 0
    rep = json.loads(open(out).read())
    assert rep["ceiling_violations"] == 0
    assert all(row["k"] >= 1 for row in rep["atlas"])


def test_flows_command(tmp_path):
    out = str(tmp_path / "flows.json")
    assert cli.main(["flows", path("flat_torus"), "--json", out,
                     "--samples", "3", "--seed", "3"]) == 0
    rep = json.loads(open(out).read())
    assert rep["failures"] == 0
    assert all(t["residual"] <= 1e-6 for t in rep["tracks"])


def test_converge_command(tmp_path):
    man = {
        "members": [
            {"path": path("flat_torus"), "region": None, "scale": 1.0},
            {"path": path("flat_torus"), "region": None, "scale": 1.0},
        ],
        "limit_masses": {"2": 1.0},
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(man))
    out = str(tmp_path / "conv.json")
    assert cli.main(["converge", str(mpath), "--json", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["final_gap"] == 0.0
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({"members": [{"no_path": 1}]}))
    assert cli.main(["converge", str(bad)]) == 3


def test_chart_command(tmp_path):
    out = str(tmp_path / "chart.json")
    assert cli.main(["chart", path("flat_torus"), "--json", out,
                     "--seed", "4"]) == 0
    rep = json.loads(open(out).read())
    assert rep["alpha_special"]["pass"]
    lo, hi = rep["eigen_range"]
    assert 0 < lo <= hi < 8.0


def test_manifest_written(tmp_path):
    out = str(tmp_path / "v.json")
    man = str(tmp_path / "m.json")
    assert cli.main(["validate", path("theta_graph"), "--json", out,
                     "--manifest-out", man]) == 0
    m = json.loads(open(man).read())
    assert "input_sha256" in m and m["config"]["seed"] == 0
