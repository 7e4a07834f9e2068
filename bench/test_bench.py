"""Self-tests of the benchmark: grid-torus generator, tracer, metric names,
failure accounting and the exit status.

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gcba import complexes, corpus, flows
from gcba import geodesics as geo

import gridtorus
import layers
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


# -- grid torus ---------------------------------------------------------------


def test_grid_n1_is_the_corpus_torus():
    grid = gridtorus.grid_torus(1)
    torus = corpus.flat_torus()
    assert grid.gluings == torus.gluings
    for a, b in zip(grid.cells, torus.cells):
        assert np.array_equal(a.lengths, b.lengths)
    rng = np.random.default_rng(0)
    eg, et = geo.engine(grid), geo.engine(torus)
    for _ in range(12):
        p, q = tuple(rng.random(2)), tuple(rng.random(2))
        dg, _ = eg.distance(gridtorus.grid_point(grid, 1, *p),
                            gridtorus.grid_point(grid, 1, *q), need_path=False)
        dt, _ = et.distance(corpus.torus_point(torus, *p),
                            corpus.torus_point(torus, *q), need_path=False)
        assert abs(dg - dt) <= 1e-12
        assert abs(dg - gridtorus.torus_distance(p, q)) <= 1e-9


@pytest.mark.parametrize("n", range(1, 9))
def test_grid_passes_curvature_check(n):
    comp = gridtorus.grid_torus(n)
    assert len(comp.cells) == 2 * n * n
    assert comp.check_curvature_bound()["pass"]


def test_grid_distances_match_closed_form():
    n = 2
    comp = gridtorus.grid_torus(n)
    eng = geo.engine(comp)
    rng = np.random.default_rng(1)
    for _ in range(6):
        p, q = tuple(rng.random(2)), tuple(rng.random(2))
        d, path = eng.distance(gridtorus.grid_point(comp, n, *p),
                               gridtorus.grid_point(comp, n, *q))
        assert abs(d - gridtorus.torus_distance(p, q)) <= 1e-9
        assert abs(sum(path.seg_lengths()) - d) <= 1e-9


def test_torus_distance_wraps():
    assert gridtorus.torus_distance((0.05, 0.5), (0.95, 0.5)) == \
        pytest.approx(0.1)
    assert gridtorus.torus_distance((0.0, 0.0), (0.5, 0.5)) == \
        pytest.approx(math.sqrt(0.5))


# -- tracer -------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_is_span_minus_children():
    tr = tracer.Tracer(clock=_Clock())
    inner = tr.wrap(lambda: None, "inner")

    def body():
        inner()
        inner()

    outer = tr.wrap(body, "outer")
    outer()
    o = tr.spans[0]
    kids = [sp for sp in tr.spans if sp.parent == 0]
    assert len(kids) == 2
    assert o.dur == 5.0 and all(k.dur == 1.0 for k in kids)
    assert o.self_s == o.dur - sum(k.dur for k in kids) == 3.0
    assert all(k.self_s == k.dur for k in kids)


def test_errors_are_recorded_and_propagate():
    tr = tracer.Tracer()

    def boom():
        raise flows.FlowError("x")

    with pytest.raises(flows.FlowError):
        tr.wrap(boom, "boom")()
    assert tr.spans[0].error == "FlowError" and not tr._stack


def test_every_wrapped_attribute_is_restored():
    originals = {}
    for t in layers.targets():
        owner, attr, orig = tracer._resolve(t)
        originals[t.name] = (owner, attr, orig)
    tr = tracer.Tracer()
    tr.install(layers.targets())
    patched = tr.patched()
    try:
        assert len(patched) > len(originals)   # aliases are patched too
        for owner, attr, orig in originals.values():
            now = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            assert now is not orig
        # the alias corpus.build_complex is wrapped along with the original
        assert corpus.build_complex is complexes.build_complex
    finally:
        tr.uninstall()
    assert tr.restored(patched)
    for owner, attr, orig in originals.values():
        now = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        assert now is orig
    assert corpus.build_complex is complexes.build_complex


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_results_agree(name):
    wl = workloads.WORKLOADS[name]
    plain = run.measure(wl, wl.setup(), seed=7, n_ops=3)
    tr = tracer.Tracer()
    tr.install(layers.targets())
    try:
        traced = run.measure(wl, wl.setup(), seed=7, n_ops=3, tracer=tr)
    finally:
        tr.uninstall()
    assert plain.wrong == traced.wrong == 0
    assert plain.checksum == traced.checksum
    assert any(sp.op == 2 for sp in tr.spans)
    values = layers.layer_metrics(tr, run._properties(traced), 0.0)
    assert [n for n, _ in layers.per_layer_names()] == list(values)


# -- metric names and statistics ----------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def test_tail_has_ten_ops_beyond():
    lat = [float(v) for v in range(1, 31)]
    value, pct = run._tail(lat)
    assert sum(v > value for v in lat) == 10
    assert pct == pytest.approx(100 * 20 / 30)


# -- failures and exit status -------------------------------------------------


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().split("\n")[-1])


def test_wrong_result_exits_nonzero(monkeypatch, capsys):
    wl = workloads.WORKLOADS["strainer_atlas"]
    monkeypatch.setattr(wl, "op", lambda ctx, inp, rng: (0, None))
    assert run.run_one("strainer_atlas", 1, 0.01, 0) == 1
    res = _last_line(capsys)
    assert res["correct"] is False and res["failed"] == res["attempted"]


@pytest.mark.parametrize("exc", [flows.FlowError, geo.GeodesicError])
def test_failures_are_counted_by_kind(monkeypatch, exc):
    wl = workloads.WORKLOADS["strainer_atlas"]
    real = wl.op
    calls = []

    def flaky(ctx, inp, rng):
        calls.append(1)
        if len(calls) % 5 == 0:
            raise exc("injected")
        return real(ctx, inp, rng)

    monkeypatch.setattr(wl, "op", flaky)
    ph = run.measure(wl, wl.setup(), seed=3, n_ops=10)
    assert ph.failures == {exc.__name__: 2} and ph.wrong == 0
    assert len(ph.latencies) == 8


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid_geodesics",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
