"""Command-line driver: validate / analyze / strainers / flows / converge /
chart, with reproducible run manifests.

Determinism contract: with the same inputs, config and seed all JSON outputs
are byte-identical (sorted keys, repr-stable floats, fixed-seed sampling).
Exit codes: 0 pass, 2 assertion or property failure, 3 input error.

Family manifest schema for `converge`:
    {"members": [{"path": "complex.json",
                  "region": {"cell": 0, "bary": [..], "radius": 0.1} | null,
                  "scale": 1.0}, ...],
     "limit_masses": {"2": 4.712}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import charts, convergence, flows, strainers, strata
from . import geodesics as geo
from .complexes import ComplexError, ComplexPoint, InputError, load_complex
from .config import Settings, load_settings

PASS, FAIL, BADINPUT = 0, 2, 3


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, ComplexPoint):
        return {"cell": o.cid, "bary": [float(b) for b in o.bary]}
    raise TypeError(f"not serializable: {type(o)}")


def _dump(data, path):
    text = json.dumps(data, sort_keys=True, indent=1, default=_json_default)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _manifest(args, config, outputs, t0):
    return {
        "command": " ".join(sys.argv[1:]),
        "schema_version": 1,
        "config": config.to_dict(),
        "input_sha256": {p: _sha(p) for p in ([args.input]
                                              if hasattr(args, "input") else
                                              [args.manifest])},
        "outputs": outputs,
        "wall_time_s": round(time.time() - t0, 3),
    }


def cmd_validate(args) -> int:
    t0 = time.time()
    comp = load_complex(args.input, _settings(args))
    gc_ok, offending = comp.check_geodesic_completeness()
    curv = comp.check_curvature_bound()
    report = {
        "schema_version": 1,
        "cells": len(comp.cells),
        "dim": comp.dim,
        "volumes": {str(k): v for k, v in comp.total_volumes().items()},
        "geodesically_complete": gc_ok,
        "offending_faces": [[c, list(f)] for c, f in offending],
        "curvature": curv,
    }
    out = _dump(report, args.json)
    if not args.json:
        print(out)
    _finish(args, comp.settings, {"report": args.json}, t0)
    return PASS if (gc_ok and curv["pass"]) else FAIL


def cmd_analyze(args) -> int:
    t0 = time.time()
    comp = load_complex(args.input, _settings(args))
    rng = np.random.default_rng(args.seed)
    rep = strata.strata(comp)
    k_top = comp.dim
    reg = strata.regular_set(comp, k_top, args.delta, rng=rng)
    dim = strata.dimension_report(comp, rng=rng)
    report = {
        "schema_version": 1,
        "strata": rep.to_json_dict(),
        "regular": {
            "k": k_top,
            "delta": args.delta,
            "regular_units": [strata._unit_name(u) for u in reg["regular"]],
            "singular_units": [strata._unit_name(u) for u in reg["singular"]],
            "singular_mass": reg["singular_mass_km1"],
        },
        "dimension": {
            "topological": dim["topological_dim"],
            "box_counting": dim["box_counting"],
            "max_strained_k": dim["max_strained_k"],
            "has_euclidean_witness": dim["euclidean_witness"] is not None,
        },
    }
    out = _dump(report, args.json)
    if not args.json:
        print(out)
    if args.svg:
        _strata_svg(comp, rep, reg, args.svg)
    _finish(args, comp.settings, {"report": args.json, "svg": args.svg}, t0)
    ok = dim["topological_dim"] == dim["max_strained_k"]
    return PASS if ok else FAIL


def cmd_strainers(args) -> int:
    t0 = time.time()
    comp = load_complex(args.input, _settings(args))
    rng = np.random.default_rng(args.seed)
    atlas = []
    violations = 0
    for _ in range(args.samples):
        x = geo.uniform_point(comp, rng)
        best = None
        for k in range(args.kmax, 0, -1):
            s = strainers.is_strained(comp, x, k, args.delta, reach=0.15)
            if s is not None:
                best = s
                break
        if best is None:
            atlas.append({"point": x, "k": 0})
            continue
        if best.k > comp.settings.k0_ceiling:
            violations += 1
        atlas.append({
            "point": x,
            "k": best.k,
            "delta": best.delta,
            "radius_estimate": best.radius_estimate,
            "points": best.points,
        })
    report = {"schema_version": 1, "delta": args.delta,
              "atlas": atlas, "ceiling_violations": violations}
    out = _dump(report, args.json)
    if not args.json:
        print(out)
    _finish(args, comp.settings, {"report": args.json}, t0)
    return PASS if violations == 0 else FAIL


def cmd_flows(args) -> int:
    t0 = time.time()
    comp = load_complex(args.input, _settings(args))
    rng = np.random.default_rng(args.seed)
    x = geo.uniform_point(comp, rng)
    s = None
    for _ in range(20):
        s = strainers.is_strained(comp, x, min(args.kmax, comp.dim),
                                  args.delta, reach=0.15,
                                  estimate_radius=True)
        if s is not None and s.radius_estimate > 0:
            break
        x = geo.uniform_point(comp, rng)
    if s is None or s.radius_estimate <= 0:
        print("no strained point with positive straining radius found",
              file=sys.stderr)
        return FAIL
    tracks = []
    failures = 0
    for y in geo.ball_samples(comp, x, s.radius_estimate, args.samples, rng):
        try:
            track = flows.retract_to_fiber(comp, s, x, y=y, tol=1e-6)
            tracks.append(track.to_json_dict())
        except flows.FlowError:
            failures += 1
    report = {"schema_version": 1, "k": s.k, "center": x,
              "straining_radius": s.radius_estimate,
              "tracks": tracks, "failures": failures}
    out = _dump(report, args.json)
    if not args.json:
        print(out)
    _finish(args, comp.settings, {"report": args.json}, t0)
    return PASS if failures == 0 else FAIL


def cmd_converge(args) -> int:
    t0 = time.time()
    try:
        with open(args.manifest) as fh:
            man = json.load(fh)
        cfg = _settings(args)
        members = []
        for m in man["members"]:
            comp = load_complex(m["path"], cfg)
            region = None
            if m.get("region"):
                r = m["region"]
                region = (ComplexPoint(comp, int(r["cell"]),
                                       np.asarray(r["bary"], dtype=float)),
                          float(r["radius"]))
            members.append({"comp": comp, "region": region,
                            "scale": float(m.get("scale", 1.0))})
        limits = {int(k): float(v)
                  for k, v in man.get("limit_masses", {}).items()}
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"manifest schema error: {exc}", file=sys.stderr)
        return BADINPUT
    res = convergence.measure_stability(members, limits)
    report = {"schema_version": 1,
              "rows": [{"masses": {str(k): v for k, v in r["masses"].items()}}
                       for r in res["rows"]],
              "limit": {str(k): v for k, v in res["limit"].items()},
              "final_gap": res["final_gap"]}
    out = _dump(report, args.json)
    if not args.json:
        print(out)
    _finish(args, cfg, {"report": args.json}, t0)
    return PASS if res["final_gap"] <= args.tol else FAIL


def cmd_chart(args) -> int:
    t0 = time.time()
    comp = load_complex(args.input, _settings(args))
    rng = np.random.default_rng(args.seed)
    for _ in range(30):
        x = geo.uniform_point(comp, rng)
        s = strainers.is_strained(comp, x, comp.dim, args.delta, reach=0.15,
                                  estimate_radius=True)
        if s is not None and s.radius_estimate > 0:
            break
    else:
        print("no chartable point found", file=sys.stderr)
        return FAIL
    try:
        ch = charts.build_chart(comp, s, x, rng=rng)
    except charts.ChartError as exc:
        print(f"chart construction failed: {exc}", file=sys.stderr)
        return FAIL
    lo, hi = charts.tensor_eigen_range(ch)
    report = {"schema_version": 1, "chart": ch.to_json_dict(),
              "eigen_range": [lo, hi],
              "alpha_special": charts.alpha_special(ch, rng=rng)}
    out = _dump(report, args.json)
    if not args.json:
        print(out)
    _finish(args, comp.settings, {"report": args.json}, t0)
    return PASS if report["alpha_special"]["pass"] else FAIL


def _strata_svg(comp, rep, reg, path):
    """Per-cell triangles in a row, colored by stratum, singular 1-faces in
    red (schematic, not an embedding)."""
    singular_faces = {u["id"] for u in reg["singular"] if u["kind"] == "face"}
    parts = []
    xoff = 10.0
    scale = 60.0
    for cell in comp.cells:
        if cell.dim != 2:
            continue
        co = cell.coords * scale
        pts = " ".join(f"{xoff + p[0]:.2f},{140 - p[1]:.2f}" for p in co)
        parts.append(f'<polygon points="{pts}" fill="#9ecae1" '
                     f'stroke="#333" stroke-width="1"/>')
        for tup in ((0, 1), (0, 2), (1, 2)):
            root = comp.face_root(cell.cid, tup)
            if root in singular_faces:
                a, b = co[tup[0]], co[tup[1]]
                parts.append(
                    f'<line x1="{xoff + a[0]:.2f}" y1="{140 - a[1]:.2f}" '
                    f'x2="{xoff + b[0]:.2f}" y2="{140 - b[1]:.2f}" '
                    f'stroke="#d62728" stroke-width="3"/>')
        parts.append(
            f'<text x="{xoff + 4:.0f}" y="155" font-size="10">'
            f'c{cell.cid}</text>')
        xoff += scale * 1.8
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{xoff + 20:.0f}" height="170">' + "".join(parts)
           + "</svg>")
    with open(path, "w") as fh:
        fh.write(svg + "\n")


def _settings(args) -> Settings:
    """The --config settings with --seed; a rejected file is an input error."""
    try:
        cfg = load_settings(args.config)
    except ValueError as exc:
        raise InputError(f"settings file {args.config}: {exc}") from exc
    return cfg.replace(seed=args.seed)


def _finish(args, config, outputs, t0):
    if args.manifest_out:
        _dump(_manifest(args, config, outputs, t0), args.manifest_out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="gcba",
        description="piecewise-Euclidean complex structure analysis")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, manifest_input=False):
        if manifest_input:
            p.add_argument("manifest")
        else:
            p.add_argument("input")
        p.add_argument("--config", default=None)
        p.add_argument("--json", default=None)
        p.add_argument("--svg", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--manifest-out", default=None)

    p = sub.add_parser("validate", help="schema, completeness and curvature")
    common(p)
    p = sub.add_parser("analyze", help="strata, measures, dimension report")
    common(p)
    p.add_argument("--delta", type=float, default=0.05)
    p = sub.add_parser("strainers", help="strainer atlas over samples")
    common(p)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--samples", type=int, default=12)
    p = sub.add_parser("flows", help="fiber retraction flow runs")
    common(p)
    p.add_argument("--delta", type=float, default=0.04)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--samples", type=int, default=6)
    p = sub.add_parser("converge", help="measure stability along a family")
    common(p, manifest_input=True)
    p.add_argument("--tol", type=float, default=0.05)
    p = sub.add_parser("chart", help="build and verify a strainer chart")
    common(p)
    p.add_argument("--delta", type=float, default=0.04)

    args = ap.parse_args(argv)
    try:
        return {
            "validate": cmd_validate,
            "analyze": cmd_analyze,
            "strainers": cmd_strainers,
            "flows": cmd_flows,
            "converge": cmd_converge,
            "chart": cmd_chart,
        }[args.cmd](args)
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return BADINPUT
    except ComplexError as exc:
        print(f"invalid complex: {exc}", file=sys.stderr)
        return BADINPUT


if __name__ == "__main__":
    sys.exit(main())
