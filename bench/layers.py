"""Layer boundaries the traced run wraps, and the per-layer metrics.

Scope of the metrics: calls, self time, found ratios and error counts cover
the whole traced phase (the traced set-up plus the traced ops), because
several layers run only during set-up.  The latency statistics of
`geodesics.distance` (max_ms and the per-class p50_ms and calls) cover only
the ops' queries, so that the warm-up query does not stand in for the op
tail.  Query classes:

* same_cell / cross_cell: the endpoints do / do not share a closed cell in
  `ComplexPoint.representations`;
* cold / warm: a query is cold when neither endpoint's key() appeared in an
  earlier query of the traced phase;
* path: the caller asked for the path (need_path=True).
"""

from __future__ import annotations

import numpy as np

from tracer import Target

# span name -> statistics reported over all spans of that name
SPAN_STATS = {
    "complexes.build_complex": ("self_s",),
    "complexes.check_curvature_bound": ("self_s",),
    "geodesics.distance": ("calls", "self_s", "max_ms"),
    "geodesics.ball_samples": ("calls", "self_s"),
    "geodesics.angle": ("calls", "self_s"),
    "geodesics.shoot_from_state": ("calls", "self_s"),
    "links.link_at": ("calls", "self_s"),
    "links.find_spherical_tuple": ("calls", "self_s", "found_ratio"),
    "strainers.is_strained": ("calls", "self_s", "found_ratio"),
    "strainers.straining_radius": ("self_s",),
    "strainers.StrainerMap.value": ("calls", "self_s"),
    "flows.retract_to_fiber": ("calls", "self_s"),
    "flows.flow_phi_i": ("calls", "self_s"),
    "flows.FlowTrack.diameter": ("self_s",),
}
DISTANCE_CLASSES = ("same_cell", "cross_cell", "cold", "warm")
COUNTED = ("links.LinkSpace.raw_dist",)
PROPERTIES = ("same_cell_share", "warm_share", "spine_share",
              "face_seen_share")

UNITS = {"calls": "count", "self_s": "s", "max_ms": "ms", "p50_ms": "ms",
         "found_ratio": "ratio"}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in output order."""
    out = []
    for span, stats in SPAN_STATS.items():
        out += [(f"{span}.{st}", UNITS[st]) for st in stats]
    for cls in DISTANCE_CLASSES:
        out += [(f"geodesics.distance.{cls}.calls", "count"),
                (f"geodesics.distance.{cls}.p50_ms", "ms")]
    out.append(("geodesics.distance.path.calls", "count"))
    out += [(f"{name}.calls", "count") for name in COUNTED]
    out.append(("flows.errors", "count"))
    out += [(f"workload.{p}", "ratio") for p in PROPERTIES]
    out += [("trace.overhead_frac", "ratio"), ("trace.spans", "count")]
    return out


def _distance_tagger():
    seen: set = set()

    def tag(args, kwargs):
        engine, x, y = args[0], args[1], args[2]
        if len(args) > 3:
            need_path = args[3]
        else:
            need_path = kwargs.get("need_path", True)
        comp = engine.comp
        cells_x = {cid for cid, _ in x.representations(comp)}
        same = any(cid in cells_x for cid, _ in y.representations(comp))
        cold = x.key() not in seen and y.key() not in seen
        seen.add(x.key())
        seen.add(y.key())
        return {"same_cell": same, "cold": cold, "path": bool(need_path)}

    return tag


def targets() -> list[Target]:
    """Fresh targets (the distance tagger keeps per-phase state)."""
    return [
        Target("complexes.build_complex", "gcba.complexes", "build_complex"),
        Target("complexes.check_curvature_bound", "gcba.complexes",
               "MetricComplex.check_curvature_bound"),
        Target("geodesics.distance", "gcba.geodesics",
               "GeodesicEngine.distance", tagger=_distance_tagger()),
        Target("geodesics.ball_samples", "gcba.geodesics", "ball_samples"),
        Target("geodesics.angle", "gcba.geodesics", "angle"),
        Target("geodesics.shoot_from_state", "gcba.geodesics",
               "shoot_from_state"),
        Target("links.link_at", "gcba.links", "link_at"),
        Target("links.find_spherical_tuple", "gcba.links",
               "find_spherical_tuple"),
        Target("links.LinkSpace.raw_dist", "gcba.links", "LinkSpace.raw_dist",
               count_only=True),
        Target("strainers.is_strained", "gcba.strainers", "is_strained"),
        Target("strainers.straining_radius", "gcba.strainers",
               "straining_radius"),
        Target("strainers.StrainerMap.value", "gcba.strainers",
               "StrainerMap.value"),
        Target("flows.retract_to_fiber", "gcba.flows", "retract_to_fiber"),
        Target("flows.flow_phi_i", "gcba.flows", "flow_phi_i"),
        Target("flows.FlowTrack.diameter", "gcba.flows", "FlowTrack.diameter"),
    ]


def _p50_ms(durations) -> float:
    return float(np.median(durations)) * 1e3 if durations else 0.0


def layer_metrics(tracer, properties: dict, overhead: float) -> dict:
    """Per-layer metric values from the spans and counters of a traced run."""
    by_name: dict[str, list] = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
    vals: dict[str, float] = {}
    for name, stats in SPAN_STATS.items():
        spans = by_name.get(name, [])
        for st in stats:
            if st == "calls":
                v = len(spans)
            elif st == "self_s":
                v = sum(sp.self_s for sp in spans)
            elif st == "max_ms":
                v = max((sp.dur for sp in spans if sp.op >= 0),
                        default=0.0) * 1e3
            else:  # found_ratio
                done = [sp for sp in spans if sp.error is None]
                v = (sum(not sp.returned_none for sp in done) / len(done)
                     if done else 0.0)
            vals[f"{name}.{st}"] = v
    queries = [sp for sp in by_name.get("geodesics.distance", [])
               if sp.op >= 0]
    classes = {
        "same_cell": [sp for sp in queries if sp.tags["same_cell"]],
        "cross_cell": [sp for sp in queries if not sp.tags["same_cell"]],
        "cold": [sp for sp in queries if sp.tags["cold"]],
        "warm": [sp for sp in queries if not sp.tags["cold"]],
    }
    for cls in DISTANCE_CLASSES:
        vals[f"geodesics.distance.{cls}.calls"] = len(classes[cls])
        vals[f"geodesics.distance.{cls}.p50_ms"] = _p50_ms(
            [sp.dur for sp in classes[cls]])
    vals["geodesics.distance.path.calls"] = sum(
        sp.tags["path"] for sp in queries)
    for name in COUNTED:
        vals[f"{name}.calls"] = tracer.counts[name]
    retracts = by_name.get("flows.retract_to_fiber", [])
    vals["flows.errors"] = sum(sp.error is not None for sp in retracts)
    n_q = len(queries)
    shares = dict(properties)
    shares["same_cell_share"] = len(classes["same_cell"]) / n_q if n_q else 0.0
    shares["warm_share"] = len(classes["warm"]) / n_q if n_q else 0.0
    for p in PROPERTIES:
        vals[f"workload.{p}"] = shares[p]
    vals["trace.overhead_frac"] = overhead
    vals["trace.spans"] = len(tracer.spans)
    units = dict(per_layer_names())
    return {name: {"value": float(vals[name]), "unit": units[name]}
            for name in units}
