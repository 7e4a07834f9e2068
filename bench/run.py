"""Benchmark runner for gcba.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or `all`, each in its own process) as a closed loop of one
caller in one thread, checks every op's result, and prints as its last
stdout line one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end metrics; with
--trace 1 they are the per-layer metrics of a traced replay of the same ops
(see README.md).  Exit code 0 on a correct run, 1 on a wrong result or a
broken set-up, 2 when the library cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# One caller in one thread: keep numpy's BLAS from starting a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-ups before the measured phase: at least SETUP_MIN_REPEATS, and more
# until they took SETUP_MIN_SECONDS, but at most SETUP_MAX_REPEATS; then one
# fewer after it (at least one), so that setup_s samples the machine at both
# ends of the run.  A set-up of 2 s or more (grid_geodesics) thus runs once
# on each side, which leaves the run budget to the measured phase.
SETUP_MIN_REPEATS = 1
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 13
MIN_OPS = 20          # the tail needs at least 11 ops; keep margin
TAIL_BEYOND = 10      # op_tail_ms: highest percentile with 10 ops beyond it
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("verified_frac", "ratio"),
              ("peak_rss_mb", "MB")]


def _import_library():
    """Import gcba from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gcba
    except ImportError as exc:
        print(f"cannot import gcba from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    origin = Path(gcba.__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"gcba imported from {origin}, not from {src}", file=sys.stderr)
        sys.exit(2)


@dataclass
class Phase:
    """Outcome of one measured phase."""
    attempted: int = 0
    latencies: list = field(default_factory=list)   # verified ops, seconds
    op_time: float = 0.0          # every op, failed ones included
    elapsed: float = 0.0
    failures: Counter = field(default_factory=Counter)
    wrong: int = 0
    checksum: str = ""
    checked: int = 0      # ops that returned and went through the check
    points: int = 0       # input points of checked ops
    spine: int = 0        # ... of which on the singular set
    face_seen: int = 0    # checked ops whose open faces were all seen before

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def measure(wl, ctx, seed, seconds=None, n_ops=None, tracer=None) -> Phase:
    """Run ops back to back, for `seconds` (at least MIN_OPS ops) or for
    exactly `n_ops` ops.  Only wl.op is timed per op; checks run untraced."""
    import numpy as np
    from gcba import flows
    from gcba import geodesics as geo
    from workloads import _open_face, is_spine_point

    rng = np.random.default_rng(seed)
    stream = wl.inputs(ctx, rng)
    ph = Phase()
    digest = hashlib.sha256()
    faces: set = set()
    clock = time.perf_counter
    t_start = clock()
    while True:
        if n_ops is not None:
            if ph.attempted >= n_ops:
                break
        elif clock() - t_start >= seconds and ph.attempted >= MIN_OPS:
            break
        inp = next(stream)
        if tracer is not None:
            tracer.op = ph.attempted
        kind = None
        t0 = clock()
        try:
            out = wl.op(ctx, inp, rng)
        except flows.FlowError:
            kind = "FlowError"
        except geo.GeodesicError:
            kind = "GeodesicError"
        dt = clock() - t0
        ph.attempted += 1
        ph.op_time += dt
        if kind is None:
            if tracer is not None:
                tracer.paused = True
            try:
                res = wl.check(ctx, inp, out)
            finally:
                if tracer is not None:
                    tracer.paused = False
            ph.checked += 1
            if res.ok:
                ph.latencies.append(dt)
            else:
                kind = "oracle"
                ph.wrong += 1
            digest.update(f"{ph.attempted}:{res.ok}:{res.digest}\n".encode())
            ph.points += len(res.points)
            ph.spine += sum(is_spine_point(res.comp, x) for x in res.points)
            keys = [_open_face(x) for x in res.points]
            ph.face_seen += all(k in faces for k in keys)
            faces.update(keys)
        else:
            digest.update(f"{ph.attempted}:{kind}\n".encode())
        if kind is not None:
            ph.failures[kind] += 1
    ph.elapsed = clock() - t_start
    ph.checksum = digest.hexdigest()[:16]
    return ph


def _tail(lat_ms):
    """(value, percentile): the highest order statistic with TAIL_BEYOND
    verified ops beyond it, and the percentile it sits at."""
    s = sorted(lat_ms)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _timed_setups(wl, repeats=None):
    """Build the workload context afresh several times; returns the last
    context and every set-up time.  Without `repeats`, the count follows the
    SETUP_* limits."""
    times, ctx = [], None
    while len(times) < (repeats or SETUP_MAX_REPEATS):
        if repeats is None and len(times) >= SETUP_MIN_REPEATS \
                and sum(times) >= SETUP_MIN_SECONDS:
            break
        ctx = None
        gc.collect()
        t0 = time.perf_counter()
        ctx = wl.setup()
        times.append(time.perf_counter() - t0)
    return ctx, times


def _properties(ph: Phase) -> dict:
    return {"spine_share": ph.spine / ph.points if ph.points else 0.0,
            "face_seen_share": (ph.face_seen / ph.checked if ph.checked
                                else 0.0)}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().split("\n"):
            if line.endswith(" " + name):
                return line.split()[0]
        return "unknown"
    except OSError:
        return "unknown (not a git checkout)"


def _machine() -> dict:
    import numpy as np
    return {"system": platform.system(), "release": platform.release(),
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def run_untraced(wl, seed, seconds):
    ctx, setups = _timed_setups(wl)
    ph = measure(wl, ctx, seed, seconds=seconds)
    ctx = None          # free the measured context before the next set-ups
    setups += _timed_setups(wl, max(1, len(setups) - 1))[1]
    lat_ms = [t * 1e3 for t in ph.latencies]
    tail, pct = _tail(lat_ms) if lat_ms else (0.0, 0.0)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ph.latencies) / ph.elapsed,
        "op_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "op_tail_ms": tail,
        "verified_frac": len(ph.latencies) / ph.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    detail = {"setup_s_each": setups, "measured_s": ph.elapsed,
              "verified_ops": len(ph.latencies),
              "tail_percentile": pct, "tail_ops_beyond": TAIL_BEYOND,
              "failed_frac": ph.failed / ph.attempted,
              "properties": _properties(ph)}
    return ph, metrics, detail


def run_traced(wl, seed, seconds):
    """A discarded set-up warms the process; then a traced set-up and a
    traced phase of seconds/2, then a fresh untraced set-up replaying exactly
    the same ops.  Results are compared by checksum; the tracing overhead is
    the traced op time over the untraced op time, minus one."""
    import layers
    from tracer import Tracer

    _timed_setups(wl, 1)
    gc.collect()
    tr = Tracer()
    tr.install(layers.targets())
    patched = tr.patched()
    try:
        ctx = wl.setup()
        ph = measure(wl, ctx, seed, seconds=seconds / 2.0, tracer=tr)
    finally:
        tr.uninstall()
    restored = tr.restored(patched)
    ctx = None          # free the traced context before the next set-up
    ctx, _ = _timed_setups(wl, 1)
    ref = measure(wl, ctx, seed, n_ops=ph.attempted)
    overhead = ph.op_time / ref.op_time - 1.0
    metrics = layers.layer_metrics(tr, _properties(ph), overhead)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{wl.name}-{seed}.jsonl.gz"
    tr.dump(str(span_file))
    detail = {"untraced_checksum": ref.checksum,
              "checksums_equal": ref.checksum == ph.checksum,
              "attributes_restored": restored,
              "untraced_failures": dict(ref.failures),
              "span_file": str(span_file.relative_to(ROOT))}
    ok = ref.wrong == 0 and ref.checksum == ph.checksum and restored
    return ph, metrics, detail, ok


def run_one(name, seed, seconds, trace) -> int:
    _import_library()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        sys.exit(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    wl = WORKLOADS[name]
    if trace:
        ph, metrics, detail, ok = run_traced(wl, seed, seconds)
    else:
        ph, metrics, detail = run_untraced(wl, seed, seconds)
        ok = True
    correct = ok and ph.wrong == 0
    detail.update({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": trace, "commit": _commit(),
                   "machine": _machine(), "attempted": ph.attempted,
                   "failures": dict(ph.failures), "checksum": ph.checksum})
    for mname, m in metrics.items():
        print(f"{name:>15} {mname:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": ph.attempted,
                      "failed": ph.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = proc.returncode
            combined["correct"] = False
        if not lines[-1].startswith("{"):
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for mname, m in res["metrics"].items():
            combined["metrics"][f"{name}.{mname}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="flow_retract, strainer_atlas, grid_geodesics or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        _import_library()
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
