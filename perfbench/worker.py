"""One measured run of one workload, in a fresh process started by run.py.

Prints a single JSON object on stdout.  clustermod must be importable (run.py
puts the checkout's `src` on PYTHONPATH).

Times are calibrated.  On a shared machine the speed of a Python process
drifts by 20-30% within seconds, in CPU time as much as in wall time.  So a
fixed pure-Python reference loop runs right before and right after each op,
and the op's time is scaled by REF_NOMINAL_S over the mean time of the two: times read as seconds on a machine where the loop takes exactly
REF_NOMINAL_S.  The raw times are kept in the run record too.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import tracer as tracing
from workloads import WORKLOADS

SETUP_REPS = 5
REF_NOMINAL_S = 0.010
REF_STEPS = 25_000
TAIL_BEYOND = 10
MODULES = ("cartan", "quivers", "engine", "reps", "hlmap", "verify", "cli", "errors", "symbolic")


def load_clustermod():
    """Import clustermod afresh: drop any loaded copy first."""
    for name in [n for n in sys.modules if n == "clustermod" or n.startswith("clustermod.")]:
        del sys.modules[name]
    importlib.import_module("clustermod")
    return SimpleNamespace(**{m: importlib.import_module(f"clustermod.{m}") for m in MODULES})


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed loop that builds tuples and dicts and
    sorts them, the kind of work clustermod's exact arithmetic does."""
    c0, t0 = time.process_time(), time.perf_counter()
    d: dict[tuple[int, int], tuple[int, ...]] = {}
    for i in range(REF_STEPS):
        key = (i % 97, i % 13)
        d[key] = d.get(key, ())[-2:] + (i,)
    sorted(d.items())
    return time.perf_counter() - t0, time.process_time() - c0


def scale(before, after) -> tuple[float, float]:
    """Wall and CPU factors from the reference runs around a measurement."""
    return (2 * REF_NOMINAL_S / (before[0] + after[0]),
            2 * REF_NOMINAL_S / max(before[1] + after[1], 1e-9))


def timed_setup(workload, scopes):
    """Import clustermod and build every scope's inputs.

    Returns (calibrated seconds, raw seconds, modules)."""
    before = reference()
    t0 = time.perf_counter()
    cm = load_clustermod()
    for scope in scopes:
        workload.build_inputs(cm, scope)
    raw = time.perf_counter() - t0
    return raw * scale(before, reference())[0], raw, cm


def make_cold(cm):
    """Drop the package's process-wide caches, so the next op starts cold, and
    reset the collector's counters, so it starts like a fresh process."""
    cm.verify._bundle.cache_clear()
    cm.symbolic._var.cache_clear()
    gc.collect()
    if cm.verify._bundle.cache_info().currsize != 0:
        raise RuntimeError("verify._bundle still holds entries at the start of an op")


@dataclass
class Batch:
    wall_s: float = 0.0  # calibrated
    cpu_s: float = 0.0  # calibrated
    raw_wall_s: float = 0.0
    raw_cpu_s: float = 0.0
    latencies: list = field(default_factory=list)  # calibrated
    fingerprints: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def run_batch(cm, workload, scopes, tracer=None) -> Batch:
    """Run every op once.  Times cover the call into clustermod only, not the checks."""
    batch = Batch()
    for k, scope in enumerate(scopes):
        make_cold(cm)
        if tracer is not None:
            tracer.op = k
        before = reference()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = workload.op(cm, scope)
            error = None
        except Exception:  # recorded as a failed op; the run goes on
            result, error = None, traceback.format_exc(limit=4)
        t1, c1 = time.perf_counter(), time.process_time()
        wall_factor, cpu_factor = scale(before, reference())
        fingerprint = None
        if error is None:
            try:
                ok, fingerprint = workload.check(cm, scope, result)
                if not ok:
                    error = "output does not match the oracle"
            except Exception:
                error = traceback.format_exc(limit=4)
        del result
        batch.raw_wall_s += t1 - t0
        batch.raw_cpu_s += c1 - c0
        batch.wall_s += (t1 - t0) * wall_factor
        batch.cpu_s += (c1 - c0) * cpu_factor
        batch.latencies.append((t1 - t0) * wall_factor)
        batch.fingerprints.append(fingerprint)
        if error is not None:
            batch.failures.append({"op": k, "scope": scope.to_json(), "error": error})
    return batch


def compare(first: Batch, batch: Batch, scopes):
    """An op whose output differs from the same op in the first batch fails."""
    for k, (a, b) in enumerate(zip(first.fingerprints, batch.fingerprints)):
        if a is not None and b is not None and a != b:
            batch.failures.append({"op": k, "scope": scopes[k].to_json(),
                                   "error": "output differs from an earlier run of this op"})


def tail(latencies, min_samples):
    """Latency at the percentile that leaves TAIL_BEYOND samples beyond it in
    the workload's minimum number of ops; fixed per workload, so runs with more
    batches compare."""
    pct = 1 - TAIL_BEYOND / min_samples
    ordered = sorted(latencies)
    idx = max(math.ceil(pct * len(ordered)) - 1, 0)
    return ordered[idx], 100 * pct, len(ordered) - 1 - idx


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    scopes = workload.draw(load_clustermod(), args.seed)
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        seconds, raw, cm = timed_setup(workload, scopes)
        setups.append(seconds)
        raw_setups.append(raw)

    info = {"scopes": [s.to_json() for s in scopes], "setup_samples_s": setups,
            "raw_setup_samples_s": raw_setups}
    if args.trace == 0:
        batches = []
        start = time.perf_counter()
        while True:
            batches.append(run_batch(cm, workload, scopes))
            compare(batches[0], batches[-1], scopes)
            elapsed = time.perf_counter() - start
            done = len(batches) >= workload.min_batches
            if done and elapsed * (1 + 1 / len(batches)) > args.seconds:
                break
        latencies = [t for b in batches for t in b.latencies]
        tail_s, tail_pct, beyond = tail(latencies, workload.min_batches * len(scopes))
        attempted = len(latencies)
        failures = [f for b in batches for f in b.failures]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(b.wall_s for b in batches),
            "cpu_s": statistics.median(b.cpu_s for b in batches),
            "op_ms_p50": 1000 * statistics.median(latencies),
            "op_ms_tail": 1000 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - len(failures) / attempted,
        }
        info.update(batches=len(batches), batch_wall_s=[b.wall_s for b in batches],
                    batch_cpu_s=[b.cpu_s for b in batches],
                    raw_batch_wall_s=[b.raw_wall_s for b in batches],
                    raw_batch_cpu_s=[b.raw_cpu_s for b in batches],
                    op_ms=[[round(1000 * t, 3) for t in b.latencies] for b in batches],
                    op_ms_tail={"percentile": tail_pct, "samples": attempted,
                                "samples_beyond": beyond})
    else:
        untraced = run_batch(cm, workload, scopes)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = run_batch(cm, workload, scopes, tr)
        finally:
            tr.uninstall()
        left = tracing.installed_wrappers()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")
        compare(untraced, traced, scopes)
        attempted = 2 * len(scopes)
        failures = untraced.failures + traced.failures
        metrics = tr.metrics()
        # the per-layer self times are raw seconds, so these two are raw as well
        metrics["trace.wall_s"] = traced.raw_wall_s
        metrics["trace.overhead_s"] = traced.raw_wall_s - untraced.raw_wall_s
        info.update(untraced_raw_wall_s=untraced.raw_wall_s, spans=len(tr.span_id))
        if args.spans:
            tr.write_spans(args.spans)
    print(json.dumps({"attempted": attempted, "failed": len(failures), "metrics": metrics,
                      "failures": failures[:20], "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
