"""Self-test of the benchmark harness; exits non-zero on the first failed check.

    python3 perfbench/selftest.py      # from the checkout root, a few seconds

Checks, on a small batch of every workload:
  * BENCHMARK.json names exactly the workloads and metrics the harness reports;
  * the tracer rebinds every import site of a traced function, every per-layer
    metric a workload is meant to load reads non-zero on it, reps.* reads zero
    on enum, and no wrapper is left installed after a traced or untraced run;
  * each op starts cold, and traced and untraced ops give the same outputs;
  * the orientation generator is reproducible and covers every orientation;
  * the oracles reproduce known values.
"""
from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from run import END_TO_END, per_layer_unit  # noqa: E402
from workloads import WORKLOADS, draw_heights  # noqa: E402

# import sites that a wrapper on the defining module alone would miss
REBOUND = ("clustermod.engine.div_exact", "clustermod.engine.substitute",
           "clustermod.engine.eval_tropical", "clustermod.verify.enumerate_exchange_graph",
           "clustermod.verify.make_record", "clustermod.verify.separation",
           "clustermod.verify.psi", "clustermod.verify.hw_extract", "clustermod.cli.run_check",
           "clustermod.symbolic.LaurentPoly.__rmul__")


def check(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check({w["name"]: w["why"] for w in spec["workloads"]}
          == {w.name: w.why for w in WORKLOADS.values()}, "BENCHMARK.json workloads")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end-to-end metrics and units")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == [(n, per_layer_unit(n)) for n in tracing.per_layer_names()],
          "BENCHMARK.json per-layer metrics and units")


def oracle_values():
    check(oracles.cluster_counts("A", 3) == (14, 21, 9), "A3 counts")
    check(oracles.cluster_counts("D", 4) == (50, 100, 16), "D4 counts")
    check(oracles.cluster_counts("E", 6)[0] == 833, "E6 seed count")
    edges = ((1, 2), (2, 3))
    check(len(oracles.positive_roots("A", 3, edges)) == 6, "A3 positive roots")
    arrows = oracles.arrows_of(edges, {1: 0, 2: -1, 3: -2})  # 1 -> 2 -> 3
    check(oracles.socle(arrows, 3, (1, 1, 1)) == (0, 0, 1), "socle of the A3 projective P1")


def generator(cm):
    cartan = cm.cartan.cartan_type("D5")
    a = draw_heights(cm, cartan, 16, random.Random(7))
    b = draw_heights(cm, cartan, 16, random.Random(7))
    check(a == b, "the same seed draws the same height functions")
    check(len({tuple(x[p] > x[q] for p, q in cartan.edges) for x in a}) == 16,
          "16 draws on D5 cover its 16 orientations")


def workload_traces():
    for w in WORKLOADS.values():
        cm = worker.load_clustermod()
        scopes = w.draw(cm, seed=3, smoke=True)
        untraced = worker.run_batch(cm, w, scopes)
        check(not tracing.installed_wrappers(), f"{w.name}: no wrapper after an untraced run")
        tr = tracing.Tracer()
        tr.install()
        try:
            check(set(REBOUND) <= tr.bound_sites(), f"{w.name}: every import site is rebound")
            traced = worker.run_batch(cm, w, scopes, tr)
        finally:
            tr.uninstall()
        check(not tracing.installed_wrappers(), f"{w.name}: no wrapper after a traced run")
        worker.compare(untraced, traced, scopes)
        check(not untraced.failures and not traced.failures,
              f"{w.name}: ops pass their oracles, traced and untraced alike "
              f"{untraced.failures + traced.failures}")
        metrics = tr.metrics()
        zero = [m for m in w.loads if not metrics[m]]
        check(not zero, f"{w.name}: per-layer metrics it loads are non-zero {zero}")
        if w.name == "enum":
            busy = [m for m, v in metrics.items() if m.startswith("reps.") and v]
            check(not busy, f"enum: reps.* reads zero {busy}")


def cold_ops():
    cm = worker.load_clustermod()
    w = WORKLOADS["verify"]
    cm.verify.get_bundle(cm.cartan.cartan_type("A3"), {1: 0, 2: -1, 3: -2})
    worker.make_cold(cm)
    check(cm.verify._bundle.cache_info().currsize == 0, "make_cold empties verify._bundle")
    scope = w.draw(cm, seed=1, smoke=True)[0]
    w.op(cm, scope)
    check(cm.verify._bundle.cache_info().currsize > 0, "a verify op fills verify._bundle")
    ok, _ = WORKLOADS["reps"].check(cm, scope, WORKLOADS["reps"].op(cm, scope))
    check(ok, "a reps op starts from a fresh RepContext")


def main():
    benchmark_json()
    oracle_values()
    generator(worker.load_clustermod())
    cold_ops()
    workload_traces()
    print("selftest passed")


if __name__ == "__main__":
    main()
