"""clustermod benchmark: one run of one workload.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds `src/clustermod`.  The measured
run happens in a fresh worker process (perfbench/worker.py), so set-up and
peak memory are those of a cold start.  The harness uses only the standard
library, like clustermod itself (`dependencies = []`).

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the per-layer ones of a traced run.  The full record, with the
generated scopes and run metadata, goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def git_sha(root: str) -> str:
    """HEAD of the checkout when it is a git work tree; read without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_metadata(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(root),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "clustermod", "__init__.py")):
        print(f"error: no clustermod sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, f"{args.workload}.spans")]
    meta_before = run_metadata(root)
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["info"]["meta"] = dict(meta_before, loadavg_after=os.getloadavg())

    if args.trace:
        units = {name: per_layer_unit(name) for name in tracer.per_layer_names()}
    else:
        units = END_TO_END
    missing = set(units) - set(record["metrics"])
    if missing:
        print(f"error: worker did not report {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()}

    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    meta = record["info"]["meta"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={meta['python']} "
          f"nproc={meta['nproc']} sha={meta['git_sha']} loadavg={meta['loadavg']}")
    print("# scopes: " + "; ".join(f"{s['cartan']}[{s['xi']}]l={s['level']}"
                                   for s in record["info"]["scopes"]))
    for name, m in metrics.items():
        extra = ""
        if name == "op_ms_tail":
            t = record["info"]["op_ms_tail"]
            extra = (f"  (p{t['percentile']:.1f} of {t['samples']} samples, "
                     f"{t['samples_beyond']} beyond)")
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}{extra}")
    for failure in record["failures"]:
        print(f"# FAILED op {failure['op']} {failure['scope']}: {failure['error']}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
