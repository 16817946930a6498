#!/usr/bin/env python3
"""Route-path benchmark runner.

Builds perfbench/ (the router libraries from src/ plus the `routepath`
binary), runs one workload and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. Earlier lines
carry provenance and every workload-specific figure by name.

    python3 perfbench/run.py --workload bgp_feed|bulk_download|xrl_rpc \
        --seed N --seconds S --trace 0|1 [--corrupt-oracle]

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload untraced and traced and reports the per-layer ledger. Run it
from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root. Exit status is 0 only when the build
succeeded, the run finished and every oracle check passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_LIMIT_S = 170  # the workload itself; a first build may add more


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds routepath; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    rc = subprocess.run(["cmake", "--build", out, "--target", "routepath",
                         "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(out, "routepath")
    return binary if rc.returncode == 0 and os.path.exists(binary) else None


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["bgp_feed", "bulk_download", "xrl_rpc"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="flip one expected nexthop to show the oracle "
                         "failing the run")
    args = ap.parse_args()

    wanted = contract_metrics(args.trace)
    t_build = time.monotonic()
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    build_s = time.monotonic() - t_build

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: workload exceeded %d s" % RUN_LIMIT_S)
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        log("perfbench: routepath printed no result (exit %d)"
            % proc.returncode)
        return 1
    res = json.loads(lines[-1])

    metrics = {}
    for name in wanted:
        m = res["metrics"].get(name)
        if m is None or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            log("perfbench: metric %s missing or not a number" % name)
            return 1
        metrics[name] = {"value": m["value"], "unit": m["unit"]}

    provenance = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "build_type": res.get("build_type"),
        "compiler": res.get("compiler"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": res.get("notes", {}),
        "build_s": round(build_s, 3),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"named": res.get("named", {}),
                      "oracle_mismatches": res.get("oracle_mismatches")}))
    print(json.dumps({"correct": bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
