#!/bin/sh
# Tier-1 CI: plain build + tests, then an address/undefined-sanitized
# build + tests, then a chaos pass (the integration + chaos suites rerun
# with seeded XRL fault injection — 5% drops and 0-10 ms delays on every
# dispatch — so the reliable call contract is exercised on every run),
# then a sanitized kill-chaos pass (component kills composed with the
# ambient drop/delay plan, under ASan+UBSan: restart teardown is exactly
# where lifetime bugs live), then a bench smoke pass (every benchmark
# binary runs for a token interval — catches crashes and assertion
# failures without waiting for real measurements). Any failing step
# fails the script.
set -eu

cd "$(dirname "$0")"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== sanitized build (address,undefined) =="
cmake -B build-asan -S . -DXRP_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS")

echo "== thread-sanitized build (TSan, cross-thread suites) =="
# The threading seams — EventLoop post/wake, the xring SPSC rings, the
# multi-producer journal, ComponentThread lifecycle, and the full Router
# in both placements (RouterPlacement) — run under TSan. Scoped to the
# suites that actually cross threads; the virtual-clock single-thread
# suites add nothing under TSan but cost 5-20x wall clock.
cmake -B build-tsan -S . -DXRP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_threads test_xring
(cd build-tsan && ctest -R 'Xring|Threads|ComponentThread|InternAffinity|RouterPlacement' --output-on-failure -j "$JOBS")

echo "== chaos pass (seeded fault injection) =="
# Fixed seed: a failure here replays exactly. The shrunk attempt timeout
# keeps real-clock retries fast; virtual-clock tests ignore it.
(cd build && \
    XRP_FAULT_SEED=1777 \
    XRP_FAULT_DROP_PERMILLE=50 \
    XRP_FAULT_DELAY_MS=10 \
    XRP_CALL_ATTEMPT_TIMEOUT_MS=50 \
    ctest -R 'Chaos|RouterManager' --output-on-failure -j "$JOBS")

echo "== kill-chaos pass (sanitized, kills + ambient drops) =="
# The KillChaos suite kills component channels mid-flight while the env
# plan above keeps dropping/delaying everything else. Run under the
# sanitized build: supervisor restarts destroy and rebuild whole
# components, so this is the pass that would catch use-after-frees in
# the teardown/resync choreography.
(cd build-asan && \
    XRP_FAULT_SEED=1777 \
    XRP_FAULT_DROP_PERMILLE=50 \
    XRP_FAULT_DELAY_MS=10 \
    XRP_CALL_ATTEMPT_TIMEOUT_MS=50 \
    ctest -R 'KillChaos' --output-on-failure -j "$JOBS")

echo "== bench smoke + scenario smoke + BENCH schema validation =="
# Every bench binary emits a machine-readable BENCH_<name>.json via the
# shared reporter; route them to a scratch dir (so token smoke numbers
# never clobber a committed trajectory) and validate every file against
# the xrp-bench-v1 schema — malformed or empty output fails CI. The
# scenario smoke cell (4x4 grid, link-flap schedule) is fully
# deterministic: virtual clock, fixed topology, no wall-clock anywhere,
# and the runner itself exits non-zero if the cell fails to re-converge.
BENCH_OUT="$(mktemp -d)"
trap 'rm -rf "$BENCH_OUT"' EXIT
for b in build/bench/bench_*; do
    [ -x "$b" ] || continue
    echo "-- $b"
    XRP_BENCH_DIR="$BENCH_OUT" "$b" --benchmark_min_time=0.01 >/dev/null
done
echo "-- build/bench/scenario_runner --smoke"
XRP_BENCH_DIR="$BENCH_OUT" build/bench/scenario_runner --smoke >/dev/null
# Virtual time makes the cell's every window and count exact, so they are
# pinned: a change to timer order, defer() or the loop's wait that moves
# simulated event order fails here. cpu_ms and max_rss_kb are the host's
# and are not pinned.
echo "-- scenario smoke vs bench/scenario_smoke_pinned.json"
python3 - "$BENCH_OUT"/BENCH_scenarios.json bench/scenario_smoke_pinned.json <<'EOF'
import json, sys
row = json.load(open(sys.argv[1]))["rows"][0]
want = json.load(open(sys.argv[2]))
diff = {k: (row.get(k), v) for k, v in want.items() if row.get(k) != v}
if diff:
    sys.exit(f"scenario smoke (got, pinned) differs: {diff}")
EOF
# The ECMP member-kill chaos cell is a hard gate, not just a smoke run:
# the binary exits non-zero unless killing one member of the 4-way group
# moves exactly that member's flow share (zero survivor flinch) and
# reviving it restores the original placement bit-for-bit.
echo "-- build/bench/bench_ecmp (ECMP member-kill chaos cell)"
XRP_BENCH_DIR="$BENCH_OUT" build/bench/bench_ecmp >/dev/null
build/bench/validate_bench "$BENCH_OUT"/BENCH_ecmp.json
# Bulk-download smoke at a real (if modest) scale: 100k routes through
# the batch and per-route paths plus a short churn replay, then schema +
# percentile/CDF validation of the emitted trajectory. This is the gate
# that keeps the bulk stage API's wire path honest between full 1M runs.
echo "-- build/bench/bench_route_latency (100k bulk-download smoke)"
XRP_BENCH_DIR="$BENCH_OUT" build/bench/bench_route_latency \
    --download-only --download-routes=100000 --churn-bursts=20
build/bench/validate_bench "$BENCH_OUT"/BENCH_route_latency.json
# Figs 10-12 smoke: a small table and a few test routes. The binary exits
# non-zero unless every test route yields all eight profiling points in
# one trace.
echo "-- build/bench/bench_route_latency (Figs 10-12 trace smoke)"
XRP_BENCH_DIR="$BENCH_OUT" build/bench/bench_route_latency \
    --figures-only --table-size=2000 --test-routes=8
build/bench/validate_bench "$BENCH_OUT"/BENCH_route_latency.json
build/bench/validate_bench "$BENCH_OUT"/BENCH_*.json

echo "== multi-process smoke (fork/exec, SIGKILL, hitless upgrade) =="
# Real processes, real kernel: the plain build's test_process suite forks
# xrp_component binaries over stcp — SIGKILL a live bgp, assert the
# supervisor restarts it with zero FIB flinch, run one hitless binary
# upgrade, and verify a SIGKILLed manager takes its components with it
# (no orphan leak). Then the upgrade bench at a quick size as a hard
# gate: exit status is non-zero unless 0 routes lost and 0 FIB deletes.
(cd build && ctest -R 'ProcessHost|KillChaos.RealSigkill|KillChaos.DeadPeer|Upgrade.Hitless|Supervisor.CleanExits|OrphanCleanup' \
    --output-on-failure -j "$JOBS")
echo "-- build/bench/bench_restart --quick --mode=upgrade (hitless gate)"
XRP_BENCH_DIR="$BENCH_OUT" build/bench/bench_restart --quick --mode=upgrade
build/bench/validate_bench "$BENCH_OUT"/BENCH_restart.json

echo "CI OK"
