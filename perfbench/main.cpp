// routepath: runs one workload of the route-path benchmark and prints one
// JSON object on stdout (perfbench/run.py builds this binary, runs it and
// turns that object into the benchmark's result line).
//
//   routepath --workload bgp_feed|bulk_download|xrl_rpc --seed N
//             --seconds S --trace 0|1 [--corrupt-oracle]
//
// Exit status: 0 when every phase completed and the FIB (or every echo
// reply) matched the oracle; 1 when a phase did not finish or an output
// differed from the oracle; 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "workloads.hpp"

namespace perfbench {

namespace {

// Every per-layer metric a traced run reports, on every workload; 0 marks
// a layer or phase the workload does not cross. Workload-specific
// end-to-end figures ride along under their own names.
const std::pair<const char*, const char*> kLedger[] = {
    {"throughput_per_s", "1/s"},
    {"latency_p90_ms", "ms"},
    {"feed_routes_per_s", "1/s"},
    {"update_p50_ms", "ms"},
    {"update_p99_ms", "ms"},
    {"download_routes_per_s", "1/s"},
    {"churn_light_p50_ms", "ms"},
    {"churn_light_p99_ms", "ms"},
    {"churn_heavy_p50_ms", "ms"},
    {"churn_heavy_p99_ms", "ms"},
    {"rss_bytes_per_route", "B"},
    {"xrl_inproc_calls_per_s", "1/s"},
    {"xrl_stcp_calls_per_s", "1/s"},
    {"xrl_xring_calls_per_s", "1/s"},
    {"op_fail_frac", "ratio"},
    {"bgp.update_decode_ns_per_route", "ns"},
    {"bgp.pipeline_ns_per_route", "ns"},
    {"bgp.loc_rib_full_s", "s"},
    {"bgp.rib_calls", "count"},
    {"bgp.routes_per_rib_call", "count"},
    {"bgp.rib_push_self_us", "us"},
    {"stage.batch_encode_ns_per_route", "ns"},
    {"stage.batch_decode_ns_per_route", "ns"},
    {"stage.batch_bytes_per_route", "B"},
    {"stage.adds_per_route", "count"},
    {"stage.deletes_per_route", "count"},
    {"rib.push_batch_ns_per_route", "ns"},
    {"rib.drain_after_loc_rib_s", "s"},
    {"rib.fea_push_self_us", "us"},
    {"rib.fea_calls", "count"},
    {"fea.apply_batch_ns_per_route", "ns"},
    {"fea.fib_writes_per_route_change", "ratio"},
    {"xrl.args_encode_ns", "ns"},
    {"xrl.args_decode_ns", "ns"},
    {"ipc.request_encode_ns", "ns"},
    {"ipc.frame_decode_ns", "ns"},
    {"ipc.call_rtt_us", "us"},
    {"ipc.bytes_per_route", "B"},
    {"ipc.bytes_per_call", "B"},
    {"ipc.calls", "count"},
    {"ipc.errors", "count"},
    {"ipc.retries", "count"},
    {"ipc.attempt_timeouts", "count"},
    {"ev.cpu_busy_frac.feed_to_loc_rib", "ratio"},
    {"ev.cpu_busy_frac.feed_drain", "ratio"},
    {"ev.cpu_busy_frac.probes", "ratio"},
    {"ev.cpu_busy_frac.download", "ratio"},
    {"ev.cpu_busy_frac.churn_light", "ratio"},
    {"ev.cpu_busy_frac.churn_heavy", "ratio"},
    {"ev.cpu_busy_frac.rpc_inproc", "ratio"},
    {"ev.cpu_busy_frac.rpc_stcp", "ratio"},
    {"ev.cpu_busy_frac.rpc_xring", "ratio"},
    {"ev.fd_dispatches_per_route", "count"},
    {"ev.fd_dispatches_per_call", "count"},
    {"ev.task_slices_per_route", "count"},
    {"ev.gen_late_p99_ms", "ms"},
    {"net.attr_intern_hit_frac", "ratio"},
    {"ledger.bgp_frac", "ratio"},
    {"ledger.input_copy_frac", "ratio"},
    {"ledger.handles_frac", "ratio"},
    {"ledger.codec_frac", "ratio"},
    {"ledger.rib_frac", "ratio"},
    {"ledger.fea_frac", "ratio"},
    {"ledger.ipc_frac", "ratio"},
    {"ledger.wait_frac", "ratio"},
    {"ledger.unattributed_frac", "ratio"},
    {"ledger.drain.handles_frac", "ratio"},
    {"ledger.drain.codec_frac", "ratio"},
    {"ledger.drain.rib_frac", "ratio"},
    {"ledger.drain.fea_frac", "ratio"},
    {"ledger.drain.ipc_frac", "ratio"},
    {"ledger.drain.wait_frac", "ratio"},
    {"ledger.drain.unattributed_frac", "ratio"},
    {"ledger.drain.calls", "count"},
    {"trace.overhead_frac", "ratio"},
};

void json_string(const std::string& s) {
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\') std::putchar('\\');
        std::putchar(c);
    }
    std::putchar('"');
}

void json_metrics(const std::map<std::string, Metric>& m) {
    std::putchar('{');
    bool first = true;
    for (const auto& [name, metric] : m) {
        if (!first) std::putchar(',');
        first = false;
        json_string(name);
        // Non-finite values (a phase that never ran) print as null and
        // fail the result check rather than masquerading as numbers.
        if (std::isfinite(metric.value))
            std::printf(":{\"value\":%.17g,\"unit\":", metric.value);
        else
            std::printf(":{\"value\":null,\"unit\":");
        json_string(metric.unit);
        std::putchar('}');
    }
    std::putchar('}');
}

int usage() {
    std::fprintf(stderr,
                 "usage: routepath --workload bgp_feed|bulk_download|xrl_rpc "
                 "--seed N --seconds S --trace 0|1 [--corrupt-oracle]\n");
    return 2;
}

}  // namespace

void complete_ledger(Result& r) {
    for (const auto& [name, unit] : kLedger) {
        if (r.metrics.count(name) != 0) continue;
        auto it = r.named.find(name);
        r.set(name, it != r.named.end() ? it->second.value : 0.0, unit);
    }
}

}  // namespace perfbench

int main(int argc, char** argv) {
#ifdef __GLIBC__
    // xring frames are allocated on one thread and freed on another; one
    // shared malloc arena keeps that from growing remote arenas.
    mallopt(M_ARENA_MAX, 1);
#endif
    using namespace perfbench;
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            o.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            o.seed = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
        } else if (a == "--seconds" && has_value) {
            o.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && has_value) {
            o.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--corrupt-oracle") {
            o.corrupt_oracle = true;
        } else {
            return usage();
        }
    }
    if (o.seconds <= 0) return usage();

    // End-to-end runs measure the route path with telemetry off, as the
    // repository's own benches do; the traced pass turns it on itself.
    xrp::telemetry::set_enabled(false);

    Result r;
    if (o.workload == "bgp_feed")
        r = run_bgp_feed(o);
    else if (o.workload == "bulk_download")
        r = run_bulk_download(o);
    else if (o.workload == "xrl_rpc")
        r = run_xrl_rpc(o);
    else
        return usage();

    r.notes.emplace("setup_reps", std::to_string(kSetupReps));
    // An oracle mismatch is a failed operation too.
    r.failed += r.oracle_mismatches;
    r.name("op_fail_frac", r.fail_frac(), "ratio");
    if (o.trace) complete_ledger(r);
    const bool correct = r.complete && r.oracle_mismatches == 0;

    std::printf("{\"workload\":");
    json_string(r.workload);
    std::printf(",\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"oracle_mismatches\":%llu,\"metrics\":",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.oracle_mismatches));
    json_metrics(r.metrics);
    std::printf(",\"named\":");
    json_metrics(r.named);
    std::printf(",\"notes\":{");
    bool first = true;
    for (const auto& [k, v] : r.notes) {
        if (!first) std::putchar(',');
        first = false;
        json_string(k);
        std::putchar(':');
        json_string(v);
    }
    std::printf("},\"build_type\":");
    json_string(PERFBENCH_BUILD_TYPE);
    std::printf(",\"compiler\":");
    json_string(PERFBENCH_COMPILER);
    std::printf("}\n");
    return correct ? 0 : 1;
}
