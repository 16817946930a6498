// xrl_rpc: no routing table, only marshalling, framing, transport and
// dispatch. The §8.1 method: one client keeps a pipeline of 100 calls
// outstanding against an echo server that returns its arguments, with
// the argument shape of one rib/1.0/add_route_multipath call, once per
// family (inproc and stcp on one loop; xring with the server on a
// ComponentThread). A closed-loop phase then times single stcp calls.
#include <cmath>
#include <cstdio>
#include <random>

#include "ipc/router.hpp"
#include "replay.hpp"
#include "rtrmgr/component_thread.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xrp;
using namespace std::chrono_literals;

namespace {

constexpr int kPipeline = 100;
constexpr int kTransaction = 10000;
constexpr size_t kArgPool = 1024;
const char* const kFamilies[] = {"inproc", "stcp", "xring"};

std::vector<xrl::XrlArgs> make_args(uint32_t seed) {
    std::mt19937 rng(seed);
    const char* protocols[] = {"ebgp", "ibgp", "static", "ospf"};
    std::vector<xrl::XrlArgs> pool;
    for (size_t i = 0; i < kArgPool; ++i) {
        net::NexthopSet4 nhs;
        const size_t members = 1 + rng() % 4;
        for (size_t m = 0; m < members; ++m)
            nhs.insert(net::IPv4((192u << 24) | (2u << 8) |
                                 (1 + rng() % 200)));
        xrl::XrlArgs a;
        a.add("protocol", std::string(protocols[rng() % 4]))
            .add("net", net::IPv4Net(net::IPv4(rng()), 8 + rng() % 25))
            .add("nexthops", nhs.str())
            .add("metric", static_cast<uint32_t>(rng() % 1000));
        pool.push_back(std::move(a));
    }
    return pool;
}

void add_echo(ipc::XrlRouter& r) {
    r.add_handler("echo/1.0/route",
                  [](const xrl::XrlArgs& in, xrl::XrlArgs& out) {
                      out = in;
                      return xrl::XrlError::okay();
                  });
}

// One client and one echo server on a Plexus of their own. For xring the
// server lives on a ComponentThread and the client on the main loop (two
// threads); otherwise both share the main loop.
struct RpcRig {
    ev::RealClock clock;
    ipc::Plexus plexus{clock};
    std::unique_ptr<rtrmgr::ComponentThread> server_thread;
    std::unique_ptr<ipc::XrlRouter> echo;
    ipc::XrlRouter client{plexus, "rpc-client"};
    std::string family;

    explicit RpcRig(std::string fam) : family(std::move(fam)) {
        if (family == "xring") {
            server_thread = std::make_unique<rtrmgr::ComponentThread>(clock);
            echo = std::make_unique<ipc::XrlRouter>(
                plexus, server_thread->loop(), "echo", true);
        } else {
            echo = std::make_unique<ipc::XrlRouter>(plexus, "echo", true);
            echo->enable_tcp();
        }
        add_echo(*echo);
        echo->finalize();
        client.enable_xring();
        client.finalize();
        client.set_preferred_family(family);
        if (server_thread) server_thread->start();
    }
    ~RpcRig() {
        if (server_thread) server_thread->stop_and_join();
    }
    RpcRig(const RpcRig&) = delete;
    RpcRig& operator=(const RpcRig&) = delete;
};

struct Pipeline {
    uint64_t completed = 0, errors = 0, mismatches = 0;
};

// Sends calls[first..first+count) (modulo the pool) keeping kPipeline
// outstanding and checking every reply against the arguments sent;
// returns calls per second, or 0 if the calls did not all complete.
double run_transaction(RpcRig& rig, const std::vector<xrl::Xrl>& calls,
                       const std::vector<xrl::XrlArgs>& pool, size_t first,
                       int count, Pipeline& stats) {
    int sent = 0, done = 0;
    bool pumping = false;
    std::function<void()> pump;
    pump = [&] {
        // The guard matters for inproc, whose replies complete inside
        // send(): refilling from the callback would recurse per call.
        if (pumping) return;
        pumping = true;
        while (sent - done < kPipeline && sent < count) {
            const size_t idx = (first + static_cast<size_t>(sent)) % kArgPool;
            ++sent;
            rig.client.send(calls[idx], [&, idx](const xrl::XrlError& err,
                                                 const xrl::XrlArgs& out) {
                ++done;
                if (!err.ok())
                    ++stats.errors;
                else if (!(out == pool[idx]))
                    ++stats.mismatches;
                else
                    ++stats.completed;
                pump();
            });
        }
        pumping = false;
    };
    const auto t0 = SteadyClock::now();
    pump();
    rig.plexus.loop.run_until([&] { return done >= count; }, 60s);
    const double s = seconds_since(t0);
    return done >= count ? static_cast<double>(count) / s : 0;
}

// A measured lane: its own rig, the pre-built calls, and what it saw.
struct Lane {
    std::unique_ptr<RpcRig> rig;
    std::vector<xrl::Xrl> calls;
    std::vector<double> rates;  // pipelined lanes: one per transaction
    Samples rtt_ms;             // closed-loop lane: one per call
    double wall_s = 0, cpu_s = 0;
    CounterSnapshot counters;   // traced pass: summed over its slots

    bool build(const std::string& family,
               const std::vector<xrl::XrlArgs>& pool) {
        rig.reset();
        rig = std::make_unique<RpcRig>(family);
        calls.clear();
        for (const auto& a : pool)
            calls.push_back(
                xrl::Xrl::generic("echo", "echo", "1.0", "route", a));
        Pipeline warm;
        if (run_transaction(*rig, calls, pool, 0, 1, warm) == 0 ||
            warm.completed != 1) {
            std::fprintf(stderr, "xrl_rpc: %s never answered\n",
                         family.c_str());
            return false;
        }
        return true;
    }
};

struct RpcPass {
    bool ok = false;
    double setup_s = 0;
    Lane lanes[4];  // inproc, stcp, xring pipelined; stcp closed loop
    Pipeline stats;
    uint64_t attempted = 0, failed = 0;
    double rate(int f) const { return median_of(lanes[f].rates); }
};

constexpr int kClosedLane = 3;
constexpr int kClosedBlock = 2000;

RpcPass run_pass(const std::vector<xrl::XrlArgs>& pool, double seconds,
                 bool traced) {
    RpcPass p;

    // Set-up: every family's routers bound and registered, the server
    // thread up, and one call answered on each; each repeat on the next
    // CPU. The measured lanes are then built unpinned, so the xring
    // server thread does not inherit a pin.
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        for (Lane& lane : p.lanes) lane.rig.reset();  // teardown is not set-up
        cpu_rotation().next();
        const auto t0 = SteadyClock::now();
        for (int f = 0; f < 3; ++f)
            if (!p.lanes[f].build(kFamilies[f], pool)) return p;
        setups.push_back(seconds_since(t0));
    }
    p.setup_s = median_of(setups);
    cpu_rotation().release();
    for (int f = 0; f < 3; ++f)
        if (!p.lanes[f].build(kFamilies[f], pool)) return p;
    if (!p.lanes[kClosedLane].build("stcp", pool)) return p;
    if (traced) telemetry::Registry::global().zero();

    // Each lane runs on its own rig: a pipelined lane leaves its loop
    // holding the cancelled attempt timers of every call for their full
    // timeout, and another lane sharing that loop would pay for them. The
    // lanes take turns, one slot each, for the whole run, so every lane
    // samples the same stretches of host time.
    size_t cursor = 0;
    const auto t0 = SteadyClock::now();
    while (seconds_since(t0) < seconds || p.lanes[0].rates.size() < 5) {
        for (int l = 0; l < 4; ++l) {
            Lane& lane = p.lanes[l];
            cpu_rotation().next();
            const CounterSnapshot c0 =
                traced ? CounterSnapshot::take() : CounterSnapshot{};
            Span span;
            if (l == kClosedLane) {
                for (int k = 0; k < kClosedBlock; ++k, ++cursor) {
                    const auto tc = SteadyClock::now();
                    if (run_transaction(*lane.rig, lane.calls, pool, cursor, 1,
                                        p.stats) == 0)
                        return p;
                    lane.rtt_ms.add(ms_between(tc, SteadyClock::now()));
                }
                p.attempted += kClosedBlock;
            } else {
                const double rate = run_transaction(
                    *lane.rig, lane.calls, pool, cursor, kTransaction, p.stats);
                cursor += kTransaction;
                p.attempted += kTransaction;
                if (rate == 0) {
                    std::fprintf(stderr, "xrl_rpc: %s transaction stalled\n",
                                 kFamilies[l]);
                    return p;
                }
                lane.rates.push_back(rate);
            }
            span.stop();
            lane.wall_s += span.wall_s;
            lane.cpu_s += span.cpu_s;
            if (traced) lane.counters += CounterSnapshot::take() - c0;
        }
    }
    cpu_rotation().release();
    p.failed = p.stats.errors + p.stats.mismatches;
    p.ok = true;
    return p;
}

double geomean(const RpcPass& p) {
    double log_sum = 0;
    for (int f = 0; f < 3; ++f) log_sum += std::log(p.rate(f));
    return std::exp(log_sum / 3);
}

}  // namespace

Result run_xrl_rpc(const Options& o) {
    Result r;
    r.workload = "xrl_rpc";
    const std::vector<xrl::XrlArgs> pool = make_args(o.seed);

    RpcPass u = run_pass(pool, o.seconds, false);
    r.attempted += u.attempted;
    r.failed += u.failed;
    r.complete = r.complete && u.ok;
    r.oracle_mismatches += u.stats.mismatches;
    if (!u.ok) return r;

    Samples& rtt = u.lanes[kClosedLane].rtt_ms;
    for (int f = 0; f < 3; ++f)
        r.name(std::string("xrl_") + kFamilies[f] + "_calls_per_s", u.rate(f),
               "1/s");
    r.name("xrl_stcp_rtt_p50_ms", rtt.median(), "ms");
    r.name("xrl_stcp_rtt_p99_ms", rtt.percentile(99), "ms");
    r.notes["transactions_per_family"] = std::to_string(u.lanes[0].rates.size());
    r.notes["closed_loop_calls"] = std::to_string(rtt.count());

    r.name("throughput_per_s", geomean(u), "1/s");
    r.name("latency_p90_ms", rtt.percentile(90), "ms");
    if (!o.trace) {
        r.set("setup_s", u.setup_s, "s");
        r.set("latency_p50_ms", rtt.median(), "ms");
        return r;
    }

    // ---- traced pass ---------------------------------------------------------
    for (Lane& l : u.lanes) l.rig.reset();  // one xring server thread at a time
    telemetry::set_enabled(true);
    RpcPass t = run_pass(pool, o.seconds, true);
    telemetry::set_enabled(false);
    r.attempted += t.attempted;
    r.failed += t.failed;
    r.complete = r.complete && t.ok;
    r.oracle_mismatches += t.stats.mismatches;
    if (!t.ok) return r;

    const IpcCost ipc = replay_ipc("echo/1.0/route", pool[0], pool[0]);
    CounterSnapshot all;
    for (const Lane& l : t.lanes) all += l.counters;
    const Lane& stcp = t.lanes[1];
    const double stcp_calls = static_cast<double>(stcp.counters.xrl_calls);
    r.set("xrl.args_encode_ns", ipc.args_encode_ns, "ns");
    r.set("xrl.args_decode_ns", ipc.args_decode_ns, "ns");
    r.set("ipc.request_encode_ns", ipc.request_encode_ns, "ns");
    r.set("ipc.frame_decode_ns", ipc.frame_decode_ns, "ns");
    r.set("ipc.bytes_per_call",
          stcp_calls > 0
              ? static_cast<double>(stcp.counters.wire_bytes) / stcp_calls
              : 0,
          "B");
    r.set("ipc.call_rtt_us", t.lanes[kClosedLane].rtt_ms.median() * 1e3, "us");
    r.set("ipc.calls", static_cast<double>(all.xrl_calls), "count");
    r.set("ipc.errors", static_cast<double>(all.xrl_errors), "count");
    r.set("ipc.retries", static_cast<double>(all.retries), "count");
    r.set("ipc.attempt_timeouts", static_cast<double>(all.attempt_timeouts),
          "count");
    auto busy = [](const Lane& l) {
        return l.wall_s > 0 ? l.cpu_s / l.wall_s : 0;
    };
    r.set("ev.cpu_busy_frac.rpc_inproc", busy(t.lanes[0]), "ratio");
    r.set("ev.cpu_busy_frac.rpc_stcp", busy(t.lanes[1]), "ratio");
    r.set("ev.cpu_busy_frac.rpc_xring", busy(t.lanes[2]), "ratio");
    r.set("ev.fd_dispatches_per_call",
          stcp_calls > 0
              ? static_cast<double>(stcp.counters.fd_dispatches) / stcp_calls
              : 0,
          "count");

    // ---- ledger: the pipelined stcp lane -------------------------------------
    // Marshalling is replayed; what remains is the call contract, the
    // socket path and dispatch, which no span covers yet.
    const double wall = stcp.wall_s;
    const double l_ipc = ipc.marshal_ns() * 1e-9 * stcp_calls;
    const double l_wait = std::max(0.0, wall - stcp.cpu_s);
    auto share = [](double part, double whole) {
        return whole > 0 ? part / whole : 0;
    };
    r.set("ledger.ipc_frac", share(l_ipc, wall), "ratio");
    r.set("ledger.wait_frac", share(l_wait, wall), "ratio");
    r.set("ledger.unattributed_frac", share(wall - l_ipc - l_wait, wall),
          "ratio");
    const double gu = geomean(u), gt = geomean(t);
    r.set("trace.overhead_frac", share(gu - gt, gt), "ratio");
    return r;
}

}  // namespace perfbench
