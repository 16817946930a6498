// bgp_feed: the paper's 146,515-route synthetic backbone feed through one
// BGP session (UPDATE decode, BGP stages, per-UPDATE batches to the RIB,
// RIB stages, FEA), then a closed-loop probe of single-prefix
// announce-to-FIB latency on a second peering (Fig 12).
#include <malloc.h>

#include <cstdio>
#include <random>

#include "replay.hpp"
#include "sim/routefeed.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xrp;
using namespace std::chrono_literals;

namespace {

constexpr size_t kFeedRoutes = 146515;
// Probes: at least this many so p99 has >= 10 samples beyond it; more
// while the run's measuring time lasts.
constexpr size_t kMinProbes = 1200;
constexpr size_t kMaxProbes = 20000;
constexpr auto kProbeTimeout = 2s;
constexpr size_t kWithdrawsPerUpdate = 800;
// Quiet time between FIB full and the first probe. The load leaves the
// loop holding the cancelled attempt timers of its last 2 s of XRLs (the
// call contract's attempt timeout); probes measure the loaded table once
// they have expired, as the paper's Fig 12 does on a settled table.
constexpr auto kSettle = 2500ms;

struct FeedInputs {
    std::vector<bgp::UpdateMessage> feed;
    Table feed_table;  // prefix -> nexthop the feed announces
    std::vector<IPv4Net> probe_nets;
    std::vector<bgp::UpdateMessage> probes;  // one prefix each, peering B
};

FeedInputs make_inputs(uint32_t seed) {
    FeedInputs in;
    sim::RouteFeedConfig cfg;
    cfg.route_count = kFeedRoutes;
    cfg.seed = seed;
    cfg.nexthop = kNexthopA;
    in.feed = sim::generate_feed(cfg);
    for (const auto& u : in.feed)
        for (const auto& n : u.nlri) in.feed_table[n] = kNexthopA;

    // Probe prefixes: distinct /24s of 10/8 (kept out of the feed by the
    // generator), in a seeded order.
    std::vector<uint32_t> slots(65536);
    for (uint32_t i = 0; i < slots.size(); ++i) slots[i] = i;
    std::mt19937 rng(seed ^ 0x9e3779b9u);
    std::shuffle(slots.begin(), slots.end(), rng);
    for (size_t i = 0; i < kMaxProbes + 1; ++i) {
        IPv4Net net(IPv4((10u << 24) | (slots[i] << 8)), 24);
        in.probe_nets.push_back(net);
        bgp::UpdateMessage u;
        bgp::PathAttributes pa;
        pa.origin = bgp::Origin::kIgp;
        pa.as_path = bgp::AsPath(std::vector<bgp::As>{7018, 65000});
        pa.nexthop = kNexthopB;
        u.attributes = std::move(pa);
        u.nlri.push_back(net);
        in.probes.push_back(std::move(u));
    }
    return in;
}

struct Rig {
    std::unique_ptr<RouteStack> stack;
    std::unique_ptr<sim::FeedPeer> peer_a;
    std::unique_ptr<sim::FeedPeer> peer_b;
};

// Builds the stack and both peerings; returns false if it never became
// ready (components bound, Finder registered, peers up, IGP route in
// the FIB).
bool build_rig(Rig& rig, const StackTrace& trace) {
    rig.stack = std::make_unique<RouteStack>(true, trace);
    RouteStack& s = *rig.stack;
    rig.peer_a = sim::attach_feed_peer(s.plexus.loop, *s.bgp, kNexthopA, 3561)
                     .first;
    rig.peer_b = sim::attach_feed_peer(s.plexus.loop, *s.bgp, kNexthopB, 7018)
                     .first;
    return s.run_until(
        [&] {
            return rig.peer_a->established() && rig.peer_b->established() &&
                   s.fea.fib().find_exact(kPeeringNet) != nullptr;
        },
        10s);
}

void tear_down(Rig& rig) {
    rig.peer_a.reset();
    rig.peer_b.reset();
    rig.stack.reset();
}

struct FeedPass {
    bool ok = false;
    double setup_s = 0;
    double loc_rib_s = 0;
    double fib_s = 0;
    double rss_per_route = 0;
    Span to_loc_rib, drain, probe_span;
    Samples probe_ms;
    uint64_t attempted = 0, failed = 0, mismatches = 0;
    // Traced pass only: state sampled when loc-RIB filled.
    CounterSnapshot c0, c_loc_rib, c_fib;
    double rib_push_self_at_loc_rib = 0, fea_push_self_at_loc_rib = 0;
    size_t rib_routes_at_loc_rib = 0, fib_routes_at_loc_rib = 0;
    uint64_t fib_writes = 0;
    double intern_hit_frac = 0;
};

// One stack: set-up, the feed load and its oracle check, the probe phase
// (at least kMinProbes, more until `deadline`), then withdrawing every
// probe and a second oracle check.
FeedPass run_pass(const Options& o, const FeedInputs& in, bool traced,
                  HandleLedger* rib_push, HandleLedger* fea_push,
                  SteadyClock::time_point deadline) {
    FeedPass p;
    StackTrace trace;
    if (traced) trace = StackTrace{rib_push, fea_push};

    std::vector<double> setups;
    Rig rig;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rig.stack) tear_down(rig);
        cpu_rotation().next();
        const auto t0 = SteadyClock::now();
        if (!build_rig(rig, trace)) {
            std::fprintf(stderr, "bgp_feed: stack never became ready\n");
            return p;
        }
        setups.push_back(seconds_since(t0));
    }
    p.setup_s = median_of(setups);
    RouteStack& s = *rig.stack;
    const ev::Timer rotate = s.plexus.loop.set_periodic(kRotatePeriod, [] {
        cpu_rotation().next();
        return true;
    });

    Table expected = snapshot_fib(s);
    const size_t base = expected.size();
    for (const auto& [net, nh] : in.feed_table) expected[net] = nh;
    if (traced) {
        *rib_push = HandleLedger{};
        *fea_push = HandleLedger{};
        telemetry::Registry::global().zero();
        bgp::attr_intern_table().clear();
        p.c0 = CounterSnapshot::take();
    }
    const uint64_t writes0 = s.fea.fib_adds() + s.fea.fib_deletes();
    malloc_trim(0);
    const double rss0 = max_rss_bytes();

    // ---- load -------------------------------------------------------------
    const size_t n = in.feed_table.size();
    const auto t_load = SteadyClock::now();
    p.to_loc_rib = Span{};
    for (const auto& u : in.feed) rig.peer_a->send(u);
    if (!s.run_until([&] { return s.bgp->loc_rib_count() >= n; }, 120s)) {
        std::fprintf(stderr, "bgp_feed: loc-RIB never filled (%zu/%zu)\n",
                     s.bgp->loc_rib_count(), n);
        return p;
    }
    p.to_loc_rib.stop();
    p.loc_rib_s = seconds_since(t_load);
    if (traced) {
        p.c_loc_rib = CounterSnapshot::take();
        p.rib_push_self_at_loc_rib = rib_push->self_s;
        p.fea_push_self_at_loc_rib = fea_push->self_s;
        p.rib_routes_at_loc_rib = s.rib->origin_route_count("ebgp");
        p.fib_routes_at_loc_rib = s.fib_size() - base;
    }
    p.drain = Span{};
    if (!s.run_until([&] { return s.fib_size() >= base + n; }, 120s)) {
        std::fprintf(stderr, "bgp_feed: FIB never filled (%zu/%zu)\n",
                     s.fib_size() - base, n);
        return p;
    }
    p.drain.stop();
    p.fib_s = seconds_since(t_load);
    p.rss_per_route = (max_rss_bytes() - rss0) / static_cast<double>(n);
    p.fib_writes = s.fea.fib_adds() + s.fea.fib_deletes() - writes0;
    if (traced) {
        p.c_fib = CounterSnapshot::take();
        rib_push->capture = false;
        fea_push->capture = false;
        const auto st = bgp::attr_intern_table().stats();
        const double lookups = static_cast<double>(st.hits + st.misses);
        p.intern_hit_frac =
            lookups > 0 ? static_cast<double>(st.hits) / lookups : 0;
    }
    p.attempted += n;

    Table checked = expected;
    if (o.corrupt_oracle && !checked.empty())
        checked.begin()->second = IPv4::must_parse("203.0.113.99");
    p.mismatches += fib_mismatches(s, checked);

    // ---- probes -------------------------------------------------------------
    s.plexus.loop.run_for(kSettle);
    // One warm-up probe resolves peering B's nexthop; it is not sampled.
    rig.peer_b->send(in.probes.back());
    const IPv4Net warm = in.probe_nets.back();
    s.run_until([&] { return s.fea.fib().find_exact(warm) != nullptr; }, 5s);
    expected[warm] = kNexthopB;

    p.probe_span = Span{};
    size_t used = 0;
    while (used < kMaxProbes &&
           (used < kMinProbes || SteadyClock::now() < deadline)) {
        const IPv4Net net = in.probe_nets[used];
        const auto t0 = SteadyClock::now();
        rig.peer_b->send(in.probes[used]);
        ++used;
        ++p.attempted;
        if (s.run_until(
                [&] { return s.fea.fib().find_exact(net) != nullptr; },
                kProbeTimeout))
            p.probe_ms.add(ms_between(t0, SteadyClock::now()));
        else
            ++p.failed;
    }
    p.probe_span.stop();

    // Withdraw every probe; the table must return to exactly the feed.
    expected.erase(warm);
    bgp::UpdateMessage wd;
    auto flush = [&] {
        if (!wd.withdrawn.empty()) rig.peer_b->send(wd);
        wd.withdrawn.clear();
    };
    for (size_t i = 0; i < used; ++i) {
        wd.withdrawn.push_back(in.probe_nets[i]);
        if (wd.withdrawn.size() == kWithdrawsPerUpdate) flush();
    }
    wd.withdrawn.push_back(warm);
    flush();
    s.run_until([&] { return s.fib_size() == expected.size(); }, 30s);
    p.mismatches += fib_mismatches(s, expected);
    p.ok = true;
    return p;
}

}  // namespace

Result run_bgp_feed(const Options& o) {
    Result r;
    r.workload = "bgp_feed";
    const FeedInputs in = make_inputs(o.seed);
    const size_t n = in.feed_table.size();

    const auto deadline = SteadyClock::now() +
                          std::chrono::duration_cast<SteadyClock::duration>(
                              std::chrono::duration<double>(o.seconds));
    FeedPass u = run_pass(o, in, false, nullptr, nullptr, deadline);
    r.attempted += u.attempted;
    r.failed += u.failed;
    r.complete = r.complete && u.ok;
    r.oracle_mismatches += u.mismatches;

    const double feed_rps = u.fib_s > 0 ? static_cast<double>(n) / u.fib_s : 0;
    r.name("throughput_per_s", feed_rps, "1/s");
    r.name("latency_p90_ms", u.probe_ms.percentile(90), "ms");
    r.name("feed_routes_per_s", feed_rps, "1/s");
    r.name("update_p50_ms", u.probe_ms.median(), "ms");
    r.name("update_p99_ms", u.probe_ms.percentile(99), "ms");
    r.name("rss_bytes_per_route", u.rss_per_route, "B");
    r.name("loc_rib_full_s", u.loc_rib_s, "s");
    r.name("fib_full_s", u.fib_s, "s");
    r.notes["probes"] = std::to_string(u.probe_ms.count());
    r.notes["probes_beyond_p99"] = std::to_string(u.probe_ms.beyond(99));

    if (!o.trace) {
        r.set("setup_s", u.setup_s, "s");
        r.set("latency_p50_ms", u.probe_ms.median(), "ms");
        return r;
    }

    // ---- traced pass ---------------------------------------------------------
    HandleLedger rib_push, fea_push;
    telemetry::set_enabled(true);
    FeedPass t =
        run_pass(o, in, true, &rib_push, &fea_push, SteadyClock::now());
    telemetry::set_enabled(false);
    r.attempted += t.attempted;
    r.failed += t.failed;
    r.complete = r.complete && t.ok;
    r.oracle_mismatches += t.mismatches;

    // ---- replays ---------------------------------------------------------------
    const auto hop1 = wire_batches(rib_push.captured, true);
    const auto hop2 = wire_batches(fea_push.captured, false);
    const CodecCost c1 = replay_codec(hop1);
    const CodecCost c2 = replay_codec(hop2);
    const double rib_ns = replay_rib_ns_per_route(hop1, "ebgp");
    const double fea_ns = replay_fea_ns_per_route(hop2);
    const double decode_ns = replay_update_decode_ns_per_route(in.feed);
    const double bgp_ns = replay_bgp_ns_per_route(in.feed, n);
    // A representative BGP -> RIB call: the first captured batch's frame.
    xrl::XrlArgs bulk_args;
    bulk_args.add("protocol", std::string("ebgp"))
        .add("routes", hop1.empty() ? std::string() : hop1.front().encode());
    const IpcCost ipc = replay_ipc("rib/1.0/add_routes_bulk", bulk_args,
                                   xrl::XrlArgs());
    const double rtt_us = replay_call_us(bulk_args);

    auto routes_of = [](const std::vector<stage::RouteBatch4>& v) {
        size_t k = 0;
        for (const auto& b : v) k += b.size();
        return static_cast<double>(k);
    };
    const double hop1_routes = routes_of(hop1);
    const double hop2_routes = routes_of(hop2);
    const double dn = static_cast<double>(n);
    const CounterSnapshot load = t.c_fib - t.c0;
    const CounterSnapshot drain = t.c_fib - t.c_loc_rib;

    r.set("bgp.update_decode_ns_per_route", decode_ns, "ns");
    r.set("bgp.pipeline_ns_per_route", bgp_ns, "ns");
    r.set("bgp.loc_rib_full_s", u.loc_rib_s, "s");
    r.set("bgp.rib_calls", static_cast<double>(rib_push.calls), "count");
    r.set("bgp.routes_per_rib_call",
          rib_push.calls ? static_cast<double>(rib_push.routes) /
                               static_cast<double>(rib_push.calls)
                         : 0,
          "count");
    r.set("bgp.rib_push_self_us", rib_push.self_s * 1e6, "us");
    r.set("stage.batch_encode_ns_per_route", c1.encode_ns_per_route, "ns");
    r.set("stage.batch_decode_ns_per_route", c1.decode_ns_per_route, "ns");
    r.set("stage.batch_bytes_per_route", c1.bytes_per_route, "B");
    r.set("stage.adds_per_route", static_cast<double>(load.stage_adds) / dn,
          "count");
    r.set("stage.deletes_per_route",
          static_cast<double>(load.stage_deletes) / dn, "count");
    r.set("rib.push_batch_ns_per_route", rib_ns, "ns");
    r.set("rib.drain_after_loc_rib_s", u.fib_s - u.loc_rib_s, "s");
    r.set("rib.fea_push_self_us", fea_push.self_s * 1e6, "us");
    r.set("rib.fea_calls", static_cast<double>(fea_push.calls), "count");
    r.set("fea.apply_batch_ns_per_route", fea_ns, "ns");
    r.set("fea.fib_writes_per_route_change",
          static_cast<double>(t.fib_writes) / dn, "ratio");
    r.set("xrl.args_encode_ns", ipc.args_encode_ns, "ns");
    r.set("xrl.args_decode_ns", ipc.args_decode_ns, "ns");
    r.set("ipc.request_encode_ns", ipc.request_encode_ns, "ns");
    r.set("ipc.frame_decode_ns", ipc.frame_decode_ns, "ns");
    r.set("ipc.call_rtt_us", rtt_us, "us");
    r.set("ipc.bytes_per_route", static_cast<double>(load.wire_bytes) / dn,
          "B");
    r.set("ipc.bytes_per_call",
          load.xrl_calls ? static_cast<double>(load.wire_bytes) /
                               static_cast<double>(load.xrl_calls)
                         : 0,
          "B");
    r.set("ipc.calls", static_cast<double>(load.xrl_calls), "count");
    r.set("ipc.errors", static_cast<double>(load.xrl_errors), "count");
    r.set("ipc.retries", static_cast<double>(load.retries), "count");
    r.set("ipc.attempt_timeouts", static_cast<double>(load.attempt_timeouts),
          "count");
    r.set("ev.cpu_busy_frac.feed_to_loc_rib", t.to_loc_rib.busy_frac(),
          "ratio");
    r.set("ev.cpu_busy_frac.feed_drain", t.drain.busy_frac(), "ratio");
    r.set("ev.cpu_busy_frac.probes", t.probe_span.busy_frac(), "ratio");
    r.set("ev.fd_dispatches_per_route",
          static_cast<double>(load.fd_dispatches) / dn, "count");
    r.set("ev.task_slices_per_route",
          static_cast<double>(load.task_slices) / dn, "count");
    r.set("net.attr_intern_hit_frac", t.intern_hit_frac, "ratio");

    // ---- ledger: the load phase, first UPDATE to FIB full ------------------
    const double wall = t.fib_s;
    const double cpu = t.to_loc_rib.cpu_s + t.drain.cpu_s;
    const double l_bgp = bgp_ns * dn * 1e-9;
    const double l_handles = rib_push.self_s + fea_push.self_s;
    const double l_codec =
        (c1.decode_ns_per_route * hop1_routes +
         c2.decode_ns_per_route * hop2_routes) * 1e-9;
    const double l_rib = rib_ns * hop1_routes * 1e-9;
    const double l_fea = fea_ns * hop2_routes * 1e-9;
    const double l_ipc = rtt_us * 1e-6 * static_cast<double>(load.xrl_calls);
    const double l_wait = std::max(0.0, wall - cpu);
    auto share = [](double part, double whole) {
        return whole > 0 ? part / whole : 0;
    };
    r.set("ledger.bgp_frac", share(l_bgp, wall), "ratio");
    r.set("ledger.handles_frac", share(l_handles, wall), "ratio");
    r.set("ledger.codec_frac", share(l_codec, wall), "ratio");
    r.set("ledger.rib_frac", share(l_rib, wall), "ratio");
    r.set("ledger.fea_frac", share(l_fea, wall), "ratio");
    r.set("ledger.ipc_frac", share(l_ipc, wall), "ratio");
    r.set("ledger.wait_frac", share(l_wait, wall), "ratio");
    r.set("ledger.unattributed_frac",
          share(wall - (l_bgp + l_handles + l_codec + l_rib + l_fea + l_ipc +
                        l_wait),
                wall),
          "ratio");

    // The drain: loc-RIB full to FIB full. BGP is done; what is left is
    // the RIB and FEA working off what BGP queued, one call at a time.
    const double dwall = t.drain.wall_s;
    const double rib_left =
        dn - static_cast<double>(t.rib_routes_at_loc_rib);
    const double fib_left =
        dn - static_cast<double>(t.fib_routes_at_loc_rib);
    const double d_handles = (rib_push.self_s - t.rib_push_self_at_loc_rib) +
                             (fea_push.self_s - t.fea_push_self_at_loc_rib);
    const double d_codec = (c1.decode_ns_per_route * rib_left +
                            c2.decode_ns_per_route * fib_left) * 1e-9;
    const double d_rib = rib_ns * rib_left * 1e-9;
    const double d_fea = fea_ns * fib_left * 1e-9;
    const double d_ipc = rtt_us * 1e-6 * static_cast<double>(drain.xrl_calls);
    const double d_wait = std::max(0.0, dwall - t.drain.cpu_s);
    r.set("ledger.drain.handles_frac", share(d_handles, dwall), "ratio");
    r.set("ledger.drain.codec_frac", share(d_codec, dwall), "ratio");
    r.set("ledger.drain.rib_frac", share(d_rib, dwall), "ratio");
    r.set("ledger.drain.fea_frac", share(d_fea, dwall), "ratio");
    r.set("ledger.drain.ipc_frac", share(d_ipc, dwall), "ratio");
    r.set("ledger.drain.wait_frac", share(d_wait, dwall), "ratio");
    r.set("ledger.drain.unattributed_frac",
          share(dwall - (d_handles + d_codec + d_rib + d_fea + d_ipc + d_wait),
                dwall),
          "ratio");
    r.set("ledger.drain.calls", static_cast<double>(drain.xrl_calls),
          "count");

    r.set("trace.overhead_frac", share(t.fib_s - u.fib_s, u.fib_s), "ratio");
    r.notes["hop1_routes"] = std::to_string(static_cast<size_t>(hop1_routes));
    r.notes["hop2_routes"] = std::to_string(static_cast<size_t>(hop2_routes));
    r.notes["codec_hop2_encode_ns_per_route"] =
        std::to_string(c2.encode_ns_per_route);
    r.notes["ipc_response_marshal_ns"] =
        std::to_string(ipc.response_encode_ns + ipc.response_decode_ns);
    return r;
}

}  // namespace perfbench
