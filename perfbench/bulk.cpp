// bulk_download: 500,000 routes as 8192-entry RouteBatches through
// XrlRibHandle::push_batch, two stcp hops into the RIB stages and
// Fea::apply_batch, skipping the BGP stages. Then an open-loop churn
// replay of 64-route bursts plus one sentinel at two fixed rates, each
// burst timed from when it was due.
#include <malloc.h>

#include <cstdio>
#include <random>

#include "replay.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace xrp;
using namespace std::chrono_literals;

namespace {

constexpr size_t kDownloadRoutes = 500000;
constexpr size_t kChunk = 8192;
constexpr size_t kBurstRoutes = 64;
constexpr auto kBurstTimeout = 5s;

// Churn nexthops, all inside the static covering route.
const IPv4 kChurnNexthops[] = {
    IPv4::must_parse("192.0.2.1"), IPv4::must_parse("192.0.2.2"),
    IPv4::must_parse("192.0.2.3"), IPv4::must_parse("192.0.2.4")};

struct Rate {
    const char* name;
    double bursts_per_s;
};
constexpr Rate kLight{"light", 50};
constexpr Rate kHeavy{"heavy", 200};

stage::Route4 make_route(const IPv4Net& net, IPv4 nh) {
    stage::Route4 r;
    r.net = net;
    r.nexthop = nh;
    r.protocol = "ebgp";
    r.igp_metric = 1;
    return r;
}

struct Burst {
    std::chrono::nanoseconds offset;  // due time from the phase start
    stage::RouteBatch4 batch;         // kBurstRoutes picks + the sentinel
    IPv4Net sentinel;
};

struct BulkInputs {
    std::vector<IPv4Net> nets;
    std::vector<stage::RouteBatch4> download;
    std::vector<Burst> light, heavy;
    // Expected table after the download and after each churn phase,
    // excluding the routes present before the download.
    Table after_download, after_light, after_heavy;
    size_t light_changes = 0, heavy_changes = 0;
};

// Distinct /24s in 11.0.0.0 - 26.255.255.0 (2^20 slots), in a seeded
// order: an odd multiplier makes i -> a*i+b a permutation mod 2^20.
std::vector<IPv4Net> download_nets(uint32_t seed, size_t n) {
    std::mt19937 rng(seed);
    const uint32_t a = (rng() | 1u) & 0xfffffu;
    const uint32_t b = rng() & 0xfffffu;
    std::vector<IPv4Net> nets;
    nets.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        const uint32_t slot = (a * i + b) & 0xfffffu;
        nets.emplace_back(IPv4((11u << 24) + (slot << 8)), 24);
    }
    return nets;
}

std::vector<Burst> make_bursts(std::mt19937& rng, const Rate& rate,
                               size_t count, size_t sentinel_base,
                               const std::vector<IPv4Net>& nets,
                               std::vector<uint8_t>& nh_index, Table& table,
                               size_t& changes) {
    std::vector<Burst> out;
    const double interval_ns = 1e9 / rate.bursts_per_s;
    std::uniform_real_distribution<double> jitter(0, 0.5);
    for (size_t k = 0; k < count; ++k) {
        Burst b;
        // Fixed rate with a seeded jitter of up to half an interval, so
        // due times stay in order.
        b.offset = std::chrono::nanoseconds(static_cast<int64_t>(
            (static_cast<double>(k) + jitter(rng)) * interval_ns));
        b.batch.reserve(kBurstRoutes + 1);
        for (size_t j = 0; j < kBurstRoutes; ++j) {
            const size_t pick = rng() % nets.size();
            nh_index[pick] = static_cast<uint8_t>(
                (nh_index[pick] + 1 + rng() % 3) % std::size(kChurnNexthops));
            const IPv4 nh = kChurnNexthops[nh_index[pick]];
            b.batch.add(make_route(nets[pick], nh));
            table[nets[pick]] = nh;
            ++changes;
        }
        // Sentinels: fresh /24s in 172.16.0.0/12, installed last.
        b.sentinel = IPv4Net(
            IPv4(0xac100000u + (static_cast<uint32_t>(sentinel_base + k) << 8)),
            24);
        b.batch.add(make_route(b.sentinel, kNexthopA));
        table[b.sentinel] = kNexthopA;
        ++changes;
        out.push_back(std::move(b));
    }
    return out;
}

BulkInputs make_inputs(uint32_t seed, double seconds) {
    BulkInputs in;
    in.nets = download_nets(seed, kDownloadRoutes);
    stage::RouteBatch4 b;
    for (const auto& net : in.nets) {
        b.add(make_route(net, kNexthopA));
        in.after_download[net] = kNexthopA;
        if (b.size() == kChunk) {
            in.download.push_back(std::move(b));
            b = stage::RouteBatch4();
        }
    }
    if (!b.empty()) in.download.push_back(std::move(b));

    // The same number of bursts at each rate: at least 1000, enough for a
    // p99 with >= 10 samples beyond it (the light phase lasts 20 s), and
    // `seconds` of light churn on longer runs.
    const size_t bursts = std::max<size_t>(
        1000, static_cast<size_t>(kLight.bursts_per_s * seconds));
    std::mt19937 rng(seed * 2654435761u + 17);
    std::vector<uint8_t> nh_index(in.nets.size(), 0);
    in.after_light = in.after_download;
    in.light = make_bursts(rng, kLight, bursts, 0, in.nets, nh_index,
                           in.after_light, in.light_changes);
    in.after_heavy = in.after_light;
    in.heavy = make_bursts(rng, kHeavy, bursts, bursts, in.nets, nh_index,
                           in.after_heavy, in.heavy_changes);
    return in;
}

struct ChurnResult {
    Samples latency_ms;  // completion - due
    Samples late_ms;     // sent - due
    Span span;
    uint64_t timed_out = 0;
};

// Replays `bursts` open loop: a timer sends each burst when it falls due,
// whatever the state of earlier ones; a burst completes when its sentinel
// reaches the FIB (the pipeline is FIFO, so oldest first).
ChurnResult run_churn(RouteStack& s, const std::vector<Burst>& bursts) {
    ChurnResult c;
    ev::EventLoop& loop = s.plexus.loop;
    const ev::TimePoint start = loop.now() + 10ms;
    std::vector<ev::TimePoint> due(bursts.size());
    for (size_t k = 0; k < bursts.size(); ++k) due[k] = start + bursts[k].offset;
    size_t next = 0, head = 0;
    ev::Timer timer;
    std::function<void()> send_due = [&] {
        const ev::TimePoint now = loop.now();
        while (next < bursts.size() && due[next] <= now) {
            c.late_ms.add(
                std::chrono::duration<double, std::milli>(now - due[next])
                    .count());
            s.rib_handle->push_batch(stage::RouteBatch4(bursts[next].batch));
            ++next;
        }
        if (next < bursts.size()) timer = loop.set_timer_at(due[next], send_due);
    };
    c.span = Span{};
    timer = loop.set_timer_at(due[0], send_due);
    const auto limit = std::chrono::duration_cast<std::chrono::milliseconds>(
                           bursts.back().offset) +
                       30s;
    loop.run_until(
        [&] {
            const ev::TimePoint now = loop.now();
            while (head < next) {
                if (s.fea.fib().find_exact(bursts[head].sentinel) != nullptr) {
                    c.latency_ms.add(
                        std::chrono::duration<double, std::milli>(now -
                                                                  due[head])
                            .count());
                } else if (now - due[head] > kBurstTimeout) {
                    ++c.timed_out;
                } else {
                    break;
                }
                ++head;
            }
            return head == bursts.size();
        },
        limit);
    c.span.stop();
    c.timed_out += bursts.size() - head;
    return c;
}

struct BulkPass {
    bool ok = false;
    double setup_s = 0;
    double download_s = 0;
    double rss_per_route = 0;
    // Copying input batches before each download push (traced pass only).
    double copy_s = 0;
    Span download;
    ChurnResult light, heavy;
    uint64_t attempted = 0, failed = 0, mismatches = 0;
    uint64_t fib_writes = 0;
    CounterSnapshot c0, c_download;
};

// One stack: set-up, the download and both churn phases, each followed
// by an oracle check.
BulkPass run_pass(const Options& o, const BulkInputs& in, bool traced,
                  HandleLedger* rib_push, HandleLedger* fea_push) {
    BulkPass p;
    StackTrace trace;
    if (traced) trace = StackTrace{rib_push, fea_push};

    std::vector<double> setups;
    std::unique_ptr<RouteStack> stack;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        stack.reset();
        cpu_rotation().next();
        const auto t0 = SteadyClock::now();
        stack = std::make_unique<RouteStack>(false, trace);
        if (!stack->run_until(
                [&] {
                    return stack->fea.fib().find_exact(kPeeringNet) != nullptr;
                },
                10s)) {
            std::fprintf(stderr, "bulk_download: stack never became ready\n");
            return p;
        }
        setups.push_back(seconds_since(t0));
    }
    p.setup_s = median_of(setups);
    RouteStack& s = *stack;
    const ev::Timer rotate = s.plexus.loop.set_periodic(kRotatePeriod, [] {
        cpu_rotation().next();
        return true;
    });

    const Table base = snapshot_fib(s);
    auto with_base = [&](const Table& t) {
        Table e = base;
        for (const auto& [net, nh] : t) e[net] = nh;
        return e;
    };
    if (traced) {
        *rib_push = HandleLedger{};
        *fea_push = HandleLedger{};
        telemetry::Registry::global().zero();
        p.c0 = CounterSnapshot::take();
    }
    const uint64_t writes0 = s.fea.fib_adds() + s.fea.fib_deletes();
    malloc_trim(0);
    const double rss0 = max_rss_bytes();

    // ---- download -------------------------------------------------------------
    const size_t n = in.after_download.size();
    const size_t fib0 = s.fib_size();
    const auto t_dl = SteadyClock::now();
    p.download = Span{};
    size_t pushed = 0;
    for (const auto& b : in.download) {
        const auto tc = SteadyClock::now();
        stage::RouteBatch4 copy = b;
        if (traced) p.copy_s += seconds_since(tc);
        pushed += copy.size();
        s.rib_handle->push_batch(std::move(copy));
        // Keep at most eight chunks in flight so send queues stay bounded.
        s.run_until([&] { return s.fib_size() + 8 * kChunk >= fib0 + pushed; },
                    60s);
    }
    if (!s.run_until([&] { return s.fib_size() >= fib0 + n; }, 120s)) {
        std::fprintf(stderr, "bulk_download: FIB never filled (%zu/%zu)\n",
                     s.fib_size() - fib0, n);
        return p;
    }
    p.download.stop();
    p.download_s = seconds_since(t_dl);
    p.rss_per_route = (max_rss_bytes() - rss0) / static_cast<double>(n);
    p.attempted += n;
    if (traced) {
        p.c_download = CounterSnapshot::take();
        fea_push->capture = false;
        rib_push->capture = false;
    }
    Table expected = with_base(in.after_download);
    if (o.corrupt_oracle && !expected.empty())
        expected.begin()->second = IPv4::must_parse("203.0.113.99");
    p.mismatches += fib_mismatches(s, expected);

    // ---- churn ----------------------------------------------------------------
    p.light = run_churn(s, in.light);
    p.attempted += in.light.size();
    p.failed += p.light.timed_out;
    p.mismatches += fib_mismatches(s, with_base(in.after_light));
    p.heavy = run_churn(s, in.heavy);
    p.attempted += in.heavy.size();
    p.failed += p.heavy.timed_out;
    p.mismatches += fib_mismatches(s, with_base(in.after_heavy));
    p.fib_writes = s.fea.fib_adds() + s.fea.fib_deletes() - writes0;
    p.ok = true;
    return p;
}

}  // namespace

Result run_bulk_download(const Options& o) {
    Result r;
    r.workload = "bulk_download";
    const BulkInputs in = make_inputs(o.seed, o.seconds);
    const size_t n = in.after_download.size();

    BulkPass u = run_pass(o, in, false, nullptr, nullptr);
    r.attempted += u.attempted;
    r.failed += u.failed;
    r.complete = r.complete && u.ok;
    r.oracle_mismatches += u.mismatches;

    const double dl_rps =
        u.download_s > 0 ? static_cast<double>(n) / u.download_s : 0;
    // The light rate is the end-to-end figure. At 200 bursts/s each burst's
    // ~5 ms of CPU leaves the loop nearly saturated, so the heavy figures
    // measure queueing and swing with the host's speed.
    Samples& light = u.light.latency_ms;
    r.name("throughput_per_s", dl_rps, "1/s");
    r.name("latency_p90_ms", light.percentile(90), "ms");
    r.name("download_routes_per_s", dl_rps, "1/s");
    r.name("churn_light_p50_ms", u.light.latency_ms.median(), "ms");
    r.name("churn_light_p99_ms", u.light.latency_ms.percentile(99), "ms");
    r.name("churn_heavy_p50_ms", u.heavy.latency_ms.median(), "ms");
    r.name("churn_heavy_p99_ms", u.heavy.latency_ms.percentile(99), "ms");
    r.name("rss_bytes_per_route", u.rss_per_route, "B");
    r.notes["bursts_light"] = std::to_string(u.light.latency_ms.count());
    r.notes["bursts_heavy"] = std::to_string(u.heavy.latency_ms.count());

    if (!o.trace) {
        r.set("setup_s", u.setup_s, "s");
        r.set("latency_p50_ms", light.median(), "ms");
        return r;
    }

    // ---- traced pass ---------------------------------------------------------
    HandleLedger rib_push, fea_push;
    telemetry::set_enabled(true);
    BulkPass t = run_pass(o, in, true, &rib_push, &fea_push);
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
    const CounterSnapshot dl = t.c_download - t.c0;
    const double changes = dn + static_cast<double>(in.light_changes +
                                                    in.heavy_changes);

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
    r.set("stage.adds_per_route", static_cast<double>(dl.stage_adds) / dn,
          "count");
    r.set("stage.deletes_per_route",
          static_cast<double>(dl.stage_deletes) / dn, "count");
    r.set("rib.push_batch_ns_per_route", rib_ns, "ns");
    r.set("rib.fea_push_self_us", fea_push.self_s * 1e6, "us");
    r.set("rib.fea_calls", static_cast<double>(fea_push.calls), "count");
    r.set("fea.apply_batch_ns_per_route", fea_ns, "ns");
    r.set("fea.fib_writes_per_route_change",
          static_cast<double>(t.fib_writes) / changes, "ratio");
    r.set("xrl.args_encode_ns", ipc.args_encode_ns, "ns");
    r.set("xrl.args_decode_ns", ipc.args_decode_ns, "ns");
    r.set("ipc.request_encode_ns", ipc.request_encode_ns, "ns");
    r.set("ipc.frame_decode_ns", ipc.frame_decode_ns, "ns");
    r.set("ipc.call_rtt_us", rtt_us, "us");
    r.set("ipc.bytes_per_route", static_cast<double>(dl.wire_bytes) / dn, "B");
    r.set("ipc.bytes_per_call",
          dl.xrl_calls ? static_cast<double>(dl.wire_bytes) /
                             static_cast<double>(dl.xrl_calls)
                       : 0,
          "B");
    r.set("ipc.calls", static_cast<double>(dl.xrl_calls), "count");
    r.set("ipc.errors", static_cast<double>(dl.xrl_errors), "count");
    r.set("ipc.retries", static_cast<double>(dl.retries), "count");
    r.set("ipc.attempt_timeouts", static_cast<double>(dl.attempt_timeouts),
          "count");
    r.set("ev.cpu_busy_frac.download", t.download.busy_frac(), "ratio");
    r.set("ev.cpu_busy_frac.churn_light", t.light.span.busy_frac(), "ratio");
    r.set("ev.cpu_busy_frac.churn_heavy", t.heavy.span.busy_frac(), "ratio");
    r.set("ev.fd_dispatches_per_route",
          static_cast<double>(dl.fd_dispatches) / dn, "count");
    r.set("ev.task_slices_per_route", static_cast<double>(dl.task_slices) / dn,
          "count");
    Samples late = t.light.late_ms;
    late.add_all(t.heavy.late_ms);
    r.set("ev.gen_late_p99_ms", late.percentile(99), "ms");

    // ---- ledger: the download, first push to FIB full ---------------------
    const double wall = t.download.wall_s;
    const double l_copy = t.copy_s;
    const double l_handles = rib_push.self_s + fea_push.self_s;
    const double l_codec = (c1.decode_ns_per_route * hop1_routes +
                            c2.decode_ns_per_route * hop2_routes) * 1e-9;
    const double l_rib = rib_ns * hop1_routes * 1e-9;
    const double l_fea = fea_ns * hop2_routes * 1e-9;
    const double l_ipc = rtt_us * 1e-6 * static_cast<double>(dl.xrl_calls);
    const double l_wait = std::max(0.0, wall - t.download.cpu_s);
    auto share = [](double part, double whole) {
        return whole > 0 ? part / whole : 0;
    };
    r.set("ledger.input_copy_frac", share(l_copy, wall), "ratio");
    r.set("ledger.handles_frac", share(l_handles, wall), "ratio");
    r.set("ledger.codec_frac", share(l_codec, wall), "ratio");
    r.set("ledger.rib_frac", share(l_rib, wall), "ratio");
    r.set("ledger.fea_frac", share(l_fea, wall), "ratio");
    r.set("ledger.ipc_frac", share(l_ipc, wall), "ratio");
    r.set("ledger.wait_frac", share(l_wait, wall), "ratio");
    r.set("ledger.unattributed_frac",
          share(wall - (l_copy + l_handles + l_codec + l_rib + l_fea +
                        l_ipc + l_wait),
                wall),
          "ratio");
    r.set("trace.overhead_frac", share(t.download_s - u.download_s,
                                       u.download_s),
          "ratio");
    r.notes["codec_hop2_encode_ns_per_route"] =
        std::to_string(c2.encode_ns_per_route);
    return r;
}

}  // namespace perfbench
