// Telemetry tests: registry semantics, histogram percentile math, the
// optional trace trailer on the wire (backward compatible), trace
// propagation across all three XRL protocol families, and the paper's
// Figures 10-12 chain — BGP -> RIB -> FEA reassembled as one
// causally-linked trace carrying all eight profiling points.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>

#include "ipc/router.hpp"
#include "ipc/wire.hpp"
#include "rtrmgr/rtrmgr.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

using namespace xrp;
using namespace std::chrono_literals;
using telemetry::Journal;
using telemetry::JournalEvent;
using telemetry::JournalKind;
using telemetry::Registry;
using telemetry::TraceContext;
using telemetry::TraceScope;
using xrl::Xrl;
using xrl::XrlArgs;
using xrl::XrlError;

namespace {

// Tracing tests share the process-global journal and the trace root
// switch; scope the switch and start from an empty ring.
class TracingOn {
public:
    TracingOn() {
        Journal::global().clear();
        telemetry::set_tracing_enabled(true);
    }
    ~TracingOn() { telemetry::set_tracing_enabled(false); }
};

// The recorded events of one trace, in append order.
std::vector<JournalEvent> trace_events(uint64_t trace_id) {
    std::vector<JournalEvent> out;
    for (JournalEvent& e : Journal::global().events())
        if (e.trace == trace_id) out.push_back(std::move(e));
    return out;
}

// The whole ring, for failure messages.
std::string dump() { return Journal::global().to_jsonl(); }

// A two-tier service: "front" forwards every go() to "leaf" on "back",
// so one client call produces a nested send — the shape that exercises
// context inheritance through a dispatch.
class ChainServers {
public:
    explicit ChainServers(ipc::Plexus& plexus, bool tcp = false,
                          bool udp = false)
        : front_(plexus, "front", true), back_(plexus, "back", true) {
        back_.add_handler("chain/1.0/leaf",
                          [](const XrlArgs&, XrlArgs&) {
                              return XrlError::okay();
                          });
        front_.add_handler("chain/1.0/go", [this](const XrlArgs&, XrlArgs&) {
            front_.call_oneway(Xrl::generic("back", "chain", "1.0", "leaf",
                                            XrlArgs()));
            return XrlError::okay();
        });
        if (tcp) {
            front_.enable_tcp();
            back_.enable_tcp();
        }
        if (udp) {
            front_.enable_udp();
            back_.enable_udp();
        }
        EXPECT_TRUE(front_.finalize());
        EXPECT_TRUE(back_.finalize());
    }
    ipc::XrlRouter& front() { return front_; }

private:
    ipc::XrlRouter front_;
    ipc::XrlRouter back_;
};

// Calls front/chain/1.0/go with the given family forced on the client
// AND on front's nested send, then waits for both tiers to settle.
void run_chain(ipc::Plexus& plexus, ipc::XrlRouter& client,
               ChainServers& servers, const std::string& family) {
    client.set_preferred_family(family);
    servers.front().set_preferred_family(family);
    bool done = false;
    client.send(Xrl::generic("front", "chain", "1.0", "go", XrlArgs()),
                [&](const XrlError& err, const XrlArgs&) {
                    EXPECT_TRUE(err.ok()) << err.str();
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 5s);
    ASSERT_TRUE(done);
    // The nested send's reply may still be in flight after go() returns.
    plexus.loop.run_for(200ms);
}

// Asserts the journal holds exactly one trace linking go() and leaf()
// dispatches over `family`, with the hop count deepening downstream.
void expect_chain_trace(const std::string& family) {
    uint64_t id = 0;
    for (const JournalEvent& e : Journal::global().events())
        if (e.kind == JournalKind::kDispatch &&
            e.subject.find("chain/1.0/leaf") != std::string::npos) {
            id = e.trace;
            break;
        }
    ASSERT_NE(id, 0u) << "no leaf dispatch recorded:\n" << dump();

    int go_hop = -1;
    int leaf_hop = -1;
    for (const JournalEvent& e : trace_events(id)) {
        EXPECT_EQ(e.detail, family);
        if (e.kind != JournalKind::kDispatch) continue;
        if (e.subject.find("chain/1.0/go") != std::string::npos)
            go_hop = static_cast<int>(e.hop);
        if (e.subject.find("chain/1.0/leaf") != std::string::npos)
            leaf_hop = static_cast<int>(e.hop);
    }
    ASSERT_GE(go_hop, 0) << dump();
    ASSERT_GE(leaf_hop, 0) << dump();
    EXPECT_LT(go_hop, leaf_hop);
}

// r1 and r2 with one BGP session between them, established untraced. A
// route r1 originates arrives at r2's BGP, which sends it to r2's RIB over
// XRLs, which forwards it to r2's FEA over XRLs.
struct BgpPair {
    ev::VirtualClock clock;
    ev::EventLoop loop{clock};
    rtrmgr::Router r1{"r1", loop};
    rtrmgr::Router r2{"r2", loop};
    bool configured = false;

    BgpPair() {
        std::string err;
        configured = r1.configure(R"(
            interfaces { eth0 { address 192.0.2.1/24; } }
            protocols {
                bgp { local-as 1777; bgp-id 192.0.2.1; }
            }
        )",
                                  &err) &&
                     r2.configure(R"(
            interfaces { eth0 { address 192.0.2.2/24; } }
            protocols {
                static { route 192.0.2.0/24 { nexthop 192.0.2.2; } }
                bgp { local-as 3561; bgp-id 192.0.2.2; }
            }
        )",
                                  &err);
        EXPECT_TRUE(configured) << err;
        if (!configured) return;
        rtrmgr::Router::connect_bgp(r1, r2);
        loop.run_for(5s);
    }

    // Originates 10.99.0.0/16 at r1; true once r2's FEA forwards it.
    bool propagate() {
        if (r1.bgp() == nullptr) return false;
        r1.bgp()->originate(net::IPv4Net::must_parse("10.99.0.0/16"),
                            net::IPv4::must_parse("192.0.2.1"));
        return loop.run_until(
            [&] {
                return r2.fea().lookup(net::IPv4::must_parse("10.99.1.2")) !=
                       nullptr;
            },
            60s);
    }
};

}  // namespace

// ---- registry ----------------------------------------------------------

TEST(Metrics, HandlesAreStableAndGated) {
    Registry reg;
    telemetry::Counter* c = reg.counter("t_calls_total");
    EXPECT_EQ(c, reg.counter("t_calls_total"));
    c->inc();
    c->inc(4);
    EXPECT_EQ(c->value(), 5u);

    reg.set_enabled(false);
    c->inc(100);  // disabled: the handle stays valid but counts nothing
    EXPECT_EQ(c->value(), 5u);
    reg.set_enabled(true);
    c->inc();
    EXPECT_EQ(c->value(), 6u);

    telemetry::Gauge* g = reg.gauge("t_depth");
    g->set(7);
    g->add(2);
    g->sub(4);
    EXPECT_EQ(g->value(), 5);

    reg.zero();
    EXPECT_EQ(c->value(), 0u);  // zero() keeps handles valid
    EXPECT_EQ(g->value(), 0);
}

TEST(Metrics, KindCollisionIsSurvivable) {
    Registry reg;
    telemetry::Counter* c = reg.counter("t_mixed");
    telemetry::Gauge* g = reg.gauge("t_mixed");
    ASSERT_NE(c, nullptr);
    ASSERT_NE(g, nullptr);
    c->inc(3);
    g->set(-2);
    EXPECT_EQ(c->value(), 3u);
    EXPECT_EQ(g->value(), -2);
}

TEST(Metrics, MetricKeyFormatsLabels) {
    EXPECT_EQ(telemetry::metric_key("plain", {}), "plain");
    EXPECT_EQ(telemetry::metric_key(
                  "xrl_sends_total", {{"family", "inproc"}, {"dir", "tx"}}),
              "xrl_sends_total{family=\"inproc\",dir=\"tx\"}");
    EXPECT_EQ(telemetry::metric_key("m", {{"k", "a\"b"}}),
              "m{k=\"a\\\"b\"}");
}

TEST(Metrics, HistogramPercentilesFromLogBuckets) {
    Registry reg;
    telemetry::Histogram* h = reg.histogram("t_lat_ns");
    // 90 observations around 1000ns (bucket [512, 1024)), 10 around 1ms
    // (bucket [524288, 1048576)).
    for (int i = 0; i < 90; ++i) h->observe_always(ev::Duration(1000));
    for (int i = 0; i < 10; ++i) h->observe_always(ev::Duration(1000000));
    EXPECT_EQ(h->count(), 100u);
    EXPECT_EQ(h->sum_ns(), 90u * 1000 + 10u * 1000000);
    // Quantiles report the upper edge of the crossing bucket.
    EXPECT_EQ(h->p50_ns(), 1023u);
    EXPECT_EQ(h->p95_ns(), 1048575u);
    EXPECT_EQ(h->p99_ns(), 1048575u);

    // Non-positive durations land in bucket 0 and never touch the sum.
    h->observe_always(ev::Duration(-5));
    EXPECT_EQ(h->bucket(0), 1u);
    EXPECT_EQ(h->sum_ns(), 90u * 1000 + 10u * 1000000);
}

TEST(Metrics, ExpositionContainsAllLines) {
    Registry reg;
    reg.counter(telemetry::metric_key("t_c", {{"k", "v"}}))->inc(2);
    reg.histogram("t_h")->observe_always(ev::Duration(100));
    std::string text = reg.expose();
    EXPECT_NE(text.find("t_c{k=\"v\"} 2\n"), std::string::npos);
    EXPECT_NE(text.find("t_h_count 1\n"), std::string::npos);
    EXPECT_NE(text.find("t_h_sum_ns 100\n"), std::string::npos);
    EXPECT_NE(text.find("t_h_p50_ns"), std::string::npos);
    EXPECT_EQ(reg.expose_one("t_h").find("t_h_count 1\n"), 0u);
    EXPECT_EQ(reg.expose_one("no_such"), "");
}

// ---- wire format -------------------------------------------------------

TEST(Wire, RequestWithoutTrailerStillDecodes) {
    // The pre-trailer format: no trace context on the sender side means
    // not one extra byte on the wire.
    ipc::RequestFrame f;
    f.seq = 5;
    f.method = "rib/1.0/add_route#k";
    f.args.add("metric", uint32_t{1});
    std::vector<uint8_t> buf;
    ipc::encode_request(f, buf);

    ipc::RequestFrame req;
    ipc::ResponseFrame resp;
    auto kind = ipc::decode_frame(buf.data(), buf.size(), req, resp);
    ASSERT_TRUE(kind.has_value());
    EXPECT_EQ(*kind, ipc::FrameKind::kRequest);
    EXPECT_FALSE(req.trace.valid());
    EXPECT_EQ(req.method, f.method);
}

TEST(Wire, TraceTrailerRoundTrips) {
    ipc::RequestFrame f;
    f.seq = 6;
    f.method = "fea/1.0/add_route4#k";
    f.trace = TraceContext{0xdeadbeefcafe, 3};
    std::vector<uint8_t> plain_len;
    {
        ipc::RequestFrame p = f;
        p.trace = {};
        std::vector<uint8_t> buf;
        ipc::encode_request(p, buf);
        plain_len = buf;
    }
    std::vector<uint8_t> buf;
    ipc::encode_request(f, buf);
    EXPECT_EQ(buf.size(), plain_len.size() + 13);  // marker + u64 + u32

    ipc::RequestFrame req;
    ipc::ResponseFrame resp;
    auto kind = ipc::decode_frame(buf.data(), buf.size(), req, resp);
    ASSERT_TRUE(kind.has_value());
    EXPECT_EQ(req.trace.trace_id, 0xdeadbeefcafeu);
    EXPECT_EQ(req.trace.hop, 3u);
}

TEST(Wire, MalformedTailIsRejected) {
    ipc::RequestFrame f;
    f.seq = 7;
    f.method = "m";
    std::vector<uint8_t> buf;
    ipc::encode_request(f, buf);

    ipc::RequestFrame req;
    ipc::ResponseFrame resp;
    // One garbage byte after the args: neither empty nor a trailer.
    auto garbage = buf;
    garbage.push_back(0x00);
    EXPECT_FALSE(
        ipc::decode_frame(garbage.data(), garbage.size(), req, resp));

    // A full-length trailer with the wrong marker.
    auto wrong = buf;
    wrong.resize(wrong.size() + 13, 0);
    wrong[buf.size()] = 0x55;  // not 'T'
    EXPECT_FALSE(ipc::decode_frame(wrong.data(), wrong.size(), req, resp));

    // A truncated trailer.
    auto truncated = buf;
    truncated.push_back(ipc::kTraceMarker);
    truncated.push_back(0x01);
    EXPECT_FALSE(ipc::decode_frame(truncated.data(), truncated.size(), req,
                                   resp));
}

// ---- trace propagation over each protocol family -----------------------

TEST(Trace, PropagatesAcrossInproc) {
    TracingOn tracing;
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ChainServers servers(plexus);
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();
    run_chain(plexus, client, servers, "inproc");
    expect_chain_trace("inproc");
}

TEST(Trace, PropagatesAcrossTcp) {
    TracingOn tracing;
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ChainServers servers(plexus, /*tcp=*/true);
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();
    run_chain(plexus, client, servers, "stcp");
    expect_chain_trace("stcp");
}

TEST(Trace, PropagatesAcrossUdp) {
    TracingOn tracing;
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ChainServers servers(plexus, /*tcp=*/false, /*udp=*/true);
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();
    run_chain(plexus, client, servers, "sudp");
    expect_chain_trace("sudp");
}

TEST(Trace, QueuedOnewayCallKeepsCallersTrace) {
    // One-way calls to a target go out one at a time, so the second call
    // starts from the first one's completion, after the code that made it
    // has returned. It must still be sent under that caller's trace.
    TracingOn tracing;
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ipc::XrlRouter svc(plexus, "svc", true);
    int calls = 0;
    svc.add_handler("noop/1.0/noop", [&](const XrlArgs&, XrlArgs&) {
        ++calls;
        return XrlError::okay();
    });
    svc.enable_tcp();
    ASSERT_TRUE(svc.finalize());
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();
    client.set_preferred_family("stcp");

    const TraceContext callers[] = {telemetry::begin_trace(),
                                    telemetry::begin_trace()};
    for (const TraceContext& ctx : callers) {
        TraceScope scope(ctx);
        client.call_oneway(
            Xrl::generic("svc", "noop", "1.0", "noop", XrlArgs()));
    }
    ASSERT_TRUE(plexus.loop.run_until([&] { return calls == 2; }, 5s));
    for (const TraceContext& ctx : callers) {
        int sends = 0;
        int dispatches = 0;
        for (const JournalEvent& e : trace_events(ctx.trace_id)) {
            sends += e.kind == JournalKind::kSend;
            dispatches += e.kind == JournalKind::kDispatch;
        }
        EXPECT_EQ(sends, 1) << dump();
        EXPECT_EQ(dispatches, 1) << dump();
    }
}

TEST(Trace, ResponseCallbackRunsUnderTheCallersTrace) {
    // An stcp reply arrives in a later loop iteration, after the code that
    // made the call has returned. Its callback continues that code's work
    // (BGP's NexthopResolver re-emits a waiting route from one), so it
    // must run under the call's trace.
    TracingOn tracing;
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ipc::XrlRouter svc(plexus, "svc", true);
    svc.add_handler("noop/1.0/noop", [](const XrlArgs&, XrlArgs&) {
        return XrlError::okay();
    });
    svc.enable_tcp();
    ASSERT_TRUE(svc.finalize());
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();
    client.set_preferred_family("stcp");

    const TraceContext caller = telemetry::begin_trace();
    std::optional<TraceContext> seen;
    {
        TraceScope scope(caller);
        client.call(Xrl::generic("svc", "noop", "1.0", "noop", XrlArgs()),
                    ipc::CallOptions::reliable(),
                    [&](const XrlError& err, const XrlArgs&) {
                        EXPECT_TRUE(err.ok()) << err.str();
                        seen = telemetry::current_trace();
                    });
    }
    ASSERT_TRUE(plexus.loop.run_until([&] { return seen.has_value(); }, 5s));
    EXPECT_EQ(seen->trace_id, caller.trace_id);
    EXPECT_EQ(seen->hop, caller.hop);
}

TEST(Trace, DisabledTracingRecordsNothing) {
    Journal::global().clear();
    ASSERT_FALSE(telemetry::tracing_enabled());
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ChainServers servers(plexus);
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();
    run_chain(plexus, client, servers, "inproc");
    EXPECT_EQ(Journal::global().event_count(), 0u);
}

// ---- the telemetry/1.0 face --------------------------------------------

TEST(TelemetryXrl, SnapshotReachableOnAnyFinalizedTarget) {
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ipc::XrlRouter svc(plexus, "svc", true);
    svc.add_handler("noop/1.0/noop", [](const XrlArgs&, XrlArgs&) {
        return XrlError::okay();
    });
    svc.finalize();  // auto-binds telemetry/1.0
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();

    // Drive one call so per-method counters exist, then snapshot.
    bool done = false;
    client.send(Xrl::generic("svc", "noop", "1.0", "noop", XrlArgs()),
                [&](const XrlError& err, const XrlArgs&) {
                    EXPECT_TRUE(err.ok());
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);

    std::string snapshot;
    done = false;
    client.send(Xrl::generic("svc", "telemetry", "1.0", "snapshot",
                             XrlArgs()),
                [&](const XrlError& err, const XrlArgs& out) {
                    ASSERT_TRUE(err.ok()) << err.str();
                    snapshot = out.get_text("text").value_or("");
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);
    ASSERT_TRUE(done);
    EXPECT_NE(snapshot.find("xrl_calls_total{method=\"noop/1.0/noop\"}"),
              std::string::npos);
    EXPECT_NE(snapshot.find("xrl_sends_total{family=\"inproc\"}"),
              std::string::npos);

    // trace_enable flips the trace root switch and reports the new state.
    done = false;
    XrlArgs on;
    on.add("on", true);
    client.send(Xrl::generic("svc", "telemetry", "1.0", "trace_enable", on),
                [&](const XrlError& err, const XrlArgs& out) {
                    ASSERT_TRUE(err.ok()) << err.str();
                    EXPECT_EQ(out.get_bool("enabled"), true);
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);
    EXPECT_TRUE(telemetry::tracing_enabled());
    telemetry::set_tracing_enabled(false);
    Journal::global().clear();
}

// ---- the Figures 10-12 chain as one trace ------------------------------

TEST(Trace, BgpRibFeaChainIsOneCausalTrace) {
    // Two routers, a BGP session between them: a route originated at r1
    // arrives at r2's BGP, which sends it to r2's RIB over XRLs, which
    // forwards it to r2's FEA over XRLs — the full Figures 10-12 path.
    BgpPair pair;
    ASSERT_TRUE(pair.configured);
    TracingOn tracing;
    // The route must appear in r2's FEA (travelled BGP -> RIB -> FEA over
    // XRLs)...
    ASSERT_TRUE(pair.propagate());

    // ...and the journal must hold ONE trace linking the RIB and FEA
    // dispatches, hops deepening along the chain. (r1 records a separate
    // trace for its own local-origin attempt; only r2's goes to a FEA.)
    bool found_chain = false;
    std::map<uint64_t, std::pair<int, int>> hops;  // id -> {rib, fea}
    for (const JournalEvent& ev : Journal::global().events()) {
        if (ev.kind != JournalKind::kDispatch) continue;
        auto& [rib_hop, fea_hop] = hops.try_emplace(ev.trace, -1, -1)
                                       .first->second;
        if (ev.subject.find("rib/1.0/add_route") != std::string::npos)
            rib_hop = static_cast<int>(ev.hop);
        if (ev.subject.find("fea/1.0/add_route4") != std::string::npos)
            fea_hop = static_cast<int>(ev.hop);
    }
    for (const auto& [id, h] : hops)
        if (h.first >= 0 && h.second > h.first) found_chain = true;
    EXPECT_TRUE(found_chain) << "rib and fea dispatches not causally "
                                "linked in any one trace:\n"
                             << dump();

    // All eight Figures 10-12 profiling points are in the one trace that
    // r2's BGP opened for the UPDATE, in path order.
    const std::string prefix = "10.99.0.0/16";
    uint64_t id = 0;
    for (const JournalEvent& ev : Journal::global().events())
        if (ev.kind == JournalKind::kBgpIn && ev.subject == prefix &&
            ev.detail == "add")
            id = ev.trace;
    ASSERT_NE(id, 0u) << dump();
    struct Point {
        JournalKind kind;
        const char* subject;  // a substring of the event's subject
        const char* detail;   // nullptr: any
    };
    const Point points[] = {
        {JournalKind::kBgpIn, prefix.c_str(), "add"},
        {JournalKind::kBgpRibQueued, prefix.c_str(), "add"},
        {JournalKind::kSend, "rib/1.0/add_route", nullptr},
        {JournalKind::kDispatch, "rib/1.0/add_route", nullptr},
        {JournalKind::kRibFeaQueued, prefix.c_str(), "add"},
        {JournalKind::kSend, "fea/1.0/add_route4", nullptr},
        {JournalKind::kDispatch, "fea/1.0/add_route4", nullptr},
        {JournalKind::kKernelIn, prefix.c_str(), "add"},
    };
    const std::vector<JournalEvent> trace = trace_events(id);
    ev::TimePoint prev{};
    for (const auto& [kind, subject, detail] : points) {
        const char* name = telemetry::journal_kind_name(kind);
        auto it = std::find_if(trace.begin(), trace.end(), [&](const auto& e) {
            return e.kind == kind &&
                   e.subject.find(subject) != std::string::npos &&
                   (detail == nullptr || e.detail == detail);
        });
        ASSERT_NE(it, trace.end()) << name << " " << subject << " missing:\n"
                                   << dump();
        EXPECT_GE(it->t, prev) << name << " " << subject;
        prev = it->t;
    }
}

TEST(Trace, RouteEventsShareOneRecord) {
    // One record type in one ring: with the journal and trace roots both
    // on, the journal records a traced route causes (route_install in the
    // RIB, fib_add in the FEA) carry the trace id of its bgp_in and
    // kernel_in points, and one journal_dump_json returns them all.
    BgpPair pair;
    ASSERT_TRUE(pair.configured);
    Journal::global().clear();
    Journal::global().set_enabled(true);
    {
        TracingOn tracing;
        ASSERT_TRUE(pair.propagate());
    }

    ipc::XrlRouter cli(pair.r2.plexus(), "cli");
    ASSERT_TRUE(cli.finalize());
    std::string text;
    bool done = false;
    cli.send(Xrl::generic("fea", "telemetry", "1.0", "journal_dump_json",
                          XrlArgs()),
             [&](const XrlError& err, const XrlArgs& out) {
                 EXPECT_TRUE(err.ok()) << err.str();
                 text = out.get_text("text").value_or("");
                 done = true;
             });
    ASSERT_TRUE(pair.loop.run_until([&] { return done; }, 5s));
    Journal::global().set_enabled(false);
    Journal::global().clear();

    // Every event of the route on r2, keyed by kind, from the one dump.
    const std::string prefix = "10.99.0.0/16";
    std::map<std::string, std::vector<uint64_t>> traces;  // kind -> ids
    int64_t prev_seq = 0;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        auto v = json::Value::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        const auto seq = static_cast<int64_t>(v->get_number("seq").value_or(0));
        EXPECT_GT(seq, prev_seq) << line;
        prev_seq = seq;
        if (v->get_string("subject").value_or("") != prefix) continue;
        const std::string kind = v->get_string("kind").value_or("");
        const std::string node = v->get_string("node").value_or("");
        const std::string detail = v->get_string("detail").value_or("");
        if ((kind == "route_install" || kind == "fib_add") && node != "r2")
            continue;
        if ((kind == "bgp_in" || kind == "kernel_in") && detail != "add")
            continue;
        traces[kind].push_back(
            static_cast<uint64_t>(v->get_number("trace").value_or(0)));
    }
    ASSERT_EQ(traces["bgp_in"].size(), 1u) << text;
    const uint64_t id = traces["bgp_in"][0];
    ASSERT_NE(id, 0u) << text;
    for (const char* kind : {"route_install", "fib_add", "kernel_in"}) {
        ASSERT_FALSE(traces[kind].empty()) << kind << " missing:\n" << text;
        for (uint64_t t : traces[kind]) EXPECT_EQ(t, id) << kind;
    }
}

// ---- machine-readable trace dump ---------------------------------------

TEST(Trace, JsonlDumpReconstructsRouteAddTimeline) {
    // The paper's Figures 10-12 route-add journey, asserted from the
    // machine-readable dump: the JSON-lines export must contain one trace whose dispatch events visit the RIB
    // and then the FEA at deepening hops with non-decreasing timestamps —
    // exactly what the scenario harness consumes offline.
    BgpPair pair;
    ASSERT_TRUE(pair.configured);
    TracingOn tracing;
    ASSERT_TRUE(pair.propagate());

    // Per trace id: (hop, t_ns) of the RIB and FEA dispatches.
    struct Legs {
        int64_t rib_hop = -1, fea_hop = -1;
        int64_t rib_t = 0, fea_t = 0;
    };
    std::map<uint64_t, Legs> traces;
    std::istringstream in(Journal::global().to_jsonl());
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        auto v = json::Value::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        ++lines;
        if (v->get_string("kind").value_or("") != "dispatch") continue;
        auto id = static_cast<uint64_t>(v->get_number("trace").value_or(0));
        auto hop = static_cast<int64_t>(v->get_number("hop").value_or(-1));
        auto t = static_cast<int64_t>(v->get_number("t_ns").value_or(0));
        const std::string subject = v->get_string("subject").value_or("");
        Legs& legs = traces[id];
        if (subject.find("rib/1.0/add_route") != std::string::npos) {
            legs.rib_hop = hop;
            legs.rib_t = t;
        }
        if (subject.find("fea/1.0/add_route4") != std::string::npos) {
            legs.fea_hop = hop;
            legs.fea_t = t;
        }
    }
    EXPECT_EQ(lines, Journal::global().event_count());
    bool found = false;
    for (const auto& [id, legs] : traces)
        if (legs.rib_hop >= 0 && legs.fea_hop > legs.rib_hop &&
            legs.fea_t >= legs.rib_t)
            found = true;
    EXPECT_TRUE(found) << "no trace with rib -> fea timeline:\n" << dump();
}

TEST(TelemetryXrl, TraceAndJournalJsonDumpsOverXrl) {
    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ipc::XrlRouter svc(plexus, "svc", true);
    svc.add_handler("noop/1.0/noop", [](const XrlArgs&, XrlArgs&) {
        return XrlError::okay();
    });
    svc.finalize();
    ipc::XrlRouter client(plexus, "cli");
    client.finalize();

    auto rpc = [&](const char* method, XrlArgs in) {
        XrlArgs result;
        bool done = false;
        client.send(Xrl::generic("svc", "telemetry", "1.0", method, in),
                    [&](const XrlError& err, const XrlArgs& out) {
                        EXPECT_TRUE(err.ok()) << method << ": " << err.str();
                        result = out;
                        done = true;
                    });
        EXPECT_TRUE(plexus.loop.run_until([&] { return done; }, 2s));
        return result;
    };

    // Trace one traced call, then fetch the JSONL dump over XRL.
    Journal::global().clear();
    telemetry::set_tracing_enabled(true);
    bool done = false;
    client.send(Xrl::generic("svc", "noop", "1.0", "noop", XrlArgs()),
                [&](const XrlError& err, const XrlArgs&) {
                    EXPECT_TRUE(err.ok());
                    done = true;
                });
    plexus.loop.run_until([&] { return done; }, 2s);
    telemetry::set_tracing_enabled(false);

    XrlArgs dump = rpc("journal_dump_json", XrlArgs());
    std::string text = dump.get_text("text").value_or("");
    ASSERT_FALSE(text.empty());
    std::istringstream in(text);
    std::string line;
    size_t n = 0;
    while (std::getline(in, line)) {
        auto v = json::Value::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        EXPECT_NE(v->find("trace"), nullptr);
        EXPECT_NE(v->find("hop"), nullptr);
        EXPECT_NE(v->find("kind"), nullptr);
        ++n;
    }
    EXPECT_EQ(n, static_cast<size_t>(
                     dump.get_u32("count").value_or(0)));
    rpc("journal_clear", XrlArgs());

    // Journal: enable over XRL, record, dump over XRL, clear over XRL.
    XrlArgs on;
    on.add("on", true);
    EXPECT_EQ(rpc("journal_enable", on).get_bool("enabled"), true);
    telemetry::Journal::global().record(
        plexus.loop.now(), telemetry::JournalKind::kFibAdd, "r0", "fea",
        "10.0.0.0/24", "192.0.2.1:eth0");
    XrlArgs jd = rpc("journal_dump_json", XrlArgs());
    EXPECT_EQ(jd.get_u32("count").value_or(0), 1u);
    auto jline = json::Value::parse(jd.get_text("text").value_or(""));
    ASSERT_TRUE(jline.has_value());
    EXPECT_EQ(jline->get_string("kind").value_or(""), "fib_add");
    XrlArgs off;
    off.add("on", false);
    rpc("journal_enable", off);
    rpc("journal_clear", XrlArgs());
    EXPECT_EQ(telemetry::Journal::global().event_count(), 0u);
}

// ---- histogram CDF exposition ------------------------------------------

TEST(Metrics, HistogramCdfIsCumulativeAndExposed) {
    Registry reg;
    reg.set_enabled(true);
    auto* h = reg.histogram("cdf_test_ns");
    // 3 obs in the [1,1] decade-ish bucket, 2 in a higher one.
    h->observe(ev::Duration(1));
    h->observe(ev::Duration(1));
    h->observe(ev::Duration(1));
    h->observe(ev::Duration(1000));
    h->observe(ev::Duration(1000));

    auto cdf = h->cdf();
    ASSERT_GE(cdf.size(), 2u);
    // Cumulative counts are non-decreasing and end at the total.
    uint64_t prev = 0;
    for (const auto& p : cdf) {
        EXPECT_GE(p.cum, prev);
        prev = p.cum;
    }
    EXPECT_EQ(cdf.back().cum, 5u);
    // First occupied bucket holds the three 1ns observations.
    EXPECT_EQ(cdf.front().cum, 3u);
    EXPECT_GE(cdf.front().le_ns, 1u);

    // Exposition carries the cumulative buckets, ending at +Inf.
    std::string text = reg.expose();
    EXPECT_NE(text.find("cdf_test_ns_bucket{le=\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("cdf_test_ns_bucket{le=\"+Inf\"} 5"),
              std::string::npos)
        << text;
}
