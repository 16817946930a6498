// Observatory tests: the structured event journal (ordering, bounded
// ring, JSON-lines export pinned byte-for-byte per kind) and the
// convergence analyzer checked against hand-built oracle timelines where
// every window edge is known exactly, plus a golden schema test pinning
// the BENCH_scenarios.json envelope.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "sim/analyzer.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/json.hpp"

using namespace xrp;
using namespace std::chrono_literals;
using net::IPv4;
using net::IPv4Net;
using sim::AnalyzerFib;
using sim::ConvergenceAnalyzer;
using telemetry::Journal;
using telemetry::JournalEvent;
using telemetry::JournalKind;

namespace {

// The journal is process-global; scope enablement and restore defaults so
// tests cannot leak state into each other.
class JournalOn {
public:
    JournalOn() {
        Journal::global().clear();
        Journal::global().set_capacity(Journal::kDefaultCapacity);
        Journal::global().set_enabled(true);
    }
    ~JournalOn() {
        Journal::global().set_enabled(false);
        Journal::global().clear();
        Journal::global().set_capacity(Journal::kDefaultCapacity);
    }
};

ev::TimePoint at(int64_t s) { return ev::TimePoint{} + std::chrono::seconds(s); }

// ---- shared 3-node line: r0 --(e0)-- r1 --(e1)-- r2[stub] --------------
//
// Addresses: link0 10.1.0.0/24 (r0=.1, r1=.2), link1 10.1.1.0/24
// (r1=.1, r2=.2), beacon stub 10.240.0.0/24 on r2, probed at .10.
struct Line3 {
    ConvergenceAnalyzer::Topology topo;
    ConvergenceAnalyzer::Oracle oracle;
    size_t e0 = 0, e1 = 0;
    IPv4Net beacon_net = IPv4Net::must_parse("10.240.0.0/24");
    IPv4 beacon = IPv4::must_parse("10.240.0.10");
    std::vector<ConvergenceAnalyzer::Beacon> beacons;
    std::vector<AnalyzerFib> fibs;

    Line3() {
        topo.node_count = 3;
        topo.node_index = {{"r0", 0}, {"r1", 1}, {"r2", 2}};
        topo.addr_owner = {{IPv4::must_parse("10.1.0.1"), 0},
                           {IPv4::must_parse("10.1.0.2"), 1},
                           {IPv4::must_parse("10.1.1.1"), 1},
                           {IPv4::must_parse("10.1.1.2"), 2}};
        topo.attached = {{IPv4Net::must_parse("10.1.0.0/24")},
                         {IPv4Net::must_parse("10.1.0.0/24"),
                          IPv4Net::must_parse("10.1.1.0/24")},
                         {IPv4Net::must_parse("10.1.1.0/24"), beacon_net}};
        e0 = oracle.add_edge(0, 1);
        e1 = oracle.add_edge(1, 2);
        beacons.push_back({beacon, 2});
        // Converged forwarding state: r0 and r1 both route the beacon.
        fibs.resize(3);
        fibs[0][beacon_net] = net::NexthopSet4::single(IPv4::must_parse("10.1.0.2"));
        fibs[1][beacon_net] = net::NexthopSet4::single(IPv4::must_parse("10.1.1.2"));
    }

    JournalEvent fib_add(int64_t s, const char* node, IPv4 nexthop) {
        JournalEvent e;
        e.t = at(s);
        e.kind = JournalKind::kFibAdd;
        e.node = node;
        e.component = "fea";
        e.subject = beacon_net.str();
        e.detail = nexthop.str() + ":eth0";
        return e;
    }
    JournalEvent fib_delete(int64_t s, const char* node) {
        JournalEvent e;
        e.t = at(s);
        e.kind = JournalKind::kFibDelete;
        e.node = node;
        e.component = "fea";
        e.subject = beacon_net.str();
        return e;
    }
};

}  // namespace

// ---- journal -----------------------------------------------------------

TEST(Journal, InterleavedComponentsKeepAppendOrder) {
    JournalOn scope;
    Journal& j = Journal::global();
    // Three components interleaving appends, timestamps non-decreasing —
    // the single-VirtualClock situation the analyzer relies on.
    const char* comps[] = {"rib", "fea", "ospf"};
    const JournalKind kinds[] = {JournalKind::kRouteInstall,
                                 JournalKind::kFibAdd,
                                 JournalKind::kLsaFlood};
    for (int i = 0; i < 30; ++i)
        j.record(at(i / 3), kinds[i % 3], "r0", comps[i % 3],
                 "10.0.0.0/24", "x", i);

    auto evs = j.events();
    ASSERT_EQ(evs.size(), 30u);
    for (size_t i = 1; i < evs.size(); ++i) {
        EXPECT_GT(evs[i].seq, evs[i - 1].seq) << i;
        EXPECT_GE(evs[i].t, evs[i - 1].t) << i;
    }
    // Append order preserved per component too (value carries i).
    for (size_t i = 0; i < evs.size(); ++i) {
        EXPECT_EQ(evs[i].value, static_cast<int64_t>(i));
        EXPECT_EQ(evs[i].component, comps[i % 3]);
    }
    EXPECT_EQ(j.dropped(), 0u);
}

TEST(Journal, BoundedRingKeepsNewestAndCountsDropped) {
    JournalOn scope;
    Journal& j = Journal::global();
    j.set_capacity(8);
    for (int i = 0; i < 20; ++i)
        j.record(at(i), JournalKind::kFibAdd, "r0", "fea", "10.0.0.0/24",
                 "", i);
    EXPECT_EQ(j.event_count(), 8u);
    EXPECT_EQ(j.dropped(), 12u);
    auto evs = j.events();
    ASSERT_EQ(evs.size(), 8u);
    // The newest 8, still in append order, seq contiguous.
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(evs[i].value, static_cast<int64_t>(12 + i));
    for (size_t i = 1; i < 8; ++i)
        EXPECT_EQ(evs[i].seq, evs[i - 1].seq + 1);
}

TEST(Journal, DisabledRecordsNothing) {
    JournalOn scope;
    Journal& j = Journal::global();
    j.set_enabled(false);
    j.record(at(1), JournalKind::kDeath, "r0", "supervisor", "ospf");
    EXPECT_EQ(j.event_count(), 0u);
}

TEST(Journal, JsonlExportParsesLineByLine) {
    JournalOn scope;
    Journal& j = Journal::global();
    j.record(at(1), JournalKind::kFibAdd, "r3", "fea", "10.2.0.0/24",
             "10.1.0.2:eth1", 0);
    j.record(at(2), JournalKind::kCallRetry, "r3", "ipc", "rib",
             "rib/1.0/add_route", 2);
    std::string jsonl = j.to_jsonl();
    std::istringstream in(jsonl);
    std::string line;
    size_t n = 0;
    std::vector<std::string> kinds;
    while (std::getline(in, line)) {
        auto v = json::Value::parse(line);
        ASSERT_TRUE(v.has_value()) << line;
        ASSERT_TRUE(v->is_object());
        EXPECT_NE(v->find("seq"), nullptr);
        EXPECT_NE(v->find("t_ns"), nullptr);
        ASSERT_NE(v->find("kind"), nullptr);
        EXPECT_EQ(v->get_string("node").value_or(""), "r3");
        kinds.push_back(v->get_string("kind").value_or(""));
        ++n;
    }
    ASSERT_EQ(n, 2u);
    // Stable machine-readable kind names: committed scenario output
    // references these strings.
    EXPECT_EQ(kinds[0], "fib_add");
    EXPECT_EQ(kinds[1], "call_retry");
}

TEST(Journal, GoldenJsonLinePerKind) {
    // Committed scenario output and the analyzer read these bytes, so
    // every kind's line is pinned exactly: key order, escaping, and the
    // omission of an empty detail and a zero value.
    auto line = [](JournalKind kind, int64_t t_ns, const char* node,
                   const char* component, const char* subject,
                   const char* detail, int64_t value) {
        JournalEvent e;
        e.seq = 7;
        e.t = ev::TimePoint{} + std::chrono::nanoseconds(t_ns);
        e.kind = kind;
        e.node = node;
        e.component = component;
        e.subject = subject;
        e.detail = detail;
        e.value = value;
        return e.to_json();
    };
    const std::pair<std::string, std::string> golden[] = {
        {line(JournalKind::kRouteInstall, 1500000000, "r1", "rib",
              "10.0.1.0/24", "ospf:10.1.0.2", 20),
         R"({"seq":7,"t_ns":1500000000,"kind":"route_install","node":"r1","component":"rib","subject":"10.0.1.0/24","detail":"ospf:10.1.0.2","value":20})"},
        {line(JournalKind::kRouteWithdraw, 2, "r1", "rib", "10.0.1.0/24",
              "ospf", 0),
         R"({"seq":7,"t_ns":2,"kind":"route_withdraw","node":"r1","component":"rib","subject":"10.0.1.0/24","detail":"ospf"})"},
        {line(JournalKind::kFibAdd, 3, "r2", "fea", "10.0.2.0/24",
              "10.1.0.2@2:eth0|10.1.1.2:eth1", 0),
         R"({"seq":7,"t_ns":3,"kind":"fib_add","node":"r2","component":"fea","subject":"10.0.2.0/24","detail":"10.1.0.2@2:eth0|10.1.1.2:eth1"})"},
        {line(JournalKind::kFibDelete, 4, "r2", "fea", "10.0.2.0/24", "", 0),
         R"({"seq":7,"t_ns":4,"kind":"fib_delete","node":"r2","component":"fea","subject":"10.0.2.0/24"})"},
        {line(JournalKind::kLsaFlood, 5, "r3", "ospf", "router:1.1.1.1",
              "eth0", 2147483649),
         R"({"seq":7,"t_ns":5,"kind":"lsa_flood","node":"r3","component":"ospf","subject":"router:1.1.1.1","detail":"eth0","value":2147483649})"},
        {line(JournalKind::kDeath, 6, "r3", "supervisor", "rib",
              "channel \"closed\"\n", 0),
         R"({"seq":7,"t_ns":6,"kind":"death","node":"r3","component":"supervisor","subject":"rib","detail":"channel \"closed\"\n"})"},
        {line(JournalKind::kRestart, 7, "r3", "supervisor", "rib", "", 1),
         R"({"seq":7,"t_ns":7,"kind":"restart","node":"r3","component":"supervisor","subject":"rib","value":1})"},
        {line(JournalKind::kBreakerTrip, 8, "", "supervisor", "bgp", "", 5),
         R"({"seq":7,"t_ns":8,"kind":"breaker_trip","node":"","component":"supervisor","subject":"bgp","value":5})"},
        {line(JournalKind::kFaultInjected, 9, "r0", "faults", "fea", "drop",
              0),
         R"({"seq":7,"t_ns":9,"kind":"fault_injected","node":"r0","component":"faults","subject":"fea","detail":"drop"})"},
        {line(JournalKind::kCallRetry, 10, "r0", "ipc", "rib",
              "rib/1.0/add_route", 2),
         R"({"seq":7,"t_ns":10,"kind":"call_retry","node":"r0","component":"ipc","subject":"rib","detail":"rib/1.0/add_route","value":2})"},
        {line(JournalKind::kCallFailover, 11, "r0", "ipc", "rib",
              "rib/1.0/add_route", 0),
         R"({"seq":7,"t_ns":11,"kind":"call_failover","node":"r0","component":"ipc","subject":"rib","detail":"rib/1.0/add_route"})"},
        {line(JournalKind::kProcessOutput, 12, "r0", "process", "bgp",
              "tab\there", 0),
         R"({"seq":7,"t_ns":12,"kind":"process_output","node":"r0","component":"process","subject":"bgp","detail":"tab\there"})"},
        {line(JournalKind::kProcessExit, -13, "r0", "process", "bgp",
              "signal 9", -4242),
         R"({"seq":7,"t_ns":-13,"kind":"process_exit","node":"r0","component":"process","subject":"bgp","detail":"signal 9","value":-4242})"},
    };
    for (const auto& [got, want] : golden) EXPECT_EQ(got, want);

    // The trace kinds, made under a trace: "trace" and "hop" follow the
    // journal's keys, and only a record with a trace id writes them.
    auto traced = [&](JournalKind kind, const char* node,
                      const char* subject, const char* detail,
                      uint64_t trace, uint32_t hop) {
        JournalEvent e;
        e.seq = 9;
        e.t = ev::TimePoint{} + std::chrono::nanoseconds(42);
        e.kind = kind;
        e.node = node;
        e.component = "ipc";
        e.subject = subject;
        e.detail = detail;
        e.trace = trace;
        e.hop = hop;
        return e.to_json();
    };
    const std::pair<std::string, std::string> traced_golden[] = {
        {traced(JournalKind::kSend, "r1", "rib/rib/1.0/add_route", "stcp",
                5, 0),
         R"({"seq":9,"t_ns":42,"kind":"send","node":"r1","component":"ipc","subject":"rib/rib/1.0/add_route","detail":"stcp","trace":5,"hop":0})"},
        {traced(JournalKind::kDispatch, "", "rib/1.0/add_route", "stcp", 5,
                1),
         R"({"seq":9,"t_ns":42,"kind":"dispatch","node":"","component":"ipc","subject":"rib/1.0/add_route","detail":"stcp","trace":5,"hop":1})"},
        {traced(JournalKind::kBgpIn, "", "10.0.1.0/24", "add", UINT64_MAX,
                0),
         R"({"seq":9,"t_ns":42,"kind":"bgp_in","node":"","component":"ipc","subject":"10.0.1.0/24","detail":"add","trace":18446744073709551615,"hop":0})"},
        {traced(JournalKind::kBgpRibQueued, "", "10.0.1.0/24", "delete", 6,
                0),
         R"({"seq":9,"t_ns":42,"kind":"bgp_rib_queued","node":"","component":"ipc","subject":"10.0.1.0/24","detail":"delete","trace":6,"hop":0})"},
        {traced(JournalKind::kRibFeaQueued, "r2", "10.0.1.0/24", "add", 6,
                1),
         R"({"seq":9,"t_ns":42,"kind":"rib_fea_queued","node":"r2","component":"ipc","subject":"10.0.1.0/24","detail":"add","trace":6,"hop":1})"},
        {traced(JournalKind::kKernelIn, "r2", "10.0.1.0/24", "add", 6, 2),
         R"({"seq":9,"t_ns":42,"kind":"kernel_in","node":"r2","component":"ipc","subject":"10.0.1.0/24","detail":"add","trace":6,"hop":2})"},
        // A journal kind made under a trace carries it the same way.
        {traced(JournalKind::kFibAdd, "r2", "10.0.1.0/24", "10.1.0.2:eth0",
                6, 2),
         R"({"seq":9,"t_ns":42,"kind":"fib_add","node":"r2","component":"ipc","subject":"10.0.1.0/24","detail":"10.1.0.2:eth0","trace":6,"hop":2})"},
    };
    for (const auto& [got, want] : traced_golden) EXPECT_EQ(got, want);
}

// ---- analyzer vs hand-built timelines ----------------------------------

TEST(Analyzer, BlackholeWindowMatchesOracleTimeline) {
    Line3 net;
    // r1 loses its beacon route at t=10s and regains it at t=15s; the
    // physical topology never changes, so exactly [10s,15s] is a
    // transient blackhole for the r0 probe.
    std::vector<JournalEvent> events = {net.fib_delete(10, "r1"),
                                        net.fib_add(15, "r1",
                                                    IPv4::must_parse(
                                                        "10.1.1.2"))};
    auto rep = ConvergenceAnalyzer::analyze(net.topo, net.oracle, events,
                                            net.beacons, {0}, net.fibs,
                                            at(0), at(30));
    EXPECT_TRUE(rep.converged);
    ASSERT_EQ(rep.blackhole_windows.size(), 1u);
    EXPECT_EQ(rep.blackhole_windows[0].begin, at(10));
    EXPECT_EQ(rep.blackhole_windows[0].end, at(15));
    EXPECT_EQ(rep.total_blackhole(), 5s);
    EXPECT_TRUE(rep.loop_windows.empty());
    EXPECT_EQ(rep.converged_at, at(15));
    EXPECT_EQ(rep.fib_events, 2u);
}

TEST(Analyzer, LoopWindowMatchesOracleTimeline) {
    Line3 net;
    // r1's beacon route points back at r0 during [10s,12s): r0 -> r1 ->
    // r0 is a forwarding loop, not a blackhole.
    std::vector<JournalEvent> events = {
        net.fib_add(10, "r1", IPv4::must_parse("10.1.0.1")),
        net.fib_add(12, "r1", IPv4::must_parse("10.1.1.2"))};
    auto rep = ConvergenceAnalyzer::analyze(net.topo, net.oracle, events,
                                            net.beacons, {0}, net.fibs,
                                            at(0), at(30));
    EXPECT_TRUE(rep.converged);
    EXPECT_TRUE(rep.blackhole_windows.empty());
    ASSERT_EQ(rep.loop_windows.size(), 1u);
    EXPECT_EQ(rep.loop_windows[0].begin, at(10));
    EXPECT_EQ(rep.loop_windows[0].end, at(12));
    EXPECT_EQ(rep.total_loop(), 2s);
}

TEST(Analyzer, PartitionedOracleExcusesTheBlackhole) {
    Line3 net;
    // The r1--r2 link is physically down over [10s,20s] and r1's route is
    // gone for the same interval. Unreachable per the oracle means no
    // blackhole is charged: the data plane cannot beat physics.
    net.oracle.set_edge_up(at(10), net.e1, false);
    net.oracle.set_edge_up(at(20), net.e1, true);
    std::vector<JournalEvent> events = {net.fib_delete(10, "r1"),
                                        net.fib_add(20, "r1",
                                                    IPv4::must_parse(
                                                        "10.1.1.2"))};
    auto rep = ConvergenceAnalyzer::analyze(net.topo, net.oracle, events,
                                            net.beacons, {0}, net.fibs,
                                            at(0), at(30));
    EXPECT_TRUE(rep.converged);
    EXPECT_TRUE(rep.blackhole_windows.empty()) << rep.blackhole_windows.size();
    EXPECT_TRUE(rep.loop_windows.empty());
}

TEST(Analyzer, SlowReconvergenceAfterRepairIsCharged) {
    Line3 net;
    // Same partition, but the FIB comes back 4s after the link does:
    // those 4 seconds are a real blackhole window.
    net.oracle.set_edge_up(at(10), net.e1, false);
    net.oracle.set_edge_up(at(20), net.e1, true);
    std::vector<JournalEvent> events = {net.fib_delete(10, "r1"),
                                        net.fib_add(24, "r1",
                                                    IPv4::must_parse(
                                                        "10.1.1.2"))};
    auto rep = ConvergenceAnalyzer::analyze(net.topo, net.oracle, events,
                                            net.beacons, {0}, net.fibs,
                                            at(0), at(30));
    EXPECT_TRUE(rep.converged);
    ASSERT_EQ(rep.blackhole_windows.size(), 1u);
    EXPECT_EQ(rep.blackhole_windows[0].begin, at(20));
    EXPECT_EQ(rep.blackhole_windows[0].end, at(24));
    EXPECT_EQ(rep.total_blackhole(), 4s);
    EXPECT_EQ(rep.converged_at, at(24));
}

TEST(Analyzer, WalkDetectsDeliveryBlackholeAndLoop) {
    Line3 net;
    auto up = [](size_t, size_t) { return true; };
    EXPECT_EQ(ConvergenceAnalyzer::walk(net.topo, net.fibs, 0, net.beacon,
                                        up),
              ConvergenceAnalyzer::WalkResult::kDelivered);
    std::vector<AnalyzerFib> noroute = net.fibs;
    noroute[1].clear();
    EXPECT_EQ(ConvergenceAnalyzer::walk(net.topo, noroute, 0, net.beacon,
                                        up),
              ConvergenceAnalyzer::WalkResult::kBlackhole);
    std::vector<AnalyzerFib> looped = net.fibs;
    looped[1][net.beacon_net] = net::NexthopSet4::single(IPv4::must_parse("10.1.0.1"));
    EXPECT_EQ(ConvergenceAnalyzer::walk(net.topo, looped, 0, net.beacon,
                                        up),
              ConvergenceAnalyzer::WalkResult::kLoop);
    // A dead first hop is a blackhole even with a route present.
    auto down = [](size_t, size_t) { return false; };
    EXPECT_EQ(ConvergenceAnalyzer::walk(net.topo, net.fibs, 0, net.beacon,
                                        down),
              ConvergenceAnalyzer::WalkResult::kBlackhole);
}

TEST(Analyzer, EcmpFanoutWalkChargesNoFalseWindows) {
    // Diamond: r0 forks over {r1, r2}, both rejoin at r3 which owns the
    // beacon. r0's FIB entry is a genuine 2-member NexthopSet; the walk
    // must follow the rendezvous pick (not flag the fork as a loop) and
    // the analyzer must parse multipath fib_add details ('|'-joined
    // members) without inventing blackhole windows.
    ConvergenceAnalyzer::Topology topo;
    topo.node_count = 4;
    topo.node_index = {{"r0", 0}, {"r1", 1}, {"r2", 2}, {"r3", 3}};
    IPv4Net beacon_net = IPv4Net::must_parse("10.240.0.0/24");
    IPv4 beacon = IPv4::must_parse("10.240.0.10");
    struct Wire { const char* a; const char* b; size_t na, nb; };
    // l0 r0-r1, l1 r0-r2, l2 r1-r3, l3 r2-r3; a-side .1, b-side .2.
    Wire wires[] = {{"10.1.0.1", "10.1.0.2", 0, 1},
                    {"10.1.1.1", "10.1.1.2", 0, 2},
                    {"10.1.2.1", "10.1.2.2", 1, 3},
                    {"10.1.3.1", "10.1.3.2", 2, 3}};
    topo.attached.resize(4);
    for (const Wire& w : wires) {
        IPv4 a = IPv4::must_parse(w.a), b = IPv4::must_parse(w.b);
        topo.addr_owner[a] = w.na;
        topo.addr_owner[b] = w.nb;
        topo.attached[w.na].push_back(IPv4Net(a, 24));
        topo.attached[w.nb].push_back(IPv4Net(b, 24));
    }
    topo.attached[3].push_back(beacon_net);
    ConvergenceAnalyzer::Oracle oracle;
    size_t e0 = oracle.add_edge(0, 1);
    oracle.add_edge(0, 2);
    oracle.add_edge(1, 3);
    oracle.add_edge(2, 3);
    std::vector<ConvergenceAnalyzer::Beacon> beacons = {{beacon, 3}};

    std::vector<AnalyzerFib> fibs(4);
    net::NexthopSet4 fork;
    fork.insert(IPv4::must_parse("10.1.0.2"));
    fork.insert(IPv4::must_parse("10.1.1.2"));
    fibs[0][beacon_net] = fork;
    fibs[1][beacon_net] =
        net::NexthopSet4::single(IPv4::must_parse("10.1.2.2"));
    fibs[2][beacon_net] =
        net::NexthopSet4::single(IPv4::must_parse("10.1.3.2"));

    // The fork itself is not a loop and both branches deliver.
    auto up = [](size_t, size_t) { return true; };
    EXPECT_EQ(ConvergenceAnalyzer::walk(topo, fibs, 0, beacon, up),
              ConvergenceAnalyzer::WalkResult::kDelivered);

    // Timeline: at t=10 the r0-r1 link dies and r0's FIB is replaced by
    // the surviving member in the same instant (the multipath detail is
    // the '|'-joined member list the sim FEA journals). No probe ever
    // sees a dead entry, so no window may be charged.
    auto fib_add = [&](int64_t s, const char* detail) {
        JournalEvent e;
        e.t = at(s);
        e.kind = JournalKind::kFibAdd;
        e.node = "r0";
        e.component = "fea";
        e.subject = beacon_net.str();
        e.detail = detail;
        return e;
    };
    oracle.set_edge_up(at(10), e0, false);
    std::vector<JournalEvent> events = {
        fib_add(5, "10.1.0.2:eth0|10.1.1.2:eth1"),
        fib_add(10, "10.1.1.2:eth1")};
    auto rep = ConvergenceAnalyzer::analyze(topo, oracle, events, beacons,
                                            {0}, fibs, at(0), at(30));
    EXPECT_TRUE(rep.converged);
    EXPECT_TRUE(rep.blackhole_windows.empty()) << rep.blackhole_windows.size();
    EXPECT_TRUE(rep.loop_windows.empty()) << rep.loop_windows.size();
    EXPECT_EQ(rep.fib_events, 2u);
}

// ---- BENCH_scenarios.json golden schema --------------------------------

namespace {

// One real (smoke-run) envelope, abbreviated to a single row. Pins the
// machine-readable contract: schema tag, envelope members, and the exact
// per-cell column set. scenario_runner must keep emitting this shape, and
// bench/validate_bench.cpp enforces it against live output in CI.
constexpr const char* kScenariosGolden = R"({
  "schema": "xrp-bench-v1",
  "bench": "scenarios",
  "meta": {"quick": false, "smoke": true},
  "rows": [
    {"family": "grid", "schedule": "link_flap", "routers": 16, "links": 24,
     "converged": true, "convergence_ms": 90210, "blackhole_ms": 840,
     "loop_ms": 0, "blackhole_windows": 4, "loop_windows": 0,
     "fib_events": 364, "route_events": 451, "flood_events": 180,
     "journal_events": 995, "journal_dropped": 0, "net_msgs": 2596,
     "net_bytes": 435912, "virtual_s": 275, "cpu_ms": 812.5,
     "max_rss_kb": 48216}
  ]
})";

}  // namespace

TEST(BenchSchema, ScenariosGoldenEnvelopeAndColumns) {
    auto doc = json::Value::parse(kScenariosGolden);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->is_object());
    EXPECT_EQ(doc->get_string("schema").value_or(""), "xrp-bench-v1");
    EXPECT_EQ(doc->get_string("bench").value_or(""), "scenarios");
    const json::Value* meta = doc->find("meta");
    ASSERT_NE(meta, nullptr);
    ASSERT_TRUE(meta->is_object());
    const json::Value* rows = doc->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_TRUE(rows->is_array());
    ASSERT_GT(rows->size(), 0u);

    const std::set<std::string> required = {
        "family",          "schedule",     "routers",
        "links",           "converged",    "convergence_ms",
        "blackhole_ms",    "loop_ms",      "blackhole_windows",
        "loop_windows",    "fib_events",   "route_events",
        "flood_events",    "journal_events", "journal_dropped",
        "net_msgs",        "net_bytes",    "virtual_s",
        "cpu_ms",          "max_rss_kb"};
    for (const json::Value& row : rows->items()) {
        ASSERT_TRUE(row.is_object());
        std::set<std::string> keys;
        for (const auto& [k, v] : row.members()) {
            keys.insert(k);
            EXPECT_TRUE(v.is_number() || v.is_string() || v.is_bool()) << k;
        }
        EXPECT_EQ(keys, required);
    }
}
