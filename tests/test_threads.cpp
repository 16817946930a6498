// Threading-model tests: the EventLoop cross-thread seam (post/wake/
// ownership), ComponentThread lifecycle, multi-producer journal safety
// (journal records and traced xring calls sharing one ring),
// InternTable single-owner affinity, and rtrmgr::Router in both
// placements — one loop, or FEA, RIB and BGP on their own threads joined
// by xring and supervised across the thread boundary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "ipc/router.hpp"
#include "net/intern.hpp"
#include "rtrmgr/component_thread.hpp"
#include "rtrmgr/rtrmgr.hpp"
#include "telemetry/journal.hpp"

using namespace xrp;
using namespace std::chrono_literals;
using rtrmgr::ComponentThread;
using rtrmgr::Router;

TEST(EventLoopThreads, PostWakesBlockedLoop) {
    // The loop parks in poll(2) with nothing due; post() from another
    // thread must wake it promptly through the eventfd.
    ev::RealClock clock;
    ev::EventLoop loop(clock);
    loop.hold_open(true);
    std::thread driver([&] { loop.run(); });

    std::atomic<int> ran{0};
    for (int i = 0; i < 3; ++i)
        loop.post([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (ran.load() < 3 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    EXPECT_EQ(ran.load(), 3);

    loop.request_stop();
    driver.join();
    loop.release_owner();
}

TEST(EventLoopThreads, RunOnIsInlineOnOwnerAndPostedAcross) {
    ev::RealClock clock;
    ev::EventLoop loop(clock);
    // No thread has claimed the loop: run_on executes inline.
    bool inline_ran = false;
    loop.run_on([&] { inline_ran = true; });
    EXPECT_TRUE(inline_ran);

    loop.hold_open(true);
    std::thread driver([&] { loop.run(); });
    std::atomic<bool> cross_ran{false};
    std::atomic<bool> was_owner_thread{true};
    // Wait until the driver has claimed ownership, then run_on must
    // defer to the owning thread instead of running here.
    loop.post([] {});  // ensures the driver is up and claiming
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (loop.in_owner_thread() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    ASSERT_FALSE(loop.in_owner_thread());
    loop.run_on([&] {
        was_owner_thread.store(loop.in_owner_thread());
        cross_ran.store(true);
    });
    while (!cross_ran.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    EXPECT_TRUE(cross_ran.load());
    EXPECT_TRUE(was_owner_thread.load());

    loop.request_stop();
    driver.join();
    loop.release_owner();
}

TEST(ComponentThreadTest, RunSyncExecutesOnComponentThread) {
    ev::RealClock clock;
    ComponentThread ct(clock);
    // Before start(): inline on the caller.
    std::thread::id pre_id;
    ct.run_sync([&] { pre_id = std::this_thread::get_id(); });
    EXPECT_EQ(pre_id, std::this_thread::get_id());

    ct.start();
    std::thread::id on_id;
    ct.run_sync([&] { on_id = std::this_thread::get_id(); });
    EXPECT_NE(on_id, std::this_thread::get_id());

    // Nested run_sync from the component thread must not deadlock.
    bool nested = false;
    ct.run_sync([&] { ct.run_sync([&] { nested = true; }); });
    EXPECT_TRUE(nested);

    ct.stop_and_join();
    // After the join the constructing thread owns teardown again.
    bool post_ran = false;
    ct.run_sync([&] { post_ran = true; });
    EXPECT_TRUE(post_ran);
}

TEST(JournalThreads, FourThreadHammerKeepsEveryRecordOrdered) {
    // Multi-producer safety: 4 threads × 5000 records into one journal;
    // nothing lost, seq numbers unique and monotone in snapshot order.
    telemetry::Journal j;
    j.set_capacity(40000);
    telemetry::Journal::set_thread_override(&j);
    const bool was_enabled = telemetry::journal_enabled();
    j.set_enabled(true);

    constexpr int kThreads = 4;
    constexpr int kEach = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&j, t] {
            telemetry::Journal::set_thread_override(&j);
            for (int i = 0; i < kEach; ++i)
                telemetry::Journal::current().record(
                    ev::TimePoint{}, telemetry::JournalKind::kFibAdd,
                    "node", "hammer", "10.0." + std::to_string(t) + "." +
                                          std::to_string(i % 256));
        });
    }
    for (auto& th : threads) th.join();

    auto events = j.events();
    EXPECT_EQ(events.size(), static_cast<size_t>(kThreads * kEach));
    EXPECT_EQ(j.dropped(), 0u);
    std::set<uint64_t> seqs;
    uint64_t prev = 0;
    for (const auto& e : events) {
        EXPECT_GT(e.seq, prev);  // snapshot is in append order
        prev = e.seq;
        seqs.insert(e.seq);
    }
    EXPECT_EQ(seqs.size(), events.size());

    telemetry::Journal::set_thread_override(nullptr);
    j.set_enabled(was_enabled);
}

TEST(JournalThreads, ThreadLocalOverrideIsolatesCells) {
    // Two worker threads each install a private journal; their records
    // must not interleave into each other's or the global one.
    const bool was_enabled = telemetry::journal_enabled();
    telemetry::Journal::global().set_enabled(true);
    const size_t global0 = telemetry::Journal::global().event_count();

    telemetry::Journal a, b;
    a.set_enabled(true);
    b.set_enabled(true);
    auto worker = [](telemetry::Journal* mine, const char* tag, int n) {
        telemetry::Journal* prev =
            telemetry::Journal::set_thread_override(mine);
        for (int i = 0; i < n; ++i)
            telemetry::Journal::current().record(
                ev::TimePoint{}, telemetry::JournalKind::kRouteInstall, "",
                tag, std::to_string(i));
        telemetry::Journal::set_thread_override(prev);
    };
    std::thread ta(worker, &a, "cell_a", 100);
    std::thread tb(worker, &b, "cell_b", 50);
    ta.join();
    tb.join();

    EXPECT_EQ(a.event_count(), 100u);
    EXPECT_EQ(b.event_count(), 50u);
    EXPECT_EQ(telemetry::Journal::global().event_count(), global0);
    for (const auto& e : a.events()) EXPECT_EQ(e.component, "cell_a");
    for (const auto& e : b.events()) EXPECT_EQ(e.component, "cell_b");

    // Disabling one cell's journal must not silence another's: enabled
    // is per-instance, the global flag is only "is any journal on?".
    b.set_enabled(false);
    EXPECT_TRUE(a.enabled());
    EXPECT_TRUE(telemetry::journal_enabled());
    telemetry::Journal::set_thread_override(&a);
    telemetry::Journal::current().record(ev::TimePoint{},
                                         telemetry::JournalKind::kRouteInstall,
                                         "", "cell_a", "after_b_disabled");
    telemetry::Journal::set_thread_override(nullptr);
    EXPECT_EQ(a.event_count(), 101u);

    telemetry::Journal::global().set_enabled(was_enabled);
}

TEST(JournalThreads, TracedXringCallAndJournalShareOneRing) {
    // Trace events and journal records from three threads land in one
    // ring: a client on one ComponentThread makes traced calls over xring
    // to a server on another, while a third thread journals FIB writes.
    // Every dispatch carries its caller's trace one hop deeper, and seq
    // numbers stay strictly increasing in snapshot order.
    telemetry::Journal& j = telemetry::Journal::global();
    j.clear();
    j.set_enabled(true);
    telemetry::set_tracing_enabled(true);

    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    ComponentThread server_thread(clock);
    ipc::XrlRouter server(plexus, server_thread.loop(), "svc", true);
    server.add_handler("noop/1.0/noop", [](const xrl::XrlArgs&,
                                           xrl::XrlArgs&) {
        return xrl::XrlError::okay();
    });
    ASSERT_TRUE(server.finalize());
    ComponentThread client_thread(clock);
    ipc::XrlRouter client(plexus, client_thread.loop(), "cli");
    ASSERT_TRUE(client.finalize());
    server_thread.start();
    client_thread.start();

    constexpr int kCalls = 200;
    std::atomic<int> completed{0};
    std::atomic<int> errors{0};
    std::atomic<bool> stop{false};
    std::thread journaler([&] {
        for (int i = 0; i < 20000 && !stop.load(); ++i) {
            j.record(ev::TimePoint{}, telemetry::JournalKind::kFibAdd, "r0",
                     "fea", "10.0.0." + std::to_string(i % 256));
            std::this_thread::yield();
        }
    });
    client_thread.post([&] {
        for (int i = 0; i < kCalls; ++i)
            client.send(
                xrl::Xrl::generic("svc", "noop", "1.0", "noop", {}),
                [&](const xrl::XrlError& e, const xrl::XrlArgs&) {
                    if (!e.ok()) errors.fetch_add(1);
                    completed.fetch_add(1);
                });
    });
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (completed.load() < kCalls &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    stop.store(true);
    journaler.join();
    client_thread.stop_and_join();
    server_thread.stop_and_join();
    telemetry::set_tracing_enabled(false);
    j.set_enabled(false);
    const auto events = j.events();
    j.clear();
    ASSERT_EQ(completed.load(), kCalls);
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(j.dropped(), 0u);

    std::map<uint64_t, uint32_t> send_hop;  // trace id -> caller's hop
    uint64_t prev = 0;
    for (const auto& e : events) {
        EXPECT_GT(e.seq, prev);
        prev = e.seq;
        if (e.kind == telemetry::JournalKind::kSend) {
            EXPECT_TRUE(send_hop.emplace(e.trace, e.hop).second);
        }
    }
    EXPECT_EQ(send_hop.size(), static_cast<size_t>(kCalls));
    int dispatches = 0;
    int fib_adds = 0;
    for (const auto& e : events) {
        if (e.kind == telemetry::JournalKind::kFibAdd) {
            ++fib_adds;
            EXPECT_EQ(e.trace, 0u);
        }
        if (e.kind != telemetry::JournalKind::kDispatch) continue;
        ++dispatches;
        EXPECT_EQ(e.detail, "xring");
        auto it = send_hop.find(e.trace);
        ASSERT_NE(it, send_hop.end()) << e.to_json();
        EXPECT_EQ(e.hop, it->second + 1);
    }
    EXPECT_EQ(dispatches, kCalls);
    EXPECT_GT(fib_adds, 0);
}

namespace {
struct StrHash {
    uint64_t operator()(const std::string& s) const {
        uint64_t h = 0;
        for (char c : s) h = net::hash_mix(h, static_cast<uint64_t>(c));
        return h;
    }
};
}  // namespace

TEST(InternAffinity, ForeignThreadInternsAreCountedAndRebindable) {
    net::InternTable<std::string, StrHash> table;
    auto a = table.intern("alpha");
    auto b = table.intern("alpha");
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(table.affinity_violations(), 0u);

    // A foreign thread violating the single-owner affinity is counted
    // (the TSan pass would also flag the data race; the counter makes
    // the plain build report it too).
    std::thread foreign([&] { (void)table.intern("beta"); });
    foreign.join();
    EXPECT_EQ(table.affinity_violations(), 1u);

    // Explicit handoff: rebind, and the next thread to intern becomes
    // the owner without counting violations.
    table.rebind_owner();
    std::thread heir([&] {
        (void)table.intern("gamma");
        (void)table.intern("gamma");
    });
    heir.join();
    EXPECT_EQ(table.affinity_violations(), 1u);
}

namespace {
stage::Route4 test_route(uint32_t i) {
    stage::Route4 r;
    r.net = net::IPv4Net(net::IPv4(0x0a000000u + (i << 8)), 24);
    r.nexthop = net::IPv4::must_parse("192.0.2.1");
    r.protocol = "ebgp";
    r.igp_metric = 1;
    return r;
}
}  // namespace

namespace xrp::rtrmgr {
// Names the test cases ".../loop" and ".../threads".
void PrintTo(Router::Placement p, std::ostream* os) {
    *os << (p == Router::Placement::kLoop ? "loop" : "threads");
}
}  // namespace xrp::rtrmgr

// The router's two placements run the same bodies: kLoop puts every
// component on the test's loop; kThreads puts FEA, RIB and BGP each on its
// own thread, every hop over xring. The test thread drives the Router
// Manager's loop and watches the FIB mirror.
class RouterPlacement
    : public ::testing::TestWithParam<Router::Placement> {
protected:
    RouterPlacement() : r_("r1", loop_, GetParam()) {
        std::string err;
        EXPECT_TRUE(r_.configure(
            "protocols { bgp { local-as 1777; bgp-id 192.0.2.250; } }", &err))
            << err;
        r_.run_sync("rib", [this] {
            r_.rib().add_route("static",
                               net::IPv4Net::must_parse("192.0.2.0/24"),
                               net::IPv4::must_parse("192.0.2.250"), 1);
        });
    }

    // Pushes routes 0..n-1 into the RIB from BGP's loop.
    void push_from_bgp(uint32_t n) {
        r_.post("bgp", [this, n] {
            stage::RouteBatch4 b;
            b.reserve(n);
            for (uint32_t i = 0; i < n; ++i) b.add(test_route(i));
            r_.bgp()->rib_handle().push_batch(std::move(b));
        });
    }

    bool await_fib(size_t n) {
        return loop_.run_until([&] { return r_.fib_size() >= n; }, 30s);
    }

    ev::RealClock clock_;
    ev::EventLoop loop_{clock_};
    Router r_;
};

TEST_P(RouterPlacement, RoutesFlowFromBgpThroughTheRibToTheFib) {
    constexpr uint32_t kRoutes = 512;
    push_from_bgp(kRoutes);
    await_fib(kRoutes + 1);
    EXPECT_EQ(r_.fib_size(), kRoutes + 1u);  // + the static route
    size_t fib = 0;
    r_.run_sync("fea", [&] { fib = r_.fea().fib().size(); });
    EXPECT_EQ(fib, kRoutes + 1u);
}

TEST_P(RouterPlacement, SupervisorRestartsKilledBgp) {
    // Kill the BGP component (objects destroyed on its own loop). The
    // Finder death notification reaches the manager loop, which restarts
    // BGP — the rebuild itself runs back on BGP's loop.
    r_.kill("bgp");
    // Drive the manager loop: death handling, backoff, restart, resync.
    ASSERT_TRUE(loop_.run_until(
        [&] {
            return r_.supervisor().restart_count("bgp") >= 1 &&
                   r_.supervisor().state("bgp") ==
                       rtrmgr::Supervisor::State::kAlive;
        },
        30s));
    EXPECT_EQ(r_.supervisor().restart_count("bgp"), 1u);

    // The revived component is functional: a push lands in the FIB.
    push_from_bgp(16);
    await_fib(17);
    EXPECT_GE(r_.fib_size(), 17u);  // 16 pushed + the static route
}

INSTANTIATE_TEST_SUITE_P(Placements, RouterPlacement,
                         ::testing::Values(Router::Placement::kLoop,
                                           Router::Placement::kThreads));
