// Figure 9 reproduction: "XRL performance for various communication
// families" — XRLs/second vs number of XRL arguments, for Intra-Process,
// TCP, and UDP transports.
//
// Methodology follows §8.1 exactly: "we send a transaction of 10000 XRLs
// using a pipeline size of 100 XRLs. Initially the sender sends 100 XRLs
// back-to-back, and then for every XRL response received it sends a new
// request." The UDP family does not pipeline (stop-and-wait), which is
// precisely why the paper includes it.
//
// Expected shape: intra-process fastest at few arguments, TCP approaching
// it as argument count grows (marshalling dominates), UDP far below both.
//
// The second half measures the parallel control plane: a 4-way fan-out of
// clients, once as four routers sharing one event loop over sTCP (the
// single-loop baseline) and once as four ComponentThreads calling a
// threaded server over the xring family. The acceptance bar is xring
// aggregate >= 2x the single-loop baseline; on a host with at least four
// cores a miss sets exit status 1.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "ipc/router.hpp"
#include "report.hpp"
#include "rtrmgr/component_thread.hpp"
#include "telemetry/metrics.hpp"

using namespace xrp;
using namespace std::chrono_literals;

namespace {

constexpr int kTransaction = 10000;
constexpr int kPipeline = 100;

// Echo server with one method per argument count.
class EchoServer {
public:
    explicit EchoServer(ipc::Plexus& plexus) : router_(plexus, "echo", true) {
        for (int nargs = 0; nargs <= 25; ++nargs) {
            router_.add_handler(
                "echo/1.0/m" + std::to_string(nargs),
                [](const xrl::XrlArgs&, xrl::XrlArgs&) {
                    return xrl::XrlError::okay();
                });
        }
        router_.enable_tcp();
        router_.enable_udp();
        router_.finalize();
    }

private:
    ipc::XrlRouter router_;
};

double run_transaction(ipc::Plexus& plexus, ipc::XrlRouter& client,
                       const std::string& family, int nargs) {
    client.set_preferred_family(family);
    xrl::XrlArgs args;
    for (int i = 0; i < nargs; ++i)
        args.add("a" + std::to_string(i), static_cast<uint32_t>(i));
    xrl::Xrl call = xrl::Xrl::generic("echo", "echo", "1.0",
                                      "m" + std::to_string(nargs), args);

    int completed = 0;
    int sent = 0;
    bool pumping = false;
    auto start = std::chrono::steady_clock::now();
    // The pump keeps `kPipeline` requests outstanding. The guard flag
    // matters for the intra-process family, whose completions fire
    // synchronously inside send(): refilling directly from the callback
    // would recurse one stack frame per XRL.
    std::function<void()> pump;
    std::function<void(const xrl::XrlError&, const xrl::XrlArgs&)> on_done =
        [&](const xrl::XrlError& err, const xrl::XrlArgs&) {
            if (!err.ok())
                std::fprintf(stderr, "XRL failed: %s\n", err.str().c_str());
            ++completed;
            pump();
        };
    pump = [&] {
        if (pumping) return;
        pumping = true;
        while (sent - completed < kPipeline && sent < kTransaction) {
            ++sent;
            client.send(call, on_done);
        }
        pumping = false;
    };
    pump();
    plexus.loop.run_until([&] { return completed >= kTransaction; },
                          std::chrono::seconds(120));
    auto elapsed = std::chrono::steady_clock::now() - start;
    double secs = std::chrono::duration<double>(elapsed).count();
    return static_cast<double>(completed) / secs;
}

// ---- 4-way fan-out: single loop vs one thread per client ----------------

constexpr int kFanClients = 4;

xrl::Xrl fan_call(int nargs) {
    xrl::XrlArgs args;
    for (int i = 0; i < nargs; ++i)
        args.add("a" + std::to_string(i), static_cast<uint32_t>(i));
    return xrl::Xrl::generic("echo", "echo", "1.0",
                             "m" + std::to_string(nargs), args);
}

// Baseline: kFanClients routers multiplexed onto ONE event loop, calling
// the echo server over sTCP. Aggregate XRLs/s across all clients.
double run_fanout_single_loop(ipc::Plexus& plexus, ipc::XrlRouter** clients,
                              int nargs) {
    const xrl::Xrl call = fan_call(nargs);
    struct Pipe {
        int sent = 0;
        int completed = 0;
        bool pumping = false;
        std::function<void()> pump;
    };
    std::vector<Pipe> pipes(kFanClients);
    int total = 0;
    auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < kFanClients; ++c) {
        clients[c]->set_preferred_family("stcp");
        Pipe& p = pipes[c];
        ipc::XrlRouter& xr = *clients[c];
        p.pump = [&p, &xr, &total, call] {
            if (p.pumping) return;
            p.pumping = true;
            while (p.sent - p.completed < kPipeline &&
                   p.sent < kTransaction) {
                ++p.sent;
                xr.send(call, [&p, &total](const xrl::XrlError& err,
                                           const xrl::XrlArgs&) {
                    if (!err.ok())
                        std::fprintf(stderr, "fanout XRL failed: %s\n",
                                     err.str().c_str());
                    ++p.completed;
                    ++total;
                    p.pump();
                });
            }
            p.pumping = false;
        };
        p.pump();
    }
    plexus.loop.run_until(
        [&] { return total >= kFanClients * kTransaction; },
        std::chrono::seconds(300));
    auto elapsed = std::chrono::steady_clock::now() - start;
    return static_cast<double>(total) /
           std::chrono::duration<double>(elapsed).count();
}

// The parallel shape: the server on its own ComponentThread, each client
// on its own ComponentThread, every call crossing the xring rings. The
// main thread only watches atomics.
double run_fanout_threaded(ev::RealClock& clock, int nargs) {
    ipc::Plexus plexus(clock);
    rtrmgr::ComponentThread server_thread(clock);
    ipc::XrlRouter server(plexus, server_thread.loop(), "echo", true);
    server.add_handler("echo/1.0/m" + std::to_string(nargs),
                       [](const xrl::XrlArgs&, xrl::XrlArgs&) {
                           return xrl::XrlError::okay();
                       });
    server.finalize();
    server_thread.start();

    struct Client {
        Client(ipc::Plexus& plexus, ev::Clock& clock, int idx)
            : thread(clock),
              router(plexus, thread.loop(),
                     "fan-client-" + std::to_string(idx)) {
            router.finalize();
            thread.start();
        }
        rtrmgr::ComponentThread thread;
        ipc::XrlRouter router;
        // sent/pumping live on the client thread; completed is the
        // cross-thread progress mirror the main thread polls.
        int sent = 0;
        bool pumping = false;
        std::function<void()> pump;
        std::atomic<int> completed{0};
    };
    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < kFanClients; ++c)
        clients.push_back(std::make_unique<Client>(plexus, clock, c));

    const xrl::Xrl call = fan_call(nargs);
    auto start = std::chrono::steady_clock::now();
    for (auto& cp : clients) {
        Client& c = *cp;
        c.thread.post([&c, call] {
            c.pump = [&c, call] {
                if (c.pumping) return;
                c.pumping = true;
                while (c.sent -
                               c.completed.load(std::memory_order_relaxed) <
                           kPipeline &&
                       c.sent < kTransaction) {
                    ++c.sent;
                    c.router.send(call, [&c](const xrl::XrlError& err,
                                             const xrl::XrlArgs&) {
                        if (!err.ok())
                            std::fprintf(stderr, "fanout XRL failed: %s\n",
                                         err.str().c_str());
                        c.completed.fetch_add(1, std::memory_order_relaxed);
                        c.pump();
                    });
                }
                c.pumping = false;
            };
            c.pump();
        });
    }
    auto done = [&] {
        int total = 0;
        for (auto& c : clients)
            total += c->completed.load(std::memory_order_relaxed);
        return total;
    };
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(300);
    while (done() < kFanClients * kTransaction &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto elapsed = std::chrono::steady_clock::now() - start;
    double rate = static_cast<double>(done()) /
                  std::chrono::duration<double>(elapsed).count();
    for (auto& c : clients) c->thread.stop_and_join();
    server_thread.stop_and_join();
    return rate;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
    // xring frames are allocated on the sender thread and freed on the
    // receiver; one shared malloc arena avoids cross-thread arena growth
    // (see bench_route_latency for the measured effect).
    mallopt(M_ARENA_MAX, 1);
#endif
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;

    // Measure the transports themselves; the cost of turning telemetry on
    // is bench_telemetry_overhead's subject.
    telemetry::set_enabled(false);

    ev::RealClock clock;
    ipc::Plexus plexus(clock);
    EchoServer server(plexus);
    ipc::XrlRouter client(plexus, "bench-client");
    client.finalize();

    std::printf("# Figure 9: XRL performance for various communication "
                "families\n");
    std::printf("# transaction=%d XRLs, pipeline window=%d (UDP family is "
                "stop-and-wait by design)\n",
                kTransaction, kPipeline);
    bench::Report report("xrl_throughput");
    report.set_meta("transaction", json::Value(kTransaction));
    report.set_meta("pipeline", json::Value(kPipeline));
    report.set_meta("quick", json::Value(quick));
    std::printf("%-6s %12s %12s %12s\n", "nargs", "IntraProcess", "TCP",
                "UDP");
    for (int nargs = 0; nargs <= 25; nargs += quick ? 25 : 2) {
        double intra = run_transaction(plexus, client, "inproc", nargs);
        double tcp = run_transaction(plexus, client, "stcp", nargs);
        double udp = run_transaction(plexus, client, "sudp", nargs);
        std::printf("%-6d %12.0f %12.0f %12.0f\n", nargs, intra, tcp, udp);
        std::fflush(stdout);
        json::Value& row = report.add_row();
        row.set("nargs", json::Value(nargs));
        row.set("inproc_xrls_per_s", json::Value(intra));
        row.set("stcp_xrls_per_s", json::Value(tcp));
        row.set("sudp_xrls_per_s", json::Value(udp));
    }
    std::printf("# paper shape: intra ~12000/s at 0 args; TCP converges to "
                "intra at high arg counts; UDP well below (no pipelining)\n");

    // ---- parallel control plane: 4-way fan-out ------------------------
    const int fan_nargs = 4;
    std::printf("\n# 4-way fan-out, %d XRLs per client, %d args\n",
                kTransaction, fan_nargs);
    ipc::XrlRouter* fan_clients[kFanClients];
    std::vector<std::unique_ptr<ipc::XrlRouter>> fan_owned;
    for (int c = 0; c < kFanClients; ++c) {
        fan_owned.push_back(std::make_unique<ipc::XrlRouter>(
            plexus, "fan-base-" + std::to_string(c)));
        fan_owned.back()->finalize();
        fan_clients[c] = fan_owned.back().get();
    }
    double base = run_fanout_single_loop(plexus, fan_clients, fan_nargs);
    double threaded = run_fanout_threaded(clock, fan_nargs);
    double speedup = base > 0 ? threaded / base : 0;
    std::printf("%-22s %12.0f aggregate XRLs/s\n", "single-loop stcp", base);
    std::printf("%-22s %12.0f aggregate XRLs/s (%.2fx)\n", "threaded xring",
                threaded, speedup);
    json::Value& brow = report.add_row();
    brow.set("figure", json::Value("fanout_4way"));
    brow.set("mode", json::Value("single_loop_stcp"));
    brow.set("clients", json::Value(kFanClients));
    brow.set("nargs", json::Value(fan_nargs));
    brow.set("aggregate_xrls_per_s", json::Value(base));
    json::Value& trow = report.add_row();
    trow.set("figure", json::Value("fanout_4way"));
    trow.set("mode", json::Value("threaded_xring"));
    trow.set("clients", json::Value(kFanClients));
    trow.set("nargs", json::Value(fan_nargs));
    trow.set("aggregate_xrls_per_s", json::Value(threaded));
    trow.set("speedup_vs_single_loop", json::Value(speedup));
    // The gate needs a core per client thread to mean anything; on a
    // smaller host it is reported as not evaluated rather than passed.
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < 4) {
        std::printf("# gate: threaded xring >= 2x single-loop stcp aggregate "
                    "not evaluated (%u cores < 4)\n",
                    cores);
        return 0;
    }
    const bool pass = speedup >= 2.0;
    std::printf("# gate: threaded xring >= 2x single-loop stcp aggregate: "
                "%s (%.2fx)\n",
                pass ? "pass" : "FAIL", speedup);
    return pass ? 0 : 1;
}
