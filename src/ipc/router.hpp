// XrlRouter: the per-component IPC facade (what XORP calls by the same
// name). A component creates one router, declares its interfaces and
// handlers, enables the transports it wants to be reachable over, and
// finalizes — which registers everything with the Finder and makes the
// component addressable. Outbound, the router resolves generic XRLs
// through the Finder (with a client-side cache invalidated on Finder
// push), picks a protocol family, and sends.
//
// Plexus bundles the three singletons a "router process" shares: the
// event loop, the Finder, and the intra-process endpoint registry. One
// Plexus ~= one XORP router instance; tests build several in one address
// space to simulate multi-router topologies.
#ifndef XRP_IPC_ROUTER_HPP
#define XRP_IPC_ROUTER_HPP

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ev/eventloop.hpp"
#include "finder/finder.hpp"
#include "ipc/call.hpp"
#include "ipc/dispatcher.hpp"
#include "ipc/fault.hpp"
#include "ipc/intra.hpp"
#include "ipc/tcp.hpp"
#include "ipc/udp.hpp"
#include "ipc/xring.hpp"

namespace xrp::ipc {

class FinderClient;  // blocking remote-Finder RPC (finder_client.hpp)

struct Plexus {
    explicit Plexus(ev::Clock& clock)
        : owned_loop_(std::make_unique<ev::EventLoop>(clock)),
          loop(*owned_loop_) {
        init();
    }
    // Shares an external loop: several Plexuses (= several simulated
    // router hosts) can then run in one simulation on one virtual clock.
    explicit Plexus(ev::EventLoop& shared_loop) : loop(shared_loop) {
        init();
    }

    std::unique_ptr<ev::EventLoop> owned_loop_;
    ev::EventLoop& loop;
    finder::Finder finder;
    IntraProcessRegistry intra;
    // Cross-thread in-process family: components whose home loop runs on
    // its own thread register here and reach each other over SPSC rings.
    XringHub xring;
    // Chaos hook: every outbound XRL dispatch of every router in this
    // Plexus passes through the injector (inert until given a plan).
    FaultInjector faults;
    // Escape hatch for experiments: when false, call() degrades to the
    // legacy fire-once send with no timeout, retry, or failover — the
    // baseline the chaos tests compare the contract against.
    bool reliability_enabled = true;
    // Router identity ("r12") stamped on journal events emitted by this
    // Plexus's components; empty when the simulation has a single router.
    std::string node;
    // Remote-Finder mode: when set ("127.0.0.1:port" of the master
    // process's Finder face), this Plexus belongs to a CHILD PROCESS of a
    // multi-process router. Its local `finder` member stays empty; every
    // XrlRouter instead registers and resolves through a FinderClient
    // aimed here, and components are reachable over stcp/sudp only.
    std::string finder_address;

private:
    void init() {
        faults.bind_loop(&loop);
        faults.configure_from_env();
    }
};

class XrlRouter {
public:
    // `cls` is the component class ("bgp", "rib", ...). With `sole`, a
    // second instance of the class is refused by the Finder.
    XrlRouter(Plexus& plexus, std::string cls, bool sole = false);
    // Threaded variant: the component lives on `home` — its own event
    // loop, typically run by its own thread (rtrmgr::ComponentThread).
    // All call-contract timers run on the home loop, inproc (synchronous
    // direct dispatch) is NOT offered, and the component is reachable
    // over "xring" instead: same-process callers on other threads talk to
    // it through lock-free SPSC rings.
    XrlRouter(Plexus& plexus, ev::EventLoop& home, std::string cls,
              bool sole = false);
    ~XrlRouter();
    XrlRouter(const XrlRouter&) = delete;
    XrlRouter& operator=(const XrlRouter&) = delete;

    // ---- receiver side -------------------------------------------------
    void add_interface(xrl::InterfaceSpec spec) {
        dispatcher_.add_interface(std::move(spec));
    }
    void add_handler(const std::string& full_method, MethodHandler h) {
        dispatcher_.add_handler(full_method, std::move(h));
    }
    void add_async_handler(const std::string& full_method,
                           AsyncMethodHandler h) {
        dispatcher_.add_async_handler(full_method, std::move(h));
    }

    // Transports this component is reachable over. Intra-process is
    // enabled whenever the component shares the Plexus loop; TCP/UDP
    // listeners are created on demand. enable_xring() additionally offers
    // the SPSC-ring family (implied — and inproc dropped — when the
    // component has its own home loop; explicit for same-loop components
    // that want to be reachable from threaded peers or benchmarks).
    void enable_tcp();
    void enable_udp();
    void enable_xring() { xring_enabled_ = true; }

    // Registers target + methods with the Finder. Call after all handlers
    // are added; later-added handlers are registered incrementally.
    bool finalize();
    bool finalized() const { return finalized_; }

    const std::string& instance() const { return instance_; }
    Plexus& plexus() { return plexus_; }
    // True when this router registers/resolves through a remote master
    // Finder (plexus.finder_address set) instead of the local one.
    bool remote() const { return !plexus_.finder_address.empty(); }
    // The stcp listen address ("127.0.0.1:port"), empty unless
    // enable_tcp() succeeded. The Router Manager passes its Finder face's
    // address to child processes through this.
    std::string tcp_address() const;
    // The component's home loop: plexus.loop unless constructed with an
    // explicit one. Everything the router schedules runs here.
    ev::EventLoop& loop() { return home_loop_; }
    bool threaded() const { return &home_loop_ != &plexus_.loop; }

    // ---- sender side -----------------------------------------------------
    // The reliable call contract (see ipc/call.hpp): resolves, dispatches,
    // enforces the per-attempt timeout and overall deadline through the
    // event loop (uniformly across inproc/stcp/sudp), fails over across
    // preference-ordered resolutions, retries with backoff when the
    // options permit, and reports targets dead to the Finder when hard
    // transport failures exhaust the contract. `done` fires exactly once.
    // Returns false (and does not fire `done`) only on gross misuse.
    bool call(const xrl::Xrl& xrl, const CallOptions& opts,
              ResponseCallback done);

    // Compatibility wrapper: call() under CallOptions::defaults().
    bool send(const xrl::Xrl& xrl, ResponseCallback done) {
        return call(xrl, CallOptions::defaults(), done);
    }

    // One-way notification: the caller has no failure handling, but
    // failures are never silent — they are counted
    // (xrl_ignored_errors_total) and logged with the caller, target, and
    // error so dropped notifications show up in triage instead of
    // vanishing. Replaces the old send_ignore().
    //
    // One-way calls to the same target are serialized through an output
    // queue: at most one is on the wire at a time, the next starts when it
    // completes. Two reasons. First, a bulk stream (a full-table FIB
    // download is ~146k pushes) must not pile up inside a pipelined
    // channel faster than the receiver drains it — with minutes of queued
    // work behind it, every call would blow its per-attempt timer while
    // queued and the retries would amplify the very backlog that caused
    // them. Second, the queue keeps one-way streams FIFO per target even
    // across retries: an add can never overtake the delete ahead of it.
    // A call's deadline starts when it is dequeued, not when it is queued
    // (the queue is a send buffer, not part of the call).
    void call_oneway(const xrl::Xrl& xrl,
                     const CallOptions& opts = CallOptions::defaults());

    // Runs `fn` once the one-way queue to `target` is next empty with no
    // call on the wire: every one-way call queued before this one has
    // completed. Runs it at once when nothing is queued.
    void when_oneway_idle(const std::string& target, std::function<void()> fn);

    // Force every outbound call onto one family (benchmarks use this to
    // compare transports); empty string restores automatic choice.
    void set_preferred_family(std::string family) {
        preferred_family_ = std::move(family);
    }

    XrlDispatcher& dispatcher() { return dispatcher_; }

    size_t resolution_cache_size() const {
        std::lock_guard<std::mutex> lk(resolve_mu_);
        return resolve_cache_.size();
    }

    // Debug introspection for stall diagnosis.
    std::string debug_state() const;

private:
    struct CallState;  // one in-flight reliable call (defined in .cpp)

    // Returns the full preference-ordered resolution list, by value: the
    // cache behind it is shared with the Finder's invalidation listener
    // (which may run from another thread), so callers get a snapshot
    // instead of a pointer into a map another thread may mutate.
    std::optional<std::vector<finder::Resolution>> resolve(
        const xrl::Xrl& xrl, xrl::XrlError* err);
    void invalidate_cached(const xrl::Xrl& xrl);
    // finalize() when plexus.finder_address is set: register target and
    // methods with the master process's Finder over stcp.
    bool finalize_remote();

    // Call-contract state machine.
    void begin_cycle(const std::shared_ptr<CallState>& st);
    void start_attempt(const std::shared_ptr<CallState>& st);
    void on_response(const std::shared_ptr<CallState>& st, uint64_t gen,
                     const xrl::XrlError& err, const xrl::XrlArgs& args);
    void on_attempt_timeout(const std::shared_ptr<CallState>& st,
                            uint64_t gen);
    void handle_attempt_failure(const std::shared_ptr<CallState>& st,
                                const xrl::XrlError& err,
                                bool may_have_executed);
    void finish_call(const std::shared_ptr<CallState>& st,
                     const xrl::XrlError& err, const xrl::XrlArgs& args);
    ev::Duration backoff_for(const RetryPolicy& p, uint32_t cycle);
    uint64_t rnd();

    // Per-target one-way output queue (see call_oneway).
    struct OnewayQueue {
        std::deque<std::pair<xrl::Xrl, CallOptions>> q;
        bool in_flight = false;
        bool pumping = false;  // re-entrancy guard: inproc completes inline
        std::vector<std::function<void()>> idle_waiters;
    };
    void pump_oneway(const std::string& target);

    // Legacy fire-once path (reliability_enabled == false).
    bool send_unreliable(const xrl::Xrl& xrl, ResponseCallback done);

    // dispatch_via threads the send through the Plexus fault injector
    // (when active) before dispatch_raw performs the family dispatch.
    void dispatch_via(const std::string& target,
                      const finder::Resolution& res, const xrl::XrlArgs& args,
                      ResponseCallback done);
    void dispatch_raw(const finder::Resolution& res, const xrl::XrlArgs& args,
                      ResponseCallback done);

    Plexus& plexus_;
    // The loop the component lives on; == plexus_.loop unless the threaded
    // ctor was used. All timers, dispatches, and callbacks run here.
    ev::EventLoop& home_loop_;
    std::string cls_;
    std::string instance_;
    std::string secret_;  // §7 caller-authentication secret from the Finder
    bool sole_;
    bool finalized_ = false;
    bool xring_enabled_ = false;
    bool intra_registered_ = false;
    XrlDispatcher dispatcher_;

    std::unique_ptr<TcpListener> tcp_listener_;
    std::unique_ptr<UdpListener> udp_listener_;
    std::unique_ptr<XringPort> xring_port_;
    // Remote mode only: the blocking line to the master Finder. Used from
    // the home loop thread (registration at finalize, resolution-cache
    // misses, death reports, unregistration at destruction).
    std::unique_ptr<FinderClient> finder_client_;

    std::map<std::string, std::unique_ptr<TcpChannel>> tcp_channels_;
    std::map<std::string, std::unique_ptr<UdpChannel>> udp_channels_;
    std::map<std::string, std::unique_ptr<XringChannel>> xring_channels_;

    std::map<std::string, OnewayQueue> oneway_queues_;

    // target + full_method -> resolutions (preference-ordered). Guarded by
    // resolve_mu_: the Finder's invalidation push may arrive from the
    // registering component's thread, not ours. Never held across a Finder
    // call (the Finder has its own lock; fixed order avoids deadlock).
    mutable std::mutex resolve_mu_;
    std::map<std::string, std::vector<finder::Resolution>> resolve_cache_;
    uint64_t invalidate_listener_id_ = 0;
    std::string preferred_family_;
    // Backoff-jitter PRNG. Seeded deterministically per router so chaos
    // runs replay; calls are serialized by the single-threaded loop.
    uint64_t prng_ = 0;
};

}  // namespace xrp::ipc

#endif
