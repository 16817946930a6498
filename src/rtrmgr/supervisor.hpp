// Supervisor: the Router Manager's component watchdog.
//
// The paper's robustness story (§3, §9) depends on the multi-process
// decomposition actually being exploited: a crashed routing protocol must
// not take the router down, and the routes it contributed must not be
// yanked out of the FIB the instant it dies — BGP alone can take minutes
// to relearn a full table. The Supervisor closes that loop:
//
//   - liveness: each supervised component is probed over common/0.1
//     get_status on a period; the reliable call contract converts a dead
//     channel into a Finder death report, and the Supervisor consumes the
//     Finder's death notifications (one watch on "*") for everyone else's
//     reports too.
//
//   - graceful restart: on death the Supervisor tells the RIB (over
//     rib/1.0) to mark the component's origins stale instead of deleting
//     them, restarts the component after an exponential backoff, reports
//     it revived (stopping the RIB's grace clock), waits for the
//     component's resync predicate, and finally reports resync complete —
//     at which point the RIB sweeps whatever the revived protocol did not
//     re-advertise.
//
//   - crash-loop breaker: a component that dies `breaker_threshold` times
//     inside `breaker_window` is marked kFailed and left down; its routes
//     age out through the RIB's grace timer. kFailed is surfaced through
//     any_failed()/failed() — the Router Manager refuses config commits
//     until an operator acknowledges via clear_failed(), which re-arms
//     the breaker and retries the restart.
//
// State machine per component:
//
//   kAlive --death--> kDead --backoff--> kRestarting --restart()-->
//   kResync --resynced() + settle--> kAlive
//     \--N deaths in window--> kFailed --clear_failed()--> kDead
//
// Death notifications provoked by our own restart (destroying the old
// XrlRouter unregisters it) are ignored: only deaths in kAlive count.
#ifndef XRP_RTRMGR_SUPERVISOR_HPP
#define XRP_RTRMGR_SUPERVISOR_HPP

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ipc/router.hpp"
#include "telemetry/metrics.hpp"

namespace xrp::rtrmgr {

class Supervisor {
public:
    enum class State { kAlive, kDead, kRestarting, kResync, kFailed };

    struct Spec {
        // Finder target class of the supervised component ("rip").
        std::string cls;
        // RIB origin protocols this component feeds ("rip"; bgp feeds
        // both "ebgp" and "ibgp").
        std::vector<std::string> protocols;
        // Destroys the dead component's objects and builds fresh ones,
        // re-applying the running configuration. Must leave the new
        // instance registered with the Finder.
        std::function<void()> restart;
        // True once the restarted component has relearned its state well
        // enough that unrefreshed RIB routes are genuinely gone.
        std::function<bool()> resynced;
        // Process backend (optional) — hitless binary upgrade hooks.
        // spawn_replacement() starts a NEW instance of the component
        // while the old one is still alive and serving; retire_old()
        // gracefully stops the pre-upgrade instance once the replacement
        // has resynced. Both set => upgrade(cls) is available.
        std::function<void()> spawn_replacement;
        std::function<void()> retire_old;
        // Process backend (optional): death filter. The Finder's death
        // watch reports (cls, instance); with multiple coexisting
        // instances of a class (mid-upgrade, or a corpse whose name was
        // never unregistered) only the ACTIVE instance's death may drive
        // the state machine — a retired process's orderly departure must
        // not look like a crash. Unset = every instance counts (the
        // in-process backends are sole-instance).
        std::function<bool(const std::string& instance)> owns_instance;

        ev::Duration probe_interval = std::chrono::seconds(5);
        ev::Duration backoff_initial = std::chrono::milliseconds(500);
        ev::Duration backoff_max = std::chrono::seconds(30);
        // Breaker: this many deaths within the window trips kFailed.
        int breaker_threshold = 4;
        ev::Duration breaker_window = std::chrono::seconds(60);
        // After resynced() first returns true, wait this long before
        // telling the RIB to sweep — in-flight re-adds (a BGP table dump
        // still draining through the pipes) must land first, or the
        // sweeper would reap routes that were about to be refreshed.
        ev::Duration resync_settle = std::chrono::seconds(3);
        // Backstop: a resync that never completes (predicate never true)
        // is declared done after this long, letting the sweep reclaim the
        // stale routes rather than preserving them forever.
        ev::Duration resync_timeout = std::chrono::seconds(60);
    };

    // `xr` is the Router Manager's own XrlRouter: probes and RIB
    // notifications go out through it. Both must outlive the Supervisor.
    Supervisor(ipc::Plexus& plexus, ipc::XrlRouter& xr);
    ~Supervisor();
    Supervisor(const Supervisor&) = delete;
    Supervisor& operator=(const Supervisor&) = delete;

    void supervise(Spec spec);
    bool supervising(const std::string& cls) const {
        return components_.count(cls) != 0;
    }

    State state(const std::string& cls) const;
    uint64_t restart_count(const std::string& cls) const;
    uint64_t upgrade_count(const std::string& cls) const;
    bool upgrading(const std::string& cls) const;
    bool any_failed() const;
    std::vector<std::string> failed() const;
    // Operator acknowledgment of a tripped breaker: clears the death
    // history and immediately schedules another restart attempt.
    void clear_failed(const std::string& cls);

    // Hitless binary upgrade (process backend). Choreography:
    //   1. origin_dead + origin_revived to the RIB — every route the
    //      component contributed is stale-stamped (new refresh
    //      generation) but the grace clock never runs: the old instance
    //      is still alive and forwarding state stays put.
    //   2. spawn_replacement() — the new binary boots, registers with the
    //      Finder (sole=false: both instances coexist), and re-feeds its
    //      table; every push lands as a refresh against the new
    //      generation.
    //   3. resync wait (spec.resynced + settle), then origin_resynced —
    //      the StaleSweeperStage reaps exactly the unrefreshed tail:
    //      routes the new binary no longer advertises.
    //   4. retire_old() — the pre-upgrade process exits cleanly; its
    //      departure is filtered by owns_instance and never counts as a
    //      death.
    // Returns false unless the component is kAlive and both upgrade
    // hooks are set.
    bool upgrade(const std::string& cls);

    // Process-backend death entry point: the ProcessHost reaped the
    // component's ACTIVE process. A clean exit (code 0 — deliberate
    // retirement, operator stop) still restarts the component but never
    // counts toward the crash-loop breaker; a crash (signal / non-zero)
    // is a death like any other. A crash while kResync aborts the resync
    // and re-enters the death path (the replacement itself died).
    void notify_exit(const std::string& cls, bool clean);

private:
    struct Component {
        Spec spec;
        State state = State::kAlive;
        std::deque<ev::TimePoint> deaths;  // within breaker accounting
        uint32_t consecutive_failures = 0;  // resets on reaching kAlive
        uint64_t restarts = 0;
        uint64_t upgrades = 0;
        bool upgrade_in_progress = false;
        ev::Timer probe_timer;
        ev::Timer restart_timer;
        ev::Timer resync_poll;
        ev::Timer resync_deadline;
        ev::Timer settle_timer;
        bool probe_inflight = false;
        telemetry::Counter* deaths_total = nullptr;
        telemetry::Counter* restarts_total = nullptr;
    };

    // All supervisor state lives on the manager's home loop (== the Plexus
    // loop: the Router Manager's loop in every placement).
    ev::EventLoop& loop() { return xr_.loop(); }

    // `crashed` distinguishes a real crash (counts toward the breaker)
    // from a deliberate clean exit (restarts, but never trips it).
    void on_death(const std::string& cls, bool crashed = true);
    void schedule_restart(const std::string& cls);
    void do_restart(const std::string& cls);
    void begin_resync(const std::string& cls);
    void finish_resync(const std::string& cls);
    void start_probing(const std::string& cls);
    void probe(const std::string& cls);
    void notify_rib(const std::string& method, const Component& c);
    ev::Duration backoff_for(const Component& c) const;

    ipc::Plexus& plexus_;
    ipc::XrlRouter& xr_;
    uint64_t watch_id_ = 0;
    std::map<std::string, Component> components_;
    telemetry::Gauge* failed_gauge_ = nullptr;
};

}  // namespace xrp::rtrmgr

#endif
