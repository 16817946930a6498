// Structured event journal: the process's one event recorder, and the
// observability spine of the scenario harness. Components append typed,
// monotonic-timestamped records — route install/withdraw, FIB write, LSA
// flood, supervisor death/restart/breaker, injected fault, XRL
// retry/failover — and the convergence analyzer replays them to
// reconstruct what the network was doing in between the moments a test
// happened to look. The §8.2 profiling points of Figs 10–12 are records
// too (the trace kinds), and every record made under a trace carries its
// id and hop (telemetry/trace.hpp), so a traced route's route_install and
// fib_add share a timeline with its bgp_in and kernel_in.
//
// Two switches stay: a journal kind is recorded only while this journal
// is enabled, a trace kind only under a trace, which exists only while
// trace roots are on. The scenario runner journals with roots off (per-XRL
// events would crowd its ring); the Figs 10–12 bench traces with the
// journal off (its records would fall inside the measured intervals).
//
// Same discipline as the metrics registry: process-global singleton,
// disabled by default, and the disabled hot path is one relaxed atomic
// load plus a branch (`journal_enabled()` or `tracing_enabled()`), so
// instrumented code costs nothing when nobody is watching. Callers pass
// their own loop's timestamp — in a multi-router simulation every
// component runs on one VirtualClock loop, so journal order and
// timestamp order agree.
//
// Threading: record()/events()/clear() are safe from any thread — every
// ring mutation happens under one mutex, and seq numbers stay globally
// ordered under concurrent producers (the 4-thread hammer test pins
// this). When journal order must be isolated per unit of work instead
// of interleaved — scenario_runner running matrix cells on a thread
// pool — a thread installs its own Journal with set_thread_override();
// instrumented code reaches the journal through Journal::current(), so
// everything that thread's cell does lands in the cell's journal while
// other threads keep writing to their own (or the global one).
#ifndef XRP_TELEMETRY_JOURNAL_HPP
#define XRP_TELEMETRY_JOURNAL_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ev/clock.hpp"
#include "telemetry/trace.hpp"

namespace xrp::telemetry {

enum class JournalKind : uint8_t {
    kRouteInstall,   // RIB accepted a route          subject=prefix detail=proto:nexthop value=metric
    kRouteWithdraw,  // RIB removed a route           subject=prefix detail=proto
    kFibAdd,         // FEA wrote a forwarding entry  subject=prefix detail=nexthop:ifname
    kFibDelete,      // FEA removed an entry          subject=prefix
    kLsaFlood,       // OSPF (re)flooded an LSA       subject=lsa key detail=ifname value=seqno
    kDeath,          // supervisor observed a death   subject=component detail=reason
    kRestart,        // supervisor restarted it       subject=component value=attempt
    kBreakerTrip,    // restart breaker gave up       subject=component value=attempts
    kFaultInjected,  // injector perturbed a send     subject=target detail=action
    kCallRetry,      // reliable call re-sent         subject=target detail=method value=attempt
    kCallFailover,   // reliable call switched ep     subject=target detail=method
    kProcessOutput,  // child process wrote a line    subject=component detail=line
    kProcessExit,    // child process was reaped      subject=component detail=status value=pid
    // Trace kinds: the §8.2 profiling points, recorded under a trace.
    kSend,           // XRL layer sent an attempt     subject=target/method detail=family
    kDispatch,       // XRL layer dispatched a call   subject=method detail=family
    kBgpIn,          // UPDATE route entered BGP      subject=prefix detail=add|delete
    kBgpRibQueued,   // BGP queued it for the RIB     subject=prefix detail=add|delete
    kRibFeaQueued,   // RIB queued it for the FEA     subject=prefix detail=add|delete
    kKernelIn,       // FEA wrote it to the FIB       subject=prefix detail=add|delete
};

inline bool is_trace_kind(JournalKind k) { return k >= JournalKind::kSend; }

// Stable machine-readable name ("route_install", "fib_add", ...) used by
// the JSON-lines export and matched by the analyzer. Never renumber or
// rename: committed scenario output references these strings.
const char* journal_kind_name(JournalKind k);

struct JournalEvent {
    uint64_t seq = 0;     // global append order, never reused
    ev::TimePoint t{};    // caller's loop time at the hook site
    JournalKind kind = JournalKind::kRouteInstall;
    std::string node;       // router identity ("r12"), empty if unbound
    std::string component;  // "rib", "fea", "ospf", "supervisor", ...
    std::string subject;    // what it happened to (prefix, LSA, target)
    std::string detail;     // free-form qualifier (nexthop, reason, action)
    int64_t value = 0;      // numeric payload (metric, attempt, seqno)
    uint64_t trace = 0;     // trace the record was made under; 0 = none
    uint32_t hop = 0;       // that trace's hop count

    // One compact JSON object, no trailing newline.
    std::string to_json() const;
};

namespace detail {
// Count of currently-enabled Journal instances. The hot-path guard at
// hook sites is "is ANY journal on?" — one relaxed load, no mutex. It
// can be true when only some other thread's journal is recording; the
// per-instance flag inside record() settles it, so a pool cell turning
// its private journal off can never silence a concurrent cell's.
inline std::atomic<int> g_journal_enabled_count{0};
}  // namespace detail

inline bool journal_enabled() {
    return detail::g_journal_enabled_count.load(std::memory_order_relaxed) > 0;
}

class Journal {
public:
    static constexpr size_t kDefaultCapacity = 1 << 16;

    static Journal& global();

    // The journal instrumented code should append to: the calling
    // thread's override when one is installed, else the global journal.
    static Journal& current();
    // Installs `j` as this thread's journal (nullptr restores the
    // global). Returns the previous override so scopes can nest.
    static Journal* set_thread_override(Journal* j);

    // Public constructor: scenario cells build private journals and
    // install them per worker thread via set_thread_override().
    Journal() { ring_.reserve(kDefaultCapacity); }
    // Balances the enabled-journal count if an owner forgets to disable.
    ~Journal() { set_enabled(false); }
    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    // Per-instance: enabling/disabling this journal never affects what
    // another thread's journal records. Idempotent.
    void set_enabled(bool on);
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    // Resize the bounded ring; keeps the newest events that fit.
    void set_capacity(size_t cap);
    size_t capacity() const;

    // Append one event under the current trace context. A journal kind
    // is a no-op while disabled, a trace kind outside a trace (hooks
    // additionally guard with journal_enabled() / tracing_enabled() so
    // argument construction is skipped too).
    void record(ev::TimePoint t, JournalKind kind, std::string_view node,
                std::string_view component, std::string_view subject,
                std::string_view detail = {}, int64_t value = 0);

    // Snapshot of retained events in append order (oldest first).
    std::vector<JournalEvent> events() const;
    size_t event_count() const;

    // Events evicted by the bounded ring since the last clear().
    uint64_t dropped() const;

    void clear();

    // JSON-lines export: one event per line, oldest first.
    std::string to_jsonl() const;

private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<JournalEvent> ring_;  // circular once full
    size_t cap_ = kDefaultCapacity;
    size_t head_ = 0;    // index of oldest event once wrapped
    bool wrapped_ = false;
    uint64_t next_seq_ = 1;
    uint64_t dropped_ = 0;
};

// Records one per-route profiling point (kBgpIn, kBgpRibQueued,
// kRibFeaQueued, kKernelIn) under the current trace. While trace roots
// are off the whole call is one relaxed atomic load; outside a trace it
// records nothing.
template <class Net>
inline void trace_route(ev::Clock& clock, JournalKind kind,
                        std::string_view node, std::string_view component,
                        bool is_add, const Net& net) {
    if (!tracing_enabled() || !current_trace().valid()) return;
    Journal::current().record(clock.now(), kind, node, component, net.str(),
                              is_add ? "add" : "delete");
}

}  // namespace xrp::telemetry

#endif
