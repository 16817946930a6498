// The one per-route event recorder, and the home of the paper's §8.2
// profiling points. Figures 10–12 follow one route's journey through
// eight points across three processes; here a trace id plus hop count
// rides along with every XRL request (an optional trailer in the binary
// wire format), so any causally-linked chain of calls — BGP → RIB → FEA
// for a route add — can be reassembled afterwards as one trace with
// per-hop timestamps, whatever mixture of protocol families the hops
// used. The XRL layer stamps "send" and "dispatch" events; components
// stamp the points between hops with trace_route() (below).
//
// Mechanics: a thread_local "current context" holds the trace the code is
// executing under. XrlRouter::send starts a new trace when none is active
// (and tracing is enabled); each transport embeds {id, hop+1} in the
// request; each receiver scopes the carried context around its dispatch,
// so nested sends inherit the id and deepen the hop count. Event loops are
// single-threaded, so thread_local is exactly "this component's stack".
//
// When tracing is disabled (the default), the only cost at every site is
// one relaxed atomic load (tracing_enabled()).
#ifndef XRP_TELEMETRY_TRACE_HPP
#define XRP_TELEMETRY_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ev/clock.hpp"

namespace xrp::telemetry {

namespace detail {
// Mirror of Tracer::global().enabled(). Hot paths gate on this single
// relaxed load instead of paying the singleton's init guard plus the
// thread-local context read on every call.
inline std::atomic<bool> g_tracing{false};
}  // namespace detail

inline bool tracing_enabled() {
    return detail::g_tracing.load(std::memory_order_relaxed);
}

struct TraceContext {
    uint64_t trace_id = 0;  // 0 = not tracing
    uint32_t hop = 0;
    bool valid() const { return trace_id != 0; }
    TraceContext next_hop() const { return {trace_id, hop + 1}; }
};

struct TraceEvent {
    uint64_t trace_id = 0;
    uint32_t hop = 0;
    ev::TimePoint t{};
    std::string point;   // "send" | "dispatch" | a profiling point
    std::string detail;  // e.g. "stcp rib/1.0/add_route", "add 10.0.1.0/24"
};

class Tracer {
public:
    Tracer() = default;
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    static Tracer& global();

    // ---- current context (per-thread = per-event-loop) -----------------
    static TraceContext current() { return current_; }

    // RAII: installs `ctx` as current for the receiver-side dispatch (or a
    // nested send chain), restoring the previous context on destruction.
    class Scope {
    public:
        explicit Scope(TraceContext ctx) : saved_(current_) {
            current_ = ctx;
        }
        ~Scope() { current_ = saved_; }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        TraceContext saved_;
    };

    // ---- control --------------------------------------------------------
    void set_enabled(bool on) {
        enabled_.store(on, std::memory_order_relaxed);
        if (this == &global())
            detail::g_tracing.store(on, std::memory_order_relaxed);
    }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    // Allocates a fresh root context (hop 0). Only meaningful while
    // enabled; callers guard on enabled() first.
    TraceContext begin_trace() {
        return {next_id_.fetch_add(1, std::memory_order_relaxed), 0};
    }

    // ---- recording ------------------------------------------------------
    // Stores an event in the bounded ring; no-op when disabled or when the
    // context is invalid.
    void record(const TraceContext& ctx, ev::TimePoint t, std::string point,
                std::string detail);

    // Ring capacity; shrinking drops the oldest events.
    void set_capacity(size_t cap);
    size_t capacity() const { return capacity_; }

    // ---- extraction -----------------------------------------------------
    // Events in arrival order (oldest first).
    std::vector<TraceEvent> events() const;
    // Events of one trace, in arrival order.
    std::vector<TraceEvent> events_for(uint64_t trace_id) const;
    size_t event_count() const;
    uint64_t dropped() const {
        return dropped_.load(std::memory_order_relaxed);
    }
    void clear();

    // Text dump, one line per event:
    //   trace=<id> hop=<n> t=<ns> <point> <detail>
    std::string format() const;

    // Machine-readable dump: one JSON object per line, same event order —
    //   {"trace":<id>,"hop":<n>,"t_ns":<ns>,"point":"...","detail":"..."}
    // What the scenario runner and the route-journey assertions consume.
    std::string format_jsonl() const;

private:
    // Defined inline so every translation unit sees its constant
    // initializer and reads it directly, not through a TLS init wrapper
    // (which UBSan misreports as a store to a null pointer).
    static inline thread_local TraceContext current_{};

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> next_id_{1};
    std::atomic<uint64_t> dropped_{0};

    mutable std::mutex mu_;  // ring ops; uncontended in single-loop use
    std::vector<TraceEvent> ring_;
    size_t head_ = 0;  // index of oldest when full
    size_t capacity_ = 65536;
};

// Records one per-route profiling point ("add 10.0.1.0/24") under the
// current trace. The Figs 10-12 points that are not XRL hops use it:
// bgp_in, bgp_rib_queued, rib_fea_queued and kernel_in. While tracing is
// off the whole call is one relaxed atomic load; outside a trace it
// records nothing.
template <class Net>
inline void trace_route(ev::Clock& clock, const char* point, bool is_add,
                        const Net& net) {
    if (!tracing_enabled()) return;
    const TraceContext ctx = Tracer::current();
    if (!ctx.valid()) return;
    Tracer::global().record(ctx, clock.now(), point,
                            (is_add ? "add " : "delete ") + net.str());
}

}  // namespace xrp::telemetry

#endif
