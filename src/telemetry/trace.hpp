// Trace-context propagation, the causal half of the paper's §8.2
// profiler. Figures 10–12 follow one route's journey through eight
// points across three processes; here a trace id plus hop count rides
// along with every XRL request (an optional trailer in the binary wire
// format), so any causally-linked chain of calls — BGP → RIB → FEA for a
// route add — can be reassembled afterwards as one trace, whatever
// mixture of protocol families the hops used.
//
// The events themselves are journal records (telemetry/journal.hpp):
// the XRL layer records "send" and "dispatch", components record the
// points between hops with trace_route(), and every record made under a
// trace carries its id and hop. So one ring, one dump, one timeline.
//
// Mechanics: a thread_local "current context" holds the trace the code is
// executing under. XrlRouter::send starts a new trace when none is active
// (and trace roots are on); each transport embeds {id, hop+1} in the
// request; each receiver scopes the carried context around its dispatch,
// so nested sends inherit the id and deepen the hop count. Event loops are
// single-threaded, so thread_local is exactly "this component's stack".
//
// Trace roots (below) and the journal's enabled flag stay two switches
// because their callers need each without the other: the scenario
// runner journals with roots off, and the Figs 10–12 bench traces with
// the journal off (journal.hpp says why). While roots are off (the
// default), the only cost at every send site is one relaxed atomic load
// (tracing_enabled()).
#ifndef XRP_TELEMETRY_TRACE_HPP
#define XRP_TELEMETRY_TRACE_HPP

#include <atomic>
#include <cstdint>

namespace xrp::telemetry {

struct TraceContext {
    uint64_t trace_id = 0;  // 0 = not tracing
    uint32_t hop = 0;
    bool valid() const { return trace_id != 0; }
    TraceContext next_hop() const { return {trace_id, hop + 1}; }
};

namespace detail {
inline std::atomic<bool> g_tracing{false};
inline std::atomic<uint64_t> g_next_trace_id{1};
// Defined inline so every translation unit sees its constant initializer
// and reads it directly, not through a TLS init wrapper (which UBSan
// misreports as a store to a null pointer).
inline thread_local TraceContext g_current_trace{};
}  // namespace detail

// The root switch: while on, an XRL sent outside any trace, or a BGP
// UPDATE read off the wire, opens a new trace.
inline bool tracing_enabled() {
    return detail::g_tracing.load(std::memory_order_relaxed);
}
inline void set_tracing_enabled(bool on) {
    detail::g_tracing.store(on, std::memory_order_relaxed);
}

// The context the calling thread is executing under (per event loop).
inline TraceContext current_trace() { return detail::g_current_trace; }

// A fresh root context (hop 0). Callers guard on tracing_enabled().
inline TraceContext begin_trace() {
    return {detail::g_next_trace_id.fetch_add(1, std::memory_order_relaxed),
            0};
}

// RAII: installs `ctx` as current for the receiver-side dispatch (or a
// nested send chain), restoring the previous context on destruction.
class TraceScope {
public:
    explicit TraceScope(TraceContext ctx) : saved_(detail::g_current_trace) {
        detail::g_current_trace = ctx;
    }
    ~TraceScope() { detail::g_current_trace = saved_; }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

private:
    TraceContext saved_;
};

}  // namespace xrp::telemetry

#endif
