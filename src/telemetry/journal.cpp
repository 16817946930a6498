#include "telemetry/journal.hpp"

#include "telemetry/json.hpp"

namespace xrp::telemetry {

const char* journal_kind_name(JournalKind k) {
    switch (k) {
        case JournalKind::kRouteInstall: return "route_install";
        case JournalKind::kRouteWithdraw: return "route_withdraw";
        case JournalKind::kFibAdd: return "fib_add";
        case JournalKind::kFibDelete: return "fib_delete";
        case JournalKind::kLsaFlood: return "lsa_flood";
        case JournalKind::kDeath: return "death";
        case JournalKind::kRestart: return "restart";
        case JournalKind::kBreakerTrip: return "breaker_trip";
        case JournalKind::kFaultInjected: return "fault_injected";
        case JournalKind::kCallRetry: return "call_retry";
        case JournalKind::kCallFailover: return "call_failover";
        case JournalKind::kProcessOutput: return "process_output";
        case JournalKind::kProcessExit: return "process_exit";
        case JournalKind::kSend: return "send";
        case JournalKind::kDispatch: return "dispatch";
        case JournalKind::kBgpIn: return "bgp_in";
        case JournalKind::kBgpRibQueued: return "bgp_rib_queued";
        case JournalKind::kRibFeaQueued: return "rib_fea_queued";
        case JournalKind::kKernelIn: return "kernel_in";
    }
    return "unknown";
}

std::string JournalEvent::to_json() const {
    std::string out;
    out += "{\"seq\":";
    out += std::to_string(seq);
    out += ",\"t_ns\":";
    out += std::to_string(t.time_since_epoch().count());
    out += ",\"kind\":\"";
    out += journal_kind_name(kind);
    out += "\",\"node\":";
    json::escape_string(out, node);
    out += ",\"component\":";
    json::escape_string(out, component);
    out += ",\"subject\":";
    json::escape_string(out, subject);
    if (!detail.empty()) {
        out += ",\"detail\":";
        json::escape_string(out, detail);
    }
    if (value != 0) {
        out += ",\"value\":";
        out += std::to_string(value);
    }
    if (trace != 0) {
        out += ",\"trace\":";
        out += std::to_string(trace);
        out += ",\"hop\":";
        out += std::to_string(hop);
    }
    out += '}';
    return out;
}

Journal& Journal::global() {
    static Journal j;
    return j;
}

namespace {
thread_local Journal* g_journal_override = nullptr;
}  // namespace

Journal& Journal::current() {
    return g_journal_override != nullptr ? *g_journal_override : global();
}

Journal* Journal::set_thread_override(Journal* j) {
    Journal* prev = g_journal_override;
    g_journal_override = j;
    return prev;
}

void Journal::set_enabled(bool on) {
    const bool was = enabled_.exchange(on, std::memory_order_relaxed);
    if (was == on) return;
    detail::g_journal_enabled_count.fetch_add(on ? 1 : -1,
                                              std::memory_order_relaxed);
}

void Journal::set_capacity(size_t cap) {
    if (cap == 0) cap = 1;
    std::lock_guard<std::mutex> lk(mu_);
    // Linearize into append order, then keep the newest `cap`.
    std::vector<JournalEvent> linear;
    linear.reserve(ring_.size());
    if (wrapped_) {
        for (size_t i = head_; i < ring_.size(); ++i)
            linear.push_back(std::move(ring_[i]));
        for (size_t i = 0; i < head_; ++i) linear.push_back(std::move(ring_[i]));
    } else {
        linear = std::move(ring_);
    }
    if (linear.size() > cap) {
        dropped_ += linear.size() - cap;
        linear.erase(linear.begin(),
                     linear.begin() + static_cast<ptrdiff_t>(linear.size() - cap));
    }
    cap_ = cap;
    ring_ = std::move(linear);
    head_ = 0;
    wrapped_ = false;
}

size_t Journal::capacity() const {
    std::lock_guard<std::mutex> lk(mu_);
    return cap_;
}

void Journal::record(ev::TimePoint t, JournalKind kind, std::string_view node,
                     std::string_view component, std::string_view subject,
                     std::string_view detail, int64_t value) {
    const TraceContext ctx = current_trace();
    if (is_trace_kind(kind) ? !ctx.valid() : !enabled()) return;
    JournalEvent ev;
    ev.t = t;
    ev.kind = kind;
    ev.node.assign(node);
    ev.component.assign(component);
    ev.subject.assign(subject);
    ev.detail.assign(detail);
    ev.value = value;
    ev.trace = ctx.trace_id;
    ev.hop = ctx.hop;

    std::lock_guard<std::mutex> lk(mu_);
    ev.seq = next_seq_++;
    if (!wrapped_ && ring_.size() < cap_) {
        ring_.push_back(std::move(ev));
        return;
    }
    // Ring is full: overwrite the oldest slot.
    if (!wrapped_) wrapped_ = true;
    ring_[head_] = std::move(ev);
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
}

std::vector<JournalEvent> Journal::events() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<JournalEvent> out;
    out.reserve(ring_.size());
    if (wrapped_) {
        for (size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
        for (size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
    } else {
        out = ring_;
    }
    return out;
}

size_t Journal::event_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ring_.size();
}

uint64_t Journal::dropped() const {
    std::lock_guard<std::mutex> lk(mu_);
    return dropped_;
}

void Journal::clear() {
    std::lock_guard<std::mutex> lk(mu_);
    ring_.clear();
    head_ = 0;
    wrapped_ = false;
    dropped_ = 0;
    // seq keeps counting: "same event, new number" is never ambiguous
    // across clears within one process.
}

std::string Journal::to_jsonl() const {
    std::vector<JournalEvent> snap = events();
    std::string out;
    for (const JournalEvent& e : snap) {
        out += e.to_json();
        out += '\n';
    }
    return out;
}

}  // namespace xrp::telemetry
