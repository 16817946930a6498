#include "telemetry/trace.hpp"

#include <cstdio>

#include "telemetry/json.hpp"

namespace xrp::telemetry {

Tracer& Tracer::global() {
    static Tracer* t = new Tracer();  // immortal, like Registry::global()
    return *t;
}

void Tracer::record(const TraceContext& ctx, ev::TimePoint t,
                    std::string point, std::string detail) {
    if (!ctx.valid() || !enabled()) return;
    TraceEvent ev;
    ev.trace_id = ctx.trace_id;
    ev.hop = ctx.hop;
    ev.t = t;
    ev.point = std::move(point);
    ev.detail = std::move(detail);
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(ev));
    } else if (capacity_ > 0) {
        ring_[head_] = std::move(ev);
        head_ = (head_ + 1) % capacity_;
        dropped_.fetch_add(1, std::memory_order_relaxed);
    } else {
        dropped_.fetch_add(1, std::memory_order_relaxed);
    }
}

void Tracer::set_capacity(size_t cap) {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-linearize (oldest first), then trim from the front.
    std::vector<TraceEvent> linear;
    linear.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        linear.push_back(std::move(ring_[(head_ + i) % ring_.size()]));
    if (linear.size() > cap)
        linear.erase(linear.begin(),
                     linear.begin() +
                         static_cast<ptrdiff_t>(linear.size() - cap));
    ring_ = std::move(linear);
    head_ = 0;
    capacity_ = cap;
}

std::vector<TraceEvent> Tracer::events() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::vector<TraceEvent> Tracer::events_for(uint64_t trace_id) const {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : events())
        if (e.trace_id == trace_id) out.push_back(e);
    return out;
}

size_t Tracer::event_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
}

void Tracer::clear() {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
    head_ = 0;
    dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::format() const {
    std::string out;
    char buf[96];
    for (const TraceEvent& e : events()) {
        std::snprintf(buf, sizeof buf, "trace=%llu hop=%u t=%lld ",
                      static_cast<unsigned long long>(e.trace_id), e.hop,
                      static_cast<long long>(e.t.time_since_epoch().count()));
        out += buf;
        out += e.point;
        out += ' ';
        out += e.detail;
        out += '\n';
    }
    return out;
}

std::string Tracer::format_jsonl() const {
    std::string out;
    char buf[96];
    for (const TraceEvent& e : events()) {
        std::snprintf(buf, sizeof buf,
                      "{\"trace\":%llu,\"hop\":%u,\"t_ns\":%lld,\"point\":",
                      static_cast<unsigned long long>(e.trace_id), e.hop,
                      static_cast<long long>(e.t.time_since_epoch().count()));
        out += buf;
        json::escape_string(out, e.point);
        out += ",\"detail\":";
        json::escape_string(out, e.detail);
        out += "}\n";
    }
    return out;
}

}  // namespace xrp::telemetry
