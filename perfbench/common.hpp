// Shared pieces of the route-path benchmark: timing, process CPU and
// memory samples, percentile statistics, the result record every workload
// fills, and the handle decorators the traced run installs.
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bgp/bgp_xrl.hpp"
#include "rib/rib_xrl.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point t0) {
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

inline double ms_between(SteadyClock::time_point a,
                         SteadyClock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// Process CPU time (user + system, all threads) in seconds.
inline double process_cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Peak resident set so far, in bytes.
inline double max_rss_bytes() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

// Moves the calling thread round-robin over the CPUs the process may use.
// On a virtualised host the CPUs run at different and changing speeds
// (the same closed-loop call measured 15 us on one vCPU and 22 us on
// the others); pinning each measurement slot to the next CPU in turn
// makes every run sample the same mix instead of whichever CPU the
// scheduler happened to pick. Threads created while the calling thread
// is pinned inherit the pin, so build multi-threaded rigs after release().
class CpuRotation {
public:
    CpuRotation() {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
    void next() {
        if (cpus_.size() < 2) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }
    void release() {
        if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
    }

private:
    cpu_set_t all_;
    std::vector<int> cpus_;
    size_t next_ = 0;
};

// The main thread's rotation, shared by every workload.
inline CpuRotation& cpu_rotation() {
    static CpuRotation r;
    return r;
}

// How often a long phase moves to the next CPU.
inline constexpr std::chrono::milliseconds kRotatePeriod{50};

// A wall-clock interval with the process CPU spent inside it.
struct Span {
    SteadyClock::time_point t0 = SteadyClock::now();
    double cpu0 = process_cpu_s();
    double wall_s = 0;
    double cpu_s = 0;
    void stop() {
        wall_s = seconds_since(t0);
        cpu_s = process_cpu_s() - cpu0;
    }
    double busy_frac() const { return wall_s > 0 ? cpu_s / wall_s : 0; }
};

// Sample store with the percentile rule used throughout: linear
// interpolation between closest ranks.
class Samples {
public:
    void add(double v) { v_.push_back(v); }
    void add_all(const Samples& o) {
        v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    }
    size_t count() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    double percentile(double p) {
        if (v_.empty()) return 0;
        std::sort(v_.begin(), v_.end());
        const double rank = p / 100.0 * static_cast<double>(v_.size() - 1);
        const size_t lo = static_cast<size_t>(rank);
        const size_t hi = std::min(lo + 1, v_.size() - 1);
        const double frac = rank - static_cast<double>(lo);
        return v_[lo] + (v_[hi] - v_[lo]) * frac;
    }
    double median() { return percentile(50); }
    // Samples strictly above the p-th percentile: the benchmark reports a
    // percentile only when at least ten samples lie beyond it.
    size_t beyond(double p) {
        const double cut = percentile(p);
        return static_cast<size_t>(
            std::count_if(v_.begin(), v_.end(),
                          [cut](double x) { return x > cut; }));
    }

private:
    std::vector<double> v_;
};

// Median of a small set of repeated measurements (set-up time, replays).
inline double median_of(std::vector<double> v) {
    Samples s;
    for (double x : v) s.add(x);
    return s.median();
}

struct Metric {
    double value = 0;
    std::string unit;
};

// What one workload run produces. `metrics` holds the end-to-end figures
// (untraced runs) or the per-layer ledger (traced runs); `named` holds
// every workload-specific figure under its own name for the console.
struct Result {
    std::string workload;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t oracle_mismatches = 0;
    bool complete = true;  // every pass ran to its end
    std::map<std::string, Metric> metrics;
    std::map<std::string, Metric> named;
    std::map<std::string, std::string> notes;

    void set(const std::string& name, double v, const std::string& unit) {
        metrics[name] = Metric{v, unit};
    }
    void name(const std::string& n, double v, const std::string& unit) {
        named[n] = Metric{v, unit};
    }
    double fail_frac() const {
        return attempted == 0 ? 0
                              : static_cast<double>(failed) /
                                    static_cast<double>(attempted);
    }
};

// ---- telemetry counter sums -------------------------------------------------

// Sum of every counter whose exposition key is `family` or starts with
// `family{` (all label sets of one metric family).
inline uint64_t counter_family_sum(const std::string& family) {
    auto& reg = xrp::telemetry::Registry::global();
    uint64_t sum = 0;
    for (const auto& key : reg.names()) {
        if (key == family ||
            (key.size() > family.size() && key.compare(0, family.size(),
                                                       family) == 0 &&
             key[family.size()] == '{'))
            sum += reg.counter(key)->value();
    }
    return sum;
}

// The counters the ledger reads, sampled at phase boundaries.
struct CounterSnapshot {
    uint64_t stage_adds = 0, stage_deletes = 0;
    uint64_t xrl_calls = 0, xrl_errors = 0, retries = 0, attempt_timeouts = 0;
    uint64_t wire_bytes = 0;
    uint64_t fd_dispatches = 0, task_slices = 0;

    static CounterSnapshot take() {
        CounterSnapshot s;
        s.stage_adds = counter_family_sum("stage_adds_total");
        s.stage_deletes = counter_family_sum("stage_deletes_total");
        s.xrl_calls = counter_family_sum("xrl_calls_total");
        s.xrl_errors = counter_family_sum("xrl_errors_total");
        s.retries = counter_family_sum("xrl_call_retries_total");
        s.attempt_timeouts =
            counter_family_sum("xrl_call_attempt_timeouts_total");
        s.wire_bytes = counter_family_sum("xrl_wire_bytes_total");
        s.fd_dispatches = counter_family_sum("ev_fd_dispatches_total");
        s.task_slices = counter_family_sum("ev_task_slices_total");
        return s;
    }
    CounterSnapshot& operator+=(const CounterSnapshot& o) {
        stage_adds += o.stage_adds;
        stage_deletes += o.stage_deletes;
        xrl_calls += o.xrl_calls;
        xrl_errors += o.xrl_errors;
        retries += o.retries;
        attempt_timeouts += o.attempt_timeouts;
        wire_bytes += o.wire_bytes;
        fd_dispatches += o.fd_dispatches;
        task_slices += o.task_slices;
        return *this;
    }
    CounterSnapshot operator-(const CounterSnapshot& o) const {
        CounterSnapshot d;
        d.stage_adds = stage_adds - o.stage_adds;
        d.stage_deletes = stage_deletes - o.stage_deletes;
        d.xrl_calls = xrl_calls - o.xrl_calls;
        d.xrl_errors = xrl_errors - o.xrl_errors;
        d.retries = retries - o.retries;
        d.attempt_timeouts = attempt_timeouts - o.attempt_timeouts;
        d.wire_bytes = wire_bytes - o.wire_bytes;
        d.fd_dispatches = fd_dispatches - o.fd_dispatches;
        d.task_slices = task_slices - o.task_slices;
        return d;
    }
};

// ---- handle decorators (traced run only) -----------------------------------

// Self time and volume of the calls crossing one handle, plus an optional
// copy of every batch for the replays.
struct HandleLedger {
    double self_s = 0;
    uint64_t calls = 0;
    uint64_t routes = 0;
    bool capture = true;
    std::vector<xrp::stage::RouteBatch4> captured;

    template <class Fn>
    void timed(size_t routes_in_call, Fn&& fn) {
        const auto t0 = SteadyClock::now();
        fn();
        self_s += seconds_since(t0);
        ++calls;
        routes += routes_in_call;
    }
};

// bgp::RibHandle decorator around BGP's XRL coupling to the RIB.
class TimedRibHandle final : public xrp::bgp::RibHandle {
public:
    TimedRibHandle(std::unique_ptr<xrp::bgp::XrlRibHandle> inner,
                   HandleLedger& ledger)
        : inner_(std::move(inner)), ledger_(ledger) {}

    void add_route(const xrp::bgp::BgpRoute& r) override {
        if (ledger_.capture) {
            xrp::stage::RouteBatch4 b;
            b.add(r);
            ledger_.captured.push_back(std::move(b));
        }
        ledger_.timed(1, [&] { inner_->add_route(r); });
    }
    void delete_route(const xrp::bgp::BgpRoute& r) override {
        if (ledger_.capture) {
            xrp::stage::RouteBatch4 b;
            b.del(r);
            ledger_.captured.push_back(std::move(b));
        }
        ledger_.timed(1, [&] { inner_->delete_route(r); });
    }
    void push_batch(xrp::stage::RouteBatch4&& batch) override {
        if (ledger_.capture) ledger_.captured.push_back(batch);
        const size_t n = batch.size();
        ledger_.timed(n, [&] { inner_->push_batch(std::move(batch)); });
    }
    void register_interest(
        xrp::net::IPv4 nexthop,
        xrp::bgp::NexthopResolverStage::AnswerCallback answer) override {
        inner_->register_interest(nexthop, std::move(answer));
    }

private:
    std::unique_ptr<xrp::bgp::XrlRibHandle> inner_;
    HandleLedger& ledger_;
};

// rib::FeaHandle decorator around the RIB's XRL coupling to the FEA.
class TimedFeaHandle final : public xrp::rib::FeaHandle {
public:
    TimedFeaHandle(std::unique_ptr<xrp::rib::XrlFeaHandle> inner,
                   HandleLedger& ledger)
        : inner_(std::move(inner)), ledger_(ledger) {}

    using xrp::rib::FeaHandle::add_route;
    void add_route(const xrp::net::IPv4Net& net,
                   xrp::net::IPv4 nexthop) override {
        add_route(net, xrp::net::NexthopSet4::single(nexthop));
    }
    void add_route(const xrp::net::IPv4Net& net,
                   const xrp::net::NexthopSet4& nexthops) override {
        if (ledger_.capture) {
            xrp::stage::Route4 r;
            r.net = net;
            r.set_nexthops(nexthops);
            xrp::stage::RouteBatch4 b;
            b.add(std::move(r));
            ledger_.captured.push_back(std::move(b));
        }
        ledger_.timed(1, [&] { inner_->add_route(net, nexthops); });
    }
    void delete_route(const xrp::net::IPv4Net& net) override {
        if (ledger_.capture) {
            xrp::stage::Route4 r;
            r.net = net;
            xrp::stage::RouteBatch4 b;
            b.del(std::move(r));
            ledger_.captured.push_back(std::move(b));
        }
        ledger_.timed(1, [&] { inner_->delete_route(net); });
    }
    void push_batch(xrp::stage::RouteBatch4&& batch) override {
        if (ledger_.capture) ledger_.captured.push_back(batch);
        const size_t n = batch.size();
        ledger_.timed(n, [&] { inner_->push_batch(std::move(batch)); });
    }

private:
    std::unique_ptr<xrp::rib::XrlFeaHandle> inner_;
    HandleLedger& ledger_;
};

}  // namespace perfbench

#endif
