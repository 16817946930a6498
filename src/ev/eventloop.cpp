#include "ev/eventloop.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "telemetry/metrics.hpp"

namespace xrp::ev {

namespace {

// Cached handles, bound on first loop activity (see ipc/router.cpp).
struct EvMetrics {
    telemetry::Counter* timers_fired;
    telemetry::Counter* fd_dispatches;
    telemetry::Counter* task_slices;
    telemetry::Gauge* deferred_depth;
    telemetry::Histogram* timer_drift;   // fire time - deadline
    telemetry::Histogram* cb_timer;      // time spent inside timer callbacks
    telemetry::Histogram* cb_fd;         // time spent inside fd callbacks
    telemetry::Histogram* task_slice_ns;

    static const EvMetrics& get() {
        static EvMetrics m = [] {
            auto& r = telemetry::Registry::global();
            EvMetrics x;
            x.timers_fired = r.counter("ev_timers_fired_total");
            x.fd_dispatches = r.counter("ev_fd_dispatches_total");
            x.task_slices = r.counter("ev_task_slices_total");
            x.deferred_depth = r.gauge("ev_deferred_depth");
            x.timer_drift = r.histogram("ev_timer_drift_ns");
            x.cb_timer = r.histogram("ev_dispatch_ns{source=\"timer\"}");
            x.cb_fd = r.histogram("ev_dispatch_ns{source=\"fd\"}");
            x.task_slice_ns = r.histogram("ev_task_slice_ns");
            return x;
        }();
        return m;
    }
};

}  // namespace

EventLoop::EventLoop(Clock& clock) : clock_(clock) {
    // The wakeup eventfd exists for the loop's whole life so post() never
    // races fd creation; a loop that is never posted to pays one idle
    // pollfd for it.
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
}

EventLoop::~EventLoop() {
    // A pending timer's callback can own state whose destructor in turn
    // holds Timer handles on this loop — XrlRouter's in-flight CallState
    // does exactly that (retry/backoff timers capture the shared call
    // state, the call state owns the timer handles). Dropping the heap
    // wholesale would leave such cycles alive; clearing each callback
    // breaks them. Destructors run here may schedule further timers on
    // the dying loop, so drain until genuinely empty.
    while (!heap_.empty()) {
        TimerSP s = heap_pop();
        s->cancelled = true;
        s->cb = nullptr;
        s->periodic_cb = nullptr;
    }
    if (wake_fd_ >= 0) ::close(wake_fd_);
    wake_fd_ = -1;
}

void EventLoop::claim_owner() {
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

bool EventLoop::in_owner_thread() const {
    const std::thread::id own = owner_.load(std::memory_order_relaxed);
    return own == std::thread::id{} || own == std::this_thread::get_id();
}

void EventLoop::check_owner(const char* what) const {
    // Armed the moment any thread drives the loop. Before that (component
    // construction happens on the spawning thread, strictly before the
    // component thread starts running) everything is permitted.
    if (in_owner_thread()) return;
    std::fprintf(stderr,
                 "[ev] FATAL: %s called from a thread that does not own "
                 "this event loop (use post()/run_on() to cross threads)\n",
                 what);
    std::abort();
}

void EventLoop::wake() {
    if (wake_fd_ < 0) return;
    const uint64_t one = 1;
    // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::post(std::function<void()> cb) {
    {
        std::lock_guard<std::mutex> lock(post_mu_);
        posted_.push_back(std::move(cb));
        posted_pending_.store(true, std::memory_order_release);
    }
    wake();
}

void EventLoop::run_on(std::function<void()> cb) {
    if (in_owner_thread()) {
        cb();
        return;
    }
    post(std::move(cb));
}

void EventLoop::request_stop() {
    stopped_.store(true, std::memory_order_relaxed);
    wake();
}

bool EventLoop::drain_posted() {
    if (!posted_pending_.load(std::memory_order_acquire)) return false;
    // Swap out the whole batch: callbacks posted from inside a posted
    // callback run on the next turn, so a self-posting task cannot starve
    // timers and fds.
    std::deque<std::function<void()>> batch;
    {
        std::lock_guard<std::mutex> lock(post_mu_);
        batch.swap(posted_);
        posted_pending_.store(false, std::memory_order_release);
    }
    for (auto& cb : batch) cb();
    return !batch.empty();
}

Timer EventLoop::schedule(TimerSP state) {
    check_owner("set_timer");
    state->seq = ++timer_seq_;
    state->scheduled = true;
    heap_push(state);
    return Timer(std::move(state));
}

void EventLoop::heap_push(TimerSP s) {
    heap_.push_back(std::move(s));
    std::push_heap(heap_.begin(), heap_.end(), HeapCmp{});
    // A cancelled timer stays in the heap until its deadline. With 2 s XRL
    // attempt timers cancelled by every reply, a busy client would grow
    // the heap by its call rate times 2 s and then pay for all of them at
    // once when they fall due; compacting whenever the heap doubles keeps
    // it within about twice the live timers at amortized O(1) per push.
    if (heap_.size() >= 2 * std::max<size_t>(heap_compacted_size_, 64))
        compact_heap();
}

EventLoop::TimerSP EventLoop::heap_pop() {
    std::pop_heap(heap_.begin(), heap_.end(), HeapCmp{});
    TimerSP s = std::move(heap_.back());
    heap_.pop_back();
    return s;
}

void EventLoop::compact_heap() {
    // Dropped timers are destroyed only after the heap is whole again:
    // their callbacks' captures may arm new timers from a destructor.
    std::vector<TimerSP> dropped;
    std::erase_if(heap_, [&](TimerSP& s) {
        if (!s->cancelled) return false;
        s->scheduled = false;
        dropped.push_back(std::move(s));
        return true;
    });
    std::make_heap(heap_.begin(), heap_.end(), HeapCmp{});
    heap_compacted_size_ = heap_.size();
}

Timer EventLoop::set_timer(Duration delay, std::function<void()> cb) {
    return set_timer_at(now() + delay, std::move(cb));
}

Timer EventLoop::set_timer_at(TimePoint when, std::function<void()> cb) {
    auto s = std::make_shared<detail::TimerState>();
    s->expiry = when;
    s->cb = std::move(cb);
    return schedule(std::move(s));
}

Timer EventLoop::set_periodic(Duration period, std::function<bool()> cb) {
    assert(period > Duration::zero());
    auto s = std::make_shared<detail::TimerState>();
    s->expiry = now() + period;
    s->period = period;
    s->periodic_cb = std::move(cb);
    return schedule(std::move(s));
}

void EventLoop::defer(std::function<void()> cb) {
    deferred_owned_.push_back(set_timer(Duration::zero(), std::move(cb)));
    EvMetrics::get().deferred_depth->set(
        static_cast<int64_t>(deferred_owned_.size()));
}

void EventLoop::defer_after(Duration delay, std::function<void()> cb) {
    deferred_owned_.push_back(set_timer(delay, std::move(cb)));
    EvMetrics::get().deferred_depth->set(
        static_cast<int64_t>(deferred_owned_.size()));
}

void EventLoop::add_reader(int fd, std::function<void()> cb) {
    check_owner("add_reader");
    readers_[fd] = std::move(cb);
}
void EventLoop::add_writer(int fd, std::function<void()> cb) {
    check_owner("add_writer");
    writers_[fd] = std::move(cb);
}
void EventLoop::remove_reader(int fd) {
    check_owner("remove_reader");
    readers_.erase(fd);
}
void EventLoop::remove_writer(int fd) {
    check_owner("remove_writer");
    writers_.erase(fd);
}

Task EventLoop::add_background_task(std::function<bool()> slice, int weight) {
    check_owner("add_background_task");
    auto s = std::make_shared<detail::TaskState>();
    s->slice = std::move(slice);
    s->weight = std::max(1, weight);
    s->running = true;
    tasks_.push_back(s);
    return Task(std::move(s));
}

size_t EventLoop::background_task_count() const {
    size_t n = 0;
    for (const auto& t : tasks_)
        if (!t->cancelled) ++n;
    return n;
}

bool EventLoop::fire_due_timers() {
    // Collect what is due *now*; timers armed by callbacks during this
    // batch wait for the next turn, so a self-rearming zero-delay timer
    // cannot starve fds and tasks.
    const TimePoint t = now();
    bool any = false;
    std::vector<TimerSP> due;
    while (!heap_.empty() && heap_.front()->expiry <= t)
        due.push_back(heap_pop());
    const EvMetrics& m = EvMetrics::get();
    const bool timed = telemetry::enabled();
    for (TimerSP& s : due) {
        s->scheduled = false;
        if (s->cancelled) continue;
        any = true;
        m.timers_fired->inc();
        // Drift needs no extra clock read: `t` is this batch's fire time.
        m.timer_drift->observe(t - s->expiry);
        if (s->periodic_cb) {
            const TimePoint c0 = timed ? clock_.now() : TimePoint{};
            bool again = s->periodic_cb();
            if (timed) m.cb_timer->observe_always(clock_.now() - c0);
            if (again && !s->cancelled) {
                s->expiry += s->period;
                s->seq = ++timer_seq_;
                s->scheduled = true;
                heap_push(s);
            } else {
                s->cancelled = true;
            }
        } else {
            auto cb = std::move(s->cb);
            s->cancelled = true;
            const TimePoint c0 = timed ? clock_.now() : TimePoint{};
            cb();
            if (timed) m.cb_timer->observe_always(clock_.now() - c0);
        }
    }
    if (!deferred_owned_.empty()) {
        // Drop handles of already-fired defer() timers.
        std::erase_if(deferred_owned_,
                      [](const Timer& t2) { return !t2.scheduled(); });
        m.deferred_depth->set(
            static_cast<int64_t>(deferred_owned_.size()));
    }
    return any;
}

bool EventLoop::dispatch_fds(int timeout_ms) {
    if (readers_.empty() && writers_.empty() && wake_fd_ < 0) return false;
    // Exactly one pollfd per fd, with merged interest bits: duplicate fd
    // entries confuse some poll(2) interposition layers (which also
    // rewrite `events`, so classification below re-checks our own maps
    // rather than trusting the returned events field).
    std::vector<pollfd> pfds;
    pfds.reserve(readers_.size() + writers_.size() + 1);
    // The cross-thread wakeup fd rides in slot 0 of every poll, so a
    // blocked idle loop reacts to post() immediately.
    if (wake_fd_ >= 0) pfds.push_back({wake_fd_, POLLIN, 0});
    {
        auto rit = readers_.begin();
        auto wit = writers_.begin();
        while (rit != readers_.end() || wit != writers_.end()) {
            if (wit == writers_.end() ||
                (rit != readers_.end() && rit->first < wit->first)) {
                pfds.push_back({rit->first, POLLIN, 0});
                ++rit;
            } else if (rit == readers_.end() || wit->first < rit->first) {
                pfds.push_back({wit->first, POLLOUT, 0});
                ++wit;
            } else {
                pfds.push_back({rit->first, POLLIN | POLLOUT, 0});
                ++rit;
                ++wit;
            }
        }
    }
    int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc <= 0) return false;
    bool any = false;
    for (const pollfd& p : pfds) {
        if (p.revents == 0) continue;
        if (p.fd == wake_fd_ && wake_fd_ >= 0) {
            uint64_t n;
            while (::read(wake_fd_, &n, sizeof n) > 0) {
            }
            any |= drain_posted();
            continue;
        }
        // Look the callbacks up at dispatch time: an earlier callback in
        // this batch may have removed (or replaced) this fd's handler.
        const EvMetrics& m = EvMetrics::get();
        const bool timed = telemetry::enabled();
        if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
            auto it = readers_.find(p.fd);
            if (it != readers_.end()) {
                // Copy before invoking: the handler may remove itself
                // (remove_reader from inside the callback), and the
                // callable plus everything it captures must stay alive
                // for the duration of the call.
                auto cb = it->second;
                any = true;
                m.fd_dispatches->inc();
                const TimePoint c0 = timed ? clock_.now() : TimePoint{};
                cb();
                if (timed) m.cb_fd->observe_always(clock_.now() - c0);
            }
        }
        if (p.revents & (POLLOUT | POLLHUP | POLLERR)) {
            auto it = writers_.find(p.fd);
            if (it != writers_.end()) {
                auto cb = it->second;  // same self-removal hazard
                any = true;
                m.fd_dispatches->inc();
                const TimePoint c0 = timed ? clock_.now() : TimePoint{};
                cb();
                if (timed) m.cb_fd->observe_always(clock_.now() - c0);
            }
        }
    }
    return any;
}

bool EventLoop::run_one_task_slice() {
    // Weighted round-robin over live tasks; one slice per idle loop turn
    // keeps timer/fd latency bounded while background work proceeds.
    std::erase_if(tasks_, [](const auto& t) { return t->cancelled; });
    if (tasks_.empty()) return false;
    if (task_rr_ >= tasks_.size()) task_rr_ = 0;
    auto t = tasks_[task_rr_];
    if (task_credit_ <= 0) task_credit_ = t->weight;
    const EvMetrics& m = EvMetrics::get();
    m.task_slices->inc();
    const bool timed = telemetry::enabled();
    const TimePoint c0 = timed ? clock_.now() : TimePoint{};
    bool more = t->slice && !t->cancelled ? t->slice() : false;
    if (timed) m.task_slice_ns->observe_always(clock_.now() - c0);
    if (clock_.is_virtual() && task_virtual_cost_ > Duration::zero())
        clock_.advance_to(now() + task_virtual_cost_);
    if (!more) {
        t->cancelled = true;
        task_credit_ = 0;
        return true;
    }
    if (--task_credit_ <= 0) ++task_rr_;
    return true;
}

int EventLoop::poll_timeout_ms(bool may_block) {
    if (!may_block || clock_.is_virtual()) return 0;
    if (background_task_count() > 0) return 0;
    if (posted_pending_.load(std::memory_order_acquire)) return 0;
    Duration d = Duration(std::chrono::milliseconds(100));
    if (!heap_.empty()) d = std::min(d, heap_.front()->expiry - now());
    // run_for/run_until pin advance_cap_ to their deadline on real clocks
    // too: a blocking poll must not overshoot the caller's time budget.
    if (advance_cap_ != TimePoint::max())
        d = std::min(d, advance_cap_ - now());
    if (d <= Duration::zero()) return 0;
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
    return static_cast<int>(std::min<long long>(ms + 1, 100));
}

bool EventLoop::run_once(bool may_block) {
    claim_owner();
    bool any = drain_posted();
    any |= fire_due_timers();
    any |= dispatch_fds(any ? 0 : poll_timeout_ms(may_block));
    if (!any) any = run_one_task_slice();
    if (!any && clock_.is_virtual() && !heap_.empty()) {
        // Nothing runnable now: jump virtual time to the next deadline,
        // but never past the caller's cap (run_for/run_until deadline).
        TimePoint target = std::min(heap_.front()->expiry, advance_cap_);
        if (target > now()) {
            clock_.advance_to(target);
            any = fire_due_timers();
        }
    }
    return any;
}

void EventLoop::run() {
    stopped_.store(false, std::memory_order_relaxed);
    while (!stopped_.load(std::memory_order_relaxed)) {
        // A cancelled timer on top of the heap never fires, but the poll
        // timeout (real clock) or the idle jump (virtual clock) would wait
        // for its deadline. Dropping such entries lets run() return once
        // nothing live is left. run_until/run_for keep them, so virtual
        // time in simulated scenarios advances exactly as before.
        while (!heap_.empty() && heap_.front()->cancelled)
            heap_pop()->scheduled = false;
        bool any = run_once(true);
        if (!any && !hold_open_ && heap_.empty() && readers_.empty() &&
            writers_.empty() && background_task_count() == 0 &&
            !posted_pending_.load(std::memory_order_acquire))
            break;  // nothing can ever fire again
    }
}

bool EventLoop::run_until(const std::function<bool()>& pred, Duration limit) {
    const TimePoint deadline = now() + limit;
    const TimePoint saved_cap = advance_cap_;
    advance_cap_ = std::min(saved_cap, deadline);
    bool ok = true;
    while (!pred()) {
        if (now() >= deadline) {
            ok = false;
            break;
        }
        bool any = run_once(true);
        if (!any && clock_.is_virtual() &&
            (heap_.empty() || heap_.front()->expiry > advance_cap_) &&
            background_task_count() == 0) {
            // Virtual time cannot usefully progress before the deadline.
            ok = pred();
            break;
        }
    }
    advance_cap_ = saved_cap;
    return ok;
}

void EventLoop::run_for(Duration d) {
    const TimePoint deadline = now() + d;
    const TimePoint saved_cap = advance_cap_;
    advance_cap_ = std::min(saved_cap, deadline);
    while (now() < deadline) {
        bool any = run_once(true);
        if (clock_.is_virtual() && !any && background_task_count() == 0 &&
            (heap_.empty() || heap_.front()->expiry > advance_cap_)) {
            clock_.advance_to(std::min(deadline, advance_cap_));
            break;
        }
    }
    advance_cap_ = saved_cap;
}

}  // namespace xrp::ev
