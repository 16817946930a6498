// The single-threaded event loop at the core of every component (§4).
//
// Three event sources, strictly prioritized:
//   1. expired timers — fired in deadline order;
//   2. ready file descriptors — dispatched via poll(2);
//   3. background tasks — one cooperative slice per idle loop turn,
//      weighted round-robin.
//
// The loop never blocks while a background task has work, and on a virtual
// clock it never blocks at all: when nothing is runnable it advances the
// clock straight to the next timer deadline.
//
// Threading model: a loop is owned by exactly one thread — whichever
// thread drives run()/run_once() — and every API except post(),
// run_on(), and request_stop() must be called from that thread. The
// three exceptions are the cross-thread seam: post() enqueues a callback
// under a small mutex and wakes the owning thread through an eventfd, so
// an idle loop blocks in poll(2) instead of spinning and still reacts
// immediately. Ownership is asserted at runtime: once a thread has
// driven the loop, a timer/fd/task registration from any other thread
// aborts with a diagnostic instead of corrupting the heap silently.
#ifndef XRP_EV_EVENTLOOP_HPP
#define XRP_EV_EVENTLOOP_HPP

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ev/clock.hpp"
#include "ev/task.hpp"
#include "ev/timer.hpp"

namespace xrp::ev {

class EventLoop {
public:
    explicit EventLoop(Clock& clock);
    ~EventLoop();

    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    Clock& clock() { return clock_; }
    TimePoint now() { return clock_.now(); }

    // ---- timers -----------------------------------------------------
    // One-shot timer. The returned handle owns the registration.
    [[nodiscard]] Timer set_timer(Duration delay, std::function<void()> cb);
    [[nodiscard]] Timer set_timer_at(TimePoint when, std::function<void()> cb);
    // Periodic timer; the callback returns false to stop.
    [[nodiscard]] Timer set_periodic(Duration period, std::function<bool()> cb);
    // Fire-and-forget: run `cb` from the loop as soon as possible. Used to
    // break call chains and keep event handlers shallow.
    void defer(std::function<void()> cb);
    // Fire-and-forget with a delay (simulated link latency, retry backoff).
    void defer_after(Duration delay, std::function<void()> cb);

    // ---- file descriptors --------------------------------------------
    void add_reader(int fd, std::function<void()> cb);
    void add_writer(int fd, std::function<void()> cb);
    void remove_reader(int fd);
    void remove_writer(int fd);

    // ---- background tasks --------------------------------------------
    // `slice` runs when the loop is otherwise idle; return true while more
    // work remains. Higher weight gets proportionally more slices.
    [[nodiscard]] Task add_background_task(std::function<bool()> slice,
                                           int weight = 1);
    size_t background_task_count() const;

    // On a virtual clock, each background slice advances time by this much
    // (real slices cost real time; without this, a hungry task would
    // freeze virtual time and starve every timer). Default 1us.
    void set_task_virtual_cost(Duration d) { task_virtual_cost_ = d; }

    // ---- cross-thread seam --------------------------------------------
    // Enqueues `cb` to run on the loop's owning thread and wakes it (the
    // only registration that is safe from any thread). Callbacks run in
    // post order, before timers, on the next loop turn.
    void post(std::function<void()> cb);
    // post(), except run inline when already on the owning thread (or when
    // no thread has claimed the loop yet). Use for callbacks that may
    // arrive from either side of a thread boundary — e.g. Finder
    // notifications — without perturbing single-threaded call order.
    void run_on(std::function<void()> cb);
    // Thread-safe stop: sets the flag and wakes a blocked poll.
    void request_stop();
    // True when the calling thread owns the loop (or nobody does yet).
    bool in_owner_thread() const;
    // Releases thread ownership. Call after join()ing the thread that ran
    // the loop, so teardown (or a new driver thread) may proceed from the
    // current thread; the join provides the happens-before edge.
    void release_owner() { owner_.store({}, std::memory_order_relaxed); }
    // Keeps run() alive when every event source is empty — a component
    // thread parks in poll(2) awaiting post()/ring wakeups instead of
    // falling out of run(); only stop()/request_stop() ends such a run().
    void hold_open(bool on) { hold_open_ = on; }

    // ---- running ------------------------------------------------------
    // Processes one batch of work. `may_block` permits a blocking poll when
    // nothing is due (real clocks only). Returns true if any callback ran.
    bool run_once(bool may_block = true);
    // Runs until stop() or until no event source could ever fire again.
    void run();
    void stop() { stopped_.store(true, std::memory_order_relaxed); }
    // Runs until `pred()` is true or `limit` elapses (loop-clock time).
    // Returns true if the predicate was satisfied.
    bool run_until(const std::function<bool()>& pred, Duration limit);
    // Runs for `d` of loop-clock time.
    void run_for(Duration d);

    bool timers_pending() const { return !heap_.empty(); }
    // Timer heap entries, counting cancelled timers not yet dropped.
    size_t timer_heap_size() const { return heap_.size(); }

private:
    using TimerSP = std::shared_ptr<detail::TimerState>;
    struct HeapCmp {
        bool operator()(const TimerSP& a, const TimerSP& b) const {
            if (a->expiry != b->expiry) return a->expiry > b->expiry;
            return a->seq > b->seq;
        }
    };

    Timer schedule(TimerSP state);
    void compact_heap();
    void heap_push(TimerSP s);
    TimerSP heap_pop();
    bool fire_due_timers();
    bool dispatch_fds(int timeout_ms);
    bool run_one_task_slice();
    int poll_timeout_ms(bool may_block);
    void claim_owner();
    void check_owner(const char* what) const;
    bool drain_posted();
    void wake();

    Clock& clock_;
    std::atomic<bool> stopped_{false};
    bool hold_open_ = false;
    uint64_t timer_seq_ = 0;

    // Cross-thread post queue + eventfd wakeup. `owner_` is the id of the
    // thread currently driving the loop (claimed on each run_once).
    int wake_fd_ = -1;
    mutable std::mutex post_mu_;
    std::deque<std::function<void()>> posted_;
    std::atomic<bool> posted_pending_{false};
    std::atomic<std::thread::id> owner_{};
    // Virtual clocks never advance past this; run_for/run_until pin it to
    // their deadline so idle jumps stop exactly on time.
    TimePoint advance_cap_ = TimePoint::max();

    // A binary heap under HeapCmp (earliest deadline at front()).
    // Cancelled timers stay in it until they come due or until the heap
    // has doubled since its last compaction, which drops them all.
    std::vector<TimerSP> heap_;
    size_t heap_compacted_size_ = 0;
    std::vector<Timer> deferred_owned_;  // keeps defer() timers alive

    std::map<int, std::function<void()>> readers_;
    std::map<int, std::function<void()>> writers_;

    std::vector<std::shared_ptr<detail::TaskState>> tasks_;
    size_t task_rr_ = 0;   // round-robin cursor
    int task_credit_ = 0;  // remaining slices for current task
    Duration task_virtual_cost_ = std::chrono::microseconds(1);
};

}  // namespace xrp::ev

#endif
