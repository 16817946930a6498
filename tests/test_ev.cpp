// Tests for the event loop: timers, fds, background tasks, virtual time.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "ev/eventloop.hpp"

using namespace xrp::ev;
using namespace std::chrono_literals;

TEST(EventLoop, OneShotTimerFires) {
    VirtualClock clock;
    EventLoop loop(clock);
    int fired = 0;
    Timer t = loop.set_timer(10ms, [&] { ++fired; });
    EXPECT_TRUE(t.scheduled());
    loop.run_for(20ms);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.scheduled());
}

TEST(EventLoop, TimersFireInDeadlineOrder) {
    VirtualClock clock;
    EventLoop loop(clock);
    std::vector<int> order;
    Timer a = loop.set_timer(30ms, [&] { order.push_back(3); });
    Timer b = loop.set_timer(10ms, [&] { order.push_back(1); });
    Timer c = loop.set_timer(20ms, [&] { order.push_back(2); });
    loop.run_for(50ms);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, SameDeadlineFiresInArmOrder) {
    VirtualClock clock;
    EventLoop loop(clock);
    std::vector<int> order;
    Timer a = loop.set_timer(10ms, [&] { order.push_back(1); });
    Timer b = loop.set_timer(10ms, [&] { order.push_back(2); });
    loop.run_for(20ms);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, DroppingHandleCancelsTimer) {
    VirtualClock clock;
    EventLoop loop(clock);
    int fired = 0;
    {
        Timer t = loop.set_timer(10ms, [&] { ++fired; });
    }
    loop.run_for(20ms);
    EXPECT_EQ(fired, 0);
}

TEST(EventLoop, UnscheduleCancels) {
    VirtualClock clock;
    EventLoop loop(clock);
    int fired = 0;
    Timer t = loop.set_timer(10ms, [&] { ++fired; });
    t.unschedule();
    loop.run_for(20ms);
    EXPECT_EQ(fired, 0);
}

TEST(EventLoop, PeriodicTimerRepeatsUntilFalse) {
    VirtualClock clock;
    EventLoop loop(clock);
    int fired = 0;
    Timer t = loop.set_periodic(10ms, [&] { return ++fired < 5; });
    loop.run_for(200ms);
    EXPECT_EQ(fired, 5);
}

TEST(EventLoop, DeferRunsSoon) {
    VirtualClock clock;
    EventLoop loop(clock);
    int fired = 0;
    loop.defer([&] { ++fired; });
    loop.run_once(false);
    EXPECT_EQ(fired, 1);
}

TEST(EventLoop, TimerArmedFromCallbackFiresLater) {
    VirtualClock clock;
    EventLoop loop(clock);
    std::vector<int> order;
    Timer inner;
    Timer outer = loop.set_timer(10ms, [&] {
        order.push_back(1);
        inner = loop.set_timer(10ms, [&] { order.push_back(2); });
    });
    loop.run_for(50ms);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, VirtualClockJumpsToDeadline) {
    VirtualClock clock;
    EventLoop loop(clock);
    bool fired = false;
    Timer t = loop.set_timer(std::chrono::seconds(3600), [&] { fired = true; });
    // Wall-clock fast: one run_once jumps an hour of virtual time.
    auto start = std::chrono::steady_clock::now();
    loop.run_once(false);
    if (!fired) loop.run_once(false);
    auto wall = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(fired);
    EXPECT_LT(wall, std::chrono::seconds(1));
}

TEST(EventLoop, BackgroundTaskRunsWhenIdle) {
    VirtualClock clock;
    EventLoop loop(clock);
    int slices = 0;
    Task task = loop.add_background_task([&] { return ++slices < 10; });
    while (loop.run_once(false)) {
    }
    EXPECT_EQ(slices, 10);
    EXPECT_EQ(loop.background_task_count(), 0u);
}

TEST(EventLoop, CancellingTaskStopsSlices) {
    VirtualClock clock;
    EventLoop loop(clock);
    int slices = 0;
    Task task = loop.add_background_task([&] {
        ++slices;
        return true;
    });
    loop.run_once(false);
    loop.run_once(false);
    task.cancel();
    loop.run_once(false);
    EXPECT_EQ(slices, 2);
}

TEST(EventLoop, TimersPreemptBackgroundTasks) {
    // The paper's requirement: background work must never delay event
    // processing. With a due timer and a hungry task, the timer fires
    // first on every turn.
    VirtualClock clock;
    EventLoop loop(clock);
    // Make each background slice cost 1ms of virtual time so the schedule
    // is deterministic: a 2ms periodic timer must fire every ~2 slices,
    // never waiting for the task to finish.
    loop.set_task_virtual_cost(1ms);
    std::vector<char> order;
    Task task = loop.add_background_task([&] {
        order.push_back('t');
        return order.size() < 30;
    });
    Timer timer = loop.set_periodic(2ms, [&] {
        order.push_back('T');
        return order.size() < 30;
    });
    loop.run_for(100ms);
    ASSERT_GE(order.size(), 20u);
    // The timer must appear throughout the sequence, not only at the end.
    int timer_hits_front = 0;
    for (size_t i = 0; i < 10; ++i)
        if (order[i] == 'T') ++timer_hits_front;
    EXPECT_GE(timer_hits_front, 2);
}

TEST(EventLoop, WeightedTasksGetProportionalSlices) {
    VirtualClock clock;
    EventLoop loop(clock);
    int heavy = 0, light = 0;
    Task a = loop.add_background_task(
        [&] {
            ++heavy;
            return heavy + light < 90;
        },
        3);
    Task b = loop.add_background_task(
        [&] {
            ++light;
            return heavy + light < 90;
        },
        1);
    while (loop.run_once(false)) {
    }
    EXPECT_GT(heavy, light * 2);
}

TEST(EventLoop, FdReadDispatch) {
    RealClock clock;
    EventLoop loop(clock);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string got;
    loop.add_reader(fds[0], [&] {
        char buf[16];
        ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n > 0) got.assign(buf, static_cast<size_t>(n));
    });
    ASSERT_EQ(::write(fds[1], "ping", 4), 4);
    loop.run_until([&] { return !got.empty(); }, std::chrono::seconds(2));
    EXPECT_EQ(got, "ping");
    loop.remove_reader(fds[0]);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(EventLoop, FdWriteDispatchAndRemoval) {
    RealClock clock;
    EventLoop loop(clock);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    int writable_events = 0;
    loop.add_writer(fds[1], [&] {
        ++writable_events;
        loop.remove_writer(fds[1]);  // removal from inside the callback
    });
    loop.run_until([&] { return writable_events > 0; },
                   std::chrono::seconds(2));
    EXPECT_EQ(writable_events, 1);
    loop.run_for(std::chrono::milliseconds(5));
    EXPECT_EQ(writable_events, 1);  // no further dispatch after removal
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(EventLoop, RunUntilTimesOut) {
    VirtualClock clock;
    EventLoop loop(clock);
    Timer keepalive = loop.set_periodic(10ms, [] { return true; });
    bool ok = loop.run_until([] { return false; }, 100ms);
    EXPECT_FALSE(ok);
}

TEST(EventLoop, MovedTimerKeepsRegistration) {
    VirtualClock clock;
    EventLoop loop(clock);
    int fired = 0;
    Timer a = loop.set_timer(10ms, [&] { ++fired; });
    Timer b = std::move(a);
    loop.run_for(20ms);
    EXPECT_EQ(fired, 1);
}

TEST(EventLoop, RunDoesNotWaitForCancelledTimers) {
    // A loop whose only timer was cancelled has nothing left to do: run()
    // returns without waiting out (real clock) or jumping to (virtual
    // clock) the dead deadline.
    {
        RealClock clock;
        EventLoop loop(clock);
        Timer t = loop.set_timer(2s, [] {});
        t.unschedule();
        const TimePoint t0 = clock.now();
        loop.run();
        EXPECT_LT(clock.now() - t0, Duration(1s));
    }
    {
        VirtualClock clock;
        EventLoop loop(clock);
        Timer t = loop.set_timer(10s, [] {});
        t.unschedule();
        const TimePoint t0 = clock.now();
        loop.run();
        EXPECT_EQ(clock.now(), t0);
        EXPECT_EQ(loop.timer_heap_size(), 0u);
    }
}

// An XRL client arms a 2 s attempt timer per call and cancels it when the
// reply lands. Cancelled timers must not pile up in the heap until their
// deadlines, and a short timer armed after them must still fire on time.
TEST(EventLoop, CancelledTimersDoNotAccumulate) {
    RealClock clock;
    EventLoop loop(clock);
    int stray = 0;
    for (int i = 0; i < 100000; ++i) {
        Timer t = loop.set_timer(2s, [&] { ++stray; });
        t.unschedule();
        ASSERT_LE(loop.timer_heap_size(), 128u) << "after " << i;
    }
    bool fired = false;
    const TimePoint armed = clock.now();
    Timer t = loop.set_timer(1ms, [&] { fired = true; });
    ASSERT_TRUE(loop.run_until([&] { return fired; }, 1s));
    EXPECT_LT(clock.now() - armed, Duration(50ms));
    EXPECT_EQ(stray, 0);
}

namespace {
Duration median(std::vector<Duration> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}
}  // namespace

// The blocking wait ends at the deadline, not at the next whole
// millisecond after it: a sub-millisecond timer on an idle real-clock loop
// fires within the kernel's timer slack, never before its deadline. The
// median keeps the bound meaningful under a parallel or sanitized run.
TEST(EventLoop, RealClockTimerFiresOnTime) {
    RealClock clock;
    EventLoop loop(clock);
    std::vector<Duration> late;
    for (int i = 0; i < 200; ++i) {
        const TimePoint due = clock.now() + 300us;
        TimePoint fired_at{};
        Timer t = loop.set_timer_at(due, [&] { fired_at = clock.now(); });
        ASSERT_TRUE(
            loop.run_until([&] { return fired_at != TimePoint{}; }, 1s));
        ASSERT_GE(fired_at, due) << "timer " << i << " fired early";
        late.push_back(fired_at - due);
    }
    EXPECT_LT(median(late), Duration(300us));
}

// run_for on an idle real-clock loop returns at its deadline: the wait is
// clamped to the time left, at nanosecond precision.
TEST(EventLoop, RunForReturnsOnTime) {
    RealClock clock;
    EventLoop loop(clock);
    std::vector<Duration> took;
    for (int i = 0; i < 50; ++i) {
        const TimePoint t0 = clock.now();
        loop.run_for(1500us);
        took.push_back(clock.now() - t0);
        ASSERT_GE(took.back(), Duration(1500us)) << "run " << i;
    }
    EXPECT_LT(median(took), Duration(1900us));
}
