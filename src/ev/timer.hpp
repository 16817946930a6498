// Timer handles. A Timer is an owning handle: dropping it cancels the
// callback (the XORP XorpTimer contract). Fire-and-forget scheduling goes
// through EventLoop::defer(), whose heap entry is the only reference.
#ifndef XRP_EV_TIMER_HPP
#define XRP_EV_TIMER_HPP

#include <functional>
#include <memory>

#include "ev/clock.hpp"

namespace xrp::ev {

class EventLoop;

namespace detail {
struct TimerState {
    TimePoint expiry{};
    Duration period{};  // zero for one-shot
    // One-shot callback; null if periodic_cb used instead.
    std::function<void()> cb;
    // Periodic callback; returning false stops the timer.
    std::function<bool()> periodic_cb;
    bool cancelled = false;
    bool scheduled = false;  // currently in the loop's heap
    uint64_t seq = 0;        // tie-break for stable firing order
};
}  // namespace detail

class Timer {
public:
    Timer() = default;
    Timer(Timer&&) noexcept = default;
    Timer& operator=(Timer&& o) noexcept {
        if (this != &o) {
            unschedule();
            state_ = std::move(o.state_);
        }
        return *this;
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;
    ~Timer() { unschedule(); }

    bool scheduled() const { return state_ && !state_->cancelled; }
    TimePoint expiry() const { return state_ ? state_->expiry : TimePoint{}; }

    void unschedule() {
        if (state_) {
            state_->cancelled = true;
            state_.reset();
        }
    }

private:
    friend class EventLoop;
    explicit Timer(std::shared_ptr<detail::TimerState> s)
        : state_(std::move(s)) {}
    std::shared_ptr<detail::TimerState> state_;
};

}  // namespace xrp::ev

#endif
