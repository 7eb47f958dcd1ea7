/**
 * @file
 * Cooperative cancellation token shared between the experiment
 * runner's per-cell watchdog and long-running simulation loops.
 *
 * Threads cannot be killed safely, so per-cell wall-clock timeouts
 * work by flagging: the runner arms a deadline (or an owner cancels
 * the token explicitly), and the running simulation polls it at a
 * coarse stride (thousands of ACTs — one relaxed atomic load
 * amortized to nothing) and returns early with partial state. The
 * runner then reports the cell as ErrorCode::Timeout instead of
 * waiting forever.
 *
 * The deadline lives *inside* the token rather than in a watchdog
 * thread: the pool is the only component allowed to create threads
 * (graphene_analyze `raw-thread`), and a separate watchdog could do no
 * more than set the same flag the polling thread can derive from the
 * clock itself.
 */

#ifndef COMMON_CANCEL_HH
#define COMMON_CANCEL_HH

#include <atomic>
#include <chrono>

namespace graphene {

/** A one-way latch: once cancelled, stays cancelled. */
class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    void cancel() { _cancelled.store(true, std::memory_order_relaxed); }

    /** Arm a wall-clock deadline; cancelled() trips once it passes. */
    void armDeadline(Clock::time_point deadline)
    {
        _deadline = deadline;
        _hasDeadline = true;
    }

    bool cancelled() const
    {
        if (_cancelled.load(std::memory_order_relaxed))
            return true;
        if (_hasDeadline && Clock::now() >= _deadline) {
            // Latch so later polls skip the clock read.
            _cancelled.store(true, std::memory_order_relaxed);
            return true;
        }
        return false;
    }

  private:
    mutable std::atomic<bool> _cancelled{false};
    bool _hasDeadline = false;
    Clock::time_point _deadline{};
};

} // namespace graphene

#endif // COMMON_CANCEL_HH
