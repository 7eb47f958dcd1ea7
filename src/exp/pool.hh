/**
 * @file
 * The deterministic work-stealing thread pool.
 *
 * Pool::parallelFor(n, body) executes body(0..n-1) across `jobs`
 * worker threads. Indices are dealt round-robin into one deque per
 * worker; a worker drains its own deque LIFO and, when empty, steals
 * FIFO from the other workers. Stealing balances uneven cell
 * durations (a 16 ms full-system run next to a skipped-cell
 * no-op) without a single contended queue.
 *
 * Determinism contract: the pool guarantees *nothing* about
 * execution order — cells must be independent pure functions of
 * their spec, and callers commit results by index (see
 * exp::runExperiment), so the observable output is identical for
 * every jobs count. `jobs == 1` runs inline on the calling thread
 * with no threads created, which doubles as the reference schedule
 * for the determinism regression tests.
 *
 * This is the only place in the tree allowed to construct
 * std::thread (enforced by the graphene_analyze `raw-thread` rule): all
 * parallelism flows through the pool so every parallel code path
 * inherits the determinism contract.
 */

#ifndef EXP_POOL_HH
#define EXP_POOL_HH

#include <cstddef>
#include <functional>

namespace graphene {
namespace exp {

/** Number of workers `jobs == 0` resolves to (hardware threads). */
unsigned defaultJobs();

class Pool
{
  public:
    /** @param jobs worker count; 0 = defaultJobs(). */
    explicit Pool(unsigned jobs = 0);

    unsigned jobs() const { return _jobs; }

    /**
     * Run body(i) for every i in [0, n), blocking until all
     * complete. An exception escaping any body is rethrown on the
     * calling thread after the workers drain (first one wins);
     * expected per-cell failures should be returned as data instead
     * (CellResult::error).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Time-sliced variant: run body(i) for every i in [0, n); a body
     * returning true is *re-enqueued* onto the executing worker's own
     * deque and runs again later, until it returns false (or throws —
     * an exception retires the item and is rethrown after the drain,
     * first one wins). This is how src/serve multiplexes long-lived
     * session quanta over the one thread abstraction the tree allows
     * (the `raw-thread` lint rule): each item is a cooperative
     * coroutine-by-hand, and stealing balances sessions of uneven
     * length exactly as it balances uneven cells.
     *
     * Sequencing guarantee: one item is never in flight twice — it
     * sits in at most one deque or runs on at most one worker — so
     * successive invocations of body(i) are totally ordered (with the
     * necessary happens-before edges), which is what lets a quantum
     * mutate per-item state without locks. No cross-item order is
     * guaranteed, same as parallelFor. `jobs == 1` runs round-robin
     * in index order on the calling thread — the deterministic
     * reference schedule.
     */
    void runResumable(std::size_t n,
                      const std::function<bool(std::size_t)> &body);

  private:
    unsigned _jobs;
};

} // namespace exp
} // namespace graphene

#endif // EXP_POOL_HH
