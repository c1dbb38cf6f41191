/**
 * @file
 * Minimal parallel-execution engine for embarrassingly-parallel sweep
 * loops (DSE candidates, partition searches, bench config points).
 * C++20 std::jthread only — no external dependencies.
 *
 * Determinism contract: parallelFor hands each worker indices from a
 * shared atomic counter, so the *order* of execution is nondeterministic
 * but the mapping index -> work item is fixed. Callers store results by
 * index into a pre-sized vector, making parallel output bit-identical to
 * the sequential run (enforced by tests/parallel_test.cpp). Workers must
 * not share mutable state; each owns its own Simulator/DramMemory.
 *
 * Locking discipline (statically enforced under clang's thread-safety
 * analysis, see check/thread_safety.hpp): every mutable member of
 * ThreadPool is guarded by its one mutex; all public entry points
 * acquire it internally and must be called without it held
 * (SIM_EXCLUDES).
 */

#ifndef SCALESIM_COMMON_PARALLEL_HH
#define SCALESIM_COMMON_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "check/thread_safety.hpp"

namespace scalesim
{

/**
 * Resolve a jobs request to a concrete worker count.
 *  - 0 means "auto": the SCALESIM_JOBS environment variable if set,
 *    otherwise std::thread::hardware_concurrency().
 *  - Any other value is used as-is (clamped to >= 1).
 */
unsigned resolveJobs(unsigned requested);

/**
 * Fixed-size pool of std::jthread workers draining a task queue.
 * Tasks may be submitted from any thread; wait() blocks until the
 * queue is empty and every in-flight task has finished.
 */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (resolved via resolveJobs). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains outstanding work, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    unsigned threadCount() const { return threadCount_; }

    /** Enqueue one task. */
    void submit(std::function<void()> task) SIM_EXCLUDES(mutex_);

    /** Block until all submitted tasks have completed. */
    void wait() SIM_EXCLUDES(mutex_);

  private:
    void workerLoop(std::stop_token stop) SIM_EXCLUDES(mutex_);

    unsigned threadCount_;
    CheckedMutex mutex_;
    std::condition_variable_any taskReady_;
    std::condition_variable_any allDone_;
    std::deque<std::function<void()>> tasks_ SIM_GUARDED_BY(mutex_);
    std::uint64_t inFlight_ SIM_GUARDED_BY(mutex_) = 0;
    std::vector<std::jthread> workers_; // last: joins before members die
};

/**
 * Run body(i) for every i in [0, n) on up to `jobs` threads.
 * jobs <= 1 (after resolveJobs for jobs == 1; pass 0 for auto) runs
 * inline on the calling thread, byte-identical to a plain loop. The
 * first exception thrown by any body is rethrown on the caller after
 * all workers stop.
 */
void parallelFor(std::uint64_t n, unsigned jobs,
                 const std::function<void(std::uint64_t)>& body);

} // namespace scalesim

#endif // SCALESIM_COMMON_PARALLEL_HH
