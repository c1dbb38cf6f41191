/**
 * @file
 * Clang Thread Safety Analysis surface for the simulator's concurrent
 * code (parallelFor sweeps and the serve-mode result cache). The repo's
 * standing invariant is *bit-identical* results under any worker
 * count; the locking discipline that invariant rests on is encoded
 * here as compile-time capability annotations instead of
 * runtime-TSan-maybe-catches.
 *
 * Under clang the SIM_* macros expand to the thread-safety attributes
 * and the `static-analysis` CI lane compiles with
 * `-Wthread-safety -Wthread-safety-beta` promoted to errors, so an
 * unguarded access to shared state no longer compiles. Everywhere else
 * (gcc, MSVC) they expand to nothing.
 *
 * std::mutex is not an annotated capability type, so lock-protected
 * classes use the CheckedMutex wrapper below (a std::mutex that clang
 * can reason about) together with the MutexLock RAII guard.
 * condition-variable waits go through std::condition_variable_any,
 * which accepts MutexLock as its BasicLockable; wait predicates that
 * touch guarded members call CheckedMutex::assertHeld() first, telling
 * the analysis the capability is held inside the predicate lambda.
 *
 * Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
 */

#ifndef SCALESIM_CHECK_THREAD_SAFETY_HH
#define SCALESIM_CHECK_THREAD_SAFETY_HH

#include <mutex>

#if defined(__clang__)
#define SIM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SIM_THREAD_ANNOTATION(x) // no-op off clang
#endif

/** Mark a class as a lockable capability ("mutex", "role", ...). */
#define SIM_CAPABILITY(x) SIM_THREAD_ANNOTATION(capability(x))

/** Mark a RAII guard class whose ctor acquires and dtor releases. */
#define SIM_SCOPED_CAPABILITY SIM_THREAD_ANNOTATION(scoped_lockable)

/** A data member readable/writable only with the capability held. */
#define SIM_GUARDED_BY(x) SIM_THREAD_ANNOTATION(guarded_by(x))

/** A pointer member whose *pointee* is protected by the capability. */
#define SIM_PT_GUARDED_BY(x) SIM_THREAD_ANNOTATION(pt_guarded_by(x))

/** The caller must hold the capability (and does not release it). */
#define SIM_REQUIRES(...) \
    SIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** The function acquires the capability (caller must not hold it). */
#define SIM_ACQUIRE(...) \
    SIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** The function releases the capability (caller must hold it). */
#define SIM_RELEASE(...) \
    SIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** The function acquires the capability iff it returns `value`. */
#define SIM_TRY_ACQUIRE(...) \
    SIM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** The caller must NOT hold the capability (anti-deadlock). */
#define SIM_EXCLUDES(...) SIM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Assert (to the analysis only) that the capability is held. */
#define SIM_ASSERT_CAPABILITY(x) \
    SIM_THREAD_ANNOTATION(assert_capability(x))

/** The function returns a reference to the given capability. */
#define SIM_RETURN_CAPABILITY(x) SIM_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: disable the analysis for one function body. */
#define SIM_NO_THREAD_SAFETY_ANALYSIS \
    SIM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace scalesim
{

/**
 * std::mutex annotated as a clang capability. Same semantics and cost
 * (the wrapper is empty); only the type carries the attribute the
 * analysis needs. Use with SIM_GUARDED_BY on every member the mutex
 * protects — the scalesim_lint `naked-mutex` check enforces that no
 * mutex member goes without at least one SIM_GUARDED_BY user.
 */
class SIM_CAPABILITY("mutex") CheckedMutex
{
  public:
    CheckedMutex() = default;
    CheckedMutex(const CheckedMutex&) = delete;
    CheckedMutex& operator=(const CheckedMutex&) = delete;

    void lock() SIM_ACQUIRE() { mutex_.lock(); }
    void unlock() SIM_RELEASE() { mutex_.unlock(); }
    bool try_lock() SIM_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

    /**
     * Tell the analysis the mutex is held without touching it. For
     * contexts the analysis cannot see through — chiefly
     * condition-variable wait predicates, which run as separate
     * lambdas while the wait holds the lock.
     */
    void assertHeld() const SIM_ASSERT_CAPABILITY(this) {}

  private:
    // The wrapper *is* the annotated capability; the raw mutex under
    // it is the implementation detail.
    std::mutex mutex_; // scalesim-lint: allow(naked-mutex)
};

/**
 * RAII guard for CheckedMutex (the annotated std::lock_guard). Also
 * satisfies BasicLockable, so std::condition_variable_any can wait on
 * it directly: `cv.wait(lock, pred)` unlocks/relocks through the
 * annotated methods below.
 */
class SIM_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(CheckedMutex& mutex) SIM_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() SIM_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

    /** Relock after a condition-variable wait cycle. */
    void lock() SIM_ACQUIRE() { mutex_.lock(); }
    /** Unlock for a condition-variable wait cycle. */
    void unlock() SIM_RELEASE() { mutex_.unlock(); }

  private:
    CheckedMutex& mutex_;
};

} // namespace scalesim

#endif // SCALESIM_CHECK_THREAD_SAFETY_HH
