#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string_view>
#include <thread>
#include <vector>

#include "check/thread_safety.hpp"
#include "common/parse.hpp"

namespace scalesim
{

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    // Read-only env lookup before any pool thread exists; nothing in
    // the simulator calls setenv, so this cannot race.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("SCALESIM_JOBS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(std::uint64_t n, unsigned jobs,
            const std::function<void(std::uint64_t)>& body)
{
    if (n == 0)
        return;
    // More threads than hardware threads only add start-up cost, and
    // a request's "jobs" must not be able to start thousands of them.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const auto workers = static_cast<unsigned>(
        std::min<std::uint64_t>({resolveJobs(jobs), hw, n}));
    if (workers <= 1) {
        for (std::uint64_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::uint64_t> next{0};
    std::atomic<bool> failed{false};
    /** First exception across workers, with an annotated lock. */
    struct ErrorSlot
    {
        CheckedMutex mutex;
        std::exception_ptr first SIM_GUARDED_BY(mutex);

        void
        store(std::exception_ptr error) SIM_EXCLUDES(mutex)
        {
            MutexLock lock(mutex);
            if (!first)
                first = error;
        }

        std::exception_ptr
        take() SIM_EXCLUDES(mutex)
        {
            MutexLock lock(mutex);
            return first;
        }
    } slot;
    auto drain = [&] {
        for (;;) {
            const std::uint64_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            try {
                body(i);
            } catch (...) {
                slot.store(std::current_exception());
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };
    {
        std::vector<std::jthread> threads;
        threads.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            threads.emplace_back(drain);
    }
    if (auto error = slot.take())
        std::rethrow_exception(error);
}

unsigned
jobsFromArgs(int argc, char** argv, unsigned fallback)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg != "--jobs" && arg != "-j")
            continue;
        std::uint64_t jobs = 0;
        if (i + 1 >= argc
            || parseUint64(argv[i + 1], jobs) != NumberParse::Ok
            || jobs > std::numeric_limits<unsigned>::max()) {
            std::fprintf(stderr,
                         "usage: %s [--jobs N]  (N worker threads, "
                         "0 = auto), got '%s'\n",
                         argv[0], i + 1 < argc ? argv[i + 1] : "");
            std::exit(1);
        }
        return static_cast<unsigned>(jobs);
    }
    return fallback;
}

} // namespace scalesim
