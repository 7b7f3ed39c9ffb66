#include "common/parallel.hh"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>

#include "common/logging.hh"

namespace vans
{

unsigned
hardwareThreads()
{
    if (const char *env = std::getenv("VANS_THREADS")) {
        // The whole value must parse: strtol would read "abc" as 0
        // and "4x" as 4, silently running a thread count nobody
        // asked for.
        const char *end = env + std::strlen(env);
        unsigned v = 0;
        auto [stop, ec] = std::from_chars(env, end, v);
        if (ec != std::errc() || stop != end || v == 0) {
            fatal("VANS_THREADS='%s' is not a positive decimal integer",
                  env);
        }
        return v;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1u;
}

ThreadPool::ThreadPool(unsigned threads)
    : numThreads(threads ? threads : hardwareThreads())
{
    workers.reserve(numThreads);
    for (unsigned i = 0; i < numThreads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mtx);
        stopping = true;
    }
    taskReady.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        MutexLock lock(mtx);
        tasks.push_back(std::move(task));
        ++inFlight;
    }
    taskReady.notify_one();
}

void
ThreadPool::wait()
{
    MutexLock lock(mtx);
    while (inFlight != 0)
        allDone.wait(lock.native());
}

namespace
{
/** Set while the current thread is a pool worker: nested
 *  parallelFor calls degrade to inline execution instead of
 *  deadlocking on their own pool. */
thread_local bool insidePoolWorker = false;
} // namespace

void
ThreadPool::workerLoop()
{
    insidePoolWorker = true;
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mtx);
            while (!stopping && tasks.empty())
                taskReady.wait(lock.native());
            if (tasks.empty())
                return; // stopping and drained
            task = std::move(tasks.front());
            tasks.pop_front();
        }
        task();
        {
            MutexLock lock(mtx);
            --inFlight;
        }
        allDone.notify_all();
    }
}

ThreadPool &
ThreadPool::shared()
{
    // simlint-allow: magic static; the pool locks internally.
    static ThreadPool pool;
    return pool;
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t)> &fn,
            ThreadPool *pool)
{
    if (n == 0)
        return;
    if (insidePoolWorker) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool &p = pool ? *pool : ThreadPool::shared();
    if (n == 1 || p.size() <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Work-stealing-by-counter: each worker task pulls the next
    // un-started index until the range drains. Result ordering is
    // the caller's concern (results indexed by i are deterministic
    // regardless of which worker ran which i).
    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    auto firstError = std::make_shared<std::atomic<bool>>(false);
    auto error = std::make_shared<std::exception_ptr>();
    auto errorMtx = std::make_shared<std::mutex>();

    std::size_t lanes = std::min<std::size_t>(p.size(), n);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        p.submit([&fn, n, next, firstError, error, errorMtx] {
            for (;;) {
                std::size_t i =
                    next->fetch_add(1, std::memory_order_relaxed);
                if (i >= n || firstError->load())
                    return;
                try {
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(*errorMtx);
                    if (!firstError->exchange(true))
                        *error = std::current_exception();
                }
            }
        });
    }
    p.wait();
    if (firstError->load())
        std::rethrow_exception(*error);
}

} // namespace vans
