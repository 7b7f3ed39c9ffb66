/**
 * @file
 * Host-side parallelism for the simulator harness.
 *
 * Simulated time is inherently serial *within* one EventQueue, but
 * characterization sweeps (Figs. 5-10, Table II) re-run the whole
 * pipeline at dozens of independent configuration points. ThreadPool
 * and parallelFor fan those points out across host cores; each point
 * builds its own (EventQueue, MemorySystem, Driver) triple so no
 * simulated state is ever shared between threads.
 *
 * Thread count resolution: the VANS_THREADS environment variable
 * overrides std::thread::hardware_concurrency(). VANS_THREADS=1
 * forces every parallelFor onto the calling thread, which is the
 * reference execution the determinism tests compare against.
 */

#ifndef VANS_COMMON_PARALLEL_HH
#define VANS_COMMON_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/**
 * Clang thread-safety analysis (-Wthread-safety). The macros expand
 * to nothing under gcc; CI's clang lint lane compiles the
 * concurrency layer with -Wthread-safety -Werror so a member access
 * outside its lock fails the build there. Keep every annotation on
 * the declaration the analysis needs it on:
 *
 *   VANS_GUARDED_BY(m)   data member readable/writable only under m
 *   VANS_REQUIRES(m)     function must be called with m held
 *   VANS_ACQUIRE/RELEASE lock transitions (used by the wrappers)
 */
#if defined(__clang__)
#define VANS_TS_ATTR(x) __attribute__((x))
#else
#define VANS_TS_ATTR(x)
#endif

#define VANS_CAPABILITY(name) VANS_TS_ATTR(capability(name))
#define VANS_SCOPED_CAPABILITY VANS_TS_ATTR(scoped_lockable)
#define VANS_GUARDED_BY(m) VANS_TS_ATTR(guarded_by(m))
#define VANS_REQUIRES(m) VANS_TS_ATTR(requires_capability(m))
#define VANS_ACQUIRE(...) \
    VANS_TS_ATTR(acquire_capability(__VA_ARGS__))
#define VANS_RELEASE(...) \
    VANS_TS_ATTR(release_capability(__VA_ARGS__))
#define VANS_EXCLUDES(m) VANS_TS_ATTR(locks_excluded(m))

namespace vans
{

/**
 * Worker threads to use for sweep fan-out: VANS_THREADS if set
 * (a positive decimal integer; any other value is fatal), otherwise
 * the hardware concurrency.
 */
unsigned hardwareThreads();

/**
 * std::mutex with a thread-safety capability attached, so members
 * can be declared VANS_GUARDED_BY it. Condition-variable waits go
 * through MutexLock::native().
 */
class VANS_CAPABILITY("mutex") Mutex
{
  public:
    void lock() VANS_ACQUIRE() { m.lock(); }
    void unlock() VANS_RELEASE() { m.unlock(); }

  private:
    friend class MutexLock;
    std::mutex m;
};

/**
 * Scoped lock over Mutex (the annotated std::lock_guard /
 * std::unique_lock). native() exposes the underlying unique_lock for
 * condition_variable::wait; write waits as explicit
 * `while (!cond) cv.wait(lock.native());` loops so the analysis sees
 * every read of the guarded condition under the capability.
 */
class VANS_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) VANS_ACQUIRE(mu) : lk(mu.m) {}
    ~MutexLock() VANS_RELEASE() {}

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    std::unique_lock<std::mutex> &native() { return lk; }

  private:
    std::unique_lock<std::mutex> lk;
};

/** A fixed-size pool of worker threads draining a task queue. */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 means hardwareThreads(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned size() const { return numThreads; }

    /** Lazily constructed process-wide pool (hardwareThreads()). */
    static ThreadPool &shared();

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    Mutex mtx;
    std::deque<std::function<void()>> tasks VANS_GUARDED_BY(mtx);
    std::condition_variable taskReady;
    std::condition_variable allDone;
    std::size_t inFlight VANS_GUARDED_BY(mtx) = 0;
    bool stopping VANS_GUARDED_BY(mtx) = false;
    unsigned numThreads;
};

/**
 * Run fn(i) for every i in [0, n). Iterations are distributed over
 * @p pool (nullptr: the shared pool); with a single worker or n <= 1
 * everything runs inline on the calling thread. Blocks until all
 * iterations finished. The first exception thrown by an iteration is
 * rethrown on the calling thread after the loop drains.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 ThreadPool *pool = nullptr);

} // namespace vans

#endif // VANS_COMMON_PARALLEL_HH
