/**
 * @file
 * Host-side probes of the benchmark: a monotonic clock, a count of
 * heap allocations made by the whole process, and an in-memory span
 * recorder. None of them reaches into the simulator; they time and
 * count the calls the benchmark makes into its public entry points.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench
{

/** Monotonic host time in nanoseconds. */
std::uint64_t hostNs();

/** Heap allocations (operator new calls) since process start. */
std::uint64_t allocCount();

/** What a span covers: one public call, or one workload phase. */
enum class SpanKind : std::uint16_t
{
    Phase,           ///< One measured region or phase of a pass.
    Restore,         ///< WorldSnapshot::restoreInto.
    LensRead,        ///< lens::Driver::read.
    LensWrite,       ///< lens::Driver::streamWrites.
    LensFence,       ///< lens::Driver::fence.
    LensPersist,     ///< lens::Driver::persistBlockNt / Cached.
    Drain,           ///< Driver::drain / MemorySystem::drain.
    CpuRun,          ///< cpu::CpuCore::run, one instruction slice.
    NumKinds
};

const char *spanKindName(SpanKind k);

/** One recorded span. Parent 0 means "no parent". */
struct Span
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint32_t parent = 0;
    SpanKind kind = SpanKind::Phase;
    std::uint16_t phase = 0; ///< Phase id (index into phaseNames).
};

/**
 * Records spans in memory while enabled; a disabled tracer costs one
 * branch per call site. Span ids are 1-based indices into spans().
 */
class Tracer
{
  public:
    bool enabled() const { return on; }
    void enable(bool e) { on = e; }

    /** Register (or look up) a phase name; returns its id. */
    std::uint16_t phaseId(const std::string &name);

    /** Open a span of @p kind under the innermost open span. */
    std::uint32_t open(SpanKind kind, std::uint16_t phase);
    void close(std::uint32_t id);

    /** Time @p fn as a span when enabled; call it plainly otherwise. */
    template <class Fn>
    auto
    span(SpanKind kind, std::uint16_t phase, Fn &&fn)
    {
        if (!on)
            return fn();
        std::uint32_t id = open(kind, phase);
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            close(id);
        } else {
            auto r = fn();
            close(id);
            return r;
        }
    }

    const std::vector<Span> &spans() const { return recorded; }
    const std::vector<std::string> &phaseNames() const { return phases; }
    void reserve(std::size_t n) { recorded.reserve(n); }

    /**
     * Per span kind: count, total and self host time (duration minus
     * the part covered by child spans), and p50/p99 duration.
     */
    struct KindSummary
    {
        std::uint64_t count = 0;
        double totalMs = 0;
        double selfMs = 0;
        double p50Ns = 0;
        double p99Ns = 0;
    };
    std::map<std::string, KindSummary> summary() const;

  private:
    bool on = false;
    std::vector<Span> recorded;
    std::vector<std::uint32_t> stack;
    std::vector<std::string> phases;
};

/** Nearest-rank percentile of @p v (sorted copy); 0 when empty. */
double percentile(std::vector<double> v, double p);

/** Median of @p v; 0 when empty. */
double median(const std::vector<double> &v);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
