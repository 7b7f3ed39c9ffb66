#include "probe.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t a = static_cast<std::size_t>(al);
    std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Counting global allocator: every heap allocation the process makes,
// the simulator's included, goes through these.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench
{

std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

const char *
spanKindName(SpanKind k)
{
    switch (k) {
    case SpanKind::Phase:
        return "phase";
    case SpanKind::Restore:
        return "snapshot.restore";
    case SpanKind::LensRead:
        return "lens.read";
    case SpanKind::LensWrite:
        return "lens.write";
    case SpanKind::LensFence:
        return "lens.fence";
    case SpanKind::LensPersist:
        return "lens.persist";
    case SpanKind::Drain:
        return "lens.drain";
    case SpanKind::CpuRun:
        return "cpu.run";
    case SpanKind::NumKinds:
        break;
    }
    return "?";
}

std::uint16_t
Tracer::phaseId(const std::string &name)
{
    for (std::size_t i = 0; i < phases.size(); ++i) {
        if (phases[i] == name)
            return static_cast<std::uint16_t>(i);
    }
    phases.push_back(name);
    return static_cast<std::uint16_t>(phases.size() - 1);
}

std::uint32_t
Tracer::open(SpanKind kind, std::uint16_t phase)
{
    Span s;
    s.kind = kind;
    s.phase = phase;
    s.parent = stack.empty() ? 0 : stack.back();
    recorded.push_back(s);
    auto id = static_cast<std::uint32_t>(recorded.size());
    stack.push_back(id);
    // Read the clock last, so the bookkeeping above is not charged
    // to the span.
    recorded.back().start = hostNs();
    return id;
}

void
Tracer::close(std::uint32_t id)
{
    recorded[id - 1].end = hostNs();
    stack.pop_back();
}

std::map<std::string, Tracer::KindSummary>
Tracer::summary() const
{
    constexpr auto n = static_cast<std::size_t>(SpanKind::NumKinds);
    std::vector<std::uint64_t> childNs(recorded.size(), 0);
    for (const Span &s : recorded) {
        if (s.parent)
            childNs[s.parent - 1] += s.end - s.start;
    }
    std::vector<std::vector<double>> durs(n);
    std::vector<KindSummary> acc(n);
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        auto k = static_cast<std::size_t>(s.kind);
        double d = static_cast<double>(s.end - s.start);
        durs[k].push_back(d);
        acc[k].count += 1;
        acc[k].totalMs += d / 1e6;
        acc[k].selfMs += (d - static_cast<double>(childNs[i])) / 1e6;
    }
    std::map<std::string, KindSummary> out;
    for (std::size_t k = 0; k < n; ++k) {
        if (!acc[k].count)
            continue;
        acc[k].p50Ns = percentile(durs[k], 50);
        acc[k].p99Ns = percentile(durs[k], 99);
        out[spanKindName(static_cast<SpanKind>(k))] = acc[k];
    }
    return out;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    std::vector<double> s(v);
    std::sort(s.begin(), s.end());
    std::size_t m = s.size() / 2;
    return s.size() % 2 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

} // namespace perfbench
