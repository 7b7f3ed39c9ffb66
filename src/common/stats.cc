#include "common/stats.hh"

#include <cmath>
#include <sstream>

#include "common/check.hh"
#include "common/snapshot.hh"

namespace vans
{

double
StatDistribution::percentile(double p) const
{
    if (samples.empty())
        return 0;
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    if (p <= 0)
        return sorted.front();
    if (p >= 1)
        return sorted.back();
    double idx = p * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(idx));
    std::size_t hi = static_cast<std::size_t>(std::ceil(idx));
    double frac = idx - static_cast<double>(lo);
    return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

double
StatDistribution::fractionAbove(double threshold) const
{
    if (samples.empty())
        return 0;
    std::size_t n = 0;
    for (double v : samples) {
        if (v > threshold)
            ++n;
    }
    return static_cast<double>(n) / static_cast<double>(samples.size());
}

std::uint64_t
StatGroup::scalarValue(const std::string &name) const
{
    auto it = scalars.find(name);
    VANS_REQUIRE("stats", 0, it != scalars.end(),
                 "%s: no scalar \"%s\" is registered",
                 groupName.c_str(), name.c_str());
    return it->second.value();
}

std::string
StatGroup::dump() const
{
    std::ostringstream out;
    for (const auto &kv : scalars) {
        out << groupName << '.' << kv.first << " = "
            << kv.second.value() << '\n';
    }
    for (const auto &kv : averages) {
        out << groupName << '.' << kv.first << " = "
            << kv.second.mean() << " (n=" << kv.second.count()
            << ", min=" << kv.second.min()
            << ", max=" << kv.second.max() << ")\n";
    }
    for (const auto &kv : distributions) {
        out << groupName << '.' << kv.first << " = "
            << kv.second.mean() << " (n=" << kv.second.count()
            << ", p50=" << kv.second.percentile(0.5)
            << ", p99=" << kv.second.percentile(0.99)
            << ", p999=" << kv.second.percentile(0.999) << ")\n";
    }
    return out.str();
}

void
StatGroup::reset()
{
    for (auto &kv : scalars)
        kv.second.reset();
    for (auto &kv : averages)
        kv.second.reset();
    for (auto &kv : distributions)
        kv.second.reset();
}

void
StatGroup::snapshotTo(snapshot::StateSink &sink) const
{
    sink.tag("stats");
    sink.str(groupName);
    sink.u64(scalars.size());
    for (const auto &kv : scalars) { // std::map: sorted, stable
        sink.str(kv.first);
        sink.u64(kv.second.value());
    }
    sink.u64(averages.size());
    for (const auto &kv : averages) {
        sink.str(kv.first);
        sink.f64(kv.second.rawSum());
        sink.u64(kv.second.count());
        sink.f64(kv.second.rawMin());
        sink.f64(kv.second.rawMax());
    }
}

void
StatGroup::restoreFrom(snapshot::StateSource &src)
{
    src.tag("stats");
    std::string name = src.str();
    VANS_REQUIRE("stats", 0, name == groupName,
                 "stat group mismatch: stream has \"%s\", "
                 "restorer is \"%s\"",
                 name.c_str(), groupName.c_str());
    // Assign into the registered entries (handles stay bound). Keys
    // in a stream are unique, so with every one found, equal counts
    // mean no registered stat was left out.
    auto entry = [this](auto &stats, const std::string &key) -> auto & {
        auto it = stats.find(key);
        VANS_REQUIRE("stats", 0, it != stats.end(),
                     "%s: snapshot names stat \"%s\", which is not "
                     "registered",
                     groupName.c_str(), key.c_str());
        return it->second;
    };
    std::uint64_t ns = src.u64();
    for (std::uint64_t i = 0; i < ns; ++i)
        entry(scalars, src.str()).set(src.u64());
    std::uint64_t na = src.u64();
    for (std::uint64_t i = 0; i < na; ++i) {
        StatAverage &avg = entry(averages, src.str());
        double sum = src.f64();
        std::uint64_t cnt = src.u64();
        double lo = src.f64();
        double hi = src.f64();
        avg.restoreRaw(sum, cnt, lo, hi);
    }
    VANS_REQUIRE("stats", 0,
                 ns == scalars.size() && na == averages.size(),
                 "%s: snapshot restores %llu of %zu registered scalars "
                 "and %llu of %zu averages",
                 groupName.c_str(), static_cast<unsigned long long>(ns),
                 scalars.size(), static_cast<unsigned long long>(na),
                 averages.size());
}

bool
StatGroup::identicalTo(const StatGroup &other) const
{
    if (scalars.size() != other.scalars.size() ||
        averages.size() != other.averages.size())
        return false;
    for (const auto &kv : scalars) {
        auto it = other.scalars.find(kv.first);
        if (it == other.scalars.end() ||
            it->second.value() != kv.second.value())
            return false;
    }
    for (const auto &kv : averages) {
        auto it = other.averages.find(kv.first);
        if (it == other.averages.end() ||
            it->second.rawSum() != kv.second.rawSum() ||
            it->second.count() != kv.second.count() ||
            it->second.rawMin() != kv.second.rawMin() ||
            it->second.rawMax() != kv.second.rawMax())
            return false;
    }
    return true;
}

} // namespace vans
