/**
 * @file
 * Lightweight statistics framework.
 *
 * Components own Scalar / Average / Histogram stats and register them
 * with a StatGroup so experiment harnesses can dump everything by
 * name. Histogram keeps raw samples bounded by reservoir limits so
 * tail percentiles stay queryable even across very long runs.
 */

#ifndef VANS_COMMON_STATS_HH
#define VANS_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace vans::snapshot
{
class StateSink;
class StateSource;
} // namespace vans::snapshot

namespace vans
{

/** A monotonically accumulating counter. */
class StatScalar
{
  public:
    void inc(std::uint64_t n = 1) { total += n; }
    void set(std::uint64_t v) { total = v; }
    std::uint64_t value() const { return total; }
    void reset() { total = 0; }

  private:
    std::uint64_t total = 0;
};

/** Running mean / min / max of a double-valued sample stream. */
class StatAverage
{
  public:
    void
    sample(double v)
    {
        sum += v;
        ++n;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }

    double mean() const { return n ? sum / static_cast<double>(n) : 0; }
    double min() const { return n ? lo : 0; }
    double max() const { return n ? hi : 0; }
    std::uint64_t count() const { return n; }

    void
    reset()
    {
        sum = 0;
        n = 0;
        lo = std::numeric_limits<double>::max();
        hi = std::numeric_limits<double>::lowest();
    }

    /**
     * Raw state access for snapshot serialization (mean()*count()
     * would not round-trip the sum bit-exactly).
     */
    double rawSum() const { return sum; }
    double rawMin() const { return lo; }
    double rawMax() const { return hi; }
    void
    restoreRaw(double s, std::uint64_t cnt, double l, double h)
    {
        sum = s;
        n = cnt;
        lo = l;
        hi = h;
    }

  private:
    double sum = 0;
    std::uint64_t n = 0;
    double lo = std::numeric_limits<double>::max();
    double hi = std::numeric_limits<double>::lowest();
};

/**
 * Sample distribution that retains individual samples (up to a cap)
 * so percentiles and tail counts can be computed after a run.
 */
// simlint-allow(statscover: this IS the stats framework -- the
// nested StatAverage is exported through the group that owns the
// distribution, not through a walk of its own)
class StatDistribution
{
  public:
    explicit StatDistribution(std::size_t max_samples = 1u << 20)
        : cap(max_samples)
    {}

    void
    sample(double v)
    {
        avg.sample(v);
        if (samples.size() < cap)
            samples.push_back(v);
    }

    double mean() const { return avg.mean(); }
    double min() const { return avg.min(); }
    double max() const { return avg.max(); }
    std::uint64_t count() const { return avg.count(); }

    /** p in [0,1]; interpolated percentile over retained samples. */
    double percentile(double p) const;

    /** Fraction of retained samples strictly above @p threshold. */
    double fractionAbove(double threshold) const;

    const std::vector<double> &raw() const { return samples; }

    void
    reset()
    {
        avg.reset();
        samples.clear();
    }

  private:
    StatAverage avg;
    std::vector<double> samples;
    std::size_t cap;
};

/**
 * Named registry of stats belonging to one component. Components
 * register each stat while they are constructed and keep the returned
 * reference. Entries are never erased (restoreFrom assigns in place)
 * and a move steals the map nodes, so references stay valid; a copy
 * would leave its holder's references in the original, so copying is
 * deleted.
 */
// simlint-allow(statscover: StatGroup is the unit the
// MetricsRegistry walk iterates -- its containers are the walk's
// leaves, not members that need re-exporting)
class StatGroup
{
  public:
    explicit StatGroup(std::string group_name)
        : groupName(std::move(group_name))
    {}
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;
    StatGroup(StatGroup &&) = default;

    /** Register (or find) a scalar; construction and export only. */
    StatScalar &scalar(const std::string &name)
    {
        return scalars[name];
    }

    /** Register (or find) an average; construction and export only. */
    StatAverage &average(const std::string &name)
    {
        return averages[name];
    }

    /**
     * Register (or find) a sample distribution (percentile-capable).
     * Distributions are observability-only: they are not serialized
     * by snapshotTo() and do not participate in identicalTo(), so
     * adding one never perturbs the warm-world fork contract.
     */
    StatDistribution &distribution(const std::string &name)
    {
        return distributions[name];
    }

    const std::string &name() const { return groupName; }

    /** Iteration access for the metrics exporter (sorted by name). */
    const std::map<std::string, StatScalar> &allScalars() const
    {
        return scalars;
    }
    const std::map<std::string, StatAverage> &allAverages() const
    {
        return averages;
    }
    const std::map<std::string, StatDistribution> &
    allDistributions() const
    {
        return distributions;
    }

    /** Value of a registered scalar; an unregistered name is fatal. */
    std::uint64_t scalarValue(const std::string &name) const;

    /** Render "group.stat = value" lines. */
    std::string dump() const;

    void reset();

    /** Serialize every scalar and average (by name, bit-exact). */
    void snapshotTo(snapshot::StateSink &sink) const;

    /** Restore snapshotTo() output into the registered entries; the
     *  stream must name exactly those scalars and averages. */
    void restoreFrom(snapshot::StateSource &src);

    /** True when both groups hold identical stats (test helper). */
    bool identicalTo(const StatGroup &other) const;

  private:
    std::string groupName;
    std::map<std::string, StatScalar> scalars;
    std::map<std::string, StatAverage> averages;
    // simlint-transient(distributions are observability-only by
    // documented contract: snapshotTo serializes scalars and
    // averages, and identicalTo ignores distributions, so adding one
    // never perturbs the warm-world fork)
    std::map<std::string, StatDistribution> distributions;
};

} // namespace vans

#endif // VANS_COMMON_STATS_HH
