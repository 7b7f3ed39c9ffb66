/**
 * @file
 * Per-layer counters read from a VansSystem's StatGroups, and the
 * exact metrics derived from them.
 *
 * Every group a VansSystem exports through metricsInto() is assigned
 * its layer by its position in the export, never by its name: the
 * per-DIMM media and wear groups of a multi-DIMM system all carry the
 * same bare names ("media", "wear"), so a name lookup would see only
 * one DIMM. Counters are summed over DIMMs and channels.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nvram/vans_system.hh"

namespace perfbench
{

/**
 * Raw counters keyed "<layer>.<stat>". A StatScalar contributes its
 * value; a StatAverage contributes "<layer>.<stat>.sum" and
 * "<layer>.<stat>.n", so that the mean over any interval can be
 * taken from two readings.
 */
using Counters = std::map<std::string, double>;

/** Read every exported StatGroup of @p sys into layer counters. */
Counters readCounters(vans::nvram::VansSystem &sys);

/** acc += after - before, key by key. */
void addDelta(Counters &acc, const Counters &after,
              const Counters &before);

/**
 * A 53-bit FNV-1a hash of every model counter in @p c plus @p extra
 * (simulated results the caller adds), exact in a JSON double.
 */
double modelDigest(const Counters &c,
                   const std::vector<std::uint64_t> &extra);

/**
 * Multi-DIMM aggregation self-test: the per-DIMM media and wear
 * groups, found by position, must sum to VansSystem's own totals.
 * @return a description of each mismatch (empty when they agree).
 */
std::vector<std::string> checkDimmTotals(vans::nvram::VansSystem &sys);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * The exact per-layer metrics of one pass, from the summed counter
 * deltas @p d of its measured phases and its request count.
 */
std::vector<Metric> layerMetrics(const Counters &d, double requests);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
