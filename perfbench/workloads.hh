/**
 * @file
 * The benchmark's three workloads. Each is a closed loop with one
 * simulated client, driven only through the simulator's public entry
 * points, and measured in repeated passes that each start from the
 * same state, so every pass does the same simulated work.
 *
 *  - chase-load:    dependent 64 B loads on one App Direct DIMM at
 *                   8 KB, 1 MB and 64 MB regions (RMW buffer, AIT
 *                   buffer, AIT miss).
 *  - store-persist: NT-store streams plus fence at 512 B, 16 KB and
 *                   64 MB; NT and clwb persist blocks; a wear-block
 *                   overwrite that migrates twice.
 *  - cloud-mm6:     CpuCore running YCSB, then Redis, traces on the
 *                   6-DIMM interleaved socket in Memory Mode.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hh"
#include "probe.hh"

namespace perfbench
{

/** Host time of one set-up, split by step. */
struct SetupTimes
{
    double totalS = 0;
    double configMs = 0;
    double constructMs = 0;
    double genMs = 0;     ///< Input generation (orders, traces).
    double warmS = 0;
    double captureMs = 0;
    double snapshotBytes = 0;
};

/** Operations attempted and failed, with a note per failure. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    /** Count one checked operation; record it when it failed. */
    void expect(bool ok, const std::string &what);
};

/** What one measured phase of a pass did. */
struct PhaseStat
{
    std::string name;
    double requests = 0;
    double events = 0;
    double allocs = 0;
    double hostNs = 0;
    double simNs = 0;
};

/** Everything one measured pass produced. */
struct PassResult
{
    bool traced = false;
    double hostNs = 0;   ///< Host time inside the measured calls.
    double requests = 0; ///< Simulated requests retired.
    double allocs = 0;   ///< Heap allocations inside the measured calls.
    double simNs = 0;    ///< Simulated time of the measured phases.
    double events = 0;
    double peakPending = 0;
    double peakLive = 0;
    double restoreMs = 0;
    Counters delta;                ///< Summed counter deltas.
    std::vector<PhaseStat> phases;
    std::vector<double> plateauNs; ///< Per region, simulated ns/line.
    // Simulated latency of each public call (traced passes only).
    std::vector<double> readSimNs, writeSimNs, fenceSimNs;
    // Core results (cloud-mm6 only).
    double insts = 0, coreNs = 0, readStallNs = 0, otherNs = 0;
    double llcMisses = 0, tlbWalks = 0;
    double digest = 0;
    Checks checks;
};

class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    /** Build all inputs and warm state; replaces any earlier set-up. */
    virtual SetupTimes setup() = 0;

    /** One measured pass from the set-up state. */
    virtual PassResult pass(Tracer &tr) = 0;

    /** Run a short prefix on verified worlds into @p c. */
    virtual void verifyPrefix(Checks &c) = 0;

    /**
     * Mean error (%) of the pass's plateaus against the repository's
     * Optane digitization; negative when the workload has none.
     */
    virtual double refErrorPct(const PassResult &r) const = 0;
};

/** The workload called @p name, or nullptr when there is none. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
