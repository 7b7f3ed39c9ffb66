/**
 * @file
 * RMW buffer model: the 16KB on-DIMM SRAM staging buffer with 256B
 * entries (paper sections III-C and IV-A).
 *
 * Dual role:
 *  - Read cache: read misses fill a 256B line from the AIT and the
 *    line stays resident (clean) until evicted, which is what makes
 *    pointer-chasing regions up to 16KB fast (the first latency
 *    plateau).
 *  - Write staging: writes from the LSQ are merged into an entry and
 *    issued FIFO to the AIT ("the RMW Buffer issues FIFO requests to
 *    the AIT Buffer"). Writes smaller than the 256B entry trigger the
 *    read-modify-write fill that gives the buffer its name -- and the
 *    4x write amplification LENS measures for sub-256B stores.
 *
 * Inclusive hierarchy: everything resident here was filled through
 * the AIT buffer, so the two levels form the two-level inclusive
 * hierarchy the paper's RaW experiment identifies (Fig 5c).
 */

#ifndef VANS_NVRAM_RMW_BUFFER_HH
#define VANS_NVRAM_RMW_BUFFER_HH

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/event_queue.hh"
#include "common/inplace_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "nvram/ait.hh"
#include "nvram/nvram_config.hh"

namespace vans::nvram
{

/** 64-entry x 256B SRAM staging buffer in front of the AIT. */
// simlint-hot
class RmwBuffer
{
  public:
    using DoneCallback = InplaceFunction<void(Tick)>;

    RmwBuffer(EventQueue &eq, const NvramConfig &cfg, Ait &ait,
              const std::string &name);

    /**
     * Read 64B at @p addr. @p done fires when data is available at
     * the DIMM controller.
     */
    void read(Addr addr, DoneCallback done);

    /** True while a write of a new line can be admitted. */
    bool canAcceptWrite(Addr addr) const;

    /**
     * Accept a write covering @p bytes at @p addr (aligned within
     * one 256B line). Writes of a full line skip the RMW fill.
     * @p done fires when the write is merged into the buffer entry
     * (LSQ may then free its entries).
     */
    void acceptWrite(Addr addr, std::uint32_t bytes, DoneCallback done);

    /** Registered by the LSQ to learn about freed space. */
    InplaceFunction<void()> onSpaceFreed;

    /** True when no dirty data is staged or queued toward the AIT.
     *  O(1): the iMC fence poll asks every 20 ns. */
    bool writeQuiescent() const;

    /** Snapshot precondition: every entry Clean, no fills open.
     *  O(1): MemorySystem::drain() asks after every event. */
    bool quiescent() const;

    /** Resident-line count (tests and probers). */
    std::size_t occupancy() const { return entries.size(); }

    StatGroup &stats() { return statGroup; }

    /**
     * Attach tracing: one track showing read-modify-write fill
     * spans, read-miss instants, and an occupancy counter series.
     * Pointer only; the recorder outlives this model.
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &track_name);

    /**
     * Serialize resident entries (sorted by line), the clean-LRU
     * sequence verbatim, and stats. Requires full quiescence: no
     * staged writes, no fills in flight, every entry Clean.
     */
    void snapshotTo(snapshot::StateSink &sink) const;
    void restoreFrom(snapshot::StateSource &src);

  private:
    enum class State : std::uint8_t
    {
        Filling,    ///< AIT fill in flight (RMW read pending).
        Dirty,      ///< Staged write waiting in the issue FIFO.
        IssuedWait, ///< Offered to the AIT, waiting for intake.
        Clean,      ///< Data valid, nothing pending (read cache).
    };

    struct Entry
    {
        Addr line;
        State state = State::Clean;
        // simlint-transient(snapshotTo REQUIREs every entry Clean,
        // and clean entries have no dirty bytes; restoreFrom
        // re-zeroes it explicitly)
        std::uint32_t dirtyBytes = 0;
        /** Entry exists only to stage a write: freed after issue.
         *  Read-fill entries are retained clean instead -- the RMW
         *  buffer is a read cache but only a *staging* buffer for
         *  writes (paper: "issues FIFO requests to the AIT"). */
        bool writeStaging = false;
        bool inCleanLru = false; ///< Present in the LRU list.
        // simlint-transient(waiters exist only on in-flight entries;
        // snapshotTo REQUIREs every entry Clean with
        // mergeWaiters.empty())
        std::vector<DoneCallback> mergeWaiters;
    };

    Addr lineOf(Addr addr) const { return alignDown(addr,
                                                    cfg.rmwLineBytes); }

    Entry *find(Addr line);

    /** Transition @p e to Clean and register it as evictable. */
    void markClean(Entry &e);

    /** Evict a clean entry to make room. @return true on success. */
    bool makeRoom();

    void enqueueIssue(Addr line);
    void drainIssue();
    void finishWrite(Entry &e, Tick when);

    /** Entry holds write data not yet handed to the AIT. */
    static bool
    writePending(const Entry &e)
    {
        return e.state == State::Dirty ||
               e.state == State::IssuedWait ||
               (e.state == State::Filling && e.dirtyBytes > 0);
    }

    /** Recount State::Clean entries (audits only). */
    std::size_t countedClean() const;
    /** Recount writePending() entries (audits only). */
    std::size_t countedWritePending() const;

    EventQueue &eventq;
    // simlint-transient(construction-time configuration: capture and
    // restore worlds are built from the same NvramConfig)
    NvramConfig cfg;
    Ait &ait;

    std::unordered_map<Addr, Entry> entries;
    std::list<Addr> cleanLru;          ///< Front = most recent.
    std::size_t cleanCount = 0;        ///< Entries in State::Clean.
    /** Entries for which writePending() holds, kept at every state
     *  transition so writeQuiescent() need not walk the map. */
    // simlint-transient(zero at capture -- snapshotTo REQUIREs
    // writeQuiescent -- and zero in the fresh buffer restoreFrom
    // REQUIREs)
    std::size_t writePendingCount = 0;
    // simlint-transient(holds dirty lines only; writeQuiescent --
    // the snapshot precondition -- means none exist, and restoreFrom
    // REQUIREs it empty)
    std::deque<Addr> issueFifo;        ///< Dirty lines, FIFO to AIT.
    // simlint-transient(provably false at capture: the issue engine
    // runs only while issueFifo is non-empty)
    bool issueBusy = false;
    /** Write-staging fills in flight. The staging pipeline is FIFO
     *  (paper section IV-A), so an open read-modify-write fill
     *  blocks admission of further staged writes -- the mechanism
     *  that prices sub-256B write streams once the LSQ overflows. */
    unsigned writeFillsInFlight = 0;

    StatGroup statGroup;

    obs::TraceRecorder *tracer = nullptr;
    // simlint-transient(trace wiring assigned by attachTracer after
    // construction; a restored world re-attaches its own recorder)
    std::uint16_t traceTrack = 0;
    // simlint-transient(trace label id, re-interned on attachTracer)
    std::uint16_t lblFill = 0;
    // simlint-transient(trace label id, re-interned on attachTracer)
    std::uint16_t lblReadMiss = 0;
    // simlint-transient(trace label id, re-interned on attachTracer)
    std::uint16_t lblOccupancy = 0;
};

} // namespace vans::nvram

#endif // VANS_NVRAM_RMW_BUFFER_HH
