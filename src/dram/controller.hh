/**
 * @file
 * Banked DRAM channel controller with open-page policy and a choice
 * of FCFS or FR-FCFS scheduling.
 *
 * The controller accepts byte-addressed accesses of any size, splits
 * them into cache-line column transactions, and issues ACT/PRE/RD/WR
 * /REF commands respecting the full JEDEC constraint set (tRCD, tRP,
 * tRAS, tRC, tCCD_S/L, tRRD_S/L, tFAW, tWR, tWTR_S/L, tRTP, tRFC,
 * tREFI). An access completes when the last data beat of its last
 * burst leaves (read) or enters (write) the device. One queue entry
 * holds a run of an access's consecutive lines in one bank row (see
 * DESIGN.md "DRAM run-length queue").
 *
 * The same controller class serves three masters in this repo: the
 * DDR4 main memory of the baseline systems, the small on-DIMM DRAM
 * that backs the AIT inside the NVRAM DIMM, and (with pcmLike()
 * timing) the Ramulator-style PCM baseline.
 */

#ifndef VANS_DRAM_CONTROLLER_HH
#define VANS_DRAM_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/fifo_ring.hh"
#include "common/inplace_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/checker.hh"
#include "dram/command.hh"
#include "dram/timing.hh"

namespace vans::obs
{
class TraceRecorder;
} // namespace vans::obs

namespace vans::dram
{

/** Controller scheduling policy. */
enum class SchedPolicy : std::uint8_t
{
    FCFS,
    FRFCFS,
};

/** One DRAM channel: banks, timing state, request queue. */
// simlint-hot
class DramController
{
  public:
    using DoneCallback = InplaceFunction<void(Tick)>;

    DramController(EventQueue &eq, const DramTiming &timing,
                   const DramGeometry &geometry,
                   SchedPolicy policy = SchedPolicy::FRFCFS,
                   MapScheme map = MapScheme::RowBankCol,
                   std::string name = "dram");
    ~DramController();

    /**
     * Enqueue an access; @p done fires at data completion time.
     * Accesses larger than a line become multiple line transactions
     * over consecutive addresses and complete with the last one.
     */
    void access(Addr addr, bool write, std::uint32_t size,
                DoneCallback done);

    /** Number of queued runs; zero exactly when no line is waiting
     *  for its CAS (data of issued lines may still be in flight). */
    std::size_t
    queueDepth() const
    {
        return readQueue.size() + writeQueue.size();
    }

    /** Statistics group (row hits, misses, commands, bytes). */
    StatGroup &stats() { return statGroup; }
    const StatGroup &statsConst() const { return statGroup; }

    /** Command trace for the protocol checker. */
    CommandTrace &trace() { return cmdTrace; }

    /**
     * Verified mode: feed every emitted command through an online
     * Ddr4Checker (no trace storage) and panic at teardown on any
     * protocol violation. Auto-enabled for every controller when
     * VANS_VERIFY is set, so all DRAM-touching tests get the checker
     * for free; call this to force it regardless of the environment.
     */
    void enableOnlineCheck();

    /** Online checker (nullptr when verified mode is off). */
    const Ddr4Checker *onlineChecker() const { return checker.get(); }

    /**
     * Attach tracing: one track for this channel, a span per access
     * from enqueue to last data beat. Pointer only (tracebyvalue
     * rule): the recorder lives in the owning memory system.
     */
    void attachTracer(obs::TraceRecorder &rec,
                      const std::string &track_name);

    const DramTiming &timing() const { return spec; }
    const DramGeometry &geometry() const { return map.geometry(); }

    /**
     * Serialize bank/timing state, stats and (when present) the
     * online checker. Requires empty request queues; the command
     * trace is not preserved (a restored world records a fresh
     * trace). The pending refresh wakeup is re-armed on restore.
     */
    void snapshotTo(snapshot::StateSink &sink) const;
    void restoreFrom(snapshot::StateSource &src);

  private:
    // simlint-transient(Parent fan-in nodes exist only while a line
    // request is in flight; snapshotTo REQUIREs both request queues
    // empty, so none can be live at capture)
    struct Parent
    {
        unsigned remaining;  ///< Lines still waiting for their CAS.
        Tick latestEnd = 0;  ///< Largest data_end issued so far.
        DoneCallback done;
    };

    // simlint-transient(LineReq entries live in readQueue/writeQueue,
    // which snapshotTo REQUIREs empty -- in-flight requests are never
    // part of a captured world)
    /**
     * A run of @c lines consecutive lines of one access that share
     * rank, bank group, bank and row. The other fields describe the
     * front line, the next to issue; its CAS advances them by one
     * line (advanceRun).
     */
    struct LineReq
    {
        DramCoord coord;
        Addr addr;
        Tick enqueueTick;
        std::uint64_t seq = 0;       ///< Arrival order (FCFS).
        std::uint32_t parentIdx = 0; ///< Fan-in slot in parents.
        std::uint32_t lines = 1;     ///< Lines left in the run.
        bool write;
        bool classified = false; ///< Hit/miss stat recorded.
    };

    struct BankState
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick actReady = 0; ///< Earliest next ACT.
        Tick casReady = 0; ///< Earliest next RD/WR (row must be open).
        Tick preReady = 0; ///< Earliest next PRE.
    };

    /** Flattened bank index. */
    unsigned
    bankIndex(const DramCoord &c) const
    {
        const auto &g = map.geometry();
        return (c.rank * g.bankGroups + c.bankGroup) *
                   g.banksPerGroup + c.bank;
    }

    /** Wake at @p when unless an earlier wakeup is already armed. */
    void scheduleWakeup(Tick when);
    /** Arm the guarded wakeup closure at @p when, unconditionally. */
    void armWakeup(Tick when);
    /**
     * After a command (or refresh) issued at @p now, arm the one
     * wakeup at which the next command can actually issue; see
     * DESIGN.md "AIT DRAM scheduler and O(1) quiescence".
     */
    void armAfterCommand(Tick now);
    void process();

    /** Record @p cmd in the trace and feed the online checker. */
    void emit(const DramCommand &cmd);

    /** Earliest tick the next required command for @p r can issue. */
    Tick earliestIssue(const LineReq &r) const;

    /** The queue the scheduler serves next and its scan window. */
    // simlint-transient(value returned by scanTarget() and consumed
    // within the same event; never stored)
    struct ScanTarget
    {
        FifoRing<LineReq> *queue;
        unsigned window; ///< In lines, not runs.
    };
    ScanTarget scanTarget();

    /**
     * earliestIssue(@p r), memoized per (bank, row hit or not) for
     * the current scan: within one queue that pair fully determines
     * the answer. beginScan() invalidates the memo after a state
     * change.
     */
    Tick classIssue(const LineReq &r);
    void beginScan() { ++scanEpoch; }

    /** FR-FCFS pick in @p t's window: oldest ready row hit, else
     *  oldest ready request; npos when nothing can issue at @p now. */
    std::size_t pick(const ScanTarget &t, Tick now);
    /** max(@p floor, earliest issue tick over @p t's window); stops
     *  scanning at the first request that can issue by @p floor. */
    Tick wakeAt(const ScanTarget &t, Tick floor);

    /** Issue the next required command for @p r's front line at the
     *  current tick. @return true if that line received its CAS. */
    bool issueFor(LineReq &r);
    /** Drop @p r's front line after its CAS: the next line leads. */
    void advanceRun(LineReq &r);

    void issueAct(const DramCoord &c);
    void issuePre(const DramCoord &c);
    void issueCas(const LineReq &r);
    void doRefresh();

    EventQueue &eventq;
    // simlint-transient(construction-time configuration: the
    // restoring controller is built from the same spec, and
    // restoreFrom only reads it to size the scratch checker)
    DramTiming spec;
    // simlint-transient(construction-time configuration shared by
    // capture and restore worlds; never mutated after the ctor)
    AddressMap map;
    // simlint-transient(construction-time configuration: scheduler
    // policy enum fixed at build time)
    SchedPolicy policy;

    /** Grab a fan-in slot from the recycled parent slab. */
    std::uint32_t allocParent(unsigned remaining, DoneCallback done);
    /** Return a completed fan-in slot to the free list. */
    void releaseParent(std::uint32_t idx);

    std::vector<BankState> banks;
    /** Reads and writes queue separately: reads have strict
     *  priority (writes are posted), and the write scan is bounded
     *  to a scheduler window, counted in lines, to keep per-command
     *  cost constant.
     *  Ring-buffered, index-addressed: the windowed scan stays
     *  contiguous in practice, the scheduler erase shifts only the
     *  scan-window prefix (a sustained read stream legitimately
     *  starves posted writes into a very deep queue, so an erase
     *  proportional to depth would go quadratic), and the warm
     *  capacity makes steady-state admission allocation-free. */
    FifoRing<LineReq> readQueue;
    FifoRing<LineReq> writeQueue;
    /**
     * Recycled fan-in nodes, one per in-flight access (all its runs
     * share the slot). Index-addressed so slab growth never
     * invalidates a reference held by a scheduled data event.
     */
    // simlint-transient(fan-in slots only carry in-flight accesses,
    // and snapshotTo REQUIREs both request queues empty; the free
    // list rebuilds as a restored world issues fresh accesses)
    std::vector<Parent> parents;
    // simlint-transient(free-list over parents, which are all free at
    // capture since the request queues are REQUIREd empty)
    std::vector<std::uint32_t> freeParents;
    std::uint64_t nextSeq = 0;
    static constexpr unsigned readScanWindow = 64;
    static constexpr unsigned writeScanWindow = 32;

    /** One bank's memoized earliestIssue pair for the current scan. */
    // simlint-transient(per-scan scratch, see scanMemo)
    struct ScanMemo
    {
        std::uint64_t epoch[2] = {0, 0}; ///< [row hit?] scan stamp.
        Tick at[2] = {0, 0};             ///< [row hit?] issue tick.
    };
    // simlint-transient(per-scan scratch: every process() and
    // armAfterCommand() starts a new epoch, so no memo outlives the
    // event that filled it)
    std::vector<ScanMemo> scanMemo;
    // simlint-transient(per-scan scratch epoch; only equality with a
    // memo's epoch matters, and a restored controller starts fresh)
    std::uint64_t scanEpoch = 1;

    /** Per-(rank,bankgroup) last CAS for tCCD_L / tRRD_L tracking. */
    std::vector<Tick> lastCasInGroup;
    std::vector<Tick> lastActInGroup;
    Tick lastCasAny = 0;
    Tick lastActAny = 0;
    FifoRing<Tick> actWindow; ///< For tFAW.
    Tick lastWrDataEnd = 0;     ///< For tWTR.
    Tick dataBusFree = 0;
    Tick cmdBusFree = 0;

    Tick nextRefresh;

    bool wakeupScheduled = false;
    Tick wakeupAt = 0;

    StatGroup statGroup;
    StatScalar &sRowHits = statGroup.scalar("row_hits");
    StatScalar &sRowConflicts = statGroup.scalar("row_conflicts");
    StatScalar &sRowMisses = statGroup.scalar("row_misses");
    StatScalar &sCmdAct = statGroup.scalar("cmd_act");
    StatScalar &sCmdPre = statGroup.scalar("cmd_pre");
    StatScalar &sCmdRd = statGroup.scalar("cmd_rd");
    StatScalar &sCmdWr = statGroup.scalar("cmd_wr");
    StatScalar &sCmdRef = statGroup.scalar("cmd_ref");
    StatScalar &sReadAccesses = statGroup.scalar("read_accesses");
    StatScalar &sWriteAccesses = statGroup.scalar("write_accesses");
    StatScalar &sBytesRead = statGroup.scalar("bytes_read");
    StatScalar &sBytesWritten = statGroup.scalar("bytes_written");
    StatAverage &sReadLatency = statGroup.average("read_latency_ns");
    StatAverage &sWriteLatency = statGroup.average("write_latency_ns");
    // simlint-transient(the command trace is documented as not
    // preserved across snapshot -- a restored world records a fresh
    // trace, which the snapshot-identity test relies on)
    CommandTrace cmdTrace;
    /** Online protocol checker; allocated only in verified mode. */
    std::unique_ptr<Ddr4Checker> checker;

    obs::TraceRecorder *tracer = nullptr;
    // simlint-transient(trace wiring assigned by attachTracer after
    // construction; a restored world re-attaches its own recorder)
    std::uint16_t traceTrack = 0;
    // simlint-transient(trace label id, re-interned on attachTracer)
    std::uint16_t lblRead = 0;
    // simlint-transient(trace label id, re-interned on attachTracer)
    std::uint16_t lblWrite = 0;
};

} // namespace vans::dram

#endif // VANS_DRAM_CONTROLLER_HH
