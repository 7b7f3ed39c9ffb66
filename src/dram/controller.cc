#include "dram/controller.hh"

#include <algorithm>
#include <limits>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::dram
{

namespace
{
constexpr Tick never = std::numeric_limits<Tick>::max();
constexpr std::size_t npos = static_cast<std::size_t>(-1);
} // namespace

DramController::DramController(EventQueue &eq, const DramTiming &timing,
                               const DramGeometry &geometry,
                               SchedPolicy sched_policy, MapScheme ms,
                               std::string name)
    : eventq(eq),
      spec(timing),
      map(geometry, ms),
      policy(sched_policy),
      banks(geometry.totalBanks()),
      scanMemo(geometry.totalBanks()),
      lastCasInGroup(geometry.ranks * geometry.bankGroups, 0),
      lastActInGroup(geometry.ranks * geometry.bankGroups, 0),
      nextRefresh(spec.tREFI ? spec.cyc(spec.tREFI) : never),
      statGroup(std::move(name))
{
    if (verify::envEnabled())
        enableOnlineCheck();
}

void
DramController::enableOnlineCheck()
{
    if (!checker)
        // simlint-allow(hotpath: one-shot setup called before the
        // run starts, never from an event)
        checker = std::make_unique<Ddr4Checker>(spec, map.geometry());
}

void
DramController::attachTracer(obs::TraceRecorder &rec,
                             const std::string &track_name)
{
    tracer = &rec;
    traceTrack = rec.track(track_name);
    lblRead = rec.label("dram_rd");
    lblWrite = rec.label("dram_wr");
}

DramController::~DramController()
{
    if (!checker || checker->violations().empty())
        return;
    const Violation &v = checker->violations().front();
    panic("DDR4 protocol violation in %s: %s at cmd %zu: %s "
          "(%zu total violations over %llu commands)",
          statGroup.name().c_str(), v.rule.c_str(), v.cmdIndex,
          v.detail.c_str(), checker->violations().size(),
          static_cast<unsigned long long>(checker->commandsChecked()));
}

void
DramController::emit(const DramCommand &cmd)
{
    cmdTrace.record(cmd);
    if (checker)
        checker->feed(cmd);
}

std::uint32_t
DramController::allocParent(unsigned remaining, DoneCallback done)
{
    std::uint32_t idx;
    if (freeParents.empty()) {
        idx = static_cast<std::uint32_t>(parents.size());
        // simlint-allow(hotpath: slab growth is amortized -- only a
        // new peak of in-flight accesses reaches this branch)
        parents.emplace_back();
    } else {
        idx = freeParents.back();
        freeParents.pop_back();
    }
    Parent &p = parents[idx];
    p.remaining = remaining;
    p.latestEnd = 0;
    p.done = std::move(done);
    return idx;
}

void
DramController::releaseParent(std::uint32_t idx)
{
    parents[idx].done = nullptr;
    freeParents.push_back(idx);
}

void
DramController::access(Addr addr, bool write, std::uint32_t size,
                       DoneCallback done)
{
    unsigned lines = (size + cacheLineSize - 1) / cacheLineSize;
    if (lines == 0)
        lines = 1;

    // One recycled fan-in slot per access, shared by its runs.
    std::uint32_t parent = allocParent(lines, std::move(done));

    // One entry per run of the access's consecutive lines in one bank
    // row: a line that continues the previous line's run extends it.
    FifoRing<LineReq> &q = write ? writeQueue : readQueue;
    Addr base = alignDown(addr, cacheLineSize);
    for (unsigned i = 0; i < lines; ++i) {
        Addr a = base + static_cast<Addr>(i) * cacheLineSize;
        DramCoord c = map.decode(a);
        if (i > 0) {
            LineReq &run = q.at(q.size() - 1);
            if (c.sameBank(run.coord) && c.row == run.coord.row &&
                c.column == run.coord.column + run.lines) {
                ++run.lines;
                continue;
            }
        }
        LineReq r;
        r.addr = a;
        r.coord = c;
        r.write = write;
        r.enqueueTick = eventq.curTick();
        r.seq = nextSeq + i;
        r.parentIdx = parent;
        q.push_back(r);
    }
    nextSeq += lines;
    (write ? sWriteAccesses : sReadAccesses).inc();
    (write ? sBytesWritten : sBytesRead).inc(size);
    scheduleWakeup(eventq.curTick());
}

void
DramController::scheduleWakeup(Tick when)
{
    when = std::max(when, eventq.curTick());
    if (wakeupScheduled && wakeupAt <= when)
        return;
    armWakeup(when);
}

void
DramController::armWakeup(Tick when)
{
    // A superseded closure stays queued and finds the guard false.
    wakeupScheduled = true;
    wakeupAt = when;
    eventq.schedule(when, [this, when] {
        if (wakeupScheduled && wakeupAt == when) {
            wakeupScheduled = false;
            process();
        }
    });
}

Tick
DramController::earliestIssue(const LineReq &r) const
{
    const BankState &b = banks[bankIndex(r.coord)];
    Tick t = cmdBusFree;
    if (b.open && b.row == r.coord.row) {
        // CAS path.
        t = std::max(t, b.casReady);
        unsigned g = r.coord.rank * map.geometry().bankGroups +
                     r.coord.bankGroup;
        Tick ccd = std::max(lastCasInGroup[g] + spec.cyc(spec.tCCD_L),
                            lastCasAny + spec.cyc(spec.tCCD_S));
        t = std::max(t, ccd);
        if (!r.write) {
            // tWTR: write data end -> read CAS.
            t = std::max(t, lastWrDataEnd + spec.cyc(spec.tWTR_L));
        }
        t = std::max(t, dataBusFree);
        return t;
    }
    if (b.open) {
        // Row conflict: need PRE first.
        return std::max(t, b.preReady);
    }
    // Closed: need ACT.
    t = std::max(t, b.actReady);
    unsigned g = r.coord.rank * map.geometry().bankGroups +
                 r.coord.bankGroup;
    Tick rrd = std::max(lastActInGroup[g] + spec.cyc(spec.tRRD_L),
                        lastActAny + spec.cyc(spec.tRRD_S));
    t = std::max(t, rrd);
    if (actWindow.size() >= 4)
        t = std::max(t, actWindow.front() + spec.cyc(spec.tFAW));
    return t;
}

void
DramController::issueAct(const DramCoord &c)
{
    BankState &b = banks[bankIndex(c)];
    Tick now = eventq.curTick();
    b.open = true;
    b.row = c.row;
    b.casReady = now + spec.cyc(spec.tRCD);
    b.preReady = now + spec.cyc(spec.tRAS);
    b.actReady = now + spec.cyc(spec.tRC);

    unsigned g = c.rank * map.geometry().bankGroups + c.bankGroup;
    lastActInGroup[g] = now;
    lastActAny = now;
    actWindow.push_back(now);
    while (actWindow.size() > 4)
        actWindow.pop_front();

    cmdBusFree = now + spec.period();
    sCmdAct.inc();
    emit({now, DramCmd::ACT, c.rank, c.bankGroup, c.bank,
                     c.row, 0});
}

void
DramController::issuePre(const DramCoord &c)
{
    BankState &b = banks[bankIndex(c)];
    Tick now = eventq.curTick();
    b.open = false;
    b.actReady = std::max(b.actReady, now + spec.cyc(spec.tRP));
    cmdBusFree = now + spec.period();
    sCmdPre.inc();
    emit({now, DramCmd::PRE, c.rank, c.bankGroup, c.bank,
                     b.row, 0});
}

void
DramController::issueCas(const LineReq &r)
{
    BankState &b = banks[bankIndex(r.coord)];
    Tick now = eventq.curTick();
    Tick lat = r.write ? spec.cyc(spec.tCWL) : spec.cyc(spec.tCL);
    Tick data_start = now + lat;
    Tick data_end = data_start + spec.burstTicks();

    dataBusFree = data_end;
    unsigned g = r.coord.rank * map.geometry().bankGroups +
                 r.coord.bankGroup;
    lastCasInGroup[g] = now;
    lastCasAny = now;

    if (r.write) {
        lastWrDataEnd = data_end;
        // Write recovery gates the next PRE of this bank.
        b.preReady = std::max(b.preReady,
                              data_end + spec.cyc(spec.tWR));
        sCmdWr.inc();
    } else {
        b.preReady = std::max(b.preReady, now + spec.cyc(spec.tRTP));
        sCmdRd.inc();
    }

    cmdBusFree = now + spec.period();
    emit({now, r.write ? DramCmd::WR : DramCmd::RD,
                     r.coord.rank, r.coord.bankGroup, r.coord.bank,
                     r.coord.row, r.coord.column});

    // Only the access's last CAS schedules its completion: commands
    // issue at strictly increasing ticks and all its lines share one
    // latency, so that CAS also has the latest data_end.
    std::uint32_t pi = r.parentIdx;
    Parent &pa = parents[pi];
    pa.latestEnd = std::max(pa.latestEnd, data_end);
    if (--pa.remaining != 0)
        return;
    VANS_AUDIT("dram", now, data_end == pa.latestEnd,
               "access completes at %llu before its latest line %llu",
               static_cast<unsigned long long>(data_end),
               static_cast<unsigned long long>(pa.latestEnd));
    Tick enq = r.enqueueTick;
    bool write = r.write;
    eventq.schedule(data_end, [this, pi, data_end, enq, write] {
        (write ? sWriteLatency : sReadLatency)
            .sample(ticksToNs(data_end - enq));
        if (tracer) [[unlikely]] {
            tracer->span(traceTrack, write ? lblWrite : lblRead, enq,
                         data_end);
        }
        // Move the callback out and recycle the slot first: the
        // callback may re-enter access(), and slab growth there would
        // invalidate the parent.
        DoneCallback done = std::move(parents[pi].done);
        releaseParent(pi);
        if (done)
            done(data_end);
    });
}

void
DramController::advanceRun(LineReq &r)
{
    --r.lines;
    r.addr += cacheLineSize;
    ++r.coord.column;
    ++r.seq;
    r.classified = false;
    VANS_AUDIT("dram", eventq.curTick(), map.decode(r.addr) == r.coord,
               "run line 0x%llx leaves its bank row",
               static_cast<unsigned long long>(r.addr));
}

void
DramController::doRefresh()
{
    Tick now = eventq.curTick();
    // Close every open bank first (the process() caller already
    // waited for each bank's preReady), then refresh after tRP.
    const auto &g = map.geometry();
    for (unsigned i = 0; i < banks.size(); ++i) {
        BankState &b = banks[i];
        if (b.open) {
            DramCoord c;
            c.bank = i % g.banksPerGroup;
            c.bankGroup = (i / g.banksPerGroup) % g.bankGroups;
            c.rank = i / (g.banksPerGroup * g.bankGroups);
            c.row = b.row;
            sCmdPre.inc();
            emit({now, DramCmd::PRE, c.rank, c.bankGroup,
                             c.bank, b.row, 0});
            b.open = false;
        }
    }
    Tick ref_at = now + spec.cyc(spec.tRP);
    for (auto &b : banks) {
        b.actReady = std::max(b.actReady,
                              ref_at + spec.cyc(spec.tRFC));
    }
    cmdBusFree = std::max(cmdBusFree, ref_at + spec.period());
    sCmdRef.inc();
    emit({ref_at, DramCmd::REF, 0, 0, 0, 0, 0});
    nextRefresh += spec.cyc(spec.tREFI);
}

DramController::ScanTarget
DramController::scanTarget()
{
    if (policy == SchedPolicy::FCFS) {
        // Strict arrival order across both queues: only the oldest
        // request may issue.
        bool read_first =
            !readQueue.empty() &&
            (writeQueue.empty() ||
             readQueue.front().seq < writeQueue.front().seq);
        return {read_first ? &readQueue : &writeQueue, 1};
    }
    // Strict read priority: while any read is queued, writes hold. A
    // continuous write stream would otherwise keep pushing the
    // write-to-read turnaround (tWTR) ahead of a waiting read
    // forever; writes are posted and drain in the read-free gaps.
    if (!readQueue.empty())
        return {&readQueue, readScanWindow};
    return {&writeQueue, writeScanWindow};
}

Tick
DramController::classIssue(const LineReq &r)
{
    unsigned bi = bankIndex(r.coord);
    const BankState &b = banks[bi];
    unsigned hit = b.open && b.row == r.coord.row;
    ScanMemo &m = scanMemo[bi];
    if (m.epoch[hit] != scanEpoch) {
        m.epoch[hit] = scanEpoch;
        m.at[hit] = earliestIssue(r);
    }
    return m.at[hit];
}

std::size_t
DramController::pick(const ScanTarget &t, Tick now)
{
    // The window counts lines; a run is in it when its front line is.
    // Every line of a run shares the run's answer, so the front line
    // stands for all of them.
    std::size_t best = npos;
    std::size_t line = 0;
    for (std::size_t i = 0; i < t.queue->size() && line < t.window;
         ++i) {
        const LineReq &r = t.queue->at(i);
        line += r.lines;
        if (classIssue(r) > now)
            continue;
        const BankState &b = banks[bankIndex(r.coord)];
        if (b.open && b.row == r.coord.row)
            return i; // Oldest ready row hit wins.
        if (best == npos)
            best = i;
    }
    return best;
}

Tick
DramController::wakeAt(const ScanTarget &t, Tick floor)
{
    Tick best = never;
    std::size_t line = 0;
    for (std::size_t i = 0;
         i < t.queue->size() && line < t.window && best > floor; ++i) {
        const LineReq &r = t.queue->at(i);
        line += r.lines;
        best = std::min(best, classIssue(r));
    }
    return std::max(best, floor);
}

void
DramController::armAfterCommand(Tick now)
{
    // Nothing can issue before the command bus frees at now + tCK,
    // and between wakeups the scheduler's inputs change only at an
    // issue, a refresh or an arrival -- and access() wakes the
    // controller itself. So waking at the first tick the scan window
    // can issue gives the command stream a per-cycle poll would
    // (DESIGN.md notes the same-tick ordering caveat). A due refresh
    // is seen at the tick the poll would have seen it.
    Tick next = now + spec.period();
    if (next < nextRefresh) {
        if (readQueue.empty() && writeQueue.empty()) {
            if (!spec.tREFI)
                return; // Idle and no refresh: the next access wakes.
            next = nextRefresh;
        } else {
            beginScan();
            next = wakeAt(scanTarget(), next);
        }
    }
    scheduleWakeup(next);
}

void
DramController::process()
{
    Tick now = eventq.curTick();

    // Refresh has priority once due.
    if (spec.tREFI && now >= nextRefresh) {
        // Wait until every open bank may precharge.
        Tick ready = cmdBusFree;
        for (const auto &b : banks) {
            if (b.open)
                ready = std::max(ready, b.preReady);
        }
        if (ready <= now) {
            doRefresh();
            armAfterCommand(now);
            return;
        }
        scheduleWakeup(ready);
        return;
    }

    if (readQueue.empty() && writeQueue.empty()) {
        if (spec.tREFI)
            scheduleWakeup(nextRefresh);
        return;
    }

    // FR-FCFS prefers ready row hits, then any ready request, oldest
    // first, within the served queue's window; FCFS scans a window
    // of one.
    ScanTarget target = scanTarget();
    beginScan();
    std::size_t chosen = pick(target, now);
    if (chosen == npos) {
        scheduleWakeup(wakeAt(target, now + 1));
        return;
    }
    LineReq &r = target.queue->at(chosen);
    if (issueFor(r)) {
        if (r.lines == 1)
            target.queue->eraseAt(chosen);
        else
            advanceRun(r);
    }
    armAfterCommand(now);
}

void
DramController::snapshotTo(snapshot::StateSink &sink) const
{
    VANS_REQUIRE("dram", eventq.curTick(),
                 readQueue.empty() && writeQueue.empty(),
                 "snapshot with %zu runs queued",
                 readQueue.size() + writeQueue.size());
    sink.tag("dram-ctrl");
    sink.str(statGroup.name());
    sink.u64(banks.size());
    for (const BankState &b : banks) {
        sink.boolean(b.open);
        sink.u64(b.row);
        sink.u64(b.actReady);
        sink.u64(b.casReady);
        sink.u64(b.preReady);
    }
    sink.u64(nextSeq);
    sink.u64(lastCasInGroup.size());
    for (std::size_t g = 0; g < lastCasInGroup.size(); ++g) {
        sink.u64(lastCasInGroup[g]);
        sink.u64(lastActInGroup[g]);
    }
    sink.u64(lastCasAny);
    sink.u64(lastActAny);
    sink.u64(actWindow.size());
    for (std::size_t i = 0; i < actWindow.size(); ++i)
        sink.u64(actWindow.at(i));
    sink.u64(lastWrDataEnd);
    sink.u64(dataBusFree);
    sink.u64(cmdBusFree);
    sink.u64(nextRefresh);
    sink.boolean(wakeupScheduled);
    sink.u64(wakeupAt);
    statGroup.snapshotTo(sink);
    sink.boolean(checker != nullptr);
    if (checker)
        checker->snapshotTo(sink);
}

void
DramController::restoreFrom(snapshot::StateSource &src)
{
    VANS_REQUIRE("dram", eventq.curTick(),
                 readQueue.empty() && writeQueue.empty() &&
                     !wakeupScheduled,
                 "restore into a controller already in use");
    src.tag("dram-ctrl");
    std::string who = src.str();
    VANS_REQUIRE("dram", eventq.curTick(), who == statGroup.name(),
                 "controller mismatch: stream has \"%s\", "
                 "restorer is \"%s\"",
                 who.c_str(), statGroup.name().c_str());
    std::uint64_t nb = src.u64();
    VANS_REQUIRE("dram", eventq.curTick(), nb == banks.size(),
                 "bank count mismatch (%llu vs %zu)",
                 static_cast<unsigned long long>(nb), banks.size());
    for (BankState &b : banks) {
        b.open = src.boolean();
        b.row = src.u64();
        b.actReady = src.u64();
        b.casReady = src.u64();
        b.preReady = src.u64();
    }
    nextSeq = src.u64();
    std::uint64_t ng = src.u64();
    VANS_REQUIRE("dram", eventq.curTick(),
                 ng == lastCasInGroup.size(),
                 "group count mismatch (%llu vs %zu)",
                 static_cast<unsigned long long>(ng),
                 lastCasInGroup.size());
    for (std::size_t g = 0; g < lastCasInGroup.size(); ++g) {
        lastCasInGroup[g] = src.u64();
        lastActInGroup[g] = src.u64();
    }
    lastCasAny = src.u64();
    lastActAny = src.u64();
    actWindow.clear();
    std::uint64_t nw = src.u64();
    for (std::uint64_t i = 0; i < nw; ++i)
        actWindow.push_back(src.u64());
    lastWrDataEnd = src.u64();
    dataBusFree = src.u64();
    cmdBusFree = src.u64();
    nextRefresh = src.u64();
    bool wakeup = src.boolean();
    wakeupAt = src.u64();
    statGroup.restoreFrom(src);
    bool had_checker = src.boolean();
    if (had_checker && checker)
        checker->restoreFrom(src);
    else if (had_checker && !checker) {
        // Captured in verified mode, restored without: consume the
        // checker section so the stream stays aligned.
        Ddr4Checker scratch(spec, map.geometry());
        scratch.restoreFrom(src);
    }
    // Re-arm the refresh wakeup the captured world had pending. It
    // runs before any post-restore work because restore happens
    // before the caller issues anything new.
    if (wakeup)
        armWakeup(wakeupAt);
}

bool
DramController::issueFor(LineReq &r)
{
    // Hit/miss/conflict classification happens once per line, at its
    // first service attempt.
    BankState &b = banks[bankIndex(r.coord)];
    if (b.open && b.row == r.coord.row) {
        if (!r.classified)
            sRowHits.inc();
        r.classified = true;
        issueCas(r);
        return true;
    }
    if (b.open) {
        if (!r.classified)
            sRowConflicts.inc();
        r.classified = true;
        issuePre(r.coord);
        return false;
    }
    if (!r.classified)
        sRowMisses.inc();
    r.classified = true;
    issueAct(r.coord);
    return false;
}

} // namespace vans::dram
