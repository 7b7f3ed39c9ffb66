#include "nvram/rmw_buffer.hh"

#include <map>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::nvram
{

RmwBuffer::RmwBuffer(EventQueue &eq, const NvramConfig &config,
                     Ait &ait_ref, const std::string &name)
    : eventq(eq), cfg(config), ait(ait_ref), statGroup(name)
{
    ait.onWriteSpaceFreed = [this] { drainIssue(); };
}

void
RmwBuffer::attachTracer(obs::TraceRecorder &rec,
                        const std::string &track_name)
{
    tracer = &rec;
    traceTrack = rec.track(track_name);
    lblFill = rec.label("rmw_fill");
    lblReadMiss = rec.label("read_miss");
    lblOccupancy = rec.label("occupancy");
}

RmwBuffer::Entry *
RmwBuffer::find(Addr line)
{
    auto it = entries.find(line);
    return it == entries.end() ? nullptr : &it->second;
}

void
RmwBuffer::markClean(Entry &e)
{
    e.state = State::Clean;
    ++cleanCount;
    if (!e.inCleanLru) {
        cleanLru.push_front(e.line);
        e.inCleanLru = true;
    }
}

bool
RmwBuffer::makeRoom()
{
    if (entries.size() < cfg.rmwEntries)
        return true;
    // Evict the least recently used clean entry; lines that were
    // re-dirtied since joining the list are skipped lazily.
    while (!cleanLru.empty()) {
        Addr victim = cleanLru.back();
        cleanLru.pop_back();
        auto it = entries.find(victim);
        if (it != entries.end() &&
            it->second.state == State::Clean) {
            --cleanCount;
            entries.erase(it);
            statGroup.scalar("evictions").inc();
            return true;
        }
        if (it != entries.end())
            it->second.inCleanLru = false;
    }
    return false;
}

void
RmwBuffer::read(Addr addr, DoneCallback done)
{
    // State changes are synchronous; the SRAM access time lands on
    // the callback. This keeps admission checks race-free.
    Addr line = lineOf(addr);
    Tick access = nsToTicks(cfg.rmwAccessNs);

    Entry *e = find(line);
    if (e) {
        statGroup.scalar("read_hits").inc();
        if (e->state == State::Filling) {
            // Fill already in flight: piggyback on it.
            e->mergeWaiters.push_back(std::move(done));
            return;
        }
        eventq.scheduleAfter(access,
                             [done = std::move(done), this]() mutable {
                                 if (done)
                                     done(eventq.curTick());
                             });
        return;
    }

    statGroup.scalar("read_misses").inc();
    if (tracer) [[unlikely]]
        tracer->instant(traceTrack, lblReadMiss, eventq.curTick(),
                        addr);
    if (!makeRoom()) {
        // All entries hold staged writes: serve the read from the
        // AIT without caching rather than stalling it.
        statGroup.scalar("read_bypass").inc();
        eventq.scheduleAfter(access, [this, line,
                                      done = std::move(done)]() mutable {
            ait.read(line, std::move(done));
        });
        return;
    }
    Entry &ne = entries[line];
    ne.line = line;
    ne.state = State::Filling;
    ne.mergeWaiters.push_back(std::move(done));
    eventq.scheduleAfter(access, [this, line] {
        ait.read(line, [this, line](Tick t) {
            Entry *e2 = find(line);
            if (!e2)
                return;
            auto waiters = std::move(e2->mergeWaiters);
            e2->mergeWaiters.clear();
            if (e2->dirtyBytes > 0) {
                // A write merged while the fill was in flight.
                e2->state = State::Dirty;
                enqueueIssue(line);
            } else {
                markClean(*e2);
            }
            for (auto &w : waiters) {
                if (w)
                    w(t);
            }
        });
    });
}

bool
RmwBuffer::canAcceptWrite(Addr addr) const
{
    Addr line = alignDown(addr, cfg.rmwLineBytes);
    auto it = entries.find(line);
    if (it != entries.end()) {
        // Merging is only possible while the fill is still open or
        // the line is clean; a line with a staged write in flight
        // makes the writer wait -- the RMW buffer stages, it does
        // not coalesce indefinitely (this is why write working sets
        // larger than the LSQ pay full cost, Fig 5a).
        return it->second.state == State::Filling ||
               it->second.state == State::Clean;
    }
    if (writeFillsInFlight > 0)
        return false; // FIFO staging: wait for the open fill.
    if (entries.size() < cfg.rmwEntries)
        return true;
    return cleanCount > 0; // A clean victim can make room.
}

void
RmwBuffer::acceptWrite(Addr addr, std::uint32_t bytes,
                       DoneCallback done)
{
    Addr line = lineOf(addr);
    Tick access = nsToTicks(cfg.rmwAccessNs);
    statGroup.scalar("writes").inc();

    // The cached clean count drives both eviction and admission, the
    // write-pending count drives quiescence; both must match a
    // recount, and the buffer must hold its 64 x 256B.
    VANS_AUDIT("rmw", eventq.curTick(),
               cleanCount == countedClean() &&
                   writePendingCount == countedWritePending() &&
                   entries.size() <= cfg.rmwEntries,
               "clean count %zu vs recount %zu, write-pending count "
               "%zu vs recount %zu, %zu lines (cap %u)",
               cleanCount, countedClean(), writePendingCount,
               countedWritePending(), entries.size(), cfg.rmwEntries);

    auto finish = [this, access, done = std::move(done)]() mutable {
        eventq.scheduleAfter(access, [this,
                                      done = std::move(done)]() mutable {
            if (done)
                done(eventq.curTick());
        });
    };

    Entry *e = find(line);
    if (e) {
        statGroup.scalar("write_merges").inc();
        // Staged lines (Dirty / IssuedWait) make the writer wait --
        // canAcceptWrite must have rejected this call.
        VANS_REQUIRE("rmw", eventq.curTick(),
                     e->state == State::Clean ||
                         e->state == State::Filling,
                     "write merged into staged line %llx (state %u)",
                     static_cast<unsigned long long>(line),
                     static_cast<unsigned>(e->state));
        bool was_pending = writePending(*e);
        e->dirtyBytes += bytes;
        switch (e->state) {
          case State::Clean:
            e->state = State::Dirty;
            --cleanCount;
            // Count before issuing: the AIT may take the line, and
            // finishWrite uncount it, before enqueueIssue returns.
            ++writePendingCount;
            enqueueIssue(line);
            break;
          case State::Filling:
            // Combines; the first written bytes make a read fill
            // write-pending.
            if (!was_pending && writePending(*e))
                ++writePendingCount;
            break;
          case State::Dirty:
          case State::IssuedWait:
            break; // Rejected above.
        }
        finish();
        return;
    }

    bool made_room = makeRoom();
    VANS_REQUIRE("rmw", eventq.curTick(), made_room,
                 "acceptWrite without room (%zu lines, %zu clean)",
                 entries.size(), cleanCount);

    Entry &ne = entries[line];
    ne.line = line;
    ne.dirtyBytes = bytes;
    ne.writeStaging = true;
    if (tracer) [[unlikely]]
        tracer->counter(traceTrack, lblOccupancy, eventq.curTick(),
                        static_cast<double>(entries.size()));
    if (bytes >= cfg.rmwLineBytes) {
        // Full-line write: no fill needed (this is what LSQ write
        // combining buys).
        ne.state = State::Dirty;
        ++writePendingCount;
        enqueueIssue(line);
    } else {
        // Sub-256B write: the eponymous read-modify-write.
        statGroup.scalar("rmw_fills").inc();
        ne.state = State::Filling;
        if (writePending(ne))
            ++writePendingCount;
        ++writeFillsInFlight;
        Tick fill_start = eventq.curTick();
        eventq.scheduleAfter(access, [this, line, fill_start] {
            ait.readForFill(line, [this, line, fill_start](Tick t) {
                --writeFillsInFlight;
                if (tracer) [[unlikely]]
                    tracer->spanAddr(traceTrack, lblFill, fill_start,
                                     t, line);
                Entry *e2 = find(line);
                if (e2 && e2->state == State::Filling) {
                    auto waiters = std::move(e2->mergeWaiters);
                    e2->mergeWaiters.clear();
                    if (!writePending(*e2))
                        ++writePendingCount; // Zero-byte write.
                    e2->state = State::Dirty;
                    enqueueIssue(line);
                    for (auto &w : waiters) {
                        if (w)
                            w(eventq.curTick());
                    }
                }
                if (onSpaceFreed)
                    onSpaceFreed();
            });
        });
    }
    finish();
}

void
RmwBuffer::enqueueIssue(Addr line)
{
    issueFifo.push_back(line);
    drainIssue();
}

void
RmwBuffer::drainIssue()
{
    if (issueBusy)
        return;
    while (!issueFifo.empty()) {
        Addr line = issueFifo.front();
        Entry *e = find(line);
        if (!e || e->state != State::Dirty) {
            issueFifo.pop_front();
            continue;
        }
        if (!ait.canAcceptWrite())
            return; // ait.onWriteSpaceFreed re-enters drainIssue().
        issueFifo.pop_front();
        e->state = State::IssuedWait;
        issueBusy = true;
        ait.acceptWrite(line, [this, line](Tick t) {
            issueBusy = false;
            Entry *e2 = find(line);
            if (e2)
                finishWrite(*e2, t);
            if (onSpaceFreed)
                onSpaceFreed();
            drainIssue();
        });
    }
}

void
RmwBuffer::finishWrite(Entry &e, Tick)
{
    if (writePending(e))
        --writePendingCount;
    e.dirtyBytes = 0;
    if (e.writeStaging) {
        // Pure staging entry: free the slot once the AIT has the
        // data. Retaining it would let the RMW buffer coalesce
        // write working sets up to its full 16KB, which the
        // measured store curve (inflection at the 4KB LSQ, Fig 5a)
        // shows the real device does not do.
        entries.erase(e.line);
        if (tracer) [[unlikely]]
            tracer->counter(traceTrack, lblOccupancy,
                            eventq.curTick(),
                            static_cast<double>(entries.size()));
        return;
    }
    markClean(e);
}

std::size_t
RmwBuffer::countedClean() const
{
    std::size_t n = 0;
    for (const auto &kv : entries) {
        if (kv.second.state == State::Clean)
            ++n;
    }
    return n;
}

std::size_t
RmwBuffer::countedWritePending() const
{
    std::size_t n = 0;
    for (const auto &kv : entries) {
        if (writePending(kv.second))
            ++n;
    }
    return n;
}

bool
RmwBuffer::writeQuiescent() const
{
    return issueFifo.empty() && !issueBusy && writePendingCount == 0;
}

bool
RmwBuffer::quiescent() const
{
    // Every entry Clean leaves nothing write-pending, so the
    // write-quiescence count need not be consulted.
    return issueFifo.empty() && !issueBusy &&
           writeFillsInFlight == 0 && cleanCount == entries.size();
}

void
RmwBuffer::snapshotTo(snapshot::StateSink &sink) const
{
    VANS_REQUIRE("rmw", eventq.curTick(),
                 writeQuiescent() && writeFillsInFlight == 0,
                 "snapshot of a non-quiescent RMW buffer");
    sink.tag("rmw");
    // Sorted by line so the image is independent of hash order; the
    // clean-LRU sequence is serialized verbatim (it may hold stale
    // addrs -- that laziness is model behavior and must survive).
    std::map<Addr, const Entry *> sorted;
    for (const auto &kv : entries)
        sorted[kv.first] = &kv.second;
    sink.u64(sorted.size());
    for (const auto &kv : sorted) {
        const Entry &e = *kv.second;
        VANS_REQUIRE("rmw", eventq.curTick(),
                     e.state == State::Clean &&
                         e.mergeWaiters.empty(),
                     "non-clean entry %llx at snapshot",
                     static_cast<unsigned long long>(e.line));
        sink.u64(e.line);
        sink.boolean(e.writeStaging);
        sink.boolean(e.inCleanLru);
    }
    sink.u64(cleanLru.size());
    for (Addr line : cleanLru)
        sink.u64(line);
    sink.u64(cleanCount);
    statGroup.snapshotTo(sink);
}

void
RmwBuffer::restoreFrom(snapshot::StateSource &src)
{
    VANS_REQUIRE("rmw", eventq.curTick(),
                 entries.empty() && cleanLru.empty() &&
                     issueFifo.empty() && !issueBusy &&
                     writeFillsInFlight == 0,
                 "restore into a non-fresh RMW buffer");
    src.tag("rmw");
    std::uint64_t n = src.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr line = src.u64();
        Entry &e = entries[line];
        e.line = line;
        e.state = State::Clean;
        e.dirtyBytes = 0;
        e.writeStaging = src.boolean();
        e.inCleanLru = src.boolean();
    }
    std::uint64_t nl = src.u64();
    for (std::uint64_t i = 0; i < nl; ++i)
        cleanLru.push_back(src.u64());
    cleanCount = src.u64();
    statGroup.restoreFrom(src);
}

} // namespace vans::nvram
