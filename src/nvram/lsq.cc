#include "nvram/lsq.hh"

#include <algorithm>
#include <tuple>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/snapshot.hh"
#include "common/trace_event.hh"

namespace vans::nvram
{

Lsq::Lsq(EventQueue &eq, const NvramConfig &config, RmwBuffer &rmw_ref,
         const std::string &name)
    : eventq(eq), cfg(config), rmw(rmw_ref), statGroup(name)
{
    rmw.onSpaceFreed = [this] { drain(); };
    // Every group holds at least one of the lsqEntries entries.
    readySet.reserve(cfg.lsqEntries);
}

void
Lsq::attachTracer(obs::TraceRecorder &rec,
                  const std::string &track_name)
{
    tracer = &rec;
    traceTrack = rec.track(track_name);
    lblDrain = rec.label("group_drain");
    lblHazard = rec.label("raw_hazard");
    lblOccupancy = rec.label("occupancy");
}

bool
Lsq::canAcceptWrite(Addr addr) const
{
    auto it = groups.find(blockOf(addr));
    if (it != groups.end() && (it->second.presentMask & laneBit(addr)))
        return true; // Merge onto a pending line: free.
    return numEntries < cfg.lsqEntries;
}

void
Lsq::acceptWrite(Addr addr)
{
    Tick now = eventq.curTick();
    auto it = groups.find(blockOf(addr));
    bool opened = it == groups.end();
    if (opened) {
        // The caller (the iMC drain) must have probed canAcceptWrite:
        // the LSQ is the 4KB on-DIMM queue and never overcommits.
        VANS_REQUIRE("lsq", now, numEntries < cfg.lsqEntries,
                     "acceptWrite without room (%zu entries, capacity "
                     "%u)",
                     numEntries, cfg.lsqEntries);
    }

    Group &g = opened ? openGroup(blockOf(addr)) : it->second;
    unsigned bit = laneBit(addr);
    if (g.presentMask & bit) {
        sWriteMerges.inc();
    } else {
        g.presentMask |= bit;
        ++numEntries;
        sWrites.inc();
    }
    touch(g);
    if (tracer) [[unlikely]]
        tracer->counter(traceTrack, lblOccupancy, now,
                        static_cast<double>(numEntries));
    if (groupFull(g))
        scheduleDrainCheck(now);
    else
        scheduleDrainCheck(now + nsToTicks(cfg.lsqEpochNs));

    // High-watermark pressure keeps the queue from deadlocking the
    // bus when random traffic never completes a block.
    if (opened && pressured())
        scheduleDrainCheck(now);
}

Lsq::Group &
Lsq::openGroup(Addr block)
{
    Group *g;
    if (!freeGroups.empty()) {
        auto nh = std::move(freeGroups.back());
        freeGroups.pop_back();
        nh.key() = block;
        g = &groups.insert(std::move(nh)).position->second;
    } else {
        g = &groups[block];
    }
    g->block = block;
    g->presentMask = 0;
    g->oldest = eventq.curTick();
    g->lastTouch = g->oldest;
    g->sealed = false;
    g->ready = false;
    appendOpen(*g);
    return *g;
}

void
Lsq::touch(Group &g)
{
    g.lastTouch = eventq.curTick();
    if (groupFull(g) || g.sealed) {
        makeReady(g);
        return;
    }
    // Not full, not sealed, and just touched: open, at the tail.
    if (openTail == &g)
        return;
    unindex(g);
    appendOpen(g);
}

bool
Lsq::drainsLater(const Group *a, const Group *b)
{
    return std::tie(a->oldest, a->block) > std::tie(b->oldest, b->block);
}

void
Lsq::makeReady(Group &g)
{
    if (g.ready)
        return;
    unlinkOpen(g);
    g.ready = true;
    readySet.insert(std::lower_bound(readySet.begin(), readySet.end(),
                                     &g, drainsLater),
                    &g);
}

void
Lsq::appendOpen(Group &g)
{
    g.prevOpen = openTail;
    g.nextOpen = nullptr;
    (openTail ? openTail->nextOpen : openHead) = &g;
    openTail = &g;
}

void
Lsq::unlinkOpen(Group &g)
{
    (g.prevOpen ? g.prevOpen->nextOpen : openHead) = g.nextOpen;
    (g.nextOpen ? g.nextOpen->prevOpen : openTail) = g.prevOpen;
    g.prevOpen = g.nextOpen = nullptr;
}

void
Lsq::unindex(Group &g)
{
    if (!g.ready) {
        unlinkOpen(g);
        return;
    }
    readySet.erase(std::lower_bound(readySet.begin(), readySet.end(),
                                    &g, drainsLater));
    g.ready = false;
}

bool
Lsq::readProbe(Addr addr, DoneCallback hazard_done)
{
    auto it = groups.find(blockOf(addr));
    if (it == groups.end() || !(it->second.presentMask & laneBit(addr)))
        return false;

    // Read-after-write hazard: force the group out and hold the
    // read until the data reaches the RMW buffer.
    sRawHazards.inc();
    if (tracer) [[unlikely]]
        tracer->instant(traceTrack, lblHazard, eventq.curTick(),
                        addr);
    Group &g = it->second;
    g.sealed = true;
    makeReady(g);
    g.hazardWaiters.push_back(std::move(hazard_done));
    scheduleDrainCheck(eventq.curTick());
    return true;
}

bool
Lsq::pendingLine(Addr addr) const
{
    auto it = groups.find(blockOf(addr));
    return it != groups.end() && (it->second.presentMask & laneBit(addr));
}

void
Lsq::seal()
{
    for (auto &kv : groups) {
        kv.second.sealed = true;
        makeReady(kv.second);
    }
    sSeals.inc();
    scheduleDrainCheck(eventq.curTick());
}

void
Lsq::scheduleDrainCheck(Tick when)
{
    when = std::max(when, eventq.curTick());
    if (drainCheckScheduled && drainCheckAt <= when)
        return;
    drainCheckScheduled = true;
    drainCheckAt = when;
    eventq.schedule(when, [this, when] {
        if (drainCheckScheduled && drainCheckAt == when) {
            drainCheckScheduled = false;
            drain();
        }
    });
}

std::size_t
Lsq::countedEntries() const
{
    std::size_t n = 0;
    for (const auto &kv : groups)
        n += popcount(kv.second.presentMask);
    return n;
}

Lsq::Group *
Lsq::pressurePick() const
{
    Group *pick = openHead;
    for (Group *g = pick ? pick->nextOpen : nullptr;
         g && g->lastTouch == openHead->lastTouch; g = g->nextOpen) {
        if (g->block < pick->block)
            pick = g;
    }
    return pick;
}

Lsq::Pick
Lsq::scanPick(Tick now) const
{
    Tick epoch = nsToTicks(cfg.lsqEpochNs);
    Pick ref;
    const Group *oldest_any = nullptr;
    for (const auto &kv : groups) {
        const Group &g = kv.second;
        if (!oldest_any || g.lastTouch < oldest_any->lastTouch)
            oldest_any = &g;
        if (groupFull(g) || g.sealed || now >= g.lastTouch + epoch) {
            if (!ref.group || g.oldest < ref.group->oldest)
                ref.group = &g;
        } else {
            Tick t = g.lastTouch + epoch;
            if (!ref.nextCheck || t < ref.nextCheck)
                ref.nextCheck = t;
        }
    }
    if (!ref.group && pressured())
        ref.group = oldest_any;
    return ref;
}

void
Lsq::drain()
{
    Tick now = eventq.curTick();
    // The cached entry count is what admission control runs on; it
    // must always equal the recount over the present masks.
    VANS_AUDIT("lsq", now, numEntries == countedEntries(),
               "entry count %zu drifted from recount %zu", numEntries,
               countedEntries());

    // The combining epoch is measured from the *last* touch:
    // actively rewritten groups stay open and keep absorbing writes,
    // which is what keeps sub-LSQ working sets cheap (the 4KB store
    // plateau of Fig 5a). The open list is in lastTouch order, so
    // the expired groups are a prefix of it.
    Tick epoch = nsToTicks(cfg.lsqEpochNs);
    while (openHead && now >= openHead->lastTouch + epoch)
        makeReady(*openHead);
    Tick next_check = openHead ? openHead->lastTouch + epoch : 0;

    // Oldest ready group first; under capacity pressure with none
    // ready, the least-recently-touched group: it is the least likely
    // to complete its block.
    Group *pick = readySet.empty() ? nullptr : readySet.back();
    if (!pick && pressured())
        pick = pressurePick();
    // The index must choose exactly what a scan over every group
    // would (DESIGN.md "LSQ drain index").
    VANS_AUDIT("lsq", now, scanPick(now) == (Pick{pick, next_check}),
               "drain index disagrees with the reference scan (picked "
               "block %llx, next check %llu)",
               pick ? static_cast<unsigned long long>(pick->block)
                    : ~0ull,
               static_cast<unsigned long long>(next_check));
    if (!pick) {
        if (next_check)
            scheduleDrainCheck(next_check);
        return;
    }

    if (!rmw.canAcceptWrite(pick->block))
        return; // rmw.onSpaceFreed re-enters drain().

    startGroupDrain(*pick);
}

void
Lsq::startGroupDrain(Group &g)
{
    unsigned lines = popcount(g.presentMask);
    std::uint32_t bytes = lines * cacheLineSize;
    if (bytes >= cfg.rmwLineBytes)
        sCombinedDrains.inc();
    else
        sPartialDrains.inc();
    sDrainLines.sample(lines);

    Addr block = g.block;
    auto waiters = std::move(g.hazardWaiters);

    // The group moves into a drain latch: it leaves the queue now so
    // concurrent writes to the same block open a fresh group, and
    // its entries free immediately for the bus to refill.
    numEntries -= lines;
    unindex(g);
    // Recycle the map node (and its waiter-vector capacity) instead
    // of freeing it: the next group open reuses it allocation-free.
    auto nh = groups.extract(block);
    nh.mapped().hazardWaiters.clear();
    freeGroups.push_back(std::move(nh));
    ++drainLatch;
    Tick drain_start = eventq.curTick();
    if (tracer) [[unlikely]]
        tracer->counter(traceTrack, lblOccupancy, drain_start,
                        static_cast<double>(numEntries));

    rmw.acceptWrite(
        block, bytes,
        [this, block, drain_start,
         waiters = std::move(waiters)](Tick t) mutable {
            --drainLatch;
            if (tracer) [[unlikely]]
                tracer->spanAddr(traceTrack, lblDrain, drain_start,
                                 t, block);
            for (auto &w : waiters) {
                if (w)
                    w(t);
            }
            drain();
        });
    if (onSpaceFreed)
        onSpaceFreed();
}

void
Lsq::snapshotTo(snapshot::StateSink &sink) const
{
    VANS_REQUIRE("lsq", eventq.curTick(),
                 writeQuiescent() && !drainCheckScheduled &&
                     numEntries == 0,
                 "snapshot of a non-quiescent LSQ");
    sink.tag("lsq");
    statGroup.snapshotTo(sink);
}

void
Lsq::restoreFrom(snapshot::StateSource &src)
{
    VANS_REQUIRE("lsq", eventq.curTick(),
                 writeQuiescent() && !drainCheckScheduled,
                 "restore into a non-quiescent LSQ");
    src.tag("lsq");
    statGroup.restoreFrom(src);
}

} // namespace vans::nvram
