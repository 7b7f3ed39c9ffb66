#include "cpu/core.hh"

#include "common/logging.hh"

namespace vans::cpu
{

CpuCore::CpuCore(MemorySystem &memory, cache::Hierarchy &hier,
                 const CoreParams &params)
    : mem(memory),
      eq(memory.eventQueue()),
      caches(hier),
      p(params),
      statGroup("core")
{}

void
CpuCore::syncTo(Tick when)
{
    if (eq.curTick() >= when)
        return;
    bool fired = false;
    eq.schedule(when, [&fired] { fired = true; });
    while (!fired) {
        if (!eq.step())
            panic("event queue drained while syncing core time");
    }
}

std::shared_ptr<CpuCore::Pending>
CpuCore::issueRead(Addr addr, bool pre_translate)
{
    auto pending = std::make_shared<Pending>();
    syncTo(coreTime);
    RequestHandle h = mem.makeRequest(addr, MemOp::Read);
    Request &req = mem.request(h);
    req.preTranslate = pre_translate;
    req.onComplete = [pending, p = &mem.pool(), h](Request &r) {
        pending->done = true;
        pending->at = r.completeTick;
        p->release(h);
    };
    if (!loadFilter || loadFilter(req))
        mem.issue(h);
    else
        req.complete(eq.curTick()); // Absorbed by an optimization.
    return pending;
}

std::shared_ptr<CpuCore::Pending>
CpuCore::issueReadAfter(const std::shared_ptr<Pending> &after,
                        Addr addr, bool pre_translate)
{
    if (!after || after->done)
        return issueRead(addr, pre_translate);
    auto pending = std::make_shared<Pending>();
    // Chaining by polling: a watcher event re-checks the
    // prerequisite's completion flag every 5 ns and issues the read
    // once it is set. The watcher captures its own shared_ptr so it
    // can re-arm; the running copy clears the shared closure when
    // it issues, which breaks that cycle and frees the watcher,
    // after and pending.
    auto watcher = std::make_shared<std::function<void()>>();
    *watcher = [this, after, addr, pre_translate, pending, watcher] {
        if (!after->done) {
            eq.scheduleAfter(nsToTicks(5), *watcher);
            return;
        }
        *watcher = nullptr;
        RequestHandle h = mem.makeRequest(addr, MemOp::Read);
        Request &req = mem.request(h);
        req.preTranslate = pre_translate;
        req.onComplete = [pending, p = &mem.pool(), h](Request &r) {
            pending->done = true;
            pending->at = r.completeTick;
            p->release(h);
        };
        mem.issue(h);
    };
    eq.scheduleAfter(nsToTicks(5), *watcher);
    return pending;
}

void
CpuCore::issueWrite(Addr addr, MemOp op)
{
    syncTo(coreTime);
    ++storesInFlight;
    RequestHandle h = mem.makeRequest(addr, op);
    mem.request(h).onComplete = [this, h](Request &) {
        --storesInFlight;
        mem.pool().release(h);
    };
    mem.issue(h);

    // Store-buffer stall: wait for drainage when full.
    while (storesInFlight >= p.storeBuffer) {
        if (!eq.step())
            panic("event queue drained during store stall");
    }
    coreTime = std::max(coreTime, eq.curTick());
}

Tick
CpuCore::waitFor(const std::shared_ptr<Pending> &pending)
{
    while (!pending->done) {
        if (!eq.step())
            panic("event queue drained during load wait");
    }
    return pending->at;
}

CoreStats
CpuCore::run(trace::TraceSource &src, std::uint64_t max_insts)
{
    CoreStats out;
    Tick start = eq.curTick();
    coreTime = start;
    Tick cycle = nsToTicks(1.0 / p.freqGhz);

    std::uint64_t llc_miss_start =
        caches.llc().stats().scalarValue("misses");
    std::uint64_t walks_start =
        caches.tlb().stats().scalarValue("walks");

    trace::TraceInst inst;
    std::shared_ptr<Pending> last_load;
    bool next_load_marked = false;
    bool prev_load_marked = false;
    double read_stall_ns = 0;

    while (out.instructions < max_insts && src.next(inst)) {
        switch (inst.type) {
          case trace::InstType::NonMem: {
            out.instructions += inst.count;
            coreTime += cycle * inst.count / p.width;
            break;
          }
          case trace::InstType::Mkpt: {
            // Pre-translation hint: mark the next load.
            next_load_marked = true;
            out.instructions += 1;
            break;
          }
          case trace::InstType::Load: {
            out.instructions += 1;
            ++out.memReads;
            Tick t0 = coreTime;

            if (inst.dependsOnPrev && last_load &&
                !last_load->done) {
                Tick done_at = waitFor(last_load);
                coreTime = std::max(coreTime, done_at);
            }

            // TLB. Pre-translation can deliver the entry for a
            // dependent load that follows a marked (mkpt) load --
            // the entry arrived with the previous load's data.
            auto &tlb = caches.tlb();
            bool assisted = inst.dependsOnPrev && prev_load_marked &&
                            tlbAssist && tlbAssist(inst.addr);
            std::shared_ptr<Pending> walk_pend;
            if (assisted) {
                tlb.install(inst.addr);
            } else {
                auto tr = tlb.access(inst.addr);
                if (tr.walk) {
                    coreTime += nsToTicks(p.walkFixedNs);
                    // Page-table access through the caches. A PTE
                    // LLC miss gates *this* load (the hardware
                    // walker runs it), not the pipeline.
                    Addr pte = p.pageTableBase +
                               (inst.addr / 4096) * 8;
                    auto walk = caches.access(pte, false);
                    coreTime += nsToTicks(walk.chargeNs);
                    if (walk.llcMiss) {
                        walk_pend = issueRead(
                            alignDown(pte, cacheLineSize), false);
                    }
                }
            }

            auto res = caches.access(inst.addr, false);
            coreTime += nsToTicks(res.chargeNs);
            if (res.llcMiss || walk_pend) {
                if (res.llcMiss && res.l3Writeback)
                    issueWrite(res.writebackAddr, MemOp::Write);
                // MLP limit.
                while (loadsInFlight.size() >= p.maxLoads) {
                    Tick done_at = waitFor(loadsInFlight.front());
                    loadsInFlight.pop_front();
                    coreTime = std::max(coreTime, done_at);
                }
                if (res.llcMiss) {
                    last_load = issueReadAfter(walk_pend, inst.addr,
                                               next_load_marked);
                } else {
                    // Cache hit whose translation is in flight.
                    last_load = walk_pend;
                }
                loadsInFlight.push_back(last_load);
                if (inst.dependsOnPrev) {
                    // Dependent chain: the consumer needs the data.
                    Tick done_at = waitFor(last_load);
                    coreTime = std::max(coreTime, done_at);
                }
            } else {
                last_load = nullptr;
            }
            prev_load_marked = next_load_marked;
            next_load_marked = false;
            read_stall_ns += ticksToNs(coreTime - t0);
            break;
          }
          case trace::InstType::Store:
          case trace::InstType::StoreNT: {
            out.instructions += 1;
            ++out.memWrites;
            if (inst.type == trace::InstType::Store) {
                auto res = caches.access(inst.addr, true);
                coreTime += nsToTicks(res.chargeNs);
                if (res.llcMiss) {
                    // Write-allocate RFO read, non-blocking.
                    while (loadsInFlight.size() >= p.maxLoads) {
                        Tick done_at =
                            waitFor(loadsInFlight.front());
                        loadsInFlight.pop_front();
                        coreTime = std::max(coreTime, done_at);
                    }
                    loadsInFlight.push_back(
                        issueRead(inst.addr, false));
                }
                if (res.l3Writeback)
                    issueWrite(res.writebackAddr, MemOp::Write);
            } else {
                issueWrite(inst.addr, MemOp::WriteNT);
            }
            coreTime += cycle / p.width;
            break;
          }
          case trace::InstType::Clwb: {
            out.instructions += 1;
            if (caches.clean(inst.addr))
                issueWrite(alignDown(inst.addr, cacheLineSize),
                           MemOp::Clwb);
            coreTime += cycle / p.width;
            break;
          }
          case trace::InstType::Clflushopt: {
            out.instructions += 1;
            if (caches.invalidate(inst.addr))
                issueWrite(alignDown(inst.addr, cacheLineSize),
                           MemOp::Clflushopt);
            coreTime += cycle / p.width;
            break;
          }
          case trace::InstType::Fence:
          case trace::InstType::Sfence: {
            out.instructions += 1;
            syncTo(coreTime);
            MemOp op = inst.type == trace::InstType::Fence
                           ? MemOp::Fence
                           : MemOp::Sfence;
            RequestHandle h = mem.makeRequest(0, op, 0);
            bool done = false;
            Tick at = 0;
            mem.request(h).onComplete =
                [&done, &at, p = &mem.pool(), h](Request &r) {
                    done = true;
                    at = r.completeTick;
                    p->release(h);
                };
            mem.issue(h);
            while (!done) {
                if (!eq.step())
                    panic("queue drained during fence");
            }
            coreTime = std::max(coreTime, at);
            break;
          }
        }
    }

    // Drain outstanding loads.
    while (!loadsInFlight.empty()) {
        Tick done_at = waitFor(loadsInFlight.front());
        loadsInFlight.pop_front();
        coreTime = std::max(coreTime, done_at);
    }
    syncTo(coreTime);

    out.elapsed = coreTime - start;
    double cycles = static_cast<double>(out.elapsed) /
                    static_cast<double>(cycle);
    out.ipc = cycles > 0
                  ? static_cast<double>(out.instructions) / cycles
                  : 0;
    double kilo_insts =
        static_cast<double>(out.instructions) / 1000.0;
    out.llcMpki =
        kilo_insts > 0
            ? static_cast<double>(
                  caches.llc().stats().scalarValue("misses") -
                  llc_miss_start) /
                  kilo_insts
            : 0;
    out.tlbMpki =
        kilo_insts > 0
            ? static_cast<double>(
                  caches.tlb().stats().scalarValue("walks") -
                  walks_start) /
                  kilo_insts
            : 0;
    out.readStallNs = read_stall_ns;
    out.otherNs = ticksToNs(out.elapsed) - read_stall_ns;
    return out;
}

} // namespace vans::cpu
