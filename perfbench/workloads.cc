#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench/bench_util.hh"
#include "cache/hierarchy.hh"
#include "common/config.hh"
#include "common/snapshot.hh"
#include "cpu/core.hh"
#include "lens/driver.hh"
#include "lens/microbench.hh"
#include "nvram/nvm_checker.hh"
#include "nvram/vans_system.hh"
#include "workloads/cloud.hh"

namespace perfbench
{

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        notes.push_back(what);
    }
}

namespace
{

using vans::Addr;
using vans::Tick;
using vans::nvram::NvramConfig;

double
msSince(std::uint64_t t0)
{
    return static_cast<double>(hostNs() - t0) / 1e6;
}

/** One simulated world: an event queue and the system it clocks. */
struct World
{
    explicit World(const NvramConfig &cfg) : sys(eq, cfg) {}
    vans::EventQueue eq;
    vans::nvram::VansSystem sys;
};

/**
 * Brackets one measured phase of a pass: counter readings before and
 * after, host time and allocations between, the closing drain, and
 * the retire/quiescence checks.
 */
class PhaseMeter
{
  public:
    PhaseMeter(World &w, PassResult &r, Tracer &tr, std::uint16_t phase)
        : w(w), r(r), tr(tr), phase(phase), before(readCounters(w.sys)),
          simStart(w.eq.curTick())
    {
        if (tr.enabled())
            spanId = tr.open(SpanKind::Phase, phase);
        allocStart = allocCount();
        hostStart = hostNs();
    }

    /** Drain the world and account the phase into the pass. */
    void
    finish()
    {
        tr.span(SpanKind::Drain, phase, [this] { w.sys.drain(); });
        std::uint64_t hostEnd = hostNs();
        std::uint64_t allocEnd = allocCount();
        if (spanId)
            tr.close(spanId);
        Counters after = readCounters(w.sys);
        PhaseStat ps;
        ps.name = tr.phaseNames()[phase];
        ps.requests = after["reqpool.allocs"] - before["reqpool.allocs"];
        ps.events = after["kernel.events_executed"] -
                    before["kernel.events_executed"];
        ps.allocs = static_cast<double>(allocEnd - allocStart);
        ps.hostNs = static_cast<double>(hostEnd - hostStart);
        ps.simNs = vans::ticksToNs(w.eq.curTick() - simStart);
        r.hostNs += ps.hostNs;
        r.allocs += ps.allocs;
        r.simNs += ps.simNs;
        r.requests += ps.requests;
        r.events += ps.events;
        addDelta(r.delta, after, before);
        r.peakPending =
            std::max(r.peakPending, after["kernel.peak_pending"]);
        r.peakLive = std::max(r.peakLive, after["reqpool.peak_live"]);
        r.checks.expect(w.sys.quiescent(),
                        ps.name + ": drain ended short of quiescence");
        std::size_t live = w.sys.pool().live();
        r.checks.attempted += static_cast<std::uint64_t>(ps.requests);
        r.checks.failed += live;
        if (live) {
            r.checks.notes.push_back(ps.name + ": " +
                                     std::to_string(live) +
                                     " requests never retired");
        }
        r.phases.push_back(std::move(ps));
    }

  private:
    World &w;
    PassResult &r;
    Tracer &tr;
    std::uint16_t phase;
    Counters before;
    Tick simStart;
    std::uint32_t spanId = 0;
    std::uint64_t allocStart = 0;
    std::uint64_t hostStart = 0;
};

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** The digest of a pass: its model counters and simulated results. */
double
passDigest(const PassResult &r)
{
    std::vector<std::uint64_t> extra{bitsOf(r.requests), bitsOf(r.simNs),
                                     bitsOf(r.insts), bitsOf(r.coreNs)};
    for (double p : r.plateauNs)
        extra.push_back(bitsOf(p));
    return modelDigest(r.delta, extra);
}

/** Checks on a world that ran with NvramConfig::verify. */
void
checkVerified(World &w, Checks &c, const std::string &what)
{
    w.sys.drain();
    vans::nvram::Verifier *v = w.sys.verifier();
    c.expect(v != nullptr, what + ": verifier not attached");
    if (!v)
        return;
    vans::StatGroup &s = v->stats();
    c.expect(s.scalarValue("failures") == 0,
             what + ": checker violations");
    c.expect(s.scalarValue("requests_issued") ==
                 s.scalarValue("requests_retired"),
             what + ": verified requests never retired");
    c.expect(w.sys.pool().live() == 0, what + ": live requests");
}

/** Mean |sim - ref| / ref over the measured regions, in percent. */
double
meanErrorPct(const vans::Curve &ref, const std::vector<double> &sim)
{
    const auto &pts = ref.points();
    double sum = 0;
    for (std::size_t i = 0; i < pts.size() && i < sim.size(); ++i)
        sum += std::abs(sim[i] - pts[i].y) / pts[i].y;
    return pts.empty() ? 0 : 100.0 * sum / static_cast<double>(pts.size());
}

// ---- chase-load -----------------------------------------------------

/**
 * Dependent 64 B loads on one App Direct DIMM. The measured-line
 * counts give each region roughly a third of the host time.
 */
class ChaseLoad : public Workload
{
    struct Region
    {
        std::uint64_t bytes;
        std::uint64_t lines;
        const char *label;
    };
    static constexpr Region regions[] = {
        {8ull << 10, 720'000, "8KB"},
        {1ull << 20, 52'000, "1MB"},
        {64ull << 20, 3'200, "64MB"},
    };
    static constexpr std::uint64_t warmLines = 4000;
    static constexpr std::uint64_t verifyLines = 300;

  public:
    explicit ChaseLoad(std::uint64_t seed) : seed(seed) {}

    SetupTimes
    setup() override
    {
        SetupTimes t;
        std::uint64_t t0 = hostNs();
        std::uint64_t s = hostNs();
        cfg = NvramConfig::optaneDefault();
        t.configMs = msSince(s);
        orders.clear();
        snaps.clear();
        for (std::size_t i = 0; i < std::size(regions); ++i) {
            const Region &rg = regions[i];
            s = hostNs();
            orders.push_back(vans::lens::chaseOrder(
                0, rg.bytes, 64, rg.lines, seed * 3 + i + 1));
            t.genMs += msSince(s);

            s = hostNs();
            World w(cfg);
            t.constructMs += msSince(s);

            s = hostNs();
            vans::lens::Driver drv(w.sys);
            vans::lens::PtrChaseParams p;
            p.regionBytes = rg.bytes;
            p.warmupLines = warmLines;
            p.measureLines = 64;
            p.seed = seed;
            p.coverageWarm = true;
            vans::lens::ptrChase(drv, p);
            w.sys.drain();
            t.warmS += msSince(s) / 1e3;

            s = hostNs();
            snaps.push_back(
                vans::snapshot::WorldSnapshot::capture(w.eq, w.sys));
            t.captureMs += msSince(s);
            t.snapshotBytes += static_cast<double>(snaps.back().sizeBytes());

            World fresh(cfg);
            snaps.back().restoreInto(fresh.eq, fresh.sys);
        }
        t.totalS = msSince(t0) / 1e3;
        return t;
    }

    PassResult
    pass(Tracer &tr) override
    {
        PassResult r;
        r.traced = tr.enabled();
        for (std::size_t i = 0; i < std::size(regions); ++i) {
            const Region &rg = regions[i];
            std::uint16_t ph =
                tr.phaseId(std::string("chase-load/") + rg.label);
            World w(cfg);
            std::uint64_t s = hostNs();
            tr.span(SpanKind::Restore, ph,
                    [&] { snaps[i].restoreInto(w.eq, w.sys); });
            r.restoreMs += msSince(s);
            vans::lens::Driver drv(w.sys);
            const std::vector<Addr> &ord = orders[i];
            if (r.traced)
                r.readSimNs.reserve(r.readSimNs.size() + rg.lines);

            PhaseMeter m(w, r, tr, ph);
            Tick sum = 0;
            if (!r.traced) {
                for (std::uint64_t k = 0; k < rg.lines; ++k)
                    sum += drv.read(ord[k % ord.size()]);
            } else {
                for (std::uint64_t k = 0; k < rg.lines; ++k) {
                    Tick lat = tr.span(SpanKind::LensRead, ph, [&] {
                        return drv.read(ord[k % ord.size()]);
                    });
                    sum += lat;
                    r.readSimNs.push_back(vans::ticksToNs(lat));
                }
            }
            m.finish();
            r.plateauNs.push_back(vans::ticksToNs(sum) /
                                  static_cast<double>(rg.lines));
        }
        r.checks.expect(r.plateauNs[0] < r.plateauNs[1] &&
                            r.plateauNs[1] < r.plateauNs[2],
                        "chase-load plateaus out of order "
                        "(8KB < 1MB < 64MB)");
        r.digest = passDigest(r);
        return r;
    }

    void
    verifyPrefix(Checks &c) override
    {
        NvramConfig vcfg = cfg;
        vcfg.verify = true;
        for (std::size_t i = 0; i < std::size(regions); ++i) {
            World w(vcfg);
            vans::lens::Driver drv(w.sys);
            for (std::uint64_t k = 0; k < verifyLines; ++k)
                drv.read(orders[i][k % orders[i].size()]);
            checkVerified(w, c,
                          std::string("chase-load/") + regions[i].label +
                              " verified prefix");
        }
    }

    double
    refErrorPct(const PassResult &r) const override
    {
        std::vector<std::uint64_t> xs;
        for (const Region &rg : regions)
            xs.push_back(rg.bytes);
        return meanErrorPct(vans::bench::optaneLoadReference(xs),
                            r.plateauNs);
    }

  private:
    std::uint64_t seed;
    NvramConfig cfg;
    std::vector<std::vector<Addr>> orders;
    std::vector<vans::snapshot::WorldSnapshot> snaps;
};

// ---- store-persist --------------------------------------------------

/**
 * NT-store streams (16 in flight) each followed by a fence at three
 * regions, alternating NT and clwb persist blocks, and an overwrite
 * of one wear block that crosses the migration threshold twice.
 */
class StorePersist : public Workload
{
    struct Region
    {
        std::uint64_t bytes;
        std::uint64_t streams;
        Addr base;
        const char *label;
    };
    static constexpr Region regions[] = {
        {512, 64, 0, "512B"},
        {16ull << 10, 32, 1ull << 30, "16KB"},
        {64ull << 20, 24, 2ull << 30, "64MB"},
    };
    static constexpr std::uint64_t streamLines = 1024;
    static constexpr unsigned inFlight = 16;
    static constexpr Addr persistBase = 3ull << 30;
    static constexpr std::uint64_t persistRegion = 4ull << 20;
    static constexpr std::uint32_t persistBytes = 1024;
    static constexpr std::uint64_t persistPairs = 4000;
    static constexpr Addr wearBase = (3ull << 30) + (512ull << 20);
    static constexpr std::uint64_t wearBlock = 64 << 10;
    static constexpr std::uint64_t overwrites = 120;

  public:
    explicit StorePersist(std::uint64_t seed) : seed(seed) {}

    SetupTimes
    setup() override
    {
        SetupTimes t;
        std::uint64_t t0 = hostNs();
        std::uint64_t s = hostNs();
        cfg = NvramConfig::optaneDefault();
        t.configMs = msSince(s);

        s = hostNs();
        streams.assign(std::size(regions), {});
        for (std::size_t i = 0; i < std::size(regions); ++i) {
            const Region &rg = regions[i];
            auto order = vans::lens::chaseOrder(
                rg.base, rg.bytes, 64, rg.streams * streamLines,
                seed * 3 + i + 1);
            std::size_t cur = 0;
            for (std::uint64_t k = 0; k < rg.streams; ++k) {
                std::vector<Addr> st;
                st.reserve(streamLines);
                for (std::uint64_t l = 0; l < streamLines; ++l)
                    st.push_back(order[cur++ % order.size()]);
                streams[i].push_back(std::move(st));
            }
        }
        persistAddrs = vans::lens::chaseOrder(
            persistBase, persistRegion, persistBytes, 2 * persistPairs,
            seed);
        wearLines.clear();
        Addr block = wearBase + (seed % 64) * wearBlock;
        for (Addr a = block; a < block + wearBlock; a += 64)
            wearLines.push_back(a);
        t.genMs = msSince(s);

        s = hostNs();
        World w(cfg);
        t.constructMs = msSince(s);

        s = hostNs();
        vans::lens::Driver drv(w.sys);
        for (const Region &rg : regions) {
            vans::lens::PtrChaseParams p;
            p.base = rg.base;
            p.regionBytes = rg.bytes;
            p.writeMode = true;
            p.warmupLines = 4 * streamLines;
            p.measureLines = 64;
            p.seed = seed;
            p.coverageWarm = true;
            vans::lens::ptrChase(drv, p);
            drv.fence();
        }
        w.sys.drain();
        t.warmS = msSince(s) / 1e3;

        s = hostNs();
        snap = vans::snapshot::WorldSnapshot::capture(w.eq, w.sys);
        t.captureMs = msSince(s);
        t.snapshotBytes = static_cast<double>(snap.sizeBytes());

        World fresh(cfg);
        snap.restoreInto(fresh.eq, fresh.sys);
        t.totalS = msSince(t0) / 1e3;
        return t;
    }

    PassResult
    pass(Tracer &tr) override
    {
        PassResult r;
        r.traced = tr.enabled();
        World w(cfg);
        std::uint64_t s = hostNs();
        tr.span(SpanKind::Restore, tr.phaseId("store-persist/restore"),
                [&] { snap.restoreInto(w.eq, w.sys); });
        r.restoreMs = msSince(s);
        vans::lens::Driver drv(w.sys);

        for (std::size_t i = 0; i < std::size(regions); ++i) {
            std::uint16_t ph = tr.phaseId(
                std::string("store-persist/") + regions[i].label);
            PhaseMeter m(w, r, tr, ph);
            Tick sum = 0;
            for (const auto &st : streams[i])
                sum += streamThenFence(drv, tr, ph, st, r);
            m.finish();
            r.plateauNs.push_back(
                vans::ticksToNs(sum) /
                static_cast<double>(regions[i].streams * streamLines));
        }

        std::uint16_t ph = tr.phaseId("store-persist/persist");
        PhaseMeter pm(w, r, tr, ph);
        for (std::uint64_t k = 0; k < persistPairs; ++k) {
            Addr nt = persistAddrs[2 * k % persistAddrs.size()];
            Addr cl = persistAddrs[(2 * k + 1) % persistAddrs.size()];
            tr.span(SpanKind::LensPersist, ph,
                    [&] { return drv.persistBlockNt(nt, persistBytes); });
            tr.span(SpanKind::LensPersist, ph, [&] {
                return drv.persistBlockCached(cl, persistBytes);
            });
        }
        pm.finish();

        ph = tr.phaseId("store-persist/wear");
        std::uint64_t mig0 = w.sys.totalMigrations();
        PhaseMeter wm(w, r, tr, ph);
        for (std::uint64_t k = 0; k < overwrites; ++k)
            streamThenFence(drv, tr, ph, wearLines, r);
        wm.finish();
        r.checks.expect(w.sys.totalMigrations() - mig0 >= 2,
                        "store-persist: wear block migrated fewer "
                        "than two times");

        r.checks.expect(r.plateauNs[0] < r.plateauNs[1] &&
                            r.plateauNs[1] < r.plateauNs[2],
                        "store-persist plateaus out of order "
                        "(512B < 16KB < 64MB)");
        r.digest = passDigest(r);
        return r;
    }

    void
    verifyPrefix(Checks &c) override
    {
        NvramConfig vcfg = cfg;
        vcfg.verify = true;
        World w(vcfg);
        vans::lens::Driver drv(w.sys);
        for (const auto &region : streams) {
            drv.streamWrites(region.front(), inFlight);
            drv.fence();
        }
        for (std::uint64_t k = 0; k < 8; ++k) {
            drv.persistBlockNt(persistAddrs[2 * k], persistBytes);
            drv.persistBlockCached(persistAddrs[2 * k + 1], persistBytes);
        }
        for (int k = 0; k < 4; ++k) {
            drv.streamWrites(wearLines, inFlight);
            drv.fence();
        }
        checkVerified(w, c, "store-persist verified prefix");
    }

    double
    refErrorPct(const PassResult &r) const override
    {
        std::vector<std::uint64_t> xs;
        for (const Region &rg : regions)
            xs.push_back(rg.bytes);
        return meanErrorPct(vans::bench::optaneStoreReference(xs),
                            r.plateauNs);
    }

  private:
    /** One NT-store stream and its fence. @return the stream's ticks. */
    static Tick
    streamThenFence(vans::lens::Driver &drv, Tracer &tr,
                    std::uint16_t ph, const std::vector<Addr> &st,
                    PassResult &r)
    {
        Tick wt = tr.span(SpanKind::LensWrite, ph,
                          [&] { return drv.streamWrites(st, inFlight); });
        Tick ft = tr.span(SpanKind::LensFence, ph,
                          [&] { return drv.fence(); });
        if (r.traced) {
            r.writeSimNs.push_back(vans::ticksToNs(wt));
            r.fenceSimNs.push_back(vans::ticksToNs(ft));
        }
        return wt;
    }

    std::uint64_t seed;
    NvramConfig cfg;
    std::vector<std::vector<std::vector<Addr>>> streams;
    std::vector<Addr> persistAddrs;
    std::vector<Addr> wearLines;
    vans::snapshot::WorldSnapshot snap;
};

// ---- cloud-mm6 ------------------------------------------------------

/**
 * CpuCore on the 6-DIMM 4 KB-interleaved socket in Memory Mode: a
 * YCSB trace (50/50 zipfian, persisted updates), then a Redis GET
 * trace, fed to CpuCore::run in fixed instruction slices.
 */
class CloudMm6 : public Workload
{
    static constexpr const char *configPath =
        "configs/optane_6dimm_interleaved.cfg";
    static constexpr std::uint64_t ycsbOps = 2'500;
    static constexpr std::uint64_t redisOps = 625;
    static constexpr std::uint64_t slice = 10'000;

  public:
    explicit CloudMm6(std::uint64_t seed) : seed(seed) {}

    SetupTimes
    setup() override
    {
        SetupTimes t;
        std::uint64_t t0 = hostNs();
        std::uint64_t s = hostNs();
        vans::Config c = vans::Config::fromFile(configPath);
        c.set("nvram", "mode", "memory");
        c.set("nvram", "dcache_capacity", "64M");
        cfg = NvramConfig::fromConfig(c);
        t.configMs = msSince(s);

        s = hostNs();
        vans::workloads::CloudParams yp;
        yp.operations = ycsbOps;
        yp.footprintBytes = 256ull << 20;
        yp.seed = seed;
        ycsb = vans::workloads::ycsbTrace(yp);
        vans::workloads::CloudParams rp;
        rp.operations = redisOps;
        rp.footprintBytes = 512ull << 20;
        rp.seed = seed;
        redis = vans::workloads::redisTrace(rp);
        t.genMs = msSince(s);

        s = hostNs();
        World w(cfg);
        vans::cache::Hierarchy caches;
        vans::cpu::CpuCore core(w.sys, caches);
        t.constructMs = msSince(s);

        // Warm the code, not the state: every pass starts cold from a
        // fresh world, but the first run of each code path pays its
        // lazy one-time set-up, which must not land in a pass.
        s = hostNs();
        runPrefix(core, 2 * slice);
        w.sys.drain();
        t.warmS = msSince(s) / 1e3;
        t.totalS = msSince(t0) / 1e3;
        return t;
    }

    PassResult
    pass(Tracer &tr) override
    {
        PassResult r;
        r.traced = tr.enabled();
        World w(cfg);
        vans::cache::Hierarchy caches;
        vans::cpu::CpuCore core(w.sys, caches);
        runTrace(w, core, tr, tr.phaseId("cloud-mm6/ycsb"), ycsb, r);
        runTrace(w, core, tr, tr.phaseId("cloud-mm6/redis"), redis, r);
        r.llcMisses = static_cast<double>(
            caches.llc().stats().scalarValue("misses"));
        r.tlbWalks = static_cast<double>(
            caches.tlb().stats().scalarValue("walks"));
        std::string bad;
        for (const std::string &b : checkDimmTotals(w.sys))
            bad += " " + b + ";";
        r.checks.expect(bad.empty(),
                        "cloud-mm6 6-DIMM totals disagree:" + bad);
        r.digest = passDigest(r);
        return r;
    }

    void
    verifyPrefix(Checks &c) override
    {
        NvramConfig vcfg = cfg;
        vcfg.verify = true;
        World w(vcfg);
        vans::cache::Hierarchy caches;
        vans::cpu::CpuCore core(w.sys, caches);
        runPrefix(core, 2 * slice);
        checkVerified(w, c, "cloud-mm6 verified prefix");
    }

    double refErrorPct(const PassResult &) const override { return -1; }

  private:
    /** Run the first @p insts instructions of each trace on @p core. */
    void
    runPrefix(vans::cpu::CpuCore &core, std::uint64_t insts) const
    {
        for (const auto *trace : {&ycsb, &redis}) {
            std::vector<vans::trace::TraceInst> head(
                trace->begin(),
                trace->begin() +
                    std::min<std::size_t>(trace->size(), insts));
            vans::trace::VectorTraceSource src(std::move(head));
            core.run(src, insts);
        }
    }

    static void
    runTrace(World &w, vans::cpu::CpuCore &core, Tracer &tr,
             std::uint16_t ph,
             const std::vector<vans::trace::TraceInst> &insts,
             PassResult &r)
    {
        vans::trace::VectorTraceSource src(insts);
        PhaseMeter m(w, r, tr, ph);
        for (;;) {
            vans::cpu::CoreStats st = tr.span(
                SpanKind::CpuRun, ph, [&] { return core.run(src, slice); });
            if (st.instructions == 0)
                break;
            r.insts += static_cast<double>(st.instructions);
            r.coreNs += vans::ticksToNs(st.elapsed);
            r.readStallNs += st.readStallNs;
            r.otherNs += st.otherNs;
        }
        m.finish();
    }

    std::uint64_t seed;
    NvramConfig cfg;
    std::vector<vans::trace::TraceInst> ycsb;
    std::vector<vans::trace::TraceInst> redis;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "chase-load")
        return std::make_unique<ChaseLoad>(seed);
    if (name == "store-persist")
        return std::make_unique<StorePersist>(seed);
    if (name == "cloud-mm6")
        return std::make_unique<CloudMm6>(seed);
    return nullptr;
}

} // namespace perfbench
