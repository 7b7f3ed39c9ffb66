/**
 * @file
 * Tests for the cache hierarchy, TLB, trace-driven CPU core, and
 * workload generators.
 */

#include <algorithm>
#include <list>

#include <gtest/gtest.h>

#include "baselines/dram_system.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "tests/test_util.hh"
#include "trace/trace.hh"
#include "workloads/cloud.hh"
#include "workloads/spec_synth.hh"

using namespace vans;
using namespace vans::cache;
using vans::test::VansFixture;

// ---- Cache -----------------------------------------------------------

TEST(Cache, HitAfterFill)
{
    Cache c(CacheParams{"c", 4096, 4, 64, 1.0});
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(32, false).hit); // Same line.
    EXPECT_FALSE(c.access(64, false).hit);
}

TEST(Cache, LruEviction)
{
    // 4 sets x 2 ways of 64B lines = 512B.
    Cache c(CacheParams{"c", 512, 2, 64, 1.0});
    // Fill both ways of set 0 (stride = 4 sets * 64).
    c.access(0, false);
    c.access(256, false);
    EXPECT_TRUE(c.access(0, false).hit);
    // Insert a third line in set 0: LRU victim is 256.
    c.access(512, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(256));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    // 512B, 2 ways, 4 sets: addresses 0/256/512 all map to set 0.
    Cache c(CacheParams{"c", 512, 2, 64, 1.0});
    c.access(0, true);     // Dirty, MRU.
    c.access(256, false);  // Clean; LRU is now 0.
    auto r = c.access(512, false); // Evicts 0: dirty writeback.
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, 0u);
    // A clean victim reports no writeback.
    r = c.access(768, false); // Evicts 256 (clean).
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, CleanClearsDirty)
{
    Cache c(CacheParams{"c", 512, 2, 64, 1.0});
    c.access(0, true);
    EXPECT_TRUE(c.clean(0));  // Was dirty.
    EXPECT_FALSE(c.clean(0)); // Now clean.
    EXPECT_TRUE(c.contains(0));
}

TEST(Cache, InvalidateReportsDirty)
{
    Cache c(CacheParams{"c", 512, 2, 64, 1.0});
    c.access(0, true);
    EXPECT_TRUE(c.invalidate(0));
    EXPECT_FALSE(c.contains(0));
}

// Regression: access() always victimized lruOrder.back(), even when
// an invalidated way sat free in the set. After a clflushopt the
// next fill evicted a live (possibly dirty) neighbour while the
// freed way stayed unused -- so clflushopt effectively cost *two*
// lines and a spurious dirty writeback.
TEST(Cache, FillPrefersInvalidatedWayOverLruVictim)
{
    // 512B, 2 ways, 4 sets: addresses 0/256/512 all map to set 0.
    Cache c(CacheParams{"c", 512, 2, 64, 1.0});
    c.access(0, true);    // A, dirty.
    c.access(256, false); // B, clean; LRU order is now [B, A].
    c.invalidate(256);    // clflushopt B: its way is free.
    // Fill C: it must land in B's freed way, not evict dirty A.
    auto r = c.access(512, false);
    EXPECT_FALSE(r.writeback)
        << "fill evicted a live dirty line past a free way";
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(512));
    EXPECT_TRUE(c.access(0, false).hit);
}

// Lockstep against a list-per-set reference: recency order MRU to
// LRU, hits promote, a fill takes the first invalid way in recency
// order, else the LRU way. Every access, writeback, clean and
// invalidate result must agree op for op.
TEST(Cache, LockstepWithListLruReference)
{
    struct RefLine
    {
        Addr line;
        bool valid;
        bool dirty;
    };
    constexpr unsigned sets = 8, ways = 4;
    Cache c(CacheParams{"c", sets * ways * 64, ways, 64, 1.0});
    std::vector<std::list<RefLine>> ref(sets);
    for (auto &set : ref)
        set.assign(ways, RefLine{0, false, false});
    auto find = [&](Addr line) {
        auto &set = ref[line % sets];
        return std::find_if(set.begin(), set.end(), [&](const RefLine &l) {
            return l.valid && l.line == line;
        });
    };

    Rng rng(97);
    for (int op = 0; op < 20000; ++op) {
        Addr line = rng.below(sets * ways * 3);
        auto &set = ref[line % sets];
        auto it = find(line);
        double kind = rng.uniform();
        if (kind < 0.8) {
            bool write = rng.uniform() < 0.4;
            CacheAccessResult got = c.access(line * 64, write);
            ASSERT_EQ(got.hit, it != set.end()) << "op " << op;
            if (it == set.end()) {
                it = std::find_if(set.begin(), set.end(),
                                  [](const RefLine &l) { return !l.valid; });
                if (it == set.end())
                    it = std::prev(set.end());
                bool wb = it->valid && it->dirty;
                ASSERT_EQ(got.writeback, wb) << "op " << op;
                if (wb) {
                    ASSERT_EQ(got.writebackAddr, it->line * 64);
                }
                *it = RefLine{line, true, false};
            }
            it->dirty = it->dirty || write;
            set.splice(set.begin(), set, it);
        } else if (kind < 0.9) {
            bool dirty = it != set.end() && it->dirty;
            ASSERT_EQ(c.clean(line * 64), dirty) << "op " << op;
            if (dirty)
                it->dirty = false;
        } else {
            bool dirty = it != set.end() && it->dirty;
            ASSERT_EQ(c.invalidate(line * 64), dirty) << "op " << op;
            if (it != set.end())
                *it = RefLine{0, false, false};
        }
    }
}

// The Empirical Guide's post-flush contract for the two flush ops:
// clwb leaves the line resident (the next access hits), clflushopt
// evicts it (the next access misses) without disturbing neighbours.
TEST(Hierarchy, ClwbStaysResidentClflushoptEvicts)
{
    Hierarchy h;

    // clwb: writeback due, line still resident at L1.
    h.access(0x40, true);
    EXPECT_TRUE(h.clean(0x40));
    EXPECT_EQ(h.access(0x40, false).hitLevel, 1u);

    // clflushopt: writeback due, next access is a full LLC miss.
    h.access(0x80, true);
    EXPECT_TRUE(h.invalidate(0x80));
    EXPECT_TRUE(h.access(0x80, false).llcMiss);

    // Flushing a clean line owes no writeback either way.
    EXPECT_FALSE(h.clean(0x40));
    EXPECT_FALSE(h.invalidate(0x100));
}

TEST(Cache, MissRateTracked)
{
    Cache c(CacheParams{"c", 4096, 4, 64, 1.0});
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    EXPECT_NEAR(c.missRate(), 0.25, 1e-9);
}

// ---- TLB --------------------------------------------------------------

TEST(Tlb, WalkOnColdMiss)
{
    Tlb t(TlbParams{});
    auto r = t.access(0);
    EXPECT_TRUE(r.walk);
    r = t.access(64);
    EXPECT_TRUE(r.l1Hit); // Same page.
}

TEST(Tlb, StlbCatchesL1Evictions)
{
    TlbParams p;
    p.l1Entries = 8;
    p.l1Ways = 4;
    Tlb t(p);
    // Touch many pages: L1 (8 entries) thrashes, STLB holds them.
    for (Addr pg = 0; pg < 64; ++pg)
        t.access(pg * 4096);
    auto r = t.access(0);
    EXPECT_TRUE(r.l1Hit || r.stlbHit);
    EXPECT_FALSE(r.walk);
}

TEST(Tlb, InstallSkipsWalk)
{
    Tlb t(TlbParams{});
    EXPECT_TRUE(t.install(8ull << 30));
    auto r = t.access(8ull << 30);
    EXPECT_FALSE(r.walk);
    EXPECT_FALSE(t.install(8ull << 30)); // Already present.
}

TEST(Tlb, WalkRateOverRandomPages)
{
    Tlb t(TlbParams{});
    Rng rng(3);
    // Far more pages than the 1536-entry STLB covers.
    for (int i = 0; i < 20000; ++i)
        t.access(rng.below(100000) * 4096);
    EXPECT_GT(t.walkRate(), 0.5);
}

// ---- Hierarchy ---------------------------------------------------------

TEST(Hierarchy, LevelsFillOnMiss)
{
    Hierarchy h;
    auto r = h.access(0, false);
    EXPECT_TRUE(r.llcMiss);
    r = h.access(0, false);
    EXPECT_EQ(r.hitLevel, 1u);
}

TEST(Hierarchy, L2CatchesL1Victims)
{
    HierarchyParams p;
    p.l1 = CacheParams{"l1", 1024, 2, 64, 1.0};
    Hierarchy h(p);
    // Overflow L1 (16 lines), stay within L2.
    for (Addr a = 0; a < 64 * 64; a += 64)
        h.access(a, false);
    auto r = h.access(0, false);
    EXPECT_GE(r.hitLevel, 2u);
    EXPECT_LE(r.hitLevel, 3u);
}

TEST(Hierarchy, DirtyLlcVictimHeadsToMemory)
{
    HierarchyParams p;
    p.l1 = CacheParams{"l1", 512, 2, 64, 1.0};
    p.l2 = CacheParams{"l2", 1024, 2, 64, 2.0};
    p.l3 = CacheParams{"llc", 2048, 2, 64, 4.0};
    Hierarchy h(p);
    h.access(0, true);
    bool wb_seen = false;
    for (Addr a = 64; a < 64 * 512 && !wb_seen; a += 64)
        wb_seen = h.access(a, false).l3Writeback;
    EXPECT_TRUE(wb_seen);
}

// ---- CPU core -----------------------------------------------------------

namespace
{

cpu::CoreStats
runOn(MemorySystem &mem, std::vector<trace::TraceInst> insts,
      std::uint64_t max_insts = 1u << 30)
{
    cache::Hierarchy caches;
    cpu::CpuCore core(mem, caches);
    trace::VectorTraceSource src(std::move(insts));
    return core.run(src, max_insts);
}

} // namespace

TEST(CpuCore, NonMemRunsAtWidth)
{
    VansFixture f;
    std::vector<trace::TraceInst> insts;
    trace::TraceInst nm;
    nm.type = trace::InstType::NonMem;
    nm.count = 4000;
    insts.push_back(nm);
    auto st = runOn(f.sys, insts);
    EXPECT_EQ(st.instructions, 4000u);
    EXPECT_NEAR(st.ipc, 4.0, 0.2);
}

TEST(CpuCore, DependentLoadsSerialize)
{
    VansFixture f;
    // 64 dependent loads over distinct pages: each pays the memory
    // round trip.
    std::vector<trace::TraceInst> chase;
    for (int i = 0; i < 64; ++i) {
        trace::TraceInst ld;
        ld.type = trace::InstType::Load;
        ld.addr = static_cast<Addr>(i) * (1 << 20);
        ld.dependsOnPrev = true;
        chase.push_back(ld);
    }
    auto st = runOn(f.sys, chase);
    double ns_per_load = ticksToNs(st.elapsed) / 64.0;
    EXPECT_GT(ns_per_load, 300); // Media-path round trips + walks.
}

TEST(CpuCore, IndependentLoadsOverlap)
{
    // Loads spread over a handful of pages: after the first fills,
    // accesses are AIT/RMW-resident, so the dependent chain pays
    // round trips while independent loads pipeline. (Cold misses
    // over huge footprints are fill-bandwidth-bound for both.)
    auto build = [](bool dependent) {
        std::vector<trace::TraceInst> v;
        for (int rep = 0; rep < 2; ++rep) {
            for (int i = 0; i < 64; ++i) {
                trace::TraceInst ld;
                ld.type = trace::InstType::Load;
                // Permuted order so the CPU caches do not swallow
                // repeats while the AIT working set stays small.
                ld.addr = static_cast<Addr>((i * 29) % 64) * 256 +
                          (rep ? 64 : 0);
                ld.dependsOnPrev = dependent;
                v.push_back(ld);
            }
        }
        return v;
    };
    VansFixture f1, f2;
    auto dep = runOn(f1.sys, build(true));
    auto indep = runOn(f2.sys, build(false));
    EXPECT_LT(indep.elapsed, dep.elapsed / 2);
}

TEST(CpuCore, LoadsChainBehindInFlightPageWalks)
{
    VansFixture f;
    // Independent loads, one per 1 MB-apart page: each misses the TLB
    // and its PTE misses the LLC, so every data read is chained behind
    // its still-running page-table read. The chaining watcher must be
    // freed once the read issues (the sanitizer lane checks leaks).
    std::vector<trace::TraceInst> v;
    for (int i = 0; i < 32; ++i) {
        trace::TraceInst ld;
        ld.type = trace::InstType::Load;
        ld.addr = static_cast<Addr>(i) * (1 << 20) + 64;
        v.push_back(ld);
    }
    auto st = runOn(f.sys, v);
    EXPECT_EQ(st.memReads, 32u);
    // One page-table read plus one chained data read per load.
    EXPECT_EQ(f.sys.imc().stats().scalarValue("reads"), 64u);
    // A chained read issues only after its walk read returns, so
    // the run costs at least two dependent media round trips.
    EXPECT_GT(ticksToNs(st.elapsed), 2 * 300.0);
}

TEST(CpuCore, CachedLoadsNeverTouchMemory)
{
    VansFixture f;
    std::vector<trace::TraceInst> v;
    for (int i = 0; i < 100; ++i) {
        trace::TraceInst ld;
        ld.type = trace::InstType::Load;
        ld.addr = 0;
        v.push_back(ld);
    }
    auto st = runOn(f.sys, v);
    // One cold miss plus its page-table read; the other 99 hit L1.
    EXPECT_LE(st.llcMpki, 1000.0 * 2 / 100 + 1);
    EXPECT_LE(f.sys.imc().stats().scalarValue("reads"), 2u);
}

TEST(CpuCore, FencesDrainWrites)
{
    VansFixture f;
    std::vector<trace::TraceInst> v;
    for (int i = 0; i < 8; ++i) {
        trace::TraceInst st;
        st.type = trace::InstType::StoreNT;
        st.addr = static_cast<Addr>(i) * 64;
        v.push_back(st);
    }
    trace::TraceInst fence;
    fence.type = trace::InstType::Fence;
    v.push_back(fence);
    runOn(f.sys, v);
    EXPECT_TRUE(f.sys.dimm(0).writeQuiescent());
}

TEST(CpuCore, ClwbWritesBackDirtyLine)
{
    VansFixture f;
    std::vector<trace::TraceInst> v;
    trace::TraceInst s;
    s.type = trace::InstType::Store;
    s.addr = 128;
    v.push_back(s);
    trace::TraceInst c;
    c.type = trace::InstType::Clwb;
    c.addr = 128;
    v.push_back(c);
    trace::TraceInst fence;
    fence.type = trace::InstType::Fence;
    v.push_back(fence);
    runOn(f.sys, v);
    EXPECT_GE(f.sys.imc().stats().scalarValue("writes"), 1u);
}

// ---- SPEC-like generator -------------------------------------------------

TEST(SpecSynth, TableHasThirteenWorkloads)
{
    EXPECT_EQ(workloads::specTable4().size(), 13u);
    const auto &mcf = workloads::specWorkload("mcf", "2006");
    EXPECT_NEAR(mcf.llcMpki, 27.1, 0.01);
    EXPECT_EQ(mcf.footprintBytes, 9100ull << 20);
}

TEST(SpecSynth, GeneratedMpkiTracksTarget)
{
    // Run two workloads with very different targets through the
    // cache hierarchy and compare measured LLC MPKI.
    auto measure = [](const workloads::SpecWorkload &w) {
        baselines::DramSystemParams dp =
            baselines::DramMainMemory::ddr4Params();
        EventQueue eq;
        baselines::DramMainMemory mem(eq, dp);
        auto insts = workloads::generateSpecTrace(w, 300000);
        cache::Hierarchy caches;
        cpu::CpuCore core(mem, caches);
        trace::VectorTraceSource src(std::move(insts));
        return core.run(src, 300000).llcMpki;
    };
    double mcf = measure(workloads::specWorkload("mcf", "2006"));
    double sjeng = measure(workloads::specWorkload("sjeng", "2006"));
    EXPECT_GT(mcf, sjeng * 2);
    EXPECT_NEAR(mcf, 27.1, 16.0);
    EXPECT_NEAR(sjeng, 2.7, 3.0);
}

TEST(SpecSynth, DeterministicForSeed)
{
    const auto &w = workloads::specWorkload("lbm", "2006");
    auto a = workloads::generateSpecTrace(w, 10000, 32ull << 20, 5);
    auto b = workloads::generateSpecTrace(w, 10000, 32ull << 20, 5);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(static_cast<int>(a[i].type),
                  static_cast<int>(b[i].type));
    }
}

// ---- Cloud workloads ------------------------------------------------------

TEST(CloudWorkloads, AllGeneratorsProduceTraces)
{
    workloads::CloudParams p;
    p.operations = 200;
    for (const char *name : {"redis", "ycsb", "tpcc", "fio-write",
                             "hashmap", "linkedlist"}) {
        auto t = workloads::cloudTrace(name, p);
        EXPECT_GT(t.size(), 200u) << name;
    }
}

TEST(CloudWorkloads, YcsbConcentratesWrites)
{
    workloads::CloudParams p;
    p.operations = 8000;
    auto t = workloads::ycsbTrace(p);
    std::unordered_map<Addr, unsigned> writes;
    std::uint64_t total = 0;
    for (const auto &i : t) {
        if (i.type == trace::InstType::Store) {
            ++writes[alignDown(i.addr, 64)];
            ++total;
        }
    }
    // Top-10 lines take a disproportionate share (paper Fig 12b).
    std::vector<unsigned> counts;
    for (auto &kv : writes)
        counts.push_back(kv.second);
    std::sort(counts.rbegin(), counts.rend());
    std::uint64_t top10 = 0;
    for (std::size_t i = 0; i < 10 && i < counts.size(); ++i)
        top10 += counts[i];
    EXPECT_GT(static_cast<double>(top10) /
                  static_cast<double>(total),
              0.10);
}

TEST(CloudWorkloads, RedisIsReadDominated)
{
    workloads::CloudParams p;
    p.operations = 2000;
    auto t = workloads::redisTrace(p);
    std::uint64_t loads = 0, stores = 0;
    for (const auto &i : t) {
        loads += i.type == trace::InstType::Load;
        stores += i.type == trace::InstType::Store;
    }
    EXPECT_GT(loads, stores * 4);
}

TEST(CloudWorkloads, HintsEmitMkpt)
{
    workloads::CloudParams p;
    p.operations = 100;
    p.preTranslationHints = true;
    auto t = workloads::linkedListTrace(p);
    bool has_mkpt = false;
    for (const auto &i : t)
        has_mkpt = has_mkpt || i.type == trace::InstType::Mkpt;
    EXPECT_TRUE(has_mkpt);

    p.preTranslationHints = false;
    auto t2 = workloads::linkedListTrace(p);
    for (const auto &i : t2)
        EXPECT_NE(static_cast<int>(i.type),
                  static_cast<int>(trace::InstType::Mkpt));
}

// ---- Trace files -----------------------------------------------------------

TEST(TraceFile, RoundTrip)
{
    std::vector<trace::TraceInst> v;
    trace::TraceInst nm;
    nm.type = trace::InstType::NonMem;
    nm.count = 12;
    v.push_back(nm);
    trace::TraceInst ld;
    ld.type = trace::InstType::Load;
    ld.addr = 0xdeadbe40;
    ld.dependsOnPrev = true;
    v.push_back(ld);
    trace::TraceInst st;
    st.type = trace::InstType::StoreNT;
    st.addr = 0x1000;
    v.push_back(st);
    trace::TraceInst f;
    f.type = trace::InstType::Fence;
    v.push_back(f);

    std::string path = "/tmp/vans_trace_test.txt";
    trace::writeTraceFile(path, v);
    auto r = trace::readTraceFile(path);
    ASSERT_EQ(r.size(), v.size());
    EXPECT_EQ(r[0].count, 12u);
    EXPECT_EQ(r[1].addr, 0xdeadbe40u);
    EXPECT_TRUE(r[1].dependsOnPrev);
    EXPECT_EQ(static_cast<int>(r[2].type),
              static_cast<int>(trace::InstType::StoreNT));
    EXPECT_EQ(static_cast<int>(r[3].type),
              static_cast<int>(trace::InstType::Fence));
}
