/**
 * @file
 * Tests for the DDR4 DRAM model: timing presets, address mapping,
 * controller behaviour, and the protocol checker (including
 * property-style sweeps that run random traffic through the
 * controller and assert the resulting command stream is legal --
 * this repo's substitute for the Micron verification model flow of
 * paper section IV-B).
 */

#include <gtest/gtest.h>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/address_map.hh"
#include "dram/checker.hh"
#include "dram/controller.hh"

using namespace vans;
using namespace vans::dram;

namespace
{

/** Run @p n accesses and return (controller, violations). */
std::vector<Violation>
runAndCheck(const DramTiming &timing, SchedPolicy policy,
            unsigned accesses, double write_frac,
            std::uint64_t addr_space, std::uint64_t seed,
            std::uint32_t size = 64)
{
    EventQueue eq;
    DramGeometry geom;
    geom.capacityBytes = 1ull << 30;
    DramController ctrl(eq, timing, geom, policy,
                        MapScheme::RowBankCol, "dut");
    ctrl.trace().setEnabled(true);

    Rng rng(seed);
    unsigned done = 0;
    for (unsigned i = 0; i < accesses; ++i) {
        Addr a = rng.below(addr_space / 64) * 64;
        bool w = rng.uniform() < write_frac;
        ctrl.access(a, w, size, [&done](Tick) { ++done; });
    }
    // Drain: run until all accesses completed.
    while (done < accesses) {
        if (!eq.step())
            break;
    }
    EXPECT_EQ(done, accesses);

    Ddr4Checker checker(timing, geom);
    return checker.check(ctrl.trace().commands());
}

} // namespace

TEST(DramTiming, PresetsAreConsistent)
{
    auto t4 = DramTiming::ddr4_2666();
    EXPECT_EQ(t4.tCL, 19u);
    EXPECT_EQ(t4.tRAS, 43u);
    EXPECT_GE(t4.tRC, t4.tRAS + t4.tRP - 1);
    // One cycle at 1333MHz is ~750ps.
    EXPECT_NEAR(static_cast<double>(t4.cyc(1)), 750.0, 1.0);

    auto t3 = DramTiming::ddr3_1600();
    EXPECT_LT(t3.clockMhz, t4.clockMhz);

    auto pcm = DramTiming::pcmLike();
    EXPECT_GT(pcm.tRCD, t4.tRCD * 3);
    EXPECT_GT(pcm.tWR, t4.tWR * 10);
    EXPECT_EQ(pcm.tREFI, 0u); // Non-volatile: no refresh.
}

TEST(AddressMap, CoordinatesInRange)
{
    DramGeometry geom;
    geom.capacityBytes = 1ull << 30;
    AddressMap map(geom, MapScheme::RowBankCol);
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        Addr a = rng.below(geom.capacityBytes);
        auto c = map.decode(a);
        EXPECT_LT(c.rank, geom.ranks);
        EXPECT_LT(c.bankGroup, geom.bankGroups);
        EXPECT_LT(c.bank, geom.banksPerGroup);
        EXPECT_LT(c.row, geom.rowsPerBank());
        EXPECT_LT(c.column, geom.rowBytes / cacheLineSize);
    }
}

TEST(AddressMap, RowBankColKeepsRowLocality)
{
    DramGeometry geom;
    AddressMap map(geom, MapScheme::RowBankCol);
    // Consecutive lines within a row-sized block share bank and row.
    auto c0 = map.decode(0);
    for (Addr a = 64; a < geom.rowBytes; a += 64) {
        auto c = map.decode(a);
        EXPECT_TRUE(c.sameBank(c0));
        EXPECT_EQ(c.row, c0.row);
    }
}

TEST(AddressMap, BankStripeSpreadsChunks)
{
    DramGeometry geom;
    AddressMap map(geom, MapScheme::BankStripe);
    // 256B-aligned chunks land on different banks.
    auto c0 = map.decode(0);
    auto c1 = map.decode(256);
    EXPECT_FALSE(c0.sameBank(c1));
}

TEST(AddressMap, DistinctAddressesDistinctCoords)
{
    DramGeometry geom;
    AddressMap map(geom, MapScheme::RowBankCol);
    auto a = map.decode(0);
    auto b = map.decode(64);
    bool same = a.sameBank(b) && a.row == b.row &&
                a.column == b.column;
    EXPECT_FALSE(same);
}

TEST(DramController, SingleReadLatencyIsActToData)
{
    EventQueue eq;
    auto timing = DramTiming::ddr4_2666();
    DramGeometry geom;
    DramController ctrl(eq, timing, geom);
    Tick done_at = 0;
    ctrl.access(0, false, 64, [&done_at](Tick t) { done_at = t; });
    while (done_at == 0 && eq.step()) {
    }
    // Cold access: ACT + tRCD + tCL + burst, plus scheduling quanta.
    Tick floor = timing.cyc(timing.tRCD + timing.tCL) +
                 timing.burstTicks();
    EXPECT_GE(done_at, floor);
    EXPECT_LE(done_at, floor + timing.cyc(8));
}

TEST(DramController, RowHitFasterThanRowMiss)
{
    EventQueue eq;
    auto timing = DramTiming::ddr4_2666();
    DramGeometry geom;
    DramController ctrl(eq, timing, geom);

    Tick first = 0, hit = 0;
    ctrl.access(0, false, 64, [&](Tick t) { first = t; });
    while (first == 0 && eq.step()) {
    }
    Tick t0 = eq.curTick();
    ctrl.access(64, false, 64, [&](Tick t) { hit = t; });
    while (hit == 0 && eq.step()) {
    }
    Tick hit_latency = hit - t0;
    // Row hit skips ACT: latency ~ tCL + burst.
    EXPECT_LT(hit_latency, timing.cyc(timing.tRCD + timing.tCL));
    EXPECT_EQ(ctrl.stats().scalarValue("row_hits"), 1u);
}

TEST(DramController, LargeAccessCompletesOnce)
{
    EventQueue eq;
    DramGeometry geom;
    DramController ctrl(eq, DramTiming::ddr4_2666(), geom);
    int completions = 0;
    ctrl.access(0, true, 4096, [&](Tick) { ++completions; });
    while (eq.step() && completions == 0) {
    }
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(ctrl.stats().scalarValue("cmd_wr"), 64u);
}

TEST(DramController, RefreshHappens)
{
    EventQueue eq;
    auto timing = DramTiming::ddr4_2666();
    DramGeometry geom;
    DramController ctrl(eq, timing, geom);
    ctrl.trace().setEnabled(true);
    int done = 0;
    ctrl.access(0, false, 64, [&](Tick) { ++done; });
    // Run past several refresh intervals.
    eq.runUntil(timing.cyc(timing.tREFI) * 4);
    EXPECT_GE(ctrl.stats().scalarValue("cmd_ref"), 3u);
}

TEST(DramController, FrfcfsBeatsFcfsOnMixedRows)
{
    // Interleave row-hit and row-miss traffic; FR-FCFS should finish
    // sooner by reordering hits first.
    auto run = [](SchedPolicy pol) {
        EventQueue eq;
        DramGeometry geom;
        DramController ctrl(eq, DramTiming::ddr4_2666(), geom, pol);
        unsigned done = 0;
        Rng rng(5);
        for (int i = 0; i < 64; ++i) {
            // Alternate same-row and far-row accesses.
            Addr a = (i % 2) ? (static_cast<Addr>(i) * 64)
                             : rng.below(1u << 28);
            ctrl.access(alignDown(a, 64), false, 64,
                        [&done](Tick) { ++done; });
        }
        while (done < 64 && eq.step()) {
        }
        return eq.curTick();
    };
    EXPECT_LE(run(SchedPolicy::FRFCFS), run(SchedPolicy::FCFS));
}

// ---- Protocol checker: positive property sweeps -------------------

struct CheckerSweepParam
{
    const char *name;
    double writeFrac;
    std::uint64_t addrSpace;
    std::uint32_t size;
};

// Without this, gtest prints the parameter as raw bytes, which include
// the address of `name` and so change from build to build; CTest names
// discovered from that listing would then be unstable.
void
PrintTo(const CheckerSweepParam &p, std::ostream *os)
{
    *os << p.name;
}

class CheckerSweep
    : public ::testing::TestWithParam<CheckerSweepParam>
{};

TEST_P(CheckerSweep, ControllerEmitsLegalDdr4)
{
    const auto &p = GetParam();
    auto v = runAndCheck(DramTiming::ddr4_2666(), SchedPolicy::FRFCFS,
                         400, p.writeFrac, p.addrSpace, 11, p.size);
    for (const auto &viol : v) {
        ADD_FAILURE() << p.name << ": " << viol.rule << " at cmd "
                      << viol.cmdIndex << ": " << viol.detail;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Traffic, CheckerSweep,
    ::testing::Values(
        CheckerSweepParam{"read_seq", 0.0, 1 << 16, 64},
        CheckerSweepParam{"read_rand", 0.0, 1u << 28, 64},
        CheckerSweepParam{"write_rand", 1.0, 1u << 28, 64},
        CheckerSweepParam{"mixed_rand", 0.5, 1u << 28, 64},
        CheckerSweepParam{"mixed_hot", 0.5, 1 << 14, 64},
        CheckerSweepParam{"bulk_256B", 0.5, 1u << 26, 256},
        CheckerSweepParam{"bulk_4K", 0.3, 1u << 26, 4096}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(CheckerSweepFcfs, LegalUnderFcfsToo)
{
    auto v = runAndCheck(DramTiming::ddr4_2666(), SchedPolicy::FCFS,
                         300, 0.5, 1u << 26, 13);
    EXPECT_TRUE(v.empty());
}

TEST(CheckerSweepDdr3, LegalWithDdr3Timing)
{
    auto v = runAndCheck(DramTiming::ddr3_1600(), SchedPolicy::FRFCFS,
                         300, 0.5, 1u << 26, 17);
    EXPECT_TRUE(v.empty());
}

TEST(CheckerSweepPcm, LegalWithPcmTiming)
{
    auto v = runAndCheck(DramTiming::pcmLike(), SchedPolicy::FRFCFS,
                         300, 0.5, 1u << 26, 19);
    EXPECT_TRUE(v.empty());
}

// ---- Protocol checker: negative tests (it must catch bugs) --------

TEST(Checker, CatchesActOnOpenBank)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(100), DramCmd::ACT, 0, 0, 0, 2, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "ACT-on-open");
}

TEST(Checker, CatchesTrcdViolation)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(2), DramCmd::RD, 0, 0, 0, 1, 0}, // Way too early.
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "tRCD");
}

TEST(Checker, CatchesCasOnClosedBank)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::RD, 0, 0, 0, 1, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "CAS-on-closed");
}

TEST(Checker, CatchesRowMismatch)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(30), DramCmd::RD, 0, 0, 0, 7, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "CAS-row-mismatch");
}

TEST(Checker, CatchesEarlyPrecharge)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(5), DramCmd::PRE, 0, 0, 0, 1, 0}, // tRAS violated.
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "tRAS");
}

TEST(Checker, CatchesTwrViolation)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(30), DramCmd::WR, 0, 0, 0, 1, 0},
        // PRE after tRAS but within write recovery of the WR above.
        {t.cyc(50), DramCmd::PRE, 0, 0, 0, 1, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "tWR");
}

TEST(Checker, CatchesCcdViolation)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(25), DramCmd::RD, 0, 0, 0, 1, 0},
        {t.cyc(26), DramCmd::RD, 0, 0, 0, 1, 0}, // tCCD_L violated.
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "tCCD_L");
}

TEST(Checker, CatchesRefreshOnOpenBank)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {0, DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(100), DramCmd::REF, 0, 0, 0, 0, 0},
    };
    auto v = checker.check(cmds);
    ASSERT_FALSE(v.empty());
    EXPECT_EQ(v[0].rule, "REF-open-bank");
}

TEST(Checker, CatchesFawViolation)
{
    auto t = DramTiming::ddr4_2666();
    t.tFAW = 40; // Make the window binding over 4 x tRRD_L spacing.
    DramGeometry g;
    Ddr4Checker checker(t, g);
    // Five ACTs to different banks, far enough apart for tRRD but
    // all within one tFAW window.
    std::vector<DramCommand> cmds;
    for (unsigned i = 0; i < 5; ++i) {
        cmds.push_back({t.cyc(i * t.tRRD_L), DramCmd::ACT, 0, i / 4,
                        i % 4, 1, 0});
    }
    auto v = checker.check(cmds);
    bool found = false;
    for (const auto &viol : v)
        found = found || viol.rule == "tFAW";
    EXPECT_TRUE(found);
}

TEST(Checker, CleanStreamPasses)
{
    auto t = DramTiming::ddr4_2666();
    DramGeometry g;
    Ddr4Checker checker(t, g);
    std::vector<DramCommand> cmds = {
        {t.cyc(10), DramCmd::ACT, 0, 0, 0, 1, 0},
        {t.cyc(10 + t.tRCD), DramCmd::RD, 0, 0, 0, 1, 0},
        {t.cyc(10 + t.tRCD + t.tRTP + t.tRAS), DramCmd::PRE, 0, 0, 0,
         1, 0},
        {t.cyc(200), DramCmd::ACT, 0, 0, 0, 2, 0},
    };
    auto v = checker.check(cmds);
    EXPECT_TRUE(v.empty());
}

// ---- Lockstep pin: exact command stream and completion ticks ------
//
// Each case hashes every emitted DramCommand (tick, kind, coordinates),
// every access's completion tick and the command/row counters. The
// hashes were recorded from the per-cycle polling scheduler; any
// scheduler rewrite must reproduce them bit for bit.

namespace
{

/** FNV-1a over little-endian 64-bit words. */
struct StreamHash
{
    std::uint64_t h = 1469598103934665603ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

/** Controller under test plus the completion log it feeds. */
struct PinnedRun
{
    EventQueue eq;
    DramGeometry geom;
    DramController ctrl;
    std::vector<std::pair<std::uint64_t, Tick>> completions;
    std::uint64_t issued = 0;

    PinnedRun(const DramTiming &timing, SchedPolicy policy)
        : geom(makeGeom()),
          ctrl(eq, timing, geom, policy, MapScheme::RowBankCol, "pin")
    {
        ctrl.trace().setEnabled(true);
    }

    static DramGeometry
    makeGeom()
    {
        DramGeometry g;
        g.capacityBytes = 1ull << 30;
        return g;
    }

    void
    access(Addr a, bool write, std::uint32_t size)
    {
        std::uint64_t id = issued++;
        ctrl.access(a, write, size, [this, id](Tick t) {
            completions.emplace_back(id, t);
        });
    }

    std::uint64_t
    hash()
    {
        StreamHash s;
        const auto &cmds = ctrl.trace().commands();
        s.add(cmds.size());
        for (const DramCommand &c : cmds) {
            s.add(c.tick);
            s.add(static_cast<std::uint64_t>(c.cmd));
            s.add(c.rank);
            s.add(c.bankGroup);
            s.add(c.bank);
            s.add(c.row);
            s.add(c.column);
        }
        s.add(completions.size());
        for (const auto &[id, t] : completions) {
            s.add(id);
            s.add(t);
        }
        for (const char *stat :
             {"row_hits", "row_conflicts", "row_misses", "cmd_act",
              "cmd_pre", "cmd_rd", "cmd_wr", "cmd_ref"})
            s.add(ctrl.statsConst().scalarValue(stat));
        return s.h;
    }
};

/** The runAndCheck traffic: every access enqueued at tick 0. */
std::uint64_t
sweepHash(const DramTiming &timing, SchedPolicy policy,
          unsigned accesses, double write_frac,
          std::uint64_t addr_space, std::uint64_t seed,
          std::uint32_t size)
{
    PinnedRun run(timing, policy);
    Rng rng(seed);
    for (unsigned i = 0; i < accesses; ++i) {
        Addr a = rng.below(addr_space / 64) * 64;
        bool w = rng.uniform() < write_frac;
        run.access(a, w, size);
    }
    while (run.completions.size() < accesses && run.eq.step()) {
    }
    EXPECT_EQ(run.completions.size(), accesses);
    return run.hash();
}

/**
 * Bursty open- and closed-loop traffic over at least three refresh
 * intervals: bursts of mixed reads and writes arrive on clock edges
 * (so arrivals land on the same tick as scheduler wakeups), some
 * read completions chain a dependent access from inside the data
 * event, and idle gaps of up to several microseconds separate the
 * bursts.
 */
std::uint64_t
longRunHash(const DramTiming &timing, SchedPolicy policy,
            std::uint64_t seed)
{
    PinnedRun run(timing, policy);
    Rng plan(seed);
    Rng chained(seed ^ 0x5a5a5a5aull);
    Tick tck = timing.period();
    Tick refi = DramTiming::ddr4_2666().cyc(
        DramTiming::ddr4_2666().tREFI);
    Tick horizon = 3 * refi + refi / 2;

    auto draw = [](Rng &rng, Addr &a, bool &w, std::uint32_t &size) {
        // Hot rows give row hits; the far range gives conflicts.
        a = rng.uniform() < 0.5 ? rng.below(1u << 14) * 64
                                : rng.below(1u << 22) * 64;
        w = rng.uniform() < 0.4;
        static constexpr std::uint32_t sizes[] = {64, 64, 128, 256};
        size = sizes[rng.below(4)];
    };

    Tick t = 0;
    while (t < horizon) {
        unsigned n = 4 + static_cast<unsigned>(plan.below(40));
        for (unsigned i = 0; i < n; ++i) {
            Tick at = t + plan.below(96) * tck;
            Addr a;
            bool w;
            std::uint32_t size;
            draw(plan, a, w, size);
            bool chain = !w && plan.uniform() < 0.3;
            run.eq.schedule(at, [&run, &chained, &draw, a, w, size,
                                 chain] {
                std::uint64_t id = run.issued++;
                run.ctrl.access(a, w, size, [&run, &chained, &draw,
                                             id, chain](Tick done) {
                    run.completions.emplace_back(id, done);
                    if (!chain)
                        return;
                    Addr a2;
                    bool w2;
                    std::uint32_t size2;
                    draw(chained, a2, w2, size2);
                    run.access(a2, w2, size2);
                });
            });
        }
        // Idle gap: from back-to-back to several microseconds.
        t += (96 + plan.below(3000)) * tck;
    }
    run.eq.runUntil(horizon + refi);
    EXPECT_EQ(run.completions.size(), run.issued);
    EXPECT_GE(run.ctrl.statsConst().scalarValue("cmd_ref"),
              timing.tREFI ? 3u : 0u);
    return run.hash();
}

struct PinParam
{
    const char *name;
    std::uint64_t (*run)();
    std::uint64_t expected;
};

void
PrintTo(const PinParam &p, std::ostream *os)
{
    *os << p.name;
}

class DramStreamPin : public ::testing::TestWithParam<PinParam>
{};

TEST_P(DramStreamPin, MatchesRecordedStream)
{
    const auto &p = GetParam();
    std::uint64_t got = p.run();
    EXPECT_EQ(got, p.expected)
        << p.name << ": command stream hash 0x" << std::hex << got;
}

std::uint64_t
sweep(double write_frac, std::uint64_t addr_space, std::uint32_t size)
{
    return sweepHash(DramTiming::ddr4_2666(), SchedPolicy::FRFCFS, 400,
                     write_frac, addr_space, 11, size);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, DramStreamPin,
    ::testing::Values(
        PinParam{"read_seq", [] { return sweep(0.0, 1 << 16, 64); },
                 0x11a47bd38e80ef08ull},
        PinParam{"read_rand", [] { return sweep(0.0, 1u << 28, 64); },
                 0x41a9991a6ee4d579ull},
        PinParam{"write_rand", [] { return sweep(1.0, 1u << 28, 64); },
                 0xd45ace788f10016bull},
        PinParam{"mixed_rand", [] { return sweep(0.5, 1u << 28, 64); },
                 0xd5d82275568fa131ull},
        PinParam{"mixed_hot", [] { return sweep(0.5, 1 << 14, 64); },
                 0xa7534fa39bac5e0full},
        PinParam{"bulk_256B", [] { return sweep(0.5, 1u << 26, 256); },
                 0x7256f0eeef5b607aull},
        PinParam{"bulk_4K", [] { return sweep(0.3, 1u << 26, 4096); },
                 0x0984b63e7e2e3788ull},
        PinParam{"fcfs",
                 [] {
                     return sweepHash(DramTiming::ddr4_2666(),
                                      SchedPolicy::FCFS, 300, 0.5,
                                      1u << 26, 13, 64);
                 },
                 0xde4782b86217e23full},
        PinParam{"ddr3",
                 [] {
                     return sweepHash(DramTiming::ddr3_1600(),
                                      SchedPolicy::FRFCFS, 300, 0.5,
                                      1u << 26, 17, 64);
                 },
                 0x3b387ac7999b622bull},
        PinParam{"long_frfcfs",
                 [] {
                     return longRunHash(DramTiming::ddr4_2666(),
                                        SchedPolicy::FRFCFS, 23);
                 },
                 0xa0a600f3b7e010cdull},
        PinParam{"long_fcfs",
                 [] {
                     return longRunHash(DramTiming::ddr4_2666(),
                                        SchedPolicy::FCFS, 29);
                 },
                 0x4c8102780ff59ac2ull},
        PinParam{"long_ddr3",
                 [] {
                     return longRunHash(DramTiming::ddr3_1600(),
                                        SchedPolicy::FRFCFS, 31);
                 },
                 0x485edfacdf851581ull},
        PinParam{"long_pcm_norefresh",
                 [] {
                     return longRunHash(DramTiming::pcmLike(),
                                        SchedPolicy::FRFCFS, 37);
                 },
                 0x6ce677fe141f760bull}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
