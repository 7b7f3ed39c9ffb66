/**
 * @file
 * Tests for the fan-out substrate: ThreadPool, parallelFor and the
 * SweepRunner -- in particular that parallel sweeps are bit-identical
 * to their serial reference execution.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/sweep.hh"
#include "lens/probers.hh"
#include "nvram/vans_system.hh"
#include "tests/test_util.hh"

using namespace vans;

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
        &pool);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, RunsInlineWithoutPool)
{
    // nullptr selects the shared pool, whose workers may run the
    // iterations concurrently: the counter must be atomic.
    std::atomic<int> calls{0};
    parallelFor(5, [&](std::size_t) { calls.fetch_add(1); }, nullptr);
    EXPECT_EQ(calls.load(), 5);
}

TEST(ParallelFor, PropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        parallelFor(
            16,
            [](std::size_t i) {
                if (i == 7)
                    throw std::runtime_error("boom");
            },
            &pool),
        std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    // A worker submitting more parallel work must not deadlock.
    ThreadPool pool(2);
    std::atomic<int> total{0};
    parallelFor(
        4,
        [&](std::size_t) {
            parallelFor(
                4, [&](std::size_t) { total.fetch_add(1); }, &pool);
        },
        &pool);
    EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, WaitDrainsAllSubmitted)
{
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 64; ++i)
        pool.submit([&done] { done.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(done.load(), 64);
}

namespace
{

/** Sets VANS_THREADS for one scope, then restores the prior value. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv("VANS_THREADS"))
            saved = old;
        setenv("VANS_THREADS", value, 1);
    }
    ~ScopedThreadsEnv()
    {
        if (saved)
            setenv("VANS_THREADS", saved->c_str(), 1);
        else
            unsetenv("VANS_THREADS");
    }

  private:
    std::optional<std::string> saved;
};

} // namespace

TEST(HardwareThreads, HonoursVansThreads)
{
    ScopedThreadsEnv env("3");
    EXPECT_EQ(hardwareThreads(), 3u);
}

TEST(HardwareThreadsDeathTest, RejectsMalformedVansThreads)
{
    for (const char *bad : {"abc", "4x", "", "-2"}) {
        ScopedThreadsEnv env(bad);
        EXPECT_DEATH(hardwareThreads(), "VANS_THREADS.*positive decimal")
            << "VANS_THREADS='" << bad << "'";
    }
}

TEST(SweepRunner, MapPreservesIndexOrder)
{
    SweepRunner par(4);
    auto vals = par.map<std::size_t>(
        100, [](std::size_t i) { return i * i; });
    for (std::size_t i = 0; i < vals.size(); ++i)
        EXPECT_EQ(vals[i], i * i);
}

TEST(SweepRunner, PointSeedsAreStable)
{
    auto a = SweepRunner::pointSeed(42, 7);
    auto b = SweepRunner::pointSeed(42, 7);
    auto c = SweepRunner::pointSeed(42, 8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

namespace
{

/** A small deterministic simulation point: total ticks to stream a
 *  seeded random block pattern through a fresh VANS system. */
std::uint64_t
simPoint(std::size_t i)
{
    EventQueue eq;
    nvram::VansSystem sys(eq, vans::test::smallConfig());
    lens::Driver drv(sys);
    Rng rng(SweepRunner::pointSeed(1234, i));
    for (int n = 0; n < 200; ++n) {
        Addr a = rng.below(1u << 20) & ~static_cast<Addr>(63);
        if (rng.below(2))
            drv.write(a);
        else
            drv.read(a);
    }
    drv.fence();
    return eq.curTick();
}

} // namespace

TEST(SweepRunner, ParallelSimulationMatchesSerial)
{
    SweepRunner serial(1);
    SweepRunner par(4);
    auto ref = serial.map<std::uint64_t>(12, simPoint);
    auto out = par.map<std::uint64_t>(12, simPoint);
    EXPECT_EQ(ref, out);
}

TEST(SweepRunner, FactoryProberMatchesAcrossThreadCounts)
{
    SystemFactory factory = [](EventQueue &eq) {
        return std::make_unique<nvram::VansSystem>(
            eq, vans::test::smallConfig());
    };
    lens::BufferProberParams bp;
    bp.maxRegion = 1ull << 20;
    bp.warmupLines = 600;
    bp.measureLines = 300;

    auto ref = lens::runBufferProber(factory, bp, SweepRunner(1));
    auto out = lens::runBufferProber(factory, bp, SweepRunner(4));

    ASSERT_EQ(ref.loadCurve.size(), out.loadCurve.size());
    for (std::size_t i = 0; i < ref.loadCurve.size(); ++i) {
        EXPECT_EQ(ref.loadCurve[i].x, out.loadCurve[i].x);
        EXPECT_EQ(ref.loadCurve[i].y, out.loadCurve[i].y);
    }
    EXPECT_EQ(ref.readBufferCapacities, out.readBufferCapacities);
    EXPECT_EQ(ref.writeQueueCapacities, out.writeQueueCapacities);
}
