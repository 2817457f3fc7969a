/** @file Tests for the perf-event counter group. The real syscall
 *  path only runs where the host grants perf events, so the hard
 *  invariants here are the ones that hold everywhere: simulated open
 *  failures (the deterministic stand-ins for paranoid kernels and
 *  sealed containers) must degrade exactly like real ones, samples
 *  must never present fabricated counts, and delta arithmetic must
 *  intersect presence flags. The counter-sanity test self-skips on
 *  hosts without counters rather than asserting on zeros. */

#include <cerrno>
#include <cstdint>

#include <gtest/gtest.h>

#include "hwc/perf_counters.hh"

namespace hcm {
namespace hwc {
namespace {

CounterSample
sample(std::uint64_t ins, std::uint64_t cyc)
{
    CounterSample s;
    s.available = true;
    s.instructions = ins;
    s.cycles = cyc;
    return s;
}

TEST(CounterSampleTest, RatiosAreZeroWhenUnavailable)
{
    CounterSample s;
    s.instructions = 1000; // meaningless without available
    s.cycles = 500;
    EXPECT_DOUBLE_EQ(s.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(s.llcMissRate(), 0.0);
    EXPECT_DOUBLE_EQ(s.branchMissRate(), 0.0);
}

TEST(CounterSampleTest, RatiosComputeFromPresentFields)
{
    CounterSample s = sample(3000, 1500);
    EXPECT_DOUBLE_EQ(s.ipc(), 2.0);
    s.hasLlc = true;
    s.llcLoads = 100;
    s.llcMisses = 25;
    EXPECT_DOUBLE_EQ(s.llcMissRate(), 0.25);
    s.hasBranches = true;
    s.branches = 200;
    s.branchMisses = 10;
    EXPECT_DOUBLE_EQ(s.branchMissRate(), 0.05);
}

TEST(CounterSampleTest, DeltaSubtractsFieldwise)
{
    CounterSample start = sample(1000, 400);
    start.hasLlc = true;
    start.llcLoads = 10;
    start.llcMisses = 2;
    CounterSample end = sample(5000, 2400);
    end.hasLlc = true;
    end.llcLoads = 110;
    end.llcMisses = 27;
    CounterSample d = end.deltaSince(start);
    EXPECT_TRUE(d.available);
    EXPECT_EQ(d.instructions, 4000u);
    EXPECT_EQ(d.cycles, 2000u);
    EXPECT_TRUE(d.hasLlc);
    EXPECT_EQ(d.llcLoads, 100u);
    EXPECT_EQ(d.llcMisses, 25u);
}

TEST(CounterSampleTest, DeltaIntersectsPresenceFlags)
{
    // One endpoint unavailable poisons the delta; a one-sided LLC
    // pair drops the LLC fields rather than inventing a difference.
    CounterSample start = sample(1000, 400);
    CounterSample end = sample(5000, 2400);
    end.hasLlc = true;
    end.llcLoads = 50;
    CounterSample d = end.deltaSince(start);
    EXPECT_TRUE(d.available);
    EXPECT_FALSE(d.hasLlc);

    start.available = false;
    d = end.deltaSince(start);
    EXPECT_FALSE(d.available);
}

TEST(PerfCounterGroupTest, SimulatedPermissionFailureDegrades)
{
    PerfCounterGroup::Config config;
    config.simulateOpenErrno = EACCES;
    PerfCounterGroup group(config);
    EXPECT_FALSE(group.open());
    EXPECT_FALSE(group.available());
    EXPECT_FALSE(group.unavailableReason().empty());
    // Failed groups answer reads forever, always unavailable.
    CounterSample s = group.read();
    EXPECT_FALSE(s.available);
    EXPECT_EQ(s.instructions, 0u);
    // Re-opening does not retry (availability is a stable fact).
    EXPECT_FALSE(group.open());
}

TEST(PerfCounterGroupTest, SimulatedUnsupportedEventNamesTheErrno)
{
    PerfCounterGroup::Config config;
    config.simulateOpenErrno = ENOENT;
    PerfCounterGroup group(config);
    EXPECT_FALSE(group.open());
#ifdef __linux__
    // The reason carries the errno text and the paranoid level the
    // operator needs to fix it.
    EXPECT_NE(group.unavailableReason().find("perf_event_open"),
              std::string::npos)
        << group.unavailableReason();
    EXPECT_NE(group.unavailableReason().find("perf_event_paranoid"),
              std::string::npos)
        << group.unavailableReason();
#endif
}

TEST(PerfCounterGroupTest, ParanoidLevelReadsWhenProcExists)
{
    auto level = perfEventParanoid();
    if (!level.has_value())
        GTEST_SKIP() << "no /proc/sys/kernel/perf_event_paranoid";
    EXPECT_GE(*level, -1);
    EXPECT_LE(*level, 4);
}

TEST(PerfCounterGroupTest, ProbeIsStableAcrossCalls)
{
    Availability first = counterAvailability();
    Availability second = counterAvailability();
    EXPECT_EQ(first.available, second.available);
    EXPECT_EQ(first.reason, second.reason);
    EXPECT_EQ(first.perfEventParanoid, second.perfEventParanoid);
    // An unavailable host always says why.
    if (!first.available) {
        EXPECT_FALSE(first.reason.empty());
    }
}

TEST(PerfCounterGroupTest, CountedLoopRetiresAtLeastItsTripCount)
{
    PerfCounterGroup group;
    if (!group.open())
        GTEST_SKIP() << "hardware counters unavailable: "
                     << group.unavailableReason();
    CounterSample before = group.read();
    std::uint64_t acc = 1;
    constexpr std::uint64_t kTrips = 1u << 20;
    for (std::uint64_t i = 0; i < kTrips; ++i) {
        acc = acc * 2654435761u + i;
        asm volatile("" : "+r"(acc)); // defeat loop elision
    }
    CounterSample delta = group.read().deltaSince(before);
    ASSERT_TRUE(delta.available);
    // The loop body retires >= 1 instruction per trip however the
    // compiler schedules it.
    EXPECT_GE(delta.instructions, kTrips);
    EXPECT_GT(delta.cycles, 0u);
    EXPECT_GT(delta.ipc(), 0.0);
}

} // namespace
} // namespace hwc
} // namespace hcm
