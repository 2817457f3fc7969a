/** @file Validation of the discrete-event simulator against the
 *  analytical model — and of the model's idealizations against the
 *  simulator. */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "amdahl/multicore.hh"
#include "amdahl/pollack.hh"
#include "sim/simulator.hh"

namespace hcm {
namespace sim {
namespace {

Machine
hetMachine(double r, std::size_t tiles, double mu, double phi,
           double bandwidth = 1e18)
{
    Machine m;
    m.name = "het";
    m.serialPerf = model::perfSeq(r);
    m.serialPower = model::powerSeq(r);
    m.tiles = tiles;
    m.tilePerf = mu;
    m.tilePower = phi;
    m.bandwidth = bandwidth;
    return m;
}

TEST(SimulatorTest, SerialOnlyProgram)
{
    Machine m = hetMachine(4.0, 8, 10.0, 0.8);
    SimStats stats = ChipSimulator(m).run(TaskGraph::amdahl(0.0, 1));
    EXPECT_NEAR(stats.totalTime, 1.0 / 2.0, 1e-12); // work 1 at perf 2
    EXPECT_NEAR(stats.energy, 0.5 * model::powerSeq(4.0), 1e-12);
    EXPECT_DOUBLE_EQ(stats.parallelTime, 0.0);
}

TEST(SimulatorTest, MatchesAnalyticHeterogeneousSpeedup)
{
    // Many chunks, ample bandwidth: the model's assumptions hold and
    // simulated speedup converges to Section 3.3's formula.
    double r = 4.0;
    std::size_t tiles = 16;
    double mu = 3.41;
    Machine m = hetMachine(r, tiles, mu, 0.74);
    for (double f : {0.5, 0.9, 0.99}) {
        SimStats stats =
            ChipSimulator(m).run(TaskGraph::amdahl(f, 20000));
        double analytic = model::speedupHeterogeneous(
            f, r + static_cast<double>(tiles), r, mu);
        EXPECT_NEAR(stats.speedup(1.0) / analytic, 1.0, 2e-3)
            << "f=" << f;
    }
}

TEST(SimulatorTest, MatchesAnalyticSymmetricSpeedup)
{
    // Symmetric chip: tiles are sqrt(r)-perf cores (the serial core is
    // one of them; n = tiles * r).
    double r = 4.0;
    std::size_t cores = 16;
    Machine m;
    m.serialPerf = model::perfSeq(r);
    m.serialPower = model::powerSeq(r);
    m.tiles = cores;
    m.tilePerf = model::perfSeq(r);
    m.tilePower = model::powerSeq(r);
    SimStats stats = ChipSimulator(m).run(TaskGraph::amdahl(0.9, 20000));
    double analytic = model::speedupSymmetric(
        0.9, static_cast<double>(cores) * r, r);
    EXPECT_NEAR(stats.speedup(1.0) / analytic, 1.0, 2e-3);
}

TEST(SimulatorTest, BandwidthThrottleCapsParallelRate)
{
    // 16 tiles of mu=10 demand 160 traffic units against a 40-unit
    // pipe: delivered parallel throughput is exactly B.
    Machine m = hetMachine(1.0, 16, 10.0, 1.0, 40.0);
    double f = 0.9;
    SimStats stats = ChipSimulator(m).run(TaskGraph::amdahl(f, 20000));
    double analytic = 1.0 / ((1.0 - f) / 1.0 + f / 40.0);
    EXPECT_NEAR(stats.speedup(1.0) / analytic, 1.0, 2e-3);
    EXPECT_NEAR(stats.peakBandwidthDemand, 160.0, 1e-9);
    EXPECT_NEAR(stats.avgBandwidthUse, 40.0, 0.5);
}

TEST(SimulatorTest, SerialPhaseObeysItsOwnBandwidthBound)
{
    // Core perf 4 against a 2-unit pipe: serial rate halves.
    Machine m = hetMachine(16.0, 4, 1.0, 1.0, 2.0);
    SimStats stats = ChipSimulator(m).run(TaskGraph::amdahl(0.0, 1));
    EXPECT_NEAR(stats.totalTime, 1.0 / 2.0, 1e-12);
}

TEST(SimulatorTest, EnergyMatchesAnalyticModel)
{
    // Tile busy-time is work-conserving, so parallel energy is exactly
    // f * phi / mu even with chunk quantization.
    double r = 4.0, mu = 5.0, phi = 0.6, f = 0.9;
    Machine m = hetMachine(r, 7, mu, phi);
    for (std::size_t chunks : {7u, 10u, 1000u}) {
        SimStats stats =
            ChipSimulator(m).run(TaskGraph::amdahl(f, chunks));
        double expect_serial = (1.0 - f) / model::perfSeq(r) *
                               model::powerSeq(r);
        double expect_parallel = f * phi / mu;
        EXPECT_NEAR(stats.energy, expect_serial + expect_parallel, 1e-9)
            << "chunks=" << chunks;
    }
}

TEST(SimulatorTest, ChunkQuantizationCostsSpeedup)
{
    // The analytical model assumes infinitely divisible work; with
    // chunks = tiles + 1 one straggler serializes a whole extra round.
    Machine m = hetMachine(1.0, 16, 2.0, 1.0);
    SimStats exact = ChipSimulator(m).run(TaskGraph::amdahl(0.99, 16));
    SimStats straggler =
        ChipSimulator(m).run(TaskGraph::amdahl(0.99, 17));
    SimStats fine =
        ChipSimulator(m).run(TaskGraph::amdahl(0.99, 16000));
    EXPECT_LT(straggler.speedup(1.0), exact.speedup(1.0) * 0.7);
    EXPECT_GT(fine.speedup(1.0), straggler.speedup(1.0));
    // chunks == tiles is the best case and matches the analytic value.
    double analytic =
        model::speedupHeterogeneous(0.99, 17.0, 1.0, 2.0);
    EXPECT_NEAR(exact.speedup(1.0) / analytic, 1.0, 1e-9);
}

TEST(SimulatorTest, UtilizationIsBoundedAndHighWhenOversubscribed)
{
    Machine m = hetMachine(1.0, 8, 3.0, 1.0);
    SimStats stats = ChipSimulator(m).run(TaskGraph::amdahl(0.9, 8000));
    double util = stats.tileUtilization(m.tiles);
    EXPECT_GT(util, 0.99);
    EXPECT_LE(util, 1.0 + 1e-9);
}

/** @p rounds (serial, parallel) phase pairs with the aggregate split of
 *  TaskGraph::amdahl(f, rounds * chunks_per_round). */
TaskGraph
alternating(double f, std::size_t rounds, std::size_t chunks_per_round)
{
    std::vector<Phase> phases;
    for (std::size_t i = 0; i < rounds; ++i) {
        phases.push_back({PhaseKind::Serial, (1.0 - f) / rounds, 1, {},
                          "serial-" + std::to_string(i)});
        phases.push_back({PhaseKind::Parallel, f / rounds,
                          chunks_per_round, {},
                          "parallel-" + std::to_string(i)});
    }
    return TaskGraph(std::move(phases));
}

TEST(SimulatorTest, AlternatingProgramMatchesSingleBag)
{
    // With chunk counts that divide the tile count, splitting the same
    // work across 8 (serial, parallel) rounds changes nothing.
    Machine m = hetMachine(4.0, 16, 3.0, 0.7);
    SimStats bag = ChipSimulator(m).run(TaskGraph::amdahl(0.9, 1280));
    SimStats alt = ChipSimulator(m).run(
        alternating(0.9, 8, 160));
    EXPECT_NEAR(alt.speedup(1.0) / bag.speedup(1.0), 1.0, 1e-9);

    // A non-divisible per-round chunk count pays the straggler tax in
    // every round — strictly worse.
    SimStats ragged = ChipSimulator(m).run(
        alternating(0.9, 8, 200));
    EXPECT_LT(ragged.speedup(1.0), alt.speedup(1.0));
}

TEST(SimulatorTest, ChunkAccounting)
{
    Machine m = hetMachine(1.0, 4, 1.0, 1.0);
    SimStats stats = ChipSimulator(m).run(TaskGraph::amdahl(0.5, 37));
    EXPECT_EQ(stats.chunksRun, 37u);
}

TEST(SimulatorTest, StaticAndDynamicAgreeOnBalancedBags)
{
    // Equal chunks, evenly divisible: scheduling discipline is moot.
    Machine m = hetMachine(4.0, 8, 3.0, 0.7);
    TaskGraph g = TaskGraph::amdahl(0.9, 64);
    SimStats dynamic = ChipSimulator(m, Schedule::DynamicGreedy).run(g);
    SimStats fixed = ChipSimulator(m, Schedule::StaticBlock).run(g);
    EXPECT_NEAR(fixed.speedup(1.0) / dynamic.speedup(1.0), 1.0, 1e-9);
}

TEST(SimulatorTest, DynamicSchedulingAbsorbsImbalance)
{
    // A heavily skewed bag: the shared-bag scheduler keeps tiles busy;
    // static blocking strands tiles behind stragglers.
    Machine m = hetMachine(1.0, 16, 2.0, 1.0);
    TaskGraph g = TaskGraph::amdahlImbalanced(0.99, 256, 64.0, 7);
    SimStats dynamic = ChipSimulator(m, Schedule::DynamicGreedy).run(g);
    SimStats fixed = ChipSimulator(m, Schedule::StaticBlock).run(g);
    EXPECT_GT(dynamic.speedup(1.0), 1.1 * fixed.speedup(1.0));
    // Energy is work-conserving for both (same chunks, same tiles).
    EXPECT_NEAR(fixed.energy / dynamic.energy, 1.0, 1e-9);
    // Static strands tiles: lower utilization.
    EXPECT_LT(fixed.tileUtilization(m.tiles),
              dynamic.tileUtilization(m.tiles));
}

TEST(SimulatorTest, ImbalancedBagConservesWorkAndChunks)
{
    TaskGraph g = TaskGraph::amdahlImbalanced(0.8, 100, 16.0, 3);
    double total = 0.0, parallel = 0.0;
    for (const Phase &p : g.phases()) {
        total += p.work;
        if (p.kind == PhaseKind::Parallel)
            parallel += p.work;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_NEAR(parallel, 0.8, 1e-9);
    Machine m = hetMachine(1.0, 4, 1.0, 1.0);
    SimStats stats = ChipSimulator(m).run(g);
    EXPECT_EQ(stats.chunksRun, 100u);
    // Unit skew reduces to equal chunks.
    TaskGraph flat = TaskGraph::amdahlImbalanced(0.8, 100, 1.0, 3);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_NEAR(flat.phases().back().chunkWork(i), 0.008, 1e-12);
}

TEST(SimulatorTest, FineGrainedImbalanceApproachesAnalytic)
{
    // With many skewed chunks, dynamic scheduling recovers the model's
    // perfect-scheduling assumption.
    Machine m = hetMachine(4.0, 16, 3.41, 0.74);
    TaskGraph g = TaskGraph::amdahlImbalanced(0.99, 50000, 32.0, 11);
    SimStats stats = ChipSimulator(m).run(g);
    double analytic =
        model::speedupHeterogeneous(0.99, 20.0, 4.0, 3.41);
    EXPECT_NEAR(stats.speedup(1.0) / analytic, 1.0, 5e-3);
}

TEST(SimulatorDeathTest, ChunkWorksMustBeConsistent)
{
    Phase bad{PhaseKind::Parallel, 1.0, 3, {0.5, 0.5}, "bad"};
    EXPECT_DEATH(TaskGraph({bad}), "match");
    Phase wrong_sum{PhaseKind::Parallel, 1.0, 2, {0.4, 0.4}, "bad"};
    EXPECT_DEATH(TaskGraph({wrong_sum}), "sum");
}

TEST(SimulatorDeathTest, RejectsBadMachines)
{
    Machine m = hetMachine(1.0, 4, 1.0, 1.0);
    m.tilePerf = 0.0;
    EXPECT_DEATH(ChipSimulator{m}, "tile perf");
}

/** Cross-validation against the full analytical pipeline: build the
 *  simulated machine from an optimized design point and compare. */
class DesignCrossValidation
    : public ::testing::TestWithParam<dev::DeviceId>
{
};

TEST_P(DesignCrossValidation, SimulatedWithinQuantizationOfAnalytic)
{
    auto w = wl::Workload::mmm();
    auto org = core::heterogeneous(GetParam(), w);
    ASSERT_TRUE(org);
    core::Budget budget = core::makeBudget(itrs::nodeParams(22.0), w);
    core::DesignPoint design = core::optimize(*org, 0.99, budget);
    ASSERT_TRUE(design.feasible);
    if (design.n - design.r < 1.0)
        GTEST_SKIP() << "design rounds to zero tiles";

    Machine m = Machine::fromDesign(*org, design, budget);
    SimStats stats = ChipSimulator(m).run(TaskGraph::amdahl(0.99, 50000));

    // The simulator's tiles are floor(n - r); recompute the analytic
    // value at that discrete design for an apples-to-apples check.
    double n_discrete = design.r + static_cast<double>(m.tiles);
    double analytic = core::evaluateSpeedup(*org, 0.99, design.r,
                                            n_discrete);
    EXPECT_NEAR(stats.speedup(1.0) / analytic, 1.0, 5e-3)
        << dev::deviceName(GetParam());
    // And the continuous design is an upper bound.
    EXPECT_LE(stats.speedup(1.0), design.speedup * 1.001);
}

INSTANTIATE_TEST_SUITE_P(
    MmmDevices, DesignCrossValidation,
    ::testing::Values(dev::DeviceId::Gtx285, dev::DeviceId::Gtx480,
                      dev::DeviceId::R5870, dev::DeviceId::Lx760,
                      dev::DeviceId::Asic),
    [](const ::testing::TestParamInfo<dev::DeviceId> &info) {
        std::string name = dev::deviceName(info.param);
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
} // namespace sim
} // namespace hcm
