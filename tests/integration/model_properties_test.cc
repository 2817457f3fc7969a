/** @file Randomized cross-cutting consistency checks: the optimizer vs
 *  brute-force search, calibration inversion, simulator agreement, and
 *  budget monotonicity across randomly drawn model instances. */

#include <cmath>
#include <iomanip>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "amdahl/multicore.hh"
#include "core/calibration.hh"
#include "core/optimizer.hh"
#include "sim/simulator.hh"
#include "workloads/generator.hh"

namespace hcm {
namespace core {
namespace {

/** Deterministic per-test RNG. */
wl::Rng &
rng()
{
    static wl::Rng instance(0xfeedbeef);
    return instance;
}

Organization
randomHet()
{
    Organization o;
    o.kind = OrgKind::Heterogeneous;
    o.name = "random-ucore";
    o.ucore.mu = rng().uniform(0.5, 64.0);
    o.ucore.phi = rng().uniform(0.2, 6.0);
    return o;
}

Budget
randomBudget()
{
    return Budget{rng().uniform(8.0, 400.0), rng().uniform(2.0, 80.0),
                  rng().uniform(4.0, 300.0)};
}

TEST(ModelProperties, OptimizerMatchesBruteForce)
{
    // The optimizer's discrete sweep must find the best design a dense
    // r grid finds, for random U-cores, budgets and fractions.
    for (int trial = 0; trial < 60; ++trial) {
        Organization org = randomHet();
        Budget budget = randomBudget();
        double f = rng().uniform(0.1, 0.999);

        DesignPoint dp = optimize(org, f, budget);

        double cap = std::min(16.0, serialRCap(budget, 1.75));
        double best = 0.0;
        for (double r = 1.0; r <= cap; r += 0.01) {
            ParallelBound pb = parallelBound(org, r, budget, 1.75);
            if (pb.n <= r + 1e-9)
                continue;
            best = std::max(best, evaluateSpeedup(org, f, r, pb.n));
        }
        if (best == 0.0) {
            EXPECT_FALSE(dp.feasible) << "trial " << trial;
            continue;
        }
        ASSERT_TRUE(dp.feasible) << "trial " << trial;
        // The integer sweep is within a whisker of the dense grid
        // (speedup varies slowly in r; the paper sweeps integers too).
        // It may slightly *beat* the grid: the optimizer also evaluates
        // the fractional serial-cap point the 0.01 grid can miss.
        EXPECT_GE(dp.speedup, best * 0.995)
            << "trial " << trial << " mu=" << org.ucore.mu
            << " phi=" << org.ucore.phi << " f=" << f;
        EXPECT_LE(dp.speedup, best * 1.01);
        // Self-consistency: the reported design reproduces its speedup.
        EXPECT_NEAR(evaluateSpeedup(org, f, dp.r, dp.n) / dp.speedup,
                    1.0, 1e-12);
    }
}

TEST(ModelProperties, ContinuousRefinementClosesTheGrid)
{
    for (int trial = 0; trial < 30; ++trial) {
        Organization org = randomHet();
        Budget budget = randomBudget();
        double f = rng().uniform(0.5, 0.999);
        OptimizerOptions opts;
        opts.continuousR = true;
        DesignPoint dp = optimize(org, f, budget, opts);
        if (!dp.feasible)
            continue;
        double cap = std::min(16.0, serialRCap(budget, 1.75));
        for (double r = 1.0; r <= cap; r += 0.005) {
            ParallelBound pb = parallelBound(org, r, budget, 1.75);
            if (pb.n <= r + 1e-9)
                continue;
            EXPECT_GE(dp.speedup + 1e-6,
                      evaluateSpeedup(org, f, r, pb.n))
                << "trial " << trial << " r=" << r;
        }
    }
}

TEST(ModelProperties, CalibrationInversionRoundTrips)
{
    // Synthesize a measurement from random (mu, phi) by inverting the
    // Section 5.1 formulas, then re-derive: must recover exactly.
    const BceCalibration &calib = BceCalibration::standard();
    const dev::MeasurementDb &db = dev::MeasurementDb::instance();
    auto w = wl::Workload::mmm();
    const dev::Measurement &i7 = db.get(dev::DeviceId::CoreI7, w);
    double x_i7 = i7.perfPerMm2();
    double e_i7 = i7.perfPerWatt().value();

    for (int trial = 0; trial < 100; ++trial) {
        double mu = rng().uniform(0.2, 800.0);
        double phi = rng().uniform(0.05, 8.0);

        double x_u = mu * x_i7 * std::sqrt(2.0);
        double e_u = mu * e_i7 / (std::pow(2.0, -0.375) * phi);
        double area = rng().uniform(1.0, 400.0);

        dev::Measurement m{dev::DeviceId::Asic, w,
                           Perf(x_u * area), Area(area),
                           Power(x_u * area / e_u)};
        UCoreParams p = calib.deriveUCore(m);
        EXPECT_NEAR(p.mu / mu, 1.0, 1e-9) << "trial " << trial;
        EXPECT_NEAR(p.phi / phi, 1.0, 1e-9) << "trial " << trial;
    }
}

TEST(ModelProperties, SimulatorAgreesOnRandomMachines)
{
    for (int trial = 0; trial < 20; ++trial) {
        double r = 1.0 + std::floor(rng().uniform(0.0, 9.0));
        std::size_t tiles =
            4 + static_cast<std::size_t>(rng().next() % 60);
        double mu = rng().uniform(0.5, 16.0);
        double phi = rng().uniform(0.2, 2.0);
        double f = rng().uniform(0.3, 0.995);

        sim::Machine m;
        m.serialPerf = model::perfSeq(r);
        m.serialPower = model::powerSeq(r);
        m.tiles = tiles;
        m.tilePerf = mu;
        m.tilePower = phi;

        sim::SimStats stats = sim::ChipSimulator(m).run(
            sim::TaskGraph::amdahl(f, tiles * 512));
        double analytic = model::speedupHeterogeneous(
            f, r + static_cast<double>(tiles), r, mu);
        EXPECT_NEAR(stats.speedup(1.0) / analytic, 1.0, 5e-3)
            << "trial " << trial << " tiles=" << tiles << " f=" << f;
        // Energy agrees exactly (work-conserving busy time).
        double expect_energy =
            (1.0 - f) / model::perfSeq(r) * model::powerSeq(r) +
            f * phi / mu;
        EXPECT_NEAR(stats.energy / expect_energy, 1.0, 1e-9);
    }
}

TEST(ModelProperties, LimitersShiftMonotonicallyWithBudgetsAtFixedR)
{
    // At a fixed sequential core size, growing only the bandwidth
    // budget moves the binding constraint from bandwidth to power/area
    // and never back (the bandwidth bound rises strictly while the
    // others stay put). Note this holds only at fixed r — the
    // optimizer's re-chosen r can legitimately flip classifications.
    for (int trial = 0; trial < 40; ++trial) {
        Organization org = randomHet();
        Budget b = randomBudget();
        double r = 1.0 + std::floor(rng().uniform(0.0, 12.0));
        bool seen_non_bw = false;
        double prev_n = 0.0;
        for (double scale = 0.25; scale <= 64.0; scale *= 2.0) {
            Budget scaled = b;
            scaled.bandwidth = b.bandwidth * scale;
            ParallelBound pb = parallelBound(org, r, scaled, 1.75);
            EXPECT_GE(pb.n, prev_n - 1e-12) << "n shrank, trial "
                                            << trial;
            prev_n = pb.n;
            if (pb.limiter != Limiter::Bandwidth)
                seen_non_bw = true;
            else
                EXPECT_FALSE(seen_non_bw)
                    << "bandwidth-limited after escaping it, trial "
                    << trial << " scale " << scale;
        }
    }
}

TEST(ModelProperties, OptimalSpeedupNeverFallsAsAreaGrows)
{
    // Area does not enter serialRCap, so the r grid stays fixed while A
    // grows; every candidate's n = min(A, rows) can only grow, and so
    // can the best speedup. Continuous refinement may move the answer
    // by its golden-section tolerance, hence the 1e-9 relative slack.
    // (The same law does not hold for P: the fractional grid point at
    // the serial cap moves as P grows; see EXPERIMENTS.md.)
    const unsigned seed = 0xa2ea;
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    const double kInf = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < 4000; ++trial) {
        Organization org;
        switch (trial % 4) {
          case 0:
            org = symmetricCmp();
            break;
          case 1:
            org = asymmetricCmp();
            break;
          case 2:
            org.kind = OrgKind::Heterogeneous;
            org.name = "random-ucore";
            org.ucore = UCoreParams{0.25 + 64.0 * u01(gen),
                                    0.05 + 2.0 * u01(gen)};
            org.bandwidthExempt = u01(gen) < 0.2;
            break;
          default:
            org = dynamicCmp();
            break;
        }
        double f = u01(gen);
        Budget b{1.0 + 40.0 * u01(gen), 0.5 + 200.0 * u01(gen),
                 0.5 + 300.0 * u01(gen),
                 u01(gen) < 0.5 ? 1.0 + 150.0 * u01(gen) : kInf};
        OptimizerOptions opts;
        opts.continuousR = trial % 8 < 4;
        opts.alpha = 1.5 + u01(gen);

        double prev = 0.0;
        for (int step = 0; step < 6; ++step) {
            DesignPoint dp = optimize(org, f, b, opts);
            double speedup = dp.feasible ? dp.speedup : 0.0;
            EXPECT_GE(speedup, prev * (1.0 - 1e-9))
                << std::setprecision(17) << "seed=" << seed
                << " trial=" << trial << " step=" << step << " "
                << org.name << " mu=" << org.ucore.mu
                << " phi=" << org.ucore.phi << " f=" << f
                << " A=" << b.area << " P=" << b.power
                << " B=" << b.bandwidth << " TH=" << b.thermal
                << " alpha=" << opts.alpha
                << " continuousR=" << opts.continuousR;
            prev = speedup;
            b.area *= 1.0 + 0.5 * u01(gen);
        }
    }
}

} // namespace
} // namespace core
} // namespace hcm
