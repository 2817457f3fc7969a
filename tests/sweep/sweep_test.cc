/** @file Tests for the parallel design-space sweep engine. */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/optimizer_batch.hh"
#include "obs/metrics.hh"
#include "sweep/export.hh"
#include "sweep/sweep.hh"

namespace hcm {
namespace sweep {
namespace {

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.workloads = {wl::Workload::mmm(), wl::Workload::fft(1024)};
    spec.fractions = {0.5, 0.99};
    spec.scenarios = {core::baselineScenario(),
                      core::scenarioByName("power-10w")};
    return spec;
}

std::string
toCsv(const SweepResult &result)
{
    std::ostringstream out;
    writeSweepCsv(out, result);
    return out.str();
}

TEST(SweepTest, CountsUnitsAsWorkloadOrgCrossProduct)
{
    SweepSpec spec = smallSpec();
    std::size_t orgs = 0;
    for (const wl::Workload &w : spec.workloads)
        orgs += core::paperOrganizations(w, spec.calib).size();
    SweepResult result = runSweep(spec, {});
    EXPECT_EQ(result.units,
              orgs * spec.fractions.size() * spec.scenarios.size());
    EXPECT_EQ(result.units, result.rows.size());
}

TEST(SweepTest, SerialAndParallelOutputAreByteIdentical)
{
    SweepSpec spec = smallSpec();
    SweepOptions serial;
    serial.jobs = 1;
    SweepOptions parallel;
    parallel.jobs = 8;
    SweepResult a = runSweep(spec, serial);
    SweepResult b = runSweep(spec, parallel);
    EXPECT_EQ(a.jobs, 1u);
    EXPECT_EQ(b.jobs, 8u);
    EXPECT_EQ(toCsv(a), toCsv(b));
}

TEST(SweepTest, RowsComeBackInCanonicalOrder)
{
    SweepSpec spec = smallSpec();
    SweepOptions opts;
    opts.jobs = 4;
    SweepResult result = runSweep(spec, opts);
    // Workload-major: every MMM row precedes every FFT row, fractions
    // ascend within a workload, scenarios cycle within a fraction.
    // Workloads contribute different row counts (their paper
    // organization sets differ), so compute the boundary.
    std::size_t first_block =
        core::paperOrganizations(spec.workloads[0], spec.calib).size() *
        spec.fractions.size() * spec.scenarios.size();
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
        const SweepRow &row = result.rows[i];
        EXPECT_EQ(row.workload, i < first_block
                                    ? spec.workloads[0].name()
                                    : spec.workloads[1].name());
        EXPECT_EQ(row.cells.size(), itrs::nodeTable().size());
    }
    EXPECT_DOUBLE_EQ(result.rows.front().f, 0.5);
    EXPECT_EQ(result.rows.front().scenario, "baseline");
}

TEST(SweepTest, MatchesSerialProjectionReference)
{
    const core::Scenario &scenario = core::baselineScenario();
    SweepSpec spec;
    spec.workloads = {wl::Workload::mmm()};
    spec.fractions = {0.99};
    spec.scenarios = {scenario};
    SweepOptions opts;
    opts.jobs = 4;
    SweepResult swept = runSweep(spec, opts);
    SweepResult reference =
        projectionReference(wl::Workload::mmm(), 0.99, scenario);
    EXPECT_EQ(toCsv(swept), toCsv(reference));
}

TEST(SweepTest, PinnedBatchKernelsPrintTheSameCsv)
{
    // The SIMD value pass may not move a byte of any scenario's rows,
    // the f = 0 and f = 1 edges included, and the scalar pass run
    // inline must still reproduce the serial projectAll() reference.
    const core::BatchKernel scalar = core::BatchKernel::Scalar;
    const core::BatchKernel simd = core::BatchKernel::Simd;
    SweepSpec spec;
    spec.workloads = {wl::Workload::mmm()};
    spec.scenarios = core::allScenarios();
    SweepOptions two_jobs;
    two_jobs.jobs = 2;
    for (double f : {0.0, 0.5, 0.99, 1.0}) {
        spec.fractions = {f};
        core::detail::forceBatchKernelForTest(&scalar);
        std::string via_scalar = toCsv(runSweep(spec, two_jobs));
        if (core::batchSimdCompiledIn()) {
            core::detail::forceBatchKernelForTest(&simd);
            EXPECT_EQ(toCsv(runSweep(spec, two_jobs)), via_scalar)
                << "f=" << f;
        }
        core::detail::forceBatchKernelForTest(nullptr);
    }

    const core::Scenario &baseline = core::baselineScenario();
    SweepSpec slice;
    slice.workloads = {wl::Workload::mmm()};
    slice.fractions = {0.99};
    slice.scenarios = {baseline};
    SweepOptions inline_run;
    inline_run.jobs = 1;
    core::detail::forceBatchKernelForTest(&scalar);
    std::string swept = toCsv(runSweep(slice, inline_run));
    core::detail::forceBatchKernelForTest(nullptr);
    EXPECT_EQ(swept, toCsv(projectionReference(wl::Workload::mmm(), 0.99,
                                               baseline)));
}

TEST(SweepTest, ProgressIsMonotoneAndComplete)
{
    SweepSpec spec = smallSpec();
    SweepOptions opts;
    opts.jobs = 4;
    std::size_t calls = 0, last_done = 0, last_total = 0;
    opts.progress = [&](std::size_t done, std::size_t total) {
        ++calls;
        EXPECT_EQ(done, last_done + 1); // serialized, strictly +1
        last_done = done;
        last_total = total;
    };
    SweepResult result = runSweep(spec, opts);
    EXPECT_EQ(calls, result.units);
    EXPECT_EQ(last_done, result.units);
    EXPECT_EQ(last_total, result.units);
}

TEST(SweepTest, CountsUnitsInMetricsRegistry)
{
    obs::Counter &counter =
        obs::globalRegistry().counter("hcm_sweep_units_total");
    std::uint64_t before = counter.value();
    SweepResult result = runSweep(smallSpec(), {});
    EXPECT_EQ(counter.value() - before, result.units);
    EXPECT_EQ(obs::globalRegistry()
                  .gauge("hcm_sweep_active_units")
                  .value(),
              0);
}

TEST(SweepTest, EmptyDimensionThrows)
{
    SweepSpec no_workloads = smallSpec();
    no_workloads.workloads.clear();
    EXPECT_THROW(runSweep(no_workloads, {}), std::invalid_argument);
    SweepSpec no_fractions = smallSpec();
    no_fractions.fractions.clear();
    EXPECT_THROW(runSweep(no_fractions, {}), std::invalid_argument);
    SweepSpec no_scenarios = smallSpec();
    no_scenarios.scenarios.clear();
    EXPECT_THROW(runSweep(no_scenarios, {}), std::invalid_argument);
    SweepSpec bad_fraction = smallSpec();
    bad_fraction.fractions = {1.5};
    EXPECT_THROW(runSweep(bad_fraction, {}), std::invalid_argument);
}

TEST(SweepTest, SharedBudgetsMatchPerRowDerivation)
{
    SweepSpec spec = smallSpec();
    SweepResult result = runSweep(spec, {});
    for (const SweepRow &row : result.rows) {
        // Recompute the budget independently; the shared table must
        // agree exactly for every cell.
        const core::Scenario &scenario =
            core::scenarioByName(row.scenario);
        const wl::Workload &w =
            row.workload == spec.workloads[0].name() ? spec.workloads[0]
                                                     : spec.workloads[1];
        for (const SweepCell &cell : row.cells) {
            core::Budget expected =
                core::makeBudget(cell.node, w, scenario, spec.calib);
            EXPECT_DOUBLE_EQ(cell.budget.area, expected.area);
            EXPECT_DOUBLE_EQ(cell.budget.power, expected.power);
            EXPECT_DOUBLE_EQ(cell.budget.bandwidth, expected.bandwidth);
        }
    }
}

} // namespace
} // namespace sweep
} // namespace hcm
