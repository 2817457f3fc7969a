#include "sweep_run.hh"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "sweep/export.hh"
#include "sweep/sweep.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

hcm::sweep::SpecStrings
denseSpecStrings()
{
    hcm::sweep::SpecStrings strings;
    strings.workloads = "mmm,bs,fft:1024,fft:16384";
    // Exact decimal text for i * 0.005, so the grid does not depend on
    // how a double accumulates.
    std::string fractions;
    for (int i = 0; i <= 200; ++i) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%s%d.%03d", i ? "," : "",
                      i * 5 / 1000, i * 5 % 1000);
        fractions += buf;
    }
    strings.fractions = fractions;
    // `--scenarios all` at the seed, spelled out so a scenario added
    // later does not change the benchmark's input.
    std::string scenarios;
    for (const char *name : kScenarioNames)
        scenarios += (scenarios.empty() ? "" : ",") + std::string(name);
    strings.scenarios = scenarios;
    return strings;
}

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

SweepTiming
sweepOnce(const hcm::sweep::SpecStrings &strings, std::size_t jobs,
          DigestBuf &sink)
{
    SweepTiming timing;
    Clock::time_point t0 = Clock::now();
    std::string error;
    auto spec = hcm::sweep::parseSweepSpec(strings, &error);
    if (!spec)
        throw std::runtime_error("sweep spec rejected: " + error);
    Clock::time_point t1 = Clock::now();
    hcm::sweep::SweepOptions opts;
    opts.jobs = jobs;
    hcm::sweep::SweepResult result = hcm::sweep::runSweep(*spec, opts);
    Clock::time_point t2 = Clock::now();
    sink.reset();
    {
        std::ostream out(&sink);
        hcm::sweep::writeSweepCsv(out, result);
        out.flush();
    }
    timing.digest = sink.digest();
    Clock::time_point t3 = Clock::now();
    timing.specMs = msBetween(t0, t1);
    timing.runMs = msBetween(t1, t2);
    timing.csvMs = msBetween(t2, t3);
    timing.wallMs = msBetween(t0, t3);
    for (const hcm::sweep::SweepRow &row : result.rows)
        timing.lines += row.cells.size();
    return timing;
}

} // namespace perfbench
