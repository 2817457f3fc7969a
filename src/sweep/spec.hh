/**
 * @file
 * Sweep specification: the multi-dimensional grid every paper figure is
 * drawn from — workload set x parallel-fraction grid x scenario set,
 * crossed with the paper organizations per workload and the Table 6
 * node table by the runner. Includes the list parsers the `hcm sweep`
 * CLI verb feeds ("mmm,bs,fft:1024", "0.5,0.9,0.99", "baseline,all").
 */

#ifndef HCM_SWEEP_SPEC_HH
#define HCM_SWEEP_SPEC_HH

#include <optional>
#include <string>
#include <vector>

#include "core/optimizer.hh"
#include "core/scenario.hh"
#include "workloads/workload.hh"

namespace hcm {
namespace sweep {

/**
 * The cross product a sweep enumerates. Canonical order is
 * workload-major: workload, then fraction, then scenario, then the
 * paper organizations of that workload (legend order), then the node
 * table — results always come back in this order regardless of how
 * the units were scheduled.
 */
struct SweepSpec
{
    std::vector<wl::Workload> workloads;
    std::vector<double> fractions;
    std::vector<core::Scenario> scenarios;
    /** Knobs forwarded to optimize(); alpha is overridden per scenario. */
    core::OptimizerOptions opts;
    core::BceCalibration calib = core::BceCalibration::standard();
};

/** Parse "mmm,bs,fft:1024" into workloads; nullopt + *error on a bad
 *  token, a workload without Table 5 calibration (svc::checkCalibrated),
 *  or an empty list. */
std::optional<std::vector<wl::Workload>> parseWorkloadList(
    const std::string &spec, std::string *error);

/** Parse "0.5,0.9,0.99" into fractions in [0,1]; nullopt + *error
 *  otherwise. */
std::optional<std::vector<double>> parseFractionList(
    const std::string &spec, std::string *error);

/** Parse "baseline,power-10w" (or "all" for baseline + every Section
 *  6.2 alternative) into scenarios; nullopt + *error on unknown names. */
std::optional<std::vector<core::Scenario>> parseScenarioList(
    const std::string &spec, std::string *error);

/** Stringly-typed spec, as the CLI collects it. */
struct SpecStrings
{
    std::string workloads = "mmm,bs,fft:1024";
    std::string fractions = "0.5,0.9,0.99,0.999";
    std::string scenarios = "baseline";
};

/** Parse all three lists; nullopt + *error on the first bad one. */
std::optional<SweepSpec> parseSweepSpec(const SpecStrings &strings,
                                        std::string *error);

} // namespace sweep
} // namespace hcm

#endif // HCM_SWEEP_SPEC_HH
