#include "spec.hh"

#include "core/projection.hh"
#include "svc/request.hh"
#include "util/format.hh"

namespace hcm {
namespace sweep {

namespace {

std::vector<std::string>
tokens(const std::string &spec)
{
    std::vector<std::string> out;
    for (const std::string &t : split(spec, ','))
        if (!t.empty())
            out.push_back(t);
    return out;
}

void
setError(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
}

} // namespace

std::optional<std::vector<wl::Workload>>
parseWorkloadList(const std::string &spec, std::string *error)
{
    std::vector<wl::Workload> out;
    for (const std::string &t : tokens(spec)) {
        auto w = svc::parseWorkloadSpec(t, nullptr);
        if (!w) {
            setError(error, "unknown workload '" + t +
                                "' (expected mmm, bs, or fft:N with N a "
                                "power of two)");
            return std::nullopt;
        }
        if (!svc::checkCalibrated(*w, error))
            return std::nullopt;
        out.push_back(*w);
    }
    if (out.empty()) {
        setError(error, "workload list is empty");
        return std::nullopt;
    }
    return out;
}

std::optional<std::vector<double>>
parseFractionList(const std::string &spec, std::string *error)
{
    std::vector<double> out;
    for (const std::string &t : tokens(spec)) {
        auto f = parseNumber<double>(t);
        if (!f) {
            setError(error, "bad fraction '" + t + "'");
            return std::nullopt;
        }
        if (*f < 0.0 || *f > 1.0) {
            setError(error, "fraction " + t + " outside [0, 1]");
            return std::nullopt;
        }
        out.push_back(*f);
    }
    if (out.empty()) {
        setError(error, "fraction list is empty");
        return std::nullopt;
    }
    return out;
}

std::optional<std::vector<core::Scenario>>
parseScenarioList(const std::string &spec, std::string *error)
{
    // Dedup by canonical name, first occurrence wins: "all,power-200w"
    // must run power-200w once, not twice (duplicates double-counted
    // sweep units, CSV/JSON rows, and hcm_sweep_units_total).
    std::vector<core::Scenario> out;
    auto push_unique = [&out](const core::Scenario &s) {
        for (const core::Scenario &have : out)
            if (have.name == s.name)
                return;
        out.push_back(s);
    };
    for (const std::string &t : tokens(spec)) {
        if (iequals(t, "all")) {
            for (const core::Scenario &s : core::allScenarios())
                push_unique(s);
            continue;
        }
        const core::Scenario *s = core::findScenario(t);
        if (!s) {
            setError(error, "unknown scenario '" + t + "'");
            return std::nullopt;
        }
        push_unique(*s);
    }
    if (out.empty()) {
        setError(error, "scenario list is empty");
        return std::nullopt;
    }
    return out;
}

std::optional<SweepSpec>
parseSweepSpec(const SpecStrings &strings, std::string *error)
{
    SweepSpec spec;
    auto workloads = parseWorkloadList(strings.workloads, error);
    if (!workloads)
        return std::nullopt;
    auto fractions = parseFractionList(strings.fractions, error);
    if (!fractions)
        return std::nullopt;
    auto scenarios = parseScenarioList(strings.scenarios, error);
    if (!scenarios)
        return std::nullopt;
    spec.workloads = std::move(*workloads);
    spec.fractions = std::move(*fractions);
    spec.scenarios = std::move(*scenarios);
    return spec;
}

} // namespace sweep
} // namespace hcm
