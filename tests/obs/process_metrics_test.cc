/** @file Tests for the process-level gauges: every hcm binary's
 *  uptime, RSS (live and peak), and context-switch exports. The
 *  assertions stay loose where the numbers come from the kernel —
 *  what matters is that the gauges exist, read plausibly, and obey
 *  the invariants the fleet view relies on (peak >= live RSS). */

#include <chrono>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "obs/process_metrics.hh"
#include "util/json.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace obs {
namespace {

/** Export @p registry and return the named gauge's value. */
std::optional<double>
exportedGauge(const Registry &registry, const std::string &name)
{
    std::ostringstream oss;
    {
        JsonWriter json(oss);
        registry.writeJson(json);
    }
    std::string error;
    auto doc = JsonValue::parse(oss.str(), &error);
    EXPECT_TRUE(doc) << error;
    if (!doc)
        return std::nullopt;
    const JsonValue *gauges = doc->find("gauges");
    if (!gauges || !gauges->isArray())
        return std::nullopt;
    for (const JsonValue &gauge : gauges->items()) {
        const JsonValue *gauge_name = gauge.find("name");
        const JsonValue *value = gauge.find("value");
        if (gauge_name && gauge_name->isString() &&
            gauge_name->asString() == name && value &&
            value->isNumber())
            return value->asNumber();
    }
    return std::nullopt;
}

TEST(ProcessMetricsTest, RegistersAllFiveGauges)
{
    Registry registry;
    registerProcessMetrics(registry);
    for (const char *name :
         {"hcm_process_uptime_seconds",
          "hcm_process_resident_memory_bytes",
          "hcm_process_peak_resident_memory_bytes",
          "hcm_process_voluntary_context_switches",
          "hcm_process_involuntary_context_switches"})
        EXPECT_TRUE(exportedGauge(registry, name).has_value()) << name;
}

TEST(ProcessMetricsTest, PeakRssDominatesLiveRss)
{
    Registry registry;
    registerProcessMetrics(registry);
    auto rss =
        exportedGauge(registry, "hcm_process_resident_memory_bytes");
    auto peak = exportedGauge(
        registry, "hcm_process_peak_resident_memory_bytes");
    ASSERT_TRUE(rss && peak);
#ifdef __linux__
    // A running test binary has touched memory; both must be real.
    EXPECT_GT(*rss, 0.0);
    EXPECT_GT(*peak, 0.0);
    // The high-water mark can never trail the current level (both are
    // sampled here within microseconds; VmHWM only grows).
    EXPECT_GE(*peak, *rss * 0.5); // statm vs status granularity slack
#else
    EXPECT_EQ(*rss, 0.0);
    EXPECT_EQ(*peak, 0.0);
#endif
}

TEST(ProcessMetricsTest, ContextSwitchGaugesReadNonNegative)
{
    // A fresh process under ctest may not have been switched out yet;
    // sleeping yields the CPU, which counts one voluntary switch.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Registry registry;
    registerProcessMetrics(registry);
    auto voluntary = exportedGauge(
        registry, "hcm_process_voluntary_context_switches");
    auto involuntary = exportedGauge(
        registry, "hcm_process_involuntary_context_switches");
    ASSERT_TRUE(voluntary && involuntary);
    EXPECT_GE(*voluntary, 0.0);
    EXPECT_GE(*involuntary, 0.0);
#ifdef __linux__
    EXPECT_GT(*voluntary + *involuntary, 0.0);
#endif
}

} // namespace
} // namespace obs
} // namespace hcm
