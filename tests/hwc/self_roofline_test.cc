/** @file Tests for the measured self-roofline. Everything shrinks to
 *  smoke scale (a few milliseconds of probing) — the point is the
 *  report's shape and its degradation contract, not the numbers: the
 *  wall-clock ceilings must always come back positive, the hot loops
 *  must always be timed, counter-derived fields must appear only when
 *  the host measured them, and both exports (JSON and terminal) must
 *  say explicitly when placement was impossible. */

#include <sstream>

#include <gtest/gtest.h>

#include "hwc/self_roofline.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace hwc {
namespace {

SelfRooflineOptions
smokeOptions()
{
    SelfRooflineOptions opts;
    opts.probe.streamElems = 1u << 14;
    opts.probe.minSeconds = 0.002;
    opts.probe.passes = 1;
    opts.loopMinSeconds = 0.002;
    return opts;
}

TEST(SelfRooflineTest, CeilingsAndHotLoopsAlwaysMeasure)
{
    SelfRooflineReport report = measureSelfRoofline(smokeOptions());
    // Wall-clock ceilings need no counters; they must always be real.
    EXPECT_GT(report.machine.streamBytesPerSec, 0.0);
    EXPECT_GT(report.machine.peakOpsPerSec, 0.0);
    ASSERT_EQ(report.points.size(), 2u);
    EXPECT_EQ(report.points[0].name, "optimize-r-grid");
    EXPECT_EQ(report.points[1].name, "sweep-slice");
    for (const RooflinePoint &p : report.points) {
        EXPECT_GE(p.iterations, 1u);
        EXPECT_GT(p.seconds, 0.0);
        // Counter columns exist only where counters measured them.
        EXPECT_EQ(p.measured, report.counters.available);
        if (!p.measured) {
            EXPECT_EQ(p.instructions, 0u);
            EXPECT_DOUBLE_EQ(p.insPerSec(), 0.0);
            EXPECT_DOUBLE_EQ(p.intensity(), 0.0);
        }
    }
    if (!report.counters.available) {
        EXPECT_FALSE(report.counters.reason.empty());
        EXPECT_FALSE(report.placeable());
    }
}

TEST(SelfRooflineTest, JsonExportIsWellFormedAndTagged)
{
    SelfRooflineReport report = measureSelfRoofline(smokeOptions());
    std::ostringstream out;
    writeSelfRooflineJson(report, out);
    std::string error;
    auto doc = JsonValue::parse(out.str(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(doc->find("schema")->asString(), "hcm-self-roofline/v1");
    const JsonValue *counters = doc->find("counters");
    ASSERT_TRUE(counters && counters->isObject());
    ASSERT_TRUE(counters->find("available"));
    EXPECT_EQ(counters->find("available")->asBool(),
              report.counters.available);
    if (!report.counters.available) {
        EXPECT_FALSE(counters->find("reason")->asString().empty());
    }
    const JsonValue *machine = doc->find("machine");
    ASSERT_TRUE(machine && machine->isObject());
    EXPECT_GT(machine->find("stream_bytes_per_sec")->asNumber(), 0.0);
    EXPECT_GT(machine->find("peak_flops_per_sec")->asNumber(), 0.0);
    const JsonValue *points = doc->find("points");
    ASSERT_TRUE(points && points->isArray());
    ASSERT_EQ(points->size(), 2u);
    for (const JsonValue &p : points->items()) {
        EXPECT_GT(p.find("seconds")->asNumber(), 0.0);
        // Unmeasured points carry no fabricated counter columns.
        if (!p.find("measured")->asBool()) {
            EXPECT_EQ(p.find("instructions"), nullptr);
        }
    }
    ASSERT_TRUE(doc->find("placeable"));
    EXPECT_EQ(doc->find("placeable")->asBool(), report.placeable());
}

TEST(SelfRooflineTest, RenderStatesTheDegradationExplicitly)
{
    SelfRooflineReport report = measureSelfRoofline(smokeOptions());
    std::string text = renderSelfRoofline(report);
    EXPECT_NE(text.find("stream bandwidth"), std::string::npos);
    EXPECT_NE(text.find("peak compute"), std::string::npos);
    EXPECT_NE(text.find("Hot loops"), std::string::npos);
    EXPECT_NE(text.find("optimize-r-grid"), std::string::npos);
    if (report.placeable()) {
        EXPECT_NE(text.find("Self-roofline (measured)"),
                  std::string::npos);
        EXPECT_NE(text.find("ridge at"), std::string::npos);
    } else {
        EXPECT_EQ(text.find("ridge at"), std::string::npos);
    }
    if (!report.counters.available) {
        EXPECT_NE(text.find("UNAVAILABLE"), std::string::npos);
        EXPECT_NE(text.find("no roofline placement"),
                  std::string::npos);
    }
}

TEST(SelfRooflineTest, PlaceableNeedsMeasuredIntensityAndCeilings)
{
    SelfRooflineReport report;
    EXPECT_FALSE(report.placeable()); // nothing measured
    report.machine.streamBytesPerSec = 1e10;
    report.machine.peakInsPerSec = 1e9;
    RooflinePoint p;
    p.name = "loop";
    p.measured = true;
    p.instructions = 1000000;
    report.points.push_back(p);
    // Measured but no LLC pair: intensity unknown, still unplaceable.
    EXPECT_FALSE(report.placeable());
    report.points[0].hasLlc = true;
    report.points[0].llcMisses = 100;
    EXPECT_TRUE(report.points[0].intensity() > 0.0);
    EXPECT_TRUE(report.placeable());
    // Losing a ceiling kills placement again.
    report.machine.peakInsPerSec = 0.0;
    EXPECT_FALSE(report.placeable());
}

} // namespace
} // namespace hwc
} // namespace hcm
