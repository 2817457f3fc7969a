/** @file Tests for sweep CSV/JSON serialization. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "oracle/csv_reader.hh"
#include "sweep/export.hh"
#include "sweep/sweep.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace sweep {
namespace {

/** Serialize to CSV, then parse it back through util/csv. */
std::vector<std::vector<std::string>>
csvRows(const SweepResult &result, const std::string &name)
{
    std::string path =
        (std::filesystem::temp_directory_path() / name).string();
    {
        std::ofstream out(path);
        writeSweepCsv(out, result);
    }
    std::vector<std::vector<std::string>> rows = readCsv(path);
    std::remove(path.c_str());
    return rows;
}

SweepResult
tinyResult()
{
    SweepSpec spec;
    spec.workloads = {wl::Workload::mmm()};
    spec.fractions = {0.99};
    spec.scenarios = {core::baselineScenario()};
    return runSweep(spec, {});
}

TEST(SweepExportTest, CsvHasHeaderAndOneLinePerRowNode)
{
    SweepResult result = tinyResult();
    std::vector<std::vector<std::string>> rows =
        csvRows(result, "hcm_sweep_export_shape.csv");
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows[0][0], "workload");
    EXPECT_EQ(rows[0].size(), 16u);
    EXPECT_EQ(rows.size(),
              1 + result.rows.size() * itrs::nodeTable().size());
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].size(), rows[0].size());
}

TEST(SweepExportTest, CsvFeasibleRowCarriesFullPrecision)
{
    SweepResult result = tinyResult();
    std::vector<std::vector<std::string>> rows =
        csvRows(result, "hcm_sweep_export_precision.csv");
    // Find a feasible data row and check the speedup survives a
    // round-trip through the text exactly.
    bool checked = false;
    for (std::size_t i = 1; i < rows.size() && !checked; ++i) {
        if (rows[i][7] != "1")
            continue;
        std::size_t row_index = (i - 1) / itrs::nodeTable().size();
        std::size_t node_index = (i - 1) % itrs::nodeTable().size();
        double expected =
            result.rows[row_index].cells[node_index].design.speedup;
        EXPECT_EQ(std::stod(rows[i][10]), expected);
        checked = true;
    }
    EXPECT_TRUE(checked);
}

TEST(SweepExportTest, JsonParsesAndEchoesShape)
{
    SweepResult result = tinyResult();
    std::ostringstream out;
    writeSweepJson(out, result);
    std::string error;
    auto doc = JsonValue::parse(out.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *rows = doc->find("rows");
    ASSERT_TRUE(rows && rows->isArray());
    EXPECT_EQ(rows->items().size(), result.rows.size());
    const JsonValue &first = rows->items().front();
    EXPECT_TRUE(first.find("workload"));
    EXPECT_TRUE(first.find("organization"));
    const JsonValue *points = first.find("points");
    ASSERT_TRUE(points && points->isArray());
    EXPECT_EQ(points->items().size(), itrs::nodeTable().size());
    EXPECT_TRUE(points->items().front().find("budget"));
    const JsonValue *units = doc->find("units");
    ASSERT_TRUE(units);
    EXPECT_EQ(static_cast<std::size_t>(units->asNumber()),
              result.units);
}

} // namespace
} // namespace sweep
} // namespace hcm
