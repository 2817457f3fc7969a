/** @file Unit tests for util/csv and the tests' CSV reader. */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "oracle/csv_reader.hh"
#include "util/csv.hh"

namespace hcm {
namespace {

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** The bytes CsvWriter writes for one row of text cells. */
std::string
rowBytes(std::initializer_list<std::string_view> cells)
{
    std::ostringstream out;
    CsvWriter(out).writeRow(cells);
    return out.str();
}

TEST(CsvTest, EscapePlainCellsUnchanged)
{
    EXPECT_EQ(rowBytes({"hello"}), "hello\n");
    EXPECT_EQ(rowBytes({"1.5", "", "x y"}), "1.5,,x y\n");
}

TEST(CsvTest, EscapeQuotesCommasAndNewlines)
{
    EXPECT_EQ(rowBytes({"a,b"}), "\"a,b\"\n");
    EXPECT_EQ(rowBytes({"say \"hi\""}), "\"say \"\"hi\"\"\"\n");
    EXPECT_EQ(rowBytes({"line1\nline2"}), "\"line1\nline2\"\n");
    EXPECT_EQ(rowBytes({"cr\r", "x"}), "\"cr\r\",x\n");
}

TEST(CsvTest, ParseSimpleLine)
{
    auto rows = parseCsv("a,b,c");
    ASSERT_EQ(rows.size(), 1u);
    ASSERT_EQ(rows[0].size(), 3u);
    EXPECT_EQ(rows[0][0], "a");
    EXPECT_EQ(rows[0][2], "c");
}

TEST(CsvTest, ParseQuotedCells)
{
    auto rows = parseCsv("\"a,b\",\"say \"\"hi\"\"\",plain");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"a,b", "say \"hi\"",
                                                 "plain"}));
}

TEST(CsvTest, ParseEmptyCells)
{
    auto rows = parseCsv(",,");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"", "", ""}));
    EXPECT_TRUE(parseCsv("").empty());
}

TEST(CsvTest, ParseToleratesCarriageReturn)
{
    auto rows = parseCsv("a,b\r");
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
}

TEST(CsvTest, WriteThenReadRoundTrip)
{
    std::string path = tempPath("hcm_csv_test.csv");
    {
        std::ofstream out(path);
        CsvWriter w(out);
        w.writeRow({"x", "y,z", "q\"uote"});
        w.cell(1.5).cell(2.25).cell(-3).endRow();
    }
    auto rows = readCsv(path);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0][1], "y,z");
    EXPECT_EQ(rows[0][2], "q\"uote");
    EXPECT_EQ(rows[1], (std::vector<std::string>{"1.5", "2.25", "-3"}));
    std::remove(path.c_str());
}

TEST(CsvTest, RoundTripsCellsWithNewlinesCommasQuotesAndCrlf)
{
    std::vector<std::string> nasty = {
        "line1\nline2",       // embedded record separator
        "a,b",                // embedded field separator
        "say \"hi\"",         // embedded quotes
        "crlf\r\ntail",       // embedded CRLF is data, not a separator
        "",                   // empty cell
    };
    std::ostringstream out;
    CsvWriter w(out);
    for (const std::string &cell : nasty)
        w.cell(cell);
    w.endRow();
    w.writeRow({"next", "row"});
    auto rows = parseCsv(out.str());
    ASSERT_EQ(rows.size(), 2u); // quoted newlines don't split records
    ASSERT_EQ(rows[0].size(), nasty.size());
    for (std::size_t i = 0; i < nasty.size(); ++i)
        EXPECT_EQ(rows[0][i], nasty[i]) << "cell " << i;
    EXPECT_EQ(rows[1], (std::vector<std::string>{"next", "row"}));
}

TEST(CsvTest, QuotedCellSpansPhysicalLines)
{
    std::string path = tempPath("hcm_csv_span.csv");
    {
        std::ofstream out(path);
        out << "\"a\nb\",c\r\nd,e\n";
    }
    auto rows = readCsv(path);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"a\nb", "c"}));
    EXPECT_EQ(rows[1], (std::vector<std::string>{"d", "e"}));
    std::remove(path.c_str());
}

TEST(CsvTest, ReadKeepsBlankLinesAndFinalUnterminatedRecord)
{
    auto rows = parseCsv("a\n\nb"); // blank line row; no trailing newline
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0], "a");
    EXPECT_EQ(rows[1], (std::vector<std::string>{""}));
    EXPECT_EQ(rows[2][0], "b");
    // An unterminated quote keeps what it has read.
    EXPECT_EQ(parseCsv("x,\"open"),
              (std::vector<std::vector<std::string>>{{"x", "open"}}));
}

TEST(CsvTest, NumericRowPreservesPrecision)
{
    // Numeric cells carry 17 significant digits, so every double reads
    // back exactly; integers print without a decimal point.
    std::ostringstream out;
    CsvWriter(out).cell(0.3125).cell(0.1).cell(1.0 / 3.0).cell(42).endRow();
    EXPECT_EQ(out.str(), "0.3125,0.10000000000000001,"
                         "0.33333333333333331,42\n");
    auto rows = parseCsv(out.str());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(std::stod(rows[0][1]), 0.1);
    EXPECT_EQ(std::stod(rows[0][2]), 1.0 / 3.0);
}

} // namespace
} // namespace hcm
