/**
 * @file
 * The one home of CSV (RFC-4180-style quoting): a row writer for the
 * sweep and figure exporters.
 */

#ifndef HCM_UTIL_CSV_HH
#define HCM_UTIL_CSV_HH

#include <charconv>
#include <concepts>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>

namespace hcm {

/**
 * Row-at-a-time CSV writer onto any stream. Cells are appended into
 * one reused row buffer, which reaches the stream at endRow(). A cell
 * is quoted if and only if it contains a comma, quote, \n or \r;
 * embedded quotes are doubled.
 */
class CsvWriter
{
  public:
    explicit CsvWriter(std::ostream &out) : _out(out) {}

    /** A text cell, quoted when it needs to be. */
    CsvWriter &cell(std::string_view text);

    /** A numeric cell with 17 significant digits (appendDouble17). */
    CsvWriter &cell(double v);

    /** An integer cell. */
    CsvWriter &
    cell(std::integral auto v)
    {
        separate();
        char buf[24];
        _row.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
        return *this;
    }

    /** End the row and hand it to the stream. */
    void endRow();

    /** A whole row of text cells. */
    void writeRow(std::initializer_list<std::string_view> cells);

  private:
    void separate();

    std::ostream &_out;
    std::string _row;
    bool _first = true;
};

} // namespace hcm

#endif // HCM_UTIL_CSV_HH
