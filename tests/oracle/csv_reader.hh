/**
 * @file
 * A CSV record scanner for the tests that read back what
 * hcm::CsvWriter (util/csv) writes. The product only writes CSV, so the
 * reader lives with the tests.
 */

#ifndef HCM_TESTS_ORACLE_CSV_READER_HH
#define HCM_TESTS_ORACLE_CSV_READER_HH

#include <string>
#include <string_view>
#include <vector>

namespace hcm {

/**
 * Parse CSV text into rows of unescaped cells. Records continue across
 * physical lines while inside quotes, so cells written with embedded
 * newlines round-trip through CsvWriter intact; CRLF record separators
 * are tolerated, and \r inside quotes is data. A final record needs no
 * trailing newline, and an unterminated quote at the end keeps what it
 * has read.
 */
std::vector<std::vector<std::string>> parseCsv(std::string_view text);

/** parseCsv() over a whole file; fatal() on open failure. */
std::vector<std::vector<std::string>> readCsv(const std::string &path);

} // namespace hcm

#endif // HCM_TESTS_ORACLE_CSV_READER_HH
