#include "oracle/csv_reader.hh"

#include <fstream>
#include <iterator>

#include "util/logging.hh"

namespace hcm {

std::vector<std::vector<std::string>>
parseCsv(std::string_view text)
{
    // Quote-aware record scanner: a newline inside quotes continues the
    // current cell (the writer quotes embedded newlines, so splitting
    // on newlines first would cut one logical row into two mangled
    // ones); a newline outside quotes ends the record.
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> cells;
    std::string cur;
    bool quoted = false;
    bool pending = false; // any character consumed since the last record
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                cur += c; // newlines and \r inside quotes are data
            }
            pending = true;
        } else if (c == '"') {
            quoted = true;
            pending = true;
        } else if (c == ',') {
            cells.push_back(std::move(cur));
            cur.clear();
            pending = true;
        } else if (c == '\n') {
            cells.push_back(std::move(cur));
            cur.clear();
            rows.push_back(std::move(cells));
            cells.clear();
            pending = false;
        } else if (c == '\r') {
            // Tolerate CRLF record separators.
            pending = true;
        } else {
            cur += c;
            pending = true;
        }
    }
    if (pending) {
        // Final record without a trailing newline (or an unterminated
        // quote at the end — parse what we have rather than lose it).
        cells.push_back(std::move(cur));
        rows.push_back(std::move(cells));
    }
    return rows;
}

std::vector<std::vector<std::string>>
readCsv(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        hcm_fatal("cannot open '", path, "' for reading");
    std::string text(std::istreambuf_iterator<char>(in), {});
    return parseCsv(text);
}

} // namespace hcm
