#include "csv.hh"

#include "format.hh"

namespace hcm {

void
CsvWriter::separate()
{
    if (!_first)
        _row += ',';
    _first = false;
}

CsvWriter &
CsvWriter::cell(std::string_view text)
{
    separate();
    if (text.find_first_of(",\"\n\r") == std::string_view::npos) {
        _row += text;
        return *this;
    }
    _row += '"';
    for (char c : text) {
        if (c == '"')
            _row += '"';
        _row += c;
    }
    _row += '"';
    return *this;
}

CsvWriter &
CsvWriter::cell(double v)
{
    separate();
    appendDouble17(_row, v);
    return *this;
}

void
CsvWriter::endRow()
{
    _row += '\n';
    _out.write(_row.data(), static_cast<std::streamsize>(_row.size()));
    _row.clear();
    _first = true;
}

void
CsvWriter::writeRow(std::initializer_list<std::string_view> cells)
{
    for (std::string_view text : cells)
        cell(text);
    endRow();
}

} // namespace hcm
