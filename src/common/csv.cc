#include "common/csv.h"

namespace stableshard {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path) {
  if (!out_) return;
  std::ostringstream line;
  bool first = true;
  for (const auto& column : header) AppendCell(line, column, first);
  out_ << line.str() << '\n';
}

void CsvWriter::AppendCell(std::ostringstream& line, const std::string& cell,
                           bool& first) {
  if (!first) line << ',';
  first = false;
  if (cell.find_first_of(",\"\r\n") == std::string::npos) {
    line << cell;
    return;
  }
  line << '"';
  for (const char c : cell) {
    if (c == '"') line << '"';
    line << c;
  }
  line << '"';
}

}  // namespace stableshard
