// Minimal CSV writer: simulate_cli's --csv summary row and the ablation
// benches' tables. A cell holding a comma, a double quote or a line break
// is quoted as RFC 4180 specifies; every other cell is written as it is.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace stableshard {

class CsvWriter {
 public:
  /// Opens `path` for writing, replacing any earlier contents, and emits
  /// the header row.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// True if the output file opened successfully.
  bool ok() const { return static_cast<bool>(out_); }

  /// Append one row; values are stringified with operator<<.
  template <typename... Ts>
  void Row(const Ts&... values) {
    std::ostringstream line;
    bool first = true;
    ((AppendCell(line, values, first)), ...);
    out_ << line.str() << '\n';
  }

  void Flush() { out_.flush(); }

 private:
  template <typename T>
  static void AppendCell(std::ostringstream& line, const T& value,
                         bool& first) {
    std::ostringstream cell;
    cell << value;
    AppendCell(line, cell.str(), first);
  }
  static void AppendCell(std::ostringstream& line, const std::string& cell,
                         bool& first);

  std::ofstream out_;
};

}  // namespace stableshard
