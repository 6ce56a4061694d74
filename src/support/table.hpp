// Text table and CSV emission for benchmark harnesses.
//
// Every bench binary prints its figure/table rows through TextTable, so the
// same rows read as aligned text or, with CSV output, load into a sheet.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace tadfa {

/// Column-aligned plain-text table with an optional title.
class TextTable {
 public:
  explicit TextTable(std::string title = "") : title_(std::move(title)) {}

  /// Sets the header row. Must be called before any add_row.
  void set_header(std::vector<std::string> header);

  /// Appends a data row; must have the same arity as the header (if set).
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with fixed precision.
  static std::string num(double v, int precision = 2);

  /// Renders with column alignment and separators.
  void print(std::ostream& os) const;

  /// Renders as CSV (header then rows, comma separated, quoted as needed).
  void print_csv(std::ostream& os) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tadfa
