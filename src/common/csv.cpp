#include "common/csv.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace aks::common {

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i)
    if (header[i] == name) return i;
  AKS_FAIL("CSV column not found: " << name);
}

CsvTable read_csv(const std::filesystem::path& path) {
  std::ifstream in(path);
  AKS_CHECK(in.is_open(), "cannot open CSV file " << path);
  CsvTable table;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto fields = split(line, ',');
    if (first) {
      table.header = std::move(fields);
      first = false;
      continue;
    }
    AKS_CHECK(fields.size() == table.header.size(),
              "ragged CSV row in " << path << ": got " << fields.size()
              << " fields, expected " << table.header.size());
    table.rows.push_back(std::move(fields));
  }
  AKS_CHECK(!first, "CSV file " << path << " is empty");
  return table;
}

void write_csv(const std::filesystem::path& path, const CsvTable& table) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  AKS_CHECK(out.is_open(), "cannot write CSV file " << path);
  out << join(table.header, ",") << "\n";
  for (const auto& row : table.rows) {
    AKS_CHECK(row.size() == table.header.size(),
              "ragged CSV row: got " << row.size() << " fields, expected "
              << table.header.size());
    out << join(row, ",") << "\n";
  }
  AKS_CHECK(out.good(), "I/O error writing CSV file " << path);
}

void write_matrix_csv(const std::filesystem::path& path,
                      const std::vector<std::string>& header,
                      const Matrix& values, int decimals) {
  AKS_CHECK(header.size() == values.cols(),
            "header has " << header.size() << " names but matrix has "
            << values.cols() << " columns");
  CsvTable table;
  table.header = header;
  table.rows.reserve(values.rows());
  for (std::size_t r = 0; r < values.rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(values.cols());
    for (std::size_t c = 0; c < values.cols(); ++c)
      row.push_back(format_fixed(values(r, c), decimals));
    table.rows.push_back(std::move(row));
  }
  write_csv(path, table);
}

Matrix parse_numeric(const CsvTable& table) {
  Matrix out(table.num_rows(), table.num_cols());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t c = 0; c < table.num_cols(); ++c) {
      out(r, c) = parse_number<double>(table.rows[r][c],
                                       "CSV cell at row " + std::to_string(r) +
                                           " col " + std::to_string(c));
    }
  }
  return out;
}

}  // namespace aks::common
