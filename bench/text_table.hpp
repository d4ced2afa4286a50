#pragma once

// Minimal fixed-width text-table formatter for paper_report's tables.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace occm::bench {

class TextTable {
 public:
  /// Sets the header row (also fixes the column count).
  void header(std::vector<std::string> cells) {
    OCCM_REQUIRE_MSG(!cells.empty(), "header must have columns");
    header_ = std::move(cells);
  }

  /// Appends a data row; must match the header width.
  void row(std::vector<std::string> cells) {
    OCCM_REQUIRE_MSG(cells.size() == header_.size(),
                     "row width must match the header");
    rows_.push_back(std::move(cells));
  }

  /// Renders with aligned columns and a rule under the header.
  [[nodiscard]] std::string str() const {
    std::vector<std::size_t> widths(header_.size());
    const auto widen = [&](const std::vector<std::string>& cells) {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        widths[c] = std::max(widths[c], cells[c].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) {
      widen(row);
    }
    const auto render = [&](const std::vector<std::string>& cells) {
      std::string line;
      for (std::size_t c = 0; c < cells.size(); ++c) {
        line += cells[c];
        line.append(widths[c] - cells[c].size(), ' ');
        line += c + 1 < cells.size() ? "  " : "\n";
      }
      return line;
    };
    std::string out = render(header_);
    out.append(out.size() - 1, '-');  // the header's width, padding included
    out += '\n';
    for (const auto& row : rows_) {
      out += render(row);
    }
    return out;
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision double formatting ("%.2f" etc. without iostreams).
[[nodiscard]] inline std::string fmt(double value, int precision = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

}  // namespace occm::bench
