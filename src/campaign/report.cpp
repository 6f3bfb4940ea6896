#include "campaign/report.hpp"

#include "obs/artifact.hpp"
#include "obs/csv.hpp"

namespace fades::campaign {

std::string renderCsv(const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows) {
  std::string out = obs::csvLine(header);
  for (const auto& row : rows) out += obs::csvLine(row);
  return out;
}

std::string renderMarkdownTable(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows) {
  auto renderRow = [](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (const auto& c : cells) line += " " + c + " |";
    return line + "\n";
  };
  std::string out = renderRow(header);
  out += "|";
  for (std::size_t c = 0; c < header.size(); ++c) out += "---|";
  out += "\n";
  for (const auto& row : rows) out += renderRow(row);
  return out;
}

void writeTextFile(const std::string& path, const std::string& text) {
  obs::writeFile(path, text);
}

}  // namespace fades::campaign
