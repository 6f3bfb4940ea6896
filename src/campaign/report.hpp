// Table rendering for the results analysis module (paper Section 5):
// analytics::toMarkdown / toCsv lay out pre-formatted cells through these,
// and writeTextFile stores the rendered text.
#pragma once

#include <string>
#include <vector>

namespace fades::campaign {

/// CSV from pre-formatted cells - the CSV counterpart of
/// common::renderTable. Every field is quoted through obs::csvQuote, the
/// one CSV-quoting implementation in the tree.
std::string renderCsv(const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows);

/// GitHub-style markdown pipe table from pre-formatted cells.
std::string renderMarkdownTable(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

/// Write text to a file through obs::writeFile (crash-safe tmp + rename);
/// throws common::FadesError on I/O failure.
void writeTextFile(const std::string& path, const std::string& text);

}  // namespace fades::campaign
