#include "config/diff.h"

#include <algorithm>

#include "config/printer.h"
#include "netbase/string_util.h"

namespace cpr {

namespace {

// Meaningful config lines: trimmed, non-empty, non-separator.
std::vector<std::string> MeaningfulLines(std::string_view text) {
  std::vector<std::string> out;
  for (std::string_view line : SplitLines(text)) {
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '!') {
      continue;
    }
    out.emplace_back(trimmed);
  }
  return out;
}

}  // namespace

int ConfigDiff::added() const {
  return static_cast<int>(
      std::count_if(lines.begin(), lines.end(),
                    [](const DiffLine& l) { return l.kind == DiffLine::Kind::kAdded; }));
}

int ConfigDiff::removed() const { return total() - added(); }

std::string ConfigDiff::ToString() const {
  std::string out;
  for (const DiffLine& line : lines) {
    out += line.kind == DiffLine::Kind::kAdded ? "+ " : "- ";
    out += line.text;
    out += "\n";
  }
  return out;
}

ConfigDiff DiffConfigText(std::string_view before, std::string_view after) {
  std::vector<std::string> a = MeaningfulLines(before);
  std::vector<std::string> b = MeaningfulLines(after);
  const size_t n = a.size();
  const size_t m = b.size();

  // Standard LCS table; configs are at most a few thousand lines so the
  // quadratic table is fine.
  std::vector<std::vector<int>> lcs(n + 1, std::vector<int>(m + 1, 0));
  for (size_t i = n; i-- > 0;) {
    for (size_t j = m; j-- > 0;) {
      lcs[i][j] = a[i] == b[j] ? lcs[i + 1][j + 1] + 1
                               : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }

  ConfigDiff diff;
  size_t i = 0;
  size_t j = 0;
  while (i < n && j < m) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (lcs[i + 1][j] >= lcs[i][j + 1]) {
      diff.lines.push_back({DiffLine::Kind::kRemoved, a[i++]});
    } else {
      diff.lines.push_back({DiffLine::Kind::kAdded, b[j++]});
    }
  }
  while (i < n) {
    diff.lines.push_back({DiffLine::Kind::kRemoved, a[i++]});
  }
  while (j < m) {
    diff.lines.push_back({DiffLine::Kind::kAdded, b[j++]});
  }
  return diff;
}

ConfigDiff DiffConfigs(const Config& before, const Config& after) {
  return DiffConfigText(PrintConfig(before), PrintConfig(after));
}

}  // namespace cpr
