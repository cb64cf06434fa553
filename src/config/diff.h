// Line-level diff between two configuration texts.
//
// The paper's minimality objective counts lines of configuration changed; we
// measure it exactly the way the paper extracts hand-written repairs —
// "diff'ing successive configuration snapshots" (§8.3) — using an LCS diff
// over the canonical printed form. Separator lines (`!`) and blank lines are
// ignored so stanza reflow doesn't count as change.

#ifndef CPR_SRC_CONFIG_DIFF_H_
#define CPR_SRC_CONFIG_DIFF_H_

#include <string>
#include <string_view>
#include <vector>

#include "config/ast.h"

namespace cpr {

struct DiffLine {
  enum class Kind { kAdded, kRemoved };
  Kind kind = Kind::kAdded;
  std::string text;
};

struct ConfigDiff {
  std::vector<DiffLine> lines;

  int added() const;
  int removed() const;
  // Total lines changed = added + removed (a modified line counts as one
  // removal plus one addition, matching `diff` output the paper used).
  int total() const { return static_cast<int>(lines.size()); }

  // Unified-diff-like rendering for logs and examples.
  std::string ToString() const;
};

// Diff of raw texts.
ConfigDiff DiffConfigText(std::string_view before, std::string_view after);

// Diff of two configs via their canonical printed form.
ConfigDiff DiffConfigs(const Config& before, const Config& after);

}  // namespace cpr

#endif  // CPR_SRC_CONFIG_DIFF_H_
