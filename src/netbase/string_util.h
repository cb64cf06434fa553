// Small string helpers shared by the configuration lexer/printer, the CLI
// and wire parsers, and the bench harness. Kept dependency-free.

#ifndef CPR_SRC_NETBASE_STRING_UTIL_H_
#define CPR_SRC_NETBASE_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cpr {

// Splits on any run of the characters in `delims`; never returns empty
// pieces.
std::vector<std::string_view> SplitTokens(std::string_view text,
                                          std::string_view delims = " \t");

// Splits into lines on '\n'; keeps empty lines (a config diff cares about
// them).
std::vector<std::string_view> SplitLines(std::string_view text);

std::string_view TrimWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

// Parses all of `text` as a decimal int (optional leading '-'). False on
// anything else — trailing characters, a fraction, overflow — in which case
// *out is unspecified.
bool ParseInt(std::string_view text, int* out);
bool ParseInt64(std::string_view text, int64_t* out);
// The same for [0, 2^32-1]: a leading '-' is rejected, not wrapped.
bool ParseUint32(std::string_view text, uint32_t* out);

// Parses all of `text` as a finite decimal number ("2", "-0.5", "4e-07").
// False on anything else — trailing characters, "inf"/"nan", overflow.
bool ParseDouble(std::string_view text, double* out);

// Shortest text that ParseDouble reads back as exactly `value`.
std::string FormatDouble(double value);

// Joins `pieces` with `sep` between elements.
std::string JoinStrings(const std::vector<std::string>& pieces, std::string_view sep);

}  // namespace cpr

#endif  // CPR_SRC_NETBASE_STRING_UTIL_H_
