#include "netbase/string_util.h"

#include <charconv>
#include <cmath>

namespace cpr {

std::vector<std::string_view> SplitTokens(std::string_view text, std::string_view delims) {
  std::vector<std::string_view> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t start = text.find_first_not_of(delims, pos);
    if (start == std::string_view::npos) {
      break;
    }
    size_t end = text.find_first_of(delims, start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    out.push_back(text.substr(start, end - start));
    pos = end;
  }
  return out;
}

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> out;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) {
      if (pos < text.size()) {
        out.push_back(text.substr(pos));
      }
      break;
    }
    out.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view text) {
  size_t start = text.find_first_not_of(" \t\r\n");
  if (start == std::string_view::npos) {
    return std::string_view();
  }
  size_t end = text.find_last_not_of(" \t\r\n");
  return text.substr(start, end - start + 1);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

namespace {

template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

bool ParseInt(std::string_view text, int* out) { return ParseWhole(text, out); }

bool ParseInt64(std::string_view text, int64_t* out) { return ParseWhole(text, out); }

bool ParseUint32(std::string_view text, uint32_t* out) { return ParseWhole(text, out); }

bool ParseDouble(std::string_view text, double* out) {
  return ParseWhole(text, out) && std::isfinite(*out);
}

std::string FormatDouble(double value) {
  char buffer[32];  // The longest shortest-round-trip double has 24 chars.
  return std::string(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

std::string JoinStrings(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += pieces[i];
  }
  return out;
}

}  // namespace cpr
