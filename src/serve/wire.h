// cprd's wire protocol: one request line in, one response line out, over an
// AF_UNIX stream socket.
//
// A line is a space-separated list of key=value fields terminated by '\n'.
// Keys and values are %-escaped (space, '=', '%', CR, LF), so arbitrary
// strings — including whole JSON documents — ride in a value without
// framing ambiguity. The format is trivially greppable in logs and needs no
// parser state, which is the point: the daemon must be debuggable with
// `socat` when it misbehaves.
//
//   op=submit config_dir=/tmp/net policy_file=/tmp/net.policy deadline=30
//   admitted=1 id=7
//
// The same encoding doubles as cprd's checkpoint file format
// (serve/checkpoint.h): one durable request per line.

#ifndef CPR_SRC_SERVE_WIRE_H_
#define CPR_SRC_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netbase/result.h"
#include "netbase/string_util.h"

namespace cpr::serve {

using WireFields = std::vector<std::pair<std::string, std::string>>;

// %-escapes the characters that would break field framing.
std::string WireEscape(std::string_view raw);

// Reverses WireEscape; malformed escapes are an error (truncated "%x").
Result<std::string> WireUnescape(std::string_view escaped);

// Renders fields as one line WITHOUT the trailing newline.
std::string EncodeWireLine(const WireFields& fields);

// Parses one line (trailing newline tolerated). Fields without '=' are an
// error; duplicate keys are preserved in order.
Result<WireFields> DecodeWireLine(std::string_view line);

// Ordered view with map-style lookup, for consuming decoded lines.
class WireView {
 public:
  explicit WireView(const WireFields& fields) : fields_(fields) {}

  bool Has(std::string_view key) const;
  // First value for `key`, or `fallback`.
  std::string Get(std::string_view key, std::string_view fallback = "") const;
  // First value for `key` parsed strictly (the whole value must be a
  // number, and an integer must fit T), or `fallback` when the key is
  // absent. A malformed value is an error naming the key.
  Result<double> GetDouble(std::string_view key, double fallback = 0) const;
  template <typename T>
  Result<T> GetInt(std::string_view key, T fallback = T()) const {
    const std::string* value = Find(key);
    if (value == nullptr) {
      return fallback;
    }
    int64_t parsed = 0;
    if (!ParseInt64(*value, &parsed) || !std::in_range<T>(parsed)) {
      return Error(std::string(key) + ": expected an integer, got '" + *value + "'");
    }
    return static_cast<T>(parsed);
  }

 private:
  const std::string* Find(std::string_view key) const;

  const WireFields& fields_;
};

// --- AF_UNIX plumbing ----------------------------------------------------

// Owns a file descriptor; closes on destruction. Movable, not copyable.
class UnixFd {
 public:
  UnixFd() = default;
  explicit UnixFd(int fd) : fd_(fd) {}
  ~UnixFd();
  UnixFd(UnixFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  UnixFd& operator=(UnixFd&& other) noexcept;
  UnixFd(const UnixFd&) = delete;
  UnixFd& operator=(const UnixFd&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
};

// Binds and listens on a unix socket at `path`, replacing a stale socket
// file from a previous run.
Result<UnixFd> ListenUnix(const std::string& path, int backlog = 16);

// Connects to the daemon's socket.
Result<UnixFd> ConnectUnix(const std::string& path);

// Accepts one connection; blocks. Returns an invalid fd on EINTR so callers
// can re-check their shutdown flag.
Result<UnixFd> AcceptUnix(const UnixFd& listener);

// Writes `line` plus a newline, handling short writes.
Status SendLine(int fd, const std::string& line);

// Reads until '\n' (or EOF, or `max_bytes`); returns the line without the
// newline. EOF before any byte is an error ("connection closed").
Result<std::string> RecvLine(int fd, size_t max_bytes = 1 << 22);

}  // namespace cpr::serve

#endif  // CPR_SRC_SERVE_WIRE_H_
