#include "serve/wire.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cpr::serve {

namespace {

bool NeedsEscape(char c) {
  return c == '%' || c == '=' || c == ' ' || c == '\n' || c == '\r';
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string WireEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  static const char* kHex = "0123456789ABCDEF";
  for (char c : raw) {
    if (NeedsEscape(c)) {
      unsigned char u = static_cast<unsigned char>(c);
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

Result<std::string> WireUnescape(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '%') {
      out.push_back(escaped[i]);
      continue;
    }
    if (i + 2 >= escaped.size()) {
      return Error("truncated %-escape in wire field");
    }
    int hi = HexDigit(escaped[i + 1]);
    int lo = HexDigit(escaped[i + 2]);
    if (hi < 0 || lo < 0) {
      return Error("malformed %-escape in wire field");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

std::string EncodeWireLine(const WireFields& fields) {
  std::string line;
  for (const auto& [key, value] : fields) {
    if (!line.empty()) {
      line.push_back(' ');
    }
    line += WireEscape(key);
    line.push_back('=');
    line += WireEscape(value);
  }
  return line;
}

Result<WireFields> DecodeWireLine(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  WireFields fields;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) {
      end = line.size();
    }
    std::string_view field = line.substr(pos, end - pos);
    pos = end + 1;
    if (field.empty()) {
      continue;  // Tolerate doubled spaces.
    }
    size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      return Error("wire field without '=': " + std::string(field));
    }
    Result<std::string> key = WireUnescape(field.substr(0, eq));
    if (!key.ok()) {
      return key.error();
    }
    Result<std::string> value = WireUnescape(field.substr(eq + 1));
    if (!value.ok()) {
      return value.error();
    }
    fields.emplace_back(std::move(key).value(), std::move(value).value());
  }
  return fields;
}

const std::string* WireView::Find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

bool WireView::Has(std::string_view key) const { return Find(key) != nullptr; }

std::string WireView::Get(std::string_view key, std::string_view fallback) const {
  const std::string* value = Find(key);
  return value != nullptr ? *value : std::string(fallback);
}

Result<double> WireView::GetDouble(std::string_view key, double fallback) const {
  const std::string* value = Find(key);
  double out = fallback;
  if (value != nullptr && !ParseDouble(*value, &out)) {
    return Error(std::string(key) + ": expected a number, got '" + *value + "'");
  }
  return out;
}

// --- AF_UNIX plumbing ----------------------------------------------------

UnixFd::~UnixFd() { Close(); }

UnixFd& UnixFd::operator=(UnixFd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void UnixFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

namespace {

Result<sockaddr_un> MakeAddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Result<UnixFd> ListenUnix(const std::string& path, int backlog) {
  Result<sockaddr_un> addr = MakeAddr(path);
  if (!addr.ok()) {
    return addr.error();
  }
  UnixFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Error(std::string("socket: ") + std::strerror(errno));
  }
  // A previous daemon that exited uncleanly leaves the socket file behind;
  // unlinking before bind is the conventional fix (the path is ours).
  ::unlink(path.c_str());
  if (::bind(fd.fd(), reinterpret_cast<sockaddr*>(&*addr), sizeof(*addr)) != 0) {
    return Error("bind " + path + ": " + std::strerror(errno));
  }
  if (::listen(fd.fd(), backlog) != 0) {
    return Error("listen " + path + ": " + std::strerror(errno));
  }
  return fd;
}

Result<UnixFd> ConnectUnix(const std::string& path) {
  Result<sockaddr_un> addr = MakeAddr(path);
  if (!addr.ok()) {
    return addr.error();
  }
  UnixFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Error(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd.fd(), reinterpret_cast<sockaddr*>(&*addr), sizeof(*addr)) != 0) {
    return Error("connect " + path + ": " + std::strerror(errno));
  }
  return fd;
}

Result<UnixFd> AcceptUnix(const UnixFd& listener) {
  int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      return UnixFd();  // Caller re-checks its shutdown flag.
    }
    return Error(std::string("accept: ") + std::strerror(errno));
  }
  return UnixFd(fd);
}

Status SendLine(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    ssize_t n = ::write(fd, framed.data() + sent, framed.size() - sent);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Error(std::string("write: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> RecvLine(int fd, size_t max_bytes) {
  std::string line;
  char c;
  while (line.size() < max_bytes) {
    ssize_t n = ::read(fd, &c, 1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Error(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (line.empty()) {
        return Error("connection closed");
      }
      return line;  // EOF terminates the final unterminated line.
    }
    if (c == '\n') {
      return line;
    }
    line.push_back(c);
  }
  return Error("wire line exceeds maximum length");
}

}  // namespace cpr::serve
