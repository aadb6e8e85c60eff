#include "src/service/socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace sops::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("service: socket path '" + path +
                             "' empty or too long for AF_UNIX (max " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             " bytes)");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Fd::~Fd() { reset(); }

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Fd listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = make_address(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("service: socket('" + path + "')");
  // The server owns its socket path: a leftover file from a previous
  // run (crash, SIGKILL) must not block startup.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("service: bind('" + path + "')");
  }
  if (::listen(fd.get(), backlog) != 0) {
    throw_errno("service: listen('" + path + "')");
  }
  return fd;
}

Fd connect_unix(const std::string& path) {
  const sockaddr_un addr = make_address(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("service: socket('" + path + "')");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("service: connect('" + path +
                "') failed (is the server running?)");
  }
  return fd;
}

void FrameChannel::send(const Frame& frame) {
  const std::string bytes = encode_frame(frame);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that hung up turns into an error return, not
    // a process-wide SIGPIPE.
    const ssize_t n = ::send(fd_.get(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("service: send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::optional<Frame> FrameChannel::recv() {
  bool at_end = false;
  for (;;) {
    if (at_end && buffer_.empty()) return std::nullopt;  // clean EOF
    Frame frame;
    if (const std::size_t used = decode_frame_prefix(buffer_, at_end, frame)) {
      buffer_.erase(0, used);
      return frame;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("service: recv");
    }
    at_end = n == 0;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace sops::service
