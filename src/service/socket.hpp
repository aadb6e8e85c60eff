// Thin AF_UNIX plumbing for the sweep service: RAII descriptors, bind/
// connect helpers, and FrameChannel — a buffered stream reader/writer
// speaking exactly one protocol Frame per call.
//
// Local stream sockets are the right transport here: the server and the
// load generator share a host (the service exists to multiplex one
// machine's cores across many small sweeps), filesystem permissions are
// the access control, and SOCK_STREAM gives the framing layer the
// ordered byte stream it assumes. Nothing in this header knows about
// jobs; it moves frames.
#pragma once

#include <optional>
#include <string>

#include "src/service/protocol.hpp"

namespace sops::service {

/// Move-only owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Binds and listens on a fresh AF_UNIX socket at `path`, unlinking any
/// stale file first (the server owns its socket path). Throws
/// std::runtime_error naming the path on failure, including paths too
/// long for sockaddr_un.
[[nodiscard]] Fd listen_unix(const std::string& path, int backlog);

/// Connects to the server socket at `path`. Throws std::runtime_error
/// naming the path on failure ("is the server running?").
[[nodiscard]] Fd connect_unix(const std::string& path);

/// One blocking connection's frame transport, the client's side of the
/// wire. send() writes one encoded frame; recv() reads exactly one frame,
/// returning nullopt on a clean EOF at a frame boundary. A peer that goes
/// away mid-frame, overruns the header ceiling, or sends malformed bytes
/// raises ProtocolError; socket errors raise std::runtime_error.
class FrameChannel {
 public:
  explicit FrameChannel(Fd fd) : fd_(std::move(fd)) {}

  void send(const Frame& frame);
  [[nodiscard]] std::optional<Frame> recv();

  [[nodiscard]] const Fd& fd() const noexcept { return fd_; }

 private:
  Fd fd_;
  std::string buffer_;
};

}  // namespace sops::service
