//===- serve/Socket.h - Blocking TCP sockets for the becd transport -------===//
///
/// \file
/// Thin RAII wrappers over POSIX stream sockets: a connected Socket with
/// buffered newline-delimited reads (the becd framing unit, used by
/// clients and the gateway's upstream links), a ListenSocket that binds
/// ephemeral ports for the event loop (net/EventLoop.h) to poll and
/// accept, and a name-resolving connectTo(). Sockets block; the server's
/// concurrency lives in the event loop, not here. No third-party
/// dependencies.
///
/// Thread-safety: a Socket is owned by one thread at a time.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SERVE_SOCKET_H
#define BEC_SERVE_SOCKET_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bec {
namespace serve {

/// A connected, blocking stream socket with buffered line reads.
class Socket {
public:
  Socket() = default;
  /// Takes ownership of \p FD (a connected socket).
  explicit Socket(int FD) : FD(FD) {}
  Socket(Socket &&O) noexcept;
  Socket &operator=(Socket &&O) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;
  ~Socket();

  bool valid() const { return FD >= 0; }
  int fd() const { return FD; }
  void close();

  /// Sends all of \p Data (retrying short writes). False on any error.
  bool sendAll(std::string_view Data, std::string &Err);

  enum class RecvStatus {
    Line,    ///< One line read; \p Line holds it without the newline.
    Eof,     ///< Orderly close with no buffered line.
    TooLong, ///< The peer sent more than \p MaxLen bytes without a newline.
    Error,   ///< Transport error; \p Err describes it.
  };

  /// Reads the next '\n'-terminated line. A final unterminated chunk
  /// before EOF is not delivered as a line (frames end in newline).
  RecvStatus recvLine(std::string &Line, size_t MaxLen, std::string &Err);

private:
  int FD = -1;
  std::string Buffer; ///< Read-ahead past the last returned line.
};

/// A listening TCP socket (IPv4).
class ListenSocket {
public:
  ListenSocket() = default;
  ListenSocket(const ListenSocket &) = delete;
  ListenSocket &operator=(const ListenSocket &) = delete;
  ~ListenSocket();

  /// Binds \p Host:\p Port (port 0 picks an ephemeral port; see
  /// boundPort()) and listens. False with a diagnostic on failure.
  bool listenOn(const std::string &Host, uint16_t Port, std::string &Err);

  /// The actually bound port (resolves port-0 requests).
  uint16_t boundPort() const { return Port; }

  /// The raw listening descriptor (the event loop polls and accepts it
  /// itself; see net/EventLoop.h). -1 when not listening.
  int fd() const { return FD; }

  void close();
  bool valid() const { return FD >= 0; }

private:
  int FD = -1;
  uint16_t Port = 0;
};

/// Disables Nagle's algorithm on the connected TCP socket \p FD. Frames
/// are small and latency-bound (streamed progress frames most of all);
/// never batch them behind Nagle. Every connection either end of a becd
/// link opens or accepts goes through this.
void setNoDelay(int FD);

/// Splits "host:port" (the --remote and --backends spelling) at its last
/// colon. The port must be plain decimal digits in 1..65535: a sign, a
/// space or an overflow is rejected, never wrapped. False on bad input.
bool splitHostPort(std::string_view Addr, std::string &Host, uint16_t &Port);

/// Resolves \p Host (numeric or named) and connects. nullopt with a
/// diagnostic on failure.
std::optional<Socket> connectTo(const std::string &Host, uint16_t Port,
                                std::string &Err);

} // namespace serve
} // namespace bec

#endif // BEC_SERVE_SOCKET_H
