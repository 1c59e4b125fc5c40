//===- net/Connection.h - Non-blocking buffered connection ----------------===//
///
/// \file
/// One client connection as the event loop sees it: a non-blocking socket
/// with buffered reads (split into newline-delimited frames on extraction)
/// and buffered writes (flushed as far as EAGAIN allows, resumed on
/// POLLOUT). Unlike serve/Socket.h's blocking Socket, a Connection never
/// blocks the calling thread — partial frames simply stay buffered until
/// the next readable event, and a slow reader's responses queue in OutBuf
/// until the kernel drains them.
///
/// A Connection is owned and driven exclusively by the event-loop thread;
/// worker threads never touch it (they post completed frames back to the
/// loop, which queues the bytes here). The public fields are the loop's
/// per-connection scheduling state: one dispatched request at a time
/// (Busy), parsed-but-undispatched frames (Backlog, the pipeline), and
/// the close/drain lifecycle flags.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_NET_CONNECTION_H
#define BEC_NET_CONNECTION_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace bec {
namespace net {

class Connection {
public:
  /// Takes ownership of \p FD (a connected stream socket), switches it
  /// to non-blocking mode and disables Nagle (serve::setNoDelay).
  Connection(int FD, uint64_t Id);
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;
  ~Connection();

  int fd() const { return FD; }
  uint64_t id() const { return Id; }

  /// Closes the descriptor immediately (error paths; buffered state is
  /// discarded). Safe to call more than once.
  void closeNow();

  enum class IoStatus {
    Ok,     ///< Progress made, or nothing to do right now (EAGAIN).
    Closed, ///< Orderly EOF from the peer (read side only).
    Error,  ///< Transport failure; Err describes it.
  };

  /// Non-blocking read into the input buffer: consumes what the kernel
  /// has, up to a fairness cap per call. Closed reports the peer's EOF
  /// (already-buffered frames remain extractable).
  IoStatus readSome(std::string &Err);

  enum class FrameStatus {
    Frame,   ///< One complete frame extracted (without the newline).
    None,    ///< No complete frame buffered yet.
    TooLong, ///< Unterminated input exceeds \p MaxLen (DoS guard).
  };

  /// Extracts the next complete frame from the input buffer.
  FrameStatus nextFrame(std::string &Line, size_t MaxLen);

  /// Appends \p Data to the output buffer (flushed by flushSome()).
  void queueWrite(std::string_view Data);

  /// Writes as much buffered output as the kernel accepts. Ok with
  /// pendingWriteBytes() > 0 means the socket is full — poll for POLLOUT.
  IoStatus flushSome(std::string &Err);

  bool wantsWrite() const { return OutPos < OutBuf.size(); }
  size_t pendingWriteBytes() const { return OutBuf.size() - OutPos; }
  size_t bufferedReadBytes() const { return InBuf.size() - InPos; }

  // Event-loop scheduling state (loop thread only).
  bool ReadClosed = false;      ///< EOF seen, or reads permanently stopped.
  bool CloseAfterFlush = false; ///< Close once OutBuf drains.
  bool Busy = false;            ///< One request dispatched to a worker.
  bool Dead = false;            ///< Errored while Busy; reap on completion.
  std::deque<std::string> Backlog; ///< Parsed frames awaiting dispatch.

private:
  int FD = -1;
  uint64_t Id = 0;
  std::string InBuf;
  size_t InPos = 0; ///< Consumed prefix of InBuf.
  std::string OutBuf;
  size_t OutPos = 0; ///< Flushed prefix of OutBuf.
};

} // namespace net
} // namespace bec

#endif // BEC_NET_CONNECTION_H
