//===- net/EventLoop.h - poll()-based event-loop serving core -------------===//
///
/// \file
/// The becd serving core (docs/serve.md has the architecture picture).
/// EventServer runs one poll()-driven loop thread multiplexing every
/// connection plus a bounded worker pool executing requests, so:
///
///  * connection count is decoupled from thread count — thousands of
///    mostly-idle sockets cost file descriptors, not stacks;
///  * requests may be *pipelined*: a client can write N frames back to
///    back and read N responses in order. Within one connection requests
///    still execute serially (the wire contract), so streaming progress
///    frames never interleave; concurrency comes from connections;
///  * overload is *typed*, not a stall: when every worker is busy and the
///    admission queue is full, a would-be-dispatched request is answered
///    with error 105 `overloaded`; once a drain begins (a `shutdown`
///    request or requestStop()), queued-but-unstarted requests are
///    answered with error 106 `draining`, in-flight ones finish, output
///    buffers flush, and run() returns.
///
/// The request executor is a pluggable FrameHandler, which is how both
/// becd (serve::Service::handleFrameStreaming) and the gateway
/// (net::Gateway::handleFrame) share this core. Handlers run on worker
/// threads and must be thread-safe across connections; per-connection
/// serialization is the loop's job.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_NET_EVENTLOOP_H
#define BEC_NET_EVENTLOOP_H

#include "net/Connection.h"
#include "serve/Protocol.h"
#include "serve/Socket.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace bec {
namespace net {

/// Maps one request line (without its trailing newline) to the final
/// response frame ('\n'-terminated). Intermediate frames of streaming
/// methods go through the sink ('\n'-terminated, in order, never after
/// the handler returns). Called on worker threads.
using FrameSink = std::function<void(const std::string &Frame)>;
using FrameHandler =
    std::function<std::string(std::string_view Line, const FrameSink &Sink)>;

/// The poll()-based serving core; see the file comment.
class EventServer {
public:
  struct Options {
    std::string Host = "127.0.0.1";
    uint16_t Port = serve::DefaultPort; ///< 0 = ephemeral; see port().
    /// Worker threads executing requests. 0 = one per core (floor 1,
    /// cap 64). A CPU-sizing knob: workers never block on the network.
    unsigned Workers = 0;
    /// Admission control: beyond `Workers` running requests, at most
    /// this many more may wait for a worker; the next request that
    /// would dispatch is answered `overloaded` instead.
    size_t QueueDepth = 256;
    /// Per-connection pipeline: parsed-but-undispatched frames held per
    /// connection before the loop stops reading from it (flow control
    /// via TCP backpressure, no error — the client simply blocks).
    size_t MaxPipeline = 64;
    /// Stop reading from a connection while more than this many
    /// response bytes are waiting for its slow reader.
    size_t WriteHighWater = 4u << 20;
    /// Accept cap; connections beyond it are closed immediately.
    size_t MaxConnections = 8192;
  };

  EventServer(FrameHandler Handler, std::string HandshakeFrame, Options O);
  EventServer(const EventServer &) = delete;
  EventServer &operator=(const EventServer &) = delete;
  ~EventServer();

  /// Polled on the loop thread after each completed request; returning
  /// true begins the drain. becd wires this to Service::isShuttingDown
  /// so a `shutdown` request drains the server; the gateway wires its
  /// own flag.
  void setDrainCheck(std::function<bool()> Check) {
    DrainCheck = std::move(Check);
  }

  /// Called on the loop thread for every accepted connection; becd wires
  /// this to Service::noteConnection so the `stats` connection counter
  /// keeps counting under the event-loop engine.
  void setAcceptCallback(std::function<void()> Callback) {
    OnAccept = std::move(Callback);
  }

  /// Binds and listens; false with a diagnostic on failure.
  bool start(std::string &Err);

  /// The bound port (valid after start(); resolves Port=0 requests).
  uint16_t port() const { return Listener.boundPort(); }

  /// Runs the event loop on the calling thread until a drain completes.
  void run();

  /// Thread-safe external stop: begins a graceful drain.
  void requestStop();

private:
  struct Job {
    uint64_t ConnId = 0;
    std::string Line;
    std::chrono::steady_clock::time_point Enqueued;
  };
  struct Completion {
    uint64_t ConnId = 0;
    std::string Frame;
    bool Final = false;
  };

  void workerMain(unsigned Index);
  void postCompletion(uint64_t ConnId, std::string Frame, bool Final);
  void wakeLoop();

  // Loop-thread helpers.
  void acceptPending();
  void handleReadable(Connection &C);
  void handleParsedFrame(Connection &C, std::string Line);
  void pumpConnection(Connection &C);
  void rejectFrame(Connection &C, const std::string &Line,
                   serve::ErrorCode Code, std::string_view Message);
  void startDrain();
  void sweepClosable();
  void markDead(Connection &C);

  FrameHandler Handler;
  std::string HandshakeFrame;
  Options Opts;
  std::function<bool()> DrainCheck;
  std::function<void()> OnAccept;

  serve::ListenSocket Listener;
  int WakeRead = -1, WakeWrite = -1;
  uint64_t NextConnId = 1;
  std::map<uint64_t, std::unique_ptr<Connection>> Conns;
  size_t InFlight = 0; ///< Dispatched, final frame not yet processed.
  bool Draining = false;
  std::atomic<bool> StopRequested{false};

  std::vector<std::thread> Workers;
  std::mutex JobMutex;
  std::condition_variable JobCv;
  std::deque<Job> Jobs;
  bool WorkersStop = false;

  std::mutex CompMutex;
  std::vector<Completion> Completions;
};

} // namespace net
} // namespace bec

#endif // BEC_NET_EVENTLOOP_H
