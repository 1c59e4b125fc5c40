//===- serve/Service.h - The becd request router --------------------------===//
///
/// \file
/// The becd analysis service: the transport-independent request router.
/// It owns the server's one shared AnalysisSession (the "session pool"):
/// every client's programs are interned into the same content-addressed
/// cache, so two clients analyzing the same program — or the same client
/// asking twice — hit the same shard, and the warm hits show up in the
/// `stats` method. handleFrame() maps one request frame to one response
/// frame and is safe to call from any number of threads; it is also the
/// in-process "loopback" entry point used by deterministic tests and by
/// serve::Client::loopback. Over TCP, becd serves it on the net/ event
/// loop (net/EventLoop.h), with handleFrameStreaming as the handler.
///
/// The five subcommand methods (analyze, campaign and its streaming form
/// campaign/run, schedule, harden, report) decode their params into a
/// serve::CommandRequest and run it through serve/Commands.h's
/// runCommand, the function a local `bec` run calls, so output and exit
/// code are the local ones. The other methods (version, stats, metrics,
/// trace/dump, log/level, shutdown, intern, counts) are one table,
/// methodOf. Params and result shapes: docs/serve.md.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_SERVE_SERVICE_H
#define BEC_SERVE_SERVICE_H

#include "api/AnalysisSession.h"
#include "serve/Commands.h"
#include "serve/Protocol.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bec {
namespace serve {

/// Monotonic service counters (all requests since construction).
struct ServiceCounters {
  uint64_t Connections = 0;
  uint64_t Requests = 0;
  uint64_t Errors = 0;
  std::map<std::string, uint64_t> PerMethod;
};

/// The transport-independent request router; see the file comment.
class Service {
public:
  Service() = default;
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// The greeting frame a transport must deliver before any response.
  std::string handshakeFrame() const { return makeHandshakeFrame(); }

  /// Maps one request frame to one response frame (both '\n'-terminated).
  /// Never throws; internal failures become error responses. Thread-safe.
  /// Streaming methods run but emit no intermediate frames.
  std::string handleFrame(std::string_view Line);

  /// Delivers a streaming method's intermediate frames ('\n'-terminated,
  /// in order, serialized by the service) to \p Sink.
  using FrameSink = std::function<void(const std::string &Frame)>;

  /// Like handleFrame, but a streaming method's progress frames go to
  /// \p Sink (may be null) before the final frame is returned. \p Sink
  /// may be invoked from worker threads, but never concurrently and
  /// never after handleFrameStreaming returns.
  std::string handleFrameStreaming(std::string_view Line,
                                   const FrameSink &Sink);

  /// True once a `shutdown` request has been accepted. Transports must
  /// stop reading and drain.
  bool isShuttingDown() const { return Shutdown.load(); }

  /// Transport bookkeeping for the `stats` method.
  void noteConnection() { ++Connections; }

  ServiceCounters counters() const;

  /// The shared session pool (exposed for tests and embedders).
  AnalysisSession &session() { return S; }

private:
  /// One method's outcome: a result payload or a typed error.
  struct Outcome {
    bool Failed = false;
    std::string ResultJson; ///< Serialized result value when !Failed.
    ErrorCode Code = ErrorCode::InternalError;
    std::string Message;
    std::string DataJson; ///< Optional structured error detail.
  };

  static Outcome fail(ErrorCode C, std::string Message,
                      std::string DataJson = {});

  Outcome dispatch(const Request &R, const FrameSink &Sink);
  /// One name: interned program, bundled workload (any case), or null.
  CachedProgramPtr resolveOne(const std::string &Name,
                              std::string &Canonical);

  /// The handler of a method other than the five subcommands; null for
  /// those and for unknown names.
  using Method = Outcome (Service::*)(const JsonValue &Params);
  static Method methodOf(std::string_view Name);

  Outcome methodVersion(const JsonValue &);
  Outcome methodStats(const JsonValue &);
  Outcome methodMetrics(const JsonValue &);
  Outcome methodTraceDump(const JsonValue &Params);
  Outcome methodLogLevel(const JsonValue &Params);
  Outcome methodShutdown(const JsonValue &);
  Outcome methodIntern(const JsonValue &Params);
  Outcome methodCounts(const JsonValue &Params);
  /// The five subcommand methods: decode, resolve targets, runCommand.
  /// Campaign progress frames for request \p Id go to \p Sink (null for
  /// every method but campaign/run).
  Outcome methodCommand(CommandKind K, const JsonValue &Params, uint64_t Id,
                        const FrameSink &Sink);

  AnalysisSession S;

  /// Guards NamedPrograms and the session's target-free interning of
  /// workloads (queries themselves are session-synchronized).
  std::mutex PoolMutex;
  /// Client-visible program names: interned programs plus lazily loaded
  /// bundled workloads (under their canonical names).
  std::map<std::string, CachedProgramPtr, std::less<>> NamedPrograms;

  std::atomic<bool> Shutdown{false};
  std::atomic<uint64_t> Connections{0};
  mutable std::mutex StatsMutex;
  uint64_t Requests = 0;
  uint64_t Errors = 0;
  std::map<std::string, uint64_t> PerMethod;
};

} // namespace serve
} // namespace bec

#endif // BEC_SERVE_SERVICE_H
