//===- net/EventLoop.cpp - poll()-based event-loop serving core -----------===//

#include "net/EventLoop.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace bec;
using namespace bec::net;
using serve::ErrorCode;

namespace {

/// Worker sizing: CPU-bound request execution (handlers never block on
/// the network), so one per core, floor 1, sane cap.
unsigned workerCount(unsigned Requested) {
  if (Requested == 0) {
    Requested = std::thread::hardware_concurrency();
    if (Requested == 0)
      Requested = 1;
  }
  return Requested > 64 ? 64 : Requested;
}

void setNonBlocking(int FD) {
  int Flags = ::fcntl(FD, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(FD, F_SETFL, Flags | O_NONBLOCK);
}

/// How long a drain waits for slow readers to take their last bytes
/// before force-closing their connections.
constexpr auto DrainFlushGrace = std::chrono::seconds(5);

} // namespace

EventServer::EventServer(FrameHandler Handler, std::string HandshakeFrame,
                         Options O)
    : Handler(std::move(Handler)), HandshakeFrame(std::move(HandshakeFrame)),
      Opts(std::move(O)) {
  Opts.Workers = workerCount(Opts.Workers);
}

EventServer::~EventServer() {
  if (WakeRead >= 0)
    ::close(WakeRead);
  if (WakeWrite >= 0)
    ::close(WakeWrite);
}

bool EventServer::start(std::string &Err) {
  int Pipe[2];
  if (WakeRead < 0) {
    if (::pipe(Pipe) != 0) {
      Err = "pipe failed";
      return false;
    }
    WakeRead = Pipe[0];
    WakeWrite = Pipe[1];
    setNonBlocking(WakeRead);
    setNonBlocking(WakeWrite);
  }
  if (!Listener.listenOn(Opts.Host, Opts.Port, Err))
    return false;
  setNonBlocking(Listener.fd());
  return true;
}

void EventServer::requestStop() {
  StopRequested.store(true);
  wakeLoop();
}

void EventServer::wakeLoop() {
  char B = 1;
  // A full pipe already guarantees a pending wakeup.
  (void)!::write(WakeWrite, &B, 1);
}

void EventServer::postCompletion(uint64_t ConnId, std::string Frame,
                                 bool Final) {
  {
    std::lock_guard<std::mutex> Lock(CompMutex);
    Completions.push_back({ConnId, std::move(Frame), Final});
  }
  wakeLoop();
}

void EventServer::workerMain(unsigned Index) {
  obs::setTraceThreadName("net-worker-" + std::to_string(Index));
  static const obs::Histogram WaitUs("net.loop.dispatch.wait.us");
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(JobMutex);
      JobCv.wait(Lock, [&] { return WorkersStop || !Jobs.empty(); });
      if (Jobs.empty())
        return; // WorkersStop, queue drained.
      J = std::move(Jobs.front());
      Jobs.pop_front();
    }
    auto Wait = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - J.Enqueued)
                    .count();
    WaitUs.observeUs(Wait < 0 ? 0 : uint64_t(Wait));
    uint64_t ConnId = J.ConnId;
    std::string Final;
    {
      // Both scopes close before the final frame is posted: once it is,
      // the client may act on its answer, and a trace written then (an
      // in-process client's --trace-out) must not hold an open span.
      obs::Span S("net.request");
      S.arg("wait_us", Wait < 0 ? 0 : uint64_t(Wait));
      // Establishes the conn id for every log line the handler emits (the
      // service layer's scope inherits it; see obs/Log.h).
      obs::LogRequestScope LogScope(ConnId, {}, {});
      Final = Handler(J.Line, [&](const std::string &Frame) {
        postCompletion(ConnId, Frame, /*Final=*/false);
      });
    }
    postCompletion(ConnId, std::move(Final), /*Final=*/true);
  }
}

void EventServer::rejectFrame(Connection &C, const std::string &Line,
                              ErrorCode Code, std::string_view Message) {
  // The id is recovered by a full parse; rejections are rare enough that
  // the loop-side parse cost does not matter.
  serve::ParsedFrame P = serve::parseRequestFrame(Line);
  std::optional<uint64_t> Id = P.Req ? std::optional<uint64_t>(P.Req->Id)
                                     : P.Id;
  C.queueWrite(serve::makeErrorFrame(Id, Code, Message));
  std::string Err;
  if (C.flushSome(Err) == Connection::IoStatus::Error)
    markDead(C);
}

void EventServer::handleParsedFrame(Connection &C, std::string Line) {
  static const obs::Counter Requests("net.loop.requests");
  static const obs::Counter RejDraining("net.loop.rejected.draining");
  static const obs::Histogram PipelineDepth("net.loop.pipeline.depth");
  if (Draining) {
    RejDraining.add();
    rejectFrame(C, Line, ErrorCode::Draining,
                "server is draining; request refused");
    return;
  }
  Requests.add();
  C.Backlog.push_back(std::move(Line));
  PipelineDepth.observeUs(C.Backlog.size());
  pumpConnection(C);
}

void EventServer::pumpConnection(Connection &C) {
  static const obs::Counter RejOverload("net.loop.rejected.overload");
  static const obs::Counter RejDraining("net.loop.rejected.draining");
  static const obs::Gauge QueueGauge("net.loop.queue.depth");
  while (!C.Busy && !C.Backlog.empty()) {
    std::string Line = std::move(C.Backlog.front());
    C.Backlog.pop_front();
    if (Draining) {
      RejDraining.add();
      rejectFrame(C, Line, ErrorCode::Draining,
                  "server is draining; request refused");
      if (C.Dead)
        return;
      continue;
    }
    if (InFlight >= size_t(Opts.Workers) + Opts.QueueDepth) {
      RejOverload.add();
      if (obs::logEnabled(obs::LogLevel::Warn))
        obs::log(obs::LogLevel::Warn, "net.overload",
                 {{"conn", C.id()}, {"inflight", uint64_t(InFlight)}});
      rejectFrame(C, Line, ErrorCode::Overloaded,
                  "server overloaded; worker queue full");
      if (C.Dead)
        return;
      continue;
    }
    ++InFlight;
    C.Busy = true;
    QueueGauge.set(int64_t(InFlight));
    {
      std::lock_guard<std::mutex> Lock(JobMutex);
      Jobs.push_back({C.id(), std::move(Line), std::chrono::steady_clock::now()});
    }
    JobCv.notify_one();
  }
}

void EventServer::handleReadable(Connection &C) {
  static const obs::Counter Oversized("net.loop.frames.oversized");
  std::string Err;
  Connection::IoStatus St = C.readSome(Err);
  if (St == Connection::IoStatus::Error) {
    markDead(C);
    return;
  }
  if (St == Connection::IoStatus::Closed)
    C.ReadClosed = true;
  std::string Line;
  for (;;) {
    Connection::FrameStatus FS = C.nextFrame(Line, serve::MaxFrameBytes);
    if (FS == Connection::FrameStatus::None)
      break;
    if (FS == Connection::FrameStatus::TooLong) {
      Oversized.add();
      if (obs::logEnabled(obs::LogLevel::Warn))
        obs::log(obs::LogLevel::Warn, "net.frame.oversized",
                 {{"conn", C.id()},
                  {"limit_bytes", uint64_t(serve::MaxFrameBytes)}});
      C.queueWrite(serve::makeErrorFrame(
          std::nullopt, ErrorCode::ParseError,
          "frame exceeds " + std::to_string(serve::MaxFrameBytes) +
              " bytes"));
      C.ReadClosed = true;
      C.CloseAfterFlush = true;
      std::string FlushErr;
      if (C.flushSome(FlushErr) == Connection::IoStatus::Error)
        markDead(C);
      return;
    }
    handleParsedFrame(C, std::move(Line));
    if (C.Dead)
      return;
    if (C.Backlog.size() >= Opts.MaxPipeline)
      break; // Flow control: leave the rest buffered, pause reads.
  }
}

void EventServer::startDrain() {
  static const obs::Counter RejDraining("net.loop.rejected.draining");
  if (Draining)
    return;
  Draining = true;
  obs::log(obs::LogLevel::Info, "net.drain.start",
           {{"open_conns", uint64_t(Conns.size())},
            {"inflight", uint64_t(InFlight)}});
  Listener.close();
  for (auto &[Id, C] : Conns) {
    if (C->Dead)
      continue;
    while (!C->Backlog.empty()) {
      std::string Line = std::move(C->Backlog.front());
      C->Backlog.pop_front();
      RejDraining.add();
      rejectFrame(*C, Line, ErrorCode::Draining,
                  "server is draining; request refused");
      if (C->Dead)
        break;
    }
  }
}

void EventServer::markDead(Connection &C) {
  // Never erases: callers may hold references up the stack. The entry is
  // reaped by sweepClosable(), or — while a worker still owns its
  // in-flight request — by that request's final completion.
  if (obs::logEnabled(obs::LogLevel::Debug))
    obs::log(obs::LogLevel::Debug, "net.conn.close", {{"conn", C.id()}});
  C.Dead = true;
  C.Backlog.clear();
  C.closeNow();
}

void EventServer::sweepClosable() {
  std::vector<uint64_t> Doomed;
  for (auto &[Id, C] : Conns) {
    if (C->Busy)
      continue;
    if (C->Dead) {
      Doomed.push_back(Id);
      continue;
    }
    if (!C->Backlog.empty() || C->wantsWrite())
      continue;
    if (C->CloseAfterFlush || C->ReadClosed || Draining) {
      // Graceful closes skip markDead(), so pair the accept line here.
      if (obs::logEnabled(obs::LogLevel::Debug))
        obs::log(obs::LogLevel::Debug, "net.conn.close", {{"conn", Id}});
      Doomed.push_back(Id);
    }
  }
  for (uint64_t Id : Doomed)
    Conns.erase(Id);
}

void EventServer::acceptPending() {
  static const obs::Counter Accepted("net.loop.accepted");
  for (;;) {
    if (Conns.size() >= Opts.MaxConnections)
      return; // Leave the rest in the kernel backlog (backpressure).
    int FD = ::accept4(Listener.fd(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (FD < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN, or a transient per-connection failure.
    }
    Accepted.add();
    if (OnAccept)
      OnAccept();
    uint64_t Id = NextConnId++;
    if (obs::logEnabled(obs::LogLevel::Debug))
      obs::log(obs::LogLevel::Debug, "net.conn.accept", {{"conn", Id}});
    auto C = std::make_unique<Connection>(FD, Id);
    C->queueWrite(HandshakeFrame);
    std::string Err;
    if (C->flushSome(Err) == Connection::IoStatus::Error)
      continue; // Destroyed with C.
    Conns.emplace(Id, std::move(C));
  }
}

void EventServer::run() {
  static const obs::Gauge OpenGauge("net.loop.connections");
  static const obs::Gauge QueueGauge("net.loop.queue.depth");
  for (unsigned I = 0; I < Opts.Workers; ++I)
    Workers.emplace_back([this, I] { workerMain(I); });

  std::chrono::steady_clock::time_point DrainStartedAt{};
  std::vector<pollfd> Fds;
  std::vector<uint64_t> FdConn; // Parallel: owning conn id, 0 for none.
  for (;;) {
    Fds.clear();
    FdConn.clear();
    Fds.push_back({WakeRead, POLLIN, 0});
    FdConn.push_back(0);
    if (!Draining && Listener.valid()) {
      Fds.push_back({Listener.fd(), POLLIN, 0});
      FdConn.push_back(0);
    }
    for (auto &[Id, C] : Conns) {
      if (C->Dead)
        continue;
      short Ev = 0;
      if (!C->ReadClosed && !Draining && C->Backlog.size() < Opts.MaxPipeline &&
          C->pendingWriteBytes() < Opts.WriteHighWater)
        Ev |= POLLIN;
      if (C->wantsWrite())
        Ev |= POLLOUT;
      if (!Ev)
        continue; // Busy/paused: completions arrive via the wake pipe.
      Fds.push_back({C->fd(), Ev, 0});
      FdConn.push_back(Id);
    }

    int N = ::poll(Fds.data(), nfds_t(Fds.size()), Draining ? 100 : -1);
    if (N < 0 && errno != EINTR)
      break;

    if (Fds[0].revents & POLLIN) {
      char Buf[256];
      while (::read(WakeRead, Buf, sizeof(Buf)) > 0)
        ;
    }
    if (StopRequested.load())
      startDrain();

    // Worker completions: response/progress bytes back onto their
    // connections, in post order (per-connection FIFO by construction).
    std::vector<Completion> Batch;
    {
      std::lock_guard<std::mutex> Lock(CompMutex);
      Batch.swap(Completions);
    }
    for (Completion &Done : Batch) {
      auto It = Conns.find(Done.ConnId);
      if (It == Conns.end()) {
        if (Done.Final)
          --InFlight;
        continue;
      }
      Connection &C = *It->second;
      if (C.Dead) {
        if (Done.Final) {
          --InFlight;
          C.Busy = false;
        }
        continue;
      }
      C.queueWrite(Done.Frame);
      std::string Err;
      bool WriteFailed = C.flushSome(Err) == Connection::IoStatus::Error;
      if (Done.Final) {
        --InFlight;
        C.Busy = false;
        QueueGauge.set(int64_t(InFlight));
        if (!Draining && DrainCheck && DrainCheck())
          startDrain();
      }
      if (WriteFailed) {
        markDead(C);
        continue;
      }
      if (Done.Final)
        pumpConnection(C);
    }

    // I/O events. Completion processing above may have erased a
    // connection, so resolve ids against the live map.
    for (size_t I = 1; I < Fds.size(); ++I) {
      if (!Fds[I].revents)
        continue;
      if (FdConn[I] == 0) {
        acceptPending();
        continue;
      }
      auto It = Conns.find(FdConn[I]);
      if (It == Conns.end() || It->second->Dead)
        continue;
      Connection &C = *It->second;
      if (Fds[I].revents & (POLLIN | POLLERR | POLLHUP)) {
        handleReadable(C);
        It = Conns.find(FdConn[I]);
        if (It == Conns.end() || It->second->Dead)
          continue;
      }
      if (Fds[I].revents & POLLOUT) {
        std::string Err;
        if (C.flushSome(Err) == Connection::IoStatus::Error)
          markDead(C);
      }
    }

    sweepClosable();
    OpenGauge.set(int64_t(Conns.size()));

    if (Draining) {
      if (DrainStartedAt == std::chrono::steady_clock::time_point{})
        DrainStartedAt = std::chrono::steady_clock::now();
      else if (std::chrono::steady_clock::now() - DrainStartedAt >
               DrainFlushGrace) {
        // Slow readers forfeit their buffered responses.
        for (auto &[Id, C] : Conns)
          if (!C->Dead)
            markDead(*C);
        sweepClosable();
      }
      if (Conns.empty() && InFlight == 0)
        break;
    }
  }

  {
    std::lock_guard<std::mutex> Lock(JobMutex);
    WorkersStop = true;
  }
  JobCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();
  Listener.close();
  OpenGauge.set(0);
}
