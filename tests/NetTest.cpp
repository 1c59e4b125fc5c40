//===- tests/NetTest.cpp - event-loop serving core and gateway ------------===//
//
// The net/ contract under test:
//  * framing: frames split across arbitrarily small reads reassemble;
//    pipelined requests answer in order; oversized frames are rejected
//    with a typed parse error and the connection closes after the flush;
//  * flow: a slow reader only stalls its own connection (the loop
//    buffers and finishes the writes); a half-closed peer still receives
//    every response for the requests it sent, then EOF; 1000 idle
//    connections answer a one-request-each burst with none dropped or
//    garbled;
//  * backpressure: admission control answers error 105 `overloaded` when
//    the worker queue is full, and error 106 `draining` for requests
//    caught by a graceful drain;
//  * latency: every accepted connection has Nagle disabled;
//  * equivalence: responses through the event-loop server are
//    byte-identical to the loopback Service;
//  * gateway: the consistent-hash ring is deterministic and mostly
//    stable under backend addition; forwarding fails over with intern
//    replay byte-identically; drain/undrain steer routing; `stats`
//    aggregates every backend.
//
//===----------------------------------------------------------------------===//

#include "net/EventLoop.h"
#include "net/Gateway.h"
#include "obs/Log.h"
#include "obs/SpanRing.h"
#include "serve/Client.h"
#include "serve/Service.h"
#include "serve/Socket.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <set>
#include <sstream>
#include <sys/socket.h>
#include <thread>

using namespace bec;
using namespace bec::net;
using serve::ErrorCode;

namespace {

/// A live event-loop server on an ephemeral port, torn down on scope
/// exit. The handler defaults to a loopback Service.
struct LoopFixture {
  serve::Service Svc;
  EventServer Srv;
  std::thread Runner;

  explicit LoopFixture(EventServer::Options O = {})
      : Srv(
            [this](std::string_view Line, const FrameSink &Sink) {
              return Svc.handleFrameStreaming(Line, Sink);
            },
            serve::makeHandshakeFrame(), [&O] {
              O.Port = 0;
              return O;
            }()) {
    Srv.setDrainCheck([this] { return Svc.isShuttingDown(); });
    startAndRun();
  }

  /// A custom handler (no Service behind it).
  LoopFixture(FrameHandler Handler, EventServer::Options O)
      : Srv(std::move(Handler), serve::makeHandshakeFrame(), [&O] {
          O.Port = 0;
          return O;
        }()) {
    startAndRun();
  }

  void startAndRun() {
    std::string Err;
    if (!Srv.start(Err))
      ADD_FAILURE() << "event server start failed: " << Err;
    Runner = std::thread([this] { Srv.run(); });
  }

  ~LoopFixture() {
    Srv.requestStop();
    if (Runner.joinable())
      Runner.join();
  }

  /// A raw connected socket past the handshake frame.
  serve::Socket connectRaw() {
    std::string Err;
    std::optional<serve::Socket> S =
        serve::connectTo("127.0.0.1", Srv.port(), Err);
    if (!S)
      throw std::runtime_error("connect failed: " + Err);
    std::string Line;
    if (S->recvLine(Line, serve::MaxFrameBytes, Err) !=
        serve::Socket::RecvStatus::Line)
      throw std::runtime_error("no handshake: " + Err);
    return std::move(*S);
  }
};

/// Reads one response frame and parses it.
serve::Response recvResponse(serve::Socket &S) {
  std::string Line, Err;
  EXPECT_EQ(S.recvLine(Line, serve::MaxFrameBytes, Err),
            serve::Socket::RecvStatus::Line)
      << Err;
  std::optional<serve::Response> R = serve::parseResponseFrame(Line, Err);
  EXPECT_TRUE(R.has_value()) << Err << ": " << Line;
  return R ? *R : serve::Response{};
}

/// A gate the blocking-handler tests use to hold a request in flight.
struct Gate {
  std::mutex Mu;
  std::condition_variable Cv;
  bool Open = false;
  std::atomic<unsigned> Entered{0};

  void release() {
    std::lock_guard<std::mutex> Lock(Mu);
    Open = true;
    Cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Open; });
  }
  bool awaitEntered(unsigned N) {
    for (int I = 0; I < 200; ++I) {
      if (Entered.load() >= N)
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }
};

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

TEST(EventLoop, ReassemblesFramesSplitAcrossReads) {
  LoopFixture F;
  serve::Socket S = F.connectRaw();
  std::string Frame = serve::makeRequestFrame(3, "version", "");
  // Dribble the frame byte by byte; every send is a separate read on the
  // loop side (loopback delivers promptly, and the loop must buffer
  // partial lines indefinitely).
  std::string Err;
  for (char C : Frame) {
    ASSERT_TRUE(S.sendAll(std::string_view(&C, 1), Err)) << Err;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  serve::Response R = recvResponse(S);
  EXPECT_FALSE(R.IsError);
  EXPECT_EQ(R.Id, 3u);
}

TEST(EventLoop, AcceptedConnectionsDisableNagle) {
  // Streamed progress frames are small back-to-back writes: exactly what
  // Nagle's algorithm would hold back behind an unacknowledged segment.
  serve::ListenSocket L;
  std::string Err;
  ASSERT_TRUE(L.listenOn("127.0.0.1", 0, Err)) << Err;
  std::optional<serve::Socket> Client =
      serve::connectTo("127.0.0.1", L.boundPort(), Err);
  ASSERT_TRUE(Client.has_value()) << Err;
  int FD = ::accept(L.fd(), nullptr, nullptr);
  ASSERT_GE(FD, 0);
  Connection C(FD, 1);
  int NoDelay = 0;
  socklen_t Len = sizeof NoDelay;
  ASSERT_EQ(::getsockopt(C.fd(), IPPROTO_TCP, TCP_NODELAY, &NoDelay, &Len),
            0);
  EXPECT_EQ(NoDelay, 1);
}

TEST(EventLoop, PipelinedRequestsAnswerInOrder) {
  LoopFixture F;
  serve::Socket S = F.connectRaw();
  std::string Batch;
  for (uint64_t Id = 1; Id <= 20; ++Id)
    Batch += serve::makeRequestFrame(Id, "version", "");
  std::string Err;
  ASSERT_TRUE(S.sendAll(Batch, Err)) << Err;
  for (uint64_t Id = 1; Id <= 20; ++Id) {
    serve::Response R = recvResponse(S);
    EXPECT_FALSE(R.IsError);
    EXPECT_EQ(R.Id, Id) << "responses out of order";
  }
}

TEST(EventLoop, RejectsOversizedFrameAndCloses) {
  LoopFixture F;
  serve::Socket S = F.connectRaw();
  // More bytes than MaxFrameBytes with no newline: the server must
  // answer a typed parse error rather than buffer without bound.
  std::string Chunk(1 << 20, 'x');
  std::string Err;
  for (size_t Sent = 0; Sent <= serve::MaxFrameBytes; Sent += Chunk.size())
    ASSERT_TRUE(S.sendAll(Chunk, Err)) << Err;
  serve::Response R = recvResponse(S);
  EXPECT_TRUE(R.IsError);
  EXPECT_EQ(R.Code, ErrorCode::ParseError);
  // The server closes the connection; with our unread garbage still in
  // its buffers the close may surface as RST rather than orderly EOF.
  std::string Line;
  serve::Socket::RecvStatus St = S.recvLine(Line, serve::MaxFrameBytes, Err);
  EXPECT_TRUE(St == serve::Socket::RecvStatus::Eof ||
              St == serve::Socket::RecvStatus::Error);
}

TEST(EventLoop, SlowReaderOnlyStallsItself) {
  // A handler with a fat response: 16 pipelined requests produce ~4 MB,
  // far past the loopback socket buffers, forcing the loop through its
  // EAGAIN partial-write path while the client deliberately reads
  // nothing.
  const std::string Payload(256 * 1024, 'y');
  EventServer::Options O;
  O.Workers = 2;
  LoopFixture F(
      [&](std::string_view Line, const FrameSink &) {
        serve::ParsedFrame P = serve::parseRequestFrame(Line);
        return serve::makeResultFrame(P.Req ? P.Req->Id : 0,
                                      "\"" + Payload + "\"");
      },
      O);
  serve::Socket Slow = F.connectRaw();
  std::string Batch;
  for (uint64_t Id = 1; Id <= 16; ++Id)
    Batch += serve::makeRequestFrame(Id, "anything", "");
  std::string Err;
  ASSERT_TRUE(Slow.sendAll(Batch, Err)) << Err;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // A second connection is not head-of-line blocked by the slow reader.
  serve::Socket Other = F.connectRaw();
  ASSERT_TRUE(Other.sendAll(serve::makeRequestFrame(99, "x", ""), Err));
  EXPECT_EQ(recvResponse(Other).Id, 99u);

  for (uint64_t Id = 1; Id <= 16; ++Id) {
    std::string Line;
    ASSERT_EQ(Slow.recvLine(Line, serve::MaxFrameBytes, Err),
              serve::Socket::RecvStatus::Line)
        << Err;
    std::optional<serve::Response> R = serve::parseResponseFrame(Line, Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_EQ(R->Id, Id);
    EXPECT_EQ(*R->Result.asString(), Payload) << "garbled frame";
  }
}

TEST(EventLoop, HalfClosedPeerStillGetsItsResponses) {
  LoopFixture F;
  serve::Socket S = F.connectRaw();
  std::string Batch;
  for (uint64_t Id = 1; Id <= 3; ++Id)
    Batch += serve::makeRequestFrame(Id, "version", "");
  std::string Err;
  ASSERT_TRUE(S.sendAll(Batch, Err)) << Err;
  // Half-close: we are done writing, but the responses must still come.
  ASSERT_EQ(::shutdown(S.fd(), SHUT_WR), 0);
  for (uint64_t Id = 1; Id <= 3; ++Id)
    EXPECT_EQ(recvResponse(S).Id, Id);
  std::string Line;
  EXPECT_EQ(S.recvLine(Line, serve::MaxFrameBytes, Err),
            serve::Socket::RecvStatus::Eof);
}

TEST(EventLoop, ThousandIdleConnectionsAnswerOneBurst) {
  // Connection count is decoupled from thread count: 1000 connections sit
  // idle on the loop, then each sends one request at once, and every
  // response arrives whole on its own connection.
  EventServer::Options O;
  O.QueueDepth = 2048; // The burst must not meet error 105 `overloaded`.
  LoopFixture F(O);
  constexpr size_t Conns = 1000;
  std::vector<serve::Socket> Socks;
  for (size_t I = 0; I < Conns; ++I)
    Socks.push_back(F.connectRaw());
  std::string Err;
  for (size_t I = 0; I < Conns; ++I)
    ASSERT_TRUE(
        Socks[I].sendAll(serve::makeRequestFrame(I + 1, "version", ""), Err))
        << Err;
  unsigned Dropped = 0, Garbled = 0;
  for (size_t I = 0; I < Conns; ++I) {
    std::string Line;
    if (Socks[I].recvLine(Line, serve::MaxFrameBytes, Err) !=
        serve::Socket::RecvStatus::Line) {
      ++Dropped;
      continue;
    }
    std::optional<serve::Response> R = serve::parseResponseFrame(Line, Err);
    Garbled += !R || R->IsError || R->Id != I + 1;
  }
  EXPECT_EQ(Dropped, 0u);
  EXPECT_EQ(Garbled, 0u);
}

//===----------------------------------------------------------------------===//
// Typed backpressure
//===----------------------------------------------------------------------===//

TEST(EventLoop, OverloadAnswersError105) {
  Gate G;
  EventServer::Options O;
  O.Workers = 1;
  O.QueueDepth = 1; // Admission cap: 2 in flight across the server.
  LoopFixture F(
      [&](std::string_view Line, const FrameSink &) {
        ++G.Entered;
        G.wait();
        serve::ParsedFrame P = serve::parseRequestFrame(Line);
        return serve::makeResultFrame(P.Req ? P.Req->Id : 0, "\"done\"");
      },
      O);
  std::string Err;
  serve::Socket C1 = F.connectRaw();
  ASSERT_TRUE(C1.sendAll(serve::makeRequestFrame(1, "block", ""), Err));
  ASSERT_TRUE(G.awaitEntered(1)) << "first request never dispatched";
  serve::Socket C2 = F.connectRaw();
  ASSERT_TRUE(C2.sendAll(serve::makeRequestFrame(2, "block", ""), Err));
  // C2's request occupies the one queue slot; give the loop a moment to
  // dispatch it before the request that must be refused.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  serve::Socket C3 = F.connectRaw();
  ASSERT_TRUE(C3.sendAll(serve::makeRequestFrame(3, "block", ""), Err));
  serve::Response Rejected = recvResponse(C3);
  EXPECT_TRUE(Rejected.IsError);
  EXPECT_EQ(Rejected.Code, ErrorCode::Overloaded);
  EXPECT_EQ(Rejected.ErrorName, "overloaded");
  EXPECT_EQ(Rejected.Id, 3u);

  G.release();
  EXPECT_FALSE(recvResponse(C1).IsError);
  EXPECT_FALSE(recvResponse(C2).IsError);
}

TEST(EventLoop, DrainRejectsQueuedRequestsWithError106) {
  Gate G;
  EventServer::Options O;
  O.Workers = 1;
  LoopFixture F(
      [&](std::string_view Line, const FrameSink &) {
        ++G.Entered;
        G.wait();
        serve::ParsedFrame P = serve::parseRequestFrame(Line);
        return serve::makeResultFrame(P.Req ? P.Req->Id : 0, "\"done\"");
      },
      O);
  serve::Socket S = F.connectRaw();
  std::string Batch;
  for (uint64_t Id = 1; Id <= 3; ++Id)
    Batch += serve::makeRequestFrame(Id, "block", "");
  std::string Err;
  ASSERT_TRUE(S.sendAll(Batch, Err)) << Err;
  // Request 1 is in the handler; 2 and 3 sit in the connection backlog
  // (per-connection serial execution).
  ASSERT_TRUE(G.awaitEntered(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  F.Srv.requestStop(); // Begin the drain; the backlog must be refused.
  G.release();

  std::map<uint64_t, serve::Response> ById;
  for (int I = 0; I < 3; ++I) {
    serve::Response R = recvResponse(S);
    ById[R.Id] = R;
  }
  ASSERT_EQ(ById.size(), 3u);
  EXPECT_FALSE(ById[1].IsError) << "in-flight request must finish";
  EXPECT_TRUE(ById[2].IsError);
  EXPECT_EQ(ById[2].Code, ErrorCode::Draining);
  EXPECT_EQ(ById[2].ErrorName, "draining");
  EXPECT_TRUE(ById[3].IsError);
  EXPECT_EQ(ById[3].Code, ErrorCode::Draining);
  std::string Line;
  EXPECT_EQ(S.recvLine(Line, serve::MaxFrameBytes, Err),
            serve::Socket::RecvStatus::Eof);
}

TEST(EventLoop, ShutdownMethodDrainsTheServer) {
  LoopFixture F;
  serve::Socket S = F.connectRaw();
  std::string Err;
  ASSERT_TRUE(S.sendAll(serve::makeRequestFrame(1, "shutdown", ""), Err));
  serve::Response R = recvResponse(S);
  EXPECT_FALSE(R.IsError);
  std::string Line;
  EXPECT_EQ(S.recvLine(Line, serve::MaxFrameBytes, Err),
            serve::Socket::RecvStatus::Eof);
  F.Runner.join(); // run() must return on its own.
}

//===----------------------------------------------------------------------===//
// Equivalence with the loopback Service
//===----------------------------------------------------------------------===//

TEST(EventLoop, ResponsesAreByteIdenticalToLoopback) {
  LoopFixture F;
  serve::Service Loopback;
  serve::Socket S = F.connectRaw();
  const char *Frames[] = {
      "{\"id\":1,\"method\":\"version\"}",
      "{\"id\":2,\"method\":\"analyze\",\"params\":{\"targets\":[\"bitcount\"]}}",
      "{\"id\":3,\"method\":\"counts\",\"params\":{\"target\":\"crc32\"}}",
      "{\"id\":4,\"method\":\"nope\"}",
      "{\"id\":5,\"method\":\"counts\",\"params\":{\"target\":\"missing\"}}",
  };
  std::string Err;
  for (const char *Frame : Frames) {
    ASSERT_TRUE(S.sendAll(std::string(Frame) + "\n", Err)) << Err;
    std::string Line;
    ASSERT_EQ(S.recvLine(Line, serve::MaxFrameBytes, Err),
              serve::Socket::RecvStatus::Line)
        << Err;
    EXPECT_EQ(Line + "\n", Loopback.handleFrame(Frame)) << Frame;
  }
}

//===----------------------------------------------------------------------===//
// Gateway
//===----------------------------------------------------------------------===//

TEST(Gateway, RingIsDeterministicAcrossInstances) {
  Gateway::Options O;
  // Nothing listens on these ports; the ring does not care.
  O.Backends = {"127.0.0.1:9", "127.0.0.1:10", "127.0.0.1:11"};
  O.HealthIntervalMs = 60000;
  Gateway A(O), B(O);
  std::string Err;
  ASSERT_TRUE(A.start(Err)) << Err;
  ASSERT_TRUE(B.start(Err)) << Err;
  for (int I = 0; I < 100; ++I) {
    std::string Key = "program-" + std::to_string(I);
    EXPECT_EQ(A.backendIndexFor(Key), B.backendIndexFor(Key));
  }
}

TEST(Gateway, AddingABackendRemapsOnlyAFractionOfKeys) {
  Gateway::Options Two;
  Two.Backends = {"127.0.0.1:9", "127.0.0.1:10"};
  Two.HealthIntervalMs = 60000;
  Gateway::Options Three = Two;
  Three.Backends.push_back("127.0.0.1:11");
  Gateway A(Two), B(Three);
  std::string Err;
  ASSERT_TRUE(A.start(Err)) << Err;
  ASSERT_TRUE(B.start(Err)) << Err;
  const int Keys = 400;
  int Moved = 0;
  std::set<size_t> Used;
  for (int I = 0; I < Keys; ++I) {
    std::string Key = "program-" + std::to_string(I);
    size_t From = A.backendIndexFor(Key);
    size_t To = B.backendIndexFor(Key);
    Used.insert(To);
    // The shared backends keep their indices (same Options order), so a
    // key moved iff its assignment changed.
    if (From != To) {
      EXPECT_EQ(To, 2u) << "keys may only move to the new backend";
      ++Moved;
    }
  }
  EXPECT_EQ(Used.size(), 3u) << "new backend got no keys";
  // Ideal is 1/3; consistent hashing with 64 vnodes lands near it. A
  // naive mod-N rehash would move ~2/3.
  EXPECT_GT(Moved, Keys / 10);
  EXPECT_LT(Moved, Keys / 2);
}

TEST(Gateway, RejectsMalformedBackends) {
  std::string Err;
  {
    Gateway GW(Gateway::Options{});
    EXPECT_FALSE(GW.start(Err));
  }
  {
    Gateway::Options O;
    O.Backends = {"no-port-here"};
    Gateway GW(O);
    EXPECT_FALSE(GW.start(Err));
    EXPECT_NE(Err.find("no-port-here"), std::string::npos);
  }
}

/// Two live becd backends on the event loop plus a gateway driven
/// in-process through its FrameHandler (what the wire would call).
struct GatewayFixture {
  LoopFixture B1, B2;
  Gateway GW;

  GatewayFixture()
      : GW([this] {
          Gateway::Options O;
          O.Backends = {"127.0.0.1:" + std::to_string(B1.Srv.port()),
                        "127.0.0.1:" + std::to_string(B2.Srv.port())};
          // Long interval: tests control health by killing backends and
          // observing failover, not the prober.
          O.HealthIntervalMs = 60000;
          return O;
        }()) {
    std::string Err;
    if (!GW.start(Err))
      ADD_FAILURE() << "gateway start failed: " << Err;
  }

  /// One request/response through the gateway (progress frames dropped).
  std::string call(const std::string &Frame) {
    return GW.handleFrame(
        std::string_view(Frame).substr(0, Frame.size() - 1),
        [](const std::string &) {});
  }
};

const char *InternAsm = ".width 8\n"
                        "main:\n"
                        "  li t0, 3\n"
                        "  li t1, 106\n"
                        "  add t2, t0, t1\n"
                        "  halt\n";

std::string internParams(std::string_view Name) {
  JsonWriter W;
  W.beginObject();
  W.key("name").value(Name);
  W.key("asm").value(InternAsm);
  W.endObject();
  return W.take();
}

TEST(Gateway, FailoverReplaysInternsByteIdentically) {
  GatewayFixture F;
  std::string R = F.call(serve::makeRequestFrame(1, "intern",
                                                 internParams("prog")));
  ASSERT_NE(R.find("\"result\""), std::string::npos) << R;

  std::string CountsFrame =
      serve::makeRequestFrame(2, "counts", "{\"target\":\"prog\"}");
  std::string Before = F.call(CountsFrame);
  ASSERT_NE(Before.find("\"result\""), std::string::npos) << Before;

  // Kill the backend that owns "prog" (drain its loop: new connects are
  // refused, pooled gateway connections die mid-call).
  LoopFixture &Owner = F.GW.backendIndexFor("prog") == 0 ? F.B1 : F.B2;
  Owner.Srv.requestStop();
  Owner.Runner.join();

  // The retry lands on the surviving backend, which never saw the
  // intern: the journal replay must make the response byte-identical.
  std::string After = F.call(CountsFrame);
  EXPECT_EQ(Before, After);

  std::string Backends =
      F.call(serve::makeRequestFrame(3, "gateway/backends", ""));
  EXPECT_NE(Backends.find("\"failovers\":1"), std::string::npos) << Backends;
  EXPECT_NE(Backends.find("\"healthy\":false"), std::string::npos) << Backends;
}

TEST(Gateway, DrainSteersRoutingAndUndrainRestoresIt) {
  GatewayFixture F;
  ASSERT_NE(F.call(serve::makeRequestFrame(1, "intern",
                                           internParams("prog")))
                .find("\"result\""),
            std::string::npos);
  std::string CountsFrame =
      serve::makeRequestFrame(2, "counts", "{\"target\":\"prog\"}");
  std::string Before = F.call(CountsFrame);

  size_t OwnerIdx = F.GW.backendIndexFor("prog");
  std::string OwnerAddr =
      "127.0.0.1:" + std::to_string((OwnerIdx == 0 ? F.B1 : F.B2).Srv.port());
  std::string Drained = F.call(serve::makeRequestFrame(
      3, "gateway/drain", "{\"backend\":\"" + OwnerAddr + "\"}"));
  EXPECT_NE(Drained.find("\"draining\":true"), std::string::npos) << Drained;

  // Still answered — by the other backend — and byte-identical.
  EXPECT_EQ(F.call(CountsFrame), Before);
  std::string Backends =
      F.call(serve::makeRequestFrame(4, "gateway/backends", ""));
  EXPECT_NE(Backends.find("\"draining\":true"), std::string::npos);

  std::string Undrained = F.call(serve::makeRequestFrame(
      5, "gateway/undrain", "{\"backend\":\"" + OwnerAddr + "\"}"));
  EXPECT_NE(Undrained.find("\"draining\":false"), std::string::npos);
  EXPECT_EQ(F.call(CountsFrame), Before);

  std::string Unknown = F.call(serve::makeRequestFrame(
      6, "gateway/drain", "{\"backend\":\"127.0.0.1:1\"}"));
  EXPECT_NE(Unknown.find("\"error\""), std::string::npos);
}

TEST(Gateway, StatsAggregatesEveryBackend) {
  GatewayFixture F;
  // Touch both backends: two interns whose names land on... whichever;
  // either way `stats` must fan out and merge.
  F.call(serve::makeRequestFrame(1, "version", ""));
  std::string Stats = F.call(serve::makeRequestFrame(2, "stats", ""));
  std::string Err;
  std::optional<serve::Response> R = serve::parseResponseFrame(
      std::string_view(Stats).substr(0, Stats.size() - 1), Err);
  ASSERT_TRUE(R.has_value()) << Err;
  ASSERT_FALSE(R->IsError) << Stats;
  const JsonValue *G = R->Result.member("gateway");
  ASSERT_NE(G, nullptr) << Stats;
  const JsonValue *Backends = G->member("backends");
  ASSERT_NE(Backends, nullptr);
  ASSERT_NE(Backends->asArray(), nullptr);
  EXPECT_EQ(Backends->asArray()->size(), 2u);
  for (const JsonValue &B : *Backends->asArray())
    EXPECT_TRUE(B.member("healthy")->asBool().value_or(false));
  // The merged counter shape matches a single becd's stats reply.
  EXPECT_NE(R->Result.member("requests"), nullptr);
  EXPECT_NE(R->Result.member("session"), nullptr);
  EXPECT_NE(R->Result.member("latency"), nullptr);
}

TEST(Gateway, TracePropagatesToBackendsAndTraceDumpMergesTheTree) {
  obs::spanRingClear();
  GatewayFixture F;
  std::string TraceId = obs::newTraceId128();
  std::string RootSpan = obs::newSpanId64();
  std::string R = F.call(serve::makeRequestFrame(
      1, "counts", "{\"target\":\"bitcount\"}", {TraceId, RootSpan}));
  ASSERT_NE(R.find("\"result\""), std::string::npos) << R;

  std::string Dump = F.call(serve::makeRequestFrame(
      2, "trace/dump", "{\"trace_id\":\"" + TraceId + "\"}"));
  std::string Err;
  std::optional<serve::Response> Resp = serve::parseResponseFrame(
      std::string_view(Dump).substr(0, Dump.size() - 1), Err);
  ASSERT_TRUE(Resp.has_value()) << Err;
  ASSERT_FALSE(Resp->IsError) << Dump;
  const std::vector<JsonValue> *Spans =
      Resp->Result.member("spans")->asArray();
  ASSERT_NE(Spans, nullptr);

  // Everything in this process shares one ring and the gateway merge
  // re-reads it over the wire, so spans can appear under more than one
  // process label; match hops by span identity, not by count.
  std::map<std::string, const JsonValue *> ByName;
  for (const JsonValue &Sp : *Spans) {
    EXPECT_EQ(*Sp.memberString("trace_id"), TraceId);
    ByName[*Sp.memberString("name")] = &Sp;
  }
  ASSERT_TRUE(ByName.count("gateway.counts")) << Dump;
  ASSERT_TRUE(ByName.count("gateway.attempt")) << Dump;
  ASSERT_TRUE(ByName.count("serve.counts")) << Dump;
  const JsonValue *Hop = ByName["gateway.counts"];
  const JsonValue *Attempt = ByName["gateway.attempt"];
  const JsonValue *Backend = ByName["serve.counts"];
  // The tree: client root -> gateway hop -> attempt -> backend span.
  EXPECT_EQ(*Hop->memberString("parent_span"), RootSpan);
  EXPECT_EQ(*Attempt->memberString("parent_span"),
            *Hop->memberString("span_id"));
  EXPECT_EQ(*Backend->memberString("parent_span"),
            *Attempt->memberString("span_id"));
  // The attempt names its backend and outcome.
  const JsonValue *Args = Attempt->member("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_FALSE(Args->memberString("backend")->empty());
  EXPECT_EQ(*Args->memberString("outcome"), "ok");

  // An untraced request through the same gateway records nothing new.
  obs::spanRingClear();
  F.call(serve::makeRequestFrame(3, "counts", "{\"target\":\"bitcount\"}"));
  EXPECT_TRUE(obs::spanRingSnapshot().empty());
}

TEST(Gateway, MetricsMethodServesItsOwnExposition) {
  GatewayFixture F;
  // One forwarded request so the gateway counters are live.
  F.call(serve::makeRequestFrame(1, "version", ""));
  std::string Met = F.call(serve::makeRequestFrame(2, "metrics", ""));
  std::string Err;
  std::optional<serve::Response> R = serve::parseResponseFrame(
      std::string_view(Met).substr(0, Met.size() - 1), Err);
  ASSERT_TRUE(R.has_value()) << Err;
  ASSERT_FALSE(R->IsError) << Met;
  EXPECT_EQ(*R->Result.memberString("content_type"),
            "text/plain; version=0.0.4");
  const std::string *Text = R->Result.memberString("text");
  ASSERT_NE(Text, nullptr);
  // The gateway answers from its own process registry (it does not
  // forward): its request/forward counters and the event loop's
  // families are both present.
  EXPECT_NE(Text->find("# TYPE bec_gateway_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(Text->find("bec_gateway_forwarded_total"), std::string::npos);
  EXPECT_NE(Text->find("bec_net_loop_requests_total"), std::string::npos);
  // Same exposition grammar as becd: every line is a TYPE comment or
  // "name[{labels}] value" under the bec_ prefix.
  std::istringstream In(*Text);
  std::string Line;
  while (std::getline(In, Line)) {
    ASSERT_FALSE(Line.empty());
    if (Line.rfind("# TYPE ", 0) == 0)
      continue;
    size_t Sp = Line.rfind(' ');
    ASSERT_NE(Sp, std::string::npos) << Line;
    EXPECT_EQ(Line.rfind("bec_", 0), 0u) << Line;
  }
}

TEST(Gateway, LogLevelMethodIsHandledLocally) {
  GatewayFixture F;
  obs::setLogLevel(obs::LogLevel::Off);
  std::string Set = F.call(
      serve::makeRequestFrame(1, "log/level", "{\"level\":\"error\"}"));
  EXPECT_NE(Set.find("\"level\":\"error\""), std::string::npos) << Set;
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Error);
  std::string Bad = F.call(
      serve::makeRequestFrame(2, "log/level", "{\"level\":\"loud\"}"));
  EXPECT_NE(Bad.find("invalid_params"), std::string::npos) << Bad;
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Error);
  obs::setLogLevel(obs::LogLevel::Off);
}

TEST(Gateway, ShutdownDrainsTheGatewayNotTheBackends) {
  GatewayFixture F;
  std::string R = F.call(serve::makeRequestFrame(1, "shutdown", ""));
  EXPECT_NE(R.find("\"result\""), std::string::npos) << R;
  EXPECT_TRUE(F.GW.isDraining());
  // Requests after the drain began are refused with the typed code...
  std::string Refused = F.call(serve::makeRequestFrame(2, "version", ""));
  EXPECT_NE(Refused.find("\"shutting_down\""), std::string::npos) << Refused;
  // ...but the backends are still alive and serving.
  std::string Err;
  std::optional<serve::Client> C =
      serve::Client::connect("127.0.0.1", F.B1.Srv.port(), Err);
  ASSERT_TRUE(C.has_value()) << Err;
  EXPECT_TRUE(C->call("version").Ok);
}

} // namespace
