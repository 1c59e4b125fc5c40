//===- tests/ServeTest.cpp - becd protocol, service, server, client -------===//
//
// The serve/ contract under test:
//  * framing: malformed frames are rejected with typed error codes and do
//    not kill the connection; well-formed frames round-trip;
//  * handshake: incompatible protocol revisions / API majors are refused
//    client-side;
//  * loopback mode: the full method table over an in-process Service is
//    deterministic and byte-identical to the local driver;
//  * sockets: real TCP round-trips, concurrent clients sharing one
//    session pool (bit-identical to serial execution, cross-client cache
//    hits visible in stats), graceful shutdown unblocking idle clients;
//  * driver integration: `bec --version`, `bec serve`/`bec client`, and
//    `--remote` offload producing byte-identical subcommand output.
//
//===----------------------------------------------------------------------===//

#include "api/Api.h"
#include "net/EventLoop.h"
#include "obs/Log.h"
#include "obs/SpanRing.h"
#include "serve/Client.h"
#include "serve/Commands.h"
#include "serve/Service.h"
#include "support/JsonParse.h"

#include "Driver.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

using namespace bec;
using namespace bec::serve;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

struct DriverRun {
  int Status;
  std::string Out;
  std::string Err;
};

DriverRun runLocal(std::vector<std::string> Args) {
  std::ostringstream Out, Err;
  int Status = tool::runDriver(Args, Out, Err);
  return {Status, Out.str(), Err.str()};
}

/// Masks the campaign's wall-clock column/field: it is nondeterministic
/// between any two runs (local vs. local included), and is the one
/// rendered value that is measured rather than computed.
std::string maskSeconds(std::string S) {
  S = std::regex_replace(S, std::regex("\"seconds\":[-+0-9.eE]+"),
                         "\"seconds\":#");
  // The column is right-aligned: absorb the padding too, or differing
  // digit counts (fast vs. sanitizer-slow runs) shift the spaces.
  S = std::regex_replace(S, std::regex(" +[0-9]+\\.[0-9]{2}\n"), " #\n");
  return S;
}

/// A live becd on an ephemeral port, torn down on scope exit: the
/// event-loop server wired exactly as `bec serve` wires it.
struct ServerFixture {
  Service Svc;
  net::EventServer Srv;
  std::thread Runner;

  explicit ServerFixture(unsigned Workers = 4)
      : Srv(
            [this](std::string_view Line, const net::FrameSink &Sink) {
              return Svc.handleFrameStreaming(Line, Sink);
            },
            Svc.handshakeFrame(), [&] {
              net::EventServer::Options O;
              O.Port = 0;
              O.Workers = Workers;
              return O;
            }()) {
    Srv.setDrainCheck([this] { return Svc.isShuttingDown(); });
    Srv.setAcceptCallback([this] { Svc.noteConnection(); });
    std::string Err;
    if (!Srv.start(Err))
      ADD_FAILURE() << "server start failed: " << Err;
    Runner = std::thread([this] { Srv.run(); });
  }

  ~ServerFixture() {
    Srv.requestStop();
    Runner.join();
  }

  std::string remoteFlag() const {
    return "127.0.0.1:" + std::to_string(Srv.port());
  }

  Client connect() {
    std::string Err;
    std::optional<Client> C = Client::connect("127.0.0.1", Srv.port(), Err);
    if (!C)
      throw std::runtime_error("connect failed: " + Err);
    return std::move(*C);
  }
};

/// Error code of a raw frame pushed through a loopback service.
ErrorCode frameError(Service &Svc, std::string_view Frame) {
  std::string Line = Svc.handleFrame(Frame);
  std::string Err;
  std::optional<Response> R = parseResponseFrame(Line, Err);
  EXPECT_TRUE(R.has_value()) << Err;
  EXPECT_TRUE(R && R->IsError) << Line;
  return R ? R->Code : ErrorCode::InternalError;
}

//===----------------------------------------------------------------------===//
// Protocol framing
//===----------------------------------------------------------------------===//

TEST(Protocol, RejectsMalformedFramesWithTypedCodes) {
  Service Svc;
  EXPECT_EQ(frameError(Svc, "this is not json"), ErrorCode::ParseError);
  EXPECT_EQ(frameError(Svc, "{\"id\":1,\"method\":\"x\""),
            ErrorCode::ParseError);
  EXPECT_EQ(frameError(Svc, "[1,2,3]"), ErrorCode::InvalidRequest);
  EXPECT_EQ(frameError(Svc, "42"), ErrorCode::InvalidRequest);
  EXPECT_EQ(frameError(Svc, "{\"method\":\"version\"}"),
            ErrorCode::InvalidRequest);
  EXPECT_EQ(frameError(Svc, "{\"id\":-3,\"method\":\"version\"}"),
            ErrorCode::InvalidRequest);
  EXPECT_EQ(frameError(Svc, "{\"id\":1}"), ErrorCode::InvalidRequest);
  EXPECT_EQ(frameError(Svc, "{\"id\":1,\"method\":\"version\",\"params\":7}"),
            ErrorCode::InvalidParams);
  EXPECT_EQ(frameError(Svc, "{\"id\":1,\"method\":\"frobnicate\"}"),
            ErrorCode::MethodNotFound);
  // Malformed frames count as errors but leave the service usable.
  std::string Line = Svc.handleFrame("{\"id\":9,\"method\":\"version\"}");
  std::string Err;
  std::optional<Response> R = parseResponseFrame(Line, Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_FALSE(R->IsError);
  EXPECT_EQ(R->Id, 9u);
}

TEST(Protocol, RequestAndResponseFramesRoundTrip) {
  std::string Frame = makeRequestFrame(7, "analyze",
                                       "{\"targets\":[\"bitcount\"]}");
  EXPECT_EQ(Frame.back(), '\n');
  ParsedFrame P = parseRequestFrame(
      std::string_view(Frame).substr(0, Frame.size() - 1));
  ASSERT_TRUE(P.Req.has_value()) << P.Message;
  EXPECT_EQ(P.Req->Id, 7u);
  EXPECT_EQ(P.Req->Method, "analyze");
  const std::vector<JsonValue> *Targets =
      P.Req->Params.member("targets")->asArray();
  ASSERT_NE(Targets, nullptr);
  EXPECT_EQ(*(*Targets)[0].asString(), "bitcount");

  std::string Result = makeResultFrame(7, "{\"ok\":true}");
  std::string Err;
  std::optional<Response> R = parseResponseFrame(
      std::string_view(Result).substr(0, Result.size() - 1), Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_FALSE(R->IsError);
  EXPECT_EQ(R->Result.member("ok")->asBool(), true);

  std::string Error =
      makeErrorFrame(9, ErrorCode::BadTarget, "nope", "{\"k\":1}");
  R = parseResponseFrame(std::string_view(Error).substr(0, Error.size() - 1),
                         Err);
  ASSERT_TRUE(R.has_value()) << Err;
  EXPECT_TRUE(R->IsError);
  EXPECT_EQ(R->Code, ErrorCode::BadTarget);
  EXPECT_EQ(R->ErrorName, "bad_target");
  EXPECT_EQ(R->Message, "nope");
  EXPECT_EQ(R->ErrorData.memberU64("k"), 1u);
}

TEST(Protocol, HandshakeCompatibility) {
  std::optional<Handshake> H = parseHandshakeFrame(makeHandshakeFrame());
  ASSERT_TRUE(H.has_value());
  EXPECT_EQ(H->Server, "becd");
  EXPECT_EQ(H->Protocol, ProtocolVersion);
  EXPECT_TRUE(handshakeIncompatibility(*H).empty());

  Handshake Wrong = *H;
  Wrong.Protocol = ProtocolVersion + 1;
  EXPECT_NE(handshakeIncompatibility(Wrong), "");
  Wrong = *H;
  Wrong.ApiVersion = "999.0.0";
  EXPECT_NE(handshakeIncompatibility(Wrong), "");
  Wrong = *H;
  Wrong.Server = "httpd";
  EXPECT_NE(handshakeIncompatibility(Wrong), "");
}

//===----------------------------------------------------------------------===//
// The command codec (serve/Commands.h)
//===----------------------------------------------------------------------===//

/// Compares every wire field (the query options also hold callbacks and
/// local-only fields, so requests have no operator==).
void expectSameRequest(const CommandRequest &A, const CommandRequest &B,
                       const std::string &Where) {
  EXPECT_EQ(A.Cmd, B.Cmd) << Where;
  EXPECT_EQ(A.Targets, B.Targets) << Where;
  EXPECT_EQ(A.Json, B.Json) << Where;
  EXPECT_EQ(A.Jobs, B.Jobs) << Where;
  EXPECT_EQ(A.Campaign.Plan, B.Campaign.Plan) << Where;
  EXPECT_EQ(A.Campaign.MaxCycles, B.Campaign.MaxCycles) << Where;
  EXPECT_EQ(A.Campaign.SampleSize, B.Campaign.SampleSize) << Where;
  EXPECT_EQ(A.Campaign.SampleSeed, B.Campaign.SampleSeed) << Where;
  EXPECT_EQ(A.Campaign.Exec.Threads, B.Campaign.Exec.Threads) << Where;
  EXPECT_EQ(A.Campaign.Exec.ShardSize, B.Campaign.Exec.ShardSize) << Where;
  EXPECT_EQ(A.Progress, B.Progress) << Where;
  EXPECT_EQ(A.EmitSchedule, B.EmitSchedule) << Where;
  EXPECT_EQ(A.Harden.Budgets, B.Harden.Budgets) << Where;
  EXPECT_EQ(A.EmitHardened, B.EmitHardened) << Where;
  EXPECT_EQ(A.Report.MaxCycles, B.Report.MaxCycles) << Where;
}

const CommandKind AllKinds[] = {CommandKind::Analyze, CommandKind::Campaign,
                                CommandKind::Schedule, CommandKind::Harden,
                                CommandKind::Report};

/// A request of method \p K with every field that method reads set away
/// from its default; \p Edge is 0 or 2^64-1 for the unsigned params.
CommandRequest fullRequest(CommandKind K, uint64_t Edge, PlanKind Plan,
                           SchedulePolicy Policy) {
  CommandRequest R;
  R.Cmd = K;
  R.Targets = {"bitcount", "CRC32", "dir/prog.s"};
  R.Json = true;
  R.Jobs = Edge ? 1u << 16 : 0;
  switch (K) {
  case CommandKind::Analyze:
    break;
  case CommandKind::Campaign:
    R.Campaign.Plan = Plan;
    R.Campaign.MaxCycles = Edge;
    R.Campaign.SampleSize = Edge;
    R.Campaign.SampleSeed = Edge;
    R.Campaign.Exec.Threads = Edge ? 1u << 16 : 0;
    R.Campaign.Exec.ShardSize = Edge;
    R.Progress = true;
    break;
  case CommandKind::Schedule:
    R.EmitSchedule = Policy;
    break;
  case CommandKind::Harden:
    R.Harden.Budgets = {0.1, 12.345678901234567, 1e6};
    R.EmitHardened = true;
    break;
  case CommandKind::Report:
    R.Report.MaxCycles = Edge;
    break;
  }
  return R;
}

TEST(Commands, DecodeOfEncodeIsTheRequest) {
  for (CommandKind K : AllKinds)
    for (uint64_t Edge : {uint64_t(0), UINT64_MAX})
      for (PlanKind Plan : {PlanKind::Exhaustive, PlanKind::ValueLevel,
                            PlanKind::BitLevel})
        for (SchedulePolicy Policy : {SchedulePolicy::BestReliability,
                                      SchedulePolicy::WorstReliability,
                                      SchedulePolicy::SourceOrder}) {
          CommandRequest R = fullRequest(K, Edge, Plan, Policy);
          std::string Params = encode(R);
          std::optional<JsonValue> V = parseJson(Params);
          ASSERT_TRUE(V.has_value()) << Params;
          std::string Err;
          std::optional<CommandRequest> Back = decode(K, *V, Err);
          ASSERT_TRUE(Back.has_value()) << Params << ": " << Err;
          expectSameRequest(*Back, R, Params);
        }
  // The defaults round-trip too, and a three-budget sweep keeps its order.
  CommandRequest Sweep;
  Sweep.Cmd = CommandKind::Harden;
  Sweep.Harden.Budgets = {5, 10, 2.5};
  std::string Err;
  for (const CommandRequest &R : {CommandRequest(), Sweep}) {
    std::optional<CommandRequest> Back =
        decode(R.Cmd, *parseJson(encode(R)), Err);
    ASSERT_TRUE(Back.has_value()) << Err;
    expectSameRequest(*Back, R, encode(R));
  }
}

TEST(Commands, EveryParamEncodeWritesIsOneDecodeReads) {
  // A key decode did not read could carry any value; one it reads
  // refuses an object, which no param kind accepts.
  for (CommandKind K : AllKinds) {
    std::optional<JsonValue> Full = parseJson(encode(fullRequest(
        K, 7, PlanKind::ValueLevel, SchedulePolicy::SourceOrder)));
    ASSERT_TRUE(Full.has_value());
    ASSERT_FALSE(Full->objectMembers().empty());
    for (const auto &[Key, Value] : Full->objectMembers()) {
      std::string Bad = "{\"" + Key + "\":{}}";
      std::string Err;
      EXPECT_FALSE(decode(K, *parseJson(Bad), Err).has_value()) << Bad;
      EXPECT_NE(Err.find("'" + Key + "'"), std::string::npos) << Err;
    }
  }
}

//===----------------------------------------------------------------------===//
// Loopback service
//===----------------------------------------------------------------------===//

TEST(Loopback, VersionMethod) {
  Service Svc;
  Client C = Client::loopback(Svc);
  Reply R = C.call("version");
  ASSERT_TRUE(R.Ok) << R.Message;
  EXPECT_EQ(*R.Result.memberString("api"), BEC_API_VERSION_STRING);
  EXPECT_EQ(R.Result.memberU64("protocol"), uint64_t(ProtocolVersion));
  EXPECT_NE(R.Result.memberString("build_type"), nullptr);
}

TEST(Loopback, AnalyzeMatchesLocalDriverTextAndJson) {
  Service Svc;
  Client C = Client::loopback(Svc);
  for (const char *Format : {"text", "json"}) {
    Reply R = C.call("analyze", std::string("{\"targets\":[\"bitcount\"],"
                                            "\"format\":\"") +
                                    Format + "\"}");
    ASSERT_TRUE(R.Ok) << R.Message;
    DriverRun Local = runLocal({"analyze", "--workload", "bitcount",
                                "--format", Format});
    EXPECT_EQ(*R.Result.memberString("output"), Local.Out) << Format;
    EXPECT_EQ(int(*R.Result.memberU64("exit")), Local.Status);
  }
}

TEST(Loopback, JobsParamNeverChangesOutputBytes) {
  Service Svc;
  Client C = Client::loopback(Svc);
  Reply Serial = C.call("analyze", "{\"format\":\"json\"}");
  Reply Parallel = C.call("analyze", "{\"format\":\"json\",\"jobs\":4}");
  ASSERT_TRUE(Serial.Ok) << Serial.Message;
  ASSERT_TRUE(Parallel.Ok) << Parallel.Message;
  EXPECT_EQ(*Serial.Result.memberString("output"),
            *Parallel.Result.memberString("output"));
  EXPECT_EQ(C.call("analyze", "{\"jobs\":\"many\"}").Code,
            ErrorCode::InvalidParams);
}

TEST(Loopback, CountsIsStructured) {
  Service Svc;
  Client C = Client::loopback(Svc);
  Reply R = C.call("counts", "{\"target\":\"crc32\"}");
  ASSERT_TRUE(R.Ok) << R.Message;
  EXPECT_EQ(*R.Result.memberString("name"), "CRC32"); // Canonical casing.
  EXPECT_GT(*R.Result.memberU64("fault_space"), 0u);
  EXPECT_GT(*R.Result.memberU64("vulnerability"), 0u);

  Reply Bad = C.call("counts", "{\"target\":\"nonesuch\"}");
  EXPECT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.Code, ErrorCode::BadTarget);
}

TEST(Loopback, InternReportsStructuredLineAndColumn) {
  Service Svc;
  Client C = Client::loopback(Svc);

  // Column 3 = the mnemonic, line 2 of the source text.
  Reply Bad = C.call(
      "intern", "{\"name\":\"bad.s\",\"asm\":\"main:\\n  frobnicate t9\\n\"}");
  ASSERT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.Code, ErrorCode::BadAsm);
  const std::vector<JsonValue> *Diags =
      Bad.ErrorData.member("diags")->asArray();
  ASSERT_NE(Diags, nullptr);
  ASSERT_FALSE(Diags->empty());
  EXPECT_EQ((*Diags)[0].memberU64("line"), 2u);
  EXPECT_EQ((*Diags)[0].memberU64("col"), 3u);
  EXPECT_NE(Diags->front().memberString("message")->find("unknown mnemonic"),
            std::string::npos);

  // Good source interns and is analyzable under its name.
  Reply Good = C.call(
      "intern",
      "{\"name\":\"tiny.s\",\"asm\":\"main:\\n  li a0, 1\\n  out a0\\n  ret\\n\"}");
  ASSERT_TRUE(Good.Ok) << Good.Message;
  EXPECT_EQ(*Good.Result.memberU64("instrs"), 3u);
  EXPECT_FALSE(Good.Result.memberString("content_key")->empty());

  Reply An = C.call("analyze", "{\"targets\":[\"tiny.s\"]}");
  ASSERT_TRUE(An.Ok) << An.Message;
  EXPECT_NE(An.Result.memberString("output")->find("tiny.s"),
            std::string::npos);

  // Names must not shadow bundled workloads.
  Reply Shadow =
      C.call("intern", "{\"name\":\"BitCount\",\"asm\":\"main:\\n  ret\\n\"}");
  EXPECT_FALSE(Shadow.Ok);
  EXPECT_EQ(Shadow.Code, ErrorCode::InvalidParams);
}

TEST(Loopback, StatsSeeCrossClientCacheHits) {
  Service Svc;
  Client A = Client::loopback(Svc);
  Client B = Client::loopback(Svc);

  ASSERT_TRUE(A.call("analyze", "{\"targets\":[\"bitcount\"]}").Ok);
  Reply S1 = A.call("stats");
  ASSERT_TRUE(S1.Ok);
  uint64_t Misses1 = *S1.Result.member("session")->memberU64("misses");

  // The second client's identical request is served from the pool: no
  // new misses, new hits.
  ASSERT_TRUE(B.call("analyze", "{\"targets\":[\"bitcount\"]}").Ok);
  Reply S2 = B.call("stats");
  ASSERT_TRUE(S2.Ok);
  EXPECT_EQ(*S2.Result.member("session")->memberU64("misses"), Misses1);
  EXPECT_GT(*S2.Result.member("session")->memberU64("hits"), 0u);
  EXPECT_EQ(*S2.Result.member("session")->memberU64("shards"), 1u);
  EXPECT_GE(*S2.Result.memberU64("requests"), 4u);
}

TEST(Loopback, StatsExposesLatencyHistogramsAndHitRate) {
  Service Svc;
  Client C = Client::loopback(Svc);
  ASSERT_TRUE(C.call("analyze", "{\"targets\":[\"bitcount\"]}").Ok);
  ASSERT_TRUE(C.call("analyze", "{\"targets\":[\"bitcount\"]}").Ok);

  Reply S1 = C.call("stats");
  ASSERT_TRUE(S1.Ok);
  // Per-method latency: count, p50 <= p99, a finite mean. (The obs
  // registry is process-global, so counts here are >= this service's own
  // request counts and only ever grow.)
  const JsonValue *Latency = S1.Result.member("latency");
  ASSERT_NE(Latency, nullptr);
  const JsonValue *An = Latency->member("analyze");
  ASSERT_NE(An, nullptr);
  uint64_t Count1 = *An->memberU64("count");
  EXPECT_GE(Count1, 2u);
  EXPECT_LE(*An->memberU64("p50_us"), *An->memberU64("p99_us"));
  EXPECT_GE(*An->member("mean_us")->asDouble(), 0.0);

  // The session block carries the derived hit rate once hits+misses > 0.
  const JsonValue *Session = S1.Result.member("session");
  ASSERT_NE(Session, nullptr);
  const JsonValue *Rate = Session->member("hit_rate");
  ASSERT_NE(Rate, nullptr);
  EXPECT_GE(*Rate->asDouble(), 0.0);
  EXPECT_LE(*Rate->asDouble(), 1.0);

  // Gauges are live levels; inflight counts this very stats request.
  const JsonValue *Gauges = S1.Result.member("gauges");
  ASSERT_NE(Gauges, nullptr);
  EXPECT_GE(*Gauges->member("serve.requests.inflight")->asI64(), 0);

  // Histogram counts are monotone across requests.
  ASSERT_TRUE(C.call("analyze", "{\"targets\":[\"bitcount\"]}").Ok);
  Reply S2 = C.call("stats");
  ASSERT_TRUE(S2.Ok);
  EXPECT_GE(*S2.Result.member("latency")->member("analyze")->memberU64(
                "count"),
            Count1 + 1);
}

TEST(Loopback, MetricsMethodRendersPrometheusExposition) {
  Service Svc;
  Client C = Client::loopback(Svc);
  ASSERT_TRUE(C.call("analyze", "{\"targets\":[\"bitcount\"]}").Ok);
  Reply R = C.call("metrics");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(*R.Result.memberString("content_type"),
            "text/plain; version=0.0.4");
  const std::string *Text = R.Result.memberString("text");
  ASSERT_NE(Text, nullptr);
  EXPECT_NE(Text->find("# TYPE bec_serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(Text->find("bec_serve_method_us_bucket{method=\"analyze\","),
            std::string::npos);

  // Every line is "# TYPE name kind" or "name[{labels}] value", and
  // cumulative le= buckets never decrease within a family.
  std::istringstream In(*Text);
  std::string Line;
  std::map<std::string, uint64_t> LastBucket; // family+labels -> count
  while (std::getline(In, Line)) {
    ASSERT_FALSE(Line.empty());
    if (Line.rfind("# TYPE ", 0) == 0)
      continue;
    ASSERT_EQ(Line[0] == '#', false) << Line;
    size_t Sp = Line.rfind(' ');
    ASSERT_NE(Sp, std::string::npos) << Line;
    std::string Name = Line.substr(0, Sp);
    ASSERT_EQ(Name.rfind("bec_", 0), 0u) << Line;
    size_t Le = Name.find("le=\"");
    if (Le == std::string::npos)
      continue;
    uint64_t Count = std::stoull(Line.substr(Sp + 1));
    std::string Series = Name.substr(0, Le); // family + leading labels
    auto It = LastBucket.find(Series);
    if (It != LastBucket.end()) {
      EXPECT_GE(Count, It->second) << Line;
    }
    LastBucket[Series] = Count;
  }
  EXPECT_FALSE(LastBucket.empty());
}

TEST(Loopback, BadParamsAndUnknownTargets) {
  Service Svc;
  Client C = Client::loopback(Svc);
  EXPECT_EQ(C.call("analyze", "{\"targets\":\"bitcount\"}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("analyze", "{\"targets\":[7]}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("analyze", "{\"format\":\"xml\"}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("analyze", "{\"targets\":[\"nonesuch\"]}").Code,
            ErrorCode::BadTarget);
  EXPECT_EQ(C.call("campaign", "{\"plan\":\"quantum\"}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("harden", "{\"budgets\":[]}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("harden", "{\"budgets\":[-1]}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("harden", "{\"budgets\":[1e999]}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("intern", "{\"name\":\"x\"}").Code,
            ErrorCode::InvalidParams);
}

//===----------------------------------------------------------------------===//
// campaign/run: the streaming method
//===----------------------------------------------------------------------===//

TEST(Protocol, ProgressFrameRoundTrips) {
  std::string Frame = makeProgressFrame(7, "{\"shards_done\":3}");
  ASSERT_FALSE(Frame.empty());
  EXPECT_EQ(Frame.back(), '\n');
  std::optional<ProgressFrame> P =
      parseProgressFrame(std::string_view(Frame).substr(0, Frame.size() - 1));
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Id, 7u);
  EXPECT_EQ(P->Progress.memberU64("shards_done"), 3u);
  // Response frames are not progress frames and vice versa.
  EXPECT_FALSE(parseProgressFrame("{\"id\":7,\"result\":{}}").has_value());
  std::string Err;
  EXPECT_FALSE(
      parseResponseFrame("{\"id\":7,\"progress\":{}}", Err).has_value());
}

TEST(Loopback, CampaignRunStreamsProgressAndMatchesCampaign) {
  Service Svc;
  Client C = Client::loopback(Svc);
  const char *Params =
      "{\"targets\":[\"bitcount\"],\"max_cycles\":300,\"progress\":true}";

  std::vector<uint64_t> ShardsSeen;
  uint64_t TotalShards = 0;
  Reply Streamed = C.callStreaming(
      "campaign/run", Params, [&](const JsonValue &P) {
        ASSERT_EQ(*P.memberString("target"), "bitcount");
        ShardsSeen.push_back(P.memberU64("shards_done").value_or(0));
        TotalShards = P.memberU64("shards").value_or(0);
        EXPECT_LE(ShardsSeen.back(), TotalShards);
      });
  ASSERT_TRUE(Streamed.Ok) << Streamed.Message;
  ASSERT_GE(ShardsSeen.size(), 2u);
  for (size_t I = 1; I < ShardsSeen.size(); ++I)
    EXPECT_LT(ShardsSeen[I - 1], ShardsSeen[I]);
  // The last progress frame reports completion.
  EXPECT_EQ(ShardsSeen.back(), TotalShards);

  // The unary sibling returns the same document (its Seconds may vary).
  Reply Unary =
      C.call("campaign", "{\"targets\":[\"bitcount\"],\"max_cycles\":300}");
  ASSERT_TRUE(Unary.Ok);
  EXPECT_EQ(maskSeconds(*Streamed.Result.memberString("output")),
            maskSeconds(*Unary.Result.memberString("output")));
  EXPECT_EQ(Streamed.Result.memberU64("exit"), Unary.Result.memberU64("exit"));
}

TEST(Loopback, CampaignRunWithoutProgressSendsNoFrames) {
  Service Svc;
  Client C = Client::loopback(Svc);
  size_t Frames = 0;
  Reply R = C.callStreaming(
      "campaign/run", "{\"targets\":[\"bitcount\"],\"max_cycles\":200}",
      [&](const JsonValue &) { ++Frames; });
  ASSERT_TRUE(R.Ok) << R.Message;
  EXPECT_EQ(Frames, 0u);
}

TEST(Loopback, CampaignSamplingParamsValidatedAndServed) {
  Service Svc;
  Client C = Client::loopback(Svc);
  EXPECT_EQ(C.call("campaign", "{\"sample\":\"many\"}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("campaign", "{\"seed\":-1}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("campaign/run", "{\"threads\":\"x\"}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("campaign/run", "{\"progress\":3}").Code,
            ErrorCode::InvalidParams);
  Reply R = C.call("campaign/run",
                   "{\"targets\":[\"bitcount\"],\"max_cycles\":200,"
                   "\"sample\":250,\"seed\":5,\"format\":\"json\"}");
  ASSERT_TRUE(R.Ok) << R.Message;
  const std::string *Out = R.Result.memberString("output");
  ASSERT_NE(Out, nullptr);
  EXPECT_NE(Out->find("\"sample\":"), std::string::npos);
  EXPECT_NE(Out->find("\"population\":"), std::string::npos);
}

TEST(DriverServe, RemoteCampaignProgressStreamsOverTcp) {
  ServerFixture F;
  DriverRun R = runLocal({"campaign", "--workload", "bitcount",
                          "--max-cycles", "300", "--progress", "--remote",
                          F.remoteFlag()});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;
  EXPECT_NE(R.Err.find("bec: campaign: bitcount:"), std::string::npos);
  EXPECT_NE(R.Err.find("shards"), std::string::npos);
  // The report itself matches the local run (Seconds masked), progress
  // notwithstanding.
  DriverRun Local = runLocal(
      {"campaign", "--workload", "bitcount", "--max-cycles", "300"});
  EXPECT_EQ(maskSeconds(R.Out), maskSeconds(Local.Out));
}

//===----------------------------------------------------------------------===//
// Distributed tracing and logging control
//===----------------------------------------------------------------------===//

TEST(Protocol, TraceContextRoundTripsAndMalformedIsTolerated) {
  // A valid envelope `trace` member parses into the request...
  ParsedFrame P = parseRequestFrame(
      "{\"id\":5,\"method\":\"version\",\"trace\":"
      "{\"trace_id\":\"a1\",\"parent_span\":\"b2\"}}");
  ASSERT_TRUE(P.Req.has_value()) << P.Message;
  EXPECT_EQ(P.Req->Trace.TraceId, "a1");
  EXPECT_EQ(P.Req->Trace.ParentSpan, "b2");
  EXPECT_TRUE(P.Req->Trace.valid());

  // ...and the client-side builder emits the same shape.
  std::string Frame = makeRequestFrame(6, "version", "", {"a1", "b2"});
  EXPECT_NE(
      Frame.find("\"trace\":{\"trace_id\":\"a1\",\"parent_span\":\"b2\"}"),
      std::string::npos)
      << Frame;

  // Tracing is best-effort metadata: a malformed `trace` member never
  // fails the request, it just runs untraced.
  obs::spanRingClear();
  Service Svc;
  for (const char *Raw :
       {"{\"id\":1,\"method\":\"version\",\"trace\":7}",
        "{\"id\":2,\"method\":\"version\",\"trace\":\"abc\"}",
        "{\"id\":3,\"method\":\"version\",\"trace\":{}}",
        "{\"id\":4,\"method\":\"version\",\"trace\":{\"trace_id\":9}}"}) {
    std::string Line = Svc.handleFrame(Raw);
    std::string Err;
    std::optional<Response> R = parseResponseFrame(Line, Err);
    ASSERT_TRUE(R.has_value()) << Err;
    EXPECT_FALSE(R->IsError) << Raw;
  }
  EXPECT_TRUE(obs::spanRingSnapshot().empty())
      << "malformed contexts must not record ring spans";
}

TEST(Loopback, TracedRequestLandsInSpanRingAndTraceDump) {
  obs::spanRingClear();
  Service Svc;
  Client C = Client::loopback(Svc);
  std::string TraceId = obs::newTraceId128();
  C.setTrace({TraceId, "123456789abcdef0"});
  ASSERT_TRUE(C.call("analyze", "{\"targets\":[\"bitcount\"]}").Ok);
  C.setTrace({});
  // Untraced traffic (this call included) stays out of the ring.
  ASSERT_TRUE(C.call("version").Ok);

  Reply Dump = C.call("trace/dump", "{\"trace_id\":\"" + TraceId + "\"}");
  ASSERT_TRUE(Dump.Ok) << Dump.Message;
  EXPECT_FALSE(Dump.Result.memberString("process")->empty());
  const std::vector<JsonValue> *Spans =
      Dump.Result.member("spans")->asArray();
  ASSERT_NE(Spans, nullptr);
  ASSERT_EQ(Spans->size(), 1u);
  const JsonValue &Sp = (*Spans)[0];
  EXPECT_EQ(*Sp.memberString("name"), "serve.analyze");
  EXPECT_EQ(*Sp.memberString("trace_id"), TraceId);
  EXPECT_EQ(*Sp.memberString("parent_span"), "123456789abcdef0");
  EXPECT_EQ(Sp.memberString("span_id")->size(), 16u);
  EXPECT_GT(Sp.memberU64("start_us").value_or(0), 0u);

  // Filtering by a foreign trace id returns nothing; a non-string
  // filter is a typed params error.
  Reply Other = C.call("trace/dump",
                       "{\"trace_id\":\"00000000000000000000000000000000\"}");
  ASSERT_TRUE(Other.Ok);
  EXPECT_TRUE(Other.Result.member("spans")->asArray()->empty());
  EXPECT_EQ(C.call("trace/dump", "{\"trace_id\":7}").Code,
            ErrorCode::InvalidParams);
  obs::spanRingClear();
}

TEST(Loopback, LogLevelMethodGetsAndSetsTheRuntimeLevel) {
  Service Svc;
  Client C = Client::loopback(Svc);
  // The rejected sets below log serve.request.error at warn; keep the
  // test's own stderr clean.
  std::string Sink = testing::TempDir() + "/serve_loglevel_log.txt";
  std::string LogErr;
  ASSERT_TRUE(obs::openLogFile(Sink, LogErr)) << LogErr;
  obs::setLogLevel(obs::LogLevel::Off);
  Reply Get = C.call("log/level");
  ASSERT_TRUE(Get.Ok) << Get.Message;
  EXPECT_EQ(*Get.Result.memberString("level"), "off");
  Reply Set = C.call("log/level", "{\"level\":\"warn\"}");
  ASSERT_TRUE(Set.Ok) << Set.Message;
  EXPECT_EQ(*Set.Result.memberString("level"), "warn");
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Warn);
  EXPECT_EQ(C.call("log/level", "{\"level\":\"loud\"}").Code,
            ErrorCode::InvalidParams);
  EXPECT_EQ(C.call("log/level", "{\"level\":7}").Code,
            ErrorCode::InvalidParams);
  // The rejected sets left the level untouched.
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Warn);
  obs::setLogLevel(obs::LogLevel::Off);
  obs::closeLogFile();
  std::remove(Sink.c_str());
}

TEST(DriverServe, RemoteTraceOutStitchesOneDistributedTimeline) {
  obs::spanRingClear();
  ServerFixture F;
  std::string Path = testing::TempDir() + "/serve_trace.json";
  std::remove(Path.c_str());
  DriverRun R = runLocal({"analyze", "--workload", "bitcount", "--remote",
                          F.remoteFlag(), "--trace-out=" + Path});
  EXPECT_EQ(R.Status, tool::ExitSuccess) << R.Err;

  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::optional<JsonValue> V = parseJson(Buf.str());
  ASSERT_TRUE(V.has_value()) << Buf.str();
  const std::vector<JsonValue> *Events = V->member("traceEvents")->asArray();
  ASSERT_NE(Events, nullptr);

  std::set<std::string> TraceIds;
  std::set<uint64_t> SpanPids;
  size_t Begins = 0, Ends = 0;
  bool ServerProcessNamed = false;
  for (const JsonValue &E : *Events) {
    const std::string *Ph = E.memberString("ph");
    ASSERT_NE(Ph, nullptr);
    uint64_t Pid = E.memberU64("pid").value_or(1);
    if (*Ph == "M" && Pid != 1)
      ServerProcessNamed = true;
    if (*Ph == "B")
      ++Begins;
    if (*Ph == "E")
      ++Ends;
    if (*Ph == "B" || *Ph == "E" || *Ph == "X")
      SpanPids.insert(Pid);
    if (const JsonValue *Args = E.member("args"))
      if (const std::string *Tid = Args->memberString("trace_id"))
        TraceIds.insert(*Tid);
  }
  // One trace id stitches every hop; the server's spans sit on their
  // own synthetic process lane next to the client's pid 1.
  EXPECT_EQ(TraceIds.size(), 1u);
  EXPECT_EQ(Begins, Ends) << "unbalanced B/E pairs";
  EXPECT_TRUE(SpanPids.count(1)) << "client-local events missing";
  EXPECT_GE(SpanPids.size(), 2u) << "no remote spans were stitched";
  EXPECT_TRUE(ServerProcessNamed) << "missing process_name metadata";

  // Tracing never changes the report itself.
  DriverRun Plain = runLocal({"analyze", "--workload", "bitcount", "--remote",
                              F.remoteFlag()});
  EXPECT_EQ(R.Out, Plain.Out);
  std::remove(Path.c_str());
  obs::spanRingClear();
}

TEST(Loopback, ShutdownRefusesFurtherRequests) {
  Service Svc;
  Client C = Client::loopback(Svc);
  EXPECT_FALSE(Svc.isShuttingDown());
  Reply R = C.call("shutdown");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Result.member("ok")->asBool(), true);
  EXPECT_TRUE(Svc.isShuttingDown());
  Reply After = C.call("version");
  EXPECT_FALSE(After.Ok);
  EXPECT_EQ(After.Code, ErrorCode::ShuttingDown);
}

//===----------------------------------------------------------------------===//
// TCP server
//===----------------------------------------------------------------------===//

TEST(SocketServer, RoundTripAndGracefulShutdown) {
  ServerFixture F;
  Client C = F.connect();
  EXPECT_EQ(C.serverHandshake().ApiVersion, BEC_API_VERSION_STRING);

  Reply V = C.call("version");
  ASSERT_TRUE(V.Ok) << V.Message;
  Reply An = C.call("analyze", "{\"targets\":[\"bitcount\"]}");
  ASSERT_TRUE(An.Ok) << An.Message;

  // An idle second client must be unblocked by another client's shutdown.
  Client Idle = F.connect();
  Reply Sd = C.call("shutdown");
  ASSERT_TRUE(Sd.Ok) << Sd.Message;
  F.Runner.join(); // run() returns on its own after the drain.
  F.Runner = std::thread([] {});
  Reply AfterShutdown = Idle.call("version");
  EXPECT_FALSE(AfterShutdown.Ok);
  EXPECT_EQ(AfterShutdown.Code, ErrorCode::TransportError);
}

TEST(SocketServer, MalformedFrameKeepsConnectionAlive) {
  ServerFixture F;
  std::string Err;
  std::optional<Socket> Conn = connectTo("127.0.0.1", F.Srv.port(), Err);
  ASSERT_TRUE(Conn.has_value()) << Err;
  std::string Line;
  ASSERT_EQ(Conn->recvLine(Line, MaxFrameBytes, Err),
            Socket::RecvStatus::Line); // Handshake.

  ASSERT_TRUE(Conn->sendAll("garbage\n", Err));
  ASSERT_EQ(Conn->recvLine(Line, MaxFrameBytes, Err),
            Socket::RecvStatus::Line);
  EXPECT_NE(Line.find("parse_error"), std::string::npos);

  // Same connection still serves valid requests.
  ASSERT_TRUE(Conn->sendAll("{\"id\":5,\"method\":\"version\"}\n", Err));
  ASSERT_EQ(Conn->recvLine(Line, MaxFrameBytes, Err),
            Socket::RecvStatus::Line);
  EXPECT_NE(Line.find("\"id\":5"), std::string::npos);
  EXPECT_NE(Line.find("result"), std::string::npos);
}

TEST(SocketServer, ConcurrentClientsAreBitIdenticalToSerial) {
  // Serial reference: one loopback service, one client.
  Service Reference;
  Client Ref = Client::loopback(Reference);
  const char *Workloads[] = {"bitcount", "crc32", "sha", "dijkstra"};
  std::map<std::string, std::string> Expected;
  for (const char *W : Workloads) {
    Reply R = Ref.call("analyze", std::string("{\"targets\":[\"") + W +
                                      "\"],\"format\":\"json\"}");
    ASSERT_TRUE(R.Ok) << R.Message;
    Expected[W] = *R.Result.memberString("output");
  }

  ServerFixture F(/*Workers=*/4);
  constexpr int NumClients = 4, Rounds = 3;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumClients; ++T)
    Threads.emplace_back([&, T] {
      Client C = F.connect();
      for (int R = 0; R < Rounds; ++R)
        for (int W = 0; W < 4; ++W) {
          // Stagger the per-client order so rounds genuinely interleave.
          const char *Name = Workloads[(W + T) % 4];
          Reply Rep = C.call("analyze", std::string("{\"targets\":[\"") +
                                            Name +
                                            "\"],\"format\":\"json\"}");
          if (!Rep.Ok || *Rep.Result.memberString("output") != Expected[Name])
            ++Failures;
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  // All four contents were computed at most once; the rest were hits.
  Client C = F.connect();
  Reply St = C.call("stats");
  ASSERT_TRUE(St.Ok);
  EXPECT_EQ(*St.Result.member("session")->memberU64("shards"), 4u);
  EXPECT_GT(*St.Result.member("session")->memberU64("hits"), 0u);
}

//===----------------------------------------------------------------------===//
// Driver integration
//===----------------------------------------------------------------------===//

TEST(DriverServe, VersionFlagAndSubcommand) {
  for (const char *Spelling : {"--version", "version"}) {
    DriverRun R = runLocal({Spelling});
    EXPECT_EQ(R.Status, tool::ExitSuccess);
    EXPECT_NE(R.Out.find("bec " BEC_API_VERSION_STRING), std::string::npos);
    EXPECT_NE(R.Out.find("protocol"), std::string::npos);
  }
}

TEST(DriverServe, RemoteSubcommandsAreByteIdentical) {
  ServerFixture F;
  const std::string Remote = F.remoteFlag();

  // analyze / campaign / harden over every bundled workload (the
  // campaign window is truncated to keep sanitizer runs fast; both sides
  // see the same truncation).
  std::vector<std::vector<std::string>> Commands = {
      {"analyze", "--all"},
      {"analyze", "--all", "--format", "json"},
      {"campaign", "--all", "--max-cycles", "300"},
      {"harden", "--all"},
      {"schedule", "--workload", "bitcount", "--format", "json"},
      {"report", "--workload", "bitcount", "--max-cycles", "300"},
      {"campaign", "--workload", "bitcount", "--max-cycles", "300", "--sample",
       "4", "--seed", "9223372036854775808"},
      {"harden", "--workload", "crc32", "--sweep", "5,10"},
  };
  for (const std::vector<std::string> &Cmd : Commands) {
    DriverRun Local = runLocal(Cmd);
    std::vector<std::string> RemoteCmd = Cmd;
    RemoteCmd.push_back("--remote");
    RemoteCmd.push_back(Remote);
    DriverRun Rem = runLocal(RemoteCmd);
    EXPECT_EQ(Rem.Status, Local.Status) << Cmd[0];
    // Campaign and report outputs carry a measured wall-clock value;
    // everything else must match to the byte.
    bool Timed = Cmd[0] == "campaign" || Cmd[0] == "report";
    EXPECT_EQ(Timed ? maskSeconds(Rem.Out) : Rem.Out,
              Timed ? maskSeconds(Local.Out) : Local.Out)
        << Cmd[0];
    EXPECT_EQ(Rem.Err, Local.Err) << Cmd[0];
  }

  // --emit writes the server's assembly locally: the files match too.
  // The server already holds CRC32's schedules under CRC32's names when
  // it receives a file with the same content as the best one; the
  // emitted program is still named after the file.
  std::string Sched = testing::TempDir() + "/emit_crc32_best.s";
  ASSERT_EQ(runLocal({"schedule", "--all", "--remote", Remote}).Status,
            tool::ExitSuccess);
  ASSERT_EQ(runLocal({"schedule", "--workload", "crc32", "--emit", Sched})
                .Status,
            tool::ExitSuccess);
  for (const auto &[Sub, Flag, Target] :
       {std::tuple{"schedule", "--workload", "bitcount"},
        {"harden", "--workload", "crc32"},
        {"schedule", "--asm", Sched.c_str()},
        {"harden", "--asm", Sched.c_str()}}) {
    std::string LocalFile = testing::TempDir() + "/emit_local_" + Sub + ".s";
    std::string RemoteFile = testing::TempDir() + "/emit_remote_" + Sub + ".s";
    DriverRun Local = runLocal({Sub, Flag, Target, "--emit", LocalFile});
    DriverRun Rem =
        runLocal({Sub, Flag, Target, "--emit", RemoteFile, "--remote", Remote});
    EXPECT_EQ(Rem.Status, Local.Status) << Sub;
    EXPECT_EQ(Rem.Out, Local.Out) << Sub;
    EXPECT_EQ(Rem.Err, Local.Err) << Sub;
    auto Slurp = [](const std::string &Path) {
      std::ifstream In(Path);
      return std::string(std::istreambuf_iterator<char>(In), {});
    };
    EXPECT_FALSE(Slurp(LocalFile).empty()) << Sub;
    EXPECT_EQ(Slurp(RemoteFile), Slurp(LocalFile)) << Sub << " " << Target;
    std::remove(LocalFile.c_str());
    std::remove(RemoteFile.c_str());
  }
  std::remove(Sched.c_str());
}

TEST(DriverServe, ClientSubcommandMatchesLocal) {
  ServerFixture F;
  DriverRun Local = runLocal({"analyze", "--workload", "bitcount"});
  DriverRun Rem = runLocal(
      {"client", "analyze", "bitcount", "--remote", F.remoteFlag()});
  EXPECT_EQ(Rem.Status, Local.Status);
  EXPECT_EQ(Rem.Out, Local.Out);

  DriverRun Counts =
      runLocal({"client", "counts", "bitcount", "--remote", F.remoteFlag()});
  EXPECT_EQ(Counts.Status, tool::ExitSuccess) << Counts.Err;
  EXPECT_NE(Counts.Out.find("\"name\":\"bitcount\""), std::string::npos);

  DriverRun Unknown =
      runLocal({"client", "bogus", "--remote", F.remoteFlag()});
  EXPECT_EQ(Unknown.Status, tool::ExitUsage);
}

TEST(DriverServe, RemoteAsmFileMatchesLocal) {
  // Dump a workload to disk and analyze it as an external file.
  std::string Path = testing::TempDir() + "/serve_crc32.s";
  {
    std::ofstream OutFile(Path);
    OutFile << loadWorkload(*findWorkloadAnyCase("crc32")).toString();
  }
  ServerFixture F;
  DriverRun Local = runLocal({"analyze", "--asm", Path});
  DriverRun Rem =
      runLocal({"analyze", "--asm", Path, "--remote", F.remoteFlag()});
  EXPECT_EQ(Rem.Status, Local.Status);
  EXPECT_EQ(Rem.Out, Local.Out);
  EXPECT_EQ(Rem.Err, Local.Err);

  // A broken file produces the local diagnostic shape, with line/col.
  std::string BadPath = testing::TempDir() + "/serve_bad.s";
  {
    std::ofstream OutFile(BadPath);
    OutFile << "main:\n  frobnicate t0\n  ret\n";
  }
  DriverRun LocalBad = runLocal({"analyze", "--asm", BadPath});
  DriverRun RemBad =
      runLocal({"analyze", "--asm", BadPath, "--remote", F.remoteFlag()});
  EXPECT_EQ(RemBad.Status, LocalBad.Status);
  EXPECT_EQ(RemBad.Err, LocalBad.Err);
  EXPECT_NE(RemBad.Err.find("line 2, col 3"), std::string::npos);
}

TEST(DriverServe, ServeCommandEndToEnd) {
  std::string PortFile = testing::TempDir() + "/becd_port.txt";
  std::remove(PortFile.c_str());
  std::ostringstream ServeOut, ServeErr;
  std::thread ServerThread([&] {
    tool::runDriver({"serve", "--port", "0", "--port-file", PortFile},
                    ServeOut, ServeErr);
  });

  // Wait for the port file (write-then-rename makes reads atomic).
  std::string Port;
  for (int Tries = 0; Tries < 400 && Port.empty(); ++Tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    std::ifstream In(PortFile);
    std::getline(In, Port);
  }
  ASSERT_FALSE(Port.empty()) << ServeErr.str();

  const std::string Remote = "127.0.0.1:" + Port;
  DriverRun Local = runLocal({"harden", "--workload", "bitcount"});
  DriverRun Rem = runLocal(
      {"harden", "--workload", "bitcount", "--remote", Remote});
  EXPECT_EQ(Rem.Status, Local.Status);
  EXPECT_EQ(Rem.Out, Local.Out);

  DriverRun Stats = runLocal({"client", "stats", "--remote", Remote});
  EXPECT_EQ(Stats.Status, tool::ExitSuccess) << Stats.Err;
  EXPECT_NE(Stats.Out.find("\"session\""), std::string::npos);

  DriverRun Shutdown = runLocal({"client", "shutdown", "--remote", Remote});
  EXPECT_EQ(Shutdown.Status, tool::ExitSuccess) << Shutdown.Err;
  ServerThread.join();
  EXPECT_NE(ServeOut.str().find("becd listening on 127.0.0.1:" + Port),
            std::string::npos);
  EXPECT_NE(ServeOut.str().find("becd: shut down"), std::string::npos);
  std::remove(PortFile.c_str());
}

} // namespace
