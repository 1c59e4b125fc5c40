//===- perfbench/ServeWorkload.cpp - Gateway + two becd backends ----------===//
///
/// \file
/// The `serve` phase: an in-process gateway fronting two event-loop becd
/// backends on loopback ephemeral ports, whose worker pools add up to
/// nproc. The load is a closed loop of nproc client connections, each
/// sending its next request only after the previous reply, with a seeded
/// traffic mix: warm analyze/counts of bundled kernels, cold intern +
/// analyze of unique generated programs, schedule, and short sampled
/// 1-thread campaigns. Every reply is compared byte for byte with the
/// local rendering of the same query (a campaign's measured `seconds`
/// masked out); typed 105/106/107 refusals count as failed.
///
/// After the load, warm probes split a request's cost into layers: the
/// in-process frame handling (serve.protocol), the same request over TCP
/// straight to a backend (serve.direct_p50_us) and through the gateway
/// (net.gateway_hop_us is the difference), and rendering alone
/// (api.serialize).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Api.h"
#include "fuzz/Generator.h"
#include "ir/AsmParser.h"
#include "net/EventLoop.h"
#include "net/Gateway.h"
#include "obs/Trace.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Service.h"
#include "support/Json.h"
#include "support/Xoshiro.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

using namespace bec;
using namespace perfbench;

namespace {

/// The traffic mix is synthetic: no recorded traffic exists. It gives each
/// of the four request kinds the benchmark is defined over an equal share
/// (warm analyze/counts, cold intern + analyze, schedule, short campaign),
/// and every kind draws its target uniformly from the bundled kernels. A
/// pass is 1000 requests, so its p99 has ten samples beyond it.
constexpr unsigned PassRequests = 1000, TinyPassRequests = 48;
constexpr unsigned Probes = 200, TinyProbes = 10;
/// A short campaign samples the full bit-level plan with one run per
/// stratum of the sampler (it cuts a plan into at most 16 strata), the
/// smallest sample that covers every stratum. The per-request set-up, plan
/// and checkpoint table over the whole golden trace, then outweighs the
/// runs, which is the engine use this traffic stands for.
constexpr uint64_t CampaignSample = 16;

std::string jsonString(std::string_view S) {
  JsonWriter W;
  W.value(S);
  return W.take();
}

struct BackendServer {
  serve::Service Svc;
  std::unique_ptr<net::EventServer> Srv;
  std::thread Loop;
};

enum class Kind { Analyze, Counts, Intern, Schedule, Campaign };

struct Request {
  Kind K = Kind::Analyze;
  std::string Method;
  std::string Params;
  std::string Target;   ///< Kernel or interned program name.
  std::string Asm;      ///< Intern only.
  uint64_t SampleSeed = 0;
};

struct Response {
  bool Ok = false;
  serve::ErrorCode Code = serve::ErrorCode::InternalError;
  uint64_t Id = 0;
  std::string Frame;
  double Ms = 0;
};

serve::Client connectOrThrow(uint16_t Port) {
  std::string Err;
  std::optional<serve::Client> C = serve::Client::connect("127.0.0.1", Port, Err);
  if (!C)
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(Port) +
                             " failed: " + Err);
  return std::move(*C);
}

Response send(serve::Client &C, uint64_t Id, const std::string &Method,
              const std::string &Params) {
  Response R;
  R.Id = Id;
  Clock::time_point T0 = Clock::now();
  serve::Reply Rep = C.forwardRaw(Id, Method, Params, {}, &R.Frame);
  R.Ms = secondsSince(T0) * 1e3;
  R.Ok = Rep.Ok;
  R.Code = Rep.Code;
  return R;
}

/// Replaces every measured `seconds` number with 0 (in plain and in
/// string-escaped JSON), the one field a campaign reply may legitimately
/// differ in.
std::string maskSeconds(std::string S) {
  for (std::string_view Key : {"seconds\\\":", "seconds\":"}) {
    size_t Pos = 0;
    while ((Pos = S.find(Key, Pos)) != std::string::npos) {
      size_t Begin = Pos + Key.size(), End = Begin;
      while (End < S.size() && std::strchr("0123456789.eE+-", S[End]))
        ++End;
      S.replace(Begin, End - Begin, "0");
      Pos = Begin;
    }
  }
  while (!S.empty() && S.back() == '\n')
    S.pop_back();
  return S;
}

std::string commandFrame(uint64_t Id, const std::string &Output) {
  JsonWriter W;
  W.beginObject();
  W.key("format").value("json");
  W.key("exit").value(int64_t(0));
  W.key("output").value(Output);
  W.endObject();
  return serve::makeResultFrame(Id, W.take());
}

std::string hexEncode(std::string_view Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  for (unsigned char C : Bytes) {
    Out += Digits[C >> 4];
    Out += Digits[C & 0xF];
  }
  return Out;
}

} // namespace

/// One running gateway + two backends with the load's connections.
/// Constructing starts everything and warms the bundled kernels on both
/// backends; destroying disconnects and joins every server thread.
struct ServePhase::Stack {
  BackendServer Backends[2];
  std::unique_ptr<net::Gateway> GW;
  std::unique_ptr<net::EventServer> GwSrv;
  std::thread GwLoop;
  std::vector<serve::Client> Clients; ///< The load, through the gateway.
  std::vector<serve::Client> Direct;  ///< One per backend: probes, stats.

  explicit Stack(unsigned Threads) {
    try {
      start(Threads);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Stack() { stop(); }

  void start(unsigned Threads) {
    std::string Err;
    net::Gateway::Options GO;
    for (unsigned I = 0; I < 2; ++I) {
      BackendServer &B = Backends[I];
      net::EventServer::Options EO;
      EO.Port = 0;
      // The two pools add up to nproc.
      EO.Workers = std::max(1u, (Threads + 1 - I) / 2);
      serve::Service &Svc = B.Svc;
      B.Srv = std::make_unique<net::EventServer>(
          [&Svc](std::string_view Line, const net::FrameSink &Sink) {
            return Svc.handleFrameStreaming(Line, Sink);
          },
          Svc.handshakeFrame(), EO);
      B.Srv->setDrainCheck([&Svc] { return Svc.isShuttingDown(); });
      B.Srv->setAcceptCallback([&Svc] { Svc.noteConnection(); });
      if (!B.Srv->start(Err))
        throw std::runtime_error("backend start failed: " + Err);
      B.Loop = std::thread([Srv = B.Srv.get()] { Srv->run(); });
      GO.Backends.push_back("127.0.0.1:" + std::to_string(B.Srv->port()));
    }
    GW = std::make_unique<net::Gateway>(GO);
    if (!GW->start(Err))
      throw std::runtime_error("gateway start failed: " + Err);
    net::EventServer::Options EO;
    EO.Port = 0;
    // Gateway workers block on upstream replies: one per client connection.
    EO.Workers = std::max(8u, Threads);
    net::Gateway &G = *GW;
    GwSrv = std::make_unique<net::EventServer>(
        [&G](std::string_view Line, const net::FrameSink &Sink) {
          return G.handleFrame(Line, Sink);
        },
        G.handshakeFrame(), EO);
    GwSrv->setDrainCheck([&G] { return G.isDraining(); });
    if (!GwSrv->start(Err))
      throw std::runtime_error("gateway listen failed: " + Err);
    GwLoop = std::thread([Srv = GwSrv.get()] { Srv->run(); });

    for (unsigned I = 0; I < Threads; ++I)
      Clients.push_back(connectOrThrow(GwSrv->port()));
    for (BackendServer &B : Backends)
      Direct.push_back(connectOrThrow(B.Srv->port()));

    // Warm every bundled kernel on both backends, so the warm part of the
    // mix is cache hits wherever the gateway routes it.
    for (const Workload &W : allWorkloads()) {
      std::string Targets =
          "{\"targets\":[" + jsonString(W.Name) + "],\"format\":\"json\"}";
      for (serve::Client &C : Direct)
        for (const char *Method : {"analyze", "schedule"})
          if (!C.call(Method, Targets).Ok)
            throw std::runtime_error(std::string("warm-up ") + Method +
                                     " failed");
    }
  }

  void stop() {
    Clients.clear();
    Direct.clear();
    if (GwSrv) {
      GwSrv->requestStop();
      if (GwLoop.joinable())
        GwLoop.join();
    }
    GwSrv.reset();
    GW.reset(); // Closes the pooled upstream connections.
    for (BackendServer &B : Backends)
      if (B.Srv) {
        B.Srv->requestStop();
        if (B.Loop.joinable())
          B.Loop.join();
        B.Srv.reset();
      }
  }

  /// Session hits and misses summed over both backends.
  std::pair<uint64_t, uint64_t> sessionCounters() {
    uint64_t Hits = 0, Misses = 0;
    for (serve::Client &C : Direct) {
      serve::Reply R = C.call("stats");
      const JsonValue *S = R.Ok ? R.Result.member("session") : nullptr;
      if (!S)
        throw std::runtime_error("backend stats failed: " + R.errorText());
      Hits += S->memberU64("hits").value_or(0);
      Misses += S->memberU64("misses").value_or(0);
    }
    return {Hits, Misses};
  }
};

/// The local side of the byte comparison: the same queries computed in a
/// local session and rendered with api/Serialize. It is made once, outside
/// the timed set-up, and outlives every server stack, so a reply seen in an
/// earlier pass is rendered from cache.
struct ServePhase::Renderer {
  AnalysisSession Local;
  std::map<std::string, CachedProgramPtr> Programs;

  CachedProgramPtr program(const std::string &Name, const std::string &Asm) {
    auto It = Programs.find(Name);
    if (It != Programs.end())
      return It->second;
    CachedProgramPtr P;
    if (const Workload *W = findWorkload(Name)) {
      P = Local.intern(loadWorkload(*W));
    } else {
      AsmParseResult R = parseAsm(Asm, Name);
      if (!R.succeeded())
        return nullptr;
      P = Local.intern(std::move(*R.Prog));
    }
    Programs.emplace(Name, P);
    return P;
  }

  /// The frame the server must have sent for \p R under id \p Id.
  std::string expectedFrame(const Request &R, uint64_t Id) {
    CachedProgramPtr P = program(R.Target, R.Asm);
    if (!P)
      return "local parse failed";
    std::vector<std::string> Names = {R.Target};
    switch (R.K) {
    case Kind::Analyze: {
      std::vector<std::shared_ptr<const AnalyzeResult>> Res = {
          Local.get<AnalyzeQuery>(P)};
      return commandFrame(Id, renderAnalyzeJson(Names, Res));
    }
    case Kind::Counts:
      return serve::makeResultFrame(
          Id, renderCountsJson(R.Target, *Local.get<AnalyzeQuery>(P)));
    case Kind::Intern: {
      JsonWriter W;
      W.beginObject();
      W.key("name").value(R.Target);
      W.key("instrs").value(uint64_t(P->program().size()));
      W.key("content_key").value(hexEncode(P->contentKey()));
      W.endObject();
      return serve::makeResultFrame(Id, W.take());
    }
    case Kind::Schedule: {
      std::vector<std::shared_ptr<const ScheduleCmdResult>> Res = {
          Local.get<ScheduleCmdQuery>(P)};
      return commandFrame(Id, renderScheduleJson(Names, Res));
    }
    case Kind::Campaign: {
      CampaignCmdQuery::Options O;
      O.Plan = PlanKind::BitLevel;
      O.SampleSize = CampaignSample;
      O.SampleSeed = R.SampleSeed;
      std::vector<std::shared_ptr<const CampaignCmdResult>> Res = {
          Local.get<CampaignCmdQuery>(P, O)};
      return commandFrame(Id, renderCampaignJson(Names, Res, O.Plan));
    }
    }
    return {};
  }
};

/// The seeded traffic mix, one closed-loop request list per client.
struct ServePhase::Mix {
  std::vector<std::vector<Request>> PerClient;
  unsigned Total = 0;
};

ServePhase::ServePhase(const RunConfig &Cfg)
    : Cfg(Cfg), Render(std::make_unique<Renderer>()) {}
ServePhase::~ServePhase() = default;

void ServePhase::teardown() { S.reset(); }

void ServePhase::setup() {
  Xoshiro256 Rng(mixDigest(Cfg.Seed, 0x5e7e));
  const std::vector<Workload> &Kernels = allWorkloads();
  unsigned Target = Cfg.Tiny ? TinyPassRequests : PassRequests;
  Traffic = std::make_unique<Mix>();
  Traffic->PerClient.resize(Cfg.Threads);
  unsigned &Total = Traffic->Total;
  for (unsigned Op = 0; Total < Target; ++Op) {
    std::vector<Request> &Q = Traffic->PerClient[Op % Cfg.Threads];
    const std::string &K = Kernels[Rng.below(Kernels.size())].Name;
    std::string Targets = "{\"targets\":[" + jsonString(K) + "]";
    uint64_t Draw = Rng.below(4);
    if (Draw == 0) {
      if (Rng.below(2))
        Q.push_back({Kind::Analyze, "analyze",
                     Targets + ",\"format\":\"json\"}", K, {}, 0});
      else
        Q.push_back({Kind::Counts, "counts",
                     "{\"target\":" + jsonString(K) + "}", K, {}, 0});
    } else if (Draw == 1) {
      fuzz::GeneratedProgram G =
          fuzz::generateProgram(fuzz::programSeed(mixDigest(Cfg.Seed, 1), Op));
      std::string Name = "cold-" + std::to_string(Op) + ".s";
      Q.push_back({Kind::Intern, "intern",
                   "{\"name\":" + jsonString(Name) +
                       ",\"asm\":" + jsonString(G.Asm) + "}",
                   Name, G.Asm, 0});
      Q.push_back({Kind::Analyze, "analyze",
                   "{\"targets\":[" + jsonString(Name) +
                       "],\"format\":\"json\"}",
                   Name, G.Asm, 0});
      ++Total;
    } else if (Draw == 2) {
      Q.push_back({Kind::Schedule, "schedule",
                   Targets + ",\"format\":\"json\"}", K, {}, 0});
    } else {
      uint64_t Seed = Rng.next() >> 1;
      Q.push_back({Kind::Campaign, "campaign",
                   Targets + ",\"plan\":\"bit\",\"sample\":" +
                       std::to_string(CampaignSample) +
                       ",\"seed\":" + std::to_string(Seed) +
                       ",\"threads\":1,\"format\":\"json\"}",
                   K, {}, Seed});
    }
    ++Total;
  }
}

void ServePhase::runPass(Checker &Chk) {
  // Every pass meets the same cold programs on fresh servers; starting
  // them is outside the measured window.
  S.reset();
  S = std::make_unique<Stack>(Cfg.Threads);
  const std::vector<std::vector<Request>> &PerClient = Traffic->PerClient;
  unsigned Clients = unsigned(PerClient.size());

  std::pair<uint64_t, uint64_t> Before = S->sessionCounters();
  std::vector<std::vector<Response>> Replies(Clients);
  Clock::time_point Start = Clock::now();
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        uint64_t Id = 1;
        for (const Request &R : PerClient[C]) {
          obs::Span Sp("serve.request");
          Replies[C].push_back(send(S->Clients[C], Id++, R.Method, R.Params));
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  double Wall = secondsSince(Start);
  std::pair<uint64_t, uint64_t> After = S->sessionCounters();
  uint64_t Hits = After.first - Before.first;
  uint64_t Misses = After.second - Before.second;
  HitRate = Hits + Misses ? double(Hits) / double(Hits + Misses) : 0;

  std::vector<double> LatencyMs;
  for (unsigned C = 0; C < Clients; ++C)
    for (size_t I = 0; I < PerClient[C].size(); ++I) {
      const Request &Rq = PerClient[C][I];
      const Response &Rs = Replies[C][I];
      ++Requests;
      LatencyMs.push_back(Rs.Ms);
      if (!Rs.Ok) {
        int Code = int(Rs.Code);
        Rejected += Code == 105 || Code == 106 || Code == 107;
        Chk.check(false, Rq.Method + " " + Rq.Target + " failed with code " +
                             std::to_string(Code));
        continue;
      }
      Chk.check(maskSeconds(Rs.Frame) ==
                    maskSeconds(Render->expectedFrame(Rq, Rs.Id)),
                Rq.Method + " " + Rq.Target +
                    ": reply differs from the local rendering");
    }
  Totals.add(double(Traffic->Total), Wall, std::move(LatencyMs));

  // Warm probes: the same cached request at three depths of the stack.
  unsigned N = Cfg.Tiny ? TinyProbes : Probes;
  const std::string Probe = "{\"targets\":[\"bitcount\"],\"format\":\"json\"}";
  auto P50Us = [&](serve::Client &C) {
    std::vector<double> Us;
    for (unsigned I = 0; I < N; ++I) {
      Response R = send(C, 1000000 + I, "analyze", Probe);
      Chk.check(R.Ok, "warm probe failed");
      Us.push_back(R.Ms * 1e3);
    }
    return median(Us);
  };
  DirectP50Us = P50Us(S->Direct[0]);
  GatewayP50Us = P50Us(S->Clients[0]);
  std::string Frame = serve::makeRequestFrame(1, "analyze", Probe);
  for (unsigned I = 0; I < N; ++I) {
    obs::Span Sp("serve.protocol");
    S->Backends[0].Svc.handleFrame(Frame);
  }
  std::vector<std::string> Names = {"bitcount"};
  std::vector<std::shared_ptr<const AnalyzeResult>> Res = {
      Render->Local.get<AnalyzeQuery>(Render->program("bitcount", {}))};
  for (unsigned I = 0; I < N; ++I) {
    obs::Span Sp("api.serialize");
    renderAnalyzeJson(Names, Res);
  }
  std::printf("serve pass %zu: %u requests, %.1f requests/s\n",
              Totals.P50.size(), Traffic->Total, Traffic->Total / Wall);
}

void ServePhase::perLayer(MetricMap &M) const {
  M["serve.requests_per_s"] = {median(Totals.Rate), "1/s"};
  M["serve.p50_ms"] = {median(Totals.P50), "ms"};
  M["serve.p99_ms"] = {median(Totals.P99), "ms"};
  M["api.session_hit_rate"] = {HitRate, "share"};
  M["serve.direct_p50_us"] = {DirectP50Us, "us"};
  M["serve.rejected_share"] = {Requests ? double(Rejected) / double(Requests)
                                        : 0,
                               "share"};
  M["net.gateway_hop_us"] = {GatewayP50Us - DirectP50Us, "us"};
}
