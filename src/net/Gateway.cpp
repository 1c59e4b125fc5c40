//===- net/Gateway.cpp - Consistent-hashing becd gateway ------------------===//

#include "net/Gateway.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Prometheus.h"
#include "obs/SpanRing.h"
#include "obs/Trace.h"
#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <chrono>

using namespace bec;
using namespace bec::net;
using serve::ErrorCode;

namespace {

/// FNV-1a 64-bit: stable across runs and platforms (the ring must be).
uint64_t fnv1a64(std::string_view S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// The ring hash: FNV-1a finished with MurmurHash3's 64-bit avalanche.
/// Raw FNV of the short, near-identical strings involved here (vnode
/// labels, "program-N" names) clusters badly on the 64-bit circle — in
/// one measured 3-backend layout a backend owned 10% of the ring and
/// received 0 of 400 keys. The finalizer restores a uniform spread.
uint64_t ringHash(std::string_view S) {
  uint64_t H = fnv1a64(S);
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return H;
}

std::string lowered(std::string_view S) {
  std::string Out(S);
  std::transform(Out.begin(), Out.end(), Out.begin(),
                 [](unsigned char C) { return char(std::tolower(C)); });
  return Out;
}

/// Per-backend forward-latency histograms, registered lazily by address
/// (the obs registry keys call sites by name; backends are dynamic).
const obs::Histogram &forwardHistogram(const std::string &Address) {
  static std::mutex Mu;
  static std::map<std::string, obs::Histogram> ByAddress;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = ByAddress.find(Address);
  if (It == ByAddress.end())
    It = ByAddress
             .emplace(Address, obs::Histogram("gateway.forward.us{backend=\"" +
                                              Address + "\"}"))
             .first;
  return It->second;
}

/// Shared between the initial synchronous probe pass and the periodic
/// checker (a function-local static in either would hide it from the
/// other).
const obs::Gauge &healthyGauge() {
  static const obs::Gauge G("gateway.backends.healthy");
  return G;
}

} // namespace

Gateway::Gateway(Options O) : Opts(std::move(O)) {
  if (Opts.VirtualNodes == 0)
    Opts.VirtualNodes = 1;
}

Gateway::~Gateway() { stop(); }

bool Gateway::start(std::string &Err) {
  if (Opts.Backends.empty()) {
    Err = "gateway requires at least one backend";
    return false;
  }
  for (const std::string &Addr : Opts.Backends) {
    auto B = std::make_unique<Backend>();
    B->Address = Addr;
    if (!serve::splitHostPort(Addr, B->Host, B->Port)) {
      Err = "malformed backend address '" + Addr + "' (want host:port)";
      return false;
    }
    for (const auto &Existing : Backends)
      if (Existing->Address == Addr) {
        Err = "duplicate backend address '" + Addr + "'";
        return false;
      }
    Backends.push_back(std::move(B));
  }
  for (size_t I = 0; I < Backends.size(); ++I)
    for (unsigned V = 0; V < Opts.VirtualNodes; ++V)
      Ring.emplace(ringHash(Backends[I]->Address + "#" + std::to_string(V)),
                   I);
  // One synchronous probe so routing works immediately, then the
  // periodic checker takes over.
  int64_t Healthy = 0;
  for (auto &B : Backends) {
    probe(*B);
    if (B->Healthy.load())
      ++Healthy;
  }
  healthyGauge().set(Healthy);
  HealthThread = std::thread([this] { healthCheckMain(); });
  return true;
}

void Gateway::stop() {
  {
    std::lock_guard<std::mutex> Lock(HealthMutex);
    if (HealthStop)
      return;
    HealthStop = true;
  }
  HealthCv.notify_all();
  if (HealthThread.joinable())
    HealthThread.join();
}

//===----------------------------------------------------------------------===//
// Routing
//===----------------------------------------------------------------------===//

size_t Gateway::backendIndexFor(std::string_view Key) const {
  auto It = Ring.lower_bound(ringHash(Key));
  if (It == Ring.end())
    It = Ring.begin();
  return It->second;
}

std::vector<size_t> Gateway::candidatesFor(std::string_view Key) const {
  std::vector<size_t> Order;
  std::vector<bool> Seen(Backends.size(), false);
  auto It = Ring.lower_bound(ringHash(Key));
  for (size_t Walked = 0; Walked < Ring.size() && Order.size() < Backends.size();
       ++Walked, ++It) {
    if (It == Ring.end())
      It = Ring.begin();
    if (!Seen[It->second]) {
      Seen[It->second] = true;
      Order.push_back(It->second);
    }
  }
  return Order;
}

std::string Gateway::routeKey(const serve::Request &R) {
  if (R.Method == "intern") {
    if (const std::string *N = R.Params.memberString("name"))
      return lowered(*N);
    return "";
  }
  if (R.Method == "counts") {
    if (const std::string *T = R.Params.memberString("target"))
      return lowered(*T);
    return "";
  }
  const JsonValue *Targets = R.Params.member("targets");
  const std::vector<JsonValue> *Arr = Targets ? Targets->asArray() : nullptr;
  if (!Arr || Arr->empty())
    return ""; // Default-targets requests share one stable key.
  std::string Key;
  for (const JsonValue &T : *Arr) {
    if (const std::string *S = T.asString()) {
      if (!Key.empty())
        Key += '\n';
      Key += lowered(*S);
    }
  }
  return Key;
}

//===----------------------------------------------------------------------===//
// Upstream connections and intern replay
//===----------------------------------------------------------------------===//

std::unique_ptr<serve::Client> Gateway::acquire(Backend &B, std::string &Err) {
  {
    std::lock_guard<std::mutex> Lock(B.PoolMutex);
    if (!B.Idle.empty()) {
      auto C = std::make_unique<serve::Client>(std::move(B.Idle.back()));
      B.Idle.pop_back();
      return C;
    }
  }
  std::optional<serve::Client> C = serve::Client::connect(B.Host, B.Port, Err);
  if (!C)
    return nullptr;
  return std::make_unique<serve::Client>(std::move(*C));
}

void Gateway::release(Backend &B, std::unique_ptr<serve::Client> C) {
  std::lock_guard<std::mutex> Lock(B.PoolMutex);
  if (B.Idle.size() < 8)
    B.Idle.push_back(std::move(*C));
}

void Gateway::markUnhealthy(Backend &B) {
  B.Healthy.store(false);
  std::lock_guard<std::mutex> Lock(B.PoolMutex);
  B.Idle.clear(); // Pooled connections to a dead backend are poison.
}

bool Gateway::replayInterns(Backend &B, serve::Client &C,
                            const serve::Request &R) {
  std::vector<std::string> Names;
  if (R.Method == "counts") {
    if (const std::string *T = R.Params.memberString("target"))
      Names.push_back(*T);
  } else if (R.Method != "intern") {
    const JsonValue *Targets = R.Params.member("targets");
    if (const std::vector<JsonValue> *Arr =
            Targets ? Targets->asArray() : nullptr)
      for (const JsonValue &T : *Arr)
        if (const std::string *S = T.asString())
          Names.push_back(*S);
  }
  for (const std::string &Name : Names) {
    std::string ParamsJson;
    uint64_t Gen = 0;
    {
      std::lock_guard<std::mutex> Lock(JournalMutex);
      auto It = Journal.find(Name);
      if (It == Journal.end())
        continue; // Bundled workload (or unknown): nothing to replay.
      ParamsJson = It->second.first;
      Gen = It->second.second;
    }
    {
      std::lock_guard<std::mutex> Lock(B.SentMutex);
      auto It = B.Sent.find(Name);
      if (It != B.Sent.end() && It->second == Gen)
        continue;
    }
    serve::Reply Rep = C.call("intern", ParamsJson);
    if (!Rep.Ok && Rep.Code == ErrorCode::TransportError)
      return false;
    if (Rep.Ok) {
      if (obs::logEnabled(obs::LogLevel::Info))
        obs::log(obs::LogLevel::Info, "gateway.intern.replay",
                 {{"backend", B.Address}, {"name", Name}});
      std::lock_guard<std::mutex> Lock(B.SentMutex);
      B.Sent[Name] = Gen;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

std::string Gateway::handleFrame(std::string_view Line,
                                 const FrameSink &Sink) {
  static const obs::Counter Requests("gateway.requests");
  serve::ParsedFrame P = serve::parseRequestFrame(Line);
  if (!P.Req)
    return serve::makeErrorFrame(P.Id, P.Code, P.Message);
  const serve::Request &R = *P.Req;
  Requests.add();
  obs::Span S(obs::traceActive() ? "gateway." + R.Method : std::string());
  // Adopt the request's distributed-trace context: this hop's span joins
  // the client's trace, and forwarded requests carry it as their parent.
  obs::RingSpanScope RingSpan(R.Trace.TraceId, R.Trace.ParentSpan,
                              "gateway." + R.Method);
  obs::LogRequestScope LogScope(0, R.Method, R.Trace.TraceId);
  if (Draining.load() && R.Method != "shutdown")
    return serve::makeErrorFrame(R.Id, ErrorCode::ShuttingDown,
                                 "gateway is shutting down");
  if (R.Method == "shutdown") {
    Draining.store(true);
    return serve::makeResultFrame(R.Id, "{\"ok\":true}");
  }
  if (R.Method == "metrics")
    return methodMetrics(R);
  if (R.Method == "stats")
    return methodStats(R);
  if (R.Method == "trace/dump")
    return methodTraceDump(R);
  if (R.Method == "log/level")
    return methodLogLevel(R);
  if (R.Method == "gateway/backends")
    return methodBackends(R);
  if (R.Method == "gateway/drain")
    return methodDrain(R, /*Drain=*/true);
  if (R.Method == "gateway/undrain")
    return methodDrain(R, /*Drain=*/false);
  std::string ParamsJson = R.Params.isNull() ? "" : R.Params.toJson();
  serve::TraceContext Downstream;
  if (RingSpan.active()) {
    Downstream.TraceId = R.Trace.TraceId;
    Downstream.ParentSpan = RingSpan.spanId();
  }
  return forward(R, ParamsJson, Downstream, Sink);
}

std::string Gateway::forward(const serve::Request &R,
                             const std::string &ParamsJson,
                             const serve::TraceContext &Downstream,
                             const FrameSink &Sink) {
  static const obs::Counter Failovers("gateway.failovers");
  static const obs::Counter Forwarded("gateway.forwarded");
  std::string Key = routeKey(R);
  auto NoteFailover = [&](Backend &B, const char *Why) {
    markUnhealthy(B);
    ++B.Failovers;
    Failovers.add();
    if (obs::logEnabled(obs::LogLevel::Warn))
      obs::log(obs::LogLevel::Warn, "gateway.failover",
               {{"backend", B.Address}, {"reason", Why}});
  };
  for (size_t Idx : candidatesFor(Key)) {
    Backend &B = *Backends[Idx];
    if (!B.Healthy.load() || B.AdminDrained.load())
      continue;
    // One ring span per attempt: failover retries show up as sibling
    // spans under the gateway's request span, each naming its backend.
    obs::RingSpanScope Attempt(Downstream.TraceId, Downstream.ParentSpan,
                               "gateway.attempt");
    Attempt.arg("backend", std::string_view(B.Address));
    std::string Err;
    std::unique_ptr<serve::Client> C = acquire(B, Err);
    if (!C) {
      Attempt.arg("outcome", "connect_failed");
      NoteFailover(B, "connect_failed");
      continue;
    }
    if (!replayInterns(B, *C, R)) {
      Attempt.arg("outcome", "replay_failed");
      NoteFailover(B, "replay_failed");
      continue;
    }
    // Forwarded frames carry the attempt span as parent, so each
    // backend's spans nest under the attempt that reached it.
    if (Attempt.active())
      C->setTrace({Downstream.TraceId, Attempt.spanId()});
    std::string FinalRaw;
    auto Start = std::chrono::steady_clock::now();
    serve::Reply Rep = C->forwardRaw(
        R.Id, R.Method, ParamsJson,
        [&](std::string_view Raw) {
          if (Sink)
            Sink(std::string(Raw) + "\n");
        },
        &FinalRaw);
    auto Us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
    forwardHistogram(B.Address).observeUs(Us < 0 ? 0 : uint64_t(Us));
    C->setTrace({}); // Pooled clients must not leak the context.
    if (FinalRaw.empty()) {
      // No final frame made it back: a transport-level failure. Every
      // becd method is idempotent, so retry on the ring's next backend.
      // (Progress frames already relayed may be re-streamed by the
      // retry; clients treat them as advisory.)
      Attempt.arg("outcome", "transport_error");
      NoteFailover(B, "transport_error");
      continue;
    }
    Attempt.arg("outcome", "ok");
    ++B.Forwarded;
    Forwarded.add();
    if (R.Method == "intern") {
      // Journal successful interns for replay-on-failover; a re-intern
      // bumps the generation so stale backends get the new content.
      const std::string *Name = R.Params.memberString("name");
      if (Rep.Ok && Name) {
        uint64_t Gen;
        {
          std::lock_guard<std::mutex> Lock(JournalMutex);
          Gen = ++JournalGen;
          Journal[*Name] = {ParamsJson, Gen};
        }
        std::lock_guard<std::mutex> Lock(B.SentMutex);
        B.Sent[*Name] = Gen;
      }
    }
    release(B, std::move(C));
    return FinalRaw + "\n";
  }
  if (obs::logEnabled(obs::LogLevel::Error))
    obs::log(obs::LogLevel::Error, "gateway.no_backend",
             {{"key", Key}});
  return serve::makeErrorFrame(R.Id, ErrorCode::NoBackend,
                               "no healthy backend for request");
}

//===----------------------------------------------------------------------===//
// Gateway-local methods
//===----------------------------------------------------------------------===//

std::string Gateway::methodMetrics(const serve::Request &R) {
  JsonWriter W;
  W.beginObject();
  W.key("content_type").value("text/plain; version=0.0.4");
  W.key("text").value(obs::renderPrometheus(obs::snapshotMetrics()));
  W.endObject();
  return serve::makeResultFrame(R.Id, W.take());
}

std::string Gateway::methodTraceDump(const serve::Request &R) {
  std::string Filter;
  if (const JsonValue *TV = R.Params.member("trace_id")) {
    const std::string *Sp = TV->asString();
    if (!Sp)
      return serve::makeErrorFrame(R.Id, ErrorCode::InvalidParams,
                                   "'trace_id' must be a string when present");
    Filter = *Sp;
  }
  std::string Process = obs::spanRingProcess();
  std::string Out = "{\"process\":";
  {
    JsonWriter PW;
    PW.value(Process);
    Out += PW.take();
  }
  Out += ",\"spans\":[";
  bool First = true;
  for (const obs::RingSpan &Sp : obs::spanRingSnapshot(Filter)) {
    if (!First)
      Out += ',';
    First = false;
    Out += obs::renderRingSpanJson(Sp, Process);
  }
  // Merge every healthy backend's dump. Backend spans are re-rendered
  // with the backend *address* as their process label: all backends
  // call themselves "becd", and the stitching client needs to tell
  // shards apart.
  std::string ParamsJson = R.Params.isNull() ? "" : R.Params.toJson();
  for (auto &B : Backends) {
    if (!B->Healthy.load())
      continue;
    std::string Err;
    std::unique_ptr<serve::Client> C = acquire(*B, Err);
    if (!C)
      continue;
    serve::Reply Rep = C->call("trace/dump", ParamsJson);
    if (!Rep.Ok) {
      if (Rep.Code == ErrorCode::TransportError)
        markUnhealthy(*B);
      continue;
    }
    if (const JsonValue *Spans = Rep.Result.member("spans"))
      if (const std::vector<JsonValue> *Arr = Spans->asArray())
        for (const JsonValue &SV : *Arr) {
          obs::RingSpan Sp;
          if (const std::string *S = SV.memberString("name"))
            Sp.Name = *S;
          if (const std::string *S = SV.memberString("trace_id"))
            Sp.TraceId = *S;
          if (const std::string *S = SV.memberString("span_id"))
            Sp.SpanId = *S;
          if (const std::string *S = SV.memberString("parent_span"))
            Sp.ParentSpan = *S;
          Sp.StartUs = SV.memberU64("start_us").value_or(0);
          Sp.DurUs = SV.memberU64("dur_us").value_or(0);
          Sp.Tid = SV.memberU64("tid").value_or(0);
          if (const JsonValue *Args = SV.member("args"))
            Sp.ArgsJson = Args->toJson();
          if (!First)
            Out += ',';
          First = false;
          Out += obs::renderRingSpanJson(Sp, B->Address);
        }
    release(*B, std::move(C));
  }
  Out += "]}";
  return serve::makeResultFrame(R.Id, Out);
}

std::string Gateway::methodLogLevel(const serve::Request &R) {
  if (const JsonValue *LV = R.Params.member("level")) {
    const std::string *Sp = LV->asString();
    std::optional<obs::LogLevel> L =
        Sp ? obs::parseLogLevel(*Sp) : std::nullopt;
    if (!L)
      return serve::makeErrorFrame(
          R.Id, ErrorCode::InvalidParams,
          "'level' must be one of debug | info | warn | error | off");
    obs::setLogLevel(*L);
    obs::log(obs::LogLevel::Info, "log.level.changed",
             {{"level", std::string_view(obs::logLevelName(*L))}});
  }
  JsonWriter W;
  W.beginObject();
  W.key("ok").value(true);
  W.key("level").value(obs::logLevelName(obs::logLevel()));
  W.endObject();
  return serve::makeResultFrame(R.Id, W.take());
}

std::string Gateway::methodBackends(const serve::Request &R) {
  JsonWriter W;
  W.beginObject();
  W.key("backends").beginArray();
  for (const auto &B : Backends) {
    W.beginObject();
    W.key("address").value(B->Address);
    W.key("healthy").value(B->Healthy.load());
    W.key("draining").value(B->AdminDrained.load());
    W.key("forwarded").value(B->Forwarded.load());
    W.key("failovers").value(B->Failovers.load());
    W.endObject();
  }
  W.endArray();
  W.key("ring_keys").value(uint64_t(Ring.size()));
  W.key("virtual_nodes").value(uint64_t(Opts.VirtualNodes));
  W.endObject();
  return serve::makeResultFrame(R.Id, W.take());
}

std::string Gateway::methodDrain(const serve::Request &R, bool Drain) {
  const std::string *Addr = R.Params.memberString("backend");
  if (!Addr)
    return serve::makeErrorFrame(R.Id, ErrorCode::InvalidParams,
                                 "params.backend (host:port) is required");
  for (const auto &B : Backends) {
    if (B->Address != *Addr)
      continue;
    B->AdminDrained.store(Drain);
    JsonWriter W;
    W.beginObject();
    W.key("ok").value(true);
    W.key("backend").value(B->Address);
    W.key("draining").value(Drain);
    W.endObject();
    return serve::makeResultFrame(R.Id, W.take());
  }
  return serve::makeErrorFrame(R.Id, ErrorCode::InvalidParams,
                               "unknown backend '" + *Addr + "'");
}

std::string Gateway::methodStats(const serve::Request &R) {
  // Fan out to every healthy backend, then merge: summed counters, a
  // count-weighted latency mean with worst-case quantiles, summed
  // session cache stats — plus the per-backend health the gateway alone
  // can see.
  struct LatencyAgg {
    uint64_t Count = 0;
    double SumMeanWeighted = 0;
    uint64_t P50 = 0, P99 = 0;
  };
  uint64_t Connections = 0, Requests = 0, Errors = 0, Programs = 0;
  uint64_t Hits = 0, Misses = 0, Interned = 0, Shards = 0;
  std::map<std::string, uint64_t> Methods;
  std::map<std::string, LatencyAgg> Latency;
  std::vector<std::pair<const Backend *, bool>> Reached;

  for (const auto &B : Backends) {
    bool Got = false;
    if (B->Healthy.load()) {
      std::string Err;
      if (std::unique_ptr<serve::Client> C = acquire(*B, Err)) {
        serve::Reply Rep = C->call("stats");
        if (Rep.Ok) {
          Got = true;
          const JsonValue &V = Rep.Result;
          auto Sum = [&](const char *Key, uint64_t &Into) {
            if (std::optional<uint64_t> N = V.memberU64(Key))
              Into += *N;
          };
          Sum("connections", Connections);
          Sum("requests", Requests);
          Sum("errors", Errors);
          Sum("programs", Programs);
          if (const JsonValue *M = V.member("methods"))
            for (const auto &[Name, Count] : M->objectMembers())
              if (std::optional<uint64_t> N = Count.asU64())
                Methods[Name] += *N;
          if (const JsonValue *L = V.member("latency"))
            for (const auto &[Name, Snap] : L->objectMembers()) {
              LatencyAgg &A = Latency[Name];
              uint64_t N = Snap.memberU64("count").value_or(0);
              A.Count += N;
              if (const JsonValue *Mean = Snap.member("mean_us"))
                if (std::optional<double> D = Mean->asDouble())
                  A.SumMeanWeighted += *D * double(N);
              A.P50 = std::max(A.P50, Snap.memberU64("p50_us").value_or(0));
              A.P99 = std::max(A.P99, Snap.memberU64("p99_us").value_or(0));
            }
          if (const JsonValue *SS = V.member("session")) {
            auto SumS = [&](const char *Key, uint64_t &Into) {
              if (std::optional<uint64_t> N = SS->memberU64(Key))
                Into += *N;
            };
            SumS("hits", Hits);
            SumS("misses", Misses);
            SumS("interned", Interned);
            SumS("shards", Shards);
          }
          release(*B, std::move(C));
        } else if (Rep.Code == ErrorCode::TransportError) {
          markUnhealthy(*B);
        }
      } else {
        markUnhealthy(*B);
      }
    }
    Reached.push_back({B.get(), Got});
  }

  JsonWriter W;
  W.beginObject();
  W.key("gateway").beginObject();
  W.key("backends").beginArray();
  for (const auto &[B, Got] : Reached) {
    W.beginObject();
    W.key("address").value(B->Address);
    W.key("healthy").value(B->Healthy.load());
    W.key("draining").value(B->AdminDrained.load());
    W.key("forwarded").value(B->Forwarded.load());
    W.key("failovers").value(B->Failovers.load());
    W.key("stats_included").value(Got);
    W.endObject();
  }
  W.endArray();
  W.key("ring_keys").value(uint64_t(Ring.size()));
  W.endObject();
  W.key("connections").value(Connections);
  W.key("requests").value(Requests);
  W.key("errors").value(Errors);
  W.key("methods").beginObject();
  for (const auto &[Name, Count] : Methods)
    W.key(Name).value(Count);
  W.endObject();
  W.key("latency").beginObject();
  for (const auto &[Name, A] : Latency) {
    if (A.Count == 0)
      continue;
    W.key(Name).beginObject();
    W.key("count").value(A.Count);
    W.key("p50_us").value(A.P50);
    W.key("p99_us").value(A.P99);
    W.key("mean_us").value(A.SumMeanWeighted / double(A.Count));
    W.endObject();
  }
  W.endObject();
  W.key("gauges").beginObject();
  for (const obs::MetricValue &M : obs::snapshotMetrics().Metrics)
    if (M.Kind == obs::MetricKind::Gauge)
      W.key(M.Name).value(int64_t(M.GaugeValue));
  W.endObject();
  W.key("session").beginObject();
  W.key("hits").value(Hits);
  W.key("misses").value(Misses);
  W.key("hit_rate").value(double(Hits) / double(Hits + Misses));
  W.key("interned").value(Interned);
  W.key("shards").value(Shards);
  W.endObject();
  W.key("programs").value(Programs);
  W.endObject();
  return serve::makeResultFrame(R.Id, W.take());
}

//===----------------------------------------------------------------------===//
// Health checking
//===----------------------------------------------------------------------===//

void Gateway::probe(Backend &B) {
  std::string Err;
  bool Ok = false;
  if (std::optional<serve::Client> C =
          serve::Client::connect(B.Host, B.Port, Err))
    Ok = C->call("version").Ok;
  bool Was = B.Healthy.exchange(Ok);
  if (Ok != Was)
    obs::log(Ok ? obs::LogLevel::Info : obs::LogLevel::Warn,
             "gateway.backend.health",
             {{"backend", B.Address}, {"healthy", Ok}});
}

void Gateway::healthCheckMain() {
  obs::setTraceThreadName("gateway-health");
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(HealthMutex);
      HealthCv.wait_for(Lock,
                        std::chrono::milliseconds(Opts.HealthIntervalMs),
                        [&] { return HealthStop; });
      if (HealthStop)
        return;
    }
    int64_t Healthy = 0;
    for (auto &B : Backends) {
      probe(*B);
      if (B->Healthy.load())
        ++Healthy;
    }
    healthyGauge().set(Healthy);
  }
}
