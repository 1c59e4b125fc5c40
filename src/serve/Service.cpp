//===- serve/Service.cpp - The becd request router ------------------------===//

#include "serve/Service.h"

#include "api/Api.h"
#include "ir/AsmParser.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Prometheus.h"
#include "obs/SpanRing.h"
#include "obs/Trace.h"
#include "support/Json.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <exception>

using namespace bec;
using namespace bec::serve;

namespace {

std::string hexEncode(std::string_view Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out;
  Out.reserve(Bytes.size() * 2);
  for (unsigned char C : Bytes) {
    Out += Digits[C >> 4];
    Out += Digits[C & 0xF];
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Service: frame handling
//===----------------------------------------------------------------------===//

Service::Outcome Service::fail(ErrorCode C, std::string Message,
                               std::string DataJson) {
  Outcome O;
  O.Failed = true;
  O.Code = C;
  O.Message = std::move(Message);
  O.DataJson = std::move(DataJson);
  return O;
}

namespace {

/// The per-method latency histogram, keyed by sanitized method name (the
/// known list plus "unknown", so the metric family stays bounded like
/// PerMethod). Handles are cached: registration cost is paid once per
/// method, not per request.
const obs::Histogram &methodHistogram(const std::string &Method) {
  static std::mutex Mu;
  static std::map<std::string, obs::Histogram> Hists;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Hists.find(Method);
  if (It == Hists.end())
    It = Hists
             .emplace(Method, obs::Histogram("serve.method.us{method=\"" +
                                             Method + "\"}"))
             .first;
  return It->second; // Map node references are stable.
}

} // namespace

std::string Service::handleFrame(std::string_view Line) {
  return handleFrameStreaming(Line, nullptr);
}

std::string Service::handleFrameStreaming(std::string_view Line,
                                          const FrameSink &Sink) {
  static const obs::Counter CtrRequests("serve.requests");
  static const obs::Counter CtrErrors("serve.errors");
  static const obs::Gauge GaugeInflight("serve.requests.inflight");

  CtrRequests.add();
  GaugeInflight.add(1);
  ParsedFrame F = parseRequestFrame(Line);
  // PerMethod keys are served method names only, so a client cycling
  // through bogus names cannot grow the daemon's stats map without bound.
  const std::string StatName =
      F.Req && (methodOf(F.Req->Method) || commandOfMethod(F.Req->Method))
          ? F.Req->Method
          : "unknown";
  obs::ScopedTimerUs Timer(methodHistogram(StatName));
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Requests;
    if (F.Req)
      ++PerMethod[StatName];
  }
  if (!F.Req) {
    CtrErrors.add();
    GaugeInflight.add(-1);
    if (obs::logEnabled(obs::LogLevel::Warn))
      obs::log(obs::LogLevel::Warn, "serve.request.error",
               {{"code", int64_t(F.Code)},
                {"error", std::string_view(errorCodeName(F.Code))},
                {"message", F.Message}});
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Errors;
    return makeErrorFrame(F.Id, F.Code, F.Message);
  }

  const Request &R = *F.Req;
  obs::Span SpanHandle(obs::traceActive() ? "serve." + StatName
                                          : std::string());
  // Requests carrying a distributed-trace context get a ring span (for
  // the client's later trace/dump) and trace-id-tagged log lines; both
  // are inert for untraced traffic.
  obs::RingSpanScope RingSpan(R.Trace.TraceId, R.Trace.ParentSpan,
                              "serve." + StatName);
  obs::LogRequestScope LogScope(0, StatName, R.Trace.TraceId);
  Outcome O;
  if (Shutdown.load()) {
    O = fail(ErrorCode::ShuttingDown, "server is shutting down");
  } else {
    try {
      O = dispatch(R, Sink);
    } catch (const std::exception &E) {
      O = fail(ErrorCode::InternalError,
               std::string("method '") + R.Method + "' failed: " + E.what());
    } catch (...) {
      O = fail(ErrorCode::InternalError,
               std::string("method '") + R.Method + "' failed");
    }
  }
  if (O.Failed) {
    CtrErrors.add();
    if (obs::logEnabled(obs::LogLevel::Warn))
      obs::log(obs::LogLevel::Warn, "serve.request.error",
               {{"code", int64_t(O.Code)},
                {"error", std::string_view(errorCodeName(O.Code))},
                {"message", O.Message}});
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Errors;
  }
  GaugeInflight.add(-1);
  return O.Failed ? makeErrorFrame(R.Id, O.Code, O.Message, O.DataJson)
                  : makeResultFrame(R.Id, O.ResultJson);
}

Service::Method Service::methodOf(std::string_view Name) {
  static const std::pair<std::string_view, Method> Table[] = {
      {"version", &Service::methodVersion},
      {"stats", &Service::methodStats},
      {"metrics", &Service::methodMetrics},
      {"trace/dump", &Service::methodTraceDump},
      {"log/level", &Service::methodLogLevel},
      {"shutdown", &Service::methodShutdown},
      {"intern", &Service::methodIntern},
      {"counts", &Service::methodCounts}};
  for (const auto &[N, M] : Table)
    if (N == Name)
      return M;
  return nullptr;
}

Service::Outcome Service::dispatch(const Request &R, const FrameSink &Sink) {
  if (Method M = methodOf(R.Method))
    return (this->*M)(R.Params);
  // Only the streaming campaign/run sends progress frames.
  if (std::optional<CommandKind> K = commandOfMethod(R.Method))
    return methodCommand(*K, R.Params, R.Id,
                         R.Method == "campaign/run" ? Sink : nullptr);
  return fail(ErrorCode::MethodNotFound,
              "unknown method '" + R.Method + "'");
}

ServiceCounters Service::counters() const {
  ServiceCounters C;
  C.Connections = Connections.load();
  std::lock_guard<std::mutex> Lock(StatsMutex);
  C.Requests = Requests;
  C.Errors = Errors;
  C.PerMethod = PerMethod;
  return C;
}

//===----------------------------------------------------------------------===//
// Target resolution (the shared session pool)
//===----------------------------------------------------------------------===//

CachedProgramPtr Service::resolveOne(const std::string &Name,
                                     std::string &Canonical) {
  if (const Workload *W = findWorkloadAnyCase(Name)) {
    Canonical = W->Name;
    std::lock_guard<std::mutex> Lock(PoolMutex);
    auto It = NamedPrograms.find(Canonical);
    if (It != NamedPrograms.end())
      return It->second;
    CachedProgramPtr Shard = S.intern(loadWorkload(*W));
    NamedPrograms.emplace(Canonical, Shard);
    return Shard;
  }
  std::lock_guard<std::mutex> Lock(PoolMutex);
  auto It = NamedPrograms.find(Name);
  if (It == NamedPrograms.end())
    return nullptr;
  Canonical = Name;
  return It->second;
}

//===----------------------------------------------------------------------===//
// Method implementations
//===----------------------------------------------------------------------===//

Service::Outcome Service::methodVersion(const JsonValue &) {
  JsonWriter W;
  W.beginObject();
  W.key("bec").value("becd");
  W.key("api").value(BEC_API_VERSION_STRING);
  W.key("protocol").value(int64_t(ProtocolVersion));
  W.key("build_type").value(buildType());
  W.endObject();
  Outcome O;
  O.ResultJson = W.take();
  return O;
}

Service::Outcome Service::methodStats(const JsonValue &) {
  ServiceCounters C = counters();
  SessionStats SS = S.stats();
  size_t Programs;
  {
    std::lock_guard<std::mutex> Lock(PoolMutex);
    Programs = NamedPrograms.size();
  }
  obs::MetricsSnapshot Snap = obs::snapshotMetrics();
  JsonWriter W;
  W.beginObject();
  W.key("connections").value(C.Connections);
  W.key("requests").value(C.Requests);
  W.key("errors").value(C.Errors);
  W.key("methods").beginObject();
  for (const auto &[Method, Count] : C.PerMethod)
    W.key(Method).value(Count);
  W.endObject();
  // Per-method latency distributions from the obs registry (empty object
  // under BEC_OBS_DISABLED). Purely additive next to "methods".
  W.key("latency").beginObject();
  for (const obs::MetricValue &M : Snap.Metrics) {
    constexpr std::string_view Prefix = "serve.method.us{method=\"";
    if (M.Kind != obs::MetricKind::Histogram ||
        M.Name.rfind(Prefix, 0) != 0 || M.Hist.Count == 0)
      continue;
    std::string Method =
        M.Name.substr(Prefix.size(), M.Name.size() - Prefix.size() - 2);
    W.key(Method).beginObject();
    W.key("count").value(M.Hist.Count);
    W.key("p50_us").value(M.Hist.quantileUs(0.50));
    W.key("p99_us").value(M.Hist.quantileUs(0.99));
    W.key("mean_us").value(M.Hist.meanUs());
    W.endObject();
  }
  W.endObject();
  W.key("gauges").beginObject();
  for (const obs::MetricValue &M : Snap.Metrics)
    if (M.Kind == obs::MetricKind::Gauge)
      W.key(M.Name).value(int64_t(M.GaugeValue));
  W.endObject();
  W.key("session").beginObject();
  W.key("hits").value(SS.Hits);
  W.key("misses").value(SS.Misses);
  // 0/0 renders as null (the writer maps non-finite doubles to null).
  W.key("hit_rate").value(double(SS.Hits) / double(SS.Hits + SS.Misses));
  W.key("interned").value(SS.Interned);
  W.key("shards").value(SS.Shards);
  W.endObject();
  W.key("programs").value(uint64_t(Programs));
  W.endObject();
  Outcome O;
  O.ResultJson = W.take();
  return O;
}

Service::Outcome Service::methodMetrics(const JsonValue &) {
  JsonWriter W;
  W.beginObject();
  W.key("content_type").value("text/plain; version=0.0.4");
  W.key("text").value(obs::renderPrometheus(obs::snapshotMetrics()));
  W.endObject();
  Outcome O;
  O.ResultJson = W.take();
  return O;
}

Service::Outcome Service::methodTraceDump(const JsonValue &Params) {
  std::string Filter;
  if (const JsonValue *TV = Params.member("trace_id")) {
    const std::string *Sp = TV->asString();
    if (!Sp)
      return fail(ErrorCode::InvalidParams,
                  "'trace_id' must be a string when present");
    Filter = *Sp;
  }
  std::string Process = obs::spanRingProcess();
  std::vector<obs::RingSpan> Spans = obs::spanRingSnapshot(Filter);
  std::string Out = "{\"process\":";
  {
    JsonWriter PW;
    PW.value(Process);
    Out += PW.take();
  }
  Out += ",\"spans\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (I)
      Out += ',';
    Out += obs::renderRingSpanJson(Spans[I], Process);
  }
  Out += "]}";
  Outcome O;
  O.ResultJson = std::move(Out);
  return O;
}

Service::Outcome Service::methodLogLevel(const JsonValue &Params) {
  if (const JsonValue *LV = Params.member("level")) {
    const std::string *Sp = LV->asString();
    std::optional<obs::LogLevel> L =
        Sp ? obs::parseLogLevel(*Sp) : std::nullopt;
    if (!L)
      return fail(ErrorCode::InvalidParams,
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
  Outcome O;
  O.ResultJson = W.take();
  return O;
}

Service::Outcome Service::methodShutdown(const JsonValue &) {
  Shutdown.store(true);
  Outcome O;
  O.ResultJson = "{\"ok\":true}";
  return O;
}

Service::Outcome Service::methodIntern(const JsonValue &Params) {
  const std::string *Name = Params.memberString("name");
  const std::string *Asm = Params.memberString("asm");
  if (!Name || Name->empty() || !Asm)
    return fail(ErrorCode::InvalidParams,
                "'intern' needs string params 'name' and 'asm'");
  if (findWorkloadAnyCase(*Name))
    return fail(ErrorCode::InvalidParams,
                "'" + *Name + "' collides with a bundled workload name");

  AsmParseResult R = parseAsm(*Asm, *Name);
  if (!R.succeeded()) {
    // Structured diagnostics: the AsmParser's line/col survive the wire.
    JsonWriter D;
    D.beginObject();
    D.key("diags").beginArray();
    for (const AsmDiag &G : R.Diags) {
      D.beginObject();
      D.key("line").value(uint64_t(G.Line));
      D.key("col").value(uint64_t(G.Col));
      D.key("message").value(G.Message);
      D.endObject();
    }
    D.endArray();
    D.endObject();
    return fail(ErrorCode::BadAsm, "'" + *Name + "' failed to assemble",
                D.take());
  }

  CachedProgramPtr Shard;
  {
    std::lock_guard<std::mutex> Lock(PoolMutex);
    Shard = S.intern(std::move(*R.Prog));
    NamedPrograms[*Name] = Shard; // Re-interning a name rebinds it.
  }
  JsonWriter W;
  W.beginObject();
  W.key("name").value(*Name);
  W.key("instrs").value(uint64_t(Shard->program().size()));
  W.key("content_key").value(hexEncode(Shard->contentKey()));
  W.endObject();
  Outcome O;
  O.ResultJson = W.take();
  return O;
}

Service::Outcome Service::methodCounts(const JsonValue &Params) {
  const std::string *Target = Params.memberString("target");
  if (!Target)
    return fail(ErrorCode::InvalidParams,
                "'counts' needs a string param 'target'");
  std::string Canonical;
  CachedProgramPtr Shard = resolveOne(*Target, Canonical);
  if (!Shard)
    return fail(ErrorCode::BadTarget, "unknown target '" + *Target + "'");
  std::shared_ptr<const AnalyzeResult> R = S.get<AnalyzeQuery>(Shard);
  Outcome O;
  O.ResultJson = renderCountsJson(Canonical, *R);
  return O;
}

Service::Outcome Service::methodCommand(CommandKind K,
                                        const JsonValue &Params, uint64_t Id,
                                        const FrameSink &Sink) {
  std::string Why;
  std::optional<CommandRequest> Req = decode(K, Params, Why);
  if (!Req)
    return fail(ErrorCode::InvalidParams, Why);
  std::vector<std::string> Requested = Req->Targets;
  if (Requested.empty())
    for (const Workload &W : allWorkloads())
      Requested.push_back(W.Name);
  std::vector<std::string> Names;
  std::vector<CachedProgramPtr> Progs;
  for (const std::string &Name : Requested) {
    std::string Canonical;
    CachedProgramPtr Shard = resolveOne(Name, Canonical);
    if (!Shard)
      return fail(ErrorCode::BadTarget,
                  "unknown target '" + Name +
                      "' (bundled workload or interned program name)");
    // Duplicate selections collapse, exactly as the CLI's target loading.
    if (std::find(Names.begin(), Names.end(), Canonical) == Names.end()) {
      Names.push_back(std::move(Canonical));
      Progs.push_back(std::move(Shard));
    }
  }
  if ((Req->EmitSchedule || Req->EmitHardened) &&
      (Names.size() != 1 || Req->Harden.Budgets.size() != 1))
    return fail(ErrorCode::InvalidParams,
                "'emit' requires exactly one target and one budget");

  ProgressHook OnProgress;
  if (Sink)
    OnProgress = [&](const std::string &Target, const CampaignProgress &P) {
      Sink(makeProgressFrame(Id, progressJson(Target, P)));
    };
  Outcome O;
  O.ResultJson = resultJson(
      runCommand(S, Names, Progs, *Req, {}, OnProgress), Req->Json);
  return O;
}
