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
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <exception>

using namespace bec;
using namespace bec::serve;

namespace {

// The service mirrors the driver's exit-code contract (tools/Driver.h)
// without depending on it: the wire result's "exit" field is what a local
// `bec <subcommand>` would have returned.
constexpr int ExitSuccess = 0;
constexpr int ExitBadInput = 2;
constexpr int ExitUnsound = 3;

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

/// The shared result shape of the five subcommand methods.
std::string commandResult(bool Json, const std::string &Output,
                          const std::string &Diag, int Exit,
                          const std::string &EmitAsm) {
  JsonWriter W;
  W.beginObject();
  W.key("format").value(Json ? "json" : "text");
  W.key("exit").value(int64_t(Exit));
  W.key("output").value(Output);
  if (!Diag.empty())
    W.key("diag").value(Diag);
  if (!EmitAsm.empty())
    W.key("emit").value(EmitAsm);
  W.endObject();
  return W.take();
}

/// Per-target error reporting, identical to the driver's epilogue.
template <class R>
int diagErrors(const std::vector<std::string> &Names,
               const std::vector<std::shared_ptr<const R>> &Results,
               std::string &Diag) {
  int Exit = ExitSuccess;
  for (size_t I = 0; I < Results.size(); ++I)
    if (!Results[I]->Error.empty()) {
      Diag += "bec: " + Names[I] + ": " + Results[I]->Error + "\n";
      Exit = ExitBadInput;
    }
  return Exit;
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

/// The served method names; PerMethod keys come only from this list, so
/// a client cycling through bogus names cannot grow the daemon's stats
/// map without bound.
bool isKnownMethod(const std::string &M) {
  static const char *const Known[] = {"version",  "stats",   "shutdown",
                                      "intern",   "counts",  "analyze",
                                      "campaign", "campaign/run",
                                      "schedule", "harden",  "report",
                                      "metrics",  "trace/dump", "log/level"};
  for (const char *K : Known)
    if (M == K)
      return true;
  return false;
}

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
  const std::string StatName =
      F.Req ? (isKnownMethod(F.Req->Method) ? F.Req->Method : "unknown")
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

Service::Outcome Service::dispatch(const Request &R, const FrameSink &Sink) {
  const JsonValue &P = R.Params;
  if (R.Method == "version")
    return methodVersion();
  if (R.Method == "stats")
    return methodStats();
  if (R.Method == "metrics")
    return methodMetrics();
  if (R.Method == "trace/dump")
    return methodTraceDump(P);
  if (R.Method == "log/level")
    return methodLogLevel(P);
  if (R.Method == "shutdown")
    return methodShutdown();
  if (R.Method == "intern")
    return methodIntern(P);
  if (R.Method == "counts")
    return methodCounts(P);
  if (R.Method == "analyze")
    return methodAnalyze(P);
  if (R.Method == "campaign")
    return methodCampaign(P, R.Id, /*Sink=*/nullptr);
  if (R.Method == "campaign/run")
    return methodCampaign(P, R.Id, Sink);
  if (R.Method == "schedule")
    return methodSchedule(P);
  if (R.Method == "harden")
    return methodHarden(P);
  if (R.Method == "report")
    return methodReport(P);
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

bool Service::resolveTargets(const JsonValue &Params, Targets &Out,
                             Outcome &Err) {
  std::vector<std::string> Requested;
  if (const JsonValue *TV = Params.member("targets")) {
    if (!TV->isNull()) {
      const std::vector<JsonValue> *Arr = TV->asArray();
      if (!Arr) {
        Err = fail(ErrorCode::InvalidParams,
                   "'targets' must be an array of strings");
        return false;
      }
      for (const JsonValue &E : *Arr) {
        const std::string *Name = E.asString();
        if (!Name) {
          Err = fail(ErrorCode::InvalidParams,
                     "'targets' must be an array of strings");
          return false;
        }
        Requested.push_back(*Name);
      }
    }
  }
  if (Requested.empty())
    for (const Workload &W : allWorkloads())
      Requested.push_back(W.Name);

  for (const std::string &Name : Requested) {
    std::string Canonical;
    CachedProgramPtr Shard = resolveOne(Name, Canonical);
    if (!Shard) {
      Err = fail(ErrorCode::BadTarget,
                 "unknown target '" + Name +
                     "' (bundled workload or interned program name)");
      return false;
    }
    // Duplicate selections collapse, exactly as the CLI's target loading.
    bool Seen = false;
    for (const std::string &Existing : Out.Names)
      Seen |= Existing == Canonical;
    if (Seen)
      continue;
    Out.Names.push_back(std::move(Canonical));
    Out.Progs.push_back(std::move(Shard));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Method implementations
//===----------------------------------------------------------------------===//

namespace {

/// Parses the optional "format" param ("text" default | "json").
bool parseFormat(const JsonValue &Params, bool &Json, std::string &Err) {
  Json = false;
  const JsonValue *F = Params.member("format");
  if (!F)
    return true;
  const std::string *Sp = F->asString();
  if (Sp) {
    std::string K = toLowerAscii(*Sp);
    if (K == "json") {
      Json = true;
      return true;
    }
    if (K == "text")
      return true;
  }
  Err = "unknown 'format' (want text | json)";
  return false;
}

/// Parses the optional "jobs" param (per-request target parallelism,
/// mirroring the CLI's --jobs; 0 = hardware concurrency, default 1).
bool parseJobs(const JsonValue &Params, unsigned &Jobs, std::string &Err) {
  Jobs = 1;
  const JsonValue *J = Params.member("jobs");
  if (!J)
    return true;
  std::optional<uint64_t> N = J->asU64();
  if (!N || *N > 1u << 16) {
    Err = "'jobs' must be a small unsigned integer";
    return false;
  }
  Jobs = static_cast<unsigned>(*N);
  return true;
}

/// Runs query \p Q over every resolved target; results in target order.
/// Multi-target requests fan out on a per-request pool (CPU-bound, so
/// clamped to the core count like every analysis pool), matching what
/// the same command would do locally with --jobs.
template <class Q>
std::vector<std::shared_ptr<const typename Q::Result>>
evalOver(AnalysisSession &S, const std::vector<CachedProgramPtr> &Progs,
         const typename Q::Options &Opts = {}, unsigned Jobs = 1) {
  std::vector<std::shared_ptr<const typename Q::Result>> Results(
      Progs.size());
  ThreadPool Pool(Progs.size() > 1 ? ThreadPool::clampJobs(Jobs) : 1);
  for (size_t I = 0; I < Progs.size(); ++I)
    Pool.submit([&, I] { Results[I] = S.get<Q>(Progs[I], Opts); });
  Pool.wait();
  return Results;
}

} // namespace

Service::Outcome Service::methodVersion() {
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

Service::Outcome Service::methodStats() {
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

Service::Outcome Service::methodMetrics() {
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

Service::Outcome Service::methodShutdown() {
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

Service::Outcome Service::methodAnalyze(const JsonValue &Params) {
  Targets T;
  Outcome Err;
  if (!resolveTargets(Params, T, Err))
    return Err;
  bool Json;
  std::string FmtErr;
  if (!parseFormat(Params, Json, FmtErr))
    return fail(ErrorCode::InvalidParams, FmtErr);
  unsigned Jobs;
  if (!parseJobs(Params, Jobs, FmtErr))
    return fail(ErrorCode::InvalidParams, FmtErr);

  auto Results = evalOver<AnalyzeQuery>(S, T.Progs, {}, Jobs);
  std::string Output = Json ? renderAnalyzeJson(T.Names, Results)
                            : renderAnalyzeText(T.Names, Results);
  std::string Diag;
  int Exit = diagErrors(T.Names, Results, Diag);
  Outcome O;
  O.ResultJson = commandResult(Json, Output, Diag, Exit, {});
  return O;
}

Service::Outcome Service::methodCampaign(const JsonValue &Params, uint64_t Id,
                                         const FrameSink &Sink) {
  Targets T;
  Outcome Err;
  if (!resolveTargets(Params, T, Err))
    return Err;
  bool Json;
  std::string FmtErr;
  if (!parseFormat(Params, Json, FmtErr))
    return fail(ErrorCode::InvalidParams, FmtErr);
  unsigned Jobs;
  if (!parseJobs(Params, Jobs, FmtErr))
    return fail(ErrorCode::InvalidParams, FmtErr);

  CampaignCmdQuery::Options Opts;
  if (const JsonValue *PV = Params.member("plan")) {
    const std::string *Sp = PV->asString();
    std::string K = Sp ? toLowerAscii(*Sp) : std::string();
    if (K == "exhaustive")
      Opts.Plan = PlanKind::Exhaustive;
    else if (K == "value")
      Opts.Plan = PlanKind::ValueLevel;
    else if (K == "bit")
      Opts.Plan = PlanKind::BitLevel;
    else
      return fail(ErrorCode::InvalidParams,
                  "unknown 'plan' (want exhaustive | value | bit)");
  }
  if (const JsonValue *MC = Params.member("max_cycles")) {
    std::optional<uint64_t> N = MC->asU64();
    if (!N)
      return fail(ErrorCode::InvalidParams,
                  "'max_cycles' must be an unsigned integer");
    Opts.MaxCycles = *N;
  }
  if (const JsonValue *SV = Params.member("sample")) {
    std::optional<uint64_t> N = SV->asU64();
    if (!N)
      return fail(ErrorCode::InvalidParams,
                  "'sample' must be an unsigned integer");
    Opts.SampleSize = *N;
  }
  if (const JsonValue *SV = Params.member("seed")) {
    std::optional<uint64_t> N = SV->asU64();
    if (!N)
      return fail(ErrorCode::InvalidParams,
                  "'seed' must be an unsigned integer");
    Opts.SampleSeed = *N;
  }
  if (const JsonValue *TV = Params.member("threads")) {
    std::optional<uint64_t> N = TV->asU64();
    if (!N || *N > 1u << 16)
      return fail(ErrorCode::InvalidParams,
                  "'threads' must be a small unsigned integer");
    // CPU-bound engine pool: clamp to the core count like every other
    // analysis pool (0 = hardware concurrency).
    Opts.Exec.Threads = ThreadPool::clampJobs(static_cast<unsigned>(*N));
  }
  if (const JsonValue *SV = Params.member("shard_size")) {
    std::optional<uint64_t> N = SV->asU64();
    if (!N || *N == 0)
      return fail(ErrorCode::InvalidParams,
                  "'shard_size' must be a positive integer");
    Opts.Exec.ShardSize = *N;
  }
  bool WantProgress = false;
  if (const JsonValue *PV = Params.member("progress")) {
    std::optional<bool> B = PV->asBool();
    if (!B)
      return fail(ErrorCode::InvalidParams, "'progress' must be a boolean");
    WantProgress = *B;
  }

  // Per-target evaluation (target order preserved) with an optional
  // progress stream. Campaign options differing only in Exec fingerprint
  // identically, so this shares cache entries with the plain `campaign`
  // method. Progress frames are serialized: transports see one frame at
  // a time, and none after the final result is returned.
  std::vector<std::shared_ptr<const CampaignCmdResult>> Results(
      T.Progs.size());
  std::mutex SinkMutex;
  ThreadPool Pool(T.Progs.size() > 1 ? ThreadPool::clampJobs(Jobs) : 1);
  for (size_t I = 0; I < T.Progs.size(); ++I)
    Pool.submit([&, I] {
      CampaignCmdQuery::Options O = Opts;
      if (WantProgress && Sink) {
        std::string Target = T.Names[I];
        O.Exec.OnProgress =
            throttledProgress([&, Target](const CampaignProgress &P) {
              JsonWriter W;
              W.beginObject();
              W.key("target").value(Target);
              W.key("shards_done").value(P.ShardsDone);
              W.key("shards").value(P.TotalShards);
              W.key("runs_done").value(P.RunsDone);
              W.key("runs").value(P.TotalRuns);
              // Engine telemetry (additive; absent in older servers):
              // executed runs + elapsed give throughput, steals/rebuilds
              // explain flat thread scaling.
              W.key("executed_runs").value(P.ExecutedRuns);
              W.key("elapsed_s").value(P.ElapsedSeconds);
              W.key("steals").value(P.Steals);
              W.key("snapshot_rebuilds").value(P.SnapshotRebuilds);
              W.endObject();
              std::lock_guard<std::mutex> Lock(SinkMutex);
              Sink(makeProgressFrame(Id, W.take()));
            });
      }
      Results[I] = S.get<CampaignCmdQuery>(T.Progs[I], O);
    });
  Pool.wait();

  std::string Output = Json ? renderCampaignJson(T.Names, Results, Opts.Plan)
                            : renderCampaignText(T.Names, Results, Opts.Plan);
  std::string Diag;
  int Exit = diagErrors(T.Names, Results, Diag);
  Outcome O;
  O.ResultJson = commandResult(Json, Output, Diag, Exit, {});
  return O;
}

Service::Outcome Service::methodSchedule(const JsonValue &Params) {
  Targets T;
  Outcome Err;
  if (!resolveTargets(Params, T, Err))
    return Err;
  bool Json;
  std::string FmtErr;
  if (!parseFormat(Params, Json, FmtErr))
    return fail(ErrorCode::InvalidParams, FmtErr);
  unsigned Jobs;
  if (!parseJobs(Params, Jobs, FmtErr))
    return fail(ErrorCode::InvalidParams, FmtErr);

  int EmitPolicy = -1; // 0 = source, 1 = best, 2 = worst.
  if (const JsonValue *E = Params.member("emit")) {
    const std::string *Sp = E->asString();
    std::string K = Sp ? toLowerAscii(*Sp) : std::string();
    if (K == "source")
      EmitPolicy = 0;
    else if (K == "best")
      EmitPolicy = 1;
    else if (K == "worst")
      EmitPolicy = 2;
    else
      return fail(ErrorCode::InvalidParams,
                  "unknown 'emit' policy (want source | best | worst)");
    if (T.Names.size() != 1)
      return fail(ErrorCode::InvalidParams,
                  "'emit' requires exactly one target");
  }

  auto Results = evalOver<ScheduleCmdQuery>(S, T.Progs, {}, Jobs);
  std::string Output = Json ? renderScheduleJson(T.Names, Results)
                            : renderScheduleText(T.Names, Results);
  std::string Diag;
  int Exit = diagErrors(T.Names, Results, Diag);
  std::string Emit;
  if (EmitPolicy >= 0 && Exit == ExitSuccess)
    Emit = Results[0]->PolicyAsm[EmitPolicy];
  Outcome O;
  O.ResultJson = commandResult(Json, Output, Diag, Exit, Emit);
  return O;
}

Service::Outcome Service::methodHarden(const JsonValue &Params) {
  Targets T;
  Outcome Err;
  if (!resolveTargets(Params, T, Err))
    return Err;
  bool Json;
  std::string FmtErr;
  if (!parseFormat(Params, Json, FmtErr))
    return fail(ErrorCode::InvalidParams, FmtErr);
  unsigned Jobs;
  if (!parseJobs(Params, Jobs, FmtErr))
    return fail(ErrorCode::InvalidParams, FmtErr);

  HardenCmdQuery::Options Opts;
  if (const JsonValue *BV = Params.member("budgets")) {
    const std::vector<JsonValue> *Arr = BV->asArray();
    if (!Arr || Arr->empty())
      return fail(ErrorCode::InvalidParams,
                  "'budgets' must be a non-empty array of numbers");
    Opts.Budgets.clear();
    for (const JsonValue &E : *Arr) {
      std::optional<double> B = E.asDouble();
      if (!B || !(*B >= 0))
        return fail(ErrorCode::InvalidParams,
                    "'budgets' entries must be non-negative numbers");
      Opts.Budgets.push_back(*B);
    }
  }
  bool EmitAsm = false;
  if (const JsonValue *E = Params.member("emit")) {
    std::optional<bool> B = E->asBool();
    if (!B)
      return fail(ErrorCode::InvalidParams, "'emit' must be a boolean");
    EmitAsm = *B;
    if (EmitAsm && (T.Names.size() != 1 || Opts.Budgets.size() != 1))
      return fail(ErrorCode::InvalidParams,
                  "'emit' requires exactly one target and one budget");
  }

  auto Results = evalOver<HardenCmdQuery>(S, T.Progs, Opts, Jobs);
  std::string Output = Json ? renderHardenJson(T.Names, Results, Opts.Budgets)
                            : renderHardenText(T.Names, Results, Opts.Budgets);
  std::string Diag;
  int Exit = diagErrors(T.Names, Results, Diag);
  if (Exit == ExitSuccess)
    for (size_t I = 0; I < Results.size(); ++I)
      for (const HardenPoint &P : Results[I]->Points)
        if (!P.Check.ok()) {
          Diag += "bec: " + T.Names[I] +
                  ": hardened program failed validation\n";
          Exit = ExitUnsound;
        }
  std::string Emit;
  if (EmitAsm && Exit == ExitSuccess)
    Emit = Results[0]->Points[0].Harden.HP.Prog.toString();
  Outcome O;
  O.ResultJson = commandResult(Json, Output, Diag, Exit, Emit);
  return O;
}

Service::Outcome Service::methodReport(const JsonValue &Params) {
  Targets T;
  Outcome Err;
  if (!resolveTargets(Params, T, Err))
    return Err;
  bool Json;
  std::string FmtErr;
  if (!parseFormat(Params, Json, FmtErr))
    return fail(ErrorCode::InvalidParams, FmtErr);
  unsigned Jobs;
  if (!parseJobs(Params, Jobs, FmtErr))
    return fail(ErrorCode::InvalidParams, FmtErr);

  ReportCmdQuery::Options Opts;
  if (const JsonValue *MC = Params.member("max_cycles")) {
    std::optional<uint64_t> N = MC->asU64();
    if (!N)
      return fail(ErrorCode::InvalidParams,
                  "'max_cycles' must be an unsigned integer");
    Opts.MaxCycles = *N;
  }

  auto Results = evalOver<ReportCmdQuery>(S, T.Progs, Opts, Jobs);
  std::string Output = Json ? renderReportJson(T.Names, Results)
                            : renderReportText(T.Names, Results);
  std::string Diag;
  int Exit = diagErrors(T.Names, Results, Diag);
  if (Exit == ExitSuccess)
    for (const auto &R : Results)
      if (!R->Validation.sound())
        Exit = ExitUnsound;
  Outcome O;
  O.ResultJson = commandResult(Json, Output, Diag, Exit, {});
  return O;
}
