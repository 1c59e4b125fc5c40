//===- serve/Commands.cpp - The five subcommands, one execution path ------===//

#include "serve/Commands.h"

#include "api/Serialize.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <cmath>
#include <mutex>
#include <span>

using namespace bec;
using namespace bec::serve;

namespace {

const char *const Methods[] = {"analyze", "campaign", "schedule", "harden",
                               "report"};

//===----------------------------------------------------------------------===//
// The param table
//===----------------------------------------------------------------------===//

using MethodSet = unsigned;

template <class... Ks> constexpr MethodSet of(Ks... K) {
  return ((MethodSet(1) << unsigned(K)) | ...);
}

// The kinds of param: each writes a value, and reads one back unless it
// is not what want() says.

struct U64 {
  uint64_t Lo = 0, Hi = UINT64_MAX;
  std::string want() const {
    return "an integer in " + std::to_string(Lo) + ".." + std::to_string(Hi);
  }
  void write(JsonWriter &W, uint64_t V) const { W.value(V); }
  template <class T> bool read(const JsonValue &V, T &Out) const {
    std::optional<uint64_t> N = V.asU64();
    bool Ok = N && *N >= Lo && *N <= Hi;
    if (Ok)
      Out = static_cast<T>(*N);
    return Ok;
  }
};

struct Bool {
  std::string want() const { return "a boolean"; }
  void write(JsonWriter &W, bool V) const { W.value(V); }
  bool read(const JsonValue &V, bool &Out) const {
    std::optional<bool> B = V.asBool();
    Out = B.value_or(Out);
    return B.has_value();
  }
};

/// One of the named choices, case-insensitively.
template <class T> struct Choice {
  std::span<const std::pair<const char *, T>> Names;
  std::string want() const {
    std::string Want;
    for (const auto &[Spelling, Value] : Names)
      Want += (Want.empty() ? "one of " : " | ") + std::string(Spelling);
    return Want;
  }
  void write(JsonWriter &W, T V) const {
    for (const auto &[Spelling, Value] : Names)
      if (Value == V)
        W.value(Spelling);
  }
  /// \p Out is a T or an optional T.
  template <class Field> bool read(const JsonValue &V, Field &Out) const {
    const std::string *S = V.asString();
    for (const auto &[Spelling, Value] : Names)
      if (S && toLowerAscii(*S) == Spelling) {
        Out = Value;
        return true;
      }
    return false;
  }
};

/// An array of the values \p Elem accepts; null reads as [].
template <class T> struct List {
  const char *Want;
  std::optional<T> (*Elem)(const JsonValue &);
  bool NonEmpty = false;
  std::string want() const { return Want; }
  void write(JsonWriter &W, const std::vector<T> &Xs) const {
    W.beginArray();
    for (const T &X : Xs)
      if constexpr (std::is_same_v<T, double>)
        W.value(X, 17); // Every double crosses the wire exactly.
      else
        W.value(X);
    W.endArray();
  }
  bool read(const JsonValue &V, std::vector<T> &Out) const {
    const std::vector<JsonValue> *Arr = V.asArray();
    Out.clear();
    for (size_t I = 0; Arr && I < Arr->size(); ++I) {
      std::optional<T> X = Elem((*Arr)[I]);
      if (!X)
        return false;
      Out.push_back(*X);
    }
    return (Arr || V.isNull()) && !(NonEmpty && Out.empty());
  }
};

std::optional<std::string> asName(const JsonValue &V) {
  const std::string *S = V.asString();
  return S ? std::optional(*S) : std::nullopt;
}

/// The bound of `--budget` and `--sweep`: a non-finite budget would
/// disable the budget gate.
std::optional<double> asBudget(const JsonValue &V) {
  std::optional<double> B = V.asDouble();
  return B && std::isfinite(*B) && *B >= 0 ? B : std::nullopt;
}

/// The param table: one call of \p Row per wire param with its name, the
/// methods that read it, the field of \p R it fills, and its kind.
template <class Req, class RowFn> void forEachParam(Req &R, RowFn &&Row) {
  using K = CommandKind;
  constexpr MethodSet All = (1u << std::size(Methods)) - 1;
  constexpr MethodSet Campaign = of(K::Campaign);
  Row("targets", All, R.Targets,
      List<std::string>{"an array of strings", asName});
  Row("format", All, R.Json, Choice<bool>{FormatNames});
  Row("jobs", All, R.Jobs, U64{0, 1u << 16});
  Row("plan", Campaign, R.Campaign.Plan, Choice<PlanKind>{PlanNames});
  Row("max_cycles", Campaign, R.Campaign.MaxCycles, U64{});
  Row("sample", Campaign, R.Campaign.SampleSize, U64{});
  Row("seed", Campaign, R.Campaign.SampleSeed, U64{});
  Row("threads", Campaign, R.Campaign.Exec.Threads, U64{0, 1u << 16});
  Row("shard_size", Campaign, R.Campaign.Exec.ShardSize, U64{});
  Row("progress", Campaign, R.Progress, Bool{});
  Row("emit", of(K::Schedule), R.EmitSchedule,
      Choice<SchedulePolicy>{PolicyNames});
  Row("budgets", of(K::Harden), R.Harden.Budgets,
      List<double>{"a non-empty array of finite numbers >= 0", asBudget, true});
  Row("emit", of(K::Harden), R.EmitHardened, Bool{});
  Row("max_cycles", of(K::Report), R.Report.MaxCycles, U64{});
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

/// One runCommand call: its targets, its pool and the outcome so far.
struct Run {
  AnalysisSession &S;
  const std::vector<std::string> &Names;
  const std::vector<CachedProgramPtr> &Progs;
  ThreadPool Pool;
  CommandOutcome O;

  /// Evaluates query Q over every target on the pool, target I with
  /// options OptsOf(I); renders the results in target order through
  /// \p Render and reports each failed target.
  template <class Q, class OptsFn, class RenderFn>
  std::vector<std::shared_ptr<const typename Q::Result>>
  eval(OptsFn OptsOf, RenderFn Render) {
    std::vector<std::shared_ptr<const typename Q::Result>> Res(Progs.size());
    for (size_t I = 0; I < Progs.size(); ++I)
      Pool.submit([&, I] { Res[I] = S.get<Q>(Progs[I], OptsOf(I)); });
    Pool.wait();
    O.Output = Render(Names, Res);
    for (size_t I = 0; I < Res.size(); ++I)
      if (!Res[I]->Error.empty()) {
        O.Diag += "bec: " + Names[I] + ": " + Res[I]->Error + "\n";
        O.Exit = ExitBadInput;
      }
    return Res;
  }
};

} // namespace

std::optional<CommandKind> serve::commandOfMethod(std::string_view Method) {
  if (Method == "campaign/run")
    return CommandKind::Campaign;
  for (unsigned I = 0; I < std::size(Methods); ++I)
    if (Method == Methods[I])
      return CommandKind(I);
  return std::nullopt;
}

std::string serve::encode(const CommandRequest &R) {
  JsonWriter W;
  W.beginObject();
  forEachParam(R, [&](const char *Name, MethodSet Readers, const auto &Field,
                      const auto &Kind) {
    if (!(Readers & of(R.Cmd)))
      return;
    if constexpr (requires { Field.has_value(); }) {
      if (Field)
        Kind.write(W.key(Name), *Field);
    } else {
      Kind.write(W.key(Name), Field);
    }
  });
  W.endObject();
  return W.take();
}

std::optional<CommandRequest>
serve::decode(CommandKind K, const JsonValue &Params, std::string &Err) {
  CommandRequest R;
  R.Cmd = K;
  Err.clear();
  forEachParam(R, [&](const char *Name, MethodSet Readers, auto &Field,
                      const auto &Kind) {
    const JsonValue *V = Readers & of(K) ? Params.member(Name) : nullptr;
    if (V && Err.empty() && !Kind.read(*V, Field))
      Err = "'" + std::string(Name) + "' must be " + Kind.want();
  });
  if (!Err.empty())
    return std::nullopt;
  return R;
}

std::string serve::resultJson(const CommandOutcome &C, bool Json) {
  JsonWriter W;
  W.beginObject();
  W.key("format").value(Json ? "json" : "text");
  W.key("exit").value(int64_t(C.Exit));
  W.key("output").value(C.Output);
  if (!C.Diag.empty())
    W.key("diag").value(C.Diag);
  if (!C.Emit.empty())
    W.key("emit").value(C.Emit);
  W.endObject();
  return W.take();
}

std::optional<CommandOutcome> serve::outcomeOf(const JsonValue &Result) {
  const std::string *Output = Result.memberString("output");
  std::optional<uint64_t> Exit = Result.memberU64("exit");
  if (!Output || !Exit || *Exit > ExitUnsound)
    return std::nullopt;
  CommandOutcome C;
  C.Output = *Output;
  C.Exit = static_cast<int>(*Exit);
  for (auto [Key, Field] : {std::pair{"diag", &C.Diag}, {"emit", &C.Emit}})
    if (const std::string *V = Result.memberString(Key))
      *Field = *V;
  return C;
}

namespace {

/// The progress frame's counters (additive within protocol revision 1:
/// executed runs and elapsed time give throughput, steals and rebuilds
/// explain flat thread scaling).
constexpr std::pair<const char *, uint64_t CampaignProgress::*> Counters[] = {
    {"shards_done", &CampaignProgress::ShardsDone},
    {"shards", &CampaignProgress::TotalShards},
    {"runs_done", &CampaignProgress::RunsDone},
    {"runs", &CampaignProgress::TotalRuns},
    {"executed_runs", &CampaignProgress::ExecutedRuns},
    {"steals", &CampaignProgress::Steals},
    {"snapshot_rebuilds", &CampaignProgress::SnapshotRebuilds}};

/// \p Asm, the Program::toString text of a program derived from
/// \p Shard's (whose name starts with the shard's), named after the
/// request's \p Target instead. A session shares one shard among targets
/// of equal content, named after the first one interned; an emitted
/// program is named after the target, wherever the request ran.
std::string renamed(const std::string &Asm, const CachedProgramPtr &Shard,
                    const std::string &Target) {
  size_t Skip = std::string_view("# program: ").size() +
                Shard->program().Name.size();
  return "# program: " + Target + Asm.substr(Skip);
}

} // namespace

std::string serve::progressJson(const std::string &Target,
                                const CampaignProgress &P) {
  JsonWriter W;
  W.beginObject();
  W.key("target").value(Target);
  for (auto [Key, Field] : Counters)
    W.key(Key).value(P.*Field);
  W.key("elapsed_s").value(P.ElapsedSeconds);
  W.endObject();
  return W.take();
}

CampaignProgress serve::progressOf(const JsonValue &Frame) {
  CampaignProgress P;
  for (auto [Key, Field] : Counters)
    P.*Field = Frame.memberU64(Key).value_or(0);
  if (const JsonValue *E = Frame.member("elapsed_s"))
    P.ElapsedSeconds = E->asDouble().value_or(0);
  return P;
}

CommandOutcome serve::runCommand(AnalysisSession &S,
                                 const std::vector<std::string> &Names,
                                 const std::vector<CachedProgramPtr> &Progs,
                                 const CommandRequest &R,
                                 const LocalInputs &Local,
                                 const ProgressHook &OnProgress) {
  Run Cmd{S, Names, Progs,
          ThreadPool(Progs.size() > 1 ? ThreadPool::clampJobs(R.Jobs) : 1),
          {}};
  CommandOutcome &O = Cmd.O;
  bool J = R.Json;
  switch (R.Cmd) {
  case CommandKind::Analyze:
    Cmd.eval<AnalyzeQuery>([](size_t) { return AnalyzeQuery::Options(); },
                           J ? renderAnalyzeJson : renderAnalyzeText);
    break;
  case CommandKind::Campaign: {
    CampaignCmdQuery::Options Base = R.Campaign;
    Base.PrefixCheckpoint = Local.PrefixCheckpoint;
    Base.CheckpointEveryK = Local.CheckpointEveryK;
    Base.Exec.Threads = ThreadPool::clampJobs(R.Campaign.Exec.Threads);
    Base.Exec.CheckpointPath = Local.CheckpointPath;
    Base.Exec.Resume = Local.Resume;
    Base.Exec.CollectProfile = !Local.ProfilePath.empty();
    // Targets differ only in the progress callback, which is not
    // fingerprinted, so every target shares the cache shape.
    std::mutex ProgressMutex;
    auto OptsOf = [&](size_t I) {
      CampaignCmdQuery::Options Opts = Base;
      if (R.Progress && OnProgress)
        Opts.Exec.OnProgress =
            throttledProgress([&, I](const CampaignProgress &P) {
              std::lock_guard<std::mutex> Lock(ProgressMutex);
              OnProgress(Names[I], P);
            });
      return Opts;
    };
    auto Res = Cmd.eval<CampaignCmdQuery>(OptsOf, [&](auto &N, auto &Rs) {
      return (J ? renderCampaignJson : renderCampaignText)(N, Rs, Base.Plan);
    });
    O.Campaign = Res.empty() ? nullptr : Res[0];
    break;
  }
  case CommandKind::Schedule: {
    auto Res = Cmd.eval<ScheduleCmdQuery>(
        [](size_t) { return ScheduleCmdQuery::Options(); },
        J ? renderScheduleJson : renderScheduleText);
    // PolicyAsm holds source, best, worst; the enum is best, worst, source.
    if (O.Exit == ExitSuccess && R.EmitSchedule)
      O.Emit = renamed(
          Res[0]->PolicyAsm[*R.EmitSchedule == SchedulePolicy::SourceOrder
                                ? 0
                                : 1 + size_t(*R.EmitSchedule)],
          Progs[0], Names[0]);
    break;
  }
  case CommandKind::Harden: {
    auto Res = Cmd.eval<HardenCmdQuery>(
        [&](size_t) { return R.Harden; }, [&](auto &N, auto &Rs) {
          return (J ? renderHardenJson : renderHardenText)(N, Rs,
                                                           R.Harden.Budgets);
        });
    if (O.Exit == ExitSuccess)
      for (size_t I = 0; I < Res.size(); ++I)
        for (const HardenPoint &P : Res[I]->Points)
          if (!P.Check.ok()) {
            O.Diag += "bec: " + Names[I] +
                      ": hardened program failed validation\n";
            O.Exit = ExitUnsound;
          }
    if (O.Exit == ExitSuccess && R.EmitHardened)
      O.Emit = renamed(Res[0]->Points[0].Harden.HP.Prog.toString(), Progs[0],
                       Names[0]);
    break;
  }
  case CommandKind::Report: {
    auto Res = Cmd.eval<ReportCmdQuery>(
        [&](size_t) { return R.Report; },
        J ? renderReportJson : renderReportText);
    if (O.Exit == ExitSuccess)
      for (const auto &Result : Res)
        if (!Result->Validation.sound())
          O.Exit = ExitUnsound;
    break;
  }
  }
  return std::move(O);
}
