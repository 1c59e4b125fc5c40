//===- tools/Driver.cpp - The `bec` pipeline driver ------------------------===//
//
// The driver parses the command line into a serve::CommandRequest and
// runs it through serve/Commands.h's runCommand over an AnalysisSession
// of the selected targets. With `--remote host:port` it sends the same
// request to a becd server (src/serve/), which runs the same function:
// byte-identical output. Either way one epilogue prints the outcome.
// `bec serve` runs that server; `bec client` speaks its method table.
//
//===----------------------------------------------------------------------===//

#include "Driver.h"

#include "api/Api.h"
#include "fuzz/Fuzzer.h"
#include "net/EventLoop.h"
#include "net/Gateway.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Prometheus.h"
#include "obs/SpanRing.h"
#include "obs/Trace.h"
#include "serve/Client.h"
#include "serve/Commands.h"
#include "serve/Service.h"
#include "support/File.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>

using namespace bec;
using namespace bec::tool;

namespace {

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//
//
// Two tables are the whole command-line surface: one row per subcommand
// and one row per flag. Parsing, `--help` and the "only valid with"
// gates are generated from them, so adding a flag is adding one row.

/// What to run. Help, ListWorkloads and Version print and exit before
/// any subcommand work (and before --trace-out starts tracing).
/// The first five are serve::CommandKind's, in its order.
enum class Command { Analyze, Campaign, Schedule, Harden, Report, Fuzz,
                     Serve, Gateway, Client, Stats, Version, Help,
                     ListWorkloads };
static_assert(unsigned(Command::Report) ==
              unsigned(serve::CommandKind::Report));

struct DriverOptions {
  Command Cmd = Command::Analyze;
  std::vector<std::string> WorkloadNames;
  std::vector<std::string> AsmFiles;
  bool AllWorkloads = false;
  /// Unset: 1 for target pools, one per core for serve, 8 for gateway.
  std::optional<unsigned> Jobs;
  /// What a subcommand runs, wherever it runs. fuzz reads its seed,
  /// threads, window, progress and format from here too.
  serve::CommandRequest Req;
  /// campaign and fuzz: checkpointing, resume, profiling; never sent.
  serve::LocalInputs Local;
  SchedulePolicy EmitPolicy = SchedulePolicy::BestReliability;
  std::string EmitPath;
  uint64_t FuzzCount = 100;
  uint64_t FuzzBudget = 0;
  std::string BankDir;
  std::string EmitCorpusDir;
  bool Remote = false;
  std::string RemoteHost = "127.0.0.1";
  uint16_t RemotePort = serve::DefaultPort;
  /// serve/gateway: listener, admission queue, backends, health cadence.
  std::string ServeHost = "127.0.0.1";
  uint16_t ServePort = serve::DefaultPort;
  std::string PortFile;
  size_t QueueDepth = 256;
  std::vector<std::string> GatewayBackends;
  unsigned HealthIntervalSec = 2;
  /// serve/gateway structured logging. Level Off keeps the logger
  /// disabled.
  obs::LogLevel LogLevel = obs::LogLevel::Off;
  obs::LogFormat LogFmt = obs::LogFormat::Jsonl;
  std::string LogFilePath;
  /// client: method name followed by its positional arguments.
  std::vector<std::string> ClientArgs;
  std::string TraceOutPath;
  uint64_t WatchSeconds = 0;
  bool StatsMetrics = false;
};

using CommandSet = uint32_t;

template <class... Cs> constexpr CommandSet of(Cs... C) {
  return ((CommandSet(1) << unsigned(C)) | ...);
}

constexpr CommandSet Targeted =
    of(Command::Analyze, Command::Campaign, Command::Schedule, Command::Harden,
       Command::Report);
constexpr CommandSet Daemons = of(Command::Serve, Command::Gateway);
constexpr CommandSet AnyCommand = ~CommandSet(0);

struct Subcommand {
  const char *Name;
  Command Cmd;
  /// --help text; lines after the first indent to column 13.
  const char *Blurb;
};

const Subcommand Subcommands[] = {
    {"analyze", Command::Analyze,
     "Static fault-space metrics per target (Table III shape)."},
    {"campaign", Command::Campaign,
     "Plan and execute a fault-injection campaign per target."},
    {"schedule", Command::Schedule,
     "Vulnerability-aware list scheduling; vulnerability per policy."},
    {"harden", Command::Harden,
     "BEC-guided selective hardening under a dynamic-instruction\n"
     "budget; per target the reached cost/vulnerability Pareto\n"
     "point plus closed-loop validation. Exits 3 if any hardened\n"
     "program fails validation."},
    {"report", Command::Report,
     "Full pipeline: metrics + bit-level campaign + soundness\n"
     "validation. Exits 3 if any target validates unsound."},
    {"fuzz", Command::Fuzz,
     "Differential soundness fuzzing: generate a seeded corpus of\n"
     "verifier-legal programs and cross-check the BEC-pruned\n"
     "campaign against exhaustive injection, plus print/parse\n"
     "round-trip, fate-validation, engine-determinism, harden and\n"
     "session oracles. Mismatching programs are delta-debugged to\n"
     "1-minimal reproducers. Takes no targets; local only.\n"
     "Exits 3 on any mismatch."},
    {"serve", Command::Serve,
     "Run the becd analysis server: a shared, cached session pool\n"
     "behind a newline-delimited JSON-RPC protocol over TCP,\n"
     "served by a poll() event loop with a bounded worker pool\n"
     "(connections decoupled from threads, pipelining, typed\n"
     "overload errors)."},
    {"gateway", Command::Gateway,
     "Front N becd backends behind one becd-indistinguishable\n"
     "endpoint: requests route by consistent hashing of their\n"
     "program name, so each backend's session cache holds a\n"
     "stable shard of the program space. Health-checks, drains\n"
     "(gateway/drain) and fails over between backends; `stats\n"
     "--remote` through it aggregates every backend."},
    {"client", Command::Client,
     "Speak the becd method table directly:\n"
     "  bec client [--remote H:P] <method> [targets...] [options]\n"
     "Methods: version stats metrics shutdown counts intern\n"
     "analyze campaign campaign/run schedule harden report,\n"
     "trace/dump [trace-id], log/level [level].\n"
     "Against a gateway also: gateway/backends,\n"
     "gateway/drain H:P, gateway/undrain H:P."},
    {"stats", Command::Stats,
     "Print this process's observability metrics, or — with\n"
     "--remote H:P — a live becd server's counters, per-method\n"
     "latency percentiles, cache hit rates and gauges."},
    {"version", Command::Version,
     "Print the API version and build type (also: --version)."},
};

const Subcommand &subcommand(Command C) {
  for (const Subcommand &S : Subcommands)
    if (S.Cmd == C)
      return S;
  return Subcommands[0]; // Unreachable: every runnable Command has a row.
}

const Subcommand *findSubcommand(std::string_view Name) {
  for (const Subcommand &S : Subcommands)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

/// The subcommand whose pipeline a becd method runs; campaign/run is
/// campaign's streaming form. Null for the other methods.
const Subcommand *subcommandOfMethod(std::string_view Method) {
  std::optional<serve::CommandKind> K = serve::commandOfMethod(Method);
  return K ? &subcommand(Command(*K)) : nullptr;
}

/// Parses a string of decimal digits; nullopt on anything else. A sign,
/// a space or a value past 2^64-1 is rejected, never wrapped or
/// saturated.
std::optional<uint64_t> parseUnsigned(const std::string &S) {
  uint64_t V = 0;
  const char *End = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(S.data(), End, V);
  if (Ec != std::errc() || Ptr != End)
    return std::nullopt;
  return V;
}

/// Parses a full-string non-negative finite decimal (strtod's "nan"/"inf"
/// spellings would silently disable the budget gate).
std::optional<double> parseBudget(const std::string &S) {
  if (S.empty())
    return std::nullopt;
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  if (End != S.c_str() + S.size() || !std::isfinite(V) || V < 0)
    return std::nullopt;
  return V;
}

/// "a,b,c" split at commas (a trailing comma adds no empty item).
std::vector<std::string> commaList(const std::string &S) {
  std::vector<std::string> Items;
  std::string Item;
  std::stringstream Stream(S);
  while (std::getline(Stream, Item, ','))
    Items.push_back(Item);
  return Items;
}

/// Stores a flag's value into the options. Returns what the flag wants
/// when \p Value is bad, or "" on success. A valueless flag, and an
/// optional value left out, arrive as "".
using Store = std::function<std::string(DriverOptions &Opts,
                                        const std::string &Value)>;

struct Flag {
  const char *Name;
  /// The value's --help label. It also sets the value kind: "" takes
  /// none, "[=...]" an optional `=value`, anything else a required
  /// `--flag v` or `--flag=v`.
  const char *Metavar;
  /// The subcommands that read the flag; anywhere else it is rejected.
  CommandSet Commands;
  /// The `bec client` methods that read it, by the subcommand each
  /// method mirrors (Client in Commands admits every method).
  CommandSet ClientReaders;
  Store Apply;
  /// --help text; lines after the first indent to column 20.
  const char *Help;
  /// Names local state: rejected together with --remote.
  bool LocalOnly = false;
  /// One-dash alias.
  const char *Short = nullptr;
  /// Heading of the --help section this row opens.
  const char *Heading = nullptr;

  bool takesValue() const { return *Metavar; }
  bool optionalValue() const { return Metavar[0] == '['; }
};

// A flag's field is a member pointer, or a lambda selecting a field of
// the request or the local inputs.

/// Sets a switch, stores a string, or appends to a list of strings.
template <class F> Store field(F Field) {
  return [Field](DriverOptions &O, const std::string &V) {
    auto &X = std::invoke(Field, O);
    using T = std::remove_reference_t<decltype(X)>;
    if constexpr (std::is_same_v<T, bool>)
      X = true;
    else if constexpr (std::is_same_v<T, std::string>)
      X = V;
    else
      X.push_back(V);
    return std::string();
  };
}

Store switchTo(Command C) {
  return [C](DriverOptions &O, const std::string &) {
    O.Cmd = C;
    return std::string();
  };
}

/// An unsigned decimal in [Lo, Hi], bounded so that it fits the field.
template <class F>
Store number(F Field, uint64_t Lo = 0, uint64_t Hi = UINT64_MAX) {
  return [=](DriverOptions &O, const std::string &V) -> std::string {
    std::optional<uint64_t> N = parseUnsigned(V);
    if (N && *N >= Lo && *N <= Hi) {
      std::invoke(Field, O) = *N;
      return "";
    }
    if (Hi != UINT64_MAX)
      return "a number in " + std::to_string(Lo) + ".." + std::to_string(Hi);
    return Lo ? "a positive number" : "a number";
  };
}

/// One of the named choices, case-insensitively.
template <class T, class F>
Store choice(F Field, std::span<const std::pair<const char *, T>> Choices) {
  return [=](DriverOptions &O, const std::string &V) -> std::string {
    std::string Want;
    for (const auto &[Name, Value] : Choices) {
      if (toLowerAscii(V) == Name) {
        std::invoke(Field, O) = Value;
        return "";
      }
      Want += Want.empty() ? Name : std::string(" | ") + Name;
    }
    return Want;
  };
}

/// A value \p Parse accepts (it spells out \p Want).
template <class T>
Store parsed(T DriverOptions::*Field,
             std::optional<T> (*Parse)(std::string_view), const char *Want) {
  return [=](DriverOptions &O, const std::string &V) -> std::string {
    std::optional<T> P = Parse(V);
    if (!P)
      return Want;
    O.*Field = *P;
    return "";
  };
}

std::string storeBudget(DriverOptions &O, const std::string &V) {
  // One spelling, two meanings: harden's percentage, fuzz's run count.
  if (O.Cmd == Command::Fuzz) {
    std::optional<uint64_t> N = parseUnsigned(V);
    if (!N)
      return "a number of exhaustive runs";
    O.FuzzBudget = *N;
    return "";
  }
  std::optional<double> B = parseBudget(V);
  if (!B)
    return "a non-negative number";
  O.Req.Harden.Budgets = {*B};
  return "";
}

std::string storeSweep(DriverOptions &O, const std::string &V) {
  std::vector<double> &Budgets = O.Req.Harden.Budgets;
  Budgets.clear();
  for (const std::string &Item : commaList(V)) {
    std::optional<double> B = parseBudget(Item);
    if (!B)
      return "comma-separated budgets";
    Budgets.push_back(*B);
  }
  return Budgets.empty() ? "comma-separated budgets" : "";
}

std::string storeMaxCycles(DriverOptions &O, const std::string &V) {
  std::optional<uint64_t> N = parseUnsigned(V);
  if (!N)
    return "a number";
  // campaign and fuzz read the campaign's window, report its own.
  O.Req.Campaign.MaxCycles = O.Req.Report.MaxCycles = *N;
  return "";
}

std::string storePrefixCheckpoint(DriverOptions &O, const std::string &V) {
  O.Local.PrefixCheckpoint = true;
  O.Local.CheckpointEveryK = 0;
  if (V.empty())
    return ""; // Bare: on, with the auto-tuned period.
  if (toLowerAscii(V) == "off") {
    O.Local.PrefixCheckpoint = false;
    return "";
  }
  std::optional<uint64_t> N = parseUnsigned(V);
  if (!N || *N == 0)
    return "'off' or a positive cycle period";
  O.Local.CheckpointEveryK = *N;
  return "";
}

std::string storeRemote(DriverOptions &O, const std::string &V) {
  if (!serve::splitHostPort(V, O.RemoteHost, O.RemotePort))
    return "host:port";
  O.Remote = true;
  return "";
}

std::string storeBackends(DriverOptions &O, const std::string &V) {
  for (const std::string &Item : commaList(V)) {
    std::string Host;
    uint16_t Port = 0;
    if (!serve::splitHostPort(Item, Host, Port))
      return "comma-separated host:port entries";
    O.GatewayBackends.push_back(Item);
  }
  return O.GatewayBackends.empty() ? "comma-separated host:port entries" : "";
}

/// The flag table, in --help order.
const std::vector<Flag> &flags() {
  using C = Command;
  using D = DriverOptions;
  static const std::vector<Flag> Table = {
      {"--workload", "NAME", Targeted, 0, field(&D::WorkloadNames),
       "Add one bundled workload (case-insensitive; repeatable).", false,
       nullptr, "Target selection (default: all bundled workloads):"},
      {"--asm", "FILE", Targeted, 0, field(&D::AsmFiles),
       "Add an external assembly file in the bec dialect."},
      {"--all", "", Targeted, 0, field(&D::AllWorkloads),
       "Add every bundled workload."},
      {"--list-workloads", "", AnyCommand, 0, switchTo(C::ListWorkloads),
       "Print the bundled workload names and exit."},
      {"--jobs", "N", Targeted | Daemons, Targeted,
       number(&D::Jobs, 0, 1u << 16),
       "Evaluate independent targets on N pool threads\n"
       "(default 1; 0 = hardware concurrency).",
       false, nullptr, "Options:"},
      {"--plan", "KIND", of(C::Campaign), of(C::Campaign),
       choice<PlanKind>([](D &O) -> auto & { return O.Req.Campaign.Plan; },
                        serve::PlanNames),
       "campaign plan: exhaustive | value | bit (default bit)."},
      {"--sample", "N", of(C::Campaign), of(C::Campaign),
       number([](D &O) -> auto & { return O.Req.Campaign.SampleSize; }),
       "campaign: execute a stratified sample of N runs of\n"
       "the planned fault space and report 95% confidence\n"
       "intervals on the effect rates (0 = run everything;\n"
       "default 0)."},
      {"--seed", "S", of(C::Campaign, C::Fuzz), of(C::Campaign),
       number([](D &O) -> auto & { return O.Req.Campaign.SampleSeed; }),
       "campaign: PRNG seed of --sample (default 1; same\n"
       "plan + same seed = same sample).\n"
       "fuzz: the corpus seed — same seed + same options =\n"
       "byte-identical corpus and report."},
      {"--threads", "N", of(C::Campaign, C::Fuzz), of(C::Campaign),
       number([](D &O) -> auto & { return O.Req.Campaign.Exec.Threads; }, 0,
              1u << 16),
       "campaign: worker threads of the sharded injection\n"
       "engine, per target (default 1; 0 = hardware\n"
       "concurrency). Never changes the report.\n"
       "fuzz: oracle workers, same guarantee."},
      {"--shard-size", "N", of(C::Campaign), of(C::Campaign),
       number([](D &O) -> auto & { return O.Req.Campaign.Exec.ShardSize; },
              1),
       "campaign: runs per engine shard (default: picked\n"
       "from the plan size). Checkpoints record it."},
      {"--prefix-checkpoint", "[=K|=off]", of(C::Campaign), 0,
       storePrefixCheckpoint,
       "campaign: fork runs from periodic golden snapshots\n"
       "and splice reconverged suffixes (default: on, period\n"
       "auto-tuned; =K snapshots every K cycles; =off\n"
       "replays every suffix). Never changes the report.",
       true},
      {"--checkpoint", "FILE", of(C::Campaign, C::Fuzz), 0,
       field([](D &O) -> auto & { return O.Local.CheckpointPath; }),
       "campaign: stream per-shard result batches to FILE\n"
       "(JSONL) so an interrupted campaign can be resumed.\n"
       "Requires exactly one selected target; local only.\n"
       "fuzz: per-program result records, same conventions.",
       true},
      {"--resume", "", of(C::Campaign, C::Fuzz), 0,
       field([](D &O) -> auto & { return O.Local.Resume; }),
       "campaign: load completed shards from --checkpoint\n"
       "and execute only the remainder. The final report is\n"
       "byte-identical to an uninterrupted run.\n"
       "fuzz: skip programs the checkpoint already settled.",
       true},
      {"--progress", "", of(C::Campaign, C::Fuzz), of(C::Campaign),
       field([](D &O) -> auto & { return O.Req.Progress; }),
       "campaign: print shard progress to stderr while the\n"
       "engine runs (works with --remote via the streaming\n"
       "campaign/run method).\n"
       "fuzz: print per-program progress to stderr."},
      {"--count", "N", of(C::Fuzz), 0, number(&D::FuzzCount, 1),
       "fuzz: number of generated programs (default 100)."},
      {"--bank", "DIR", of(C::Fuzz), 0, field(&D::BankDir),
       "fuzz: write minimized reproducers of mismatching\n"
       "programs into DIR as repro_<seed>.s files."},
      {"--emit-corpus", "DIR", of(C::Fuzz), 0, field(&D::EmitCorpusDir),
       "fuzz: write the selected corpus into DIR as\n"
       "seed_<seed>.s files and exit without running any\n"
       "oracle (regenerates tests/corpus/)."},
      {"--policy", "KIND", of(C::Schedule), 0,
       choice<SchedulePolicy>(&D::EmitPolicy, serve::PolicyNames),
       "schedule policy for --emit: best | worst | source\n"
       "(default best)."},
      {"--emit", "FILE", of(C::Schedule, C::Harden), 0, field(&D::EmitPath),
       "schedule: write the scheduled program of the single\n"
       "selected target to FILE as assembly.\n"
       "harden: write the hardened program instead."},
      {"--budget", "P", of(C::Harden, C::Fuzz), of(C::Harden), storeBudget,
       "harden: max extra dynamic instructions in percent\n"
       "of the baseline run (default 10).\n"
       "fuzz: cap on the cumulative exhaustive fault-space\n"
       "size of the corpus; programs are kept in index\n"
       "order until the budget is spent (0 = unlimited;\n"
       "the CI smoke job bounds its cost this way)."},
      {"--sweep", "A,B,..", of(C::Harden), of(C::Harden), storeSweep,
       "harden only: evaluate several budgets per target and\n"
       "print the full cost-vs-vulnerability table."},
      {"--format", "KIND", Targeted | of(C::Fuzz), Targeted,
       choice<bool>([](D &O) -> auto & { return O.Req.Json; },
                    serve::FormatNames),
       "output format of analyze, campaign, schedule,\n"
       "harden, report and fuzz, and of their `bec client`\n"
       "methods: text | json (default text)."},
      {"--max-cycles", "N", of(C::Campaign, C::Report, C::Fuzz),
       of(C::Campaign, C::Report), storeMaxCycles,
       "Truncate campaign/validation windows to N cycles\n"
       "(0 = whole trace; default 0). fuzz: the oracle\n"
       "injection window (0 keeps the default of 48)."},
      {"--remote", "H:P", Targeted | of(C::Client, C::Stats), 0, storeRemote,
       "Run this subcommand on a becd server instead of\n"
       "in-process (output is byte-identical). Also selects\n"
       "the server for `bec client` and `bec stats`\n"
       "(default 127.0.0.1:4690)."},
      {"--trace-out", "FILE", AnyCommand, 0, field(&D::TraceOutPath),
       "Write a Chrome trace_event JSON file covering this\n"
       "invocation (load in Perfetto or chrome://tracing):\n"
       "session query evaluation, engine workers (runs,\n"
       "steals, snapshot rebuilds, idle time), serve request\n"
       "handling, fuzz oracle stages. Combined with --remote\n"
       "(or `bec client`) the request carries a distributed\n"
       "trace context; the servers' spans are collected via\n"
       "trace/dump and stitched into the same file, so one\n"
       "timeline shows client -> gateway -> backend\n"
       "(failover retries included). Valid with every\n"
       "subcommand; never changes the printed output."},
      {"--profile", "FILE", of(C::Campaign), 0,
       field([](D &O) -> auto & { return O.Local.ProfilePath; }),
       "campaign: write the engine scaling profile to FILE\n"
       "as JSON — per-worker wall-time split into run /\n"
       "snapshot-rebuild / steal / idle phases, per-shard\n"
       "records, and a machine-readable bottleneck\n"
       "diagnosis. Requires exactly one selected target;\n"
       "local only (profiles this process's engine). Never\n"
       "changes the report.",
       true},
      {"--watch", "SEC", of(C::Stats), 0, number(&D::WatchSeconds, 1, 86400),
       "stats: re-print every SEC seconds until interrupted.\n"
       "With --remote, iterations after the first print\n"
       "per-interval deltas (req/s, errors/s, window cache\n"
       "hit rate) instead of repeating cumulative totals."},
      {"--metrics", "", of(C::Stats), 0, field(&D::StatsMetrics),
       "stats: print the raw Prometheus text exposition\n"
       "instead of the human table (the scrape format the\n"
       "becd `metrics` method returns)."},
      {"--host", "ADDR", Daemons, 0, field(&D::ServeHost),
       "serve/gateway: bind address (default 127.0.0.1)."},
      {"--port", "N", Daemons, 0, number(&D::ServePort, 0, 65535),
       "serve/gateway: TCP port; 0 picks an ephemeral port\n"
       "(default 4690)."},
      {"--port-file", "FILE", Daemons, 0, field(&D::PortFile),
       "serve/gateway: write the bound port to FILE once\n"
       "listening (for scripts using --port 0)."},
      {"--queue-depth", "N", of(C::Serve), 0,
       number(&D::QueueDepth, 0, 1u << 20),
       "serve: admitted requests that may wait for a worker\n"
       "before the next is answered with error 105\n"
       "`overloaded` (default 256)."},
      {"--backends", "LIST", of(C::Gateway), 0, storeBackends,
       "gateway only (required): comma-separated becd\n"
       "backends, host:port each."},
      {"--health-interval", "SEC", of(C::Gateway), 0,
       number(&D::HealthIntervalSec, 1, 3600),
       "gateway: seconds between per-backend `version`\n"
       "health probes (default 2)."},
      {"--log-level", "LVL", Daemons, 0,
       parsed(&D::LogLevel, obs::parseLogLevel,
              "debug | info | warn | error | off"),
       "serve/gateway: structured-log verbosity, one of\n"
       "debug | info | warn | error | off (default off —\n"
       "logging is disabled unless this is given). The\n"
       "running daemon's level can be changed later with\n"
       "the log/level method."},
      {"--log-file", "FILE", Daemons, 0, field(&D::LogFilePath),
       "serve/gateway: append log lines to FILE instead of\n"
       "stderr."},
      {"--log-format", "KIND", Daemons, 0,
       parsed(&D::LogFmt, obs::parseLogFormat, "jsonl | logfmt"),
       "serve/gateway: log line shape, jsonl (default) or\n"
       "logfmt."},
      {"--help", "", AnyCommand, 0, switchTo(C::Help),
       "Print this help and exit.", false, "-h"},
  };
  return Table;
}

const Flag *findFlag(std::string_view Arg) {
  for (const Flag &F : flags())
    if (Arg == F.Name || (F.Short && Arg == F.Short))
      return &F;
  return nullptr;
}

/// Writes \p Text, indenting every line after the first by \p Indent.
void writeIndented(std::ostream &OS, std::string_view Text, size_t Indent) {
  for (size_t Pos = 0;;) {
    size_t Eol = Text.find('\n', Pos);
    OS << Text.substr(Pos, Eol - Pos) << "\n";
    if (Eol == std::string_view::npos)
      return;
    OS << std::string(Indent, ' ');
    Pos = Eol + 1;
  }
}

void printUsage(std::ostream &OS) {
  OS << "usage: bec <subcommand> [options]\n\nSubcommands:\n";
  for (const Subcommand &S : Subcommands) {
    OS << "  " << S.Name << std::string(11 - std::strlen(S.Name), ' ');
    writeIndented(OS, S.Blurb, 13);
  }
  for (const Flag &F : flags()) {
    if (F.Heading)
      OS << "\n" << F.Heading << "\n";
    std::string Label = F.Short ? std::string(F.Short) + ", " : "";
    Label += F.Name;
    if (F.takesValue())
      Label += (F.optionalValue() ? "" : " ") + std::string(F.Metavar);
    // Labels too wide for the 18-column gutter put the text on the next
    // line.
    OS << "  " << Label
       << (Label.size() < 18 ? std::string(18 - Label.size(), ' ')
                             : "\n" + std::string(20, ' '));
    writeIndented(OS, F.Help, 20);
  }
  OS << "\nExit codes: 0 success, 1 usage error, 2 bad input, 3 unsound "
        "validation.\n";
}

/// "campaign, fuzz (or client campaign)": where \p F is valid.
std::string readersOf(const Flag &F) {
  std::string Commands, Methods;
  for (const Subcommand &S : Subcommands) {
    if (F.Commands & of(S.Cmd))
      Commands += (Commands.empty() ? "" : ", ") + std::string(S.Name);
    if (F.ClientReaders & of(S.Cmd))
      Methods += (Methods.empty() ? "" : ", ") + std::string(S.Name);
  }
  return Methods.empty() ? Commands
                         : Commands + " (or client " + Methods + ")";
}

int parseArgs(const std::vector<std::string> &Args, DriverOptions &Opts,
              std::ostream &Err) {
  if (Args.empty()) {
    printUsage(Err);
    return ExitUsage;
  }
  const std::string &Sub = Args[0];
  if (Sub == "-h" || Sub == "--help") {
    Opts.Cmd = Command::Help;
    return ExitSuccess;
  }
  const Subcommand *S = findSubcommand(Sub == "--version" ? "version" : Sub);
  if (!S) {
    Err << "bec: unknown subcommand '" << Sub << "'\n";
    printUsage(Err);
    return ExitUsage;
  }
  Opts.Cmd = S->Cmd;
  if (Opts.Cmd == Command::Version)
    return ExitSuccess; // Whatever follows.

  std::vector<const Flag *> Seen;
  for (size_t I = 1; I < Args.size(); ++I) {
    std::string Arg = Args[I];
    std::optional<std::string> Inline;
    if (Arg.size() > 2 && Arg[0] == '-' && Arg[1] == '-') {
      size_t Eq = Arg.find('=');
      if (Eq != std::string::npos) {
        Inline = Arg.substr(Eq + 1);
        Arg.resize(Eq);
      }
    }
    const Flag *F = findFlag(Arg);
    if (!F && Opts.Cmd == Command::Client && !Arg.empty() && Arg[0] != '-') {
      // Client grammar: the method, then its positional arguments.
      Opts.ClientArgs.push_back(Arg);
      continue;
    }
    if (!F) {
      Err << "bec: unknown option '" << Arg << "'\n";
      printUsage(Err);
      return ExitUsage;
    }
    std::string Value;
    if (Inline && F->takesValue()) {
      Value = *Inline;
      if (Value.empty() && F->optionalValue()) {
        Err << "bec: " << Arg << " wants a value after '='\n";
        return ExitUsage;
      }
    } else if (F->takesValue() && !F->optionalValue()) {
      if (I + 1 == Args.size()) {
        Err << "bec: " << Arg << " requires a value\n";
        return ExitUsage;
      }
      Value = Args[++I];
    }
    std::string Want = F->Apply(Opts, Value);
    if (!Want.empty()) {
      Err << "bec: " << Arg << " wants " << Want << ", got '" << Value
          << "'\n";
      return ExitUsage;
    }
    if (Opts.Cmd == Command::Help || Opts.Cmd == Command::ListWorkloads)
      return ExitSuccess; // Acts at once, whatever follows.
    if (Inline && !F->takesValue()) {
      Err << "bec: " << Arg << " takes no value\n";
      return ExitUsage;
    }
    Seen.push_back(F);
  }

  const Subcommand *Method = nullptr;
  if (Opts.Cmd == Command::Client) {
    if (Opts.ClientArgs.empty()) {
      Err << "bec: client needs a method, e.g. `bec client analyze "
             "bitcount`\n";
      return ExitUsage;
    }
    Method = subcommandOfMethod(Opts.ClientArgs[0]);
  }
  for (const Flag *F : Seen) {
    if (!(F->Commands & of(Opts.Cmd)) &&
        !(Method && (F->ClientReaders & of(Method->Cmd)))) {
      Err << "bec: " << F->Name << " is only valid with " << readersOf(*F)
          << "\n";
      return ExitUsage;
    }
    if (F->LocalOnly && Opts.Remote) {
      Err << "bec: " << F->Name << " runs locally; drop --remote\n";
      return ExitUsage;
    }
  }

  // The rules that span flags.
  if (Opts.Local.Resume && Opts.Local.CheckpointPath.empty()) {
    Err << "bec: --resume requires --checkpoint FILE\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Harden && !Opts.EmitPath.empty() &&
      Opts.Req.Harden.Budgets.size() != 1) {
    Err << "bec: harden --emit requires a single --budget\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Gateway && Opts.GatewayBackends.empty()) {
    Err << "bec: gateway requires --backends H:P[,H:P...]\n";
    return ExitUsage;
  }

  // The request of the subcommand, or of the method a client calls.
  Command Runs = Method ? Method->Cmd : Opts.Cmd;
  if (Targeted & of(Runs)) {
    Opts.Req.Cmd = serve::CommandKind(Runs);
    Opts.Req.Jobs = Opts.Jobs.value_or(1);
    if (!Opts.EmitPath.empty() && Runs == Command::Schedule)
      Opts.Req.EmitSchedule = Opts.EmitPolicy;
    Opts.Req.EmitHardened = !Opts.EmitPath.empty() && Runs == Command::Harden;
  }
  return ExitSuccess;
}

//===----------------------------------------------------------------------===//
// Target loading
//===----------------------------------------------------------------------===//

/// The selected targets in report order, each once: canonical workload
/// names (every workload under --all or when nothing is selected, then
/// each --workload in any casing), then --asm paths. The first
/// \p NumWorkloads are bundled workloads.
int selectTargets(const DriverOptions &Opts, std::vector<std::string> &Targets,
                  size_t &NumWorkloads, std::ostream &Err) {
  auto Add = [&](const std::string &Name) {
    if (std::find(Targets.begin(), Targets.end(), Name) == Targets.end())
      Targets.push_back(Name);
  };
  bool Selected = Opts.AllWorkloads || !Opts.WorkloadNames.empty() ||
                  !Opts.AsmFiles.empty();
  if (Opts.AllWorkloads || !Selected)
    for (const Workload &W : allWorkloads())
      Add(W.Name);
  for (const std::string &Name : Opts.WorkloadNames) {
    const Workload *W = findWorkloadAnyCase(Name);
    if (!W) {
      Err << "bec: unknown workload '" << Name
          << "'; --list-workloads prints the bundled names\n";
      return ExitBadInput;
    }
    Add(W->Name);
  }
  NumWorkloads = Targets.size();
  for (const std::string &Path : Opts.AsmFiles)
    Add(Path);
  return ExitSuccess;
}

/// One emitted program, one checkpoint file and one profile document
/// each describe a single target.
int requireOneTarget(const DriverOptions &Opts, size_t NumTargets,
                     std::ostream &Err) {
  for (const auto &[Path, Flag] : {std::pair{&Opts.EmitPath, "--emit"},
                                   {&Opts.Local.CheckpointPath, "--checkpoint"},
                                   {&Opts.Local.ProfilePath, "--profile"}})
    if (!Path->empty() && NumTargets != 1) {
      Err << "bec: " << Flag << " requires exactly one selected target\n";
      return ExitUsage;
    }
  return ExitSuccess;
}

//===----------------------------------------------------------------------===//
// Shared epilogue
//===----------------------------------------------------------------------===//

/// One --progress line, shared verbatim by the local engine callback and
/// the remote campaign/run progress-frame printer. The base counts are
/// followed by live engine telemetry (throughput from the monotonic
/// clock, ETA, and the steal/rebuild counts that explain flat thread
/// scaling); the telemetry block is omitted when the frame carries none
/// (an older remote server).
std::string progressLine(const std::string &Target,
                         const CampaignProgress &P) {
  std::string Line = "bec: campaign: " + Target + ": " +
                     std::to_string(P.ShardsDone) + "/" +
                     std::to_string(P.TotalShards) + " shards, " +
                     std::to_string(P.RunsDone) + "/" +
                     std::to_string(P.TotalRuns) + " runs";
  if (P.ElapsedSeconds > 0 && P.ExecutedRuns) {
    double Rate = double(P.ExecutedRuns) / P.ElapsedSeconds;
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), " | %.0f runs/s, %.1fs elapsed", Rate,
                  P.ElapsedSeconds);
    Line += Buf;
    if (P.TotalRuns > P.RunsDone && Rate > 0) {
      std::snprintf(Buf, sizeof(Buf), ", eta %.1fs",
                    double(P.TotalRuns - P.RunsDone) / Rate);
      Line += Buf;
    }
    Line += ", " + std::to_string(P.Steals) + " steals, " +
            std::to_string(P.SnapshotRebuilds) + " rebuilds";
  }
  return Line + "\n";
}

/// The epilogue of every subcommand run, local or remote: print output
/// and diagnostics; on success write --emit's program, or a local
/// campaign's resume line and --profile document.
int finishCommand(const serve::CommandOutcome &C, const DriverOptions &Opts,
                  std::ostream &Out, std::ostream &Err) {
  Out << C.Output;
  Err << C.Diag;
  if (C.Exit != ExitSuccess)
    return C.Exit;
  if (!Opts.EmitPath.empty()) {
    if (C.Emit.empty()) {
      Err << "bec: server returned no emitted assembly\n";
      return ExitBadInput;
    }
    if (!writeFile(Opts.EmitPath, C.Emit)) {
      Err << "bec: cannot write '" << Opts.EmitPath << "'\n";
      return ExitBadInput;
    }
    return ExitSuccess;
  }
  if (!C.Campaign)
    return ExitSuccess;
  if (Opts.Local.Resume)
    Err << "bec: campaign: resumed " << C.Campaign->Campaign.ResumedShards
        << " of " << C.Campaign->Campaign.Shards << " shards from '"
        << Opts.Local.CheckpointPath << "'\n";
  if (const std::string &Path = Opts.Local.ProfilePath; !Path.empty()) {
    if (!writeFile(Path,
                   renderCampaignProfileJson(C.Campaign->Campaign.Profile))) {
      Err << "bec: cannot write profile file '" << Path << "'\n";
      return ExitBadInput;
    }
  }
  return ExitSuccess;
}

//===----------------------------------------------------------------------===//
// bec fuzz
//===----------------------------------------------------------------------===//

/// Program seeds render as fixed-width hex everywhere (reports, banked
/// reproducer names, checkpoints) so they can be grepped across all
/// three.
std::string seedHex(uint64_t Seed) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(Seed));
  return Buf;
}

std::string renderFuzzText(const fuzz::FuzzResult &R, uint64_t Seed) {
  std::string Out = "Fuzz corpus: seed " + std::to_string(Seed) + ", " +
                    std::to_string(R.Programs) + " programs";
  if (R.SkippedByBudget)
    Out += " (" + std::to_string(R.SkippedByBudget) + " beyond --budget)";
  if (R.Interrupted)
    Out += " [interrupted]";
  Out += "\n";

  Table Tbl({"Programs", "Exhaustive", "Pruned", "Masked", "Benign", "SDC",
             "Trap", "Hang", "Mismatches", "Seconds"});
  Tbl.row()
      .cell(R.Programs)
      .cell(R.ExhaustiveRuns)
      .cell(R.PrunedRuns)
      .cell(R.PrunedEffects[size_t(FaultEffect::Masked)])
      .cell(R.PrunedEffects[size_t(FaultEffect::Benign)])
      .cell(R.PrunedEffects[size_t(FaultEffect::SDC)])
      .cell(R.PrunedEffects[size_t(FaultEffect::Trap)])
      .cell(R.PrunedEffects[size_t(FaultEffect::Hang)])
      .cell(uint64_t(R.Mismatches.size()))
      .cell(R.Seconds, 2);
  Out += Tbl.render();

  Out += "Idiom coverage:";
  for (size_t I = 0; I < fuzz::NumIdioms; ++I)
    Out += std::string(" ") + fuzz::idiomName(fuzz::Idiom(I)) + " " +
           std::to_string(R.IdiomCount[I]);
  Out += "\n";

  for (const fuzz::FuzzMismatch &M : R.Mismatches) {
    Out += "mismatch: program " + std::to_string(M.Index) + " (seed " +
           seedHex(M.Seed) + "): [" + M.Oracle + "] " + M.Detail + "\n";
    if (!M.BankedPath.empty())
      Out += "  reproducer: " + M.BankedPath + "\n";
  }
  return Out;
}

std::string renderFuzzJson(const fuzz::FuzzResult &R, uint64_t Seed) {
  JsonWriter W;
  W.beginObject();
  W.key("fuzz").beginObject();
  W.key("seed").value(Seed);
  W.key("programs").value(R.Programs);
  W.key("skipped_by_budget").value(R.SkippedByBudget);
  W.key("executed").value(R.Executed);
  W.key("resumed").value(R.Resumed);
  W.key("interrupted").value(R.Interrupted);
  W.key("exhaustive_runs").value(R.ExhaustiveRuns);
  W.key("pruned_runs").value(R.PrunedRuns);
  W.key("pruned_effects").beginObject();
  for (size_t I = 0; I < NumFaultEffects; ++I)
    W.key(toLowerAscii(faultEffectName(FaultEffect(I))))
        .value(R.PrunedEffects[I]);
  W.endObject();
  W.key("idioms").beginObject();
  for (size_t I = 0; I < fuzz::NumIdioms; ++I)
    W.key(fuzz::idiomName(fuzz::Idiom(I))).value(R.IdiomCount[I]);
  W.endObject();
  W.key("mismatches").beginArray();
  for (const fuzz::FuzzMismatch &M : R.Mismatches) {
    W.beginObject();
    W.key("program").value(M.Index);
    W.key("seed").value(seedHex(M.Seed));
    W.key("oracle").value(M.Oracle);
    W.key("detail").value(M.Detail);
    W.key("num_mismatches").value(M.NumMismatches);
    if (!M.BankedPath.empty())
      W.key("reproducer").value(M.BankedPath);
    W.endObject();
  }
  W.endArray();
  W.key("seconds").value(R.Seconds);
  W.endObject();
  W.endObject();
  std::string Out = W.take();
  Out += "\n";
  return Out;
}

/// `bec fuzz`: run (or emit) the differential fuzzing corpus.
int runFuzzCommand(const DriverOptions &Opts, std::ostream &Out,
                   std::ostream &Err) {
  fuzz::FuzzOptions FO;
  const CampaignCmdQuery::Options &C = Opts.Req.Campaign;
  FO.Seed = C.SampleSeed;
  FO.Count = Opts.FuzzCount;
  FO.Budget = Opts.FuzzBudget;
  FO.Threads = ThreadPool::clampJobs(C.Exec.Threads);
  FO.CheckpointPath = Opts.Local.CheckpointPath;
  FO.Resume = Opts.Local.Resume;
  FO.BankDir = Opts.BankDir;
  if (C.MaxCycles)
    FO.Oracle.MaxCycles = C.MaxCycles;

  if (!Opts.EmitCorpusDir.empty()) {
    std::string Error = fuzz::emitCorpus(FO, Opts.EmitCorpusDir);
    if (!Error.empty()) {
      Err << "bec: fuzz: " << Error << "\n";
      return ExitBadInput;
    }
    Out << "bec: fuzz: corpus written to '" << Opts.EmitCorpusDir << "'\n";
    return ExitSuccess;
  }

  if (Opts.Req.Progress)
    FO.OnProgress = [&Err](const fuzz::FuzzProgress &P) {
      // Called under the fuzzer's aggregation lock; no extra mutex.
      Err << "bec: fuzz: " << P.Done << "/" << P.Total << " programs, "
          << P.Mismatches << " mismatches\n";
    };

  fuzz::FuzzResult R = fuzz::runFuzz(FO);
  if (!R.Error.empty()) {
    Err << "bec: fuzz: " << R.Error << "\n";
    return ExitBadInput;
  }
  Out << (Opts.Req.Json ? renderFuzzJson(R, FO.Seed)
                        : renderFuzzText(R, FO.Seed));
  if (FO.Resume)
    Err << "bec: fuzz: resumed " << R.Resumed << " of " << R.Programs
        << " programs from '" << FO.CheckpointPath << "'\n";
  return R.Mismatches.empty() ? ExitSuccess : ExitUnsound;
}

//===----------------------------------------------------------------------===//
// becd: serve, client, --remote
//===----------------------------------------------------------------------===//

/// Prints a server error reply as CLI diagnostics (expanding structured
/// assembler diagnostics the way the local path prints them).
void reportReplyError(const serve::Reply &R, const std::string &AsmPath,
                      std::ostream &Err) {
  if (R.Code == serve::ErrorCode::BadAsm) {
    if (const JsonValue *Diags = R.ErrorData.member("diags")) {
      // Mirrors AnalysisSession::addAsmFile's local diagnostic shape.
      Err << "bec: " << AsmPath << " failed to assemble:\n";
      if (const auto *Arr = Diags->asArray())
        for (const JsonValue &D : *Arr) {
          uint64_t Line = D.memberU64("line").value_or(0);
          uint64_t Col = D.memberU64("col").value_or(0);
          const std::string *Msg = D.memberString("message");
          Err << "line " << Line;
          if (Col != 0)
            Err << ", col " << Col;
          Err << ": " << (Msg ? *Msg : std::string()) << "\n";
        }
      // The local path prints "bec: <error>\n" where the error itself
      // ends in a newline; keep the trailing blank line identical.
      Err << "\n";
      return;
    }
  }
  Err << "bec: " << R.errorText() << "\n";
}

/// Reads \p Path into `intern` method params ({"name","asm"}); nullopt
/// with a diagnostic when the file cannot be read.
std::optional<std::string> internParamsForFile(const std::string &Path,
                                               std::ostream &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err << "bec: cannot open '" << Path << "'\n";
    return std::nullopt;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  JsonWriter P;
  P.beginObject();
  P.key("name").value(Path);
  P.key("asm").value(Buf.str());
  P.endObject();
  return P.take();
}

/// Prints one campaign/run progress frame exactly as the local engine's
/// --progress callback would have.
void printProgress(const JsonValue &P, std::ostream &Err) {
  const std::string *Target = P.memberString("target");
  Err << progressLine(Target ? *Target : "?", serve::progressOf(P));
}

//===----------------------------------------------------------------------===//
// Distributed tracing (--trace-out with --remote / client)
//===----------------------------------------------------------------------===//

/// Distributed-trace state of one invocation. Armed (non-empty TraceId)
/// when --trace-out combines with a remote command: the remote runners
/// inject the context into every request and collect the servers' spans
/// afterwards; runDriver stitches them into the written trace file.
struct DistTrace {
  std::string TraceId;    ///< 32 hex chars; names the whole request tree.
  std::string RootSpanId; ///< The local root span, parent of every hop.
  uint64_t WallBaseUs = 0; ///< Wall clock at traceBegin (epoch us).
  /// Spans from the servers' trace/dump rings, each tagged with the
  /// process label the dump gave it ("becd", "gateway", or a backend's
  /// host:port when the gateway merged its backends' rings).
  std::vector<JsonValue> Spans;

  bool armed() const { return !TraceId.empty(); }
};

uint64_t wallNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Best-effort fetch of the server's spans of \p TraceId (a gateway
/// merges its backends' rings into the same reply). Failures are
/// swallowed: a server without trace/dump still served the command, it
/// just contributes no spans to the stitched file.
void collectRemoteSpans(serve::Client &C, const std::string &TraceId,
                        std::vector<JsonValue> &Out) {
  JsonWriter W;
  W.beginObject();
  W.key("trace_id").value(TraceId);
  W.endObject();
  serve::Reply R = C.call("trace/dump", W.take());
  const JsonValue *Spans = R.Ok ? R.Result.member("spans") : nullptr;
  if (const std::vector<JsonValue> *Arr = Spans ? Spans->asArray() : nullptr)
    Out.insert(Out.end(), Arr->begin(), Arr->end());
}

/// Splices the collected remote spans into \p Doc (a rendered Chrome
/// trace document, which always ends "]}\n") as B/E event pairs: one
/// synthetic pid per remote process (the local process is pid 1),
/// labeled with a process_name metadata event, timestamps re-based from
/// wall clock onto the local trace clock via WallBaseUs. The result is
/// one Perfetto-loadable timeline showing client -> gateway -> backend,
/// with each event's args carrying its span identity for tree checks.
void spliceRemoteSpans(std::string &Doc, const DistTrace &DT) {
  if (DT.Spans.empty())
    return;
  size_t Close = Doc.rfind("]}");
  if (Close == std::string::npos)
    return;
  bool NeedComma = Close > 0 && Doc[Close - 1] != '[';

  std::string Ins;
  auto Push = [&](const std::string &Obj) {
    if (NeedComma)
      Ins += ',';
    NeedComma = true;
    Ins += Obj;
  };
  // Process label -> synthetic pid (index + 2; the local tracer is 1).
  std::vector<std::string> Pids;
  auto PidOf = [&](const std::string &Process) {
    for (size_t I = 0; I < Pids.size(); ++I)
      if (Pids[I] == Process)
        return static_cast<uint64_t>(I + 2);
    Pids.push_back(Process);
    uint64_t Pid = Pids.size() + 1;
    JsonWriter MW;
    MW.beginObject();
    MW.key("name").value("process_name");
    MW.key("ph").value("M");
    MW.key("pid").value(Pid);
    MW.key("tid").value(uint64_t(0));
    MW.key("args").beginObject();
    MW.key("name").value(Process);
    MW.endObject();
    MW.endObject();
    Push(MW.take());
    return Pid;
  };

  for (const JsonValue &S : DT.Spans) {
    auto Str = [&](const char *Key) {
      const std::string *M = S.memberString(Key);
      return M ? *M : std::string();
    };
    std::string Name = Str("name"), SpanId = Str("span_id");
    if (Name.empty() || SpanId.empty())
      continue;
    std::string Process = Str("process");
    uint64_t Pid = PidOf(Process.empty() ? "server" : Process);
    uint64_t Start = S.memberU64("start_us").value_or(0);
    uint64_t Ts = Start >= DT.WallBaseUs ? Start - DT.WallBaseUs : 0;
    auto Event = [&](const char *Ph, uint64_t At) {
      JsonWriter EW;
      EW.beginObject();
      EW.key("name").value(Name);
      EW.key("cat").value("bec");
      EW.key("ph").value(Ph);
      EW.key("ts").value(At);
      EW.key("pid").value(Pid);
      EW.key("tid").value(S.memberU64("tid").value_or(0));
      EW.endObject();
      return EW.take();
    };

    // The span's identity rides on the B event's args, merged after any
    // args the server recorded (same pre-rendered-splice idiom as the
    // local tracer).
    JsonWriter AW;
    AW.beginObject();
    AW.key("trace_id").value(Str("trace_id"));
    AW.key("span_id").value(SpanId);
    if (std::string Parent = Str("parent_span"); !Parent.empty())
      AW.key("parent_span").value(Parent);
    AW.endObject();
    std::string Args = AW.take();
    const JsonValue *Recorded = S.member("args");
    if (std::string Own = Recorded ? Recorded->toJson() : ""; Own.size() > 2)
      Args = Own.substr(0, Own.size() - 1) + "," + Args.substr(1);

    std::string B = Event("B", Ts);
    B.pop_back();
    Push(B + ",\"args\":" + Args + "}");
    Push(Event("E", Ts + S.memberU64("dur_us").value_or(0)));
  }
  Doc.insert(Close, Ins);
}

/// Connects to the --remote server; under an armed trace every frame
/// carries the distributed trace context, parented at the root span.
std::optional<serve::Client> connectRemote(const DriverOptions &Opts,
                                           const DistTrace *DT,
                                           std::ostream &Err) {
  std::string ConnErr;
  std::optional<serve::Client> C =
      serve::Client::connect(Opts.RemoteHost, Opts.RemotePort, ConnErr);
  if (!C)
    Err << "bec: " << ConnErr << "\n";
  else if (DT && DT->armed())
    C->setTrace({DT->TraceId, DT->RootSpanId});
  return C;
}

/// Calls \p Method on the --remote server and prints its result: a
/// subcommand's through the local epilogue, any other method's as JSON,
/// campaign/run's progress frames as --progress lines, and errors as CLI
/// diagnostics (\p AsmPath names an interned file). Under an armed trace
/// the servers' spans are collected whether or not the call succeeded
/// (a failed hop's spans are what the trace is for), by a dump request
/// that is not itself part of the trace.
int callRemote(serve::Client &C, const std::string &Method,
               const std::string &Params, const std::string &AsmPath,
               const DriverOptions &Opts, DistTrace *DT, std::ostream &Out,
               std::ostream &Err) {
  serve::Reply R =
      Method == "campaign/run"
          ? C.callStreaming(Method, Params,
                            [&](const JsonValue &P) { printProgress(P, Err); })
          : C.call(Method, Params);
  if (DT && DT->armed() && Method != "shutdown") {
    C.setTrace({});
    collectRemoteSpans(C, DT->TraceId, DT->Spans);
  }
  if (!R.Ok) {
    reportReplyError(R, AsmPath, Err);
    return ExitBadInput;
  }
  if (!serve::commandOfMethod(Method)) {
    Out << R.Result.toJson() << "\n";
    return ExitSuccess;
  }
  std::optional<serve::CommandOutcome> Result = serve::outcomeOf(R.Result);
  if (!Result) {
    Err << "bec: malformed result from server\n";
    return ExitBadInput;
  }
  return finishCommand(*Result, Opts, Out, Err);
}

/// `bec <subcommand> --remote host:port`: transparent offload.
int runRemote(const DriverOptions &Opts,
              const std::vector<std::string> &Targets, DistTrace *DT,
              std::ostream &Out, std::ostream &Err) {
  // Under --trace-out every frame of this exchange (interns included)
  // carries the distributed trace context, parented at the root span.
  std::optional<serve::Client> C = connectRemote(Opts, DT, Err);
  if (!C)
    return ExitBadInput;
  // Pool each external file on the server under its path name.
  for (const std::string &Path : Opts.AsmFiles) {
    std::optional<std::string> Params = internParamsForFile(Path, Err);
    if (!Params)
      return ExitBadInput;
    serve::Reply R = C->call("intern", *Params);
    if (!R.Ok) {
      reportReplyError(R, Path, Err);
      return ExitBadInput;
    }
  }

  serve::CommandRequest Req = Opts.Req;
  Req.Targets = Targets;
  // Campaigns offload through the streaming method so a long remote run
  // narrates itself; without --progress no frames are sent and the
  // exchange is byte-for-byte the unary `campaign` method's.
  return callRemote(*C,
                    Opts.Cmd == Command::Campaign
                        ? "campaign/run"
                        : subcommand(Opts.Cmd).Name,
                    serve::encode(Req), "", Opts, DT, Out, Err);
}

/// Binds \p Srv, announces "<Who> listening on host:port (api, protocol)"
/// plus \p Tail, publishes the bound port for scripts using --port 0
/// (write-then-rename, so pollers never see a partial file) and serves
/// until shutdown.
int listenAndRun(net::EventServer &Srv, const DriverOptions &Opts,
                 const char *Who, const std::string &Tail, std::ostream &Out,
                 std::ostream &Err) {
  std::string BindErr;
  if (!Srv.start(BindErr)) {
    Err << "bec: " << subcommand(Opts.Cmd).Name << ": " << BindErr << "\n";
    return ExitBadInput;
  }
  Out << Who << " listening on " << Opts.ServeHost << ":" << Srv.port()
      << " (api " << BEC_API_VERSION_STRING << ", protocol "
      << serve::ProtocolVersion << ")" << Tail << "\n";
  Out.flush();
  if (!Opts.PortFile.empty()) {
    std::string Tmp = Opts.PortFile + ".tmp";
    if (!writeFile(Tmp, std::to_string(Srv.port()) + "\n")) {
      Err << "bec: cannot write '" << Opts.PortFile << "'\n";
      return ExitBadInput;
    }
    std::rename(Tmp.c_str(), Opts.PortFile.c_str());
  }
  Srv.run();
  return ExitSuccess;
}

/// Applies --log-level/--log-file/--log-format and labels this process's
/// span ring before a daemon starts serving. The label is what the
/// daemon's trace/dump spans carry as their "process" member.
int applyDaemonObsOptions(const DriverOptions &Opts, const char *Process,
                          std::ostream &Err) {
  obs::setSpanRingProcess(Process);
  obs::setLogFormat(Opts.LogFmt);
  if (!Opts.LogFilePath.empty()) {
    std::string LogErr;
    if (!obs::openLogFile(Opts.LogFilePath, LogErr)) {
      Err << "bec: " << LogErr << "\n";
      return ExitBadInput;
    }
  }
  obs::setLogLevel(Opts.LogLevel);
  return ExitSuccess;
}

/// `bec serve`: run the becd server on the net/ event loop until a
/// shutdown request.
int runServe(const DriverOptions &Opts, std::ostream &Out,
             std::ostream &Err) {
  if (int Status = applyDaemonObsOptions(Opts, "becd", Err))
    return Status;
  serve::Service Svc;
  net::EventServer::Options EO;
  EO.Host = Opts.ServeHost;
  EO.Port = Opts.ServePort;
  // --jobs sizes the worker pool executing requests (0 = one per core);
  // it does not bound connections.
  EO.Workers = Opts.Jobs.value_or(0);
  EO.QueueDepth = Opts.QueueDepth;
  net::EventServer Srv(
      [&Svc](std::string_view Line, const net::FrameSink &Sink) {
        return Svc.handleFrameStreaming(Line, Sink);
      },
      Svc.handshakeFrame(), EO);
  Srv.setDrainCheck([&Svc] { return Svc.isShuttingDown(); });
  Srv.setAcceptCallback([&Svc] { Svc.noteConnection(); });
  if (int Status = listenAndRun(Srv, Opts, "becd", "", Out, Err))
    return Status;
  Out << "becd: shut down\n";
  return ExitSuccess;
}

/// `bec gateway`: front N becd backends behind one becd-compatible
/// endpoint on the event-loop core; see net/Gateway.h.
int runGateway(const DriverOptions &Opts, std::ostream &Out,
               std::ostream &Err) {
  if (int Status = applyDaemonObsOptions(Opts, "gateway", Err))
    return Status;
  net::Gateway::Options GO;
  GO.Backends = Opts.GatewayBackends;
  GO.HealthIntervalMs = Opts.HealthIntervalSec * 1000;
  net::Gateway GW(GO);
  std::string GwErr;
  if (!GW.start(GwErr)) {
    Err << "bec: gateway: " << GwErr << "\n";
    return ExitBadInput;
  }

  net::EventServer::Options EO;
  EO.Host = Opts.ServeHost;
  EO.Port = Opts.ServePort;
  // Gateway workers block on upstream becds (I/O-bound), so default a
  // small fixed pool rather than one per core.
  EO.Workers = Opts.Jobs.value_or(8);
  net::EventServer Srv(
      [&GW](std::string_view Line, const net::FrameSink &Sink) {
        return GW.handleFrame(Line, Sink);
      },
      GW.handshakeFrame(), EO);
  Srv.setDrainCheck([&GW] { return GW.isDraining(); });
  std::string Tail = " -> " + std::to_string(GW.backendCount()) + " backends";
  if (int Status = listenAndRun(Srv, Opts, "bec gateway", Tail, Out, Err))
    return Status;
  GW.stop();
  Out << "gateway: shut down\n";
  return ExitSuccess;
}

//===----------------------------------------------------------------------===//
// bec stats
//===----------------------------------------------------------------------===//

/// Renders a becd `stats` reply as the human-facing summary table. A
/// gateway's aggregated reply carries a "gateway" member with per-backend
/// health, rendered first; the shared counter/latency shape follows.
std::string renderRemoteStatsText(const JsonValue &R) {
  std::string Out;
  if (const JsonValue *G = R.member("gateway")) {
    const std::vector<JsonValue> *Backends =
        G->member("backends") ? G->member("backends")->asArray() : nullptr;
    size_t Total = 0, Healthy = 0;
    std::string Lines;
    auto MemberBool = [](const JsonValue &V, std::string_view Key) {
      const JsonValue *M = V.member(Key);
      return M && M->asBool().value_or(false);
    };
    if (Backends)
      for (const JsonValue &B : *Backends) {
        ++Total;
        bool Up = MemberBool(B, "healthy");
        bool Drain = MemberBool(B, "draining");
        if (Up && !Drain)
          ++Healthy;
        const std::string *Addr = B.memberString("address");
        Lines += "  " + (Addr ? *Addr : std::string("?")) + " " +
                 (Drain ? "draining" : Up ? "healthy" : "unhealthy") +
                 ", forwarded " +
                 std::to_string(B.memberU64("forwarded").value_or(0)) +
                 ", failovers " +
                 std::to_string(B.memberU64("failovers").value_or(0)) + "\n";
      }
    Out += "gateway: " + std::to_string(Healthy) + "/" +
           std::to_string(Total) + " backends in routing\n" + Lines;
  }
  Out += "becd: " +
                    std::to_string(R.memberU64("connections").value_or(0)) +
                    " connections, " +
                    std::to_string(R.memberU64("requests").value_or(0)) +
                    " requests, " +
                    std::to_string(R.memberU64("errors").value_or(0)) +
                    " errors, " +
                    std::to_string(R.memberU64("programs").value_or(0)) +
                    " programs\n";
  if (const JsonValue *S = R.member("session")) {
    uint64_t Hits = S->memberU64("hits").value_or(0);
    uint64_t Misses = S->memberU64("misses").value_or(0);
    Out += "session: " + std::to_string(Hits) + " hits, " +
           std::to_string(Misses) + " misses";
    if (Hits + Misses)
      Out += " (hit rate " +
             Table::percent(double(Hits) / double(Hits + Misses)) + ")";
    Out += ", " + std::to_string(S->memberU64("interned").value_or(0)) +
           " interned, " +
           std::to_string(S->memberU64("shards").value_or(0)) + " shards\n";
  }

  const JsonValue *Methods = R.member("methods");
  const JsonValue *Latency = R.member("latency");
  if (Methods && !Methods->objectMembers().empty()) {
    Table Tbl({"Method", "Count", "p50 (us)", "p99 (us)", "Mean (us)"});
    for (const auto &[Method, Count] : Methods->objectMembers()) {
      Tbl.row().cell(Method).cell(Count.asU64().value_or(0));
      const JsonValue *L = Latency ? Latency->member(Method) : nullptr;
      if (L) {
        Tbl.cell(L->memberU64("p50_us").value_or(0));
        Tbl.cell(L->memberU64("p99_us").value_or(0));
        double Mean = 0;
        if (const JsonValue *M = L->member("mean_us"))
          Mean = M->asDouble().value_or(0);
        Tbl.cell(Mean, 1);
      } else {
        Tbl.cell("-").cell("-").cell("-");
      }
    }
    Out += Tbl.render();
  }

  if (const JsonValue *Gauges = R.member("gauges"))
    if (!Gauges->objectMembers().empty()) {
      Out += "gauges:";
      for (const auto &[Name, V] : Gauges->objectMembers())
        Out += " " + Name + "=" + std::to_string(V.asI64().value_or(0));
      Out += "\n";
    }
  return Out;
}

/// Renders this process's own registry (the no---remote mode; mostly
/// interesting after library code ran in-process, and the debug surface
/// for the metric catalog itself).
std::string renderLocalStatsText(const obs::MetricsSnapshot &Snap) {
  if (Snap.Metrics.empty())
    return "bec: stats: no metrics recorded in this process (build with "
           "observability enabled and run a subcommand; --remote H:P reads "
           "a live becd server)\n";
  Table Tbl({"Metric", "Kind", "Value", "p50 (us)", "p99 (us)"});
  for (const obs::MetricValue &M : Snap.Metrics) {
    switch (M.Kind) {
    case obs::MetricKind::Counter:
      Tbl.row().cell(M.Name).cell("counter").cell(M.Value).cell("-").cell(
          "-");
      break;
    case obs::MetricKind::Gauge:
      Tbl.row().cell(M.Name).cell("gauge").cell(
          std::to_string(M.GaugeValue));
      Tbl.cell("-").cell("-");
      break;
    case obs::MetricKind::Histogram:
      Tbl.row().cell(M.Name).cell("histogram").cell(M.Hist.Count);
      Tbl.cell(M.Hist.quantileUs(0.50)).cell(M.Hist.quantileUs(0.99));
      break;
    }
  }
  return Tbl.render();
}

/// Counters sampled from one remote stats reply, kept across --watch
/// iterations so later polls can print deltas instead of re-dumping the
/// cumulative table.
struct StatsSample {
  bool Valid = false;
  uint64_t Requests = 0;
  uint64_t Errors = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

StatsSample sampleRemoteStats(const JsonValue &R) {
  StatsSample S;
  S.Valid = true;
  S.Requests = R.memberU64("requests").value_or(0);
  S.Errors = R.memberU64("errors").value_or(0);
  if (const JsonValue *Sess = R.member("session")) {
    S.Hits = Sess->memberU64("hits").value_or(0);
    S.Misses = Sess->memberU64("misses").value_or(0);
  }
  return S;
}

/// One --watch interval as rates: what changed in the last \p Sec
/// seconds. Counters are monotone, so plain differences are safe.
std::string renderStatsDelta(const StatsSample &Prev, const StatsSample &Cur,
                             uint64_t Sec) {
  uint64_t DReq = Cur.Requests - Prev.Requests;
  uint64_t DErr = Cur.Errors - Prev.Errors;
  uint64_t DHits = Cur.Hits - Prev.Hits;
  uint64_t DMiss = Cur.Misses - Prev.Misses;
  char Rate[32];
  std::snprintf(Rate, sizeof(Rate), "%.1f",
                double(DReq) / double(Sec ? Sec : 1));
  std::string Out = "+" + std::to_string(DReq) + " requests (" + Rate +
                    "/s), +" + std::to_string(DErr) + " errors";
  if (DHits + DMiss)
    Out += ", window hit rate " +
           Table::percent(double(DHits) / double(DHits + DMiss)) + " (" +
           std::to_string(DHits) + " hits, " + std::to_string(DMiss) +
           " misses)";
  return Out + "\n";
}

/// One `bec stats` poll (one iteration of --watch).
int statsOnce(const DriverOptions &Opts, StatsSample &Prev, std::ostream &Out,
              std::ostream &Err) {
  if (!Opts.Remote) {
    obs::MetricsSnapshot Snap = obs::snapshotMetrics();
    Out << (Opts.StatsMetrics ? obs::renderPrometheus(Snap)
                              : renderLocalStatsText(Snap));
    return ExitSuccess;
  }
  std::optional<serve::Client> C = connectRemote(Opts, nullptr, Err);
  if (!C)
    return ExitBadInput;
  serve::Reply R = C->call(Opts.StatsMetrics ? "metrics" : "stats");
  if (!R.Ok) {
    Err << "bec: " << R.errorText() << "\n";
    return ExitBadInput;
  }
  if (Opts.StatsMetrics) {
    const std::string *Text = R.Result.memberString("text");
    if (!Text) {
      Err << "bec: malformed metrics reply from server\n";
      return ExitBadInput;
    }
    Out << *Text;
    return ExitSuccess;
  }
  // --watch: the first poll prints the full cumulative table (the
  // baseline); every later poll prints one per-interval delta line.
  StatsSample Cur = sampleRemoteStats(R.Result);
  if (Opts.WatchSeconds && Prev.Valid)
    Out << renderStatsDelta(Prev, Cur, Opts.WatchSeconds);
  else
    Out << renderRemoteStatsText(R.Result);
  Prev = Cur;
  return ExitSuccess;
}

/// `bec stats [--remote H:P] [--metrics] [--watch SEC]`.
int runStats(const DriverOptions &Opts, std::ostream &Out,
             std::ostream &Err) {
  StatsSample Prev;
  for (;;) {
    if (int Status = statsOnce(Opts, Prev, Out, Err))
      return Status;
    if (!Opts.WatchSeconds)
      return ExitSuccess;
    Out.flush();
    std::this_thread::sleep_for(std::chrono::seconds(Opts.WatchSeconds));
  }
}

/// A `bec client` method that is not a subcommand pipeline: its at most
/// one positional argument, sent as the param \p Param (intern instead
/// sends the named file).
struct ClientMethod {
  const char *Name;
  const char *Param = nullptr; ///< Null: takes no argument.
  const char *Arg = nullptr;   ///< What the argument is, for usage errors.
  bool ArgRequired = false;
};

const ClientMethod ClientMethods[] = {
    {"version"}, {"stats"}, {"metrics"}, {"shutdown"}, {"gateway/backends"},
    {"gateway/drain", "backend", "backend host:port", true},
    {"gateway/undrain", "backend", "backend host:port", true},
    {"trace/dump", "trace_id", "trace id"},
    {"log/level", "level", "level (debug | info | warn | error | off)"},
    {"counts", "target", "target", true},
    {"intern", "name", "assembly file", true},
};

/// `bec client <method> ...`: one raw method call.
int runClient(const DriverOptions &Opts, DistTrace *DT, std::ostream &Out,
              std::ostream &Err) {
  const std::string &Method = Opts.ClientArgs[0];
  std::vector<std::string> Positional(Opts.ClientArgs.begin() + 1,
                                      Opts.ClientArgs.end());

  // Build params before connecting so usage errors stay local.
  std::string Params;
  std::string AsmPath;
  if (subcommandOfMethod(Method)) {
    serve::CommandRequest Req = Opts.Req;
    Req.Targets = Positional;
    Params = serve::encode(Req);
  } else if (const ClientMethod *M = std::find_if(
                 std::begin(ClientMethods), std::end(ClientMethods),
                 [&](const ClientMethod &M) { return Method == M.Name; });
             M != std::end(ClientMethods)) {
    size_t Most = M->Param ? 1 : 0, Least = M->ArgRequired ? 1 : 0;
    if (Positional.size() < Least || Positional.size() > Most) {
      Err << "bec: client " << Method
          << (!Most    ? " takes no arguments"
              : Least ? " needs exactly one " + std::string(M->Arg)
                      : " takes at most one " + std::string(M->Arg))
          << "\n";
      return ExitUsage;
    }
    if (Method == "intern") {
      // Ships the file's text; the server pools it under its path.
      AsmPath = Positional[0];
      std::optional<std::string> InternParams =
          internParamsForFile(AsmPath, Err);
      if (!InternParams)
        return ExitBadInput;
      Params = *InternParams;
    } else if (!Positional.empty()) {
      JsonWriter W;
      W.beginObject();
      W.key(M->Param).value(Positional[0]);
      W.endObject();
      Params = W.take();
    }
  } else {
    Err << "bec: unknown client method '" << Method << "'\n";
    return ExitUsage;
  }

  std::optional<serve::Client> C = connectRemote(Opts, DT, Err);
  if (!C)
    return ExitBadInput;
  return callRemote(*C, Method, Params, AsmPath, Opts, DT, Out, Err);
}

/// Everything after argument parsing: subcommand dispatch. Split out so
/// runDriver can scope the root trace span around exactly this.
int runParsed(const DriverOptions &Opts, DistTrace *DT, std::ostream &Out,
              std::ostream &Err) {
  if (Opts.Cmd == Command::Serve)
    return runServe(Opts, Out, Err);
  if (Opts.Cmd == Command::Gateway)
    return runGateway(Opts, Out, Err);
  if (Opts.Cmd == Command::Client)
    return runClient(Opts, DT, Out, Err);
  if (Opts.Cmd == Command::Fuzz)
    return runFuzzCommand(Opts, Out, Err);
  // stats handles --remote itself (it is the one subcommand whose remote
  // form is not a mirrored server method call over targets).
  if (Opts.Cmd == Command::Stats)
    return runStats(Opts, Out, Err);
  std::vector<std::string> Targets;
  size_t NumWorkloads = 0;
  if (int Status = selectTargets(Opts, Targets, NumWorkloads, Err))
    return Status;
  if (int Status = requireOneTarget(Opts, Targets.size(), Err))
    return Status;
  if (Opts.Remote)
    return runRemote(Opts, Targets, DT, Out, Err);

  AnalysisSession S;
  for (size_t I = 0; I < Targets.size(); ++I) {
    std::string Error;
    if (I < NumWorkloads) {
      S.addProgram(Targets[I], loadWorkload(*findWorkload(Targets[I])));
    } else if (!S.addAsmFile(Targets[I], Error)) {
      Err << "bec: " << Error << "\n";
      return ExitBadInput;
    }
  }
  std::vector<CachedProgramPtr> Progs;
  for (size_t I = 0; I < S.numTargets(); ++I)
    Progs.push_back(S.cached(static_cast<AnalysisSession::TargetId>(I)));
  serve::CommandOutcome C = serve::runCommand(
      S, Targets, Progs, Opts.Req, Opts.Local,
      [&Err](const std::string &Target, const CampaignProgress &P) {
        Err << progressLine(Target, P);
      });
  return finishCommand(C, Opts, Out, Err);
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

int bec::tool::runDriver(const std::vector<std::string> &Args,
                         std::ostream &Out, std::ostream &Err) {
  DriverOptions Opts;
  if (int Status = parseArgs(Args, Opts, Err))
    return Status;
  switch (Opts.Cmd) {
  case Command::Help:
    printUsage(Out);
    return ExitSuccess;
  case Command::ListWorkloads:
    for (const Workload &W : allWorkloads())
      Out << W.Name << "\n";
    return ExitSuccess;
  case Command::Version:
    Out << "bec " << BEC_API_VERSION_STRING << " (" << buildType()
        << ", protocol " << serve::ProtocolVersion << ")\n";
    return ExitSuccess;
  default:
    break;
  }

  // --trace-out against a server arms distributed tracing: a fresh
  // 128-bit trace id plus the local root span's id travel in every
  // request envelope, and the servers' spans come back via trace/dump.
  DistTrace DT;
  if (!Opts.TraceOutPath.empty() &&
      (Opts.Remote || Opts.Cmd == Command::Client)) {
    DT.TraceId = obs::newTraceId128();
    DT.RootSpanId = obs::newSpanId64();
  }
  if (!Opts.TraceOutPath.empty()) {
    obs::traceBegin();
    // Remote spans carry wall-clock starts; this is the base that maps
    // them onto the local trace clock (which starts at 0 here).
    DT.WallBaseUs = wallNowUs();
  }
  int Status;
  {
    obs::Span Root(obs::traceActive()
                       ? std::string("bec:") + subcommand(Opts.Cmd).Name
                       : std::string());
    if (DT.armed() && obs::traceActive()) {
      Root.argStr("trace_id", DT.TraceId);
      Root.argStr("span_id", DT.RootSpanId);
    }
    Status = runParsed(Opts, &DT, Out, Err);
  }
  if (!Opts.TraceOutPath.empty()) {
    std::string Doc = obs::traceEnd();
    spliceRemoteSpans(Doc, DT);
    if (!writeFile(Opts.TraceOutPath, Doc)) {
      Err << "bec: cannot write trace file '" << Opts.TraceOutPath << "'\n";
      if (Status == ExitSuccess)
        Status = ExitBadInput;
    }
  }
  return Status;
}
