//===- tools/Driver.cpp - The `bec` pipeline driver ------------------------===//
//
// The driver is a thin shell over api/Api.h: it parses the command line,
// loads targets into an AnalysisSession, fans the per-target subcommand
// queries out on a thread pool (Session::evaluateAll), and renders the
// result objects through the shared api/Serialize.h serializer (tables or
// JSON). All pipeline logic lives behind the session.
//
// With `--remote host:port` the analysis subcommands offload to a becd
// server (src/serve/) instead: local argument parsing, remote execution
// against the server's shared session pool, byte-identical output. `bec
// serve` runs that server; `bec client` speaks the raw method table.
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
#include "serve/Service.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>

using namespace bec;
using namespace bec::tool;

namespace {

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

const char *const UsageText = R"(usage: bec <subcommand> [options]

Subcommands:
  analyze    Static fault-space metrics per target (Table III shape).
  campaign   Plan and execute a fault-injection campaign per target.
  schedule   Vulnerability-aware list scheduling; vulnerability per policy.
  harden     BEC-guided selective hardening under a dynamic-instruction
             budget; per target the reached cost/vulnerability Pareto
             point plus closed-loop validation. Exits 3 if any hardened
             program fails validation.
  report     Full pipeline: metrics + bit-level campaign + soundness
             validation. Exits 3 if any target validates unsound.
  fuzz       Differential soundness fuzzing: generate a seeded corpus of
             verifier-legal programs and cross-check the BEC-pruned
             campaign against exhaustive injection, plus print/parse
             round-trip, fate-validation, engine-determinism, harden and
             session oracles. Mismatching programs are delta-debugged to
             1-minimal reproducers. Takes no targets; local only.
             Exits 3 on any mismatch.
  serve      Run the becd analysis server: a shared, cached session pool
             behind a newline-delimited JSON-RPC protocol over TCP,
             served by a poll() event loop with a bounded worker pool
             (connections decoupled from threads, pipelining, typed
             overload errors).
  gateway    Front N becd backends behind one becd-indistinguishable
             endpoint: requests route by consistent hashing of their
             program name, so each backend's session cache holds a
             stable shard of the program space. Health-checks, drains
             (gateway/drain) and fails over between backends; `stats
             --remote` through it aggregates every backend.
  client     Speak the becd method table directly:
               bec client [--remote H:P] <method> [targets...] [options]
             Methods: version stats metrics shutdown counts intern
             analyze campaign campaign/run schedule harden report,
             trace/dump [trace-id], log/level [level].
             Against a gateway also: gateway/backends,
             gateway/drain H:P, gateway/undrain H:P.
  stats      Print this process's observability metrics, or — with
             --remote H:P — a live becd server's counters, per-method
             latency percentiles, cache hit rates and gauges.
  version    Print the API version and build type (also: --version).

Target selection (default: all bundled workloads):
  --workload NAME   Add one bundled workload (case-insensitive; repeatable).
  --asm FILE        Add an external assembly file in the bec dialect.
  --all             Add every bundled workload.
  --list-workloads  Print the bundled workload names and exit.

Options:
  --jobs N          Evaluate independent targets on N pool threads
                    (default 1; 0 = hardware concurrency).
  --plan KIND       campaign plan: exhaustive | value | bit (default bit).
  --sample N        campaign: execute a stratified sample of N runs of
                    the planned fault space and report 95% confidence
                    intervals on the effect rates (0 = run everything;
                    default 0).
  --seed S          campaign: PRNG seed of --sample (default 1; same
                    plan + same seed = same sample).
                    fuzz: the corpus seed — same seed + same options =
                    byte-identical corpus and report.
  --threads N       campaign: worker threads of the sharded injection
                    engine, per target (default 1; 0 = hardware
                    concurrency). Never changes the report.
                    fuzz: oracle workers, same guarantee.
  --shard-size N    campaign: runs per engine shard (default: picked
                    from the plan size). Checkpoints record it.
  --prefix-checkpoint[=K|=off]
                    campaign: fork runs from periodic golden snapshots
                    and splice reconverged suffixes (default: on, period
                    auto-tuned; =K snapshots every K cycles; =off
                    replays every suffix). Never changes the report.
  --checkpoint FILE campaign: stream per-shard result batches to FILE
                    (JSONL) so an interrupted campaign can be resumed.
                    Requires exactly one selected target; local only.
                    fuzz: per-program result records, same conventions.
  --resume          campaign: load completed shards from --checkpoint
                    and execute only the remainder. The final report is
                    byte-identical to an uninterrupted run.
                    fuzz: skip programs the checkpoint already settled.
  --progress        campaign: print shard progress to stderr while the
                    engine runs (works with --remote via the streaming
                    campaign/run method).
                    fuzz: print per-program progress to stderr.
  --count N         fuzz: number of generated programs (default 100).
  --bank DIR        fuzz: write minimized reproducers of mismatching
                    programs into DIR as repro_<seed>.s files.
  --emit-corpus DIR fuzz: write the selected corpus into DIR as
                    seed_<seed>.s files and exit without running any
                    oracle (regenerates tests/corpus/).
  --policy KIND     schedule policy for --emit: best | worst | source
                    (default best).
  --emit FILE       schedule: write the scheduled program of the single
                    selected target to FILE as assembly.
                    harden: write the hardened program instead.
  --budget P        harden: max extra dynamic instructions in percent
                    of the baseline run (default 10).
                    fuzz: cap on the cumulative exhaustive fault-space
                    size of the corpus; programs are kept in index
                    order until the budget is spent (0 = unlimited;
                    the CI smoke job bounds its cost this way).
  --sweep A,B,..    harden only: evaluate several budgets per target and
                    print the full cost-vs-vulnerability table.
  --format KIND     output format of any subcommand: text | json
                    (default text).
  --max-cycles N    Truncate campaign/validation windows to N cycles
                    (0 = whole trace; default 0). fuzz: the oracle
                    injection window (0 keeps the default of 48).
  --remote H:P      Run this subcommand on a becd server instead of
                    in-process (output is byte-identical). Also selects
                    the server for `bec client` and `bec stats`
                    (default 127.0.0.1:4690).
  --trace-out FILE  Write a Chrome trace_event JSON file covering this
                    invocation (load in Perfetto or chrome://tracing):
                    session query evaluation, engine workers (runs,
                    steals, snapshot rebuilds, idle time), serve request
                    handling, fuzz oracle stages. Combined with --remote
                    (or `bec client`) the request carries a distributed
                    trace context; the servers' spans are collected via
                    trace/dump and stitched into the same file, so one
                    timeline shows client -> gateway -> backend
                    (failover retries included). Valid with every
                    subcommand; never changes the printed output.
  --profile FILE    campaign: write the engine scaling profile to FILE
                    as JSON — per-worker wall-time split into run /
                    snapshot-rebuild / steal / idle phases, per-shard
                    records, and a machine-readable bottleneck
                    diagnosis. Requires exactly one selected target;
                    local only (profiles this process's engine). Never
                    changes the report.
  --watch SEC       stats: re-print every SEC seconds until interrupted.
                    With --remote, iterations after the first print
                    per-interval deltas (req/s, errors/s, window cache
                    hit rate) instead of repeating cumulative totals.
  --metrics         stats: print the raw Prometheus text exposition
                    instead of the human table (the scrape format the
                    becd `metrics` method returns).
  --host ADDR       serve/gateway: bind address (default 127.0.0.1).
  --port N          serve/gateway: TCP port; 0 picks an ephemeral port
                    (default 4690).
  --port-file FILE  serve/gateway: write the bound port to FILE once
                    listening (for scripts using --port 0).
  --queue-depth N   serve: admitted requests that may wait for a worker
                    before the next is answered with error 105
                    `overloaded` (default 256).
  --backends LIST   gateway only (required): comma-separated becd
                    backends, host:port each.
  --health-interval SEC
                    gateway: seconds between per-backend `version`
                    health probes (default 2).
  --log-level LVL   serve/gateway: structured-log verbosity, one of
                    debug | info | warn | error | off (default off —
                    logging is disabled unless this is given). The
                    running daemon's level can be changed later with
                    the log/level method.
  --log-file FILE   serve/gateway: append log lines to FILE instead of
                    stderr.
  --log-format KIND serve/gateway: log line shape, jsonl (default) or
                    logfmt.
  -h, --help        Print this help and exit.

Exit codes: 0 success, 1 usage error, 2 bad input, 3 unsound validation.
)";

enum class Command { Analyze, Campaign, Schedule, Harden, Report, Fuzz,
                     Serve, Gateway, Client, Stats };
enum class OutputFormat { Text, Json };

struct DriverOptions {
  Command Cmd = Command::Analyze;
  std::vector<std::string> WorkloadNames;
  std::vector<std::string> AsmFiles;
  bool AllWorkloads = false;
  unsigned Jobs = 1;
  bool JobsExplicit = false;
  PlanKind Plan = PlanKind::BitLevel;
  /// campaign: sampling, engine parallelism, checkpointing, progress.
  uint64_t SampleSize = 0;
  uint64_t SampleSeed = 1;
  unsigned CampaignThreads = 1;
  bool CampaignThreadsExplicit = false;
  uint64_t ShardSize = 0;
  bool PrefixCheckpoint = true;
  uint64_t CheckpointEveryK = 0;
  bool PrefixCheckpointExplicit = false;
  std::string CheckpointPath;
  bool Resume = false;
  bool Progress = false;
  bool SeedExplicit = false;
  SchedulePolicy EmitPolicy = SchedulePolicy::BestReliability;
  std::string EmitPath;
  uint64_t MaxCycles = 0;
  /// harden: budgets to evaluate (one entry unless --sweep is given).
  std::vector<double> Budgets = {10.0};
  /// fuzz: corpus size, exhaustive-run budget, reproducer bank,
  /// corpus-emission directory.
  uint64_t FuzzCount = 100;
  uint64_t FuzzBudget = 0;
  std::string BankDir;
  std::string EmitCorpusDir;
  bool FuzzFlagsUsed = false;
  OutputFormat Format = OutputFormat::Text;
  /// --remote: offload to a becd server.
  bool Remote = false;
  std::string RemoteHost = "127.0.0.1";
  uint16_t RemotePort = serve::DefaultPort;
  /// serve/gateway options (--host/--port/--port-file are shared; the
  /// queue depth is serve-only, the backend list and health cadence
  /// gateway-only).
  std::string ServeHost = "127.0.0.1";
  uint16_t ServePort = serve::DefaultPort;
  std::string PortFile;
  bool ServeFlagsUsed = false;
  size_t QueueDepth = 256;
  bool QueueDepthExplicit = false;
  std::vector<std::string> GatewayBackends;
  unsigned HealthIntervalMs = 2000;
  bool GatewayFlagsUsed = false;
  /// serve/gateway structured logging (--log-level/--log-file/
  /// --log-format). Level Off keeps the logger disabled.
  obs::LogLevel LogLevel = obs::LogLevel::Off;
  obs::LogFormat LogFmt = obs::LogFormat::Jsonl;
  std::string LogFilePath;
  bool LogFlagsUsed = false;
  /// client: method name followed by its positional arguments.
  std::vector<std::string> ClientArgs;
  /// --trace-out: write a Chrome trace of this invocation to FILE.
  std::string TraceOutPath;
  /// campaign --profile: write the engine scaling profile to FILE.
  std::string ProfilePath;
  /// stats options.
  uint64_t WatchSeconds = 0;
  bool StatsMetrics = false;
  bool StatsFlagsUsed = false;
};

/// Parses "host:port" (the --remote spelling). False on bad input.
bool parseHostPort(const std::string &S, std::string &Host, uint16_t &Port) {
  size_t Colon = S.rfind(':');
  if (Colon == std::string::npos || Colon == 0 || Colon + 1 >= S.size())
    return false;
  char *End = nullptr;
  unsigned long P = std::strtoul(S.c_str() + Colon + 1, &End, 10);
  if (End != S.c_str() + S.size() || P == 0 || P > 65535)
    return false;
  Host = S.substr(0, Colon);
  Port = static_cast<uint16_t>(P);
  return true;
}

/// Parses a full-string unsigned decimal; nullopt on any trailing garbage.
std::optional<uint64_t> parseUnsigned(const std::string &S) {
  if (S.empty())
    return std::nullopt;
  char *End = nullptr;
  uint64_t V = std::strtoull(S.c_str(), &End, 10);
  if (End != S.c_str() + S.size())
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

int parseArgs(const std::vector<std::string> &Args, DriverOptions &Opts,
              std::ostream &Out, std::ostream &Err) {
  if (Args.empty()) {
    Err << UsageText;
    return ExitUsage;
  }
  size_t I = 0;
  std::string Sub = Args[I++];
  if (Sub == "-h" || Sub == "--help") {
    Out << UsageText;
    return -1; // Sentinel: handled, exit 0.
  }
  if (Sub == "version" || Sub == "--version") {
    Out << "bec " << BEC_API_VERSION_STRING << " (" << buildType()
        << ", protocol " << serve::ProtocolVersion << ")\n";
    return -1;
  }
  if (Sub == "analyze")
    Opts.Cmd = Command::Analyze;
  else if (Sub == "campaign")
    Opts.Cmd = Command::Campaign;
  else if (Sub == "schedule")
    Opts.Cmd = Command::Schedule;
  else if (Sub == "harden")
    Opts.Cmd = Command::Harden;
  else if (Sub == "report")
    Opts.Cmd = Command::Report;
  else if (Sub == "fuzz")
    Opts.Cmd = Command::Fuzz;
  else if (Sub == "serve")
    Opts.Cmd = Command::Serve;
  else if (Sub == "gateway")
    Opts.Cmd = Command::Gateway;
  else if (Sub == "client")
    Opts.Cmd = Command::Client;
  else if (Sub == "stats")
    Opts.Cmd = Command::Stats;
  else {
    Err << "bec: unknown subcommand '" << Sub << "'\n" << UsageText;
    return ExitUsage;
  }

  // Both `--flag value` and `--flag=value` are accepted: InlineValue
  // holds the part after '=' until the flag's branch consumes it.
  std::optional<std::string> InlineValue;
  auto Value = [&](const std::string &Flag) -> std::optional<std::string> {
    if (InlineValue) {
      std::string V = std::move(*InlineValue);
      InlineValue.reset();
      return V;
    }
    if (I >= Args.size()) {
      Err << "bec: " << Flag << " requires a value\n";
      return std::nullopt;
    }
    return Args[I++];
  };

  while (I < Args.size()) {
    std::string Arg = Args[I++];
    InlineValue.reset();
    if (Arg.size() > 2 && Arg[0] == '-' && Arg[1] == '-') {
      size_t Eq = Arg.find('=');
      if (Eq != std::string::npos) {
        InlineValue = Arg.substr(Eq + 1);
        Arg.resize(Eq);
      }
    }
    if (Arg == "-h" || Arg == "--help") {
      Out << UsageText;
      return -1;
    } else if (Arg == "--workload") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.WorkloadNames.push_back(*V);
    } else if (Arg == "--asm") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.AsmFiles.push_back(*V);
    } else if (Arg == "--all") {
      Opts.AllWorkloads = true;
    } else if (Arg == "--list-workloads") {
      for (const Workload &W : allWorkloads())
        Out << W.Name << "\n";
      return -1;
    } else if (Arg == "--jobs") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N) {
        Err << "bec: --jobs wants a number, got '" << *V << "'\n";
        return ExitUsage;
      }
      // Kept unclamped: CPU pools clamp to the core count at use sites,
      // while `serve` sizes an I/O-bound connection pool from it.
      Opts.Jobs = static_cast<unsigned>(*N);
      Opts.JobsExplicit = true;
    } else if (Arg == "--max-cycles") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N) {
        Err << "bec: --max-cycles wants a number, got '" << *V << "'\n";
        return ExitUsage;
      }
      Opts.MaxCycles = *N;
    } else if (Arg == "--plan") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::string K = toLowerAscii(*V);
      if (K == "exhaustive")
        Opts.Plan = PlanKind::Exhaustive;
      else if (K == "value")
        Opts.Plan = PlanKind::ValueLevel;
      else if (K == "bit")
        Opts.Plan = PlanKind::BitLevel;
      else {
        Err << "bec: unknown --plan '" << *V
            << "' (want exhaustive | value | bit)\n";
        return ExitUsage;
      }
    } else if (Arg == "--sample") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N) {
        Err << "bec: --sample wants a number, got '" << *V << "'\n";
        return ExitUsage;
      }
      Opts.SampleSize = *N;
    } else if (Arg == "--seed") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N) {
        Err << "bec: --seed wants a number, got '" << *V << "'\n";
        return ExitUsage;
      }
      Opts.SampleSeed = *N;
      Opts.SeedExplicit = true;
    } else if (Arg == "--threads") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N || *N > 1u << 16) {
        Err << "bec: --threads wants a small number, got '" << *V << "'\n";
        return ExitUsage;
      }
      Opts.CampaignThreads = static_cast<unsigned>(*N);
      Opts.CampaignThreadsExplicit = true;
    } else if (Arg == "--shard-size") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N || *N == 0) {
        Err << "bec: --shard-size wants a positive number, got '" << *V
            << "'\n";
        return ExitUsage;
      }
      Opts.ShardSize = *N;
    } else if (Arg == "--prefix-checkpoint") {
      // Value is optional: bare = on with the auto-tuned period.
      Opts.PrefixCheckpoint = true;
      Opts.CheckpointEveryK = 0;
      Opts.PrefixCheckpointExplicit = true;
      if (InlineValue) {
        auto V = Value(Arg);
        std::string K = toLowerAscii(*V);
        if (K == "off") {
          Opts.PrefixCheckpoint = false;
        } else {
          std::optional<uint64_t> N = parseUnsigned(*V);
          if (!N || *N == 0) {
            Err << "bec: --prefix-checkpoint wants 'off' or a positive "
                   "cycle period, got '" << *V << "'\n";
            return ExitUsage;
          }
          Opts.CheckpointEveryK = *N;
        }
      }
    } else if (Arg == "--checkpoint") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.CheckpointPath = *V;
    } else if (Arg == "--resume") {
      Opts.Resume = true;
    } else if (Arg == "--progress") {
      Opts.Progress = true;
    } else if (Arg == "--policy") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::string K = toLowerAscii(*V);
      if (K == "best")
        Opts.EmitPolicy = SchedulePolicy::BestReliability;
      else if (K == "worst")
        Opts.EmitPolicy = SchedulePolicy::WorstReliability;
      else if (K == "source")
        Opts.EmitPolicy = SchedulePolicy::SourceOrder;
      else {
        Err << "bec: unknown --policy '" << *V
            << "' (want best | worst | source)\n";
        return ExitUsage;
      }
    } else if (Arg == "--emit") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.EmitPath = *V;
    } else if (Arg == "--budget") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      // The subcommand is parsed before any flag, so --budget can mean
      // two things: harden's percentage and fuzz's run count.
      if (Opts.Cmd == Command::Fuzz) {
        std::optional<uint64_t> N = parseUnsigned(*V);
        if (!N) {
          Err << "bec: fuzz --budget wants a number of exhaustive runs, "
                 "got '" << *V << "'\n";
          return ExitUsage;
        }
        Opts.FuzzBudget = *N;
        Opts.FuzzFlagsUsed = true;
      } else {
        std::optional<double> B = parseBudget(*V);
        if (!B) {
          Err << "bec: --budget wants a non-negative number, got '" << *V
              << "'\n";
          return ExitUsage;
        }
        Opts.Budgets = {*B};
      }
    } else if (Arg == "--count") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N || *N == 0) {
        Err << "bec: --count wants a positive number, got '" << *V << "'\n";
        return ExitUsage;
      }
      Opts.FuzzCount = *N;
      Opts.FuzzFlagsUsed = true;
    } else if (Arg == "--bank") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.BankDir = *V;
      Opts.FuzzFlagsUsed = true;
    } else if (Arg == "--emit-corpus") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.EmitCorpusDir = *V;
      Opts.FuzzFlagsUsed = true;
    } else if (Arg == "--sweep") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.Budgets.clear();
      std::string Item;
      std::stringstream Stream(*V);
      while (std::getline(Stream, Item, ',')) {
        std::optional<double> B = parseBudget(Item);
        if (!B) {
          Err << "bec: --sweep wants comma-separated budgets, got '" << *V
              << "'\n";
          return ExitUsage;
        }
        Opts.Budgets.push_back(*B);
      }
      if (Opts.Budgets.empty()) {
        Err << "bec: --sweep needs at least one budget\n";
        return ExitUsage;
      }
    } else if (Arg == "--format") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::string K = toLowerAscii(*V);
      if (K == "text")
        Opts.Format = OutputFormat::Text;
      else if (K == "json")
        Opts.Format = OutputFormat::Json;
      else {
        Err << "bec: unknown --format '" << *V << "' (want text | json)\n";
        return ExitUsage;
      }
    } else if (Arg == "--remote") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      if (!parseHostPort(*V, Opts.RemoteHost, Opts.RemotePort)) {
        Err << "bec: --remote wants host:port, got '" << *V << "'\n";
        return ExitUsage;
      }
      Opts.Remote = true;
    } else if (Arg == "--host") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.ServeHost = *V;
      Opts.ServeFlagsUsed = true;
    } else if (Arg == "--port") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N || *N > 65535) {
        Err << "bec: --port wants a number in 0..65535, got '" << *V << "'\n";
        return ExitUsage;
      }
      Opts.ServePort = static_cast<uint16_t>(*N);
      Opts.ServeFlagsUsed = true;
    } else if (Arg == "--port-file") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.PortFile = *V;
      Opts.ServeFlagsUsed = true;
    } else if (Arg == "--queue-depth") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N || *N > 1u << 20) {
        Err << "bec: --queue-depth wants a number in 0..1048576, got '" << *V
            << "'\n";
        return ExitUsage;
      }
      Opts.QueueDepth = static_cast<size_t>(*N);
      Opts.QueueDepthExplicit = true;
    } else if (Arg == "--backends") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::string Item;
      std::stringstream Stream(*V);
      while (std::getline(Stream, Item, ',')) {
        std::string H;
        uint16_t P = 0;
        if (!parseHostPort(Item, H, P)) {
          Err << "bec: --backends wants comma-separated host:port entries, "
                 "got '" << Item << "'\n";
          return ExitUsage;
        }
        Opts.GatewayBackends.push_back(Item);
      }
      if (Opts.GatewayBackends.empty()) {
        Err << "bec: --backends needs at least one host:port\n";
        return ExitUsage;
      }
      Opts.GatewayFlagsUsed = true;
    } else if (Arg == "--health-interval") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N || *N == 0 || *N > 3600) {
        Err << "bec: --health-interval wants seconds in 1..3600, got '" << *V
            << "'\n";
        return ExitUsage;
      }
      Opts.HealthIntervalMs = static_cast<unsigned>(*N * 1000);
      Opts.GatewayFlagsUsed = true;
    } else if (Arg == "--trace-out") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.TraceOutPath = *V;
    } else if (Arg == "--profile") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.ProfilePath = *V;
    } else if (Arg == "--log-level") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<obs::LogLevel> L = obs::parseLogLevel(*V);
      if (!L) {
        Err << "bec: --log-level wants debug | info | warn | error | off, "
               "got '" << *V << "'\n";
        return ExitUsage;
      }
      Opts.LogLevel = *L;
      Opts.LogFlagsUsed = true;
    } else if (Arg == "--log-file") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      Opts.LogFilePath = *V;
      Opts.LogFlagsUsed = true;
    } else if (Arg == "--log-format") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<obs::LogFormat> F = obs::parseLogFormat(*V);
      if (!F) {
        Err << "bec: --log-format wants jsonl or logfmt, got '" << *V
            << "'\n";
        return ExitUsage;
      }
      Opts.LogFmt = *F;
      Opts.LogFlagsUsed = true;
    } else if (Arg == "--watch") {
      auto V = Value(Arg);
      if (!V)
        return ExitUsage;
      std::optional<uint64_t> N = parseUnsigned(*V);
      if (!N || *N == 0 || *N > 86400) {
        Err << "bec: --watch wants seconds in 1..86400, got '" << *V
            << "'\n";
        return ExitUsage;
      }
      Opts.WatchSeconds = *N;
      Opts.StatsFlagsUsed = true;
    } else if (Arg == "--metrics") {
      Opts.StatsMetrics = true;
      Opts.StatsFlagsUsed = true;
    } else if (Opts.Cmd == Command::Client && !Arg.empty() && Arg[0] != '-') {
      // Client grammar: the method, then its positional target names.
      Opts.ClientArgs.push_back(Arg);
    } else {
      Err << "bec: unknown option '" << Arg << "'\n" << UsageText;
      return ExitUsage;
    }
    if (InlineValue) {
      // A flag that takes no value left the `=value` unconsumed.
      Err << "bec: " << Arg << " takes no value\n";
      return ExitUsage;
    }
  }
  if (!Opts.EmitPath.empty() && Opts.Cmd != Command::Schedule &&
      Opts.Cmd != Command::Harden) {
    Err << "bec: --emit is only valid with schedule or harden\n";
    return ExitUsage;
  }
  // Campaign-engine flags: --sample/--seed/--threads/--shard-size and
  // --progress shape campaign execution (and are forwarded by `client`
  // for campaign methods — silently ignoring them on other methods
  // would run a different campaign than the user asked for); `fuzz`
  // reuses the seed/threads/progress/checkpoint vocabulary with the
  // same determinism contract.
  bool ClientCampaign =
      Opts.Cmd == Command::Client && !Opts.ClientArgs.empty() &&
      (Opts.ClientArgs[0] == "campaign" ||
       Opts.ClientArgs[0] == "campaign/run");
  if ((Opts.SampleSize || Opts.ShardSize) &&
      Opts.Cmd != Command::Campaign && !ClientCampaign) {
    Err << "bec: --sample/--shard-size are only valid with campaign "
           "(or client campaign methods)\n";
    return ExitUsage;
  }
  if (Opts.PrefixCheckpointExplicit && Opts.Cmd != Command::Campaign) {
    Err << "bec: --prefix-checkpoint is only valid with campaign\n";
    return ExitUsage;
  }
  if ((Opts.SeedExplicit || Opts.CampaignThreadsExplicit || Opts.Progress) &&
      Opts.Cmd != Command::Campaign && Opts.Cmd != Command::Fuzz &&
      !ClientCampaign) {
    Err << "bec: --seed/--threads/--progress are only valid with campaign "
           "or fuzz (or client campaign methods)\n";
    return ExitUsage;
  }
  if ((!Opts.CheckpointPath.empty() || Opts.Resume) &&
      Opts.Cmd != Command::Campaign && Opts.Cmd != Command::Fuzz) {
    Err << "bec: --checkpoint/--resume are only valid with campaign or "
           "fuzz\n";
    return ExitUsage;
  }
  if (Opts.FuzzFlagsUsed && Opts.Cmd != Command::Fuzz) {
    Err << "bec: --count/--bank/--emit-corpus are only valid with fuzz\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Fuzz &&
      (Opts.AllWorkloads || !Opts.WorkloadNames.empty() ||
       !Opts.AsmFiles.empty())) {
    // The fuzzer generates its own corpus from the seed; target flags
    // would silently select nothing.
    Err << "bec: fuzz generates its own programs and takes no "
           "--workload/--all/--asm targets\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Fuzz && Opts.Remote) {
    Err << "bec: fuzz runs locally; drop --remote\n";
    return ExitUsage;
  }
  if (Opts.Resume && Opts.CheckpointPath.empty()) {
    Err << "bec: --resume requires --checkpoint FILE\n";
    return ExitUsage;
  }
  if (!Opts.CheckpointPath.empty() && Opts.Remote) {
    // The checkpoint would describe a campaign executing on the server;
    // resuming it locally later would silently re-run everything.
    Err << "bec: --checkpoint/--resume run locally; drop --remote\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Harden && !Opts.EmitPath.empty() &&
      Opts.Budgets.size() != 1) {
    Err << "bec: harden --emit requires a single --budget\n";
    return ExitUsage;
  }
  if ((Opts.Cmd == Command::Serve || Opts.Cmd == Command::Gateway) &&
      Opts.Remote) {
    Err << "bec: --remote does not combine with serve or gateway\n";
    return ExitUsage;
  }
  if (Opts.Cmd != Command::Serve && Opts.Cmd != Command::Gateway &&
      Opts.ServeFlagsUsed) {
    // Silently ignoring these would let `bec client shutdown --port N`
    // address a different server than the user meant; --remote host:port
    // is the client-side spelling.
    Err << "bec: --host/--port/--port-file are only valid with serve or "
           "gateway (clients use --remote host:port)\n";
    return ExitUsage;
  }
  if (Opts.Cmd != Command::Serve && Opts.QueueDepthExplicit) {
    Err << "bec: --queue-depth is only valid with serve\n";
    return ExitUsage;
  }
  if (Opts.Cmd != Command::Gateway && Opts.GatewayFlagsUsed) {
    Err << "bec: --backends/--health-interval are only valid with gateway\n";
    return ExitUsage;
  }
  if (Opts.LogFlagsUsed && Opts.Cmd != Command::Serve &&
      Opts.Cmd != Command::Gateway) {
    Err << "bec: --log-level/--log-file/--log-format are only valid with "
           "serve or gateway\n";
    return ExitUsage;
  }
  if (!Opts.ProfilePath.empty() && Opts.Cmd != Command::Campaign) {
    Err << "bec: --profile is only valid with campaign\n";
    return ExitUsage;
  }
  if (!Opts.ProfilePath.empty() && Opts.Remote) {
    // The profile describes this process's engine workers; a remote
    // campaign runs them in the server.
    Err << "bec: --profile profiles the local engine; drop --remote\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Gateway && Opts.GatewayBackends.empty()) {
    Err << "bec: gateway requires --backends H:P[,H:P...]\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Gateway &&
      (Opts.AllWorkloads || !Opts.WorkloadNames.empty() ||
       !Opts.AsmFiles.empty())) {
    // The gateway forwards; its backends own the targets.
    Err << "bec: gateway takes no --workload/--all/--asm targets\n";
    return ExitUsage;
  }
  if (Opts.StatsFlagsUsed && Opts.Cmd != Command::Stats) {
    Err << "bec: --watch/--metrics are only valid with stats\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Stats &&
      (Opts.AllWorkloads || !Opts.WorkloadNames.empty() ||
       !Opts.AsmFiles.empty())) {
    // Stats describes a process (this one or a server), not targets.
    Err << "bec: stats takes no --workload/--all/--asm targets\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Client && Opts.ClientArgs.empty()) {
    Err << "bec: client needs a method, e.g. `bec client analyze bitcount`\n";
    return ExitUsage;
  }
  if (Opts.Cmd == Command::Client &&
      (Opts.AllWorkloads || !Opts.WorkloadNames.empty() ||
       !Opts.AsmFiles.empty())) {
    // These select targets for local sessions; silently ignoring them
    // would run the wrong scope on the server.
    Err << "bec: client takes positional target names, not "
           "--workload/--all/--asm\n";
    return ExitUsage;
  }
  return ExitSuccess;
}

//===----------------------------------------------------------------------===//
// Target loading
//===----------------------------------------------------------------------===//

int collectTargets(const DriverOptions &Opts, AnalysisSession &S,
                   std::ostream &Err) {
  // --all plus an explicit --workload (or a repeated name in any casing)
  // would otherwise run and report the same target twice; skip names the
  // session already has.
  bool Selected = Opts.AllWorkloads || !Opts.WorkloadNames.empty() ||
                  !Opts.AsmFiles.empty();
  if (Opts.AllWorkloads || !Selected)
    S.addAllWorkloads();

  for (const std::string &Name : Opts.WorkloadNames) {
    const Workload *W = findWorkloadAnyCase(Name);
    if (!W) {
      Err << "bec: unknown workload '" << Name
          << "'; --list-workloads prints the bundled names\n";
      return ExitBadInput;
    }
    if (!S.findTarget(W->Name))
      S.addProgram(W->Name, loadWorkload(*W));
  }

  for (const std::string &Path : Opts.AsmFiles) {
    if (S.findTarget(Path))
      continue;
    std::string Error;
    if (!S.addAsmFile(Path, Error)) {
      Err << "bec: " << Error << "\n";
      return ExitBadInput;
    }
  }
  return ExitSuccess;
}

//===----------------------------------------------------------------------===//
// Shared epilogue
//===----------------------------------------------------------------------===//

template <class R> using ResultVec = std::vector<std::shared_ptr<const R>>;

std::vector<std::string> targetNames(const AnalysisSession &S) {
  std::vector<std::string> Names;
  for (size_t I = 0; I < S.numTargets(); ++I)
    Names.push_back(S.name(I));
  return Names;
}

/// Reports per-target errors; ExitBadInput if any target failed.
template <class R>
int reportErrors(const AnalysisSession &S, const ResultVec<R> &Results,
                 std::ostream &Err) {
  int Status = ExitSuccess;
  for (size_t I = 0; I < Results.size(); ++I)
    if (!Results[I]->Error.empty()) {
      Err << "bec: " << S.name(I) << ": " << Results[I]->Error << "\n";
      Status = ExitBadInput;
    }
  return Status;
}

/// One --progress line, shared verbatim by the local engine callback and
/// the remote campaign/run progress-frame printer. The base counts are
/// followed by live engine telemetry (throughput from the monotonic
/// clock, ETA, and the steal/rebuild counts that explain flat thread
/// scaling); the telemetry block is omitted when the frame carries none
/// (an older remote server).
std::string progressLine(const std::string &Target, uint64_t ShardsDone,
                         uint64_t Shards, uint64_t RunsDone, uint64_t Runs,
                         uint64_t ExecutedRuns, double ElapsedSeconds,
                         uint64_t Steals, uint64_t Rebuilds) {
  std::string Line = "bec: campaign: " + Target + ": " +
                     std::to_string(ShardsDone) + "/" +
                     std::to_string(Shards) + " shards, " +
                     std::to_string(RunsDone) + "/" + std::to_string(Runs) +
                     " runs";
  if (ElapsedSeconds > 0 && ExecutedRuns) {
    double Rate = double(ExecutedRuns) / ElapsedSeconds;
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), " | %.0f runs/s, %.1fs elapsed", Rate,
                  ElapsedSeconds);
    Line += Buf;
    if (Runs > RunsDone && Rate > 0) {
      std::snprintf(Buf, sizeof(Buf), ", eta %.1fs",
                    double(Runs - RunsDone) / Rate);
      Line += Buf;
    }
    Line += ", " + std::to_string(Steals) + " steals, " +
            std::to_string(Rebuilds) + " rebuilds";
  }
  return Line + "\n";
}

int emitAssembly(const std::string &Asm, const DriverOptions &Opts,
                 std::ostream &Err) {
  std::ofstream OutFile(Opts.EmitPath);
  if (!OutFile) {
    Err << "bec: cannot write '" << Opts.EmitPath << "'\n";
    return ExitBadInput;
  }
  OutFile << Asm;
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
  FO.Seed = Opts.SampleSeed;
  FO.Count = Opts.FuzzCount;
  FO.Budget = Opts.FuzzBudget;
  FO.Threads = ThreadPool::clampJobs(Opts.CampaignThreads);
  FO.CheckpointPath = Opts.CheckpointPath;
  FO.Resume = Opts.Resume;
  FO.BankDir = Opts.BankDir;
  if (Opts.MaxCycles)
    FO.Oracle.MaxCycles = Opts.MaxCycles;

  if (!Opts.EmitCorpusDir.empty()) {
    std::string Error = fuzz::emitCorpus(FO, Opts.EmitCorpusDir);
    if (!Error.empty()) {
      Err << "bec: fuzz: " << Error << "\n";
      return ExitBadInput;
    }
    Out << "bec: fuzz: corpus written to '" << Opts.EmitCorpusDir << "'\n";
    return ExitSuccess;
  }

  if (Opts.Progress)
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
  Out << (Opts.Format == OutputFormat::Json ? renderFuzzJson(R, FO.Seed)
                                            : renderFuzzText(R, FO.Seed));
  if (Opts.Resume)
    Err << "bec: fuzz: resumed " << R.Resumed << " of " << R.Programs
        << " programs from '" << Opts.CheckpointPath << "'\n";
  return R.Mismatches.empty() ? ExitSuccess : ExitUnsound;
}

//===----------------------------------------------------------------------===//
// becd: serve, client, --remote
//===----------------------------------------------------------------------===//

const char *commandMethod(Command C) {
  switch (C) {
  case Command::Analyze:
    return "analyze";
  case Command::Campaign:
    return "campaign";
  case Command::Schedule:
    return "schedule";
  case Command::Harden:
    return "harden";
  case Command::Report:
    return "report";
  default:
    return "";
  }
}

std::optional<Command> subcommandForMethod(const std::string &M) {
  if (M == "analyze")
    return Command::Analyze;
  if (M == "campaign" || M == "campaign/run")
    return Command::Campaign;
  if (M == "schedule")
    return Command::Schedule;
  if (M == "harden")
    return Command::Harden;
  if (M == "report")
    return Command::Report;
  return std::nullopt;
}

/// Serializes the params of one subcommand method from the parsed command
/// line, for \p Targets (empty = the server's default, all workloads).
std::string subcommandParams(Command Which, const DriverOptions &Opts,
                             const std::vector<std::string> &Targets,
                             bool WithEmit) {
  JsonWriter W;
  W.beginObject();
  if (!Targets.empty()) {
    W.key("targets").beginArray();
    for (const std::string &T : Targets)
      W.value(T);
    W.endArray();
  }
  W.key("format").value(Opts.Format == OutputFormat::Json ? "json" : "text");
  if (Opts.Jobs != 1)
    W.key("jobs").value(uint64_t(std::min(Opts.Jobs, 1u << 16)));
  switch (Which) {
  case Command::Campaign:
    W.key("plan").value(Opts.Plan == PlanKind::Exhaustive    ? "exhaustive"
                        : Opts.Plan == PlanKind::ValueLevel  ? "value"
                                                             : "bit");
    W.key("max_cycles").value(Opts.MaxCycles);
    if (Opts.SampleSize) {
      W.key("sample").value(Opts.SampleSize);
      W.key("seed").value(Opts.SampleSeed);
    }
    if (Opts.CampaignThreadsExplicit)
      W.key("threads").value(uint64_t(Opts.CampaignThreads));
    if (Opts.ShardSize)
      W.key("shard_size").value(Opts.ShardSize);
    if (Opts.PrefixCheckpointExplicit) {
      W.key("prefix_checkpoint").value(Opts.PrefixCheckpoint);
      if (Opts.CheckpointEveryK)
        W.key("checkpoint_every_k").value(Opts.CheckpointEveryK);
    }
    if (Opts.Progress)
      W.key("progress").value(true);
    break;
  case Command::Schedule:
    if (WithEmit)
      W.key("emit").value(
          Opts.EmitPolicy == SchedulePolicy::SourceOrder        ? "source"
          : Opts.EmitPolicy == SchedulePolicy::BestReliability  ? "best"
                                                                : "worst");
    break;
  case Command::Harden:
    W.key("budgets").beginArray();
    for (double B : Opts.Budgets)
      W.value(B);
    W.endArray();
    if (WithEmit)
      W.key("emit").value(true);
    break;
  case Command::Report:
    W.key("max_cycles").value(Opts.MaxCycles);
    break;
  default:
    break;
  }
  W.endObject();
  return W.take();
}

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

/// The canonical target list the local path would have produced: deduped
/// workload canonical names, then external asm file paths.
int remoteTargetList(const DriverOptions &Opts,
                     std::vector<std::string> &Targets, std::ostream &Err) {
  auto Add = [&](const std::string &Name) {
    for (const std::string &T : Targets)
      if (T == Name)
        return;
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
  for (const std::string &Path : Opts.AsmFiles)
    Add(Path);
  return ExitSuccess;
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

/// Pools \p Path on the server under its path name.
int internAsmFile(serve::Client &C, const std::string &Path,
                  std::ostream &Err) {
  std::optional<std::string> Params = internParamsForFile(Path, Err);
  if (!Params)
    return ExitBadInput;
  serve::Reply R = C.call("intern", *Params);
  if (!R.Ok) {
    reportReplyError(R, Path, Err);
    return ExitBadInput;
  }
  return ExitSuccess;
}

/// Executes one already-parsed subcommand method reply: print output and
/// diagnostics, honor --emit, adopt the server's exit code.
int consumeSubcommandReply(const serve::Reply &R, const DriverOptions &Opts,
                           bool WithEmit, std::ostream &Out,
                           std::ostream &Err) {
  const std::string *Output = R.Result.memberString("output");
  std::optional<uint64_t> Exit = R.Result.memberU64("exit");
  if (!Output || !Exit || *Exit > ExitUnsound) {
    Err << "bec: malformed result from server\n";
    return ExitBadInput;
  }
  Out << *Output;
  if (const std::string *Diag = R.Result.memberString("diag"))
    Err << *Diag;
  int Status = static_cast<int>(*Exit);
  if (Status == ExitSuccess && WithEmit) {
    const std::string *Emit = R.Result.memberString("emit");
    if (!Emit) {
      Err << "bec: server returned no emitted assembly\n";
      return ExitBadInput;
    }
    Status = emitAssembly(*Emit, Opts, Err);
  }
  return Status;
}

/// Prints one campaign/run progress frame exactly as the local engine's
/// --progress callback would have.
void printProgress(const JsonValue &P, std::ostream &Err) {
  const std::string *Target = P.memberString("target");
  double Elapsed = 0;
  if (const JsonValue *E = P.member("elapsed_s"))
    Elapsed = E->asDouble().value_or(0);
  Err << progressLine(Target ? *Target : std::string("?"),
                      P.memberU64("shards_done").value_or(0),
                      P.memberU64("shards").value_or(0),
                      P.memberU64("runs_done").value_or(0),
                      P.memberU64("runs").value_or(0),
                      P.memberU64("executed_runs").value_or(0), Elapsed,
                      P.memberU64("steals").value_or(0),
                      P.memberU64("snapshot_rebuilds").value_or(0));
}

//===----------------------------------------------------------------------===//
// Distributed tracing (--trace-out with --remote / client)
//===----------------------------------------------------------------------===//

/// One span fetched from a server's trace/dump ring, tagged with the
/// process label the dump gave it ("becd", "gateway", or a backend's
/// host:port when the gateway merged its backends' rings).
struct RemoteSpan {
  std::string Process;
  std::string Name;
  std::string TraceId;
  std::string SpanId;
  std::string ParentSpan;
  std::string ArgsJson; ///< Pre-rendered {"k":v,...}; empty = none.
  uint64_t StartUs = 0; ///< Wall clock, epoch microseconds.
  uint64_t DurUs = 0;
  uint64_t Tid = 0;
};

/// Distributed-trace state of one invocation. Armed (non-empty TraceId)
/// when --trace-out combines with a remote command: the remote runners
/// inject the context into every request and collect the servers' spans
/// afterwards; runDriver stitches them into the written trace file.
struct DistTrace {
  std::string TraceId;    ///< 32 hex chars; names the whole request tree.
  std::string RootSpanId; ///< The local root span, parent of every hop.
  uint64_t WallBaseUs = 0; ///< Wall clock at traceBegin (epoch us).
  std::vector<RemoteSpan> Spans;

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
                        std::vector<RemoteSpan> &Out) {
  JsonWriter W;
  W.beginObject();
  W.key("trace_id").value(TraceId);
  W.endObject();
  serve::Reply R = C.call("trace/dump", W.take());
  if (!R.Ok)
    return;
  const JsonValue *Spans = R.Result.member("spans");
  const std::vector<JsonValue> *Arr = Spans ? Spans->asArray() : nullptr;
  if (!Arr)
    return;
  for (const JsonValue &V : *Arr) {
    auto Str = [&](const char *Key) {
      const std::string *M = V.memberString(Key);
      return M ? *M : std::string();
    };
    RemoteSpan S;
    S.Name = Str("name");
    S.TraceId = Str("trace_id");
    S.SpanId = Str("span_id");
    S.ParentSpan = Str("parent_span");
    S.Process = Str("process");
    S.StartUs = V.memberU64("start_us").value_or(0);
    S.DurUs = V.memberU64("dur_us").value_or(0);
    S.Tid = V.memberU64("tid").value_or(0);
    if (const JsonValue *A = V.member("args"))
      S.ArgsJson = A->toJson();
    if (S.Name.empty() || S.SpanId.empty())
      continue;
    if (S.Process.empty())
      S.Process = "server";
    Out.push_back(std::move(S));
  }
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

  for (const RemoteSpan &S : DT.Spans) {
    uint64_t Pid = PidOf(S.Process);
    uint64_t Ts = S.StartUs >= DT.WallBaseUs ? S.StartUs - DT.WallBaseUs : 0;

    // The span's identity rides on the B event's args, merged after any
    // args the server recorded (same pre-rendered-splice idiom as the
    // local tracer).
    JsonWriter AW;
    AW.beginObject();
    AW.key("trace_id").value(S.TraceId);
    AW.key("span_id").value(S.SpanId);
    if (!S.ParentSpan.empty())
      AW.key("parent_span").value(S.ParentSpan);
    AW.endObject();
    std::string Args = AW.take();
    if (S.ArgsJson.size() > 2) {
      std::string Merged = S.ArgsJson;
      Merged.back() = ',';
      Merged.append(Args, 1, std::string::npos);
      Args = std::move(Merged);
    }

    JsonWriter BW;
    BW.beginObject();
    BW.key("name").value(S.Name);
    BW.key("cat").value("bec");
    BW.key("ph").value("B");
    BW.key("ts").value(Ts);
    BW.key("pid").value(Pid);
    BW.key("tid").value(S.Tid);
    BW.endObject();
    std::string BObj = BW.take();
    BObj.pop_back();
    BObj += ",\"args\":";
    BObj += Args;
    BObj += '}';
    Push(BObj);

    JsonWriter EW;
    EW.beginObject();
    EW.key("name").value(S.Name);
    EW.key("cat").value("bec");
    EW.key("ph").value("E");
    EW.key("ts").value(Ts + S.DurUs);
    EW.key("pid").value(Pid);
    EW.key("tid").value(S.Tid);
    EW.endObject();
    Push(EW.take());
  }
  Doc.insert(Close, Ins);
}

/// `bec <subcommand> --remote host:port`: transparent offload.
int runRemote(const DriverOptions &Opts, DistTrace *DT, std::ostream &Out,
              std::ostream &Err) {
  std::vector<std::string> Targets;
  if (int Status = remoteTargetList(Opts, Targets, Err))
    return Status;
  bool WithEmit = !Opts.EmitPath.empty();
  if (WithEmit && Targets.size() != 1) {
    Err << "bec: --emit requires exactly one selected target\n";
    return ExitUsage;
  }

  std::string ConnErr;
  std::optional<serve::Client> C =
      serve::Client::connect(Opts.RemoteHost, Opts.RemotePort, ConnErr);
  if (!C) {
    Err << "bec: " << ConnErr << "\n";
    return ExitBadInput;
  }
  // Under --trace-out every frame of this exchange (interns included)
  // carries the distributed trace context, parented at the root span.
  if (DT && DT->armed())
    C->setTrace({DT->TraceId, DT->RootSpanId});
  for (const std::string &Path : Opts.AsmFiles)
    if (int Status = internAsmFile(*C, Path, Err))
      return Status;

  std::string Params = subcommandParams(Opts.Cmd, Opts, Targets, WithEmit);
  serve::Reply R;
  if (Opts.Cmd == Command::Campaign) {
    // Campaigns offload through the streaming method so a long remote
    // run narrates itself; without --progress no frames are sent and
    // the exchange is byte-for-byte the unary `campaign` method's.
    R = C->callStreaming("campaign/run", Params,
                         [&](const JsonValue &P) { printProgress(P, Err); });
  } else {
    R = C->call(commandMethod(Opts.Cmd), Params);
  }
  // Collect the servers' spans whether or not the command succeeded —
  // a failed hop's spans are exactly what the trace is for. The dump
  // request itself must not land in the ring as part of this trace.
  if (DT && DT->armed()) {
    C->setTrace({});
    collectRemoteSpans(*C, DT->TraceId, DT->Spans);
  }
  if (!R.Ok) {
    Err << "bec: " << R.errorText() << "\n";
    return ExitBadInput;
  }
  return consumeSubcommandReply(R, Opts, WithEmit, Out, Err);
}

/// Publishes the bound port for scripts using --port 0. Write-then-rename
/// so pollers never observe a partial file.
int writePortFile(const std::string &Path, uint16_t Port, std::ostream &Err) {
  if (Path.empty())
    return ExitSuccess;
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream PF(Tmp);
    if (!PF) {
      Err << "bec: cannot write '" << Path << "'\n";
      return ExitBadInput;
    }
    PF << Port << "\n";
  }
  std::rename(Tmp.c_str(), Path.c_str());
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
  EO.Workers = Opts.JobsExplicit ? Opts.Jobs : 0;
  EO.QueueDepth = Opts.QueueDepth;
  net::EventServer Srv(
      [&Svc](std::string_view Line, const net::FrameSink &Sink) {
        return Svc.handleFrameStreaming(Line, Sink);
      },
      Svc.handshakeFrame(), EO);
  Srv.setDrainCheck([&Svc] { return Svc.isShuttingDown(); });
  Srv.setAcceptCallback([&Svc] { Svc.noteConnection(); });
  std::string BindErr;
  if (!Srv.start(BindErr)) {
    Err << "bec: serve: " << BindErr << "\n";
    return ExitBadInput;
  }
  Out << "becd listening on " << EO.Host << ":" << Srv.port() << " (api "
      << BEC_API_VERSION_STRING << ", protocol " << serve::ProtocolVersion
      << ")\n";
  Out.flush();
  if (int Status = writePortFile(Opts.PortFile, Srv.port(), Err))
    return Status;
  Srv.run();
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
  GO.HealthIntervalMs = Opts.HealthIntervalMs;
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
  EO.Workers = Opts.JobsExplicit ? Opts.Jobs : 8;
  net::EventServer Srv(
      [&GW](std::string_view Line, const net::FrameSink &Sink) {
        return GW.handleFrame(Line, Sink);
      },
      GW.handshakeFrame(), EO);
  Srv.setDrainCheck([&GW] { return GW.isDraining(); });
  std::string BindErr;
  if (!Srv.start(BindErr)) {
    Err << "bec: gateway: " << BindErr << "\n";
    return ExitBadInput;
  }
  Out << "bec gateway listening on " << EO.Host << ":" << Srv.port()
      << " (api " << BEC_API_VERSION_STRING << ", protocol "
      << serve::ProtocolVersion << ") -> " << GW.backendCount()
      << " backends\n";
  Out.flush();
  if (int Status = writePortFile(Opts.PortFile, Srv.port(), Err))
    return Status;
  Srv.run();
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
  std::string ConnErr;
  std::optional<serve::Client> C =
      serve::Client::connect(Opts.RemoteHost, Opts.RemotePort, ConnErr);
  if (!C) {
    Err << "bec: " << ConnErr << "\n";
    return ExitBadInput;
  }
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

/// `bec client <method> ...`: one raw method call.
int runClient(const DriverOptions &Opts, DistTrace *DT, std::ostream &Out,
              std::ostream &Err) {
  const std::string &Method = Opts.ClientArgs[0];
  std::vector<std::string> Positional(Opts.ClientArgs.begin() + 1,
                                      Opts.ClientArgs.end());

  // Build params before connecting so usage errors stay local.
  std::string Params;
  std::optional<Command> Sub = subcommandForMethod(Method);
  std::string AsmPath;
  if (Sub) {
    Params = subcommandParams(*Sub, Opts, Positional, /*WithEmit=*/false);
  } else if (Method == "version" || Method == "stats" ||
             Method == "metrics" || Method == "shutdown" ||
             Method == "gateway/backends") {
    if (!Positional.empty()) {
      Err << "bec: client " << Method << " takes no arguments\n";
      return ExitUsage;
    }
  } else if (Method == "gateway/drain" || Method == "gateway/undrain") {
    if (Positional.size() != 1) {
      Err << "bec: client " << Method
          << " needs exactly one backend host:port\n";
      return ExitUsage;
    }
    JsonWriter W;
    W.beginObject();
    W.key("backend").value(Positional[0]);
    W.endObject();
    Params = W.take();
  } else if (Method == "trace/dump") {
    if (Positional.size() > 1) {
      Err << "bec: client trace/dump takes at most one trace id\n";
      return ExitUsage;
    }
    if (Positional.size() == 1) {
      JsonWriter W;
      W.beginObject();
      W.key("trace_id").value(Positional[0]);
      W.endObject();
      Params = W.take();
    }
  } else if (Method == "log/level") {
    if (Positional.size() > 1) {
      Err << "bec: client log/level takes at most one level "
             "(debug | info | warn | error | off)\n";
      return ExitUsage;
    }
    if (Positional.size() == 1) {
      JsonWriter W;
      W.beginObject();
      W.key("level").value(Positional[0]);
      W.endObject();
      Params = W.take();
    }
  } else if (Method == "counts") {
    if (Positional.size() != 1) {
      Err << "bec: client counts needs exactly one target\n";
      return ExitUsage;
    }
    JsonWriter W;
    W.beginObject();
    W.key("target").value(Positional[0]);
    W.endObject();
    Params = W.take();
  } else if (Method == "intern") {
    if (Positional.size() != 1) {
      Err << "bec: client intern needs exactly one assembly file\n";
      return ExitUsage;
    }
    AsmPath = Positional[0];
    std::optional<std::string> InternParams =
        internParamsForFile(AsmPath, Err);
    if (!InternParams)
      return ExitBadInput;
    Params = *InternParams;
  } else {
    Err << "bec: unknown client method '" << Method << "'\n";
    return ExitUsage;
  }

  std::string ConnErr;
  std::optional<serve::Client> C =
      serve::Client::connect(Opts.RemoteHost, Opts.RemotePort, ConnErr);
  if (!C) {
    Err << "bec: " << ConnErr << "\n";
    return ExitBadInput;
  }
  if (DT && DT->armed())
    C->setTrace({DT->TraceId, DT->RootSpanId});
  serve::Reply R =
      Method == "campaign/run"
          ? C->callStreaming(Method, Params,
                             [&](const JsonValue &P) { printProgress(P, Err); })
          : C->call(Method, Params);
  if (DT && DT->armed() && Method != "shutdown") {
    C->setTrace({});
    collectRemoteSpans(*C, DT->TraceId, DT->Spans);
  }
  if (!R.Ok) {
    reportReplyError(R, AsmPath, Err);
    return ExitBadInput;
  }
  if (Sub)
    return consumeSubcommandReply(R, Opts, /*WithEmit=*/false, Out, Err);
  Out << R.Result.toJson() << "\n";
  return ExitSuccess;
}

/// The subcommand's name, for the root trace span ("bec:analyze").
const char *commandName(Command C) {
  switch (C) {
  case Command::Analyze:
    return "analyze";
  case Command::Campaign:
    return "campaign";
  case Command::Schedule:
    return "schedule";
  case Command::Harden:
    return "harden";
  case Command::Report:
    return "report";
  case Command::Fuzz:
    return "fuzz";
  case Command::Serve:
    return "serve";
  case Command::Gateway:
    return "gateway";
  case Command::Client:
    return "client";
  case Command::Stats:
    return "stats";
  }
  return "bec";
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
  if (Opts.Remote)
    return runRemote(Opts, DT, Out, Err);

  AnalysisSession S;
  if (int Status = collectTargets(Opts, S, Err))
    return Status;
  if (!Opts.EmitPath.empty() && S.numTargets() != 1) {
    Err << "bec: --emit requires exactly one selected target\n";
    return ExitUsage;
  }
  if (!Opts.CheckpointPath.empty() && S.numTargets() != 1) {
    // One checkpoint file describes one campaign.
    Err << "bec: --checkpoint requires exactly one selected target\n";
    return ExitUsage;
  }
  if (!Opts.ProfilePath.empty() && S.numTargets() != 1) {
    // Likewise: one profile document describes one engine run.
    Err << "bec: --profile requires exactly one selected target\n";
    return ExitUsage;
  }

  std::vector<std::string> Names = targetNames(S);
  bool Json = Opts.Format == OutputFormat::Json;
  ThreadPool Pool(ThreadPool::clampJobs(Opts.Jobs));
  int Status = ExitSuccess;

  switch (Opts.Cmd) {
  case Command::Analyze: {
    auto Results = S.evaluateAll<AnalyzeQuery>({}, Pool);
    Out << (Json ? renderAnalyzeJson(Names, Results)
                 : renderAnalyzeText(Names, Results));
    Status = reportErrors(S, Results, Err);
    break;
  }
  case Command::Campaign: {
    CampaignCmdQuery::Options Base;
    Base.Plan = Opts.Plan;
    Base.MaxCycles = Opts.MaxCycles;
    Base.SampleSize = Opts.SampleSize;
    Base.SampleSeed = Opts.SampleSeed;
    Base.PrefixCheckpoint = Opts.PrefixCheckpoint;
    Base.CheckpointEveryK = Opts.CheckpointEveryK;
    Base.Exec.Threads = ThreadPool::clampJobs(Opts.CampaignThreads);
    Base.Exec.ShardSize = Opts.ShardSize;
    Base.Exec.CheckpointPath = Opts.CheckpointPath;
    Base.Exec.Resume = Opts.Resume;
    Base.Exec.CollectProfile = !Opts.ProfilePath.empty();
    // Per-target options (identical fingerprints, so the cache shape
    // matches evaluateAll): only the progress callback differs, needing
    // the target's name.
    std::vector<std::shared_ptr<const CampaignCmdResult>> Results(
        S.numTargets());
    std::mutex ProgressMutex;
    for (size_t I = 0; I < S.numTargets(); ++I)
      Pool.submit([&, I] {
        CampaignCmdQuery::Options O = Base;
        if (Opts.Progress) {
          std::string Target = S.name(I);
          O.Exec.OnProgress = throttledProgress(
              [&Err, &ProgressMutex, Target](const CampaignProgress &P) {
                std::lock_guard<std::mutex> Lock(ProgressMutex);
                Err << progressLine(Target, P.ShardsDone, P.TotalShards,
                                    P.RunsDone, P.TotalRuns, P.ExecutedRuns,
                                    P.ElapsedSeconds, P.Steals,
                                    P.SnapshotRebuilds);
              });
        }
        Results[I] =
            S.get<CampaignCmdQuery>(static_cast<AnalysisSession::TargetId>(I),
                                    O);
      });
    Pool.wait();
    Out << (Json ? renderCampaignJson(Names, Results, Opts.Plan)
                 : renderCampaignText(Names, Results, Opts.Plan));
    Status = reportErrors(S, Results, Err);
    if (Status == ExitSuccess && Opts.Resume)
      Err << "bec: campaign: resumed " << Results[0]->Campaign.ResumedShards
          << " of " << Results[0]->Campaign.Shards << " shards from '"
          << Opts.CheckpointPath << "'\n";
    if (Status == ExitSuccess && !Opts.ProfilePath.empty()) {
      std::ofstream PF(Opts.ProfilePath, std::ios::binary);
      if (PF)
        PF << renderCampaignProfileJson(Results[0]->Campaign.Profile);
      if (!PF) {
        Err << "bec: cannot write profile file '" << Opts.ProfilePath
            << "'\n";
        Status = ExitBadInput;
      }
    }
    break;
  }
  case Command::Schedule: {
    auto Results = S.evaluateAll<ScheduleCmdQuery>({}, Pool);
    Out << (Json ? renderScheduleJson(Names, Results)
                 : renderScheduleText(Names, Results));
    Status = reportErrors(S, Results, Err);
    if (Status == ExitSuccess && !Opts.EmitPath.empty()) {
      size_t Policy = Opts.EmitPolicy == SchedulePolicy::SourceOrder ? 0
                      : Opts.EmitPolicy == SchedulePolicy::BestReliability
                          ? 1
                          : 2;
      Status = emitAssembly(Results[0]->PolicyAsm[Policy], Opts, Err);
    }
    break;
  }
  case Command::Harden: {
    HardenCmdQuery::Options HO;
    HO.Budgets = Opts.Budgets;
    auto Results = S.evaluateAll<HardenCmdQuery>(HO, Pool);
    Out << (Json ? renderHardenJson(Names, Results, Opts.Budgets)
                 : renderHardenText(Names, Results, Opts.Budgets));
    Status = reportErrors(S, Results, Err);
    if (Status == ExitSuccess)
      for (size_t I = 0; I < Results.size(); ++I)
        for (const HardenPoint &P : Results[I]->Points)
          if (!P.Check.ok()) {
            Err << "bec: " << S.name(I)
                << ": hardened program failed validation\n";
            Status = ExitUnsound;
          }
    if (Status == ExitSuccess && !Opts.EmitPath.empty())
      Status = emitAssembly(Results[0]->Points[0].Harden.HP.Prog.toString(),
                            Opts, Err);
    break;
  }
  case Command::Report: {
    auto Results = S.evaluateAll<ReportCmdQuery>({Opts.MaxCycles}, Pool);
    Out << (Json ? renderReportJson(Names, Results)
                 : renderReportText(Names, Results));
    Status = reportErrors(S, Results, Err);
    if (Status == ExitSuccess)
      for (const auto &R : Results)
        if (!R->Validation.sound())
          Status = ExitUnsound;
    break;
  }
  case Command::Fuzz:
  case Command::Serve:
  case Command::Gateway:
  case Command::Client:
  case Command::Stats:
    break; // Dispatched before target loading.
  }
  return Status;
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

int bec::tool::runDriver(const std::vector<std::string> &Args,
                         std::ostream &Out, std::ostream &Err) {
  DriverOptions Opts;
  int ParseStatus = parseArgs(Args, Opts, Out, Err);
  if (ParseStatus == -1)
    return ExitSuccess; // --help / --list-workloads.
  if (ParseStatus != ExitSuccess)
    return ParseStatus;

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
                       ? std::string("bec:") + commandName(Opts.Cmd)
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
    std::ofstream TraceFile(Opts.TraceOutPath, std::ios::binary);
    bool Wrote = static_cast<bool>(TraceFile);
    if (Wrote) {
      TraceFile << Doc;
      TraceFile.flush();
      Wrote = static_cast<bool>(TraceFile);
    }
    if (!Wrote) {
      Err << "bec: cannot write trace file '" << Opts.TraceOutPath << "'\n";
      if (Status == ExitSuccess)
        Status = ExitBadInput;
    }
  }
  return Status;
}
