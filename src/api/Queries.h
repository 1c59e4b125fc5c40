//===- api/Queries.h - The typed analysis registry's query catalog --------===//
///
/// \file
/// Every analysis the session can compute, as AnalysisSession query tags
/// (see AnalysisSession.h for the tag shape). Two layers:
///
///  * **Primitive queries** wrap one pipeline stage each — VerifyQuery,
///    TraceQuery, LivenessQuery, UseDefQuery, BitValuesQuery, BECQuery,
///    CountsQuery, VulnQuery, RankQuery, CampaignQuery, ValidationQuery.
///    They never fail; callers decide what a non-finishing trace means.
///    BECQuery composes from the cached sub-analyses (dependency-tracked),
///    so invalidating e.g. TraceQuery leaves Liveness/UseDef/BEC intact.
///
///  * **Subcommand queries** reproduce the five `bec` CLI pipelines
///    (AnalyzeQuery, CampaignCmdQuery, ScheduleCmdQuery, HardenCmdQuery,
///    ReportCmdQuery) as cached result objects carrying an Error field —
///    serve::runCommand evaluates and renders them for `bec` and becd
///    alike, and any library consumer gets the same pipelines (and
///    `--jobs`-style parallelism via Session::evaluateAll) for free.
///
/// The selective hardener's measure-and-accept loop also lives behind this
/// interface (hardenProgram(AnalysisSession&, ...)): every candidate
/// measurement interns the trial program and pulls Verify/Trace/BEC
/// through the cache, so the accepted candidate's full analysis is reused
/// as the next round's baseline instead of being recomputed cold — the
/// headline win of the session cache.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_API_QUERIES_H
#define BEC_API_QUERIES_H

#include "api/AnalysisSession.h"
#include "core/Metrics.h"
#include "fi/Campaign.h"
#include "fi/Engine.h"
#include "fi/Validation.h"
#include "harden/Harden.h"
#include "harden/VulnerabilityRank.h"
#include "sched/ListScheduler.h"

#include <string>
#include <vector>

namespace bec {

//===----------------------------------------------------------------------===//
// Primitive queries
//===----------------------------------------------------------------------===//

struct VerifyQuery {
  using Result = std::vector<std::string>;
  struct Options {};
  static constexpr const char *Name = "verify";
  static std::string fingerprint(const Options &) { return {}; }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &);
};

/// The golden run (full recording). Never fails: a trap/hang outcome is
/// part of the result.
struct TraceQuery {
  using Result = Trace;
  struct Options {};
  static constexpr const char *Name = "trace";
  static std::string fingerprint(const Options &) { return {}; }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &);
};

struct LivenessQuery {
  using Result = Liveness;
  struct Options {};
  static constexpr const char *Name = "liveness";
  static std::string fingerprint(const Options &) { return {}; }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &);
};

struct UseDefQuery {
  using Result = UseDef;
  struct Options {};
  static constexpr const char *Name = "usedef";
  static std::string fingerprint(const Options &) { return {}; }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &);
};

struct BitValuesQuery {
  using Result = BitValueAnalysis;
  struct Options {};
  static constexpr const char *Name = "bitvalues";
  static std::string fingerprint(const Options &) { return {}; }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &);
};

/// The full BEC coalescing, composed from the cached sub-analyses.
struct BECQuery {
  using Result = BECAnalysis;
  using Options = BECOptions;
  static constexpr const char *Name = "bec";
  static std::string fingerprint(const Options &O);
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &O);
};

/// Table III counts over the golden trace (default BEC options).
struct CountsQuery {
  using Result = FaultInjectionCounts;
  struct Options {};
  static constexpr const char *Name = "counts";
  static std::string fingerprint(const Options &) { return {}; }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &);
};

/// The live-fault-site vulnerability over the golden trace.
struct VulnQuery {
  using Result = uint64_t;
  struct Options {};
  static constexpr const char *Name = "vuln";
  static std::string fingerprint(const Options &) { return {}; }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &);
};

/// Per-site vulnerability attribution (the hardener's ranking).
struct RankQuery {
  using Result = VulnerabilityRank;
  struct Options {};
  static constexpr const char *Name = "rank";
  static std::string fingerprint(const Options &) { return {}; }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &);
};

/// Plans and executes one fault-injection campaign through the sharded
/// engine (fi/Engine.h), reusing the session's cached BEC analysis and
/// golden trace for pruning.
struct CampaignQuery {
  using Result = CampaignResult;
  struct Options {
    PlanKind Plan = PlanKind::BitLevel;
    uint64_t MaxCycles = 0;
    /// Stratified sampling of the enumerated plan (0 = execute it all);
    /// the result then carries per-effect Wilson confidence intervals.
    uint64_t SampleSize = 0;
    uint64_t SampleSeed = 1;
    /// Prefix-checkpointed execution (PlanOptions::PrefixCheckpoint;
    /// `--prefix-checkpoint[=K|=off]`). Fingerprinted only when it
    /// departs from the default (on, auto period), so existing cache
    /// keys are unchanged; it never changes a result byte either way —
    /// only the telemetry fields reports omit.
    bool PrefixCheckpoint = true;
    uint64_t CheckpointEveryK = 0;
    /// Execution-side knobs (threads, sharding, checkpoint/resume,
    /// progress). Threads and the progress callback are NOT
    /// fingerprinted — they never change the result value, so any
    /// thread count hits the same cache entry; checkpointing,
    /// interruption limits and shard geometry ARE, because they can
    /// surface in the result (Error, Interrupted, Shards). Corollary:
    /// a cache hit skips execution entirely, including its checkpoint
    /// writes and progress callbacks.
    CampaignExecOptions Exec;
  };
  static constexpr const char *Name = "campaign";
  static std::string fingerprint(const Options &O);
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &O);
};

/// Empirical soundness validation (Table II).
struct ValidationQuery {
  using Result = ValidationResult;
  struct Options {
    uint64_t MaxCycles = 0;
  };
  static constexpr const char *Name = "validation";
  static std::string fingerprint(const Options &O);
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &O);
};

//===----------------------------------------------------------------------===//
// The selective hardener on the session
//===----------------------------------------------------------------------===//

/// Session-backed hardening: identical results to the classic
/// hardenProgram(Program, ...), but every candidate measurement goes
/// through the session cache, so round baselines, the final re-analysis,
/// sweeps over several budgets and the closed-loop validation all reuse
/// work. If the golden run of \p P does not finish, the result is the
/// unmodified program with no sites (and validateHardening on it reports
/// failure) — never an abort.
HardenResult hardenProgram(AnalysisSession &S, const CachedProgramPtr &P,
                           const HardenOptions &Opts = {});

/// Session-backed closed-loop validation of \p R against \p Baseline.
HardenValidation validateHardening(AnalysisSession &S,
                                   const CachedProgramPtr &Baseline,
                                   const HardenResult &R);

/// One budget's Pareto point plus its closed-loop validation.
struct HardenPoint {
  HardenResult Harden;
  HardenValidation Check;
};

struct HardenQuery {
  using Result = HardenPoint;
  using Options = HardenOptions;
  static constexpr const char *Name = "harden";
  static std::string fingerprint(const Options &O);
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &O);
};

//===----------------------------------------------------------------------===//
// Subcommand queries (the five `bec` pipelines as result objects)
//===----------------------------------------------------------------------===//

struct AnalyzeResult {
  std::string Error; ///< Non-empty on failure; other fields then unset.
  uint32_t Instrs = 0;
  uint64_t Cycles = 0;
  FaultInjectionCounts Counts;
  uint64_t Vulnerability = 0;
};

struct AnalyzeQuery {
  using Result = AnalyzeResult;
  struct Options {};
  static constexpr const char *Name = "cmd.analyze";
  static std::string fingerprint(const Options &) { return {}; }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &);
};

struct CampaignCmdResult {
  std::string Error;
  uint32_t Instrs = 0;
  uint64_t Cycles = 0;
  CampaignResult Campaign;
};

struct CampaignCmdQuery {
  using Result = CampaignCmdResult;
  using Options = CampaignQuery::Options;
  static constexpr const char *Name = "cmd.campaign";
  static std::string fingerprint(const Options &O) {
    return CampaignQuery::fingerprint(O);
  }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &O);
};

struct ScheduleCmdResult {
  std::string Error;
  uint32_t Instrs = 0;
  uint64_t Cycles = 0;
  /// Vulnerability per policy: [source, best, worst].
  uint64_t PolicyVuln[3] = {0, 0, 0};
  /// Assembly of the scheduled program per policy (same order).
  std::string PolicyAsm[3];
};

struct ScheduleCmdQuery {
  using Result = ScheduleCmdResult;
  struct Options {};
  static constexpr const char *Name = "cmd.schedule";
  static std::string fingerprint(const Options &) { return {}; }
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &);
};

struct HardenCmdResult {
  std::string Error;
  uint32_t Instrs = 0;
  uint64_t Cycles = 0;
  /// One entry per requested budget, in request order.
  std::vector<HardenPoint> Points;
};

struct HardenCmdQuery {
  using Result = HardenCmdResult;
  struct Options {
    std::vector<double> Budgets = {10.0};
    /// Budget-independent knobs; BudgetPercent is overridden per entry.
    HardenOptions Base;
  };
  static constexpr const char *Name = "cmd.harden";
  static std::string fingerprint(const Options &O);
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &O);
};

struct ReportCmdResult {
  std::string Error;
  uint32_t Instrs = 0;
  uint64_t Cycles = 0;
  FaultInjectionCounts Counts;
  uint64_t Vulnerability = 0;
  CampaignResult Campaign;
  ValidationResult Validation;
};

struct ReportCmdQuery {
  using Result = ReportCmdResult;
  struct Options {
    uint64_t MaxCycles = 0;
  };
  static constexpr const char *Name = "cmd.report";
  static std::string fingerprint(const Options &O);
  static Result compute(AnalysisSession &S, const CachedProgramPtr &P,
                        const Options &O);
};

} // namespace bec

#endif // BEC_API_QUERIES_H
