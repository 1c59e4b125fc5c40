//===- fi/Campaign.h - Fault-injection campaign engine ---------------------===//
///
/// \file
/// Plans and executes fault-injection campaigns against the simulator,
/// reproducing the paper's methodology: each run re-executes the program
/// with a single-event upset at one (cycle, register, bit) fault site and
/// classifies the corrupted trace against the golden run. Three plans are
/// supported:
///
///   * Exhaustive  -- every bit of the register file at every cycle
///                    (the Table I baseline);
///   * ValueLevel  -- inject-on-read: width runs at every access of a
///                    live register (the "Live in values" baseline);
///   * BitLevel    -- the BEC-pruned plan: one run per non-masked
///                    equivalence class per dynamic segment ("Live in
///                    bits").
///
/// This header holds the shared vocabulary (PlannedRun, FaultEffect,
/// CampaignResult). The engine is layered on top:
///
///   * fi/CampaignPlan.h — the run list: one-shot fault-space
///     enumeration or an explicit list, stratified sampling with Wilson
///     confidence intervals, plan fingerprints;
///   * fi/Checkpoint.h   — the JSONL checkpoint layer, so campaigns (and
///     fuzz corpora) survive interruption;
///   * fi/Engine.h       — the sharded, work-stealing, resumable
///     executor (runCampaign over a CampaignPlan).
///
/// Runs are executed with per-cycle machine snapshots so each run costs
/// only the suffix of the program after its injection point.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_FI_CAMPAIGN_H
#define BEC_FI_CAMPAIGN_H

#include "core/BECAnalysis.h"
#include "sim/Interpreter.h"

#include <array>
#include <optional>
#include <string>
#include <vector>

namespace bec {

/// One planned fault-injection run.
struct PlannedRun {
  uint64_t AfterCycle; ///< Inject after this many executed instructions.
  Reg R;
  uint8_t Bit;
  /// Equivalence-class representative of the targeted fault site under
  /// the BEC analysis (0 = masked), for validation bookkeeping.
  uint32_t ClassRep;
  /// Dynamic segment id (index of the segment in trace order), or -1 for
  /// exhaustive runs between access points.
  int64_t Segment;
};

enum class PlanKind { Exhaustive, ValueLevel, BitLevel };

/// Outcome classification of one fault-injection run vs. the golden run.
enum class FaultEffect : uint8_t {
  Masked,  ///< Architectural trace identical to the golden run.
  Benign,  ///< Trace differs but observable output is identical.
  SDC,     ///< Silent data corruption: wrong output, normal termination.
  Trap,    ///< Memory trap.
  Hang,    ///< Cycle budget exceeded.
};
inline constexpr unsigned NumFaultEffects = 5;

const char *faultEffectName(FaultEffect E);

/// A closed rate interval (95% Wilson score; see wilsonInterval).
struct RateInterval {
  double Lo = 0;
  double Hi = 0;
};

/// Statistics of a sampled campaign: the per-effect point estimates and
/// confidence intervals the sample supports about its population.
struct SampleSummary {
  uint64_t SampleRuns = 0;     ///< Runs actually executed.
  uint64_t PopulationRuns = 0; ///< Size of the enumerated fault space.
  uint64_t Seed = 0;           ///< The sample's PRNG seed.
  /// Per-effect observed rate in the sample (point estimate of the
  /// population rate), indexed by FaultEffect.
  std::array<double, NumFaultEffects> Rate{};
  /// Per-effect 95% Wilson interval around Rate.
  std::array<RateInterval, NumFaultEffects> CI{};
};

/// One worker's wall-time phase breakdown from a profiled engine run
/// (CampaignExecOptions::CollectProfile). The four phase buckets
/// partition the worker's wall time by construction: Idle is the
/// residual after run, rebuild and steal, so they always sum to Wall.
struct WorkerPhaseProfile {
  unsigned Worker = 0;
  uint64_t WallUs = 0;    ///< Worker loop entry to exit.
  uint64_t RunUs = 0;     ///< Executing planned runs (fork/flip/classify).
  uint64_t RebuildUs = 0; ///< Snapshot rebuilds incl. prefix catch-up.
  uint64_t StealUs = 0;   ///< In the scheduler: lock wait + victim scan.
  uint64_t IdleUs = 0;    ///< Wall - Run - Rebuild - Steal (clamped).
  /// Portion of RebuildUs spent restoring a golden prefix checkpoint
  /// (the rest is the remaining catch-up replay to the shard's first
  /// injection cycle).
  uint64_t RestoreUs = 0;
  uint64_t Runs = 0;
  uint64_t Shards = 0;
  uint64_t Steals = 0;
  uint64_t Rebuilds = 0;
  uint64_t Restores = 0; ///< Checkpoint restores (<= Rebuilds).
};

/// Where one shard's time went and who ran it.
struct ShardPhaseRecord {
  uint64_t Shard = 0;
  unsigned Worker = 0;
  uint64_t Runs = 0;
  bool Stolen = false;
  uint64_t RebuildUs = 0;
  uint64_t RunUs = 0;
  uint64_t RestoreUs = 0; ///< Portion of RebuildUs (see WorkerPhaseProfile).
};

/// The engine scaling profile: why N threads are (or are not) N times
/// faster. Collected only under CollectProfile; never serialized into
/// reports, so report bytes stay schedule-independent.
struct CampaignPhaseProfile {
  bool Collected = false;
  std::vector<WorkerPhaseProfile> Workers;
  std::vector<ShardPhaseRecord> Shards;
};

/// Aggregate result of an executed campaign.
struct CampaignResult {
  /// Non-empty when the engine could not run at all (unwritable or
  /// incompatible checkpoint); every other field is then unset.
  std::string Error;
  uint64_t Runs = 0;
  std::array<uint64_t, NumFaultEffects> EffectCounts{};
  /// Number of distinguishable traces (distinct hashes) and the bytes an
  /// archive of them would occupy (Table I's disk-space column).
  uint64_t DistinctTraces = 0;
  uint64_t ArchiveBytes = 0;
  /// Wall-clock seconds spent executing runs (this invocation only; a
  /// resumed campaign does not accumulate previous sessions).
  double Seconds = 0;
  /// Per-run trace hashes, parallel to the plan (for validation).
  std::vector<uint64_t> TraceHashes;
  /// Per-run effects, parallel to the plan.
  std::vector<FaultEffect> Effects;

  /// Shard accounting of the engine run (both zero when the plan is
  /// empty).
  uint64_t Shards = 0;
  uint64_t ResumedShards = 0; ///< Shards replayed from a checkpoint.
  /// Scheduler telemetry: shards taken from another worker's deque, and
  /// interpreter snapshots rebuilt from cycle 0 (each one a prefix
  /// re-simulation — the scaling tax). Not rendered into reports, so
  /// report bytes stay schedule-independent.
  uint64_t Steals = 0;
  uint64_t SnapshotRebuilds = 0;
  /// Prefix-checkpoint telemetry (PlanOptions::PrefixCheckpoint): golden
  /// snapshots taken and their serialized size, walker restores from the
  /// table, and runs whose verdict was spliced at a checkpoint boundary
  /// (reconverged with the golden run, or hit their worker's suffix
  /// memo). Like Steals, never rendered into reports.
  uint64_t CheckpointsCreated = 0;
  uint64_t CheckpointBytes = 0;
  uint64_t CheckpointRestores = 0;
  uint64_t SplicedRuns = 0;
  /// The part of SplicedRuns settled at the injection point itself: the
  /// flipped register was dead there, so the run took the golden suffix
  /// without a fork or a simulated cycle.
  uint64_t InjectionSplices = 0;
  /// Total interpreter instructions stepped by this invocation (golden
  /// checkpoint pass + walker advances + injected forks): the
  /// deterministic work metric behind the prefix-checkpoint speedup
  /// asserts. Schedule-dependent across thread counts (rebuild replay
  /// varies with stealing, memo hits with which worker ran which
  /// shard), deterministic at one thread.
  uint64_t SimulatedCycles = 0;
  /// True when execution stopped before every shard completed (the
  /// StopAfterShards interruption hook); aggregate fields then cover the
  /// completed shards only and per-run slots of unfinished shards are
  /// unset.
  bool Interrupted = false;

  /// Engaged iff the executed plan was a sample of a larger population.
  std::optional<SampleSummary> Sample;

  /// Per-worker/per-shard phase breakdown; Collected only when the run
  /// asked for it (CampaignExecOptions::CollectProfile). Like the
  /// scheduler telemetry above, never rendered into reports.
  CampaignPhaseProfile Profile;
};

} // namespace bec

#endif // BEC_FI_CAMPAIGN_H
