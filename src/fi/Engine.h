//===- fi/Engine.h - Sharded, work-stealing, resumable campaign executor --===//
///
/// \file
/// The execution half of the campaign engine. A CampaignPlan's run list is
/// partitioned into contiguous shards of nondecreasing injection cycle;
/// shards execute on a work-stealing scheduler (per-worker deques seeded
/// with contiguous blocks, idle workers steal from the tail of the
/// fullest victim) so each worker's interpreter snapshot almost always
/// advances monotonically through the golden trace and only a stolen
/// out-of-order shard pays a prefix re-simulation.
///
/// Completed shards stream to a JSONL checkpoint (fi/Checkpoint.h) as
/// they finish; a campaign interrupted at any shard boundary resumes with
/// `Resume = true` and produces a final result identical to an
/// uninterrupted run — per-run slots are addressed by plan order, so
/// neither thread count, nor steal order, nor the interrupt point can
/// change a byte of the report (only the measured Seconds).
///
//===----------------------------------------------------------------------===//

#ifndef BEC_FI_ENGINE_H
#define BEC_FI_ENGINE_H

#include "fi/Campaign.h"
#include "fi/CampaignPlan.h"

#include <functional>

namespace bec {

/// Execution progress at a shard boundary (what the server's
/// `campaign/run` streams and the CLI's `--progress` prints).
///
/// RunsDone counts resumed + executed runs (progress toward the plan);
/// ExecutedRuns only the runs executed by *this* invocation, which
/// together with ElapsedSeconds gives the true throughput and ETA.
/// Steals and SnapshotRebuilds say *why* scaling flattens: every steal
/// risks a snapshot rebuild, and every rebuild is a prefix
/// re-simulation of the golden trace.
struct CampaignProgress {
  uint64_t ShardsDone = 0;
  uint64_t TotalShards = 0;
  uint64_t RunsDone = 0;
  uint64_t TotalRuns = 0;
  uint64_t ExecutedRuns = 0;
  uint64_t Steals = 0;
  uint64_t SnapshotRebuilds = 0;
  double ElapsedSeconds = 0; ///< Monotonic, since this invocation began.
};

/// Execution-side knobs. None of them changes the computed result value
/// (which is a pure function of program + plan); they change how fast it
/// is computed and whether it survives interruption.
struct CampaignExecOptions {
  /// Worker threads of the work-stealing scheduler (<= 1 = inline).
  unsigned Threads = 1;
  /// Runs per shard; 0 picks a deterministic size from the plan alone
  /// (never from Threads, so checkpoints resume under any --threads).
  uint64_t ShardSize = 0;
  /// Stream per-shard result batches to this JSONL file ("" = none).
  std::string CheckpointPath;
  /// Load completed shards from CheckpointPath before executing; only
  /// the remainder runs. Incompatible checkpoints are an Error.
  bool Resume = false;
  /// Stop dispatching new shards once this many have completed in this
  /// invocation (0 = run to completion). The interruption hook used by
  /// tests and the resume smoke test; the result is then Interrupted.
  uint64_t StopAfterShards = 0;
  /// Called after every completed shard (any worker thread, serialized
  /// by the engine).
  std::function<void(const CampaignProgress &)> OnProgress;
  /// Collect the per-worker/per-shard phase breakdown into
  /// CampaignResult::Profile (`bec campaign --profile=FILE`). Phase
  /// timestamps are taken either way; this only controls whether the
  /// records are kept.
  bool CollectProfile = false;
};

/// Aggregate reading of a CampaignPhaseProfile: where the workers' wall
/// time went, how evenly the busy work spread, and a one-line verdict
/// naming the scaling bottleneck.
struct CampaignScalingDiagnosis {
  double RunFraction = 0;
  double RebuildFraction = 0;
  /// Portion of wall time restoring prefix checkpoints — informational
  /// (already counted inside RebuildFraction, so the four phase
  /// fractions above still partition the wall time).
  double RestoreFraction = 0;
  double StealFraction = 0;
  double IdleFraction = 0;
  /// Largest per-worker busy time (run+rebuild) over the mean: 1.0 =
  /// perfectly balanced.
  double BusyImbalance = 1.0;
  std::string DominantPhase; ///< "run" | "rebuild" | "steal" | "idle".
  std::string Verdict;       ///< Human-readable bottleneck diagnosis.
};

CampaignScalingDiagnosis
diagnoseCampaignScaling(const CampaignPhaseProfile &P);

/// The machine-readable profile document `--profile=FILE` writes:
/// per-worker phase rows, per-shard records and the diagnosis.
std::string renderCampaignProfileJson(const CampaignPhaseProfile &P);

/// Shared emission throttle of progress consumers (the CLI's --progress
/// and the server's campaign/run stream): report at most ~16 evenly
/// spaced updates plus the final one, so both surfaces narrate a
/// campaign identically.
inline bool progressDue(uint64_t LastReportedShards,
                        const CampaignProgress &P) {
  if (P.ShardsDone >= P.TotalShards)
    return true;
  uint64_t Step = P.TotalShards / 16;
  if (Step == 0)
    Step = 1;
  return P.ShardsDone >= LastReportedShards + Step;
}

/// Wraps \p Consumer in the progressDue cadence. The returned callable
/// is stateful (it remembers the last reported shard count): create one
/// per campaign and hand it to CampaignExecOptions::OnProgress.
std::function<void(const CampaignProgress &)>
throttledProgress(std::function<void(const CampaignProgress &)> Consumer);

/// The deterministic shard size the engine uses when \p Requested is 0:
/// a pure function of the plan size, so the same plan always partitions
/// the same way regardless of thread count.
uint64_t campaignShardSize(uint64_t PlanRuns, uint64_t Requested);

/// Executes \p Plan under \p Exec and classifies every run. On checkpoint
/// failure (unwritable path, incompatible resume) the result carries a
/// non-empty Error and nothing is executed.
CampaignResult runCampaign(const Program &Prog, const Trace &Golden,
                           const CampaignPlan &Plan,
                           const CampaignExecOptions &Exec = {});

} // namespace bec

#endif // BEC_FI_ENGINE_H
