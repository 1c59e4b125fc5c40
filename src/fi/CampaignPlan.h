//===- fi/CampaignPlan.h - Fault-space enumeration, pruning, sampling -----===//
///
/// \file
/// The planning half of the campaign engine: a CampaignPlan enumerates the
/// fault space of one analyzed program exactly once and carries everything
/// the executor (fi/Engine.h) and the checkpoint layer (fi/Checkpoint.h)
/// need to run it to completion across interruptions:
///
///   * the run list, in golden-trace order (nondecreasing injection
///     cycle), produced by one of the three PlanKind enumerations —
///     exhaustive, value-level, or BEC bit-level — or given explicitly
///     (fromRuns);
///   * an optional stratified sample of that list (`SampleSize` runs
///     drawn without replacement from equal contiguous strata with a
///     seeded Xoshiro256, so a sample is a pure function of the plan and
///     the seed) for campaigns too large to execute in full, with Wilson
///     confidence intervals on the per-effect rates of the result;
///   * a 64-bit fingerprint over the options and the full run list, used
///     to reject checkpoints that were written for a different plan.
///
//===----------------------------------------------------------------------===//

#ifndef BEC_FI_CAMPAIGNPLAN_H
#define BEC_FI_CAMPAIGNPLAN_H

#include "fi/Campaign.h"

namespace bec {

/// What to enumerate and how much of it to keep.
struct PlanOptions {
  PlanKind Kind = PlanKind::BitLevel;
  /// Truncates the enumeration window to this many golden-trace cycles
  /// (0 = the whole trace).
  uint64_t MaxCycles = 0;
  /// When nonzero, keep only a stratified sample of this many runs.
  uint64_t SampleSize = 0;
  /// PRNG seed of the sample; same plan + same seed = same sample.
  uint64_t SampleSeed = 1;
  /// Prefix-checkpointed execution (`--prefix-checkpoint`): the engine
  /// snapshots the golden run every checkpointPeriod() cycles, forks
  /// each injected run from the nearest checkpoint and splices verdicts
  /// of runs that reconverge with the golden state. Never changes a
  /// report byte (the equivalence battery and the checkpoint fuzz
  /// oracle hold the two paths identical); off replays every suffix in
  /// full.
  bool PrefixCheckpoint = true;
  /// Cycles between golden checkpoints (`--prefix-checkpoint=K`);
  /// 0 = auto-tune from the trace length and the plan density
  /// (autoCheckpointPeriod). The resolved period is fingerprinted, so a
  /// resumed campaign cannot silently change placement.
  uint64_t CheckpointEveryK = 0;
};

/// The enumerated (and possibly sampled) fault space of one program.
class CampaignPlan {
public:
  /// Enumerates the fault space of \p A's program over \p Golden under
  /// \p O, sampling when requested.
  static CampaignPlan build(const BECAnalysis &A, const Trace &Golden,
                            const PlanOptions &O);

  /// A plan over a caller-built run list, which must already be in
  /// nondecreasing injection-cycle order. It runs without prefix
  /// checkpoints: every suffix replays in full from its injection point.
  static CampaignPlan fromRuns(std::vector<PlannedRun> Runs);

  /// The runs to execute, in nondecreasing injection-cycle order.
  const std::vector<PlannedRun> &runs() const { return Runs; }
  const PlanOptions &options() const { return Opts; }

  /// Size of the full enumeration before sampling (== runs().size()
  /// unless sampled()).
  uint64_t populationRuns() const { return Population; }

  /// True when the run list is a proper or improper sample of the
  /// population (SampleSize was requested).
  bool sampled() const { return Opts.SampleSize != 0; }

  /// Content hash of the options and the complete run list (plus the
  /// resolved checkpoint placement). Checkpoints record it; resuming
  /// under a different plan is rejected. Computed on each call: it hashes
  /// every run, and only checkpointed campaigns need it.
  uint64_t fingerprint() const;

  /// True when the engine should execute this plan with prefix
  /// checkpoints (PlanOptions::PrefixCheckpoint and a non-empty trace).
  bool prefixCheckpoint() const { return CheckpointPeriod != 0; }
  /// Resolved cycles between golden checkpoints (0 = checkpointing off).
  uint64_t checkpointPeriod() const { return CheckpointPeriod; }
  /// Golden-trace cycles at which the engine snapshots, ascending,
  /// starting at 0; empty when checkpointing is off.
  const std::vector<uint64_t> &checkpointCycles() const {
    return CheckpointCycles;
  }
  /// Per-instruction live-in register masks (analysis/Liveness.h),
  /// carried so the engine can ignore dead registers when it tests a
  /// faulty state for reconvergence with the golden checkpoint: a
  /// register no path reads before redefining cannot affect the
  /// continuation. Empty when checkpointing is off.
  const std::vector<uint32_t> &liveInMasks() const { return LiveIn; }

private:
  PlanOptions Opts;
  uint64_t Population = 0;
  uint64_t CheckpointPeriod = 0;
  std::vector<uint64_t> CheckpointCycles;
  std::vector<uint32_t> LiveIn;
  std::vector<PlannedRun> Runs;
};

/// The auto-tuned checkpoint period (PlanOptions::CheckpointEveryK == 0):
/// one snapshot per ~16 golden cycles, stretched so sparse plans never
/// carry more checkpoints than runs and long traces never exceed 4096
/// snapshots of memory.
uint64_t autoCheckpointPeriod(uint64_t TraceCycles, uint64_t PlanRuns);

/// 95% Wilson score interval for \p Successes out of \p Trials Bernoulli
/// trials. {0, 0} when Trials is zero. The Wilson interval (unlike the
/// normal approximation) behaves at the p=0 and p=1 boundaries, which
/// campaigns hit routinely (no traps observed in a window).
RateInterval wilsonInterval(uint64_t Successes, uint64_t Trials);

/// The per-effect rates and Wilson intervals of a finished sampled
/// campaign (\p Counts over \p Runs executed runs drawn from a population
/// of \p Population).
SampleSummary
summarizeSample(const std::array<uint64_t, NumFaultEffects> &Counts,
                uint64_t Runs, uint64_t Population, uint64_t Seed);

} // namespace bec

#endif // BEC_FI_CAMPAIGNPLAN_H
