//===- fi/CampaignPlan.cpp - Enumeration, stratified sampling, Wilson CIs -===//

#include "fi/CampaignPlan.h"

#include "obs/Trace.h"
#include "sim/Trace.h"
#include "support/Xoshiro.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace bec;

namespace {

/// The run list of \p Kind over \p Golden (the fault-free trace of the
/// analyzed program), limited to its first \p MaxCycles cycles (0 = no
/// limit).
std::vector<PlannedRun> enumerate(const BECAnalysis &A, const Trace &Golden,
                                  PlanKind Kind, uint64_t MaxCycles) {
  const Program &Prog = A.program();
  const FaultSpace &FS = A.space();
  unsigned W = Prog.Width;
  uint64_t Limit = MaxCycles ? std::min<uint64_t>(MaxCycles, Golden.Cycles)
                             : Golden.Cycles;
  std::vector<PlannedRun> Plan;

  if (Kind == PlanKind::Exhaustive) {
    // Every bit of the register file before every executed instruction.
    for (uint64_t C = 0; C < Limit; ++C)
      for (Reg R = 0; R < NumRegs; ++R)
        for (unsigned B = 0; B < W; ++B)
          Plan.push_back({C, R, static_cast<uint8_t>(B), 0, -1});
    return Plan;
  }

  // Segment-based plans: walk the golden trace; a segment of register V
  // opens after the cycle that accesses V.
  int64_t SegmentId = 0;
  std::vector<uint32_t> Reps; // Classes already planned in this segment.
  for (uint64_t C = 0; C < Limit; ++C) {
    uint32_t P = Golden.Executed[C];
    const Instruction &I = Prog.instr(P);
    if (isHalt(I.Op))
      break;
    auto [ApBegin, ApEnd] = FS.pointsOfInstr(P);
    for (uint32_t Ap = ApBegin; Ap < ApEnd; ++Ap) {
      const auto &Summary = A.summary(Ap);
      Reg V = FS.point(Ap).R;
      ++SegmentId;
      if (!Summary.LiveAfter)
        continue;
      if (Kind == PlanKind::ValueLevel) {
        for (unsigned B = 0; B < W; ++B)
          Plan.push_back({C + 1, V, static_cast<uint8_t>(B),
                          A.classOf(FS.faultIndex(Ap, B)), SegmentId});
        continue;
      }
      // BitLevel: the lowest bit of each non-masked class.
      Reps.clear();
      for (unsigned B = 0; B < W; ++B) {
        if ((Summary.MaskedMask >> B) & 1)
          continue;
        uint32_t Rep = A.classOf(FS.faultIndex(Ap, B));
        if (std::find(Reps.begin(), Reps.end(), Rep) != Reps.end())
          continue;
        Reps.push_back(Rep);
        Plan.push_back({C + 1, V, static_cast<uint8_t>(B), Rep, SegmentId});
      }
    }
  }
  return Plan;
}

/// Draws \p Want distinct indices from [Lo, Hi) by partial Fisher-Yates
/// over a scratch index vector, appending them to \p Out.
void sampleRange(uint64_t Lo, uint64_t Hi, uint64_t Want, Xoshiro256 &Rng,
                 std::vector<uint64_t> &Out) {
  uint64_t N = Hi - Lo;
  std::vector<uint64_t> Scratch(N);
  for (uint64_t I = 0; I < N; ++I)
    Scratch[I] = Lo + I;
  for (uint64_t I = 0; I < Want && I < N; ++I) {
    uint64_t J = I + Rng.below(N - I);
    std::swap(Scratch[I], Scratch[J]);
    Out.push_back(Scratch[I]);
  }
}

/// Stratified sample of \p Want indices out of [0, N): the plan is cut
/// into equal contiguous strata (execution phases of the golden trace,
/// since plans are in trace order) and each stratum contributes its
/// proportional share, allocated by largest remainder so the total is
/// exactly \p Want. Returned sorted, so the sampled plan stays in
/// nondecreasing injection-cycle order.
std::vector<uint64_t> stratifiedIndices(uint64_t N, uint64_t Want,
                                        uint64_t Seed) {
  std::vector<uint64_t> Picked;
  if (Want >= N) {
    Picked.resize(N);
    for (uint64_t I = 0; I < N; ++I)
      Picked[I] = I;
    return Picked;
  }
  uint64_t Strata = std::min<uint64_t>({16, Want, N});
  if (Strata == 0)
    return Picked;

  // Proportional allocation with largest remainder. Strata are the
  // near-equal chunks [K*N/Strata, (K+1)*N/Strata).
  struct Alloc {
    uint64_t Lo, Hi, Want;
    double Remainder;
    uint64_t Index;
  };
  std::vector<Alloc> Allocs(Strata);
  uint64_t Assigned = 0;
  for (uint64_t K = 0; K < Strata; ++K) {
    uint64_t Lo = K * N / Strata;
    uint64_t Hi = (K + 1) * N / Strata;
    double Exact = double(Want) * double(Hi - Lo) / double(N);
    uint64_t Floor = std::min<uint64_t>(uint64_t(Exact), Hi - Lo);
    Allocs[K] = {Lo, Hi, Floor, Exact - double(Floor), K};
    Assigned += Floor;
  }
  std::vector<Alloc *> ByRemainder;
  for (Alloc &A : Allocs)
    ByRemainder.push_back(&A);
  std::stable_sort(ByRemainder.begin(), ByRemainder.end(),
                   [](const Alloc *X, const Alloc *Y) {
                     if (X->Remainder != Y->Remainder)
                       return X->Remainder > Y->Remainder;
                     return X->Index < Y->Index;
                   });
  for (Alloc *A : ByRemainder) {
    if (Assigned >= Want)
      break;
    if (A->Want < A->Hi - A->Lo) {
      ++A->Want;
      ++Assigned;
    }
  }
  // Rounding can still leave a shortfall when some strata saturate; top
  // up wherever capacity remains (deterministic first-fit).
  for (Alloc &A : Allocs) {
    while (Assigned < Want && A.Want < A.Hi - A.Lo) {
      ++A.Want;
      ++Assigned;
    }
  }

  for (const Alloc &A : Allocs) {
    // Independent stream per stratum, derived from the seed: inserting
    // or resizing one stratum never reshuffles another's draw.
    Xoshiro256 Rng(Seed ^ (0x9e3779b97f4a7c15ull * (A.Index + 1)));
    sampleRange(A.Lo, A.Hi, A.Want, Rng, Picked);
  }
  std::sort(Picked.begin(), Picked.end());
  return Picked;
}

uint64_t fingerprintPlan(const PlanOptions &O, uint64_t Population,
                         uint64_t CheckpointPeriod,
                         const std::vector<PlannedRun> &Runs) {
  TraceHasher H;
  H.absorb(0xbecca111u); // Format tag.
  H.absorb(static_cast<uint64_t>(O.Kind));
  H.absorb(O.MaxCycles);
  H.absorb(O.SampleSize);
  H.absorb(O.SampleSize ? O.SampleSeed : 0);
  // The *resolved* checkpoint period (0 = off), not the request: a
  // checkpointed campaign resumed under different placement would
  // otherwise silently keep the recorded shards. The placement cycles
  // are a pure function of the period and the trace, so the period
  // covers them.
  H.absorb(0x70c0deu);
  H.absorb(CheckpointPeriod);
  H.absorb(Population);
  H.absorb(Runs.size());
  for (const PlannedRun &R : Runs) {
    H.absorb(R.AfterCycle);
    H.absorb((uint64_t(R.R) << 8) | R.Bit);
    H.absorb((uint64_t(R.ClassRep) << 32) ^ uint64_t(R.Segment));
  }
  return H.value();
}

} // namespace

uint64_t bec::autoCheckpointPeriod(uint64_t TraceCycles, uint64_t PlanRuns) {
  if (TraceCycles == 0)
    return 1;
  // Dense plans (the common case): a snapshot per ~16 cycles keeps the
  // post-injection walk to the next convergence test short. Sparse
  // plans get no more checkpoints than runs; very long traces cap the
  // table at 4096 snapshots of memory.
  uint64_t K = 16;
  if (PlanRuns && PlanRuns * K < TraceCycles)
    K = (TraceCycles + PlanRuns - 1) / PlanRuns;
  uint64_t MemFloor = (TraceCycles + 4095) / 4096;
  return std::max<uint64_t>({uint64_t(1), K, MemFloor});
}

CampaignPlan CampaignPlan::build(const BECAnalysis &A, const Trace &Golden,
                                 const PlanOptions &O) {
  // Named apart from perfbench's "fi.plan" layer span, which wraps this
  // call: a nested span of the same name would split that layer's time.
  obs::Span SpanBuild("fi.plan.build");
  CampaignPlan P;
  P.Opts = O;
  P.Runs = enumerate(A, Golden, O.Kind, O.MaxCycles);
  P.Population = P.Runs.size();
  if (O.SampleSize != 0 && O.SampleSize < P.Runs.size()) {
    std::vector<uint64_t> Keep =
        stratifiedIndices(P.Runs.size(), O.SampleSize, O.SampleSeed);
    std::vector<PlannedRun> Sampled;
    Sampled.reserve(Keep.size());
    for (uint64_t I : Keep)
      Sampled.push_back(P.Runs[I]);
    P.Runs = std::move(Sampled);
  }
  if (O.PrefixCheckpoint && Golden.Cycles != 0 && !P.Runs.empty()) {
    P.CheckpointPeriod = O.CheckpointEveryK
                             ? O.CheckpointEveryK
                             : autoCheckpointPeriod(Golden.Cycles,
                                                    P.Runs.size());
    // Placement stays strictly inside the golden run: a snapshot at the
    // final cycle would capture a finished machine no fork can continue
    // from.
    for (uint64_t C = 0; C < Golden.Cycles; C += P.CheckpointPeriod)
      P.CheckpointCycles.push_back(C);
    const Liveness &L = A.liveness();
    P.LiveIn.resize(A.program().size());
    for (uint32_t PC = 0; PC < A.program().size(); ++PC)
      P.LiveIn[PC] = L.liveInMask(PC);
  }
  SpanBuild.arg("population", P.Population);
  SpanBuild.arg("runs", P.Runs.size());
  return P;
}

CampaignPlan CampaignPlan::fromRuns(std::vector<PlannedRun> Runs) {
  assert(std::is_sorted(Runs.begin(), Runs.end(),
                        [](const PlannedRun &X, const PlannedRun &Y) {
                          return X.AfterCycle < Y.AfterCycle;
                        }) &&
         "runs must be in nondecreasing injection-cycle order");
  CampaignPlan P;
  P.Opts.PrefixCheckpoint = false;
  P.Population = Runs.size();
  P.Runs = std::move(Runs);
  return P;
}

uint64_t CampaignPlan::fingerprint() const {
  return fingerprintPlan(Opts, Population, CheckpointPeriod, Runs);
}

RateInterval bec::wilsonInterval(uint64_t Successes, uint64_t Trials) {
  if (Trials == 0)
    return {};
  constexpr double Z = 1.959963984540054; // 97.5th normal percentile.
  double N = double(Trials);
  double P = double(Successes) / N;
  double Z2 = Z * Z;
  double Denom = 1.0 + Z2 / N;
  double Center = (P + Z2 / (2.0 * N)) / Denom;
  double Half =
      (Z / Denom) * std::sqrt(P * (1.0 - P) / N + Z2 / (4.0 * N * N));
  RateInterval R;
  // Exact at the boundaries (k=0 provably includes rate 0, k=n rate 1);
  // the algebra otherwise leaves float dust like 1e-18 there.
  R.Lo = Successes == 0 ? 0.0 : std::max(0.0, Center - Half);
  R.Hi = Successes == Trials ? 1.0 : std::min(1.0, Center + Half);
  return R;
}

SampleSummary
bec::summarizeSample(const std::array<uint64_t, NumFaultEffects> &Counts,
                     uint64_t Runs, uint64_t Population, uint64_t Seed) {
  SampleSummary S;
  S.SampleRuns = Runs;
  S.PopulationRuns = Population;
  S.Seed = Seed;
  for (unsigned E = 0; E < NumFaultEffects; ++E) {
    S.Rate[E] = Runs ? double(Counts[E]) / double(Runs) : 0.0;
    S.CI[E] = wilsonInterval(Counts[E], Runs);
  }
  return S;
}
