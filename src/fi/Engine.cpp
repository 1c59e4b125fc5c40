//===- fi/Engine.cpp - Sharded, work-stealing, resumable executor ---------===//

#include "fi/Engine.h"

#include "fi/Checkpoint.h"
#include "fi/SuffixMemo.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <unordered_map>

using namespace bec;

namespace {

FaultEffect classifySuffix(const SettledSuffix &S, const Trace &Golden) {
  if (S.TraceHash == Golden.TraceHash)
    return FaultEffect::Masked;
  if (S.End == Outcome::Trap)
    return FaultEffect::Trap;
  if (S.End == Outcome::Hang)
    return FaultEffect::Hang;
  if (S.ObsHash == Golden.ObservableHash)
    return FaultEffect::Benign;
  return FaultEffect::SDC;
}

/// The engine's execution order: by injection cycle.
bool injectedEarlier(const PlannedRun &X, const PlannedRun &Y) {
  return X.AfterCycle < Y.AfterCycle;
}

/// Work-stealing shard scheduler: one deque per worker, seeded with a
/// contiguous block of shard ids (contiguous = nondecreasing injection
/// cycles, so the owner's interpreter snapshot advances monotonically).
/// Owners pop from the front; an idle worker steals from the *back* of
/// the fullest victim, taking the victim's farthest-out work so the two
/// keep disjoint, mostly-monotone cycle ranges. Shard-granular work is
/// coarse enough that one mutex is cheaper than per-deque CAS traffic.
class StealScheduler {
public:
  explicit StealScheduler(unsigned Workers) : Queues(Workers) {}

  void seed(unsigned Worker, uint64_t ShardLo, uint64_t ShardHi) {
    for (uint64_t S = ShardLo; S < ShardHi; ++S)
      Queues[Worker].push_back(S);
  }

  /// \p Stolen reports whether the shard came from another worker's
  /// deque — the engine counts those, because each one risks a snapshot
  /// rebuild and together they explain flat thread scaling.
  std::optional<uint64_t> next(unsigned Me, bool &Stolen) {
    Stolen = false;
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Queues[Me].empty()) {
      uint64_t S = Queues[Me].front();
      Queues[Me].pop_front();
      return S;
    }
    size_t Victim = Queues.size(), Best = 0;
    for (size_t V = 0; V < Queues.size(); ++V)
      if (Queues[V].size() > Best) {
        Best = Queues[V].size();
        Victim = V;
      }
    if (Victim == Queues.size())
      return std::nullopt;
    uint64_t S = Queues[Victim].back();
    Queues[Victim].pop_back();
    Stolen = true;
    return S;
  }

private:
  std::mutex Mutex;
  std::vector<std::deque<uint64_t>> Queues;
};

/// Everything shared by the workers of one campaign.
struct EngineState {
  const Program *Prog;
  const Trace *Golden;
  /// The runs in nondecreasing injection-cycle order (CampaignPlan's
  /// guarantee; the raw runCampaign overload sorts its own copy), so
  /// shard S covers runs [S*ShardSize, ...) and executes them in order.
  const std::vector<PlannedRun> *Runs;
  uint64_t ShardSize = 0;
  uint64_t NumShards = 0;
  RunOptions RunOpts;

  /// Per-run result slots, addressed by plan index, so the assembled
  /// result is independent of scheduling.
  std::vector<FaultEffect> Effects;
  std::vector<uint64_t> Hashes;
  std::vector<uint64_t> Bytes;
  /// Shard completion flags: 1 = resumed, 2 = executed here. Written by
  /// exactly one worker per shard, read after the pool joins.
  std::vector<uint8_t> Done;

  CheckpointWriter Writer;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> NewShardsDone{0};
  uint64_t StopAfterShards = 0;

  /// Prefix-checkpoint table: golden MachineState snapshots in ascending
  /// cycle order (built once before the workers start), how the golden
  /// replay they came from ends (the suffix every run that reconverges
  /// with a checkpoint splices to), and the plan's live-in masks for the
  /// convergence test. Empty/false when the plan runs without prefix
  /// checkpoints.
  bool PrefixCk = false;
  std::vector<MachineState> Ckpts;
  const std::vector<uint32_t> *LiveIn = nullptr;
  SettledSuffix GoldenSuffix;
  uint64_t CkBytes = 0;

  /// Whether \p I, paused at checkpoint \p G's cycle, has reconverged
  /// with the golden run: same PC, same trace cursors, and the same value
  /// in every register live into that PC. A direct comparison, so the
  /// golden splice trusts no key, only the cursors (as Masked does).
  bool reconverged(const Interpreter &I, const MachineState &G) const {
    if (I.pc() != G.PC || I.fullHashState() != G.FullHashState ||
        I.obsHashState() != G.ObsHashState)
      return false;
    for (uint32_t Rest = liveKeyMask(G.PC, LiveIn); Rest; Rest &= Rest - 1) {
      Reg R = static_cast<Reg>(std::countr_zero(Rest));
      if (I.machine().reg(R) != G.M.reg(R))
        return false;
    }
    return true;
  }

  /// Whether \p Run's flip is dead on arrival: the walker \p W is the
  /// golden run paused at the injection cycle, so the faulty state would
  /// be W's with one bit of Run.R flipped, and reconverged() at that very
  /// cycle reduces to Run.R being x0 or not live into W's PC. The run
  /// then settles to the golden suffix without a fork. Only with prefix
  /// checkpoints: with them off, every run replays in full.
  bool deadAtInjection(const Interpreter &W, const PlannedRun &Run) const {
    return PrefixCk && !W.done() && W.cycle() == Run.AfterCycle &&
           !((liveKeyMask(W.pc(), LiveIn) >> Run.R) & 1);
  }

  /// Index of the first checkpoint with cycle >= \p Cycle (a checkpoint
  /// exactly at the injection cycle is a valid convergence point: the
  /// flip just happened, zero faulty instructions ran).
  size_t firstCheckpointAtOrAfter(uint64_t Cycle) const {
    size_t Lo = 0, Hi = Ckpts.size();
    while (Lo < Hi) {
      size_t Mid = (Lo + Hi) / 2;
      if (Ckpts[Mid].CycleCount < Cycle)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo;
  }
  /// The last checkpoint with cycle <= \p Cycle, or null when none is
  /// (there is none only when the table is empty: placement starts at 0).
  const MachineState *nearestCheckpointAtOrBefore(uint64_t Cycle) const {
    size_t At = firstCheckpointAtOrAfter(Cycle);
    if (At < Ckpts.size() && Ckpts[At].CycleCount == Cycle)
      return &Ckpts[At];
    return At == 0 ? nullptr : &Ckpts[At - 1];
  }

  /// Scheduler telemetry for this invocation, written by workers with
  /// relaxed adds and folded into progress reports and the result.
  std::chrono::steady_clock::time_point StartTime;
  std::atomic<uint64_t> ExecutedRuns{0};
  std::atomic<uint64_t> Steals{0};
  std::atomic<uint64_t> SnapshotRebuilds{0};
  std::atomic<uint64_t> CkRestores{0};
  std::atomic<uint64_t> SplicedRuns{0};
  std::atomic<uint64_t> InjectionSplices{0};
  std::atomic<uint64_t> SimCycles{0};
  /// Sums over the workers' suffix memos, taken as each worker exits:
  /// keys recorded, and the rings' peak heap bytes.
  std::atomic<uint64_t> MemoEntries{0};
  std::atomic<uint64_t> MemoBytes{0};

  std::mutex ProgressMutex;
  CampaignProgress Progress;
  std::function<void(const CampaignProgress &)> OnProgress;

  /// Profile collection (CollectProfile): per-shard records appended by
  /// workers, per-worker rows folded in when each loop exits.
  bool CollectProfile = false;
  std::mutex ProfileMutex;
  CampaignPhaseProfile Profile;

  std::mutex ErrorMutex;
  std::string Error;

  void failShard(std::string Message) {
    std::lock_guard<std::mutex> Lock(ErrorMutex);
    if (Error.empty())
      Error = std::move(Message);
    Stop.store(true);
  }

  std::pair<uint64_t, uint64_t> shardRange(uint64_t Shard) const {
    uint64_t Lo = Shard * ShardSize;
    return {Lo, std::min<uint64_t>(Runs->size(), Lo + ShardSize)};
  }
};

/// Per-worker scheduler telemetry, folded into EngineState atomics and
/// the worker's trace span when the loop exits.
struct WorkerStats {
  uint64_t Runs = 0;
  uint64_t Shards = 0;
  uint64_t Steals = 0;
  uint64_t Rebuilds = 0;
  uint64_t Restores = 0;      ///< Walker restores from a golden checkpoint.
  uint64_t GoldenSplices = 0; ///< Runs spliced into the golden suffix.
  /// The part of GoldenSplices settled at injection (dead flips).
  uint64_t InjectionSplices = 0;
  uint64_t MemoSplices = 0;   ///< Runs spliced from this worker's memo.
  uint64_t SimCycles = 0;     ///< Interpreter instructions stepped.
  uint64_t SchedUs = 0;       ///< In Sched.next: lock wait + victim scan.
  uint64_t RunUs = 0;         ///< Shard execution minus rebuilds.
  uint64_t RebuildUs = 0;     ///< Snapshot rebuilds incl. prefix catch-up.
  uint64_t RestoreUs = 0;     ///< Portion of RebuildUs inside restore().
};

uint64_t elapsedUs(std::chrono::steady_clock::time_point Since) {
  auto Us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - Since)
                .count();
  return Us < 0 ? 0 : uint64_t(Us);
}

/// A worker's interpreters, key buffer and suffix memo, kept across its
/// shards: the walker advancing along the golden run, the fork buffer
/// each injected run is synced into (syncFrom copies only the memory
/// lines either side wrote since the last fork), the keys a run passes
/// before it completes, and the continuations this worker's runs have
/// settled at the boundaries still ahead of its walker.
/// Memo verdicts are pure functions of their keys, so which worker
/// settled a key cannot change a result; a private memo needs no lock.
struct WorkerBuffers {
  std::optional<Interpreter> Walker;
  std::optional<Interpreter> Fork;
  std::vector<BoundaryKey> Visited;
  SuffixMemoRing Memo;
};

/// Executes one shard: advances this worker's walker to each injection
/// cycle, forks, flips, runs to completion and classifies.
void executeShard(EngineState &St, uint64_t Shard, unsigned Me,
                  WorkerBuffers &Buf, bool Stolen, WorkerStats &WS) {
  static const obs::Histogram ShardUs("engine.shard.us");
  static const obs::Counter CtrRestored("fi.checkpoints.restored");
  static const obs::Histogram RestoreUsHist("fi.checkpoint.restore.us");
  obs::ScopedTimerUs Timer(ShardUs);
  auto ShardStart = std::chrono::steady_clock::now();
  uint64_t RebuildUs = 0, RestoreUs = 0;
  uint64_t ShardSimCycles = 0;
  std::optional<Interpreter> &Walker = Buf.Walker;

  auto [Lo, Hi] = St.shardRange(Shard);
  uint64_t FirstCycle = (*St.Runs)[Lo].AfterCycle;
  obs::Span SpanShard("fi.shard", {{"shard", Shard},
                                   {"runs", Hi - Lo},
                                   {"stolen", uint64_t(Stolen)}});
  // A stolen out-of-order shard may sit before this worker's snapshot;
  // only then does it pay a rebuild — and with a checkpoint table the
  // rebuild restores the nearest golden snapshot at or below the
  // shard's first injection cycle instead of re-simulating from zero.
  if (!Walker || FirstCycle < Walker->cycle()) {
    auto RebuildStart = std::chrono::steady_clock::now();
    obs::Span SpanRebuild("fi.snapshot.rebuild",
                          {{"first_cycle", FirstCycle}});
    Walker.emplace(*St.Prog, St.RunOpts);
    // The memo's buckets follow the walker: those of the cycles it left
    // behind would only miss this shard's earlier boundaries.
    Buf.Memo.reset();
    if (const MachineState *CS = St.nearestCheckpointAtOrBefore(FirstCycle)) {
      auto RestoreStart = std::chrono::steady_clock::now();
      Walker->restore(*CS);
      RestoreUs = elapsedUs(RestoreStart);
      WS.RestoreUs += RestoreUs;
      ++WS.Restores;
      St.CkRestores.fetch_add(1, std::memory_order_relaxed);
      CtrRestored.add();
      RestoreUsHist.observeUs(RestoreUs);
    }
    // The remaining catch-up to the shard's first injection cycle is
    // the expensive half of a rebuild; running it here (instead of
    // letting the first run's runToCycle below absorb it) attributes it
    // to the rebuild phase. Same simulation either way — results can't
    // change.
    ShardSimCycles += FirstCycle - Walker->cycle();
    Walker->runToCycle(FirstCycle);
    ++WS.Rebuilds;
    St.SnapshotRebuilds.fetch_add(1, std::memory_order_relaxed);
    RebuildUs = elapsedUs(RebuildStart);
    WS.RebuildUs += RebuildUs;
  }
  uint64_t WalkerFrom = Walker->cycle();
  std::vector<BoundaryKey> &Visited = Buf.Visited;
  for (uint64_t K = Lo; K < Hi; ++K) {
    const PlannedRun &Run = (*St.Runs)[K];
    Walker->runToCycle(Run.AfterCycle);
    SettledSuffix End;
    if (St.deadAtInjection(*Walker, Run)) {
      End = St.GoldenSuffix;
      ++WS.GoldenSplices;
      ++WS.InjectionSplices;
    } else {
      // Fork into the worker's reused buffer: a sync copies the registers,
      // cursors and only the memory lines the walker or the last faulty
      // run wrote, and keeps the memory image's allocation.
      if (Buf.Fork)
        Buf.Fork->syncFrom(*Walker);
      else
        Buf.Fork.emplace(*Walker);
      Interpreter &Forked = *Buf.Fork;
      Forked.machine().flipRegBit(Run.R, Run.Bit);
      // Convergence splicing: pause the faulty run at each checkpoint
      // cycle of its memo window. A run that has reconverged with the
      // golden checkpoint there settles to the golden suffix; otherwise
      // it is keyed (suffixStateKey), and a hit in this worker's memo —
      // an earlier run of the same dynamic fault class — settles it too.
      // Either way the suffix is not executed. Every key the run passed
      // on the way leads to the same end, so the memo learns them all,
      // spliced or not. Past the window the run replays to its end.
      std::optional<SettledSuffix> Hit;
      Visited.clear();
      size_t First = St.firstCheckpointAtOrAfter(Run.AfterCycle);
      size_t Last = std::min(St.Ckpts.size(), First + MemoWindow);
      for (size_t Ck = First; Ck < Last; ++Ck) {
        Forked.runToCycle(St.Ckpts[Ck].CycleCount);
        if (Forked.done())
          break;
        if (St.reconverged(Forked, St.Ckpts[Ck])) {
          Hit = St.GoldenSuffix;
          ++WS.GoldenSplices;
          break;
        }
        BoundaryKey Key{Ck, suffixStateKey(Forked.cycle(), Forked.pc(),
                                           Forked.fullHashState(),
                                           Forked.obsHashState(),
                                           Forked.machine(), St.LiveIn)};
        Hit = Buf.Memo.find(Key);
        if (Hit) {
          ++WS.MemoSplices;
          break;
        }
        Visited.push_back(Key);
      }
      // A settled continuation reproduces this run's trace byte for
      // byte, so the slots take exactly what a full replay would have
      // produced: its final hash and its (recording-off) archive size.
      if (Hit) {
        End = *Hit;
      } else {
        Forked.run();
        End = SettledSuffix::of(Forked.takeTrace());
      }
      Buf.Memo.insert(Visited, End);
      ShardSimCycles += Forked.cycle() - Run.AfterCycle;
    }
    St.Effects[K] = classifySuffix(End, *St.Golden);
    St.Hashes[K] = End.TraceHash;
    St.Bytes[K] = End.Bytes;
  }
  ShardSimCycles += Walker->cycle() - WalkerFrom;
  WS.SimCycles += ShardSimCycles;
  St.Done[Shard] = 2;

  if (St.Writer.isOpen()) {
    ShardRecord Rec;
    Rec.Shard = Shard;
    Rec.Effects.assign(St.Effects.begin() + Lo, St.Effects.begin() + Hi);
    Rec.Hashes.assign(St.Hashes.begin() + Lo, St.Hashes.begin() + Hi);
    Rec.Bytes.assign(St.Bytes.begin() + Lo, St.Bytes.begin() + Hi);
    std::string Err;
    if (!St.Writer.writeShard(Rec, Err))
      St.failShard(std::move(Err));
  }

  WS.Runs += Hi - Lo;
  ++WS.Shards;
  St.ExecutedRuns.fetch_add(Hi - Lo, std::memory_order_relaxed);

  uint64_t TotalUs = elapsedUs(ShardStart);
  uint64_t RunUs = TotalUs > RebuildUs ? TotalUs - RebuildUs : 0;
  WS.RunUs += RunUs;
  if (St.CollectProfile) {
    std::lock_guard<std::mutex> Lock(St.ProfileMutex);
    St.Profile.Shards.push_back(
        {Shard, Me, Hi - Lo, Stolen, RebuildUs, RunUs, RestoreUs});
  }
  if (obs::logEnabled(obs::LogLevel::Debug))
    obs::log(obs::LogLevel::Debug, "engine.shard.done",
             {{"shard", Shard},
              {"runs", Hi - Lo},
              {"stolen", Stolen},
              {"rebuild_us", RebuildUs},
              {"run_us", RunUs},
              {"restore_us", RestoreUs}});

  {
    std::lock_guard<std::mutex> Lock(St.ProgressMutex);
    ++St.Progress.ShardsDone;
    St.Progress.RunsDone += Hi - Lo;
    St.Progress.ExecutedRuns =
        St.ExecutedRuns.load(std::memory_order_relaxed);
    St.Progress.Steals = St.Steals.load(std::memory_order_relaxed);
    St.Progress.SnapshotRebuilds =
        St.SnapshotRebuilds.load(std::memory_order_relaxed);
    St.Progress.ElapsedSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      St.StartTime)
            .count();
    if (St.OnProgress)
      St.OnProgress(St.Progress);
  }
  uint64_t DoneNow = St.NewShardsDone.fetch_add(1) + 1;
  if (St.StopAfterShards && DoneNow >= St.StopAfterShards)
    St.Stop.store(true);
}

void workerLoop(EngineState &St, StealScheduler &Sched, unsigned Me) {
  static const obs::Counter CtrRuns("engine.runs");
  static const obs::Counter CtrShards("engine.shards");
  static const obs::Counter CtrSteals("engine.steals");
  static const obs::Counter CtrRebuilds("engine.snapshot_rebuilds");
  static const obs::Counter CtrIdleUs("engine.idle.us");
  static const obs::Counter CtrGoldenSplices("fi.splice.golden");
  static const obs::Counter CtrMemoSplices("fi.splice.memo");
  static const obs::Counter CtrInjectionSplices("fi.splice.injection");

  if (obs::traceActive())
    obs::setTraceThreadName("fi-worker-" + std::to_string(Me));
  obs::Span SpanWorker(obs::traceActive()
                           ? "fi.worker-" + std::to_string(Me)
                           : std::string());

  WorkerStats WS;
  auto WallStart = std::chrono::steady_clock::now();
  WorkerBuffers Buf;
  while (!St.Stop.load()) {
    // Time spent waiting on the scheduler lock or finding a victim is
    // the other half of the scaling story next to rebuilds.
    auto SchedStart = std::chrono::steady_clock::now();
    bool Stolen = false;
    std::optional<uint64_t> Shard = Sched.next(Me, Stolen);
    WS.SchedUs += elapsedUs(SchedStart);
    if (!Shard)
      break;
    if (Stolen) {
      ++WS.Steals;
      St.Steals.fetch_add(1, std::memory_order_relaxed);
    }
    executeShard(St, *Shard, Me, Buf, Stolen, WS);
  }

  CtrRuns.add(WS.Runs);
  CtrShards.add(WS.Shards);
  CtrSteals.add(WS.Steals);
  CtrRebuilds.add(WS.Rebuilds);
  CtrIdleUs.add(WS.SchedUs);
  CtrGoldenSplices.add(WS.GoldenSplices);
  CtrMemoSplices.add(WS.MemoSplices);
  CtrInjectionSplices.add(WS.InjectionSplices);
  uint64_t Spliced = WS.GoldenSplices + WS.MemoSplices;
  St.SplicedRuns.fetch_add(Spliced, std::memory_order_relaxed);
  St.InjectionSplices.fetch_add(WS.InjectionSplices,
                                std::memory_order_relaxed);
  St.SimCycles.fetch_add(WS.SimCycles, std::memory_order_relaxed);
  St.MemoEntries.fetch_add(Buf.Memo.recorded(), std::memory_order_relaxed);
  St.MemoBytes.fetch_add(Buf.Memo.byteSize(), std::memory_order_relaxed);
  SpanWorker.arg("runs", WS.Runs);
  SpanWorker.arg("shards", WS.Shards);
  SpanWorker.arg("steals", WS.Steals);
  SpanWorker.arg("snapshot_rebuilds", WS.Rebuilds);
  SpanWorker.arg("restores", WS.Restores);
  SpanWorker.arg("spliced_runs", Spliced);
  SpanWorker.arg("golden_splices", WS.GoldenSplices);
  SpanWorker.arg("memo_splices", WS.MemoSplices);
  SpanWorker.arg("injection_splices", WS.InjectionSplices);
  SpanWorker.arg("idle_us", WS.SchedUs);

  if (St.CollectProfile) {
    WorkerPhaseProfile WP;
    WP.Worker = Me;
    WP.WallUs = elapsedUs(WallStart);
    WP.RunUs = WS.RunUs;
    WP.RebuildUs = WS.RebuildUs;
    WP.StealUs = WS.SchedUs;
    uint64_t Busy = WS.RunUs + WS.RebuildUs + WS.SchedUs;
    WP.IdleUs = WP.WallUs > Busy ? WP.WallUs - Busy : 0;
    WP.RestoreUs = WS.RestoreUs;
    WP.Runs = WS.Runs;
    WP.Shards = WS.Shards;
    WP.Steals = WS.Steals;
    WP.Rebuilds = WS.Rebuilds;
    WP.Restores = WS.Restores;
    std::lock_guard<std::mutex> Lock(St.ProfileMutex);
    St.Profile.Workers.push_back(WP);
  }
}

CampaignResult runShardedImpl(const Program &Prog, const Trace &Golden,
                              const std::vector<PlannedRun> &Runs,
                              const CampaignPlan *Plan,
                              const CampaignExecOptions &Exec) {
  auto Start = std::chrono::steady_clock::now();
  CampaignResult Result;
  uint64_t N = Runs.size();

  EngineState St;
  St.StartTime = Start;
  St.Prog = &Prog;
  St.Golden = &Golden;
  St.Runs = &Runs;
  St.ShardSize = campaignShardSize(N, Exec.ShardSize);
  St.NumShards = N ? (N + St.ShardSize - 1) / St.ShardSize : 0;
  St.RunOpts.Record = false;
  St.RunOpts.MaxCycles = Golden.Cycles * 16 + 4096;
  St.Effects.resize(N);
  St.Hashes.resize(N);
  St.Bytes.resize(N);
  St.Done.assign(St.NumShards, 0);
  St.StopAfterShards = Exec.StopAfterShards;
  St.OnProgress = Exec.OnProgress;
  St.CollectProfile = Exec.CollectProfile;
  St.Progress.TotalShards = St.NumShards;
  St.Progress.TotalRuns = N;

  // Shards run in plan order, which is trace order: a shard's walker
  // only moves forward.
  assert(std::is_sorted(Runs.begin(), Runs.end(), injectedEarlier) &&
         "runs must be in nondecreasing injection-cycle order");

  // Prefix-checkpoint table: one fault-free replay snapshots the golden
  // machine at every placement cycle and runs on to completion, giving
  // (a) restore targets for out-of-order shards and (b) the golden
  // continuation runs splice into once they reconverge. Built before
  // the workers start and read-only afterwards.
  if (Plan && Plan->prefixCheckpoint() && N != 0) {
    static const obs::Counter CtrCreated("fi.checkpoints.created");
    static const obs::Counter CtrCkBytes("fi.checkpoints.bytes");
    obs::Span SpanTable("fi.checkpoint.table",
                        {{"period", Plan->checkpointPeriod()}});
    Interpreter GoldenWalk(Prog, St.RunOpts);
    for (uint64_t C : Plan->checkpointCycles()) {
      GoldenWalk.runToCycle(C);
      if (GoldenWalk.done() || GoldenWalk.cycle() != C)
        break;
      St.Ckpts.push_back(GoldenWalk.snapshot());
      St.CkBytes += St.Ckpts.back().byteSize();
    }
    GoldenWalk.run();
    St.SimCycles.fetch_add(GoldenWalk.cycle(), std::memory_order_relaxed);
    Trace GoldenFinal = GoldenWalk.takeTrace();
    if (GoldenFinal.TraceHash != Golden.TraceHash) {
      // The caller's golden trace disagrees with a fresh replay (a
      // hand-built trace, or a MaxCycles mismatch). Splicing against it
      // would be unsound, so fall back to full suffix execution.
      St.Ckpts.clear();
      St.CkBytes = 0;
    } else {
      St.PrefixCk = true;
      St.LiveIn = &Plan->liveInMasks();
      St.GoldenSuffix = SettledSuffix::of(GoldenFinal);
      CtrCreated.add(St.Ckpts.size());
      CtrCkBytes.add(St.CkBytes);
    }
    SpanTable.arg("checkpoints", St.Ckpts.size());
    SpanTable.arg("bytes", St.CkBytes);
  }

  uint64_t ResumedShards = 0;
  if (!Exec.CheckpointPath.empty()) {
    // The fingerprint hashes the whole run list, so it is computed only
    // when a checkpoint file needs it.
    CheckpointHeader Header;
    Header.PlanFingerprint = Plan ? Plan->fingerprint() : 0;
    Header.Runs = N;
    Header.Shards = St.NumShards;
    Header.ShardSize = St.ShardSize;
    if (Exec.Resume) {
      std::vector<ShardRecord> Records;
      std::string Err;
      if (!loadCheckpoint(Exec.CheckpointPath, Header, Records, Err)) {
        Result.Error = Err;
        return Result;
      }
      for (const ShardRecord &Rec : Records) {
        uint64_t Lo = St.shardRange(Rec.Shard).first;
        std::copy(Rec.Effects.begin(), Rec.Effects.end(),
                  St.Effects.begin() + Lo);
        std::copy(Rec.Hashes.begin(), Rec.Hashes.end(),
                  St.Hashes.begin() + Lo);
        std::copy(Rec.Bytes.begin(), Rec.Bytes.end(), St.Bytes.begin() + Lo);
        if (St.Done[Rec.Shard] == 0)
          ++ResumedShards;
        St.Done[Rec.Shard] = 1;
      }
    }
    std::string Err;
    bool Append = Exec.Resume && ResumedShards > 0;
    if (!St.Writer.open(Exec.CheckpointPath, Header, Append, Err)) {
      Result.Error = Err;
      return Result;
    }
  }
  St.Progress.ShardsDone = ResumedShards;
  for (uint64_t S = 0; S < St.NumShards; ++S)
    if (St.Done[S]) {
      auto [Lo, Hi] = St.shardRange(S);
      St.Progress.RunsDone += Hi - Lo;
    }

  // Seed the scheduler with the pending shards, split into contiguous
  // blocks (one per worker) so each worker starts on a distinct stretch
  // of the golden trace.
  std::vector<uint64_t> Pending;
  for (uint64_t S = 0; S < St.NumShards; ++S)
    if (!St.Done[S])
      Pending.push_back(S);
  unsigned Workers = std::max(1u, Exec.Threads);
  if (Pending.size() < Workers)
    Workers = std::max<size_t>(1, Pending.size());
  StealScheduler Sched(Workers);
  uint64_t Block = (Pending.size() + Workers - 1) / std::max(1u, Workers);
  {
    uint64_t Next = 0;
    for (unsigned W = 0; W < Workers && Next < Pending.size(); ++W) {
      uint64_t Hi = std::min<uint64_t>(Pending.size(), Next + Block);
      for (uint64_t K = Next; K < Hi; ++K)
        Sched.seed(W, Pending[K], Pending[K] + 1);
      Next = Hi;
    }
  }

  {
    // Covers the workers, during which their suffix memos fill; closes
    // with the keys they recorded and their peak heap bytes, summed over
    // workers.
    static const obs::Counter CtrMemoEntries("fi.memo.entries");
    obs::Span SpanMemo(St.PrefixCk ? "fi.memo" : "");
    if (Workers <= 1 || Pending.empty()) {
      workerLoop(St, Sched, 0);
    } else {
      ThreadPool Pool(Workers);
      for (unsigned W = 0; W < Workers; ++W)
        Pool.submit([&St, &Sched, W] { workerLoop(St, Sched, W); });
      Pool.wait();
    }
    uint64_t MemoEntries = St.MemoEntries.load(std::memory_order_relaxed);
    CtrMemoEntries.add(MemoEntries);
    SpanMemo.arg("memo_entries", MemoEntries);
    SpanMemo.arg("memo_bytes", St.MemoBytes.load(std::memory_order_relaxed));
  }

  if (!St.Error.empty()) {
    Result.Error = St.Error;
    return Result;
  }

  // Assemble the report from the per-run slots, in plan order: identical
  // bytes whatever the thread count, steal order or interruption history.
  uint64_t CompletedShards = 0;
  for (uint64_t S = 0; S < St.NumShards; ++S)
    CompletedShards += St.Done[S] != 0;
  Result.Interrupted = CompletedShards != St.NumShards;
  Result.Shards = St.NumShards;
  Result.ResumedShards = ResumedShards;
  Result.Steals = St.Steals.load(std::memory_order_relaxed);
  Result.SnapshotRebuilds = St.SnapshotRebuilds.load(std::memory_order_relaxed);
  Result.CheckpointsCreated = St.Ckpts.size();
  Result.CheckpointBytes = St.CkBytes;
  Result.CheckpointRestores = St.CkRestores.load(std::memory_order_relaxed);
  Result.SplicedRuns = St.SplicedRuns.load(std::memory_order_relaxed);
  Result.InjectionSplices =
      St.InjectionSplices.load(std::memory_order_relaxed);
  Result.SimulatedCycles = St.SimCycles.load(std::memory_order_relaxed);

  if (Exec.CollectProfile) {
    // Deterministic row order (workers finish in any order).
    std::sort(St.Profile.Workers.begin(), St.Profile.Workers.end(),
              [](const WorkerPhaseProfile &X, const WorkerPhaseProfile &Y) {
                return X.Worker < Y.Worker;
              });
    std::sort(St.Profile.Shards.begin(), St.Profile.Shards.end(),
              [](const ShardPhaseRecord &X, const ShardPhaseRecord &Y) {
                return X.Shard < Y.Shard;
              });
    St.Profile.Collected = true;
    Result.Profile = std::move(St.Profile);
  }

  // The slots move into the result: a run of an unfinished shard keeps
  // its default slot. The golden trace is in the archive from the start,
  // so only runs with another trace need a lookup.
  Result.Effects = std::move(St.Effects);
  Result.TraceHashes = std::move(St.Hashes);
  std::unordered_map<uint64_t, uint64_t> Archive; // hash -> byte size
  Archive.emplace(Golden.TraceHash, Golden.approxByteSize());
  for (uint64_t S = 0; S < St.NumShards; ++S) {
    if (!St.Done[S])
      continue;
    auto [Lo, Hi] = St.shardRange(S);
    Result.Runs += Hi - Lo;
    for (uint64_t K = Lo; K < Hi; ++K) {
      ++Result.EffectCounts[static_cast<unsigned>(Result.Effects[K])];
      if (Result.TraceHashes[K] != Golden.TraceHash)
        Archive.emplace(Result.TraceHashes[K], St.Bytes[K]);
    }
  }
  Result.DistinctTraces = Archive.size();
  for (const auto &[Hash, SizeBytes] : Archive)
    Result.ArchiveBytes += SizeBytes;

  if (Plan && Plan->sampled() && !Result.Interrupted)
    Result.Sample =
        summarizeSample(Result.EffectCounts, Result.Runs,
                        Plan->populationRuns(), Plan->options().SampleSeed);

  Result.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Result;
}

} // namespace

std::function<void(const CampaignProgress &)>
bec::throttledProgress(std::function<void(const CampaignProgress &)> Consumer) {
  // Engine invocations serialize OnProgress calls, so plain shared
  // state suffices.
  auto Last = std::make_shared<uint64_t>(0);
  return [Last, Consumer = std::move(Consumer)](const CampaignProgress &P) {
    if (!progressDue(*Last, P))
      return;
    *Last = P.ShardsDone;
    Consumer(P);
  };
}

uint64_t bec::campaignShardSize(uint64_t PlanRuns, uint64_t Requested) {
  if (Requested)
    return Requested;
  if (PlanRuns == 0)
    return 1;
  // Aim for ~64 shards: fine enough to balance and to bound re-work on
  // interruption, coarse enough that checkpoint and scheduling overhead
  // stay negligible. Never a function of the thread count, so any
  // --threads can resume any checkpoint.
  uint64_t Auto = (PlanRuns + 63) / 64;
  return std::clamp<uint64_t>(Auto, 32, 2048);
}

CampaignScalingDiagnosis
bec::diagnoseCampaignScaling(const CampaignPhaseProfile &P) {
  CampaignScalingDiagnosis D;
  uint64_t Wall = 0, Run = 0, Rebuild = 0, Restore = 0, Steal = 0, Idle = 0;
  double MaxBusy = 0, SumBusy = 0;
  for (const WorkerPhaseProfile &W : P.Workers) {
    Wall += W.WallUs;
    Run += W.RunUs;
    Rebuild += W.RebuildUs;
    Restore += W.RestoreUs;
    Steal += W.StealUs;
    Idle += W.IdleUs;
    double Busy = double(W.RunUs) + double(W.RebuildUs);
    MaxBusy = std::max(MaxBusy, Busy);
    SumBusy += Busy;
  }
  if (Wall == 0 || P.Workers.empty()) {
    D.DominantPhase = "run";
    D.Verdict = "empty profile (no workers ran)";
    return D;
  }
  D.RunFraction = double(Run) / double(Wall);
  D.RebuildFraction = double(Rebuild) / double(Wall);
  D.RestoreFraction = double(Restore) / double(Wall);
  D.StealFraction = double(Steal) / double(Wall);
  D.IdleFraction = double(Idle) / double(Wall);
  double MeanBusy = SumBusy / double(P.Workers.size());
  if (MeanBusy > 0)
    D.BusyImbalance = MaxBusy / MeanBusy;
  const struct {
    const char *Name;
    double F;
  } Phases[] = {{"run", D.RunFraction},
                {"rebuild", D.RebuildFraction},
                {"steal", D.StealFraction},
                {"idle", D.IdleFraction}};
  D.DominantPhase = Phases[0].Name;
  double BestF = Phases[0].F;
  for (const auto &Ph : Phases)
    if (Ph.F > BestF) {
      BestF = Ph.F;
      D.DominantPhase = Ph.Name;
    }
  // Thresholds pick the first phase large enough to explain flat
  // scaling; run-bound is the healthy default.
  if (D.RebuildFraction > 0.25)
    D.Verdict = "snapshot-rebuild-bound: stolen out-of-order shards pay "
                "prefix re-simulation; larger shards or stickier "
                "scheduling would help";
  else if (D.IdleFraction > 0.25)
    D.Verdict = "idle-bound: workers starve for shards; more shards "
                "(smaller --shard-size) or fewer threads would help";
  else if (D.StealFraction > 0.10)
    D.Verdict = "steal-contention: the scheduler lock serializes "
                "workers; coarser shards would help";
  else
    D.Verdict = "run-bound: fault-injection compute dominates; if "
                "speedup is still flat, the limit is outside the "
                "scheduler (memory bandwidth or shared-snapshot reuse)";
  return D;
}

std::string bec::renderCampaignProfileJson(const CampaignPhaseProfile &P) {
  CampaignScalingDiagnosis D = diagnoseCampaignScaling(P);
  JsonWriter W;
  W.beginObject();
  W.key("collected").value(P.Collected);
  W.key("workers").beginArray();
  for (const WorkerPhaseProfile &WP : P.Workers) {
    W.beginObject();
    W.key("worker").value(uint64_t(WP.Worker));
    W.key("wall_us").value(WP.WallUs);
    W.key("run_us").value(WP.RunUs);
    W.key("rebuild_us").value(WP.RebuildUs);
    W.key("restore_us").value(WP.RestoreUs);
    W.key("steal_us").value(WP.StealUs);
    W.key("idle_us").value(WP.IdleUs);
    W.key("runs").value(WP.Runs);
    W.key("shards").value(WP.Shards);
    W.key("steals").value(WP.Steals);
    W.key("rebuilds").value(WP.Rebuilds);
    W.key("restores").value(WP.Restores);
    W.endObject();
  }
  W.endArray();
  W.key("shards").beginArray();
  for (const ShardPhaseRecord &SR : P.Shards) {
    W.beginObject();
    W.key("shard").value(SR.Shard);
    W.key("worker").value(uint64_t(SR.Worker));
    W.key("runs").value(SR.Runs);
    W.key("stolen").value(SR.Stolen);
    W.key("rebuild_us").value(SR.RebuildUs);
    W.key("run_us").value(SR.RunUs);
    W.key("restore_us").value(SR.RestoreUs);
    W.endObject();
  }
  W.endArray();
  W.key("diagnosis").beginObject();
  W.key("run_fraction").value(D.RunFraction);
  W.key("rebuild_fraction").value(D.RebuildFraction);
  W.key("restore_fraction").value(D.RestoreFraction);
  W.key("steal_fraction").value(D.StealFraction);
  W.key("idle_fraction").value(D.IdleFraction);
  W.key("busy_imbalance").value(D.BusyImbalance);
  W.key("dominant_phase").value(D.DominantPhase);
  W.key("verdict").value(D.Verdict);
  W.endObject();
  W.endObject();
  return W.take();
}

CampaignResult bec::runCampaign(const Program &Prog, const Trace &Golden,
                                const CampaignPlan &Plan,
                                const CampaignExecOptions &Exec) {
  return runShardedImpl(Prog, Golden, Plan.runs(), &Plan, Exec);
}

CampaignResult bec::runCampaign(const Program &Prog, const Trace &Golden,
                                std::vector<PlannedRun> Plan) {
  // The engine runs in injection-cycle order, which a caller-built list
  // need not be in: run a stably sorted copy and map the per-run slots
  // back to the caller's order.
  std::vector<uint32_t> Order(Plan.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t X, uint32_t Y) {
    return injectedEarlier(Plan[X], Plan[Y]);
  });
  std::vector<PlannedRun> Sorted;
  Sorted.reserve(Plan.size());
  for (uint32_t I : Order)
    Sorted.push_back(Plan[I]);
  CampaignResult R = runShardedImpl(Prog, Golden, Sorted, /*Plan=*/nullptr,
                                    CampaignExecOptions{});
  if (!R.Error.empty())
    return R;
  std::vector<FaultEffect> Effects(Plan.size());
  std::vector<uint64_t> Hashes(Plan.size());
  for (size_t K = 0; K < Order.size(); ++K) {
    Effects[Order[K]] = R.Effects[K];
    Hashes[Order[K]] = R.TraceHashes[K];
  }
  R.Effects = std::move(Effects);
  R.TraceHashes = std::move(Hashes);
  return R;
}
