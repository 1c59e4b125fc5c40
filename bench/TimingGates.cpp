//===- bench/TimingGates.cpp - The wall-clock gates with no count form ----===//
///
/// \file
/// The performance claims only a clock can check. Every other perf gate
/// is a ctest over exact counts (pruned vs. exhaustive run counts,
/// simulated cycles with and without prefix checkpoints, the
/// 1000-connection soak); these need wall time, so they live in one
/// program that CI runs as one step. It prints what it measured, writes
/// no file, and aborts (reportFatalError) when a bound is missed:
///
///   * obs overhead: the campaign engine with metrics on, and with
///     metrics on plus the logger armed at Info (the deployed daemon
///     shape: per-shard Debug lines pay the gate but never render), runs
///     within 5% of the same campaign with metrics switched off at
///     runtime. Best of 5 alternating repetitions per side, so all sides
///     share code generation and drift lands evenly. 3% is the
///     documented budget; 5% is the ceiling, so noise on small runners
///     does not flap while a lock or shared cache line (2x, not 1.05x)
///     still fails.
///   * engine scaling: 16 engine threads run the pruned plan >= 6x
///     faster than one (best of bitcount and CRC32, each over its full
///     golden trace with prefix checkpoints off, so the 1-thread leg
///     runs for seconds and thread start-up is noise). Only on hosts
///     with >= 8 cores: on fewer, the assert would measure the scheduler
///     of an oversubscribed host, not the engine.
///   * serve: a live event-loop becd at 1 / 4 / 16 clients. Warm
///     requests (bundled workloads, every one a cross-client session
///     cache hit) are >= 5x faster than cold ones (a new program per
///     request: intern + analyze), by mean latency summed over the
///     levels. 16 cold clients clear >= 3x one client's throughput on
///     hosts with >= 8 cores; on fewer, cold analyses are CPU-bound and
///     only the no-collapse bound (>= 0.6x) holds.
///
/// Usage: bench_TimingGates (no arguments).
///
//===----------------------------------------------------------------------===//

#include "api/Api.h"

#include "fi/Engine.h"
#include "net/EventLoop.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "serve/Client.h"
#include "serve/Service.h"
#include "support/Debug.h"
#include "support/Json.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace bec;
using namespace bec::serve;

namespace {

constexpr double ObsBudget = 0.03;  ///< Documented; over it only warns.
constexpr double ObsCeiling = 0.05; ///< Fails the gate.
constexpr unsigned ObsReps = 5;

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string printed(const char *Format, double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, Format, V);
  return Buf;
}

/// Engine-measured seconds of one campaign of \p Plan at \p Threads.
double campaignSeconds(AnalysisSession &S, AnalysisSession::TargetId T,
                       const CampaignPlan &Plan, unsigned Threads) {
  CampaignExecOptions Exec;
  Exec.Threads = Threads;
  CampaignResult R =
      runCampaign(S.program(T), *S.get<TraceQuery>(T), Plan, Exec);
  if (!R.Error.empty())
    reportFatalError("campaign engine failed");
  return R.Seconds;
}

CampaignPlan planFor(AnalysisSession &S, AnalysisSession::TargetId T,
                     const PlanOptions &O) {
  return CampaignPlan::build(*S.get<BECQuery>(T), *S.get<TraceQuery>(T), O);
}

void obsOverheadGate(AnalysisSession &S) {
  AnalysisSession::TargetId T = *S.addWorkload("CRC32");
  PlanOptions PO;
  PO.Kind = PlanKind::Exhaustive; // Maximum runs => maximum obs pressure.
  PO.MaxCycles = 256;
  CampaignPlan Plan = planFor(S, T, PO);

  struct Side {
    const char *Label;
    bool Metrics;
    obs::LogLevel Level;
    double BestSeconds = 1e100;
  } Sides[] = {{"enabled", true, obs::LogLevel::Off},
               {"logging-quiet", true, obs::LogLevel::Info},
               {"disabled", false, obs::LogLevel::Off}};
  campaignSeconds(S, T, Plan, 1); // First-touch effects land here.
  for (unsigned Rep = 0; Rep < ObsReps; ++Rep)
    for (Side &Sd : Sides) {
      obs::setMetricsEnabled(Sd.Metrics);
      obs::setLogLevel(Sd.Level);
      Sd.BestSeconds =
          std::min(Sd.BestSeconds, campaignSeconds(S, T, Plan, 1));
    }
  obs::setMetricsEnabled(true);
  obs::setLogLevel(obs::LogLevel::Off);

  const double Disabled = Sides[2].BestSeconds;
  std::printf("obs overhead: CRC32 exhaustive, %zu runs, best of %u\n",
              Plan.runs().size(), ObsReps);
  for (const Side &Sd : Sides) {
    if (!Sd.Metrics)
      continue;
    // Measured faster than disabled is noise, not a speedup.
    double Overhead = std::max(0.0, 1.0 - Disabled / Sd.BestSeconds);
    std::printf("  %-13s %.2f%% (budget %.0f%%, ceiling %.0f%%)\n", Sd.Label,
                Overhead * 100, ObsBudget * 100, ObsCeiling * 100);
    if (Overhead >= ObsBudget)
      std::printf("  WARNING: %s is over the documented budget\n", Sd.Label);
    if (Overhead >= ObsCeiling)
      reportFatalError("obs overhead exceeds the 5% ceiling: a lock or a "
                       "shared cache line crept into the hot path, or an "
                       "armed-but-quiet logger costs more than a load and "
                       "a branch per gated site");
  }
}

void engineScalingGate(AnalysisSession &S, unsigned Cores) {
  if (Cores < 8) {
    std::printf("engine scaling: skipped (%u hardware threads; the 16-vs-1 "
                "gate needs >= 8)\n",
                Cores);
    return;
  }
  double Best = 0;
  for (const char *Name : {"bitcount", "CRC32"}) {
    AnalysisSession::TargetId T = *S.addWorkload(Name);
    PlanOptions PO;
    PO.Kind = PlanKind::BitLevel;
    PO.PrefixCheckpoint = false;
    CampaignPlan Plan = planFor(S, T, PO);
    double One = campaignSeconds(S, T, Plan, 1);
    double Sixteen = campaignSeconds(S, T, Plan, 16);
    double Scaling = Sixteen > 0 ? One / Sixteen : 0;
    std::printf("engine scaling: %s pruned, %zu runs, 1 thread %.2f s, "
                "16 vs 1 threads: %.1fx\n",
                Name, Plan.runs().size(), One, Scaling);
    Best = std::max(Best, Scaling);
  }
  if (Best < 6.0)
    reportFatalError("16 threads are less than 6x faster than one on the "
                     "pruned plan");
}

/// A unique analysis-worthy kernel per seed: ~1500 iterations of a
/// mixing loop, so a cold request pays a realistic trace + BEC cost and
/// every seed yields distinct program content.
std::string coldAsm(unsigned Seed) {
  char Buf[512];
  std::snprintf(Buf, sizeof Buf, R"(main:
  li   s0, %u
  li   s1, 0
  li   s2, 1500
loop:
  andi t0, s0, 1
  add  s1, s1, t0
  slli t1, s0, 1
  srli t2, s0, 3
  xor  s0, t1, t2
  xori s0, s0, %u
  addi s2, s2, -1
  bnez s2, loop
  out  s1
  ret
)",
                (Seed * 2654435761u) % 100000, Seed % 64 + 1);
  return Buf;
}

std::string jsonString(std::string_view S) {
  JsonWriter W;
  W.value(S);
  return W.take();
}

/// Mean latency and throughput of one load level.
struct Phase {
  double MeanUs = 0;
  double OpsPerS = 0;
};

/// One load level: \p Clients threads, each on its own connection, run
/// \p Ops ops; Op(client, client index, op index) makes the calls of one
/// op and says whether they succeeded.
template <class Fn>
Phase runPhase(uint16_t Port, unsigned Clients, unsigned Ops, Fn &&Op) {
  std::vector<double> SumUs(Clients, 0);
  std::vector<std::thread> Threads;
  double T0 = nowSeconds();
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      std::string Err;
      std::optional<Client> Cl = Client::connect("127.0.0.1", Port, Err);
      if (!Cl)
        reportFatalError("load client connect failed");
      for (unsigned I = 0; I < Ops; ++I) {
        double Start = nowSeconds();
        if (!Op(*Cl, C, I))
          reportFatalError("load request failed");
        SumUs[C] += (nowSeconds() - Start) * 1e6;
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  double Wall = nowSeconds() - T0;
  double Sum = 0;
  for (double S : SumUs)
    Sum += S;
  return {Sum / (Clients * Ops), Clients * Ops / Wall};
}

void serveGates(unsigned Cores) {
  Service Svc;
  net::EventServer::Options EO;
  EO.Port = 0;
  EO.Workers = 0; // One per core: cold analyses are CPU-bound.
  net::EventServer Srv(
      [&Svc](std::string_view Line, const net::FrameSink &Sink) {
        return Svc.handleFrameStreaming(Line, Sink);
      },
      Svc.handshakeFrame(), EO);
  Srv.setDrainCheck([&Svc] { return Svc.isShuttingDown(); });
  std::string Err;
  if (!Srv.start(Err))
    reportFatalError("serve gate: server start failed");
  std::thread ServerThread([&] { Srv.run(); });
  uint16_t Port = Srv.port();

  // Pre-warm every bundled workload so each warm request is a hit.
  std::optional<Client> Admin = Client::connect("127.0.0.1", Port, Err);
  if (!Admin || !Admin->call("analyze", "{\"format\":\"json\"}").Ok)
    reportFatalError("serve gate: warm-up analyze failed");

  std::atomic<unsigned> NextSeed{1};
  auto Cold = [&](Client &C, unsigned, unsigned) {
    unsigned Seed = NextSeed.fetch_add(1);
    std::string Name = jsonString("cold-" + std::to_string(Seed) + ".s");
    return C.call("intern", "{\"name\":" + Name +
                                ",\"asm\":" + jsonString(coldAsm(Seed)) + "}")
               .Ok &&
           C.call("analyze", "{\"targets\":[" + Name +
                                 "],\"format\":\"json\"}")
               .Ok;
  };
  const std::vector<Workload> &All = allWorkloads();
  auto Warm = [&](Client &C, unsigned Stagger, unsigned I) {
    const Workload &W = All[(I + Stagger) % All.size()];
    return C.call("analyze", "{\"targets\":[" + jsonString(W.Name) +
                                 "],\"format\":\"json\"}")
        .Ok;
  };

  Table Tbl({"clients", "cold op/s", "cold mean", "warm op/s", "warm mean"});
  double ColdMeanSum = 0, WarmMeanSum = 0, Cold1 = 0, Cold16 = 0;
  for (unsigned Clients : {1u, 4u, 16u}) {
    Phase C = runPhase(Port, Clients, 6, Cold);
    Phase W = runPhase(Port, Clients, 24, Warm);
    ColdMeanSum += C.MeanUs;
    WarmMeanSum += W.MeanUs;
    (Clients == 1 ? Cold1 : Cold16) = C.OpsPerS;
    Tbl.row()
        .cell(uint64_t(Clients))
        .cell(printed("%.0f", C.OpsPerS))
        .cell(printed("%.0f us", C.MeanUs))
        .cell(printed("%.0f", W.OpsPerS))
        .cell(printed("%.0f us", W.MeanUs));
  }
  Admin->call("shutdown"); // Exercises the drain.
  ServerThread.join();

  double Speedup = WarmMeanSum > 0 ? ColdMeanSum / WarmMeanSum : 0;
  double ColdScaling = Cold1 > 0 ? Cold16 / Cold1 : 0;
  std::printf("serve: cold (new program per request) vs. warm (cross-client "
              "cache hits)\n%s",
              Tbl.render().c_str());
  std::printf("  warm speedup over cold: %.1fx (mean latency, all levels)\n",
              Speedup);
  std::printf("  cold scaling 16 vs 1 clients: %.2fx on %u hardware "
              "threads\n",
              ColdScaling, Cores);
  if (Speedup < 5.0)
    reportFatalError("warm requests are less than 5x faster than cold");
  if (Cores >= 8 && ColdScaling < 3.0)
    reportFatalError("16 cold clients are not >= 3x one client");
  if (ColdScaling < 0.6)
    reportFatalError("cold throughput collapsed under concurrency");
}

} // namespace

int main() {
  // Line-buffered, so a failed gate's numbers reach a piped CI log
  // before reportFatalError aborts.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  unsigned Cores = std::thread::hardware_concurrency();
  AnalysisSession S;
  obsOverheadGate(S);
  engineScalingGate(S, Cores);
  serveGates(Cores);
  std::printf("all timing gates passed\n");
  return 0;
}
