//===- perfbench/Expected.h - Values recorded for the correctness gate ----===//
///
/// \file
/// Results the benchmark's outputs are compared against. They were
/// recorded once from the library and must never change under a
/// performance change: a later change that moves one of them changed
/// behaviour, and the gate counts it as a failure.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_EXPECTED_H
#define PERFBENCH_EXPECTED_H

#include "fi/Campaign.h"

#include <array>
#include <cstdint>
#include <string_view>

namespace perfbench {

/// One bundled kernel's Table III row over its full golden trace.
struct KernelExpectation {
  std::string_view Name;
  uint32_t Instrs;
  uint64_t Cycles;
  uint64_t FaultSpace;
  uint64_t ValueLevelRuns;
  uint64_t BitLevelRuns;
  uint64_t Vulnerability;
};

inline constexpr KernelExpectation KernelExpectations[] = {
    // clang-format off
    {"bitcount",  40, 3105, 3179520, 105472, 92832, 892498},
    {"dijkstra",  58, 1203, 1231872, 59296, 58576, 412560},
    {"CRC32",     37, 1665, 1704960, 58592, 41136, 322200},
    {"adpcm_enc", 69, 1172, 1200128, 48224, 44818, 367915},
    {"adpcm_dec", 112, 1959, 2006016, 80000, 69628, 600792},
    {"AES",       173, 5882, 6023168, 269280, 224952, 1895977},
    {"RSA",       21, 1806, 1849344, 73120, 73120, 393632},
    {"SHA",       96, 3538, 3622912, 148000, 113728, 853024},
    // clang-format on
};

inline const KernelExpectation *findKernelExpectation(std::string_view Name) {
  for (const KernelExpectation &E : KernelExpectations)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

/// The analyze phase's fixed generated corpus: fuzz::programSeed(
/// FixedCorpusSeed, I) for I below 400 (12 at smoke-check sizes), whatever
/// the run seed. The digest folds each program's instructions, golden
/// trace and outputs, Table III counts, vulnerability, BEC bit classes and
/// three schedules, keyed by I.
inline constexpr uint64_t FixedCorpusSeed = 20240301;
inline constexpr uint64_t FixedCorpusDigest = 0x686e96b6e0c5a97full;
inline constexpr uint64_t TinyFixedCorpusDigest = 0xc0732a8240c662adull;

/// One campaign of the `campaign` phase and its recorded effect counts
/// (indexed by bec::FaultEffect: masked, benign, sdc, trap, hang).
struct CampaignExpectation {
  std::string_view Kernel;
  bec::PlanKind Plan;
  uint64_t MaxCycles; ///< 0 = the full golden trace.
  uint64_t Runs;
  std::array<uint64_t, bec::NumFaultEffects> Effects;
  uint64_t DistinctTraces;
};

/// Full size: bit-level over bitcount, CRC32 and SHA, plus an exhaustive
/// bitcount plan over a 1000-cycle window.
inline constexpr CampaignExpectation CampaignExpectations[] = {
    // clang-format off
    {"bitcount", bec::PlanKind::BitLevel,   0,    104853, {6511, 0, 92745, 5597, 0}, 1331},
    {"CRC32",    bec::PlanKind::BitLevel,   0,    50408, {1414, 0, 36153, 1216, 11625}, 5490},
    {"SHA",      bec::PlanKind::BitLevel,   0,    141056, {8284, 1311, 106721, 24740, 0}, 21931},
    {"bitcount", bec::PlanKind::Exhaustive, 1000, 1024000, {739251, 0, 222089, 62660, 0}, 544},
    // clang-format on
};

/// The smoke check's sizes: the same plans over short windows.
inline constexpr CampaignExpectation TinyCampaignExpectations[] = {
    // clang-format off
    {"bitcount", bec::PlanKind::BitLevel,   300, 9724, {667, 0, 8916, 141, 0}, 190},
    {"CRC32",    bec::PlanKind::BitLevel,   300, 9040, {215, 0, 6505, 228, 2092}, 1024},
    {"SHA",      bec::PlanKind::BitLevel,   300, 12158, {266, 875, 6060, 4957, 0}, 2257},
    {"bitcount", bec::PlanKind::Exhaustive, 100, 102400, {74500, 0, 21879, 6021, 0}, 156},
    // clang-format on
};

} // namespace perfbench

#endif // PERFBENCH_EXPECTED_H
