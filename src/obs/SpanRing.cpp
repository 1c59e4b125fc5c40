//===- obs/SpanRing.cpp - Bounded ring of trace-context request spans -----===//

#include "obs/SpanRing.h"

#include "support/StringUtils.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <random>

using namespace bec;
using namespace bec::obs;

namespace {

constexpr size_t RingCapacity = 4096;

struct RingState {
  std::mutex Mu;
  std::deque<RingSpan> Spans;
  std::string Process = "bec";
  std::atomic<uint64_t> NextTid{0};
};

RingState &state() {
  // Leaked like the other obs singletons: usable during teardown.
  static RingState *S = new RingState();
  return *S;
}

/// splitmix64 over a random-device-seeded counter: ids are unique per
/// process and unpredictable enough to never collide across the three
/// processes of one trace.
uint64_t nextRandom() {
  static std::atomic<uint64_t> Counter{[] {
    std::random_device RD;
    return (uint64_t(RD()) << 32) ^ RD();
  }()};
  uint64_t Z = Counter.fetch_add(0x9e3779b97f4a7c15, std::memory_order_relaxed)
               + 0x9e3779b97f4a7c15;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111eb;
  return Z ^ (Z >> 31);
}

uint64_t wallNowUs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count());
}

uint64_t steadyNowUs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

thread_local uint64_t TLTid = ~uint64_t(0);

uint64_t ringTid() {
  if (TLTid == ~uint64_t(0))
    TLTid = state().NextTid.fetch_add(1, std::memory_order_relaxed);
  return TLTid;
}

} // namespace

std::string bec::obs::newTraceId128() {
  return hex64(nextRandom()) + hex64(nextRandom());
}

std::string bec::obs::newSpanId64() { return hex64(nextRandom()); }

void bec::obs::setSpanRingProcess(std::string Name) {
  RingState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Process = std::move(Name);
}

std::string bec::obs::spanRingProcess() {
  RingState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Process;
}

void bec::obs::spanRingRecord(RingSpan Sp) {
  RingState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Spans.size() >= RingCapacity)
    S.Spans.pop_front();
  S.Spans.push_back(std::move(Sp));
}

std::vector<RingSpan>
bec::obs::spanRingSnapshot(std::string_view TraceIdFilter) {
  RingState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  std::vector<RingSpan> Out;
  for (const RingSpan &Sp : S.Spans)
    if (TraceIdFilter.empty() || Sp.TraceId == TraceIdFilter)
      Out.push_back(Sp);
  return Out;
}

std::string bec::obs::renderRingSpanJson(const RingSpan &S,
                                         std::string_view Process) {
  auto AppendStr = [](std::string &Out, std::string_view V) {
    Out += '"';
    for (char C : V) {
      if (C == '"' || C == '\\')
        Out += '\\';
      if (uint8_t(C) < 0x20) {
        // Control characters cannot appear in valid ids/names; drop
        // them rather than emit invalid JSON.
        continue;
      }
      Out += C;
    }
    Out += '"';
  };
  std::string Out = "{\"name\":";
  AppendStr(Out, S.Name);
  Out += ",\"trace_id\":";
  AppendStr(Out, S.TraceId);
  Out += ",\"span_id\":";
  AppendStr(Out, S.SpanId);
  Out += ",\"parent_span\":";
  AppendStr(Out, S.ParentSpan);
  Out += ",\"start_us\":" + std::to_string(S.StartUs);
  Out += ",\"dur_us\":" + std::to_string(S.DurUs);
  Out += ",\"tid\":" + std::to_string(S.Tid);
  Out += ",\"process\":";
  AppendStr(Out, Process);
  if (!S.ArgsJson.empty()) {
    Out += ",\"args\":";
    Out += S.ArgsJson;
  }
  Out += '}';
  return Out;
}

void bec::obs::spanRingClear() {
  RingState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Spans.clear();
}

RingSpanScope::RingSpanScope(std::string_view TraceId,
                             std::string_view ParentSpan, std::string Name) {
  if (TraceId.empty())
    return;
  Active = true;
  S.TraceId = std::string(TraceId);
  S.SpanId = newSpanId64();
  S.ParentSpan = std::string(ParentSpan);
  S.Name = std::move(Name);
  S.StartUs = wallNowUs();
  S.Tid = ringTid();
  SteadyStartUs = steadyNowUs();
}

void RingSpanScope::appendArgKey(const char *Key) {
  if (S.ArgsJson.empty())
    S.ArgsJson = "{";
  else {
    S.ArgsJson.pop_back();
    S.ArgsJson += ',';
  }
  S.ArgsJson += '"';
  S.ArgsJson += Key; // Static keys, no escaping needed.
  S.ArgsJson += "\":";
}

void RingSpanScope::arg(const char *Key, uint64_t V) {
  if (!Active)
    return;
  appendArgKey(Key);
  S.ArgsJson += std::to_string(V);
  S.ArgsJson += '}';
}

void RingSpanScope::arg(const char *Key, std::string_view V) {
  if (!Active)
    return;
  appendArgKey(Key);
  S.ArgsJson += '"';
  for (char C : V) {
    if (C == '"' || C == '\\')
      S.ArgsJson += '\\';
    S.ArgsJson += C;
  }
  S.ArgsJson += "\"}";
}

RingSpanScope::~RingSpanScope() {
  if (!Active)
    return;
  uint64_t End = steadyNowUs();
  S.DurUs = End > SteadyStartUs ? End - SteadyStartUs : 0;
  spanRingRecord(std::move(S));
}
