//===- obs/Trace.cpp - Span tracer emitting Chrome trace_event JSON -------===//

#include "obs/Trace.h"

#include "support/File.h"
#include "support/Json.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

using namespace bec;
using namespace bec::obs;

#ifndef BEC_OBS_DISABLED

namespace {

struct Event {
  std::string Name;
  std::string ArgsJson; ///< Pre-rendered {"k":v,...}; empty = no args.
  uint64_t TsUs = 0;
  uint32_t Tid = 0;
  char Phase = 'B'; ///< 'B' begin, 'E' end, 'M' metadata (thread_name).
};

struct EventBuf; // Forward.

struct TraceState {
  std::atomic<bool> Active{false};
  /// Bumped by every traceBegin(); spans opened under an older
  /// generation never emit into a newer trace.
  std::atomic<uint64_t> Generation{0};
  std::chrono::steady_clock::time_point Start;

  std::mutex Mu;
  std::vector<EventBuf *> Live;       ///< Buffers of live threads.
  std::vector<Event> Flushed;         ///< From exited threads, current gen.
  uint32_t NextTid = 0;               ///< Stable small viewer tids.
};

TraceState &state() {
  // Leaked like the metrics registry: exiting threads flush here during
  // process teardown.
  static TraceState *S = new TraceState();
  return *S;
}

/// Per-thread event buffer: appends are unsynchronized (only this
/// thread writes), harvest happens in traceEnd() after instrumented
/// work has joined, flush-on-exit happens under the state mutex.
struct EventBuf {
  std::vector<Event> Events;
  uint64_t Gen = 0;
  uint32_t Tid = 0;

  void ensureGen(TraceState &S) {
    uint64_t G = S.Generation.load(std::memory_order_acquire);
    if (Gen == G)
      return;
    Events.clear();
    Gen = G;
    std::lock_guard<std::mutex> Lock(S.Mu);
    Tid = S.NextTid++;
    bool Registered = false;
    for (EventBuf *Buf : S.Live)
      Registered |= Buf == this;
    if (!Registered)
      S.Live.push_back(this);
  }

  ~EventBuf() {
    TraceState &S = state();
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (Gen == S.Generation.load(std::memory_order_relaxed))
      for (Event &E : Events)
        S.Flushed.push_back(std::move(E));
    for (size_t I = 0; I < S.Live.size(); ++I)
      if (S.Live[I] == this) {
        S.Live.erase(S.Live.begin() + I);
        break;
      }
  }
};

thread_local EventBuf TLBuf;

uint64_t nowUs(const TraceState &S) {
  auto D = std::chrono::steady_clock::now() - S.Start;
  auto Us = std::chrono::duration_cast<std::chrono::microseconds>(D).count();
  return Us < 0 ? 0 : uint64_t(Us);
}

std::string renderArgs(std::initializer_list<SpanArg> Args) {
  std::string Out = "{";
  bool First = true;
  for (const SpanArg &A : Args) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += A.first; // Static keys, no escaping needed.
    Out += "\":";
    Out += std::to_string(A.second);
  }
  Out += '}';
  return Out;
}

void emit(Event E) {
  TraceState &S = state();
  TLBuf.ensureGen(S);
  E.Tid = TLBuf.Tid;
  TLBuf.Events.push_back(std::move(E));
}

} // namespace

bool bec::obs::traceActive() {
  return state().Active.load(std::memory_order_relaxed);
}

void bec::obs::traceBegin() {
  TraceState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Flushed.clear();
  S.NextTid = 0;
  S.Start = std::chrono::steady_clock::now();
  S.Generation.fetch_add(1, std::memory_order_release);
  S.Active.store(true, std::memory_order_release);
}

std::string bec::obs::traceEnd() {
  TraceState &S = state();
  S.Active.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(S.Mu);
  uint64_t Gen = S.Generation.load(std::memory_order_relaxed);

  // JsonWriter cannot splice the pre-rendered args objects, so the
  // events array is assembled by hand (the writer still does every
  // string escape).
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto Append = [&](const Event &E) {
    if (!First)
      Out += ',';
    First = false;
    JsonWriter EW;
    EW.beginObject();
    EW.key("name").value(E.Name);
    EW.key("cat").value("bec");
    EW.key("ph").value(std::string_view(&E.Phase, 1));
    EW.key("ts").value(E.TsUs);
    EW.key("pid").value(uint64_t(1));
    EW.key("tid").value(uint64_t(E.Tid));
    EW.endObject();
    std::string Obj = EW.take();
    if (!E.ArgsJson.empty()) {
      Obj.pop_back(); // Strip '}' to splice the pre-rendered args.
      Obj += ",\"args\":";
      Obj += E.ArgsJson;
      Obj += '}';
    }
    Out += Obj;
  };
  for (const Event &E : S.Flushed)
    Append(E);
  for (const EventBuf *B : S.Live)
    if (B->Gen == Gen)
      for (const Event &E : B->Events)
        Append(E);
  Out += "]}\n";
  return Out;
}

void bec::obs::setTraceThreadName(const std::string &Name) {
  if (!traceActive())
    return;
  Event E;
  E.Name = "thread_name";
  E.Phase = 'M';
  JsonWriter W;
  W.beginObject();
  W.key("name").value(Name);
  W.endObject();
  E.ArgsJson = W.take();
  E.TsUs = 0;
  emit(std::move(E));
}

Span::Span(std::string SpanName) {
  if (SpanName.empty() || !traceActive())
    return;
  TraceState &S = state();
  Live = true;
  Gen = S.Generation.load(std::memory_order_acquire);
  Name = std::move(SpanName);
  Event E;
  E.Name = Name;
  E.Phase = 'B';
  E.TsUs = nowUs(S);
  emit(std::move(E));
}

Span::Span(std::string SpanName, std::initializer_list<SpanArg> Args) {
  if (SpanName.empty() || !traceActive())
    return;
  TraceState &S = state();
  Live = true;
  Gen = S.Generation.load(std::memory_order_acquire);
  Name = std::move(SpanName);
  Event E;
  E.Name = Name;
  E.Phase = 'B';
  E.TsUs = nowUs(S);
  E.ArgsJson = renderArgs(Args);
  emit(std::move(E));
}

void Span::arg(const char *Key, uint64_t V) {
  if (!Live)
    return;
  if (EndArgs.empty())
    EndArgs = "{";
  else {
    EndArgs.pop_back(); // '}' not yet appended; EndArgs ends with value.
    EndArgs += ',';
  }
  EndArgs += '"';
  EndArgs += Key;
  EndArgs += "\":";
  EndArgs += std::to_string(V);
  EndArgs += '}';
}

void Span::argStr(const char *Key, std::string_view V) {
  if (!Live)
    return;
  if (EndArgs.empty())
    EndArgs = "{";
  else {
    EndArgs.pop_back();
    EndArgs += ',';
  }
  EndArgs += '"';
  EndArgs += Key;
  EndArgs += "\":";
  JsonWriter W;
  W.value(V);
  EndArgs += W.take();
  EndArgs += '}';
}

Span::~Span() {
  if (!Live)
    return;
  TraceState &S = state();
  // A span closing after traceEnd() (or inside a newer trace) stays
  // silent: its B event is gone, an E would be unbalanced.
  if (Gen != S.Generation.load(std::memory_order_acquire) ||
      !S.Active.load(std::memory_order_relaxed))
    return;
  Event E;
  E.Name = std::move(Name); // E repeats the name; viewers match by stack.
  E.Phase = 'E';
  E.TsUs = nowUs(S);
  E.ArgsJson = std::move(EndArgs);
  emit(std::move(E));
}

#endif // BEC_OBS_DISABLED

bool bec::obs::writeTrace(const std::string &Path, std::string &Err) {
  if (writeFile(Path, traceEnd()))
    return true;
  Err = "cannot write trace file '" + Path + "'";
  return false;
}
