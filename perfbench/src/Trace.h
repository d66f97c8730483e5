//===- Trace.h - Benchmark-side layer spans ---------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the traffic generator around its calls into each layer
/// of the system (trampoline, JNI, heap, checked access, workloads). One
/// SpanRecorder per worker thread: no sharing, no atomics. Spans of the
/// current request live on a small stack; when the request ends their self
/// times are folded into per-layer accumulators and the spans are appended
/// to a bounded in-memory log that is written out after the run.
///
/// A disabled recorder costs one predictable branch per span site, so the
/// untraced run executes the same generator code as the traced one.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "mte4jni/support/Timer.h"

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  Request,       ///< the whole request (service time, not queueing)
  Trampoline,    ///< rt::callNative, including its body
  NativeBody,    ///< the native method body inside callNative
  JniAcquire,    ///< Get*Critical / Get*ArrayElements
  JniRelease,    ///< Release*Critical / Release*ArrayElements
  JniRegionCopy, ///< Get/SetIntArrayRegion
  HeapAlloc,     ///< NewIntArray* (JavaHeap allocation)
  MteScan,       ///< checked-load loop or mte::readBytes
  MteStore,      ///< checked-store loop
  Safepoint,     ///< Runtime::safepointPoll that waited >= kSlowPollNs
  HtmlRun,       ///< workloads::Workload::run
  Verify,        ///< the generator's own checksum of a request's output
  kCount
};

const char *spanNameString(SpanName Name);

/// Spans that belong to no layer: time inside them that no child covers
/// is benchmark code, counted as unattributed. Verify is the generator's
/// own, but known, work: it is attributed, and reported on its own.
inline bool isLayerSpan(SpanName Name) {
  return Name != SpanName::Request && Name != SpanName::NativeBody;
}

struct Span {
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint64_t Request = 0;
  /// Safepoint poll time spent directly inside this span that was not
  /// recorded as a child span (polls are too frequent to log each one).
  uint64_t PollNs = 0;
  /// MteScan/MteStore: granule checks the spanned accesses perform (one
  /// per scalar access, one per 16 bytes of a bulk access).
  uint32_t Granules = 0;
  int16_t Parent = -1; ///< index within the request, -1 for the root
  SpanName Name = SpanName::Request;
};

/// Per-worker layer totals, folded from span self times at request end.
struct LayerAccum {
  std::vector<uint32_t> TrampolineSelf; ///< per callNative
  std::vector<uint32_t> Acquire;        ///< per Get* call
  std::vector<uint32_t> Release;        ///< per Release* call
  std::vector<uint32_t> RegionCopy;     ///< per Get/Set*Region call
  std::vector<uint32_t> Alloc;          ///< per NewIntArray* call
  std::vector<uint32_t> HtmlRun;        ///< per Workload::run
  std::vector<uint32_t> ScanPerReq;     ///< checked-load time per request
  std::vector<uint32_t> StorePerReq;    ///< checked-store time per request
  uint64_t ScanNs = 0;
  uint64_t StoreNs = 0;
  uint64_t CheckedGranules = 0; ///< granule checks inside scan/store spans
  uint64_t PollWaitNs = 0;
  uint64_t Polls = 0;
  uint64_t PollsOver10us = 0;
  uint64_t RequestNs = 0;
  uint64_t UnattributedNs = 0;
  uint64_t VerifyNs = 0;
  uint64_t DroppedSpans = 0;

  /// Appends \p Other's samples and adds its totals.
  void merge(const LayerAccum &Other);
};

class SpanRecorder {
public:
  /// A poll waiting at least this long is counted as slow and also
  /// logged as its own span.
  static constexpr uint64_t kSlowPollNs = 10'000;
  /// One poll in this many is timed (the first of each scan always is):
  /// timing all of them doubled an 8K-char scan's cost.
  static constexpr unsigned kPollSampleEvery = 8;
  static constexpr size_t kMaxSpansPerRequest = 32;

  SpanRecorder(bool Enabled, size_t LogCapacity)
      : Enabled(Enabled), LogCapacity(LogCapacity) {
    if (Enabled)
      Log.reserve(LogCapacity);
  }

  /// Starts a request; \p Record says whether its spans count (warm-up
  /// requests are traced at the same cost but not accumulated).
  void beginRequest(uint64_t Id, bool Record) {
    Cur = 0;
    Top = -1;
    RequestId = Id;
    Recording = Record;
    PollNs = 0;
    Polls = 0;
    PollsOver10us = 0;
  }

  int open(SpanName Name, uint32_t Granules) {
    if (!Enabled || Cur >= kMaxSpansPerRequest)
      return -1;
    Span &S = Stack[Cur];
    S = Span();
    S.Name = Name;
    S.Granules = Granules;
    S.Request = RequestId;
    S.Parent = static_cast<int16_t>(Top);
    S.StartNs = mte4jni::support::monotonicNanos();
    Top = static_cast<int>(Cur);
    return static_cast<int>(Cur++);
  }

  void close(int Index) {
    if (Index < 0)
      return;
    Span &S = Stack[static_cast<size_t>(Index)];
    S.EndNs = mte4jni::support::monotonicNanos();
    Top = S.Parent;
  }

  /// Runs \p Poll (a Runtime::safepointPoll call), timing it when enabled
  /// and \p Sampled. Wait sums and slow counts cover timed polls only;
  /// a scan shorter than kPollSampleEvery strides has all its polls timed.
  template <typename Fn> void poll(bool Sampled, Fn &&Poll) {
    if (!Enabled || !Sampled) {
      Poll();
      return;
    }
    uint64_t Start = mte4jni::support::monotonicNanos();
    Poll();
    uint64_t End = mte4jni::support::monotonicNanos();
    uint64_t Waited = End - Start;
    ++Polls;
    if (Waited >= kSlowPollNs)
      ++PollsOver10us;
    if (Waited >= kSlowPollNs && Cur < kMaxSpansPerRequest) {
      Span &S = Stack[Cur++];
      S = Span();
      S.Name = SpanName::Safepoint;
      S.Request = RequestId;
      S.Parent = static_cast<int16_t>(Top);
      S.StartNs = Start;
      S.EndNs = End;
    } else if (Top >= 0) {
      Stack[static_cast<size_t>(Top)].PollNs += Waited;
    }
    PollNs += Waited;
  }

  /// Folds the finished request's spans into \p Acc and the log.
  void endRequest(LayerAccum &Acc);

  const std::vector<Span> &log() const { return Log; }

private:
  bool Enabled;
  bool Recording = false;
  size_t LogCapacity;
  std::array<Span, kMaxSpansPerRequest> Stack{};
  size_t Cur = 0;
  int Top = -1;
  uint64_t RequestId = 0;
  // Safepoint polls of the current request.
  uint64_t PollNs = 0;
  uint64_t Polls = 0;
  uint64_t PollsOver10us = 0;
  std::vector<Span> Log;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &Rec, SpanName Name, uint32_t Granules = 0)
      : Rec(Rec), Index(Rec.open(Name, Granules)) {}
  ~ScopedSpan() { Rec.close(Index); }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &Rec;
  int Index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
