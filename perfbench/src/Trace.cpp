//===- Trace.cpp - Benchmark-side layer spans -----------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>

namespace perfbench {

const char *spanNameString(SpanName Name) {
  switch (Name) {
  case SpanName::Request:
    return "request";
  case SpanName::Trampoline:
    return "rt.trampoline";
  case SpanName::NativeBody:
    return "native.body";
  case SpanName::JniAcquire:
    return "jni.acquire";
  case SpanName::JniRelease:
    return "jni.release";
  case SpanName::JniRegionCopy:
    return "jni.region_copy";
  case SpanName::HeapAlloc:
    return "rt.heap.alloc";
  case SpanName::MteScan:
    return "mte.scan";
  case SpanName::MteStore:
    return "mte.store";
  case SpanName::Safepoint:
    return "rt.safepoint";
  case SpanName::HtmlRun:
    return "workloads.html_run";
  case SpanName::Verify:
    return "bench.verify";
  case SpanName::kCount:
    break;
  }
  return "?";
}

namespace {

uint32_t clampNs(uint64_t Ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(Ns, UINT32_MAX));
}

} // namespace

void LayerAccum::merge(const LayerAccum &Other) {
  auto Append = [](std::vector<uint32_t> &To,
                   const std::vector<uint32_t> &From) {
    To.insert(To.end(), From.begin(), From.end());
  };
  Append(TrampolineSelf, Other.TrampolineSelf);
  Append(Acquire, Other.Acquire);
  Append(Release, Other.Release);
  Append(RegionCopy, Other.RegionCopy);
  Append(Alloc, Other.Alloc);
  Append(HtmlRun, Other.HtmlRun);
  Append(ScanPerReq, Other.ScanPerReq);
  Append(StorePerReq, Other.StorePerReq);
  ScanNs += Other.ScanNs;
  StoreNs += Other.StoreNs;
  CheckedGranules += Other.CheckedGranules;
  PollWaitNs += Other.PollWaitNs;
  Polls += Other.Polls;
  PollsOver10us += Other.PollsOver10us;
  RequestNs += Other.RequestNs;
  UnattributedNs += Other.UnattributedNs;
  VerifyNs += Other.VerifyNs;
  DroppedSpans += Other.DroppedSpans;
}

void SpanRecorder::endRequest(LayerAccum &Acc) {
  if (!Enabled || !Recording)
    return;
  const size_t N = Cur;
  std::array<uint64_t, kMaxSpansPerRequest> ChildNs{};
  for (size_t I = 0; I < N; ++I)
    if (Stack[I].Parent >= 0)
      ChildNs[static_cast<size_t>(Stack[I].Parent)] +=
          Stack[I].EndNs - Stack[I].StartNs;

  uint64_t RequestNs = 0, AttributedNs = 0, ScanNs = 0, StoreNs = 0;
  bool Scanned = false, Stored = false;
  for (size_t I = 0; I < N; ++I) {
    const Span &S = Stack[I];
    const uint64_t Dur = S.EndNs - S.StartNs;
    const uint64_t Covered = ChildNs[I] + S.PollNs;
    const uint64_t Self = Dur > Covered ? Dur - Covered : 0;
    // Polls not logged as spans are safepoint (rt) time.
    AttributedNs += S.PollNs;
    if (isLayerSpan(S.Name))
      AttributedNs += Self;
    Acc.CheckedGranules += S.Granules;
    switch (S.Name) {
    case SpanName::Request:
      RequestNs += Dur;
      break;
    case SpanName::Trampoline:
      Acc.TrampolineSelf.push_back(clampNs(Self));
      break;
    case SpanName::JniAcquire:
      Acc.Acquire.push_back(clampNs(Dur));
      break;
    case SpanName::JniRelease:
      Acc.Release.push_back(clampNs(Dur));
      break;
    case SpanName::JniRegionCopy:
      Acc.RegionCopy.push_back(clampNs(Dur));
      break;
    case SpanName::HeapAlloc:
      Acc.Alloc.push_back(clampNs(Dur));
      break;
    case SpanName::HtmlRun:
      Acc.HtmlRun.push_back(clampNs(Dur));
      break;
    case SpanName::MteScan:
      ScanNs += Self;
      Scanned = true;
      break;
    case SpanName::MteStore:
      StoreNs += Self;
      Stored = true;
      break;
    case SpanName::Verify:
      Acc.VerifyNs += Self;
      break;
    case SpanName::NativeBody:
    case SpanName::Safepoint:
    case SpanName::kCount:
      break;
    }
  }
  if (Scanned) {
    Acc.ScanPerReq.push_back(clampNs(ScanNs));
    Acc.ScanNs += ScanNs;
  }
  if (Stored) {
    Acc.StorePerReq.push_back(clampNs(StoreNs));
    Acc.StoreNs += StoreNs;
  }
  Acc.PollWaitNs += PollNs;
  Acc.Polls += Polls;
  Acc.PollsOver10us += PollsOver10us;
  Acc.RequestNs += RequestNs;
  Acc.UnattributedNs += RequestNs > AttributedNs ? RequestNs - AttributedNs : 0;

  for (size_t I = 0; I < N; ++I) {
    if (Log.size() < LogCapacity)
      Log.push_back(Stack[I]);
    else
      ++Acc.DroppedSpans;
  }
}

} // namespace perfbench
