//===- Traffic.h - JNI traffic generator of the benchmark -----*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own traffic generator. It sends Table-1-shaped JNI
/// traffic from worker threads of one process through the public entry
/// points of each layer (api::Session, rt::callNative and
/// Runtime::safepointPoll, JniEnv Get/Release/Region/New calls,
/// mte::load/store/readBytes, workloads::Workload::run), checks every
/// request against a host-side expected checksum, and records each
/// request's exact latency.
///
/// The serve_mixed request mix mirrors server::RequestMix (40/25/20/15)
/// so numbers stay comparable to bench_server; the generator is separate
/// because runServer only exposes log2-bucket percentiles.
///
/// One *phase* = one Session (one protection scheme) set up SetupReps
/// times, warmed up, then measured over a fixed window. All inputs are
/// generated from the seed before the first set-up starts.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRAFFIC_H
#define PERFBENCH_TRAFFIC_H

#include "Trace.h"

#include "mte4jni/api/Session.h"
#include "mte4jni/rt/Heap.h"
#include "mte4jni/support/Metrics.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Request kinds. The first four are server::RequestKind's non-rogue
/// kinds; the rogue kind is split into its two probes.
enum class Kind : uint8_t {
  ArrayPin,       ///< pin an int array, bulk readBytes, release
  StringCritical, ///< GetStringCritical, per-char checked loads, release
  RegionCopy,     ///< Get/SetIntArrayRegion + one local-frame allocation
  HtmlParse,      ///< workloads "HTML5 DOM Strings" run
  RogueOob,       ///< near-OOB read past a pinned probe's granule extent
  RogueUar,       ///< read through a stale pointer after Release
  AllocWrite,     ///< allocate, pin, checked-store fill, read back, release
  kCount
};

const char *kindName(Kind K);
inline bool isRogue(Kind K) {
  return K == Kind::RogueOob || K == Kind::RogueUar;
}

struct WorkloadSpec {
  const char *Name;
  /// Open loop: one Poisson stream at RatePerSec, taken in order by
  /// whichever worker is free; latency is charged from the scheduled
  /// arrival. Closed loop: each worker issues back-to-back requests.
  bool OpenLoop;
  double RatePerSec;
  unsigned Workers;
  bool BackgroundGc;
  /// Latency limit behind slo_met_share (from the scheduled arrival in
  /// open loop, service time in closed loop).
  double LatencyLimitUs;
  /// Null allocations are the heap's known exact-size free-list defect
  /// here (see kAllocUncarvedGroupEvery in Traffic.cpp): counted and
  /// reported, but they do not fail the run. Elsewhere one fails it.
  bool RefusalsKnown;
};

/// The benchmark's workloads, or nullptr for an unknown name.
const WorkloadSpec *findWorkload(std::string_view Name);

struct PhaseConfig {
  const WorkloadSpec *Spec = nullptr;
  mte4jni::api::Scheme Scheme = mte4jni::api::Scheme::Mte4JniSync;
  bool Traced = false;
  unsigned SetupReps = 1;
  double WarmupSeconds = 1;
  double WindowSeconds = 1;
  uint64_t Seed = 1;
  /// Spans kept per worker for the written trace.
  size_t SpanLogPerWorker = 0;
};

/// How a request ended.
enum class Result : uint8_t {
  Ok,         ///< correct output (a probe: detected)
  Failed,     ///< checksum mismatch, unexpected MTE fault, JNI error, an
              ///< undetected OOB probe or, where refusals are not a known
              ///< defect, a null allocation or Get result (MTE4JNI only)
  Refused,    ///< null allocation or Get result, as a known defect
  Undetected, ///< undetected use-after-release probe, as a known gap
};

/// The measured window is cut into parts of this length, each measured
/// on its own; end-to-end timings report the median over the parts the
/// host stole least from (Parts in main.cpp).
constexpr double kPartSeconds = 0.1;

/// The number of parts of a window of \p WindowSeconds (at least one).
inline unsigned windowParts(double WindowSeconds) {
  return WindowSeconds < 1.5 * kPartSeconds
             ? 1u
             : static_cast<unsigned>(WindowSeconds / kPartSeconds + 0.5);
}

struct Sample {
  uint32_t LatencyNs; ///< end - scheduled arrival
  uint32_t ServiceNs; ///< end - start
  Kind K;
  Result R;
  uint16_t Part; ///< part of the window the scheduled arrival falls in
};

struct WorkerResult {
  std::vector<Sample> Samples; ///< requests scheduled inside the window
  LayerAccum Layers;
  std::vector<Span> Spans;
  uint64_t ChecksumMismatches = 0;
  uint64_t UnexpectedFaults = 0;
  uint64_t JniErrors = 0;
  uint64_t Refused = 0;
  /// Refusals of a size alloc_pin_write's start-up never drew.
  uint64_t RefusedUncarved = 0;
  uint64_t OobSent = 0, OobDetected = 0;
  uint64_t UarSent = 0, UarDetected = 0;
  /// Open loop: requests that started more than one mean interarrival
  /// (of the whole stream) after their scheduled arrival.
  uint64_t Late = 0;
  /// Open loop: the pre-generated schedule ran out before the window end.
  bool PlanExhausted = false;
};

struct PhaseResult {
  std::vector<double> SetupSeconds;
  double WindowSeconds = 0;
  std::vector<WorkerResult> Workers;
  mte4jni::support::MetricsSnapshot Before, After;
  mte4jni::rt::HeapStats HeapBefore, HeapAfter;
  /// Process VmHWM when the phase ends, less the bytes of the generator's
  /// request plans and sample buffers (the latter grow with throughput,
  /// not with the system's footprint).
  double PeakRssMb = 0;
  /// Per part of the window: the host's steal time / (part length x CPUs).
  std::vector<double> PartStealShare;
  /// A fixture allocation failed; no request was run.
  bool SetupFailed = false;
};

PhaseResult runPhase(const PhaseConfig &Config);

} // namespace perfbench

#endif // PERFBENCH_TRAFFIC_H
