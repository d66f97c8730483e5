//===- main.cpp - Repository benchmark entry point ------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// perfbench_traffic --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <spans.jsonl>]
//
// --trace 0: one untraced mte4jni_sync phase (set up several times, warm
// up, measure <s> seconds); prints the end-to-end metrics.
// --trace 1: an untraced (<s>/4) and a traced (<s>/2) mte4jni_sync phase,
// then the traced phase repeated under unprotected and guarded_copy (<s>/8
// each); prints the per-layer metrics and writes the traced phase's spans
// to --trace-out.
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct","attempted","failed","metrics"}.
//
//===----------------------------------------------------------------------===//

#include "Traffic.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace perfbench;
using namespace mte4jni;

namespace {

constexpr unsigned kSetupReps = 61;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kSpanLogPerWorker = 20000;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *Value = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--trace")
      A.Trace = std::strcmp(Value, "0") != 0;
    else if (Flag == "--trace-out")
      A.TraceOut = Value;
    else
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0;
}

// ---- exact percentiles ----------------------------------------------------

struct Tail {
  double Value = 0;   ///< nearest-rank percentile
  size_t Count = 0;   ///< samples
  size_t Beyond = 0;  ///< samples strictly after the percentile's rank
};

template <typename T> Tail percentile(std::vector<T> V, double P) {
  Tail Out;
  Out.Count = V.size();
  if (V.empty())
    return Out;
  size_t Rank = static_cast<size_t>(P / 100.0 * double(V.size()) + 0.999999);
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  std::nth_element(V.begin(), V.begin() + (Rank - 1), V.end());
  Out.Value = double(V[Rank - 1]);
  Out.Beyond = V.size() - Rank;
  return Out;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Summaries over the 100 ms parts of the measured window. The host
/// shares its CPUs and steals whole milliseconds from them in some
/// stretches; an open loop queues every arrival of such a stall, and a
/// stop-the-world pause waits for a worker whose CPU is stolen, so a
/// part's p99 rose with the host's steal time in it (2x at ~1.5% steal).
/// A figure is therefore the median over the calm parts: those whose
/// steal share is at most that of the least-stolen twentieth of all
/// parts. In most runs that is every part with no steal at all; in a
/// noisy minute it is the twentieth (15 parts of a 30 s window) the host
/// disturbed least. They are chosen by the host's steal counter alone,
/// never by the figure, so whatever the system does in some parts and
/// not others is sampled at its own rate.
class Parts {
public:
  explicit Parts(const std::vector<double> &StealShare) {
    std::vector<double> Sorted = StealShare;
    std::sort(Sorted.begin(), Sorted.end());
    const double Cut = Sorted.empty() ? 0 : Sorted[(Sorted.size() - 1) / 20];
    for (double X : StealShare)
      Calm.push_back(X <= Cut);
    print("host_steal", StealShare, 0);
  }

  /// The median of \p Values over the calm parts, printed with every
  /// part's value (calm ones marked *) and the whole window's.
  double calmMedian(const char *Name, const std::vector<double> &Values,
                    double Whole) const {
    print(Name, Values, Whole);
    std::vector<double> Kept;
    for (size_t P = 0; P < Values.size(); ++P)
      if (Calm[P])
        Kept.push_back(Values[P]);
    return median(Kept);
  }

  /// calmMedian() of percentile \p P in us; Count and Beyond are the
  /// smallest calm part's.
  Tail calmTail(const char *Name,
                const std::vector<std::vector<uint32_t>> &Lat,
                const std::vector<uint32_t> &Whole, double P) const {
    std::vector<double> Values;
    Tail Out;
    Out.Count = Out.Beyond = SIZE_MAX;
    for (size_t I = 0; I < Lat.size(); ++I) {
      Tail T = percentile(Lat[I], P);
      Values.push_back(T.Value * 1e-3);
      if (Calm[I]) {
        Out.Count = std::min(Out.Count, T.Count);
        Out.Beyond = std::min(Out.Beyond, T.Beyond);
      }
    }
    Out.Value = calmMedian(Name, Values, percentile(Whole, P).Value * 1e-3);
    return Out;
  }

private:
  void print(const char *Name, const std::vector<double> &Values,
             double Whole) const {
    std::printf("  %-16s whole %.6g, parts", Name, Whole);
    for (size_t P = 0; P < Values.size(); ++P)
      std::printf(" %.6g%s", Values[P], Calm[P] ? "*" : "");
    std::printf("\n");
  }

  std::vector<bool> Calm;
};

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  /// Timings only: sample count and samples beyond the percentile.
  std::optional<Tail> Samples;
};

class Report {
public:
  void add(std::string Name, double Value, const char *Unit) {
    Metrics.push_back({std::move(Name), Value, Unit, std::nullopt});
  }
  /// Adds a timing; its sample count and tail count are printed beside it.
  void addTail(std::string Name, const Tail &T, double Scale,
               const char *Unit) {
    Metrics.push_back({std::move(Name), T.Value * Scale, Unit, T});
  }
  void print(bool Correct, uint64_t Attempted, uint64_t Failed) const {
    for (const Metric &M : Metrics) {
      std::printf("  %-34s %14.6g %-6s", M.Name.c_str(), M.Value, M.Unit);
      if (M.Samples)
        std::printf(" n=%zu beyond=%zu", M.Samples->Count,
                    M.Samples->Beyond);
      std::printf("\n");
    }
    std::string Json = "{\"correct\": ";
    Json += Correct ? "true" : "false";
    Json += ", \"attempted\": " + std::to_string(Attempted);
    Json += ", \"failed\": " + std::to_string(Failed);
    Json += ", \"metrics\": {";
    for (size_t I = 0; I < Metrics.size(); ++I) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
      Json += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
              Buf + ", \"unit\": \"" + Metrics[I].Unit + "\"}";
    }
    Json += "}}";
    std::printf("%s\n", Json.c_str());
  }

private:
  std::vector<Metric> Metrics;
};

// ---- phase summaries ------------------------------------------------------

struct Summary {
  uint64_t Attempted = 0, Ok = 0, Failed = 0, Refused = 0, Undetected = 0;
  uint64_t WithinLimit = 0;
  uint64_t Mismatches = 0, Faults = 0, JniErrors = 0;
  uint64_t RefusedTotal = 0, RefusedUncarved = 0;
  uint64_t OobSent = 0, OobDetected = 0, UarSent = 0, UarDetected = 0;
  uint64_t Late = 0;
  double ServiceNsMean = 0;
  bool Complete = true; ///< set-up succeeded and no schedule ran out
  std::vector<uint32_t> Latency, Lag;
  std::map<Kind, std::vector<uint32_t>> ByKind;
  /// Per part of the window: latencies, correct requests, correct
  /// requests within the latency limit, and service time.
  std::vector<std::vector<uint32_t>> PartLatency;
  std::vector<uint64_t> PartOk, PartWithinLimit;
  std::vector<double> PartServiceNs;
};

/// \p Detail also collects the traced run's per-kind and lag samples.
Summary summarise(const PhaseResult &R, const WorkloadSpec &Spec,
                  bool Detail) {
  Summary S;
  S.Complete = !R.SetupFailed;
  const size_t Parts = R.PartStealShare.size(); // 0 if set-up failed
  S.PartLatency.resize(Parts);
  S.PartOk.resize(Parts);
  S.PartWithinLimit.resize(Parts);
  S.PartServiceNs.resize(Parts);
  const double LimitNs = Spec.LatencyLimitUs * 1e3;
  double ServiceSum = 0;
  for (const WorkerResult &W : R.Workers) {
    S.Mismatches += W.ChecksumMismatches;
    S.Faults += W.UnexpectedFaults;
    S.JniErrors += W.JniErrors;
    S.RefusedTotal += W.Refused;
    S.RefusedUncarved += W.RefusedUncarved;
    S.OobSent += W.OobSent;
    S.OobDetected += W.OobDetected;
    S.UarSent += W.UarSent;
    S.UarDetected += W.UarDetected;
    S.Late += W.Late;
    S.Complete = S.Complete && !W.PlanExhausted;
    for (const Sample &X : W.Samples) {
      ++S.Attempted;
      S.Ok += X.R == Result::Ok;
      S.Failed += X.R == Result::Failed;
      S.Refused += X.R == Result::Refused;
      S.Undetected += X.R == Result::Undetected;
      const bool Met = X.R == Result::Ok && X.LatencyNs <= LimitNs;
      S.WithinLimit += Met;
      ServiceSum += X.ServiceNs;
      S.Latency.push_back(X.LatencyNs);
      S.PartLatency[X.Part].push_back(X.LatencyNs);
      S.PartOk[X.Part] += X.R == Result::Ok;
      S.PartWithinLimit[X.Part] += Met;
      S.PartServiceNs[X.Part] += X.ServiceNs;
      if (Detail) {
        S.Lag.push_back(X.LatencyNs - X.ServiceNs);
        S.ByKind[X.K].push_back(X.LatencyNs);
      }
    }
  }
  S.ServiceNsMean = ratio(ServiceSum, double(S.Attempted));
  return S;
}

void printPhase(const char *Label, const PhaseResult &R, const Summary &S) {
  std::printf("phase %s: attempted=%llu ok=%llu failed=%llu (checksum=%llu "
              "fault=%llu jni_error=%llu, gated refusals and undetected "
              "oob probes) known gaps: refused=%llu undetected_uar=%llu "
              "refusals=%llu (uncarved sizes %llu) "
              "window=%.3fs oob=%llu/%llu uar=%llu/%llu late=%llu "
              "mean_service=%.1fns peak_rss=%.1fMiB%s\n",
              Label, (unsigned long long)S.Attempted,
              (unsigned long long)S.Ok, (unsigned long long)S.Failed,
              (unsigned long long)S.Mismatches, (unsigned long long)S.Faults,
              (unsigned long long)S.JniErrors, (unsigned long long)S.Refused,
              (unsigned long long)S.Undetected,
              (unsigned long long)S.RefusedTotal,
              (unsigned long long)S.RefusedUncarved,
              R.WindowSeconds, (unsigned long long)S.OobDetected,
              (unsigned long long)S.OobSent,
              (unsigned long long)S.UarDetected,
              (unsigned long long)S.UarSent, (unsigned long long)S.Late,
              S.ServiceNsMean, R.PeakRssMb,
              S.Complete ? "" : " INCOMPLETE");
  if (!R.SetupSeconds.empty()) {
    std::printf("  setup_s samples:");
    for (double X : R.SetupSeconds)
      std::printf(" %.4f", X);
    std::printf("\n");
  }
}

// ---- registry deltas -------------------------------------------------------

struct Delta {
  const PhaseResult &R;
  double counter(const char *Name) const {
    return double(R.After.counterValue(Name) - R.Before.counterValue(Name));
  }
  double histSum(const char *Name) const {
    const support::HistogramSample *A = R.After.histogram(Name);
    const support::HistogramSample *B = R.Before.histogram(Name);
    return double((A ? A->Sum : 0) - (B ? B->Sum : 0));
  }
};

bool writeSpans(const std::string &Path, const PhaseResult &R,
                uint64_t Dropped) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"dropped_spans\": %llu}\n", (unsigned long long)Dropped);
  for (size_t W = 0; W < R.Workers.size(); ++W)
    for (const Span &S : R.Workers[W].Spans)
      std::fprintf(F,
                   "{\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                   "\"parent\": %d, \"req\": %llu, \"worker\": %zu}\n",
                   spanNameString(S.Name), (unsigned long long)S.StartNs,
                   (unsigned long long)S.EndNs, int(S.Parent),
                   (unsigned long long)S.Request, W);
  return std::fclose(F) == 0;
}

// ---- the two modes ---------------------------------------------------------

int runEndToEnd(const Args &A, const WorkloadSpec &Spec) {
  PhaseConfig C;
  C.Spec = &Spec;
  C.SetupReps = kSetupReps;
  C.WarmupSeconds = kWarmupSeconds;
  C.WindowSeconds = A.Seconds;
  C.Seed = A.Seed;
  PhaseResult R = runPhase(C);
  Summary S = summarise(R, Spec, false);
  printPhase("mte4jni_sync", R, S);

  // Throughput is correct requests per second of worker service time,
  // times the workers: the capacity the system showed. A closed loop is
  // never idle, so this is its window throughput; an open loop's window
  // throughput is only the offered rate, printed beside it.
  //
  // Throughput, latency and the limit share are measured over each part
  // of the window on its own and summarised over the calm parts (Parts).
  const Parts Window(R.PartStealShare);
  std::vector<double> Ops, Met;
  for (size_t P = 0; P < S.PartLatency.size(); ++P) {
    Ops.push_back(ratio(double(S.PartOk[P]) * Spec.Workers,
                        S.PartServiceNs[P] * 1e-9));
    Met.push_back(ratio(double(S.PartWithinLimit[P]),
                        double(S.PartLatency[P].size())));
  }
  Report Out;
  Out.add("setup_s", median(R.SetupSeconds), "s");
  Out.add("ops_per_s",
          Window.calmMedian("ops_per_s", Ops,
                            ratio(double(S.Ok) * Spec.Workers,
                                  S.ServiceNsMean * double(S.Attempted) *
                                      1e-9)),
          "req/s");
  Out.addTail("latency_p50_us",
              Window.calmTail("latency_p50_us", S.PartLatency, S.Latency, 50),
              1, "us");
  Out.addTail("latency_p99_us",
              Window.calmTail("latency_p99_us", S.PartLatency, S.Latency, 99),
              1, "us");
  Out.add("slo_met_share",
          Window.calmMedian("slo_met_share", Met,
                            ratio(double(S.WithinLimit),
                                  double(S.Attempted))),
          "ratio");
  Out.add("ok_share", ratio(double(S.Ok), double(S.Attempted)), "ratio");
  Out.add("peak_rss_mb", R.PeakRssMb, "MiB");
  std::printf("  window throughput %.6g req/s\n",
              ratio(double(S.Ok), R.WindowSeconds));
  std::printf("  failed_share %.6g = 1 - ok_share (failed + known gaps, of "
              "attempted); latency limit %.0f us\n",
              ratio(double(S.Attempted - S.Ok), double(S.Attempted)),
              Spec.LatencyLimitUs);
  Out.print(S.Complete && S.Failed == 0 && S.Attempted > 0, S.Attempted,
            S.Failed);
  return 0;
}

int runTraced(const Args &A, const WorkloadSpec &Spec) {
  PhaseConfig C;
  C.Spec = &Spec;
  C.WarmupSeconds = kWarmupSeconds;
  C.Seed = A.Seed;

  // Half the window traced, a quarter untraced for the overhead baseline,
  // an eighth per reference scheme: a traced run takes as long as an
  // untraced one.
  C.WindowSeconds = A.Seconds / 4;
  PhaseResult Untraced = runPhase(C);
  Summary SU = summarise(Untraced, Spec, false);
  printPhase("mte4jni_sync untraced", Untraced, SU);

  C.Traced = true;
  C.WindowSeconds = A.Seconds / 2;
  C.SpanLogPerWorker = kSpanLogPerWorker;
  PhaseResult R = runPhase(C);
  Summary S = summarise(R, Spec, true);
  printPhase("mte4jni_sync traced", R, S);

  C.WindowSeconds = A.Seconds / 8;
  C.SpanLogPerWorker = 0;
  C.Scheme = api::Scheme::NoProtection;
  PhaseResult RefU = runPhase(C);
  Summary SRU = summarise(RefU, Spec, false);
  printPhase("unprotected traced", RefU, SRU);
  C.Scheme = api::Scheme::GuardedCopy;
  PhaseResult RefG = runPhase(C);
  Summary SRG = summarise(RefG, Spec, false);
  printPhase("guarded_copy traced", RefG, SRG);

  const Delta D{R};
  const double Wall = R.WindowSeconds * 1e9;
  const double Requests = double(S.Attempted);
  Report Out;

  LayerAccum L;
  for (const WorkerResult &W : R.Workers)
    L.merge(W.Layers);

  // rt: trampoline, safepoint, gc, heap
  Out.addTail("rt.trampoline.self_ns.p50", percentile(L.TrampolineSelf, 50), 1,
              "ns");
  Out.addTail("rt.trampoline.self_ns.p99", percentile(L.TrampolineSelf, 99), 1,
              "ns");
  std::printf("  safepoint polls timed: %llu (the first of each scan, then 1 "
              "in %u)\n",
              (unsigned long long)L.Polls, SpanRecorder::kPollSampleEvery);
  Out.add("rt.safepoint.poll_wait_ns.sum", double(L.PollWaitNs), "ns");
  Out.add("rt.safepoint.polls_over_10us", double(L.PollsOver10us), "count");

  const double Cycles = D.counter("rt/gc/cycles");
  const double Pause = D.histSum("rt/gc/pause_nanos");
  const double Ttsp = D.histSum("rt/gc/ttsp_nanos");
  const double Mark = D.histSum("rt/gc/mark_nanos");
  const double Sweep = D.histSum("rt/gc/sweep_nanos");
  const double Verify = D.histSum("rt/gc/verify_nanos");
  Out.add("rt.gc.cycles", Cycles, "count");
  Out.add("rt.gc.pause_share", ratio(Pause, Wall), "ratio");
  Out.add("rt.gc.ttsp_ns", Ttsp, "ns");
  Out.add("rt.gc.mark_ns", Mark, "ns");
  Out.add("rt.gc.sweep_ns", Sweep, "ns");
  Out.add("rt.gc.verify_ns", Verify, "ns");
  Out.add("rt.gc.unattributed_share",
          ratio(std::max(0.0, Pause - Ttsp - Mark - Sweep - Verify), Pause),
          "ratio");
  Out.add("rt.gc.bytes_freed_per_cycle",
          ratio(D.counter("rt/gc/bytes_freed"), Cycles), "B");

  Out.addTail("rt.heap.alloc_ns.p50", percentile(L.Alloc, 50), 1, "ns");
  Out.addTail("rt.heap.alloc_ns.p99", percentile(L.Alloc, 99), 1, "ns");
  Out.add("rt.heap.freelist_hit_ratio",
          ratio(double(R.HeapAfter.FreeListHits - R.HeapBefore.FreeListHits),
                double(R.HeapAfter.ObjectsAllocated -
                       R.HeapBefore.ObjectsAllocated)),
          "ratio");
  Out.add("rt.heap.refused_share", ratio(double(S.RefusedTotal), Requests),
          "ratio");

  // jni
  Out.addTail("jni.acquire_ns.p50", percentile(L.Acquire, 50), 1, "ns");
  Out.addTail("jni.acquire_ns.p99", percentile(L.Acquire, 99), 1, "ns");
  Out.add("jni.acquire.count", double(L.Acquire.size()), "count");
  Out.addTail("jni.release_ns.p50", percentile(L.Release, 50), 1, "ns");
  Out.addTail("jni.release_ns.p99", percentile(L.Release, 99), 1, "ns");
  Out.add("jni.release.count", double(L.Release.size()), "count");
  Out.addTail("jni.region_copy_ns.p50", percentile(L.RegionCopy, 50), 1, "ns");

  // core
  const double Acquires = D.counter("core/tagallocator/acquires");
  Out.add("core.acquire_fast_ratio",
          ratio(D.counter("core/tagtable/lockfree/acquire_fast"), Acquires),
          "ratio");
  Out.add("core.tag_reuse_ratio",
          ratio(D.counter("core/tagallocator/tags_shared"), Acquires),
          "ratio");
  Out.add("core.deferred_reclaims",
          D.counter("core/tagtable/lockfree/deferred_reclaims"), "count");

  // mte
  Out.addTail("mte.scan_ns.p50", percentile(L.ScanPerReq, 50), 1, "ns");
  Out.add("mte.checked_loads_per_req",
          ratio(D.counter("mte/access/checked_loads"), Requests), "count");
  Out.add("mte.ns_per_checked_granule",
          ratio(double(L.ScanNs + L.StoreNs), double(L.CheckedGranules)),
          "ns");
  Out.addTail("mte.store_ns.p50", percentile(L.StorePerReq, 50), 1, "ns");
  const double Uniform = D.counter("mte/tagstore/uniform_hit");
  Out.add("mte.tagstore.uniform_hit_ratio",
          ratio(Uniform, Uniform + D.counter("mte/tagstore/mixed_fallback")),
          "ratio");
  Out.add("mte.tagstore.line_promote", D.counter("mte/tagstore/line_promote"),
          "count");
  Out.add("mte.tagstore.line_demote", D.counter("mte/tagstore/line_demote"),
          "count");

  // workloads
  Out.addTail("workloads.html_run_ns.p50", percentile(L.HtmlRun, 50), 1, "ns");
  Out.addTail("workloads.html_run_ns.p99", percentile(L.HtmlRun, 99), 1, "ns");

  // per-kind exact latency
  for (Kind K : {Kind::ArrayPin, Kind::StringCritical, Kind::RegionCopy,
                 Kind::HtmlParse}) {
    std::string Base = std::string("req.") + kindName(K);
    const std::vector<uint32_t> &V = S.ByKind[K];
    Out.addTail(Base + ".p50_us", percentile(V, 50), 1e-3, "us");
    Out.addTail(Base + ".p99_us", percentile(V, 99), 1e-3, "us");
  }

  // detection, load, tracing, reference schemes
  Out.add("detect.oob_rate", ratio(double(S.OobDetected), double(S.OobSent)),
          "ratio");
  Out.add("detect.uar_rate", ratio(double(S.UarDetected), double(S.UarSent)),
          "ratio");
  std::printf("  probes: oob %llu/%llu detected, uar %llu/%llu detected\n",
              (unsigned long long)S.OobDetected,
              (unsigned long long)S.OobSent,
              (unsigned long long)S.UarDetected,
              (unsigned long long)S.UarSent);
  Out.addTail("load.lag_p99_us", percentile(S.Lag, 99), 1e-3, "us");
  Out.add("load.late_share", ratio(double(S.Late), Requests), "ratio");
  Out.add("trace.overhead_share",
          1.0 - ratio(SU.ServiceNsMean, S.ServiceNsMean), "ratio");
  Out.add("trace.unattributed_share",
          ratio(double(L.UnattributedNs), double(L.RequestNs)), "ratio");
  Out.add("trace.verify_share",
          ratio(double(L.VerifyNs), double(L.RequestNs)), "ratio");
  Out.add("ref.overhead_vs_unprotected",
          ratio(S.ServiceNsMean, SRU.ServiceNsMean) - 1.0, "ratio");
  Out.add("ref.overhead_vs_guarded",
          ratio(S.ServiceNsMean, SRG.ServiceNsMean) - 1.0, "ratio");

  bool Wrote =
      A.TraceOut.empty() || writeSpans(A.TraceOut, R, L.DroppedSpans);
  if (!A.TraceOut.empty())
    std::printf("  spans: %s (%llu dropped beyond %zu per worker)%s\n",
                A.TraceOut.c_str(), (unsigned long long)L.DroppedSpans,
                kSpanLogPerWorker, Wrote ? "" : " WRITE FAILED");

  const bool Correct = SU.Complete && S.Complete && SRU.Complete &&
                       SRG.Complete && SU.Failed + S.Failed + SRU.Failed +
                                               SRG.Failed ==
                                           0 &&
                       S.Attempted > 0 && Wrote;
  Out.print(Correct, S.Attempted, S.Failed);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n",
                 Argv[0]);
    return 2;
  }
  const WorkloadSpec *Spec = findWorkload(A.Workload);
  if (!Spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d workers=%u %s "
              "gc=%s limit=%.0fus\n",
              Spec->Name, (unsigned long long)A.Seed, A.Seconds, int(A.Trace),
              Spec->Workers,
              Spec->OpenLoop
                  ? ("open-loop " + std::to_string(int(Spec->RatePerSec)) +
                     " req/s")
                        .c_str()
                  : "closed-loop",
              Spec->BackgroundGc ? "background" : "off", Spec->LatencyLimitUs);
  return A.Trace ? runTraced(A, *Spec) : runEndToEnd(A, *Spec);
}
