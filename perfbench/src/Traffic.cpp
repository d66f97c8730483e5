//===- Traffic.cpp - JNI traffic generator of the benchmark -------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Traffic.h"

#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/rt/Trampoline.h"
#include "mte4jni/server/Server.h"
#include "mte4jni/support/MathExtras.h"
#include "mte4jni/support/Rng.h"
#include "mte4jni/support/StringUtils.h"
#include "mte4jni/support/Timer.h"
#include "mte4jni/workloads/Workload.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include <sys/prctl.h>
#include <unistd.h>

namespace perfbench {

using namespace mte4jni;
using support::monotonicNanos;

const char *kindName(Kind K) {
  switch (K) {
  case Kind::ArrayPin:
    return "array_pin";
  case Kind::StringCritical:
    return "string_critical";
  case Kind::RegionCopy:
    return "region_copy";
  case Kind::HtmlParse:
    return "html_parse";
  case Kind::RogueOob:
    return "rogue_oob";
  case Kind::RogueUar:
    return "rogue_uar";
  case Kind::AllocWrite:
    return "alloc_pin_write";
  case Kind::kCount:
    break;
  }
  return "?";
}

namespace {

constexpr WorkloadSpec kWorkloads[] = {
    // Serving traffic at about a quarter of mte4jni_sync's closed-loop
    // capacity for this mix (3 workers, ~60k req/s on a 4-core x86 host).
    // At half capacity the median sits on the queueing cliff (a request
    // behind an HTML parse waits ~300 us) and swings 10x between seeds.
    {"serve_mixed", /*OpenLoop=*/true, /*RatePerSec=*/15000, /*Workers=*/3,
     /*BackgroundGc=*/true, /*LatencyLimitUs=*/1000, /*RefusalsKnown=*/false},
    // Closed loops: the limit is on service time, about 1.5-2x the seed's
    // p99 on that 4-core host.
    {"pin_scan_shared", false, 0, 3, false, 250, false},
    {"alloc_pin_write", false, 0, 3, true, 1000, true},
};

// serve_mixed fixtures (per worker), as in server::ServerConfig.
constexpr jni::jsize kArrayInts = 1024;
constexpr size_t kStringChars = 44;
constexpr jni::jsize kRegionWindow = 256;
constexpr jni::jsize kProbeInts = 18;
constexpr jni::jsize kPadInts = 256;
constexpr uint32_t kRogueMaxOffsetBytes = 64;
// pin_scan_shared payloads, shared by every worker.
constexpr unsigned kSharedPayloads = 2;
constexpr jni::jsize kSharedArrayInts = 16384; // 64 KiB
constexpr size_t kSharedStringChars = 8192;
// alloc_pin_write sizes: 64 B .. 16 KiB.
constexpr uint32_t kAllocMinInts = 16;
constexpr uint32_t kAllocMaxInts = 4096;
/// alloc_pin_write exposes the heap's exact-size free lists (no split or
/// coalesce): once the bump frontier is spent, the block sizes carved
/// before are the only sizes the heap can serve again, and any other size
/// is refused (OutOfMemoryError) every time it is drawn, even after the
/// retry's collection. The first kAllocStartupRequests requests per worker
/// (well over the 64 MiB heap in total, all inside the warm-up) come from
/// one fixed stream that never draws a size of every
/// kAllocUncarvedGroupEvery-th 16-byte block-size group; the requests
/// after it draw from the whole range. So every run refuses the same
/// small share (~0.2%) of requests, instead of the one seed in three
/// whose own start-up happened to miss a size (p99 ~90 us with no missing
/// size, ~300 us with one). An allocator that splits or reuses blocks
/// across sizes serves them, and the share falls to 0.
constexpr size_t kAllocStartupRequests = 8192;
constexpr uint64_t kAllocStartupSeed = 0x5eed;
constexpr uint32_t kAllocUncarvedGroupEvery = 512;

/// Whether an array of \p Ints ints falls in a block-size group the
/// start-up stream never draws (a 16-byte header plus the payload,
/// rounded up to the 16-byte heap alignment of the MTE schemes).
bool uncarvedSize(uint32_t Ints) {
  return (Ints + 3) / 4 % kAllocUncarvedGroupEvery == 0;
}

/// One fixed HTML document, like the server's fixed request string: its
/// parse cost (~300 us, most of serve_mixed's mean service time) moved by
/// ~15% between generated documents, which would swamp the seed-to-seed
/// comparison of the other inputs.
constexpr uint64_t kHtmlDocumentSeed = 1;
/// Closed-loop plans are cycled. Long enough that a 10 s run barely
/// repeats: with exact-size free lists, a short cycle replays one seed's
/// size pattern, and whether it ever finds a size class empty (an
/// OutOfMemoryError retry, then a collection) became a per-seed constant.
constexpr size_t kClosedPlanSize = size_t(1) << 18;
/// Per-worker sample capacity reserved for a closed loop (~10x the
/// fastest workload's rate over a 10 s window).
constexpr size_t kClosedSampleCapacity = size_t(8) << 20;
/// Safepoint checkpoint stride of the per-char scans (as in the server).
constexpr jni::jsize kPollEvery = 64;

bool scoresProbes(api::Scheme S) {
  return S == api::Scheme::Mte4JniSync || S == api::Scheme::Mte4JniAsync;
}

uint64_t toNs(double Seconds) { return static_cast<uint64_t>(Seconds * 1e9); }

uint32_t clampNs(uint64_t Ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(Ns, UINT32_MAX));
}

/// Granules a bulk checked access over \p Ints ints covers.
uint32_t bulkGranules(uint64_t Ints) {
  return static_cast<uint32_t>(
      support::alignTo(Ints * sizeof(jni::jint), mte::kGranuleSize) /
      mte::kGranuleSize);
}

uint64_t sumInts(const jni::jint *Data, size_t N) {
  uint64_t Sum = 0;
  for (size_t I = 0; I < N; ++I)
    Sum += static_cast<uint32_t>(Data[I]);
  return Sum;
}

uint64_t sumChars(const std::string &Text) {
  uint64_t Sum = 0;
  for (char C : Text)
    Sum += static_cast<uint8_t>(C);
  return Sum;
}

std::vector<jni::jint> randomInts(support::Xoshiro256 &Rng, size_t N) {
  std::vector<jni::jint> Out(N);
  for (jni::jint &V : Out)
    V = static_cast<jni::jint>(Rng.next());
  return Out;
}

std::string randomText(support::Xoshiro256 &Rng, size_t N) {
  static const char Alphabet[] = "abcdefghijklmnopqrstuvwxyz ,.<>/=";
  std::string Out(N, ' ');
  for (char &C : Out)
    C = Alphabet[Rng.nextBelow(sizeof(Alphabet) - 1)];
  return Out;
}

// ---- inputs ---------------------------------------------------------------

struct Req {
  uint64_t DueNs = 0;  ///< open loop: scheduled arrival after the epoch
  uint64_t Expect = 0; ///< expected checksum
  uint32_t Arg = 0;    ///< payload index / region start / length / offset
  uint32_t Base = 0;   ///< alloc_pin_write: first stored value
  Kind K = Kind::ArrayPin;
};

struct Inputs {
  /// Open loop: one arrival schedule, served in order by whichever worker
  /// is free. Closed loop: one cycled plan per worker.
  std::vector<Req> Arrivals;
  std::vector<std::vector<Req>> Plans;
  /// serve_mixed fixture contents; every worker builds the same.
  std::vector<jni::jint> Ints;
  std::string Text;
  /// pin_scan_shared payloads.
  std::vector<std::vector<jni::jint>> SharedInts;
  std::vector<std::string> SharedTexts;
  double MeanInterarrivalNs = 0; ///< open loop, whole stream
};

/// Expected "HTML5 DOM Strings" checksum of the fixed document, computed
/// by a run under NoProtection (no tag checks on the path).
uint64_t htmlChecksum() {
  api::SessionConfig C;
  C.Protection = api::Scheme::NoProtection;
  C.HeapBytes = 8 << 20;
  api::Session S(C);
  uint64_t Sum = 0;
  {
    api::ScopedAttach Me(S, "html-reference");
    rt::HandleScope Scope(S.runtime());
    std::unique_ptr<workloads::Workload> Html =
        workloads::makeWorkload("HTML5 DOM Strings");
    workloads::WorkloadContext Ctx{S, Me.env(), Me.thread(), Scope,
                                   kHtmlDocumentSeed};
    Html->prepare(Ctx);
    Sum = Html->run(Ctx);
  }
  return Sum;
}

/// server::RequestMix's default weights, taking 998 permille, plus 1
/// permille each of near-OOB and use-after-release probes.
Kind pickServeKind(support::Xoshiro256 &Rng) {
  static const server::RequestMix Mix;
  const std::pair<Kind, uint64_t> Weights[] = {
      {Kind::ArrayPin, Mix.ArrayPin * 998ull},
      {Kind::StringCritical, Mix.StringCritical * 998ull},
      {Kind::RegionCopy, Mix.RegionCopy * 998ull},
      {Kind::HtmlParse, Mix.HtmlParse * 998ull},
      {Kind::RogueOob, Mix.total()},
      {Kind::RogueUar, Mix.total()}};
  uint64_t Draw = Rng.nextBelow(1000ull * Mix.total());
  for (const auto &[K, W] : Weights) {
    if (Draw < W)
      return K;
    Draw -= W;
  }
  return Kind::ArrayPin;
}

Inputs makeInputs(const PhaseConfig &C) {
  const WorkloadSpec &Spec = *C.Spec;
  const std::string_view Name = Spec.Name;
  Inputs In;
  support::Xoshiro256 Shared(C.Seed * 0x9e3779b97f4a7c15ULL + 17);

  // What one request does, by workload. Sizes is alloc_pin_write's
  // size stream (see kAllocStartupRequests); Rng draws everything else.
  std::function<void(Req &, support::Xoshiro256 &Rng,
                     support::Xoshiro256 &Sizes)>
      Fill;
  if (Name == "serve_mixed") {
    In.Ints = randomInts(Shared, kArrayInts);
    In.Text = randomText(Shared, kStringChars);
    const uint64_t IntsSum = sumInts(In.Ints.data(), In.Ints.size());
    const uint64_t TextSum = sumChars(In.Text);
    static const uint64_t HtmlExpect = htmlChecksum();
    Fill = [&In, IntsSum, TextSum](
               Req &R, support::Xoshiro256 &Rng, support::Xoshiro256 &) {
      R.K = pickServeKind(Rng);
      switch (R.K) {
      case Kind::ArrayPin:
        R.Expect = IntsSum;
        break;
      case Kind::StringCritical:
        R.Expect = TextSum;
        break;
      case Kind::RegionCopy:
        R.Arg = static_cast<uint32_t>(
            Rng.nextBelow(uint64_t(kArrayInts - kRegionWindow) + 1));
        R.Expect = sumInts(In.Ints.data() + R.Arg, kRegionWindow);
        break;
      case Kind::HtmlParse:
        R.Expect = HtmlExpect;
        break;
      case Kind::RogueOob:
        R.Arg = static_cast<uint32_t>(Rng.nextBelow(kRogueMaxOffsetBytes));
        break;
      case Kind::RogueUar:
        R.Arg = static_cast<uint32_t>(
            Rng.nextBelow(kProbeInts * sizeof(jni::jint)));
        break;
      default:
        break;
      }
    };
  } else if (Name == "pin_scan_shared") {
    std::vector<uint64_t> IntSums, TextSums;
    for (unsigned K = 0; K < kSharedPayloads; ++K) {
      In.SharedInts.push_back(randomInts(Shared, kSharedArrayInts));
      In.SharedTexts.push_back(randomText(Shared, kSharedStringChars));
      IntSums.push_back(
          sumInts(In.SharedInts[K].data(), In.SharedInts[K].size()));
      TextSums.push_back(sumChars(In.SharedTexts[K]));
    }
    Fill = [IntSums, TextSums](Req &R, support::Xoshiro256 &Rng,
                               support::Xoshiro256 &) {
      R.Arg = static_cast<uint32_t>(Rng.nextBelow(kSharedPayloads));
      // Two array pins (~8 us) per string scan (~120 us): the median
      // stays inside the array mode instead of flipping between modes.
      if (Rng.nextBelow(3) != 0) {
        R.K = Kind::ArrayPin;
        R.Expect = IntSums[R.Arg];
      } else {
        R.K = Kind::StringCritical;
        R.Expect = TextSums[R.Arg];
      }
    };
  } else {
    Fill = [](Req &R, support::Xoshiro256 &Rng, support::Xoshiro256 &Sizes) {
      R.K = Kind::AllocWrite;
      // Sizes is a stream of its own only during the start-up.
      const bool Startup = &Sizes != &Rng;
      do
        R.Arg = static_cast<uint32_t>(
            Sizes.nextInRange(kAllocMinInts, kAllocMaxInts));
      while (Startup && uncarvedSize(R.Arg));
      // Values Base, Base + 1, ... never wrap, so the expected sum has a
      // closed form.
      R.Base = static_cast<uint32_t>(
          Rng.nextBelow(uint64_t(UINT32_MAX) - kAllocMaxInts));
      R.Expect =
          uint64_t(R.Arg) * R.Base + uint64_t(R.Arg) * (R.Arg - 1) / 2;
    };
  }

  if (Spec.OpenLoop) {
    In.MeanInterarrivalNs = 1e9 / Spec.RatePerSec;
    // 20% headroom over the expected arrivals; running out is reported.
    In.Arrivals.resize(static_cast<size_t>((C.WarmupSeconds +
                                            C.WindowSeconds) *
                                           Spec.RatePerSec * 1.2) +
                       64);
    double DueNs = 0;
    for (Req &R : In.Arrivals) {
      DueNs += -In.MeanInterarrivalNs *
               std::log(std::max(Shared.nextDouble(), 1e-12));
      R.DueNs = static_cast<uint64_t>(DueNs);
      Fill(R, Shared, Shared);
    }
    return In;
  }
  for (unsigned W = 0; W < Spec.Workers; ++W) {
    support::Xoshiro256 Rng(C.Seed * 0x9e3779b97f4a7c15ULL + W + 1);
    // The first kAllocStartupRequests sizes are the same for every seed
    // and leave out the uncarved size groups.
    support::Xoshiro256 Startup(kAllocStartupSeed + W);
    std::vector<Req> Plan(kClosedPlanSize);
    for (size_t I = 0; I < Plan.size(); ++I)
      Fill(Plan[I], Rng, I < kAllocStartupRequests ? Startup : Rng);
    In.Plans.push_back(std::move(Plan));
  }
  return In;
}

// ---- one set-up -----------------------------------------------------------

thread_local uint64_t TlFaults = 0;

mte::FaultAction countFault(void *, const mte::FaultRecord &) {
  ++TlFaults;
  return mte::FaultAction::Continue;
}

/// Start barrier between the phase owner and its workers.
struct Gate {
  std::mutex M;
  std::condition_variable Cv;
  unsigned Ready = 0;
  unsigned SetupFailures = 0;
  bool Go = false;
  bool Abort = false;
  uint64_t EpochNs = 0;
  /// Open loop: the next arrival a free worker takes.
  std::atomic<size_t> NextArrival{0};
};

/// One set-up of the system under test. Members are destroyed in reverse
/// order: shared fixtures' scope, then the main thread's attachment, then
/// the session.
struct Live {
  explicit Live(const api::SessionConfig &C) : S(C) {}
  api::Session S;
  std::unique_ptr<api::ScopedAttach> Main;
  std::unique_ptr<rt::HandleScope> MainScope;
  std::vector<jni::jarray> SharedArrays;
  std::vector<jni::jstring> SharedStrings;
};

api::SessionConfig sessionConfig(const PhaseConfig &C) {
  api::SessionConfig SC;
  SC.Protection = C.Scheme;
  SC.BackgroundGc = C.Spec->BackgroundGc;
  SC.Seed = C.Seed;
  return SC;
}

bool makeSharedFixtures(Live &L, const Inputs &In) {
  if (In.SharedInts.empty())
    return true;
  L.Main = std::make_unique<api::ScopedAttach>(L.S, "bench-main");
  L.MainScope = std::make_unique<rt::HandleScope>(L.S.runtime());
  jni::JniEnv &Env = L.Main->env();
  for (size_t K = 0; K < In.SharedInts.size(); ++K) {
    jni::jarray A = Env.NewIntArray(*L.MainScope, kSharedArrayInts);
    jni::jstring Str =
        Env.NewStringUTF(*L.MainScope, In.SharedTexts[K].c_str());
    if (A == nullptr || Str == nullptr)
      return false;
    Env.SetIntArrayRegion(A, 0, kSharedArrayInts, In.SharedInts[K].data());
    L.SharedArrays.push_back(A);
    L.SharedStrings.push_back(Str);
  }
  return true;
}

struct Outcome {
  uint64_t Checksum = 0;
  bool Null = false; ///< null allocation or null pointer from a Get call
};

/// Sleeps until \p DueNs less kSpinNs, then yields until it. Workers
/// set a 1 ns timer slack, so the sleep ends within microseconds; a
/// worker waiting for its next arrival leaves its CPU to the collector
/// and the other workers instead of spinning through the whole wait.
constexpr uint64_t kSpinNs = 50'000;

void waitUntil(uint64_t DueNs) {
  for (;;) {
    uint64_t Now = monotonicNanos();
    if (Now >= DueNs)
      return;
    uint64_t Remaining = DueNs - Now;
    if (Remaining > kSpinNs)
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(Remaining - kSpinNs));
    else
      std::this_thread::yield();
  }
}

class Worker {
public:
  Worker(Live &L, const PhaseConfig &C, const Inputs &In, unsigned Index,
         Gate &G, WorkerResult &Out)
      : L(L), C(C), In(In), Index(Index), G(G), Out(Out),
        Rec(C.Traced, C.SpanLogPerWorker) {}

  void run() {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    api::ScopedAttach Me(L.S, support::format("bench-w%u", Index));
    rt::HandleScope Scope(L.S.runtime());
    this->Me = &Me;
    bool SetupOk = makeFixtures(Scope);
    {
      std::unique_lock<std::mutex> Lock(G.M);
      ++G.Ready;
      if (!SetupOk)
        ++G.SetupFailures;
      G.Cv.notify_all();
      G.Cv.wait(Lock, [&] { return G.Go || G.Abort; });
      if (G.Abort)
        return;
    }
    loop();
    Out.Spans = Rec.log();
  }

private:
  bool makeFixtures(rt::HandleScope &Scope) {
    jni::JniEnv &Env = Me->env();
    Scratch.resize(kSharedArrayInts);
    if (std::string_view(C.Spec->Name) != "serve_mixed")
      return true;
    IntArray = Env.NewIntArray(Scope, kArrayInts);
    // The probe sits between two pad arrays so a bounded OOB read stays
    // inside mapped heap under every scheme.
    jni::jarray PadBefore = Env.NewIntArray(Scope, kPadInts);
    Probe = Env.NewIntArray(Scope, kProbeInts);
    jni::jarray PadAfter = Env.NewIntArray(Scope, kPadInts);
    Str = Env.NewStringUTF(Scope, In.Text.c_str());
    if (!IntArray || !PadBefore || !Probe || !PadAfter || !Str)
      return false;
    Env.SetIntArrayRegion(IntArray, 0, kArrayInts, In.Ints.data());
    ProbeExtent = static_cast<int64_t>(
        support::alignTo(Probe->dataBytes(), mte::kGranuleSize));
    Html = workloads::makeWorkload("HTML5 DOM Strings");
    Ctx = std::make_unique<workloads::WorkloadContext>(
        workloads::WorkloadContext{L.S, Env, Me->thread(), Scope,
                                   kHtmlDocumentSeed});
    Html->prepare(*Ctx);
    return !Env.ExceptionCheck();
  }

  void loop() {
    const bool Open = C.Spec->OpenLoop;
    const bool ProbesScored = scoresProbes(C.Scheme);
    // Known gaps, counted and printed but not failures: use-after-release
    // goes undetected while released tags are cleared lazily, and
    // alloc_pin_write's uncarved sizes are refused.
    const bool UarGapKnown = sessionConfig(C).DeferredTagClear;
    const bool RefusalsGated = ProbesScored && !C.Spec->RefusalsKnown;
    const uint64_t Epoch = G.EpochNs;
    const uint64_t WindowStart = Epoch + toNs(C.WarmupSeconds);
    const uint64_t End = WindowStart + toNs(C.WindowSeconds);
    const uint64_t LateNs = static_cast<uint64_t>(In.MeanInterarrivalNs);
    const uint64_t Parts = windowParts(C.WindowSeconds);
    jni::JniEnv &Env = Me->env();
    // Reserved, not touched: no reallocation inside the window.
    Out.Samples.reserve(Open ? In.Arrivals.size() : kClosedSampleCapacity);

    for (uint64_t Seq = 0;; ++Seq) {
      const Req *R;
      uint64_t Due = 0;
      if (Open) {
        // Arrivals are taken in order by whichever worker is free, like a
        // server's shared accept queue: a request waits only when every
        // worker is busy.
        size_t Next = G.NextArrival.fetch_add(1, std::memory_order_relaxed);
        if (Next >= In.Arrivals.size()) {
          Out.PlanExhausted = true;
          break;
        }
        R = &In.Arrivals[Next];
        Due = Epoch + R->DueNs;
        if (Due >= End)
          break;
        waitUntil(Due);
      } else {
        const std::vector<Req> &Plan = In.Plans[Index];
        R = &Plan[Seq % Plan.size()];
      }
      const uint64_t Start = monotonicNanos();
      if (!Open) {
        if (Start >= End)
          break;
        Due = Start;
      }
      const bool Record = Due >= WindowStart;
      Rec.beginRequest((uint64_t(Index) << 40) | Seq, Record);
      const uint64_t FaultsBefore = TlFaults;
      Outcome O;
      {
        ScopedSpan Root(Rec, SpanName::Request);
        O = serve(*R);
      }
      const uint64_t Finish = monotonicNanos();
      const bool Faulted = TlFaults != FaultsBefore;
      const bool JniError = Env.ExceptionCheck();
      if (JniError)
        Env.ExceptionClear();
      Rec.endRequest(Out.Layers);
      if (!Record)
        continue;

      Result Res = Result::Ok;
      if (isRogue(R->K)) {
        // A probe is correct when it is detected; the reference schemes
        // cannot see it, so it is scored only under MTE4JNI.
        bool Uar = R->K == Kind::RogueUar;
        ++(Uar ? Out.UarSent : Out.OobSent);
        if (Faulted)
          ++(Uar ? Out.UarDetected : Out.OobDetected);
        else if (ProbesScored)
          Res = Uar && UarGapKnown ? Result::Undetected : Result::Failed;
      } else if (O.Null) {
        ++Out.Refused;
        Out.RefusedUncarved += R->K == Kind::AllocWrite && uncarvedSize(R->Arg);
        Res = RefusalsGated ? Result::Failed : Result::Refused;
      } else {
        Out.ChecksumMismatches += O.Checksum != R->Expect;
        Out.UnexpectedFaults += Faulted;
        Out.JniErrors += JniError;
        if (O.Checksum != R->Expect || Faulted || JniError)
          Res = Result::Failed;
      }
      if (Open && Start > Due + LateNs)
        ++Out.Late;
      Out.Samples.push_back(
          {clampNs(Finish - Due), clampNs(Finish - Start), R->K, Res,
           static_cast<uint16_t>((Due - WindowStart) * Parts /
                                 (End - WindowStart))});
    }
  }

  Outcome serve(const Req &R) {
    switch (R.K) {
    case Kind::ArrayPin:
      return arrayPin(R);
    case Kind::StringCritical:
      return stringCritical(R);
    case Kind::RegionCopy:
      return regionCopy(R);
    case Kind::HtmlParse: {
      ScopedSpan Span(Rec, SpanName::HtmlRun);
      return Outcome{Html->run(*Ctx)};
    }
    case Kind::RogueOob:
      return rogueOob(R);
    case Kind::RogueUar:
      return rogueUar(R);
    case Kind::AllocWrite:
      return allocWrite(R);
    case Kind::kCount:
      break;
    }
    return Outcome{~R.Expect};
  }

  /// Runs \p Body as a native method inside trampoline/body spans.
  template <typename Fn>
  Outcome native(rt::NativeKind NK, const char *Method, Fn &&Body) {
    ScopedSpan Tramp(Rec, SpanName::Trampoline);
    return rt::callNative(Me->thread(), NK, Method, [&] {
      ScopedSpan Native(Rec, SpanName::NativeBody);
      return Body(Me->env());
    });
  }

  /// The safepoint checkpoint before char \p Index of the current scan.
  void poll(jni::jsize Index) {
    Rec.poll(Index % (kPollEvery * SpanRecorder::kPollSampleEvery) == 0,
             [this] { L.S.runtime().safepointPoll(); });
  }

  /// The host-side checksum of a request's output, in its own span.
  uint64_t verifySum(const jni::jint *Data, size_t N) {
    ScopedSpan Span(Rec, SpanName::Verify);
    return sumInts(Data, N);
  }

  Outcome arrayPin(const Req &R) {
    // serve_mixed mirrors the server (Get/ReleaseIntArrayElements on the
    // worker's own array); pin_scan_shared pins a shared payload through
    // GetPrimitiveArrayCritical.
    const bool Shared = !L.SharedArrays.empty();
    jni::jarray A = Shared ? L.SharedArrays[R.Arg] : IntArray;
    return native(rt::NativeKind::Regular, "bench_array_pin",
                  [&](jni::JniEnv &Env) {
      const uint64_t Ints = A->Length;
      jni::jboolean IsCopy;
      mte::TaggedPtr<void> P;
      {
        ScopedSpan Span(Rec, SpanName::JniAcquire);
        P = Shared ? Env.GetPrimitiveArrayCritical(A, &IsCopy)
                   : Env.GetIntArrayElements(A, &IsCopy).cast<void>();
      }
      if (P.raw() == nullptr)
        return Outcome{0, true};
      {
        ScopedSpan Span(Rec, SpanName::MteScan, bulkGranules(Ints));
        mte::readBytes(Scratch.data(), P.cast<const void>(),
                       Ints * sizeof(jni::jint));
      }
      Outcome O{verifySum(Scratch.data(), Ints)};
      ScopedSpan Span(Rec, SpanName::JniRelease);
      if (Shared)
        Env.ReleasePrimitiveArrayCritical(A, P, jni::JNI_ABORT);
      else
        Env.ReleaseIntArrayElements(A, P.cast<jni::jint>(), jni::JNI_ABORT);
      return O;
    });
  }

  Outcome stringCritical(const Req &R) {
    jni::jstring S = L.SharedStrings.empty() ? Str : L.SharedStrings[R.Arg];
    // A regular native method: @CriticalNative (the server's choice for
    // this kind) leaves the thread's tag checks off, so its scan would not
    // be checked at all.
    return native(rt::NativeKind::Regular, "bench_string_crit",
                  [&](jni::JniEnv &Env) {
      const jni::jsize Len = Env.GetStringLength(S);
      jni::jboolean IsCopy;
      mte::TaggedPtr<const jni::jchar> P;
      {
        ScopedSpan Span(Rec, SpanName::JniAcquire);
        P = Env.GetStringCritical(S, &IsCopy);
      }
      if (P.raw() == nullptr)
        return Outcome{0, true};
      uint64_t Acc = 0;
      {
        // The strided checkpoint lets a requested GC pause run mid-scan;
        // the string stays pinned, so P is stable across the poll.
        ScopedSpan Span(Rec, SpanName::MteScan, static_cast<uint32_t>(Len));
        for (jni::jsize I = 0; I < Len; ++I) {
          if (I % kPollEvery == 0)
            poll(I);
          Acc += mte::load<const jni::jchar>(P + I);
        }
      }
      ScopedSpan Span(Rec, SpanName::JniRelease);
      Env.ReleaseStringCritical(S, P);
      return Outcome{Acc};
    });
  }

  Outcome regionCopy(const Req &R) {
    return native(rt::NativeKind::Regular, "bench_region_copy",
                  [&](jni::JniEnv &Env) {
      jni::jint Buf[kRegionWindow];
      const jni::jsize Start = static_cast<jni::jsize>(R.Arg);
      {
        ScopedSpan Span(Rec, SpanName::JniRegionCopy);
        Env.GetIntArrayRegion(IntArray, Start, kRegionWindow, Buf);
      }
      Outcome O{verifySum(Buf, kRegionWindow)};
      {
        ScopedSpan Span(Rec, SpanName::JniRegionCopy);
        Env.SetIntArrayRegion(IntArray, Start, kRegionWindow, Buf);
      }
      // Per-request garbage, so the collector has sweep work under load.
      Env.PushLocalFrame(4);
      jni::jarray Garbage;
      {
        ScopedSpan Span(Rec, SpanName::HeapAlloc);
        Garbage = Env.NewIntArrayLocal(128);
      }
      Env.PopLocalFrame(nullptr);
      O.Null = Garbage == nullptr;
      return O;
    });
  }

  Outcome rogueOob(const Req &R) {
    return native(rt::NativeKind::Regular, "bench_rogue_oob",
                  [&](jni::JniEnv &Env) {
      jni::jboolean IsCopy;
      mte::TaggedPtr<void> P;
      {
        ScopedSpan Span(Rec, SpanName::JniAcquire);
        P = Env.GetPrimitiveArrayCritical(Probe, &IsCopy);
      }
      if (P.raw() == nullptr)
        return Outcome{0, true};
      {
        // Past the probe's granule extent, inside the pad array (and
        // inside guarded copy's red zone): always mapped.
        ScopedSpan Span(Rec, SpanName::MteScan, 1);
        volatile jni::jbyte V = mte::load<const jni::jbyte>(
            P.cast<const jni::jbyte>() + (ProbeExtent + R.Arg));
        (void)V;
      }
      ScopedSpan Span(Rec, SpanName::JniRelease);
      Env.ReleasePrimitiveArrayCritical(Probe, P, jni::JNI_ABORT);
      return Outcome{R.Expect};
    });
  }

  Outcome rogueUar(const Req &R) {
    return native(rt::NativeKind::Regular, "bench_rogue_uar",
                  [&](jni::JniEnv &Env) {
      jni::jboolean IsCopy;
      mte::TaggedPtr<void> P;
      {
        ScopedSpan Span(Rec, SpanName::JniAcquire);
        P = Env.GetPrimitiveArrayCritical(Probe, &IsCopy);
      }
      if (P.raw() == nullptr)
        return Outcome{0, true};
      {
        ScopedSpan Span(Rec, SpanName::JniRelease);
        Env.ReleasePrimitiveArrayCritical(Probe, P, 0);
      }
      // Under guarded copy the release freed the copy: a physical stale
      // read would be a host use-after-free, so it is not performed.
      if (L.S.policy().exposesDirectPointers()) {
        ScopedSpan Span(Rec, SpanName::MteScan, 1);
        volatile jni::jbyte V =
            mte::load<const jni::jbyte>(P.cast<const jni::jbyte>() + R.Arg);
        (void)V;
      }
      return Outcome{R.Expect};
    });
  }

  Outcome allocWrite(const Req &R) {
    return native(rt::NativeKind::Regular, "bench_alloc_pin_write",
                  [&](jni::JniEnv &Env) {
      const uint32_t Ints = R.Arg;
      Env.PushLocalFrame(1);
      jni::jarray A;
      {
        ScopedSpan Span(Rec, SpanName::HeapAlloc);
        A = Env.NewIntArrayLocal(static_cast<jni::jsize>(Ints));
      }
      Outcome O;
      if (A == nullptr) {
        O.Null = true;
        Env.PopLocalFrame(nullptr);
        return O;
      }
      jni::jboolean IsCopy;
      mte::TaggedPtr<jni::jint> P;
      {
        ScopedSpan Span(Rec, SpanName::JniAcquire);
        P = Env.GetPrimitiveArrayCritical(A, &IsCopy).cast<jni::jint>();
      }
      if (P.raw() != nullptr) {
        {
          ScopedSpan Span(Rec, SpanName::MteStore, Ints);
          for (uint32_t I = 0; I < Ints; ++I)
            mte::store<jni::jint>(P + I, static_cast<jni::jint>(R.Base + I));
        }
        {
          // Per-element checked loads, like the fill. With a bulk read
          // the request was short enough (~80k req/s) that the requests a
          // GC pause blocks at native entry (3 per pause, ~220 pauses/s)
          // were ~1% of all: p99 sat on the knee between the service-time
          // and the blocked modes and moved 2.5x between runs. At ~40k
          // req/s they are ~1.6% and p99 lies inside the blocked mode.
          ScopedSpan Span(Rec, SpanName::MteScan, Ints);
          for (uint32_t I = 0; I < Ints; ++I)
            O.Checksum += static_cast<uint32_t>(mte::load<jni::jint>(P + I));
        }
        ScopedSpan Span(Rec, SpanName::JniRelease);
        Env.ReleasePrimitiveArrayCritical(A, P.cast<void>(), 0);
      } else {
        O.Null = true;
      }
      Env.PopLocalFrame(nullptr);
      return O;
    });
  }

  Live &L;
  const PhaseConfig &C;
  const Inputs &In;
  unsigned Index;
  Gate &G;
  WorkerResult &Out;
  SpanRecorder Rec;
  api::ScopedAttach *Me = nullptr;
  std::vector<jni::jint> Scratch;
  // serve_mixed fixtures
  jni::jarray IntArray = nullptr;
  jni::jarray Probe = nullptr;
  int64_t ProbeExtent = 0;
  jni::jstring Str = nullptr;
  std::unique_ptr<workloads::Workload> Html;
  std::unique_ptr<workloads::WorkloadContext> Ctx;
};

/// The host's steal time (all CPUs, in clock ticks) from /proc/stat.
uint64_t readStealTicks() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return 0;
  unsigned long long V[8] = {};
  int Got = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                        &V[0], &V[1], &V[2], &V[3], &V[4], &V[5], &V[6],
                        &V[7]);
  std::fclose(F);
  return Got == 8 ? V[7] : 0;
}

double readPeakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Mb = 0;
  while (std::fgets(Line, sizeof(Line), F)) {
    unsigned long long Kb = 0;
    if (std::sscanf(Line, "VmHWM: %llu kB", &Kb) == 1) {
      Mb = double(Kb) / 1024.0;
      break;
    }
  }
  std::fclose(F);
  return Mb;
}

} // namespace

const WorkloadSpec *findWorkload(std::string_view Name) {
  for (const WorkloadSpec &W : kWorkloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

PhaseResult runPhase(const PhaseConfig &C) {
  const Inputs In = makeInputs(C);
  const unsigned N = C.Spec->Workers;
  PhaseResult Phase;
  Phase.WindowSeconds = C.WindowSeconds;

  for (unsigned Rep = 0; Rep < std::max(1u, C.SetupReps); ++Rep) {
    const bool Measured = Rep + 1 >= C.SetupReps;
    std::vector<WorkerResult> Outs(N);
    Gate G;
    std::vector<std::thread> Threads;
    Threads.reserve(N);

    // ---- timed set-up: session, shared fixtures, attach, fixtures ------
    const uint64_t SetupStart = monotonicNanos();
    Live L(sessionConfig(C));
    bool SetupOk = makeSharedFixtures(L, In);
    for (unsigned W = 0; W < N; ++W)
      Threads.emplace_back([&, W] {
        Worker(L, C, In, W, G, Outs[W]).run();
      });
    {
      std::unique_lock<std::mutex> Lock(G.M);
      G.Cv.wait(Lock, [&] { return G.Ready == N; });
      SetupOk = SetupOk && G.SetupFailures == 0;
    }
    Phase.SetupSeconds.push_back(double(monotonicNanos() - SetupStart) *
                                  1e-9);

    if (!Measured || !SetupOk) {
      {
        std::lock_guard<std::mutex> Lock(G.M);
        G.Abort = true;
      }
      G.Cv.notify_all();
      for (std::thread &T : Threads)
        T.join();
      if (!SetupOk) {
        Phase.SetupFailed = true;
        return Phase;
      }
      continue;
    }

    // ---- warm-up, then the measured window ------------------------------
    mte::MteSystem::instance().setFaultHandler(countFault, nullptr);
    {
      std::lock_guard<std::mutex> Lock(G.M);
      G.EpochNs = monotonicNanos();
      G.Go = true;
    }
    G.Cv.notify_all();
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(G.EpochNs + toNs(C.WarmupSeconds))));
    Phase.Before = support::Metrics::snapshot();
    Phase.HeapBefore = L.S.runtime().heap().stats();
    {
      const uint64_t WindowStart = G.EpochNs + toNs(C.WarmupSeconds);
      const uint64_t WindowNs = toNs(C.WindowSeconds);
      const unsigned Parts = windowParts(C.WindowSeconds);
      uint64_t Ticks = readStealTicks();
      for (unsigned P = 1; P <= Parts; ++P) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(WindowStart + WindowNs * P / Parts)));
        uint64_t Now = readStealTicks();
        Phase.PartStealShare.push_back(
            double(Now - Ticks) / double(sysconf(_SC_CLK_TCK)) /
            (double(WindowNs) * 1e-9 / Parts) /
            double(std::thread::hardware_concurrency()));
        Ticks = Now;
      }
    }
    for (std::thread &T : Threads)
      T.join();
    Phase.After = support::Metrics::snapshot();
    Phase.HeapAfter = L.S.runtime().heap().stats();
    mte::MteSystem::instance().setFaultHandler(nullptr, nullptr);
    // Inputs and samples are the generator's, not the system's.
    uint64_t OwnBytes = In.Arrivals.size() * sizeof(Req);
    for (unsigned W = 0; W < N; ++W)
      OwnBytes += Outs[W].Samples.size() * sizeof(Sample);
    for (const std::vector<Req> &Plan : In.Plans)
      OwnBytes += Plan.size() * sizeof(Req);
    Phase.PeakRssMb = readPeakRssMb() - double(OwnBytes) / (1 << 20);
    Phase.Workers = std::move(Outs);
  }
  return Phase;
}

} // namespace perfbench
