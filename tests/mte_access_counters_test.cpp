//===- mte_access_counters_test.cpp - Checked-access accounting --------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The inlined hit paths (checkAccessFast in Access.h, checkRange in
// Access.cpp) count every check on one metric-shard lookup and reach the
// counters through the thread's ThreadState. These tests pin that
// accounting to exact deltas with more threads than metric shards, so the
// shared overflow cell is written too. They also pin the ThreadState
// lifecycle the header-inline ThreadState::current() relies on: one state
// per thread, registered with the MteSystem while the thread lives, and a
// fresh state (never the destroyed one) for a checked access made by a
// thread_local destructor that runs after the state's teardown.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <barrier>
#include <set>
#include <thread>
#include <vector>

namespace {

using namespace mte4jni;
using mte::CheckMode;
using mte::MteSystem;
using mte::TaggedPtr;
using mte::ThreadState;
using support::Metrics;

uint64_t counterValue(const char *Name) {
  return Metrics::counter(Name).value();
}

class AccessCountersTest : public ::testing::Test {
protected:
  void SetUp() override {
    MteSystem::instance().reset();
    MteSystem::instance().setProcessCheckMode(CheckMode::Sync);
    ThreadState::current().setTco(false);
    Arena = std::make_unique<mte::TaggedArena>(1 << 20);
  }
  void TearDown() override {
    Arena.reset();
    MteSystem::instance().reset();
  }

  /// A \p Bytes block in the arena tagged \p Tag, as an int pointer.
  TaggedPtr<int32_t> taggedBlock(uint64_t Bytes, mte::TagValue Tag) {
    auto P = TaggedPtr<int32_t>::fromRaw(
        static_cast<int32_t *>(Arena->allocate(Bytes)), Tag);
    mte::setTagRange(P.cast<void>(), Bytes);
    return P;
  }

  std::unique_ptr<mte::TaggedArena> Arena;
};

// Every thread does a known mix of checked accesses in its own tagged
// block: one cold load (slow path, fills the region cache), then scalar
// loads and stores, 8-byte accesses straddling two granules, and bulk
// range checks, all cache hits. With kMetricShards + 4 threads live at
// once, some count through the shared overflow cell; the exported totals
// must still be exact.
TEST_F(AccessCountersTest, ExactWithMoreThreadsThanMetricShards) {
  constexpr unsigned kThreads = support::kMetricShards + 4;
  constexpr uint64_t kLoads = 1000, kStores = 700, kStraddles = 300,
                     kRanges = 50;
  constexpr uint64_t kBlockBytes = 256, kRangeBytes = 64;

  std::vector<TaggedPtr<int32_t>> Blocks;
  for (unsigned I = 0; I < kThreads; ++I)
    Blocks.push_back(taggedBlock(kBlockBytes, 7));

  uint64_t Loads0 = counterValue("mte/access/checked_loads");
  uint64_t Stores0 = counterValue("mte/access/checked_stores");
  uint64_t Granules0 = counterValue("mte/access/checked_granules");
  uint64_t Hits0 = counterValue("mte/access/region_cache_hit");
  uint64_t Misses0 = counterValue("mte/access/region_cache_miss");
  size_t Registered0 = MteSystem::instance().registeredThreadCount();

  // Per thread: the state seen before and after the work, the metric
  // shard it counts on, and its own granule tally.
  std::vector<ThreadState *> StatesBefore(kThreads), StatesAfter(kThreads);
  std::vector<uint64_t> ThreadIds(kThreads), OwnChecks(kThreads);
  std::vector<unsigned> Shards(kThreads);
  std::barrier Live(kThreads + 1);

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < kThreads; ++I) {
    Threads.emplace_back([&, I] {
      ThreadState &TS = ThreadState::current();
      StatesBefore[I] = &TS;
      ThreadIds[I] = TS.threadId();
      Shards[I] = support::detail::metricShard();
      Live.arrive_and_wait(); // every state registered, every shard claimed
      Live.arrive_and_wait(); // the main thread has counted them

      TaggedPtr<int32_t> P = Blocks[I];
      auto *Raw = reinterpret_cast<uint8_t *>(P.raw());
      uint64_t Checks0 = TS.checksPerformed();
      (void)mte::load<int32_t>(P);
      for (uint64_t K = 0; K < kLoads; ++K)
        (void)mte::load<int32_t>(P + ptrdiff_t(K % 64));
      for (uint64_t K = 0; K < kStores; ++K)
        mte::store<int32_t>(P + ptrdiff_t(K % 64), int32_t(K));
      // [12, 20) touches granules 0 and 1; [28, 36) granules 1 and 2.
      auto Low = TaggedPtr<uint64_t>::fromRaw(
          reinterpret_cast<uint64_t *>(Raw + 12), 7);
      auto High = TaggedPtr<uint64_t>::fromRaw(
          reinterpret_cast<uint64_t *>(Raw + 28), 7);
      for (uint64_t K = 0; K < kStraddles; ++K) {
        (void)mte::load<uint64_t>(Low);
        mte::store<uint64_t>(High, K);
      }
      for (uint64_t K = 0; K < kRanges; ++K)
        mte::checkReadRange(P.cast<const void>(), kRangeBytes);
      OwnChecks[I] = TS.checksPerformed() - Checks0;
      StatesAfter[I] = &ThreadState::current();
      Live.arrive_and_wait(); // no state is destroyed before all are read
    });
  }
  Live.arrive_and_wait();
  EXPECT_EQ(MteSystem::instance().registeredThreadCount(),
            Registered0 + kThreads);
  Live.arrive_and_wait();
  Live.arrive_and_wait();
  for (auto &T : Threads)
    T.join();

  // Lifecycle: one stable state per thread, distinct across live threads,
  // registered while the thread lives and unregistered at its exit.
  EXPECT_EQ(StatesAfter, StatesBefore);
  EXPECT_EQ(std::set<ThreadState *>(StatesBefore.begin(), StatesBefore.end())
                .size(),
            kThreads);
  EXPECT_EQ(std::set<uint64_t>(ThreadIds.begin(), ThreadIds.end()).size(),
            kThreads);
  EXPECT_EQ(MteSystem::instance().registeredThreadCount(), Registered0);

  // At least kThreads - kMetricShards of them shared the overflow cell.
  unsigned Overflow = 0;
  for (unsigned S : Shards)
    Overflow += S == support::kMetricOverflowShard;
  EXPECT_GE(Overflow, kThreads - support::kMetricShards);

  const uint64_t GranulesPerThread = 1 + kLoads + kStores +
                                     2 * 2 * kStraddles +
                                     kRanges * (kRangeBytes / 16);
  for (uint64_t Checks : OwnChecks)
    EXPECT_EQ(Checks, GranulesPerThread);
  EXPECT_EQ(counterValue("mte/access/checked_loads") - Loads0,
            kThreads * (1 + kLoads + kStraddles + kRanges));
  EXPECT_EQ(counterValue("mte/access/checked_stores") - Stores0,
            kThreads * (kStores + kStraddles));
  EXPECT_EQ(counterValue("mte/access/checked_granules") - Granules0,
            kThreads * GranulesPerThread);
  EXPECT_EQ(counterValue("mte/access/region_cache_hit") - Hits0,
            kThreads * (kLoads + kStores + 2 * kStraddles + kRanges));
  EXPECT_EQ(counterValue("mte/access/region_cache_miss") - Misses0,
            uint64_t(kThreads));
}

// What a checked access from a late thread_local destructor observed.
struct LateObservation {
  ThreadState *Primary = nullptr; ///< the thread's own state, before exit
  ThreadState *Late = nullptr;    ///< what current() returned afterwards
  bool StableLate = false;
  bool ChecksOn = false;
  CheckMode Mode = CheckMode::None;
  int32_t Value = 0;
  uint64_t Checks = 0;
  bool AsyncPending = false;
};

/// Armed by the thread before it exits; its destructor runs after the
/// thread's ThreadState was destroyed (it was constructed first, and
/// thread_local destructors run in reverse order of construction).
struct LateProbe {
  TaggedPtr<int32_t> Ptr;
  LateObservation *Out = nullptr;

  ~LateProbe() {
    if (Out == nullptr)
      return;
    ThreadState &TS = ThreadState::current();
    Out->Late = &TS;
    Out->ChecksOn = TS.checksOn();
    Out->Mode = TS.checkMode();
    uint64_t Checks0 = TS.checksPerformed();
    Out->Value = mte::load<int32_t>(Ptr);
    Out->Checks = TS.checksPerformed() - Checks0;
    (void)mte::load<int32_t>(Ptr.withTag(Ptr.tag() ^ 1));
    Out->AsyncPending = TS.asyncPending();
    Out->StableLate = &ThreadState::current() == &TS;
  }
};

LateProbe &lateProbe() {
  thread_local LateProbe Probe;
  return Probe;
}

/// Runs a thread that arms a LateProbe, sets its own TCF mode and TCO,
/// does one checked access, and exits.
LateObservation runLateAccess(TaggedPtr<int32_t> P, CheckMode Mode,
                              bool Tco) {
  LateObservation Obs;
  std::thread([&] {
    LateProbe &Probe = lateProbe(); // before the thread's ThreadState
    ThreadState &TS = ThreadState::current();
    Obs.Primary = &TS;
    TS.setCheckMode(Mode);
    (void)mte::load<int32_t>(P);
    TS.setTco(Tco);
    Probe.Ptr = P;
    Probe.Out = &Obs;
  }).join();
  return Obs;
}

// Async mode, TCO clear: the late access is checked by a fresh state that
// inherits the torn-down state's TCF, a mismatch latches in it, and the
// fresh state is unregistered and freed at thread exit too.
TEST_F(AccessCountersTest, AccessAfterStateTeardownGetsFreshState) {
  TaggedPtr<int32_t> P = taggedBlock(64, 5);
  mte::store<int32_t>(P, 42);
  size_t Registered0 = MteSystem::instance().registeredThreadCount();
  uint64_t Latched0 = MteSystem::instance().stats().AsyncFaultsLatched.load();
  uint64_t Loads0 = counterValue("mte/access/checked_loads");

  LateObservation Obs = runLateAccess(P, CheckMode::Async, /*Tco=*/false);
  EXPECT_NE(Obs.Late, nullptr);
  EXPECT_NE(Obs.Late, Obs.Primary);
  EXPECT_TRUE(Obs.StableLate);
  EXPECT_TRUE(Obs.ChecksOn);
  EXPECT_EQ(Obs.Mode, CheckMode::Async);
  EXPECT_EQ(Obs.Value, 42);
  EXPECT_EQ(Obs.Checks, 1u);
  EXPECT_TRUE(Obs.AsyncPending);
  EXPECT_EQ(MteSystem::instance().stats().AsyncFaultsLatched.load() -
                Latched0,
            1u);
  // The thread's own load plus both late loads.
  EXPECT_EQ(counterValue("mte/access/checked_loads") - Loads0, 3u);
  EXPECT_EQ(MteSystem::instance().registeredThreadCount(), Registered0);
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);
}

// TCO set at exit (a support thread): the fresh state keeps checks off.
TEST_F(AccessCountersTest, AccessAfterStateTeardownKeepsTco) {
  TaggedPtr<int32_t> P = taggedBlock(64, 5);
  mte::store<int32_t>(P, 17);
  size_t Registered0 = MteSystem::instance().registeredThreadCount();
  uint64_t Latched0 = MteSystem::instance().stats().AsyncFaultsLatched.load();

  LateObservation Obs = runLateAccess(P, CheckMode::Async, /*Tco=*/true);
  EXPECT_NE(Obs.Late, Obs.Primary);
  EXPECT_FALSE(Obs.ChecksOn);
  EXPECT_EQ(Obs.Value, 17);
  EXPECT_EQ(Obs.Checks, 0u);
  EXPECT_FALSE(Obs.AsyncPending);
  EXPECT_EQ(MteSystem::instance().stats().AsyncFaultsLatched.load(),
            Latched0);
  EXPECT_EQ(MteSystem::instance().registeredThreadCount(), Registered0);
}

} // namespace
