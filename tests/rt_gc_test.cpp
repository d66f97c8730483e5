//===- rt_gc_test.cpp - Mark-sweep GC behaviour ---------------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/rt/Runtime.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>

namespace {

using namespace mte4jni;
using namespace mte4jni::rt;

RuntimeConfig baseConfig() {
  RuntimeConfig C;
  C.Heap.CapacityBytes = 8 << 20;
  return C;
}

TEST(RtGc, RootedObjectsSurvive) {
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    ObjectHeader *Rooted = RT.newPrimArray(Scope, PrimType::Int, 16);
    ObjectHeader *Unrooted = RT.heap().allocPrimArray(PrimType::Int, 16);

    GcResult Result = RT.gc().collect();
    EXPECT_EQ(Result.ObjectsFreed, 1u);
    EXPECT_TRUE(RT.heap().isLiveObject(Rooted));
    EXPECT_FALSE(RT.heap().isLiveObject(Unrooted));
  }
  RT.detachCurrentThread();
}

TEST(RtGc, ScopeExitUnroots) {
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");
  ObjectHeader *Obj;
  {
    HandleScope Scope(RT);
    Obj = RT.newPrimArray(Scope, PrimType::Int, 16);
    RT.gc().collect();
    EXPECT_TRUE(RT.heap().isLiveObject(Obj));
  }
  RT.gc().collect();
  EXPECT_FALSE(RT.heap().isLiveObject(Obj));
  RT.detachCurrentThread();
}

TEST(RtGc, PinnedObjectsAreNotSwept) {
  // JNI Get* pins; the GC must not reclaim memory native code holds.
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");
  ObjectHeader *Obj = RT.heap().allocPrimArray(PrimType::Int, 16);
  Obj->pin();
  RT.gc().collect();
  EXPECT_TRUE(RT.heap().isLiveObject(Obj));
  Obj->unpin();
  RT.gc().collect();
  EXPECT_FALSE(RT.heap().isLiveObject(Obj));
  RT.detachCurrentThread();
}

TEST(RtGc, VerifyPassReadsEveryPayload) {
  RuntimeConfig C = baseConfig();
  C.Gc.VerifyObjectBodies = true;
  Runtime RT(C);
  RT.attachCurrentThread("main");
  HandleScope Scope(RT);
  for (int I = 0; I < 10; ++I)
    RT.newPrimArray(Scope, PrimType::Long, 100);
  GcResult Result = RT.gc().collect();
  EXPECT_EQ(Result.ObjectsVerified, 10u);
  EXPECT_EQ(Result.PayloadBytesVerified, 10u * 800u);
  RT.detachCurrentThread();
}

TEST(RtGc, CriticalSectionBlocksCollection) {
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");

  RT.enterCritical();
  std::atomic<bool> GcDone{false};
  std::thread Gc([&] {
    RT.gc().collect();
    GcDone.store(true);
  });

  // The collector must be stuck waiting for the critical section.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(GcDone.load());

  RT.exitCritical();
  Gc.join();
  EXPECT_TRUE(GcDone.load());
  RT.detachCurrentThread();
}

TEST(RtGc, ReentrantCriticalDoesNotDeadlock) {
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");
  RT.enterCritical();
  RT.enterCritical(); // nested
  EXPECT_EQ(RT.criticalDepth(), 2u);
  RT.exitCritical();
  RT.exitCritical();
  EXPECT_EQ(RT.criticalDepth(), 0u);
  RT.gc().collect(); // must not hang
  RT.detachCurrentThread();
}

TEST(RtGc, BackgroundThreadCollects) {
  RuntimeConfig C = baseConfig();
  C.Gc.BackgroundThread = true;
  C.Gc.IntervalMillis = 1;
  Runtime RT(C);
  RT.attachCurrentThread("main");

  // Allocate garbage; the background thread should reclaim it.
  for (int I = 0; I < 50; ++I)
    RT.heap().allocPrimArray(PrimType::Int, 64);

  // The sweep empties the heap mid-cycle, but the cycle count moves only
  // at the cycle's end: wait for both.
  for (int Spin = 0; Spin < 200 && (RT.heap().stats().ObjectsLive > 0 ||
                                    RT.gc().completedCycles() == 0);
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(RT.heap().stats().ObjectsLive, 0u);
  EXPECT_GT(RT.gc().completedCycles(), 0u);
  RT.detachCurrentThread();
}

TEST(RtGc, StartStopIdempotent) {
  RuntimeConfig C = baseConfig();
  Runtime RT(C);
  RT.gc().start();
  RT.gc().start(); // second start is a no-op
  RT.gc().stop();
  RT.gc().stop(); // second stop is a no-op
}

TEST(RtGc, AllocationFailureTriggersCollectAndRetry) {
  // Like ART: the factory path collects once before giving up.
  RuntimeConfig C;
  C.Heap.CapacityBytes = 1 << 20; // 1 MiB heap
  Runtime RT(C);
  RT.attachCurrentThread("main");
  {
    // Fill the heap with garbage (unrooted).
    HandleScope Temp(RT);
    while (RT.heap().allocPrimArray(PrimType::Long, 1024) != nullptr) {
    }
  }
  {
    // The direct heap call fails...
    EXPECT_EQ(RT.heap().allocPrimArray(PrimType::Long, 1024), nullptr);
    // ...but the runtime factory reclaims the garbage and succeeds.
    HandleScope Scope(RT);
    EXPECT_NE(RT.newPrimArray(Scope, PrimType::Long, 1024), nullptr);
  }
  RT.detachCurrentThread();
}

TEST(RtGc, FreeListMemoryIsReusedAfterGc) {
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");
  ObjectHeader *Garbage = RT.heap().allocPrimArray(PrimType::Int, 256);
  uint64_t Addr = reinterpret_cast<uint64_t>(Garbage);
  RT.gc().collect();
  ObjectHeader *Reused = RT.heap().allocPrimArray(PrimType::Int, 256);
  EXPECT_EQ(reinterpret_cast<uint64_t>(Reused), Addr);
  RT.detachCurrentThread();
}

/// The heap's footprint must follow what each cycle allocates, not the
/// mix of sizes it draws. One thread churns unrooted arrays of uniformly
/// drawn 64 B - 16 KiB blocks and collects every kPerCycle allocations, so
/// each cycle's garbage is swept before the next cycle draws. Size
/// brackets let a swept block serve any request of its bracket; with
/// exact-size free lists nearly every draw found no block of its own size
/// and bumped the frontier, which crept towards the arena's capacity.
TEST(RtGc, FrontierStaysNearOneCycleOfAllocation) {
  RuntimeConfig C = baseConfig();
  C.Heap.CapacityBytes = 64 << 20;
  C.Gc.Parallelism = 1;
  Runtime RT(C);
  RT.attachCurrentThread("main");
  support::Gauge &Frontier =
      support::Metrics::gauge("rt/heap/frontier_bytes");
  Frontier.reset();

  constexpr unsigned kPerCycle = 64;
  constexpr unsigned kCycles = 300;
  std::mt19937_64 Rng(7);
  std::uniform_int_distribution<uint32_t> BlockBytes(64, 16 << 10);
  uint64_t Allocated = 0, Extent = 0;
  for (unsigned Cycle = 0; Cycle < kCycles; ++Cycle) {
    for (unsigned I = 0; I < kPerCycle; ++I) {
      uint32_t Bytes = BlockBytes(Rng);
      ObjectHeader *Obj = RT.heap().allocPrimArray(
          PrimType::Byte, Bytes - static_cast<uint32_t>(sizeof(ObjectHeader)));
      ASSERT_NE(Obj, nullptr) << "heap exhausted in cycle " << Cycle;
      Allocated += Bytes;
      Extent = std::max(Extent, reinterpret_cast<uint64_t>(Obj) +
                                    Obj->SizeBytes - RT.heap().base());
    }
    RT.gc().collect();
  }
  // Per-bracket demand varies from cycle to cycle, so the pool settles at
  // a few cycles' worth of blocks (~3.6x here); exact-size lists reached
  // ~40x.
  const uint64_t Bound = 6 * (Allocated / kCycles);
  EXPECT_LT(Extent, Bound) << "blocks reach " << Extent
                           << " B past the heap base";
  const uint64_t Gauge = static_cast<uint64_t>(Frontier.value());
  EXPECT_GE(Gauge, Extent)
      << "the frontier gauge must cover every block handed out";
  EXPECT_LT(Gauge, Bound);
  RT.detachCurrentThread();
}

/// Swept memory must come back to the mutator whatever thread ran the
/// sweep: here a second thread drives collect(), as the background
/// collector or another mutator's OOM retry would, at every sweep worker
/// count. The heap is fresh, so the mutator's TLAB still has room; only a
/// fast path that reads where the sweep put the block hands it back.
class RtGcSweepWorkers : public ::testing::TestWithParam<unsigned> {};

TEST_P(RtGcSweepWorkers, SweptBlockIsReusedWhenAnotherThreadCollects) {
  RuntimeConfig C = baseConfig();
  C.Gc.Parallelism = GetParam();
  Runtime RT(C);
  RT.attachCurrentThread("main");
  ObjectHeader *Garbage = RT.heap().allocPrimArray(PrimType::Int, 256);
  uint64_t Addr = reinterpret_cast<uint64_t>(Garbage);
  uint64_t HitsBefore = RT.heap().stats().FreeListHits;

  GcResult Result;
  std::thread Collector([&] { Result = RT.gc().collect(); });
  Collector.join();
  ASSERT_EQ(Result.ObjectsFreed, 1u);
  EXPECT_FALSE(RT.heap().isLiveObject(Garbage));

  ObjectHeader *Reused = RT.heap().allocPrimArray(PrimType::Int, 256);
  EXPECT_EQ(reinterpret_cast<uint64_t>(Reused), Addr);
  EXPECT_EQ(RT.heap().stats().FreeListHits, HitsBefore + 1);
  RT.detachCurrentThread();
}

INSTANTIATE_TEST_SUITE_P(Parallelism, RtGcSweepWorkers,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
