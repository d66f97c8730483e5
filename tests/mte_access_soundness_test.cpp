//===- mte_access_soundness_test.cpp - Warm-cache tag-check soundness --------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The inlined hit paths validate an access against the thread's cached
// region and re-read the granule tags on every access; only region
// (un)registration bumps the publish epoch. These tests retag memory
// between two accesses inside one cached region under one epoch (one
// granule with stg, a range with setTagRange) and require the second
// access to fault with the precise address in sync mode and to latch in
// async mode. They also require an unregisterRegion of another region to
// send the next access through the slow path.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

namespace {

using namespace mte4jni;
using mte::CheckMode;
using mte::MteSystem;
using mte::TaggedPtr;
using mte::ThreadState;

uint64_t counterValue(const char *Name) {
  return support::Metrics::counter(Name).value();
}

uint64_t publishEpoch() {
  return mte::detail::RegionPublishEpoch.load(std::memory_order_acquire);
}

enum class Retag { OneGranule, Range };
enum class Access { Scalar, Bulk };

class AccessSoundnessTest : public ::testing::Test {
protected:
  void SetUp() override {
    MteSystem::instance().reset();
    Arena = std::make_unique<mte::TaggedArena>(1 << 16);
  }
  void TearDown() override {
    Arena.reset();
    MteSystem::instance().reset();
  }

  void enableChecks(CheckMode Mode) {
    MteSystem::instance().setProcessCheckMode(Mode);
    ThreadState::current().setTco(false);
  }

  /// Tags a 64-int (16-granule) buffer with tag 5 and warms the thread's
  /// region cache on it, then retags granule 2 (ints 8..11) — alone or as
  /// part of granules 2..4 — to tag 9 without a publish-epoch change, and
  /// re-accesses int 10 (or checks the whole buffer in bulk). Returns the
  /// buffer; the caller checks how the mismatch was reported.
  int32_t *retagBetweenAccesses(Retag How, Access Second) {
    auto *Buf = static_cast<int32_t *>(Arena->allocate(64 * sizeof(int32_t)));
    auto P = TaggedPtr<int32_t>::fromRaw(Buf, 5);
    mte::setTagRange(P.cast<void>(), 64 * sizeof(int32_t));

    (void)mte::load<int32_t>(P + 9); // fills the region cache
    uint64_t Epoch = publishEpoch();
    uint64_t Hits0 = counterValue("mte/access/region_cache_hit");
    (void)mte::load<int32_t>(P + 10);
    EXPECT_EQ(counterValue("mte/access/region_cache_hit") - Hits0, 1u)
        << "the first access must leave a warm cache";

    if (How == Retag::OneGranule)
      mte::stg(TaggedPtr<void>::fromRaw(Buf + 8, 9));
    else
      mte::setTagRange(TaggedPtr<void>::fromRaw(Buf + 8, 9),
                       3 * mte::kGranuleSize);
    EXPECT_EQ(publishEpoch(), Epoch) << "a tag store must not bump the epoch";

    if (Second == Access::Scalar)
      (void)mte::load<int32_t>(P + 10);
    else
      mte::checkReadRange(P.cast<const void>(), 64 * sizeof(int32_t));
    return Buf;
  }

  void expectSyncFault(Retag How, Access Second, uint64_t FaultOffset) {
    enableChecks(CheckMode::Sync);
    int32_t *Buf = retagBetweenAccesses(How, Second);
    auto Faults = MteSystem::instance().faultLog().snapshot();
    ASSERT_EQ(Faults.size(), 1u);
    EXPECT_EQ(Faults[0].Kind, mte::FaultKind::TagMismatchSync);
    EXPECT_TRUE(Faults[0].HasAddress);
    EXPECT_EQ(Faults[0].Address, reinterpret_cast<uint64_t>(Buf) + FaultOffset);
    EXPECT_EQ(Faults[0].PointerTag, 5);
    EXPECT_EQ(Faults[0].MemoryTag, 9);
    EXPECT_FALSE(Faults[0].IsWrite);

    // Granules left at tag 5 still pass on the warm cache.
    uint64_t Hits0 = counterValue("mte/access/region_cache_hit");
    (void)mte::load<int32_t>(TaggedPtr<int32_t>::fromRaw(Buf + 1, 5));
    EXPECT_EQ(counterValue("mte/access/region_cache_hit") - Hits0, 1u);
    EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 1u);
  }

  void expectAsyncLatch(Retag How, Access Second, uint64_t FaultOffset) {
    enableChecks(CheckMode::Async);
    uint64_t Latched0 =
        MteSystem::instance().stats().AsyncFaultsLatched.load();
    int32_t *Buf = retagBetweenAccesses(How, Second);
    EXPECT_TRUE(ThreadState::current().asyncPending());
    EXPECT_EQ(MteSystem::instance().stats().AsyncFaultsLatched.load() -
                  Latched0,
              1u);
    EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);

    mte::simulatedSyscall("getuid");
    auto Faults = MteSystem::instance().faultLog().snapshot();
    ASSERT_EQ(Faults.size(), 1u);
    EXPECT_EQ(Faults[0].Kind, mte::FaultKind::TagMismatchAsync);
    EXPECT_EQ(Faults[0].DebugAddress,
              reinterpret_cast<uint64_t>(Buf) + FaultOffset);
    EXPECT_EQ(Faults[0].MemoryTag, 9);
  }

  std::unique_ptr<mte::TaggedArena> Arena;
};

// Fault offsets into the buffer: the scalar re-access reads int 10; the
// bulk check reports the first byte of the first retagged granule (int 8).
constexpr uint64_t kScalarFault = 10 * sizeof(int32_t);
constexpr uint64_t kBulkFault = 8 * sizeof(int32_t);

TEST_F(AccessSoundnessTest, StgBetweenLoadsFaultsSync) {
  expectSyncFault(Retag::OneGranule, Access::Scalar, kScalarFault);
}

TEST_F(AccessSoundnessTest, SetTagRangeBetweenLoadsFaultsSync) {
  expectSyncFault(Retag::Range, Access::Scalar, kScalarFault);
}

TEST_F(AccessSoundnessTest, StgBetweenLoadsLatchesAsync) {
  expectAsyncLatch(Retag::OneGranule, Access::Scalar, kScalarFault);
}

TEST_F(AccessSoundnessTest, SetTagRangeBetweenLoadsLatchesAsync) {
  expectAsyncLatch(Retag::Range, Access::Scalar, kScalarFault);
}

TEST_F(AccessSoundnessTest, StgBeforeBulkCheckFaultsSync) {
  expectSyncFault(Retag::OneGranule, Access::Bulk, kBulkFault);
}

TEST_F(AccessSoundnessTest, SetTagRangeBeforeBulkCheckLatchesAsync) {
  expectAsyncLatch(Retag::Range, Access::Bulk, kBulkFault);
}

// Unregistering a region the thread has NOT cached still bumps the
// publish epoch, so the next access must take the slow path (counted as
// an epoch-stale miss, checked there) and refill the cache.
TEST_F(AccessSoundnessTest, UnregisterElsewhereSendsNextAccessToSlowPath) {
  enableChecks(CheckMode::Sync);
  auto *Buf = static_cast<int32_t *>(Arena->allocate(16 * sizeof(int32_t)));
  auto P = TaggedPtr<int32_t>::fromRaw(Buf, 5);
  mte::setTagRange(P.cast<void>(), 16 * sizeof(int32_t));
  alignas(16) static uint8_t Other[256];
  MteSystem::instance().registerRegion(Other, sizeof(Other));
  (void)mte::load<int32_t>(P); // fills the cache under the new epoch

  uint64_t Hits0 = counterValue("mte/access/region_cache_hit");
  uint64_t Misses0 = counterValue("mte/access/region_cache_miss");
  uint64_t Stale0 = counterValue("mte/access/cache_miss_reason/epoch_stale");
  (void)mte::load<int32_t>(P + 1);
  EXPECT_EQ(counterValue("mte/access/region_cache_hit") - Hits0, 1u);

  MteSystem::instance().unregisterRegion(Other);
  (void)mte::load<int32_t>(P + 2);
  EXPECT_EQ(counterValue("mte/access/region_cache_hit") - Hits0, 1u);
  EXPECT_EQ(counterValue("mte/access/region_cache_miss") - Misses0, 1u);
  EXPECT_EQ(counterValue("mte/access/cache_miss_reason/epoch_stale") - Stale0,
            1u);

  // The slow path refilled the cache: the next access hits again, and the
  // refilled cache still checks tags.
  (void)mte::load<int32_t>(P + 3);
  EXPECT_EQ(counterValue("mte/access/region_cache_hit") - Hits0, 2u);
  EXPECT_EQ(counterValue("mte/access/region_cache_miss") - Misses0, 1u);
  (void)mte::load<int32_t>(P.withTag(6) + 4);
  auto Faults = MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].Address, reinterpret_cast<uint64_t>(Buf + 4));
}

} // namespace
