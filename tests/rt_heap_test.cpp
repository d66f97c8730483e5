//===- rt_heap_test.cpp - Mini-ART heap allocator -------------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/rt/Heap.h"

#include <gtest/gtest.h>

#include <bit>

namespace {

using namespace mte4jni;
using rt::HeapConfig;
using rt::JavaHeap;
using rt::ObjectHeader;
using rt::PrimType;

class RtHeapTest : public ::testing::Test {
protected:
  void SetUp() override { mte::MteSystem::instance().reset(); }
  void TearDown() override { mte::MteSystem::instance().reset(); }
};

TEST_F(RtHeapTest, AllocatesZeroedArrays) {
  HeapConfig Config;
  Config.CapacityBytes = 1 << 20;
  JavaHeap Heap(Config);
  ObjectHeader *Obj = Heap.allocPrimArray(PrimType::Int, 100);
  ASSERT_NE(Obj, nullptr);
  EXPECT_EQ(Obj->kind(), rt::ObjectKind::PrimArray);
  EXPECT_EQ(Obj->elemType(), PrimType::Int);
  EXPECT_EQ(Obj->Length, 100u);
  EXPECT_EQ(Obj->dataBytes(), 400u);
  const auto *Data = rt::arrayData<int32_t>(Obj);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Data[I], 0);
}

TEST_F(RtHeapTest, AlignmentEight) {
  HeapConfig Config;
  Config.Alignment = 8;
  JavaHeap Heap(Config);
  for (int I = 0; I < 32; ++I) {
    ObjectHeader *Obj = Heap.allocPrimArray(PrimType::Byte, 1);
    EXPECT_EQ(reinterpret_cast<uint64_t>(Obj) % 8, 0u);
  }
  // With 8-byte alignment, 1-byte arrays are 24-byte allocations, so at
  // least some consecutive objects share a 16-byte granule.
  HeapConfig C2;
  C2.Alignment = 8;
  JavaHeap H2(C2);
  ObjectHeader *A = H2.allocPrimArray(PrimType::Byte, 1);
  ObjectHeader *B = H2.allocPrimArray(PrimType::Byte, 1);
  uint64_t EndA = A->dataEnd();
  uint64_t BeginB = reinterpret_cast<uint64_t>(B);
  EXPECT_LT(BeginB - EndA, 16u) << "objects should pack tightly at 8-byte "
                                   "alignment";
}

TEST_F(RtHeapTest, AlignmentSixteen) {
  HeapConfig Config;
  Config.Alignment = 16;
  JavaHeap Heap(Config);
  for (int I = 0; I < 32; ++I) {
    ObjectHeader *Obj = Heap.allocPrimArray(PrimType::Byte, 3);
    EXPECT_EQ(reinterpret_cast<uint64_t>(Obj) % 16, 0u);
    // Payload starts right after the 16-byte header: granule-aligned.
    EXPECT_EQ(Obj->dataAddress() % 16, 0u);
  }
}

TEST_F(RtHeapTest, ProtMteRegistersRegion) {
  HeapConfig Config;
  Config.ProtMte = true;
  Config.CapacityBytes = 1 << 20;
  {
    JavaHeap Heap(Config);
    ObjectHeader *Obj = Heap.allocPrimArray(PrimType::Int, 4);
    EXPECT_TRUE(mte::MteSystem::instance().isTaggedAddress(
        Obj->dataAddress()));
  }
  EXPECT_EQ(mte::MteSystem::instance().regions()->size(), 0u);
}

TEST_F(RtHeapTest, FreeListReuseAfterFree) {
  JavaHeap Heap(HeapConfig{});
  ObjectHeader *A = Heap.allocPrimArray(PrimType::Int, 64);
  uint64_t Addr = reinterpret_cast<uint64_t>(A);
  Heap.free(A);
  ObjectHeader *B = Heap.allocPrimArray(PrimType::Int, 64);
  EXPECT_EQ(reinterpret_cast<uint64_t>(B), Addr);
  EXPECT_EQ(Heap.stats().FreeListHits, 1u);
}

TEST_F(RtHeapTest, BlocksAreSizeBracketsAboveOneKiB) {
  HeapConfig Config;
  Config.Alignment = 16;
  JavaHeap Heap(Config);
  HeapConfig SeedConfig = Config;
  SeedConfig.Pipeline = rt::AllocPipeline::GlobalLock;
  JavaHeap Seed(SeedConfig);
  for (uint32_t Payload = 0; Payload <= (20u << 10); Payload += 16) {
    const uint64_t Request = sizeof(ObjectHeader) + Payload;
    ObjectHeader *Obj = Heap.allocPrimArray(PrimType::Byte, Payload);
    ASSERT_NE(Obj, nullptr);
    const uint64_t Block = Obj->SizeBytes;
    if (Request <= 1024) {
      EXPECT_EQ(Block, Request) << "exact 16-byte classes up to 1 KiB";
    } else {
      // One of 8 brackets per octave: at most 1/8 of slack.
      EXPECT_GE(Block, Request);
      EXPECT_LE(Block * 8, Request * 9) << "request " << Request;
      const uint64_t Step = std::bit_floor(Request - 1) / 8;
      EXPECT_EQ(Block % Step, 0u) << "request " << Request;
      EXPECT_LT(Block - Request, Step) << "request " << Request;
    }
    Heap.free(Obj);
    // The GlobalLock ablation keeps the seed's exact sizes.
    ObjectHeader *Exact = Seed.allocPrimArray(PrimType::Byte, Payload);
    ASSERT_NE(Exact, nullptr);
    EXPECT_EQ(Exact->SizeBytes, Request);
    Seed.free(Exact);
  }
}

TEST_F(RtHeapTest, FreedBlockServesEverySizeOfItsBracket) {
  // 1100 and 1150 B requests both round up to the 1152 B bracket: one
  // block serves both, where exact-size lists would bump the frontier.
  JavaHeap Heap(HeapConfig{});
  ObjectHeader *A = Heap.allocPrimArray(PrimType::Byte, 1100 - 16);
  uint64_t Addr = reinterpret_cast<uint64_t>(A);
  EXPECT_EQ(A->SizeBytes, 1152u);
  Heap.free(A);
  ObjectHeader *B = Heap.allocPrimArray(PrimType::Byte, 1150 - 16);
  EXPECT_EQ(reinterpret_cast<uint64_t>(B), Addr);
  EXPECT_EQ(B->SizeBytes, 1152u);
  EXPECT_EQ(B->dataBytes(), 1150u - 16u);
  EXPECT_EQ(Heap.stats().FreeListHits, 1u);
}

TEST_F(RtHeapTest, OutOfMemoryReturnsNull) {
  HeapConfig Config;
  Config.CapacityBytes = 4096;
  JavaHeap Heap(Config);
  EXPECT_EQ(Heap.allocPrimArray(PrimType::Long, 1 << 20), nullptr);
  // Heap still usable afterwards.
  EXPECT_NE(Heap.allocPrimArray(PrimType::Int, 8), nullptr);
}

TEST_F(RtHeapTest, StatsTrackLiveness) {
  JavaHeap Heap(HeapConfig{});
  ObjectHeader *A = Heap.allocPrimArray(PrimType::Int, 10);
  ObjectHeader *B = Heap.allocPrimArray(PrimType::Int, 10);
  auto S1 = Heap.stats();
  EXPECT_EQ(S1.ObjectsLive, 2u);
  EXPECT_EQ(S1.ObjectsAllocated, 2u);
  Heap.free(A);
  auto S2 = Heap.stats();
  EXPECT_EQ(S2.ObjectsLive, 1u);
  EXPECT_EQ(S2.ObjectsFreed, 1u);
  EXPECT_LT(S2.BytesLive, S1.BytesLive);
  (void)B;
}

TEST_F(RtHeapTest, ForEachObjectSeesLiveOnly) {
  JavaHeap Heap(HeapConfig{});
  ObjectHeader *A = Heap.allocPrimArray(PrimType::Int, 4);
  ObjectHeader *B = Heap.allocPrimArray(PrimType::Int, 4);
  Heap.free(A);
  int Count = 0;
  ObjectHeader *Seen = nullptr;
  Heap.forEachObject([&](ObjectHeader *Obj) {
    ++Count;
    Seen = Obj;
  });
  EXPECT_EQ(Count, 1);
  EXPECT_EQ(Seen, B);
  EXPECT_FALSE(Heap.isLiveObject(A));
  EXPECT_TRUE(Heap.isLiveObject(B));
}

TEST_F(RtHeapTest, ContainsChecksBounds) {
  JavaHeap Heap(HeapConfig{});
  ObjectHeader *Obj = Heap.allocPrimArray(PrimType::Int, 4);
  EXPECT_TRUE(Heap.contains(Obj));
  int Local;
  EXPECT_FALSE(Heap.contains(&Local));
}

TEST_F(RtHeapTest, StringsAllocated) {
  JavaHeap Heap(HeapConfig{});
  ObjectHeader *Str = Heap.allocString(5);
  ASSERT_NE(Str, nullptr);
  EXPECT_EQ(Str->kind(), rt::ObjectKind::String);
  EXPECT_EQ(Str->Length, 5u);
  EXPECT_EQ(Str->dataBytes(), 10u);
}

TEST_F(RtHeapTest, HeaderIsExactlyOneGranule) {
  EXPECT_EQ(sizeof(ObjectHeader), 16u);
}

} // namespace
