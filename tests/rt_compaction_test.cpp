//===- rt_compaction_test.cpp - Mark-compact GC and JNI pins --------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// ART's collectors move objects; JNI's Get* interfaces pin the ones native
// code holds raw pointers into. The compacting GC mode makes that
// interaction observable: unpinned survivors slide toward the heap base
// (handle roots rewritten), JNI-held objects stay put, and data survives
// the move bit-for-bit.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"

#include <gtest/gtest.h>

namespace {

using namespace mte4jni;
using namespace mte4jni::rt;

RuntimeConfig compactingConfig() {
  RuntimeConfig C;
  C.Heap.CapacityBytes = 4 << 20;
  C.Gc.Mode = GcMode::Compacting;
  return C;
}

TEST(Compaction, SurvivorsSlideTowardBase) {
  Runtime RT(compactingConfig());
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    // A, garbage, B — after collection B should slide into garbage's slot.
    ObjectHeader *A = RT.newPrimArray(Scope, PrimType::Int, 64);
    ObjectHeader *Garbage = RT.heap().allocPrimArray(PrimType::Int, 64);
    ObjectHeader *B = RT.newPrimArray(Scope, PrimType::Int, 64);
    rt::arrayData<int32_t>(B)[0] = 1234;
    uint64_t GarbageAddr = reinterpret_cast<uint64_t>(Garbage);
    uint64_t OldB = reinterpret_cast<uint64_t>(B);

    GcResult Result = RT.gc().collect();
    EXPECT_EQ(Result.ObjectsFreed, 1u);
    EXPECT_EQ(Result.ObjectsMoved, 1u);

    // The root slot now points at the moved object.
    ObjectHeader *NewB = Scope.roots()[1];
    EXPECT_NE(reinterpret_cast<uint64_t>(NewB), OldB);
    EXPECT_EQ(reinterpret_cast<uint64_t>(NewB), GarbageAddr)
        << "B should have slid into the freed gap";
    EXPECT_EQ(rt::arrayData<int32_t>(NewB)[0], 1234)
        << "payload must survive the move";
    EXPECT_TRUE(RT.heap().isLiveObject(NewB));
    EXPECT_FALSE(RT.heap().isLiveObject(B));
    (void)A;
  }
  RT.detachCurrentThread();
}

TEST(Compaction, SweptBlocksDoNotOutliveCompaction) {
  // The sweep files the garbage's block in the swept pool, then the
  // compaction slides B over it: the pool must be emptied, or the next
  // same-size allocation would hand out B's live memory.
  Runtime RT(compactingConfig());
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    RT.newPrimArray(Scope, PrimType::Int, 64);
    RT.heap().allocPrimArray(PrimType::Int, 64); // garbage
    RT.newPrimArray(Scope, PrimType::Int, 64);

    GcResult Result = RT.gc().collect();
    ASSERT_EQ(Result.ObjectsMoved, 1u);
    ObjectHeader *NewB = Scope.roots()[1];
    rt::arrayData<int32_t>(NewB)[0] = 1234;

    ObjectHeader *Fresh = RT.heap().allocPrimArray(PrimType::Int, 64);
    ASSERT_NE(Fresh, nullptr);
    EXPECT_NE(Fresh, NewB) << "a swept block outlived the compaction";
    EXPECT_EQ(rt::arrayData<int32_t>(NewB)[0], 1234);
    EXPECT_EQ(RT.heap().stats().FreeListHits, 0u);
  }
  RT.detachCurrentThread();
}

TEST(Compaction, PinnedObjectsDoNotMove) {
  Runtime RT(compactingConfig());
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    ObjectHeader *Garbage = RT.heap().allocPrimArray(PrimType::Int, 64);
    ObjectHeader *Held = RT.newPrimArray(Scope, PrimType::Int, 64);
    (void)Garbage;
    uint64_t HeldAddr = reinterpret_cast<uint64_t>(Held);

    Held->pin(); // what a JNI Get does
    GcResult Result = RT.gc().collect();
    EXPECT_EQ(Result.ObjectsMoved, 0u)
        << "the only survivor is pinned: nothing may move";
    EXPECT_EQ(Result.ObjectsPinnedInPlace, 1u);
    EXPECT_EQ(reinterpret_cast<uint64_t>(Scope.roots()[0]), HeldAddr);
    Held->unpin();

    // Once released, the next cycle slides it down.
    GcResult Second = RT.gc().collect();
    EXPECT_EQ(Second.ObjectsMoved, 1u);
    EXPECT_NE(reinterpret_cast<uint64_t>(Scope.roots()[0]), HeldAddr);
  }
  RT.detachCurrentThread();
}

TEST(Compaction, JniHeldArraySurvivesCompactionEndToEnd) {
  // Through the whole stack, under MTE4JNI: native code holds an array
  // across a compacting collection; its raw (tagged) pointer must stay
  // valid because the pin blocks the move, and the tags stay put with it.
  api::SessionConfig C;
  C.Protection = api::Scheme::Mte4JniSync;
  api::Session S(C);
  // Re-wire the GC mode (Session defaults to mark-sweep).
  // Build a second runtime config path: use the runtime's GC directly.
  // (Compacting + Session is exercised via RuntimeConfig in the tests
  // above; here we emulate by pinning + collecting.)
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());

  jni::jarray Garbage = S.runtime().heap().allocPrimArray(PrimType::Int, 64);
  (void)Garbage;
  jni::jarray Array = Main.env().NewIntArray(Scope, 128);

  rt::callNative(Main.thread(), rt::NativeKind::Regular, "holder", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env().GetIntArrayElements(Array, &IsCopy);
    mte::store<jni::jint>(P, 42);

    S.runtime().gc().collect(); // pin keeps Array in place

    // The pointer (and its tag) must still be good.
    EXPECT_EQ(mte::load<jni::jint>(P), 42);
    Main.env().ReleaseIntArrayElements(Array, P, 0);
    return 0;
  });
  EXPECT_EQ(S.faults().totalCount(), 0u);
}

TEST(Compaction, AllocationReusesReclaimedSpace) {
  Runtime RT(compactingConfig());
  RT.attachCurrentThread("main");
  HandleScope Scope(RT);

  // Fill a small heap with garbage, collect, and verify the space is
  // allocatable again (compaction resets the bump frontier).
  uint64_t Before = RT.heap().stats().BytesLive;
  for (int I = 0; I < 100; ++I)
    RT.heap().allocPrimArray(PrimType::Long, 512);
  RT.gc().collect();
  EXPECT_EQ(RT.heap().stats().BytesLive, Before);
  // This would not fit if the frontier had not been pulled back.
  for (int I = 0; I < 100; ++I)
    ASSERT_NE(RT.heap().allocPrimArray(PrimType::Long, 512), nullptr);
  RT.gc().collect();
  RT.detachCurrentThread();
}

TEST(Compaction, ManyObjectsManyCycles) {
  Runtime RT(compactingConfig());
  RT.attachCurrentThread("main");
  HandleScope Scope(RT);
  support::Xoshiro256 Rng(5);

  // Interleave rooted and garbage objects, collect repeatedly, verify
  // every rooted payload survives every cycle.
  std::vector<uint32_t> Expected;
  for (int I = 0; I < 40; ++I) {
    ObjectHeader *Obj = RT.newPrimArray(Scope, PrimType::Int, 32);
    uint32_t Token = static_cast<uint32_t>(Rng.next());
    rt::arrayData<int32_t>(Obj)[7] = static_cast<int32_t>(Token);
    Expected.push_back(Token);
    for (int G = 0; G < 3; ++G)
      RT.heap().allocPrimArray(PrimType::Int, 16 + (I % 5) * 8);
  }

  for (int Cycle = 0; Cycle < 5; ++Cycle) {
    GcResult Result = RT.gc().collect();
    if (Cycle == 0) {
      EXPECT_EQ(Result.ObjectsFreed, 120u);
    }
    const auto &Roots = Scope.roots();
    ASSERT_EQ(Roots.size(), 40u);
    for (size_t I = 0; I < Roots.size(); ++I)
      ASSERT_EQ(static_cast<uint32_t>(rt::arrayData<int32_t>(Roots[I])[7]),
                Expected[I])
          << "cycle " << Cycle << " object " << I;
  }
  RT.detachCurrentThread();
}

TEST(Compaction, MovedBracketSlackStaysUntagged) {
  // Under tag-on-allocation the colour travels with a moved object's
  // payload granules only: the slack of its bracketed block (300 ints =
  // 1200 payload bytes in a 1280-byte block) stays tag 0 at the new
  // address, so an overflow past the payload still faults.
  RuntimeConfig C = compactingConfig();
  C.Heap.Alignment = 16;
  C.Heap.ProtMte = true;
  C.Heap.TagOnAlloc = true;
  Runtime RT(C);
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    RT.heap().allocPrimArray(PrimType::Int, 300); // garbage to slide over
    ObjectHeader *B = RT.newPrimArray(Scope, PrimType::Int, 300);
    mte::TagValue Tag = mte::ldgTag(B->dataAddress());
    ASSERT_NE(Tag, 0);

    ASSERT_EQ(RT.gc().collect().ObjectsMoved, 1u);
    ObjectHeader *NewB = Scope.roots()[0];
    ASSERT_NE(NewB, B);
    const uint64_t PayloadEnd = NewB->dataAddress() + NewB->dataBytes();
    const uint64_t BlockEnd =
        reinterpret_cast<uint64_t>(NewB) + NewB->SizeBytes;
    ASSERT_LT(PayloadEnd, BlockEnd) << "no bracket slack to check";
    for (uint64_t Addr = NewB->dataAddress(); Addr < PayloadEnd;
         Addr += mte::kGranuleSize)
      EXPECT_EQ(mte::ldgTag(Addr), Tag) << "payload granule lost its colour";
    for (uint64_t Addr = PayloadEnd; Addr < BlockEnd;
         Addr += mte::kGranuleSize)
      EXPECT_EQ(mte::ldgTag(Addr), 0) << "slack granule coloured at +"
                                      << Addr - NewB->dataAddress();
  }
  RT.detachCurrentThread();
}

} // namespace
