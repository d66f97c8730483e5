//===- alloc_tag_policy_test.cpp - Tag-on-allocation ablation -------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pins the exact detection envelope of the tag-on-allocation design
// alternative against MTE4JNI's:
//
//                         MTE4JNI      tag-on-alloc
//   OOB while JNI-held    caught       caught
//   OOB with NO JNI hold  missed(*)    caught       <- its one advantage
//   use-after-release     caught       MISSED       <- its cost
//   Get/Release overhead  O(n/16)+lock one LDG
//
//   (*) under MTE4JNI untagged objects are tag 0 = untagged pointers.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"

#include <gtest/gtest.h>

namespace {

using namespace mte4jni;

api::SessionConfig tagOnAllocConfig() {
  api::SessionConfig C;
  C.Protection = api::Scheme::TagOnAllocSync;
  C.HeapBytes = 8 << 20;
  return C;
}

TEST(AllocTagPolicy, ObjectsAreTaggedAtAllocation) {
  api::Session S(tagOnAllocConfig());
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 32);
  // Tagged before any JNI Get happened.
  EXPECT_NE(mte::ldgTag(A->dataAddress()), 0);
}

TEST(AllocTagPolicy, GetReturnsTheAllocationTag) {
  api::Session S(tagOnAllocConfig());
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 32);
  mte::TagValue AllocTag = mte::ldgTag(A->dataAddress());

  rt::callNative(Main.thread(), rt::NativeKind::Regular, "use", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env().GetIntArrayElements(A, &IsCopy);
    EXPECT_EQ(P.tag(), AllocTag);
    EXPECT_FALSE(IsCopy);
    mte::store<jni::jint>(P + 31, 7); // in-bounds: fine
    Main.env().ReleaseIntArrayElements(A, P, 0);
    return 0;
  });
  EXPECT_EQ(S.faults().totalCount(), 0u);
  EXPECT_EQ(rt::arrayData<jni::jint>(A)[31], 7);
}

TEST(AllocTagPolicy, OobWhileHeldIsCaught) {
  api::Session S(tagOnAllocConfig());
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 18);
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "test_ofb", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env().GetIntArrayElements(A, &IsCopy);
    mte::store<jni::jint>(P + 21, 1);
    Main.env().ReleaseIntArrayElements(A, P, 0);
    return 0;
  });
  EXPECT_EQ(S.faults().countOf(mte::FaultKind::TagMismatchSync), 1u);
}

TEST(AllocTagPolicy, UseAfterReleaseIsMissed) {
  // The trade-off: without Algorithm 2's tag clearing, a stale pointer
  // still matches and the bug sails through.
  api::Session S(tagOnAllocConfig());
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 32);
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "stale", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env().GetIntArrayElements(A, &IsCopy);
    Main.env().ReleaseIntArrayElements(A, P, 0);
    mte::store<jni::jint>(P, 0xBAD); // MTE4JNI catches this; we don't.
    return 0;
  });
  EXPECT_EQ(S.faults().totalCount(), 0u)
      << "documented blind spot of tag-on-alloc";
}

TEST(AllocTagPolicy, CrossObjectAccessCaughtEvenWithoutJniHold) {
  // Its one advantage: B was never passed through JNI, yet an overflow
  // from A into B is caught because B is tagged anyway. (MTE4JNI catches
  // this case too when B's granules are tag 0 — the difference shows
  // when A is untagged, which cannot happen while A is JNI-held.)
  api::Session S(tagOnAllocConfig());
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 4);
  jni::jarray B = Main.env().NewIntArray(Scope, 4);
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "cross", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env().GetIntArrayElements(A, &IsCopy);
    ptrdiff_t Delta = static_cast<ptrdiff_t>(
        (B->dataAddress() - A->dataAddress()) / sizeof(jni::jint));
    volatile jni::jint V = mte::load<jni::jint>(P + Delta);
    (void)V;
    Main.env().ReleaseIntArrayElements(A, P, jni::JNI_ABORT);
    return 0;
  });
  // A and B carry independent random tags: collision chance 1/15.
  // With seed 1 they differ; assert on the ground truth to be robust.
  if (mte::ldgTag(A->dataAddress()) != mte::ldgTag(B->dataAddress())) {
    EXPECT_EQ(S.faults().countOf(mte::FaultKind::TagMismatchSync), 1u);
  }
}

TEST(AllocTagPolicy, FreedObjectTagsAreCleared) {
  api::Session S(tagOnAllocConfig());
  api::ScopedAttach Main(S, "main");
  uint64_t DataAddr;
  {
    rt::HandleScope Scope(S.runtime());
    jni::jarray A = Main.env().NewIntArray(Scope, 32);
    DataAddr = A->dataAddress();
    EXPECT_NE(mte::ldgTag(DataAddr), 0);
  }
  S.runtime().gc().collect();
  EXPECT_EQ(mte::ldgTag(DataAddr), 0)
      << "sweep must clear the dead object's colours";
}

TEST(AllocTagPolicy, NoRefCountMachineryInvolved) {
  // The whole point: repeated Get/Release pairs touch no table and
  // generate no tags.
  api::Session S(tagOnAllocConfig());
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 128);

  uint64_t IrgBefore = mte::MteSystem::instance().stats().IrgCount.load();
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "loop", [&] {
    for (int I = 0; I < 100; ++I) {
      jni::jboolean IsCopy;
      auto P = Main.env().GetIntArrayElements(A, &IsCopy);
      Main.env().ReleaseIntArrayElements(A, P, jni::JNI_ABORT);
    }
    return 0;
  });
  EXPECT_EQ(mte::MteSystem::instance().stats().IrgCount.load(), IrgBefore)
      << "100 Get/Release pairs must not generate a single tag";
}

TEST(AllocTagPolicy, UtfScratchStillProtected) {
  api::Session S(tagOnAllocConfig());
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jstring Str = Main.env().NewStringUTF(Scope, "scratch");
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "utf", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env().GetStringUTFChars(Str, &IsCopy);
    volatile char C = mte::load(P + 200); // far past the copy
    (void)C;
    Main.env().ReleaseStringUTFChars(Str, P);
    return 0;
  });
  EXPECT_EQ(S.faults().countOf(mte::FaultKind::TagMismatchSync), 1u);
}

/// Size brackets leave slack between a large array's payload and the end
/// of its block: 300 ints are 1200 payload bytes (75 whole granules) in a
/// 1280-byte block. Neither design may colour that slack, so a load one
/// granule past the payload faults exactly as a load into a neighbouring
/// object's header would.
void expectBracketSlackLoadFaults(api::Scheme Protection) {
  api::SessionConfig C = tagOnAllocConfig();
  C.Protection = Protection;
  api::Session S(C);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  constexpr jni::jsize kLength = 300;
  jni::jarray A = Main.env().NewIntArray(Scope, kLength);
  ASSERT_GE(A->SizeBytes,
            sizeof(rt::ObjectHeader) + A->dataBytes() + mte::kGranuleSize)
      << "the block must have at least one granule of slack";
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "slack", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env().GetIntArrayElements(A, &IsCopy);
    volatile jni::jint V = mte::load<jni::jint>(P + kLength);
    (void)V;
    Main.env().ReleaseIntArrayElements(A, P, jni::JNI_ABORT);
    return 0;
  });
  EXPECT_EQ(S.faults().countOf(mte::FaultKind::TagMismatchSync), 1u);
}

TEST(AllocTagPolicy, LoadIntoBracketSlackFaults) {
  expectBracketSlackLoadFaults(api::Scheme::TagOnAllocSync);
}

TEST(AllocTagPolicy, LoadIntoBracketSlackFaultsUnderMte4Jni) {
  expectBracketSlackLoadFaults(api::Scheme::Mte4JniSync);
}

} // namespace
