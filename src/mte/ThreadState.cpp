//===- ThreadState.cpp - Per-thread MTE control state ---------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/ThreadState.h"

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/support/Backtrace.h"
#include "mte4jni/support/Metrics.h"

#include <atomic>

#include <pthread.h>

namespace mte4jni::mte {

namespace detail {
constinit thread_local ThreadState *CurrentThreadState = nullptr;
} // namespace detail

namespace {
std::atomic<uint64_t> NextThreadId{1};

/// Set when the state detail::CurrentThreadState pointed at is destroyed
/// at thread exit, with the TCO and TCF it had, so a replacement created
/// for a later thread_local destructor keeps checking the same way.
struct Teardown {
  bool Done = false;
  bool Tco = false;
  CheckMode Mode = CheckMode::None;
};
constinit thread_local Teardown ThreadTeardown;

/// Registry lookups once per process; each new state copies the refs.
const AccessCounters &registeredAccessCounters() {
  static const AccessCounters Counters{
      support::Metrics::counter("mte/access/region_cache_hit"),
      support::Metrics::counter("mte/access/checked_loads"),
      support::Metrics::counter("mte/access/checked_stores"),
      support::Metrics::counter("mte/access/checked_granules"),
      support::Metrics::histogram("mte/access/check_range_nanos")};
  return Counters;
}
} // namespace

ThreadState::ThreadState()
    : Counters(registeredAccessCounters()),
      IrgRng(MteSystem::instance().nextThreadSeed()),
      Id(NextThreadId.fetch_add(1, std::memory_order_relaxed)) {
  // New threads inherit the process-default TCF mode, like a freshly
  // cloned Linux task inherits PR_MTE_TCF_*. A replacement for a
  // torn-down state keeps that state's registers instead.
  if (ThreadTeardown.Done) {
    Tco = ThreadTeardown.Tco;
    Mode = ThreadTeardown.Mode;
  } else {
    Mode = MteSystem::instance().processCheckMode();
  }
  refreshChecksOn();
  MteSystem::instance().registerThread(this);
}

ThreadState::~ThreadState() {
  // Unregister first: afterwards no setProcessCheckMode can write Mode.
  MteSystem::instance().unregisterThread(this);
  if (detail::CurrentThreadState == this) {
    ThreadTeardown = {true, Tco, Mode};
    detail::CurrentThreadState = nullptr;
  }
}

ThreadState &ThreadState::currentSlow() {
  if (M4J_LIKELY(!ThreadTeardown.Done)) {
    thread_local ThreadState State;
    detail::CurrentThreadState = &State;
    return State;
  }
  // A thread_local destructor is running after this thread's state was
  // destroyed. Give it a replacement on the heap, freed by a pthread key
  // destructor: those run after every C++ thread_local destructor, so the
  // replacement outlives each caller that can still reach it. (Should the
  // key be unavailable, the replacement leaks; it never dangles.)
  static const pthread_key_t LateKey = [] {
    pthread_key_t Key;
    pthread_key_create(&Key, [](void *Late) {
      delete static_cast<ThreadState *>(Late);
    });
    return Key;
  }();
  auto *Late = new ThreadState;
  pthread_setspecific(LateKey, Late);
  detail::CurrentThreadState = Late;
  return *Late;
}

void ThreadState::latchAsyncFault(uint64_t DebugAddress, TagValue PointerTag,
                                  TagValue MemoryTag, bool IsWrite,
                                  uint32_t Size) {
  noteMismatch();
  MteSystem::instance().stats().AsyncFaultsLatched.fetch_add(
      1, std::memory_order_relaxed);
  if (AsyncPending)
    return; // TFSR is a single sticky bit; only the first fault is kept.
  AsyncPending = true;
  PendingDebugAddress = DebugAddress;
  PendingPointerTag = PointerTag;
  PendingMemoryTag = MemoryTag;
  PendingIsWrite = IsWrite;
  PendingSize = Size;
}

void ThreadState::drainAsync(const char *SyscallName) {
  if (!AsyncPending)
    return;
  AsyncPending = false;

  FaultRecord Record;
  Record.Kind = FaultKind::TagMismatchAsync;
  // Matching SEGV_MTEAERR: no faulting address in the report. The debug
  // address is simulator ground truth for tests only.
  Record.HasAddress = false;
  Record.Address = 0;
  Record.DebugAddress = PendingDebugAddress;
  Record.PointerTag = PendingPointerTag;
  Record.MemoryTag = PendingMemoryTag;
  Record.IsWrite = PendingIsWrite;
  Record.AccessSize = PendingSize;
  Record.ThreadId = Id;
  Record.DeliveredAtSyscall = SyscallName;
  // The backtrace is taken *now*, at the syscall — this is why Figure 4c's
  // trace points at getuid() instead of the faulting native method.
  Record.Backtrace = support::FrameStack::current().capture();

  MteSystem::instance().stats().AsyncFaultsDelivered.fetch_add(
      1, std::memory_order_relaxed);
  static support::Counter &Delivered =
      support::Metrics::counter("mte/fault/async_delivered");
  Delivered.add();
  MteSystem::instance().deliverFault(std::move(Record));
}

void ThreadState::cacheRegion(std::shared_ptr<const TaggedRegion> Region,
                              uint64_t Epoch) {
  CachedRegionRef = std::move(Region);
  CachedRegion = CachedRegionRef.get();
  CachedRegionEpoch = CachedRegion ? Epoch : 0;
}

void ThreadState::syncModeFromProcess() {
  Mode = MteSystem::instance().processCheckMode();
  refreshChecksOn();
}

} // namespace mte4jni::mte
