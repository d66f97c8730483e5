//===- Heap.h - Mini-ART Java heap allocator ------------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Java heap: a contiguous arena with thread-local allocation buffers
/// (TLABs) bumping off a shared frontier, segregated free lists (per-thread
/// shards plus one pool the GC sweep refills), and an object-start liveness
/// bitmap. Two knobs reproduce the paper's §4.1 modifications:
///
///   * Alignment — ART's default is 8 bytes; MTE4JNI raises it to 16 so no
///     two objects ever share a tag granule.
///   * ProtMte — when set, the arena is registered with the MTE simulator
///     (the analog of mapping the heap with PROT_MTE).
///
/// Allocation pipeline (AllocPipeline::Tlab, the default):
///
///   * The common alloc is a bump-pointer increment in the calling
///     thread's TLAB — no lock, no shared cache line. TLABs are carved
///     from the arena under a short-held refill mutex and, under
///     TagOnAlloc, bulk-cleaned with ONE st2g-style tag-range write per
///     refill so per-object colouring never pays a stale-tag scrub.
///   * Block sizes are size brackets, as in ART's allocator: up to 1 KiB a
///     block is the request rounded to the alignment (exact classes);
///     above it the request rounds up to one of 8 brackets per octave
///     (step = 2^floor(log2(size-1)) / 8, at most 12.5% slack), so any
///     free block of a bracket serves any request of that bracket and
///     the footprint follows the live set, not the arena's high-water
///     mark. The slack past the payload is never tagged: TagOnAlloc and
///     JNI tagging colour only the payload granules, so a load into the
///     slack faults like a load into a neighbour. ObjectHeader::SizeBytes
///     (and so HeapStats::BytesLive) counts whole blocks.
///   * Free lists are one dense array indexed by block class. A
///     mutator's free() goes to its home shard (the thread's exclusive
///     metrics shard), so same-thread reuse stays O(1) under an
///     uncontended spinlock. The GC sweep frees into one heap-wide swept
///     pool instead, a stripe's whole batch in one lock hold, whatever
///     thread sweeps; every mutator's fast path reads its home shard,
///     then the swept pool, before it bumps its TLAB, so swept memory is
///     reused as soon as the sweep returns. When the bump frontier is
///     exhausted the slow path takes same-class blocks from the swept
///     pool and every shard before reporting OutOfMemoryError.
///   * Liveness is an atomic side bitmap over alignment granules:
///     isLiveObject is a lock-free O(1) bit test, and forEachObject walks
///     the bitmap linearly WITHOUT holding any heap lock — callbacks may
///     allocate and free. Objects are born with their GC mark clear; the
///     GC's sweep clears each survivor's mark, so no cycle needs a
///     separate mark-clearing walk.
///
/// AllocPipeline::GlobalLock preserves the seed allocator's behaviour —
/// every alloc/free serialises on one mutex, blocks are exact-size — as
/// the ablation baseline for bench_alloc_throughput.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_RT_HEAP_H
#define MTE4JNI_RT_HEAP_H

#include "mte4jni/rt/Object.h"
#include "mte4jni/support/MathExtras.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/SpinLock.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

namespace mte4jni::rt {

/// Allocation pipeline ablation (see bench_alloc_throughput).
enum class AllocPipeline : uint8_t {
  /// Per-thread TLABs + sharded free lists; the scalable default.
  Tlab,
  /// Every alloc/free serialises on one mutex around a std::set liveness
  /// index and an ordered free-list map — the seed allocator's behaviour
  /// and cost model, kept as the contended-allocation baseline.
  GlobalLock,
};

struct HeapConfig {
  uint64_t CapacityBytes = 64ull << 20;
  /// Object alignment: 8 (stock ART) or 16 (MTE4JNI, §4.1).
  unsigned Alignment = 8;
  /// Register the arena as a PROT_MTE region with the MTE simulator.
  bool ProtMte = false;
  /// Design ablation (see core/AllocTagPolicy.h): give every object a
  /// random tag at allocation time and clear it when the object is
  /// freed, instead of tagging at the JNI boundary. Requires ProtMte and
  /// 16-byte alignment. Compatible with the compacting GC: compact()
  /// migrates allocation colours with moved objects.
  bool TagOnAlloc = false;
  /// TLAB size carved per refill (clamped to CapacityBytes/16). 0 keeps
  /// the sharded free lists but sends every bump through the refill lock.
  uint64_t TlabBytes = 64 << 10;
  /// Tlab (default) or GlobalLock (the serialised ablation baseline).
  AllocPipeline Pipeline = AllocPipeline::Tlab;
};

struct HeapStats {
  uint64_t BytesAllocated = 0; ///< cumulative
  uint64_t BytesLive = 0;
  uint64_t ObjectsAllocated = 0; ///< cumulative
  uint64_t ObjectsLive = 0;
  uint64_t ObjectsFreed = 0;
  uint64_t FreeListHits = 0;
};

class JavaHeap {
public:
  explicit JavaHeap(const HeapConfig &Config);
  ~JavaHeap();

  JavaHeap(const JavaHeap &) = delete;
  JavaHeap &operator=(const JavaHeap &) = delete;

  /// Allocates a primitive array object; returns nullptr when the heap is
  /// exhausted (callers surface OutOfMemoryError).
  ObjectHeader *allocPrimArray(PrimType Elem, uint32_t Length);

  /// Allocates a string object backed by \p Length UTF-16 units.
  ObjectHeader *allocString(uint32_t Length);

  /// Allocates an Object[] of \p Length null slots.
  ObjectHeader *allocRefArray(uint32_t Length);

  /// Frees an object on behalf of the calling thread: the block goes to
  /// that thread's home free-list shard, so its next same-size
  /// allocation reuses it. Thread-safe.
  void free(ObjectHeader *Obj);

  /// The GC sweep's free of a batch of dead objects: every block goes to
  /// the heap-wide swept pool, which every mutator's allocation fast path
  /// reads, so the sweep may run on any thread (pool workers, the
  /// background collector, another mutator's OOM retry). Each object is
  /// unpublished, its tags cleared and the freed-range hook fired first;
  /// then the whole batch is published in ONE pool lock hold. Thread-safe.
  void freeSwept(const std::vector<ObjectHeader *> &Objs);

  /// Hook invoked with an object's payload range whenever that memory
  /// stops belonging to the object: on free()/GC sweep, and for the OLD
  /// location of every object compact() moves. The MTE4JNI session wires
  /// this to TagAllocator::reclaimRange so a deferred tag-clear can never
  /// leave a dead (or moved-away-from) object with valid granule tags —
  /// the security-critical reclaim path. A raw function pointer plus
  /// context (not std::function) so an uninstalled hook costs one
  /// predicted branch per free. Install before mutator traffic starts and
  /// clear only after the GC is stopped: free() reads the pair unlocked.
  using FreedRangeHook = void (*)(void *Ctx, uint64_t PayloadBegin,
                                  uint64_t PayloadBytes);
  void setFreedRangeHook(FreedRangeHook Hook, void *Ctx) {
    FreedHookCtx = Ctx;
    FreedHook = Hook;
  }

  /// Calls \p Fn for every live object, walking the liveness bitmap in
  /// address order WITHOUT holding any heap lock: \p Fn may allocate and
  /// free (including the visited object itself). Objects allocated after
  /// the walk passes their bitmap word may be missed; the caller must
  /// prevent concurrent frees of objects it did not free itself (the GC
  /// runs this inside a world pause).
  void forEachObject(const std::function<void(ObjectHeader *)> &Fn);

  /// forEachObject restricted to stripe \p Stripe of \p NumStripes equal
  /// bitmap segments — the parallel-sweep partitioning. Every live object
  /// is visited by exactly one stripe.
  void forEachObjectShard(unsigned Stripe, unsigned NumStripes,
                          const std::function<void(ObjectHeader *)> &Fn);

  /// Mark-compact support: slides live objects toward the heap base in
  /// address order, skipping pinned objects (which stay exactly where
  /// native code's raw pointers expect them). Under TagOnAlloc the
  /// allocation colours migrate with the payload (old granules cleared,
  /// new granules retagged). Returns the mapping of moved objects (old
  /// header -> new header); the caller (the GC) must update every root.
  /// The world must be paused.
  std::vector<std::pair<ObjectHeader *, ObjectHeader *>> compact();

  bool contains(const void *Ptr) const {
    uint64_t Addr = reinterpret_cast<uint64_t>(Ptr);
    return Addr >= Base && Addr < Base + Config.CapacityBytes;
  }

  /// True if \p Ptr points at the header of a live object. Lock-free O(1)
  /// bitmap test.
  bool isLiveObject(ObjectHeader *Ptr) const;

  const HeapConfig &config() const { return Config; }
  HeapStats stats() const;

  uint64_t base() const { return Base; }
  uint64_t capacity() const { return Config.CapacityBytes; }
  /// Side-bitmap memory overhead (one bit per alignment granule).
  uint64_t liveBitmapBytes() const { return NumBitWords * 8; }

private:
  /// See setFreedRangeHook. Written before traffic / after GC stop only.
  FreedRangeHook FreedHook = nullptr;
  void *FreedHookCtx = nullptr;

  M4J_ALWAYS_INLINE void notifyFreedRange(ObjectHeader *Obj, uint64_t Size) {
    if (M4J_UNLIKELY(FreedHook != nullptr) && Size > sizeof(ObjectHeader))
      FreedHook(FreedHookCtx, Obj->dataAddress(),
                Size - sizeof(ObjectHeader));
  }

  // Shard index space: reuse the metrics registry's exclusive per-thread
  // shard assignment (support::detail::metricShard). A shard is owned by
  // at most one live thread, so its TLAB and stat cells are single-writer;
  // threads past kMetricShards share the overflow shard, which never
  // bump-allocates and uses atomic RMW for stats.
  static constexpr unsigned kNumShards = support::kMetricCells;
  static constexpr unsigned kOverflowShard = support::kMetricOverflowShard;
  /// Blocks up to this size are exact classes, indexed by
  /// (Size >> AlignShift) and sized for 8-byte alignment, the finest;
  /// larger ones are bracketed.
  static constexpr uint64_t kExactClassLimit = 1024;
  static constexpr unsigned kExactClasses = (kExactClassLimit >> 3) + 1;
  static constexpr unsigned kBracketsPerOctave = 8;
  /// Bracket octaves (2^K, 2^(K+1)] for K = kFirstOctave .. 31: a block
  /// is at most UINT32_MAX bytes.
  static constexpr unsigned kFirstOctave = support::log2Of(kExactClassLimit);
  static constexpr unsigned kBracketOctaves = 32 - kFirstOctave;
  static constexpr unsigned kNumClasses =
      kExactClasses + kBracketOctaves * kBracketsPerOctave;

  /// Rounds an aligned request up to its block size: unchanged up to
  /// kExactClassLimit, the next of 8 brackets per octave above it.
  static uint64_t bracketSize(uint64_t Size) {
    if (Size <= kExactClassLimit)
      return Size;
    return support::alignTo(Size, std::bit_floor(Size - 1) /
                                      kBracketsPerOctave);
  }
  /// Dense free-list index of a block size produced by bracketSize.
  unsigned classIndex(uint64_t Size) const {
    if (Size <= kExactClassLimit)
      return static_cast<unsigned>(Size >> AlignShift);
    unsigned Octave = support::log2Of(Size - 1);
    uint64_t Step = (uint64_t(1) << Octave) / kBracketsPerOctave;
    return kExactClasses + (Octave - kFirstOctave) * kBracketsPerOctave +
           static_cast<unsigned>(((Size - (uint64_t(1) << Octave)) / Step) -
                                 1);
  }

  struct alignas(64) Tlab {
    /// Next free byte / one-past-the-end of this shard's buffer. Relaxed
    /// atomics: single-writer (the owning thread) except compact(), which
    /// runs with the world paused.
    std::atomic<uint64_t> Cur{0};
    std::atomic<uint64_t> End{0};
  };

  struct alignas(64) FreeShard {
    support::SpinLock Lock;
    /// Blocks across all lists of this shard; a relaxed hint that lets
    /// the alloc fast path skip the lock when the shard is empty.
    std::atomic<uint64_t> Count{0};
    std::vector<uint64_t> Lists[kNumClasses];
  };

  struct alignas(64) StatShard {
    std::atomic<int64_t> BytesAllocated{0};
    std::atomic<int64_t> BytesLive{0};
    std::atomic<int64_t> ObjectsAllocated{0};
    std::atomic<int64_t> ObjectsLive{0};
    std::atomic<int64_t> ObjectsFreed{0};
    std::atomic<int64_t> FreeListHits{0};
  };

  /// Owned-shard cells take a plain load+store (no RMW); the shared
  /// overflow shard needs fetch_add to stay exact.
  M4J_ALWAYS_INLINE static void statAdd(std::atomic<int64_t> &Cell,
                                        int64_t N, unsigned Shard) {
    if (M4J_LIKELY(Shard != kOverflowShard))
      Cell.store(Cell.load(std::memory_order_relaxed) + N,
                 std::memory_order_relaxed);
    else
      Cell.fetch_add(N, std::memory_order_relaxed);
  }

  ObjectHeader *allocObject(uint32_t ClassWord, uint32_t Length,
                            uint64_t PayloadBytes);

  /// Common allocation tail: header init, payload zeroing, TagOnAlloc
  /// colouring, liveness-bit publish, sharded stats. The Tlab pipeline
  /// runs it outside any lock; the GlobalLock ablation runs it inside the
  /// mutex, exactly as the seed did.
  ObjectHeader *finishAlloc(uint64_t Addr, uint32_t ClassWord,
                            uint32_t Length, uint64_t Size, unsigned Shard,
                            bool FreeListHit);

  /// Refill-lock slow path: TLAB refill (bulk tag scrub under TagOnAlloc),
  /// direct carve for big objects and overflow-shard threads, then the
  /// swept pool and cross-shard free-list stealing. Sets \p FreeListHit
  /// when the block came from a free list.
  uint64_t allocSlow(uint64_t Size, unsigned Shard, bool &FreeListHit);

  /// free()/freeSwept() body up to the push: unpublishes, clears tags,
  /// fires the freed-range hook and poisons \p Obj, and counts it on stat
  /// shard \p Shard. Returns the block size.
  uint64_t retire(ObjectHeader *Obj, unsigned Shard);
  /// The GlobalLock ablation's whole free, under RefillLock.
  void releaseSeed(ObjectHeader *Obj, unsigned Shard);

  /// Pops a block of \p Size's class from \p FS; 0 when none. Takes
  /// FS.Lock.
  uint64_t takeFromShard(FreeShard &FS, uint64_t Size);
  /// Pushes a block; takes FS.Lock.
  void pushToShard(FreeShard &FS, uint64_t Size, uint64_t Addr);

  /// Carves [result, result+Bytes) from the bump frontier; 0 when the
  /// arena is exhausted. RefillLock must be held.
  uint64_t carveLocked(uint64_t Bytes);

  // -- liveness bitmap ----------------------------------------------------
  uint64_t bitIndexOf(uint64_t Addr) const {
    return (Addr - Base) >> AlignShift;
  }
  void setLiveBit(uint64_t Addr, std::memory_order Order);
  /// Clears the bit; asserts it was set ("freeing unknown object").
  void clearLiveBit(uint64_t Addr);

  HeapConfig Config;
  std::unique_ptr<uint8_t[]> Storage;
  uint64_t Base = 0;
  unsigned AlignShift = 3;
  uint64_t EffTlabBytes = 0;

  /// Allocation frontier, guarded by RefillLock for writes; readable
  /// lock-free (forEachObject bounds its walk with it).
  std::atomic<uint64_t> BumpOffset{0};
  mutable std::mutex RefillLock;

  /// One bit per alignment granule, set at the granule holding a live
  /// object's header.
  std::unique_ptr<std::atomic<uint64_t>[]> LiveBits;
  uint64_t NumBitWords = 0;

  std::unique_ptr<Tlab[]> Tlabs;
  std::unique_ptr<FreeShard[]> FreeShards;
  /// Blocks freed by the GC sweep; read by every mutator's fast path
  /// after its home shard.
  FreeShard SweptPool;
  std::unique_ptr<StatShard[]> StatShards;

  /// Seed-fidelity state for the GlobalLock ablation, guarded by
  /// RefillLock: the seed kept a std::set liveness index and an ordered
  /// free-list map behind one mutex, so the ablation keeps paying those
  /// per-op costs (tree lookups, node churn) — the baseline
  /// bench_alloc_throughput compares against is the seed allocator, not a
  /// hybrid borrowing the new data structures.
  std::set<uint64_t> SeedLive;
  std::map<uint64_t, std::vector<uint64_t>> SeedFree;
};

} // namespace mte4jni::rt

#endif // MTE4JNI_RT_HEAP_H
