// Real per-core fixed-size object pool: the runtime counterpart of the
// simulated SlabAllocator (src/mem/slab.h), extracted so both legs of the
// repo share one memory discipline (src/mem/pool_stats.h).
//
// The paper's Section 2.2 slab story, made live:
//  - every block is carved out of one per-core arena at construction, so a
//    connection's steady-state lifecycle (alloc on accept, free on serve)
//    performs zero heap allocations,
//  - each arena is node-local to its owning core: construction maps it
//    untouched and binds it to the core's NUMA node (mbind MPOL_PREFERRED
//    when available, src/topo/numa_mem.h), and the owner's first Alloc
//    threads the freelist -- the first touch, from the pinned reactor
//    thread, so the kernel commits the pages on that node either way,
//  - Alloc pops the owning core's plain freelist -- owner-only, no atomics
//    on the common path,
//  - Free on the owning core pushes back onto that freelist; Free on any
//    other core CAS-pushes onto the owner's remote-free stack (a Treiber
//    stack of block indices), so frees *return to the owner* instead of
//    polluting the freeing core's pool -- the remote deallocation the paper
//    measures as the slow path, made explicit and counted,
//  - the owner reclaims its whole remote-free stack with one exchange when
//    its local freelist runs dry (batch reclaim: one coherence miss per
//    batch, not per block).
//
// Concurrency contract: Alloc(core)/Free(core==owner) only from the thread
// driving `core` (one reactor per core); Free from any other thread is safe
// and lock-free. Get() is safe anywhere a valid handle is held. The
// quiescent shutdown path (draining queues after the threads joined) may
// call anything from one thread.
//
// ABA note: only the owner removes from its remote-free stack, and it takes
// the whole chain with one exchange -- there is no targeted pop, so the
// classic Treiber ABA window does not exist here.

#ifndef AFFINITY_SRC_MEM_CONN_POOL_H_
#define AFFINITY_SRC_MEM_CONN_POOL_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "src/mem/cacheline.h"
#include "src/mem/pool_stats.h"
#include "src/topo/numa_mem.h"
#include "src/topo/topology.h"

namespace affinity {

template <typename T>
class PerCorePool {
  static_assert(std::is_trivially_destructible<T>::value,
                "pooled blocks are recycled without destructor calls");

 public:
  // A handle names (owner core, block index); it stays valid until freed.
  using Handle = uint32_t;
  static constexpr Handle kNullHandle = 0xFFFFFFFFu;

  // `topo` (not owned, may be null = flat) places each core's arena on its
  // NUMA node; without it every arena binds to node 0's default policy.
  PerCorePool(int num_cores, uint32_t blocks_per_core, const topo::Topology* topo = nullptr)
      : num_cores_(num_cores < 1 ? 1 : num_cores),
        blocks_per_core_(blocks_per_core < 1 ? 1 : blocks_per_core) {
    assert(num_cores_ <= kMaxCores);
    assert(blocks_per_core_ < (1u << kIndexBits));
    assert(topo == nullptr || topo->num_cores() >= num_cores_);
    cores_.reset(new CoreState[static_cast<size_t>(num_cores_)]);
    size_t arena_bytes = sizeof(Block) * static_cast<size_t>(blocks_per_core_);
    for (int core = 0; core < num_cores_; ++core) {
      CoreState& cs = cores_[static_cast<size_t>(core)];
      int node = topo != nullptr ? topo->node_of(core) : 0;
      cs.arena = topo::AllocNodeArena(arena_bytes, node);
      cs.blocks = static_cast<Block*>(cs.arena.base);
      // Freelist threading is deferred to the owner's first Alloc: the
      // arena's pages stay untouched here so the pinned reactor thread
      // makes the first touch on its own node.
    }
  }

  ~PerCorePool() {
    // T is trivially destructible (static_assert above); just drop arenas.
    for (int core = 0; core < num_cores_; ++core) {
      topo::FreeNodeArena(cores_[static_cast<size_t>(core)].arena);
    }
  }

  PerCorePool(const PerCorePool&) = delete;
  PerCorePool& operator=(const PerCorePool&) = delete;

  // Pops `core`'s freelist (reclaiming the remote-free stack when it runs
  // dry). Returns kNullHandle when the core's arena is exhausted. Owner
  // thread only. The first call threads the freelist -- the arena's first
  // touch, from the owning thread.
  Handle Alloc(CoreId core) {
    CoreState& cs = cores_[static_cast<size_t>(core)];
    if (!cs.threaded) {
      ThreadFreelist(&cs);
    }
    if (cs.free_head == kNoBlock && !ReclaimRemoteFrees(&cs)) {
      return kNullHandle;
    }
    uint32_t index = cs.free_head;
    cs.free_head = cs.blocks[index].next_free;
    cs.allocs.fetch_add(1, std::memory_order_relaxed);
    return MakeHandle(core, index);
  }

  T* Get(Handle handle) {
    assert(handle != kNullHandle);
    return &cores_[static_cast<size_t>(OwnerOf(handle))].blocks[IndexOf(handle)].object;
  }

  CoreId OwnerOf(Handle handle) const {
    return static_cast<CoreId>(handle >> kIndexBits);
  }

  // Returns the block to its owner. `core` is the calling thread's core:
  // when it is the owner this is a plain freelist push; otherwise the block
  // is CAS-pushed onto the owner's remote-free stack.
  void Free(CoreId core, Handle handle) {
    assert(handle != kNullHandle);
    CoreId owner = OwnerOf(handle);
    uint32_t index = IndexOf(handle);
    CoreState& cs = cores_[static_cast<size_t>(owner)];
    if (owner == core) {
      cs.blocks[index].next_free = cs.free_head;
      cs.free_head = index;
      cs.frees.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    uint32_t old_head = cs.remote_head.load(std::memory_order_relaxed);
    do {
      cs.blocks[index].next_free = old_head;
    } while (!cs.remote_head.compare_exchange_weak(old_head, index, std::memory_order_release,
                                                   std::memory_order_relaxed));
    // Counted against the *freeing* core's padded cells so the hot path
    // never bounces a shared counter line.
    CoreState& freeing = cores_[static_cast<size_t>(core)];
    freeing.remote_frees.fetch_add(1, std::memory_order_relaxed);
    freeing.frees.fetch_add(1, std::memory_order_relaxed);
  }

  int num_cores() const { return num_cores_; }
  uint32_t blocks_per_core() const { return blocks_per_core_; }

  // Cores whose arena the kernel accepted an mbind node binding for (0 on
  // hosts without mbind or when the heap fallback allocator served the
  // arena). Read by bench_rt_loopback's topo line and the pool tests.
  int numa_bound_cores() const {
    int bound = 0;
    for (int core = 0; core < num_cores_; ++core) {
      if (cores_[static_cast<size_t>(core)].arena.bound) {
        ++bound;
      }
    }
    return bound;
  }

  // Summed over every core's padded cells; safe mid-run (relaxed counters,
  // monotone, so a live read is merely slightly stale).
  SlabStats StatsSnapshot() const {
    SlabStats stats;
    for (int core = 0; core < num_cores_; ++core) {
      const CoreState& cs = cores_[static_cast<size_t>(core)];
      stats.allocs += cs.allocs.load(std::memory_order_relaxed);
      stats.frees += cs.frees.load(std::memory_order_relaxed);
      stats.remote_frees += cs.remote_frees.load(std::memory_order_relaxed);
      stats.recycled += cs.recycled.load(std::memory_order_relaxed);
    }
    return stats;
  }

  uint64_t live_objects() const {
    SlabStats stats = StatsSnapshot();
    return stats.allocs - stats.frees;
  }

 private:
  static constexpr unsigned kIndexBits = 24;  // 16M blocks/core, 256 cores
  static constexpr uint32_t kNoBlock = 0x00FFFFFFu;

  struct Block {
    T object{};
    uint32_t next_free = kNoBlock;  // freelist link; dead while allocated
  };

  struct alignas(kCacheLineBytes) CoreState {
    // Owner-only local freelist (no atomics: one reactor drives one core).
    uint32_t free_head = kNoBlock;
    bool threaded = false;  // freelist built (owner's first Alloc)
    Block* blocks = nullptr;  // carved out of `arena`, constructed on threading
    topo::NodeArena arena;
    // Blocks freed by other cores, awaiting batch reclaim by the owner.
    alignas(kCacheLineBytes) std::atomic<uint32_t> remote_head{kNoBlock};
    // Stats cells: written by the owning thread only (remote_free cells by
    // the *freeing* thread's own row), read by anyone.
    alignas(kCacheLineBytes) std::atomic<uint64_t> allocs{0};
    std::atomic<uint64_t> frees{0};
    std::atomic<uint64_t> remote_frees{0};
    std::atomic<uint64_t> recycled{0};
  };

  static Handle MakeHandle(CoreId core, uint32_t index) {
    return (static_cast<Handle>(static_cast<uint32_t>(core)) << kIndexBits) | index;
  }
  static uint32_t IndexOf(Handle handle) { return handle & ((1u << kIndexBits) - 1); }

  // Constructs every block in the arena and threads them onto the local
  // freelist in index order. Runs on the owner thread's first Alloc: these
  // writes are the pages' first touch, so first-touch placement lands them
  // on the node mbind preferred.
  void ThreadFreelist(CoreState* cs) {
    for (uint32_t i = 0; i < blocks_per_core_; ++i) {
      Block* block = new (&cs->blocks[i]) Block;
      block->next_free = (i + 1 < blocks_per_core_) ? i + 1 : kNoBlock;
    }
    cs->free_head = 0;
    cs->threaded = true;
  }

  // Takes the whole remote-free chain in one exchange and splices it onto
  // the local freelist. Returns false when there was nothing to reclaim.
  bool ReclaimRemoteFrees(CoreState* cs) {
    uint32_t chain = cs->remote_head.exchange(kNoBlock, std::memory_order_acquire);
    if (chain == kNoBlock) {
      return false;
    }
    uint64_t count = 0;
    uint32_t last = chain;
    ++count;
    while (cs->blocks[last].next_free != kNoBlock) {
      last = cs->blocks[last].next_free;
      ++count;
    }
    cs->blocks[last].next_free = cs->free_head;
    cs->free_head = chain;
    cs->recycled.fetch_add(count, std::memory_order_relaxed);
    return true;
  }

  int num_cores_;
  uint32_t blocks_per_core_;
  std::unique_ptr<CoreState[]> cores_;
};

}  // namespace affinity

#endif  // AFFINITY_SRC_MEM_CONN_POOL_H_
