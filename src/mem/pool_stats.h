// Per-core pool accounting shared by the simulated slab allocator
// (src/mem/slab.h) and the real per-core connection pool
// (src/mem/conn_pool.h). Both legs of the repo -- the discrete-event
// simulator and the live-socket runtime -- report the same memory
// discipline in the same shape: allocations stay on the owning core,
// frees are local in the common case, and remote frees (the slow path
// the paper's Section 2.2 calls out) are counted explicitly.

#ifndef AFFINITY_SRC_MEM_POOL_STATS_H_
#define AFFINITY_SRC_MEM_POOL_STATS_H_

#include <cstdint>

namespace affinity {

struct SlabStats {
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t remote_frees = 0;  // freed on a core != the core that allocated
  uint64_t recycled = 0;      // allocation satisfied from a freelist
};

}  // namespace affinity

#endif  // AFFINITY_SRC_MEM_POOL_STATS_H_
