// Tests for the allocation-free hot-path primitives: the bounded MPMC
// accept ring (src/mem/bounded_ring.h) and the per-core PendingConn slab
// pool (src/mem/conn_pool.h). The concurrent cases run under
// ThreadSanitizer in CI (rt_tests), so they double as the data-race check
// for push/steal/drain interleavings.

#include "src/rt/accept_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "src/mem/bounded_ring.h"
#include "src/mem/conn_pool.h"

namespace affinity {
namespace rt {
namespace {

TEST(AcceptRingTest, BoundedFifo) {
  BoundedRing<int> ring(2);
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_EQ(ring.size(), 0u);

  size_t len = 0;
  EXPECT_TRUE(ring.Push(10, &len));
  EXPECT_EQ(len, 1u);
  EXPECT_TRUE(ring.Push(11, &len));
  EXPECT_EQ(len, 2u);
  // Full: the caller keeps ownership of the payload.
  EXPECT_FALSE(ring.Push(12, &len));
  EXPECT_EQ(ring.size(), 2u);

  int out = 0;
  EXPECT_TRUE(ring.TryPop(&out, &len));
  EXPECT_EQ(out, 10);
  EXPECT_EQ(len, 1u);
  EXPECT_TRUE(ring.TryPop(&out, &len));
  EXPECT_EQ(out, 11);
  EXPECT_FALSE(ring.TryPop(&out, &len));
}

TEST(AcceptRingTest, NonPowerOfTwoCapacityIsExactWhenSingleThreaded) {
  BoundedRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 5u);
  size_t len = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.Push(i, &len));
  }
  EXPECT_FALSE(ring.Push(5, &len));
  EXPECT_EQ(ring.size(), 5u);
}

TEST(AcceptRingTest, WrapsAroundManyTimes) {
  BoundedRing<int> ring(4);
  size_t len = 0;
  int out = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.Push(i, &len));
    ASSERT_TRUE(ring.TryPop(&out, &len));
    ASSERT_EQ(out, i);
    ASSERT_EQ(len, 0u);
  }
}

// The satellite guard for the old AcceptQueue::DrainAll: draining must hand
// back everything, in order, and leave the ring empty.
TEST(AcceptRingTest, DrainAllEmptiesTheRing) {
  BoundedRing<int> ring(8);
  size_t len = 0;
  for (int fd = 0; fd < 5; ++fd) {
    ASSERT_TRUE(ring.Push(fd, &len));
  }
  std::vector<int> drained = ring.DrainAll();
  ASSERT_EQ(drained.size(), 5u);
  EXPECT_EQ(drained.front(), 0);
  EXPECT_EQ(drained.back(), 4);
  EXPECT_EQ(ring.size(), 0u);
}

// Randomized concurrent push/steal/drain: P producers push tagged values,
// C consumers pop (the steal path: every consumer CAS-claims against the
// same head), the main thread drains the leftovers after joining. Every
// pushed value must surface exactly once across pops and the final drain.
TEST(AcceptRingTest, ConcurrentPushStealDrainConservesEveryValue) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr uint32_t kPerProducer = 5000;
  BoundedRing<uint32_t> ring(64);

  std::atomic<bool> producers_done{false};
  std::vector<std::vector<uint32_t>> popped(kConsumers);
  std::vector<std::thread> threads;

  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ring, p] {
      std::mt19937 rng(static_cast<uint32_t>(1234 + p));
      size_t len = 0;
      for (uint32_t i = 0; i < kPerProducer; ++i) {
        uint32_t value = (static_cast<uint32_t>(p) << 24) | i;
        while (!ring.Push(value, &len)) {
          std::this_thread::yield();
        }
        if ((rng() & 0x3f) == 0) {
          std::this_thread::yield();  // randomize the interleaving
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&ring, &producers_done, &popped, c] {
      std::mt19937 rng(static_cast<uint32_t>(99 + c));
      popped[static_cast<size_t>(c)].reserve(kProducers * kPerProducer);
      uint32_t value = 0;
      size_t len = 0;
      for (;;) {
        if (ring.TryPop(&value, &len)) {
          popped[static_cast<size_t>(c)].push_back(value);
        } else if (producers_done.load(std::memory_order_acquire)) {
          return;  // leftovers (if any) go to the final drain
        } else if ((rng() & 0x1f) == 0) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[static_cast<size_t>(p)].join();
  }
  producers_done.store(true, std::memory_order_release);
  for (size_t t = kProducers; t < threads.size(); ++t) {
    threads[t].join();
  }

  std::vector<uint32_t> all = ring.DrainAll();
  for (const std::vector<uint32_t>& v : popped) {
    all.insert(all.end(), v.begin(), v.end());
  }
  ASSERT_EQ(all.size(), static_cast<size_t>(kProducers) * kPerProducer);
  std::vector<bool> seen(static_cast<size_t>(kProducers) << 24, false);
  std::vector<uint32_t> last_seq(kProducers, 0);
  for (uint32_t value : all) {
    ASSERT_LT(static_cast<size_t>(value), seen.size());
    EXPECT_FALSE(seen[value]) << "value popped twice: " << value;
    seen[value] = true;
  }
  // Per-consumer pops of one producer's values must respect push order (the
  // ring is FIFO in claim order; a single consumer's view of a single
  // producer is therefore monotone).
  for (const std::vector<uint32_t>& v : popped) {
    std::vector<int64_t> prev(kProducers, -1);
    for (uint32_t value : v) {
      int p = static_cast<int>(value >> 24);
      int64_t seq = static_cast<int64_t>(value & 0x00FFFFFFu);
      EXPECT_GT(seq, prev[static_cast<size_t>(p)]);
      prev[static_cast<size_t>(p)] = seq;
    }
  }
}

// Stock mode's shape: every thread both pushes and pops one shared ring,
// and at most one item per thread is ever queued, far below capacity. A
// producer's tail snapshot can fall behind the head by the time it reads
// the head (others pushed and popped in between); that must read as "not
// full", never as a refused push. The ring is larger than the whole run, so
// no slot is reused: a consumer preempted between claiming a slot and
// releasing it (which does hold that slot's next lap) cannot refuse a push
// here.
TEST(AcceptRingTest, SharedRingNeverRefusesAPushBelowCapacity) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 25000;
  BoundedRing<uint32_t> ring(static_cast<size_t>(kThreads) * kRounds);
  std::atomic<uint64_t> refused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, &refused, t] {
      size_t len = 0;
      uint32_t out = 0;
      for (int i = 0; i < kRounds; ++i) {
        if (!ring.Push(static_cast<uint32_t>(t), &len)) {
          refused.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // A pop can miss an item whose producer is mid-write; retry.
        while (!ring.TryPop(&out, &len)) {
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(refused.load(), 0u);
  EXPECT_EQ(ring.size(), 0u);
}

// The runtime's actual flow, concurrently: the owner core allocs blocks
// and pushes handles through a ring; "serving" threads pop them and free
// remotely; the owner reclaims its remote-free stack when the freelist
// runs dry. The arena is much smaller than the traffic, so reclaim MUST
// work for the test to finish with every alloc matched by a free.
TEST(ConnPoolTest, RemoteFreesReturnToOwnerUnderConcurrency) {
  constexpr uint32_t kBlocks = 32;
  constexpr uint32_t kConns = 20000;
  constexpr int kServers = 3;
  // Core 0 owns the arena; cores 1..kServers free remotely.
  ConnPool pool(kServers + 1, kBlocks);
  BoundedRing<ConnHandle> ring(kBlocks);

  std::atomic<uint32_t> served{0};
  std::vector<std::thread> servers;
  for (int s = 1; s <= kServers; ++s) {
    servers.emplace_back([&pool, &ring, &served, s] {
      ConnHandle handle = kNullConn;
      size_t len = 0;
      while (served.load(std::memory_order_acquire) < kConns) {
        if (ring.TryPop(&handle, &len)) {
          EXPECT_EQ(pool.OwnerOf(handle), 0);
          EXPECT_EQ(pool.Get(handle)->fd, static_cast<int>(handle & 0xFFFF) % 7);
          pool.Free(/*core=*/s, handle);
          served.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  uint32_t pushed = 0;
  size_t len = 0;
  while (pushed < kConns) {
    ConnHandle handle = pool.Alloc(/*core=*/0);
    if (handle == kNullConn) {
      std::this_thread::yield();  // all blocks in flight; reclaim needs a free
      continue;
    }
    pool.Get(handle)->fd = static_cast<int>(handle & 0xFFFF) % 7;
    while (!ring.Push(handle, &len)) {
      std::this_thread::yield();
    }
    ++pushed;
  }
  for (std::thread& t : servers) {
    t.join();
  }

  SlabStats stats = pool.StatsSnapshot();
  EXPECT_EQ(stats.allocs, kConns);
  EXPECT_EQ(stats.frees, kConns);
  EXPECT_EQ(stats.remote_frees, kConns);  // every free came from a server core
  EXPECT_GT(stats.recycled, 0u);          // the tiny arena forced reclaims
  EXPECT_EQ(pool.live_objects(), 0u);
}

}  // namespace
}  // namespace rt
}  // namespace affinity
