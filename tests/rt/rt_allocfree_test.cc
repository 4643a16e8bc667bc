// The acceptance test for the allocation-free hot path: global operator
// new/delete are replaced with counting hooks, the runtime is warmed up,
// and then a measurement window of ~1000 live loopback connections must
// complete with ZERO heap allocations from any thread -- reactors (accept,
// pool, ring, policy, metrics, trace) and load-client threads alike.
//
// This binary is deliberately separate from rt_tests: the hooks are global,
// so they must not contaminate unrelated tests.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "src/mem/conn_pool.h"
#include "src/rt/load_client.h"
#include "src/rt/runtime.h"
#include "src/topo/numa_mem.h"
#include "src/topo/scripted_source.h"

namespace {

std::atomic<uint64_t> g_news{0};
std::atomic<bool> g_counting{false};

inline void CountOne() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t size) {
  CountOne();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  CountOne();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountOne();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  CountOne();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace affinity {
namespace rt {
namespace {

// Spin (allocation-free) until the client completes `target` connections or
// the deadline passes. Returns false on timeout.
bool WaitForCompleted(const LoadClient& client, uint64_t target,
                      std::chrono::steady_clock::time_point deadline) {
  while (client.completed() < target) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class RtAllocFreeTest : public ::testing::TestWithParam<RtMode> {};

TEST_P(RtAllocFreeTest, SteadyStateServesConnectionsWithZeroHeapAllocations) {
  RtConfig config;
  config.mode = GetParam();
  config.num_threads = 4;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 2;
  client_config.max_conns = 0;  // run until Stop(); we window by count
  LoadClient client(client_config);
  client.Start();

  // Warm-up: past thread spawn, epoll setup, metric-cell resolution, and
  // the first busy flips, so lazy one-time costs are off the books.
  constexpr uint64_t kWarmup = 500;
  constexpr uint64_t kWindow = 1000;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  ASSERT_TRUE(WaitForCompleted(client, kWarmup, deadline)) << "warm-up stalled";

  // Measurement window. NOTHING in here may allocate: the polling loop is
  // atomic loads + nanosleep, the reactors and client threads are the
  // system under test.
  uint64_t window_start = client.completed();
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  bool window_done = WaitForCompleted(client, window_start + kWindow, deadline);
  g_counting.store(false, std::memory_order_release);
  uint64_t news_in_window = g_news.load(std::memory_order_relaxed);
  uint64_t window_conns = client.completed() - window_start;

  client.Stop();
  runtime.Stop();

  ASSERT_TRUE(window_done) << "measurement window stalled";
  EXPECT_EQ(news_in_window, 0u)
      << "heap allocations observed while serving " << window_conns
      << " steady-state connections";
  EXPECT_EQ(client.errors(), 0u);
  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.served(), kWarmup + kWindow);
  EXPECT_EQ(totals.requests_local_core + totals.requests_remote_core, totals.requests);
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, RtAllocFreeTest,
                         ::testing::Values(RtMode::kStock, RtMode::kFine, RtMode::kAffinity),
                         [](const ::testing::TestParamInfo<RtMode>& mode_info) {
                           return std::string(RtModeName(mode_info.param));
                         });

// Spin (allocation-free) until the client completes `target` REQUESTS.
bool WaitForRequests(const LoadClient& client, uint64_t target,
                     std::chrono::steady_clock::time_point deadline) {
  while (client.requests() < target) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The service-layer version of the proof: held echo connections carrying
// multiple request/response rounds each, windowed by REQUEST count. The
// whole conversation machinery -- ConnState in the pooled block, epoll
// (re-)arming, the open-conn list, per-request metrics and histograms --
// must be allocation-free per request, not just per accept.
class RtSvcAllocFreeTest : public ::testing::TestWithParam<RtMode> {};

TEST_P(RtSvcAllocFreeTest, SteadyStateServesRequestsWithZeroHeapAllocations) {
  RtConfig config;
  config.mode = GetParam();
  config.num_threads = 4;
  config.workload = svc::WorkloadKind::kEcho;
  // Hardware profiling + the locality ledger ride the same window: the
  // per-request ledger adds (core-local atomic counters only) and the
  // hwprof phase hooks + sampled group reads must be allocation-free too.
  // The default perf source opens (or refuses) at reactor start, well
  // before the window; either way the steady state allocates nothing.
  config.hwprof = true;
  // Lifecycle deadlines ride the window too: every request cancels and
  // re-arms intrusive wheel entries (NoteRounds + ArmPhaseDeadline) and the
  // reactors advance their wheels each loop pass. Generous values so no
  // deadline actually fires mid-window -- the proof here is that ARMING is
  // allocation-free, the firing paths have their own tests.
  config.handshake_timeout_ms = 2000;
  config.idle_timeout_ms = 2000;
  config.read_timeout_ms = 2000;
  config.write_timeout_ms = 2000;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 2;
  client_config.workload = svc::WorkloadKind::kEcho;
  client_config.requests_per_conn = 8;
  client_config.payload_bytes = 128;
  LoadClient client(client_config);
  client.Start();

  constexpr uint64_t kWarmupRequests = 1000;
  constexpr uint64_t kWindowRequests = 2000;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  ASSERT_TRUE(WaitForRequests(client, kWarmupRequests, deadline)) << "warm-up stalled";

  uint64_t window_start = client.requests();
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  bool window_done = WaitForRequests(client, window_start + kWindowRequests, deadline);
  g_counting.store(false, std::memory_order_release);
  uint64_t news_in_window = g_news.load(std::memory_order_relaxed);
  uint64_t window_requests = client.requests() - window_start;

  client.Stop();
  runtime.Stop();

  ASSERT_TRUE(window_done) << "measurement window stalled";
  EXPECT_EQ(news_in_window, 0u)
      << "heap allocations observed while serving " << window_requests
      << " steady-state requests";
  EXPECT_EQ(client.errors(), 0u);
  RtTotals totals = runtime.Totals();
  EXPECT_GE(totals.requests, kWarmupRequests + kWindowRequests);
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
  // The ledger the window just proved allocation-free must also balance.
  EXPECT_EQ(totals.requests_local_core + totals.requests_remote_core, totals.requests);
  EXPECT_NE(runtime.hwprof(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(AllModes, RtSvcAllocFreeTest,
                         ::testing::Values(RtMode::kStock, RtMode::kFine, RtMode::kAffinity),
                         [](const ::testing::TestParamInfo<RtMode>& mode_info) {
                           return std::string(RtModeName(mode_info.param));
                         });

// The node-local arena path: the pool's hot cycle -- freelist pops, remote
// CAS-pushes across every distance class, batch reclaim -- must stay heap-
// allocation-free whether the arena got its mbind (node-local page policy
// active) or runs on the unbound default-policy fallback. Construction and
// the first-touch freelist threading are one-time costs outside the window.
void ChurnPoolInWindow(PerCorePool<uint64_t>* pool) {
  // First Alloc per core threads the freelist (the deliberate first touch);
  // keep that one-time cost out of the counted window.
  for (int core = 0; core < 4; ++core) {
    PerCorePool<uint64_t>::Handle h = pool->Alloc(core);
    ASSERT_NE(PerCorePool<uint64_t>::kNullHandle, h);
    pool->Free(core, h);
  }
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (int round = 0; round < 2000; ++round) {
    PerCorePool<uint64_t>::Handle h = pool->Alloc(0);
    ASSERT_NE(PerCorePool<uint64_t>::kNullHandle, h);
    // Rotate the freeing core over self / same-LLC / cross-node so local
    // frees, remote CAS-pushes and the owner's batch reclaim all run inside
    // the window.
    pool->Free(static_cast<CoreId>(round % 4), h);
  }
  g_counting.store(false, std::memory_order_release);
  EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
      << "pool hot path allocated from the heap";
  EXPECT_EQ(pool->live_objects(), 0u);
}

TEST(RtPoolNodeLocalAllocFreeTest, BoundArenasServeTheHotPathWithoutHeap) {
  topo::Topology topo =
      topo::Topology::FromMap(topo::TwoSocketMap(4), topo::TopoOrigin::kScripted);
  PerCorePool<uint64_t> pool(4, 256, &topo);
  // The scripted map names node 1 whether or not the host has one: arenas
  // whose scripted node the kernel lacks stay unbound (first-touch still
  // places them), so the count can land anywhere in [0, 4] -- but with a map
  // that only names node 0, the bind is all-or-nothing.
  int bound = pool.numa_bound_cores();
  EXPECT_GE(bound, 0);
  EXPECT_LE(bound, 4);
  topo::Topology one_node = topo::Topology::Flat(4, "allocfree one-node probe");
  PerCorePool<uint64_t> uniform_pool(4, 8, &one_node);
  int uniform_bound = uniform_pool.numa_bound_cores();
  EXPECT_TRUE(uniform_bound == 0 || uniform_bound == 4) << uniform_bound;
  if (!topo::MbindAvailable()) {
    EXPECT_EQ(0, bound);
    EXPECT_EQ(0, uniform_bound);
  }
  ChurnPoolInWindow(&pool);
}

TEST(RtPoolNodeLocalAllocFreeTest, UnboundFallbackServesTheHotPathWithoutHeap) {
  // No topology at all: arenas take the default page policy (the fallback
  // rung), and the hot cycle must still never touch the heap.
  PerCorePool<uint64_t> pool(4, 256, nullptr);
  ChurnPoolInWindow(&pool);
}

// The runtime-level version under a scripted 2-node topology: the whole
// serving loop -- now stamping per-request distance classes and steal
// distances against the scripted model -- must stay allocation-free.
TEST(RtTopoAllocFreeTest, ScriptedTwoNodeTopologyKeepsServingAllocFree) {
  topo::ScriptedTopologySource source(topo::TwoSocketMap(4));
  RtConfig config;
  config.mode = RtMode::kAffinity;
  config.num_threads = 4;
  config.workload = svc::WorkloadKind::kEcho;
  config.topo_source = &source;
  Runtime runtime(config);
  std::string error;
  ASSERT_TRUE(runtime.Start(&error)) << error;

  LoadClientConfig client_config;
  client_config.port = runtime.port();
  client_config.num_threads = 2;
  client_config.workload = svc::WorkloadKind::kEcho;
  client_config.requests_per_conn = 8;
  client_config.payload_bytes = 128;
  LoadClient client(client_config);
  client.Start();

  constexpr uint64_t kWarmupRequests = 1000;
  constexpr uint64_t kWindowRequests = 2000;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  ASSERT_TRUE(WaitForRequests(client, kWarmupRequests, deadline)) << "warm-up stalled";

  uint64_t window_start = client.requests();
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  bool window_done = WaitForRequests(client, window_start + kWindowRequests, deadline);
  g_counting.store(false, std::memory_order_release);
  uint64_t news_in_window = g_news.load(std::memory_order_relaxed);

  client.Stop();
  runtime.Stop();

  ASSERT_TRUE(window_done) << "measurement window stalled";
  EXPECT_EQ(news_in_window, 0u) << "heap allocations observed in the topo-aware window";
  RtTotals totals = runtime.Totals();
  ASSERT_NE(runtime.topology(), nullptr);
  EXPECT_EQ(topo::TopoOrigin::kScripted, runtime.topology()->origin());
  EXPECT_EQ(2, runtime.topology()->num_nodes());
  EXPECT_EQ(totals.requests_remote_core, totals.requests_same_llc +
                                             totals.requests_cross_llc +
                                             totals.requests_cross_node);
  ASSERT_NE(runtime.conn_pool(), nullptr);
  EXPECT_EQ(runtime.conn_pool()->live_objects(), 0u);
  if (!topo::MbindAvailable()) {
    EXPECT_EQ(0, runtime.conn_pool()->numa_bound_cores());
  }
}

}  // namespace
}  // namespace rt
}  // namespace affinity
