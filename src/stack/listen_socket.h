// The TCP listen socket, in the paper's three implementations (Section 6.2):
//
//  - Stock-Accept: one request hash table, one accept queue, one socket lock
//    guarding both. SYN processing, ACK processing and accept() all serialize
//    on that lock (spinlock mode from softirq, mutex mode from process
//    context) -- the Section 6.3 bottleneck.
//  - Fine-Accept: the listen socket is cloned per core (Section 5.1): per-core
//    accept queues each with their own lock, plus a *shared* request hash
//    table with per-bucket locks (Section 5.2). accept() dequeues round-robin
//    across all clones, so there is no connection affinity.
//  - Affinity-Accept: like Fine-Accept, but accept() prefers the local core's
//    queue, non-busy cores steal from busy cores at a proportional-share
//    ratio, and busy status is tracked per Section 3.3.1. The order accept()
//    tries the queues in is ServeAffinityOrder (src/balance/balance_policy.h),
//    the same code the runtime's reactors serve through; this class supplies
//    only the dequeue, the queue-head reads it charges, and the parking.
//
// Wakeup policy (Section 4.1): a new connection wakes one accept() sleeper;
// for poll() sleepers, Stock/Fine wake every poller on the socket (the
// thundering herd), Affinity wakes only pollers on the local core.

#ifndef AFFINITY_SRC_STACK_LISTEN_SOCKET_H_
#define AFFINITY_SRC_STACK_LISTEN_SOCKET_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/balance/balance_policy.h"
#include "src/mem/memory_system.h"
#include "src/net/kernel_types.h"
#include "src/stack/core_agent.h"
#include "src/stack/sched.h"
#include "src/stack/sim_lock.h"
#include "src/stack/tcp_conn.h"

namespace affinity {

enum class AcceptVariant : uint8_t { kStock, kFine, kAffinity };

const char* AcceptVariantName(AcceptVariant variant);

struct ListenConfig {
  AcceptVariant variant = AcceptVariant::kAffinity;
  int num_cores = 1;
  // Total backlog from listen(); split evenly across cores for the cloned
  // variants ("max local accept queue length"). The paper finds 64-256 per
  // core works well; 0 = 256 per enabled core.
  int backlog = 0;
  int steal_ratio = 5;           // 5 local : 1 stolen
  double high_watermark = 0.75;  // fraction of max local queue length
  double low_watermark = 0.10;
  bool connection_stealing = true;  // Section 6.5 runs with this off too
  size_t request_buckets = 4096;
  // Section 5.2 ablation: per-core request hash tables instead of the shared
  // one. An ACK whose flow group migrated lands on a core whose table lacks
  // the request socket; the handler then scans every other core's table.
  bool per_core_request_table = false;
};

struct ListenStats {
  uint64_t syns = 0;
  uint64_t established = 0;
  uint64_t accepted_local = 0;   // from the caller's own queue (or the single queue)
  uint64_t accepted_remote = 0;  // stolen / round-robin from another core's queue
  uint64_t overflow_drops = 0;   // accept queue full: connection dropped
  uint64_t ack_no_request = 0;   // ACK without a request socket (dropped)
  uint64_t request_table_rescans = 0;  // per-core-table ablation: cross-core scans
  uint64_t poll_herd_wakeups = 0;      // pollers woken beyond the first
  uint64_t parked_accepts = 0;
};

class ListenSocket {
 public:
  ListenSocket(const ListenConfig& config, MemorySystem* mem, const KernelTypes* types,
               LockStat* lock_stat, Scheduler* scheduler);

  // --- softirq side ---

  // Handles a SYN: creates a request socket in the request hash table.
  // Returns false on duplicate.
  bool OnSyn(ExecCtx& ctx, const Packet& packet);

  // Handles the final handshake ACK: consumes the request socket, creates the
  // Connection (tcp_sock initialized on this core), enqueues it on an accept
  // queue and wakes a waiter. Returns the connection, or nullptr if it was
  // dropped (no request socket, or accept-queue overflow). Dropped
  // connections' sockets are freed here.
  Connection* OnAck(ExecCtx& ctx, const Packet& packet, uint64_t conn_id);

  // --- process side ---

  // accept(): returns a connection or nullptr. With `park_on_empty`, the
  // thread is parked on the local wait queue before returning nullptr
  // (blocking accept); otherwise the call is O_NONBLOCK-style and returns
  // immediately. Charges queue locks / stealing costs either way.
  Connection* Accept(ExecCtx& ctx, Thread* thread, bool park_on_empty = true);

  // poll() support: would accept() succeed for this core right now? Charges
  // the (lock-free) queue-head reads.
  bool HasAcceptable(ExecCtx& ctx, CoreId core);

  // Parks a poll() sleeper interested in this listen socket.
  void ParkPoller(Thread* thread, CoreId core);

  // --- balancer hooks ---
  // The watermark/EWMA/proportional-share policy, the class the runtime
  // (src/rt/) shares among its reactors.
  BalancePolicy& balance() { return balance_; }
  const ListenStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ListenStats{}; }
  int max_local_queue_len() const { return max_local_len_; }
  size_t QueueLength(CoreId core) const;
  size_t num_queues() const { return queues_.size(); }

 private:
  struct Waiter {
    Thread* thread;
    bool poller;
  };

  struct AcceptQueue {
    std::deque<Connection*> connections;
    std::unique_ptr<SimLock> lock;
    LineId head_line = 0;
    std::deque<Waiter> waiters;
  };

  struct RequestSocket {
    SimObject obj;
    CoreId syn_core = kNoCore;
  };

  struct RequestBucket {
    std::unique_ptr<SimLock> lock;
    LineId head_line = 0;
    std::unordered_map<FiveTuple, RequestSocket, FiveTupleHasher> entries;
  };

  // Queue index the softirq on `core` enqueues to.
  size_t EnqueueIndexFor(CoreId core) const;
  RequestBucket& RequestBucketFor(CoreId core, const FiveTuple& flow);

  // Dequeues from queue `qi` under its lock; returns nullptr if empty.
  Connection* DequeueFrom(ExecCtx& ctx, size_t qi, LockContext context);

  // Post-dequeue work common to all variants: socket_fd setup, reading the
  // softirq-written socket state into this core's cache.
  void FinishAccept(ExecCtx& ctx, Connection* conn);

  // Wakes waiters after an enqueue on queue `qi`.
  void WakeAfterEnqueue(ExecCtx& ctx, size_t qi);

  ListenConfig config_;
  MemorySystem* mem_;
  const KernelTypes* types_;
  Scheduler* scheduler_;

  std::vector<AcceptQueue> queues_;  // 1 (stock) or num_cores
  // Request table: [0] when shared; one per core for the ablation.
  std::vector<std::vector<RequestBucket>> request_tables_;
  std::unique_ptr<SimLock> listen_lock_;  // Stock-Accept's single socket lock
  LineId busy_bits_line_ = 0;             // the Section 3.3.1 bit vector
  LineId rr_cursor_line_ = 0;             // Fine-Accept's shared dequeue cursor

  int max_local_len_;
  BalancePolicy balance_;
  uint64_t rr_cursor_ = 0;
  ListenStats stats_;
};

}  // namespace affinity

#endif  // AFFINITY_SRC_STACK_LISTEN_SOCKET_H_
