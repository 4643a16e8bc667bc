#include "src/stack/listen_socket.h"

#include <cassert>

namespace affinity {

const char* AcceptVariantName(AcceptVariant variant) {
  switch (variant) {
    case AcceptVariant::kStock:
      return "Stock-Accept";
    case AcceptVariant::kFine:
      return "Fine-Accept";
    case AcceptVariant::kAffinity:
      return "Affinity-Accept";
  }
  return "?";
}

namespace {
// Everything the 3WHS-completion path initializes in a fresh tcp_sock. The
// write spans most of the structure; whichever core runs it owns the lines.
void InitTcpSock(ExecCtx& ctx, const KernelTypes* types, const SimObject& sock) {
  const KernelTypes::TcpSockFields& f = types->ts;
  ctx.Mem(sock, f.lock, kWrite);
  ctx.Mem(sock, f.state, kWrite);
  ctx.Mem(sock, f.rcv_nxt, kWrite);
  ctx.Mem(sock, f.copied_seq, kWrite);
  ctx.Mem(sock, f.receive_queue, kWrite);
  ctx.Mem(sock, f.rmem, kWrite);
  ctx.Mem(sock, f.wait_queue, kWrite);
  ctx.Mem(sock, f.snd_nxt, kWrite);
  ctx.Mem(sock, f.snd_una, kWrite);
  ctx.Mem(sock, f.cwnd, kWrite);
  ctx.Mem(sock, f.write_queue, kWrite);
  ctx.Mem(sock, f.wmem, kWrite);
  ctx.Mem(sock, f.rto_timer, kWrite);
  ctx.Mem(sock, f.delack_timer, kWrite);
  ctx.Mem(sock, f.flags, kWrite);
  ctx.Mem(sock, f.callbacks, kWrite);
  ctx.Mem(sock, f.route, kWrite);
  ctx.Mem(sock, f.cong_ops, kWrite);
  ctx.Mem(sock, f.icsk, kWrite);
  ctx.Mem(sock, f.cold, kWrite);
}
}  // namespace

ListenSocket::ListenSocket(const ListenConfig& config, MemorySystem* mem,
                           const KernelTypes* types, LockStat* lock_stat, Scheduler* scheduler)
    : config_(config),
      mem_(mem),
      types_(types),
      scheduler_(scheduler),
      max_local_len_(config.variant == AcceptVariant::kStock
                         ? config.backlog
                         : std::max(1, config.backlog / config.num_cores)),
      balance_(config.num_cores, max_local_len_,
               BalanceTuning{config.steal_ratio, config.high_watermark, config.low_watermark}) {
  size_t num_queues =
      config.variant == AcceptVariant::kStock ? 1 : static_cast<size_t>(config.num_cores);
  LockClassId queue_cls = lock_stat->RegisterClass("accept_queue");
  queues_.resize(num_queues);
  for (AcceptQueue& queue : queues_) {
    queue.head_line = mem_->ReserveGlobalLine();
    queue.lock = std::make_unique<SimLock>(queue_cls, lock_stat, mem_->ReserveGlobalLine());
  }

  LockClassId bucket_cls = lock_stat->RegisterClass("request_bucket");
  size_t num_tables = config.per_core_request_table && config.variant != AcceptVariant::kStock
                          ? static_cast<size_t>(config.num_cores)
                          : 1;
  request_tables_.resize(num_tables);
  for (auto& table : request_tables_) {
    table.resize(config.request_buckets);
    for (RequestBucket& bucket : table) {
      bucket.head_line = mem_->ReserveGlobalLine();
      bucket.lock = std::make_unique<SimLock>(bucket_cls, lock_stat, mem_->ReserveGlobalLine());
    }
  }

  LockClassId listen_cls = lock_stat->RegisterClass("listen_socket");
  listen_lock_ = std::make_unique<SimLock>(listen_cls, lock_stat, mem_->ReserveGlobalLine());
  busy_bits_line_ = mem_->ReserveGlobalLine();
  rr_cursor_line_ = mem_->ReserveGlobalLine();
}

size_t ListenSocket::EnqueueIndexFor(CoreId core) const {
  return config_.variant == AcceptVariant::kStock ? 0 : static_cast<size_t>(core);
}

ListenSocket::RequestBucket& ListenSocket::RequestBucketFor(CoreId core, const FiveTuple& flow) {
  size_t table = request_tables_.size() == 1 ? 0 : static_cast<size_t>(core);
  return request_tables_[table][FlowHash(flow) % config_.request_buckets];
}

bool ListenSocket::OnSyn(ExecCtx& ctx, const Packet& packet) {
  ++stats_.syns;
  bool stock = config_.variant == AcceptVariant::kStock;
  RequestBucket& bucket = RequestBucketFor(ctx.core(), packet.flow);

  ExecCtx::LockScope lock = ctx.BeginLock(
      stock ? listen_lock_.get() : bucket.lock.get(), LockContext::kSoftirq);
  // tcp_v4_conn_request runs under the socket lock (the whole point of the
  // Stock bottleneck); under Fine/Affinity only the bucket is held, but the
  // work is the same.
  ctx.ChargeInstr(kInstrSoftirqSyn);
  ctx.ChargeAuxMisses(kAuxMissSoftirqSyn);
  ctx.MemLine(bucket.head_line, kWrite);

  if (bucket.entries.find(packet.flow) != bucket.entries.end()) {
    // Duplicate SYN (client retransmit): the original SYN-ACK was lost or is
    // still in flight. Re-answer it.
    ctx.EndLock(lock);
    return true;
  }
  RequestSocket request;
  request.obj = ctx.Alloc(types_->tcp_request_sock);
  request.syn_core = ctx.core();
  ctx.Mem(request.obj, types_->rs.node, kWrite);
  ctx.Mem(request.obj, types_->rs.seqs, kWrite);
  ctx.Mem(request.obj, types_->rs.timer, kWrite);
  ctx.Mem(request.obj, types_->rs.meta, kWrite);
  bucket.entries.emplace(packet.flow, request);
  ctx.EndLock(lock);
  return true;
}

Connection* ListenSocket::OnAck(ExecCtx& ctx, const Packet& packet, uint64_t conn_id) {
  bool stock = config_.variant == AcceptVariant::kStock;
  CoreId core = ctx.core();

  // Under Stock-Accept the whole path -- request lookup, socket creation and
  // accept-queue insertion -- runs under the single listen-socket lock.
  ExecCtx::LockScope stock_lock;
  if (stock) {
    stock_lock = ctx.BeginLock(listen_lock_.get(), LockContext::kSoftirq);
    // The entire 3WHS completion -- request lookup, tcp_create_openreq_child,
    // accept-queue insertion -- executes under the one socket lock.
    ctx.ChargeInstr(kInstrSoftirqAck);
    ctx.ChargeAuxMisses(kAuxMissSoftirqAck);
  }

  // --- find and remove the request socket ---
  RequestBucket* bucket = &RequestBucketFor(core, packet.flow);
  auto it = bucket->entries.find(packet.flow);
  ExecCtx::LockScope bucket_lock;
  if (!stock) {
    bucket_lock = ctx.BeginLock(bucket->lock.get(), LockContext::kSoftirq);
  }
  ctx.MemLine(bucket->head_line, kRead);

  if (it == bucket->entries.end() && request_tables_.size() > 1) {
    // Per-core request-table ablation: the SYN may have landed on another
    // core (flow-group migration between SYN and ACK). Scan the other cores'
    // tables -- the "time-consuming and interfering" option of Section 5.2.
    if (!stock) {
      ctx.EndLock(bucket_lock);
    }
    ++stats_.request_table_rescans;
    for (size_t t = 0; t < request_tables_.size(); ++t) {
      if (t == static_cast<size_t>(core)) {
        continue;
      }
      RequestBucket& other = request_tables_[t][FlowHash(packet.flow) % config_.request_buckets];
      ctx.MemLine(other.head_line, kRead);
      auto oit = other.entries.find(packet.flow);
      if (oit != other.entries.end()) {
        bucket = &other;
        it = oit;
        break;
      }
    }
    if (!stock) {
      bucket_lock = ctx.BeginLock(bucket->lock.get(), LockContext::kSoftirq);
    }
  }

  if (it == bucket->entries.end()) {
    if (!stock) {
      ctx.EndLock(bucket_lock);
    } else {
      ctx.EndLock(stock_lock);
    }
    ++stats_.ack_no_request;
    return nullptr;
  }

  if (!stock) {
    // Fine/Affinity run the bulk of 3WHS completion outside any shared lock.
    ctx.ChargeInstr(kInstrSoftirqAck);
    ctx.ChargeAuxMisses(kAuxMissSoftirqAck);
  }
  RequestSocket request = it->second;
  ctx.Mem(request.obj, types_->rs.seqs, kRead);
  ctx.Mem(request.obj, types_->rs.meta, kRead);
  ctx.Mem(request.obj, types_->rs.node, kWrite);  // unlink
  ctx.MemLine(bucket->head_line, kWrite);
  bucket->entries.erase(it);
  if (!stock) {
    ctx.EndLock(bucket_lock);
  }

  // --- create the established socket on this (softirq) core ---
  auto conn = new Connection();
  conn->id = conn_id;
  conn->flow = packet.flow;
  conn->softirq_core = core;
  conn->request = request.obj;  // consumed (and freed) by accept()
  conn->has_request = true;
  conn->sock = ctx.Alloc(types_->tcp_sock);
  InitTcpSock(ctx, types_, conn->sock);
  ++stats_.established;

  // --- enqueue on an accept queue ---
  size_t qi = EnqueueIndexFor(core);
  AcceptQueue& queue = queues_[qi];
  ExecCtx::LockScope queue_lock;
  if (!stock) {
    queue_lock = ctx.BeginLock(queue.lock.get(), LockContext::kSoftirq);
  }
  ctx.MemLine(queue.head_line, kWrite);

  if (queue.connections.size() >= static_cast<size_t>(max_local_len_)) {
    // Overflow: the kernel drops the connection (the client eventually times
    // out). This is exactly the failure mode the load balancer exists to
    // avoid (Section 6.5).
    if (!stock) {
      ctx.EndLock(queue_lock);
    } else {
      ctx.EndLock(stock_lock);
    }
    ctx.Free(conn->sock);
    ctx.Free(conn->request);
    delete conn;
    ++stats_.overflow_drops;
    return nullptr;
  }

  queue.connections.push_back(conn);
  if (config_.variant == AcceptVariant::kAffinity) {
    if (balance_.OnEnqueueBatch(core, 1, queue.connections.size())) {
      ctx.MemLine(busy_bits_line_, kWrite);  // busy bit flipped
    }
  }
  if (!stock) {
    ctx.EndLock(queue_lock);
  } else {
    ctx.EndLock(stock_lock);
  }

  WakeAfterEnqueue(ctx, qi);
  return conn;
}

void ListenSocket::WakeAfterEnqueue(ExecCtx& ctx, size_t qi) {
  AcceptQueue& queue = queues_[qi];

  // First preference: one thread sleeping in accept() on this queue.
  while (!queue.waiters.empty()) {
    Waiter waiter = queue.waiters.front();
    if (waiter.poller) {
      break;
    }
    queue.waiters.pop_front();
    if (waiter.thread->state() == Thread::State::kBlocked ||
        waiter.thread->state() == Thread::State::kRunning) {
      scheduler_->Wake(waiter.thread, &ctx);
      return;
    }
  }

  // Pollers. Affinity-Accept wakes only local pollers; Stock/Fine wake every
  // poller on the socket (the poll() thundering herd of Section 4.1).
  int woken = 0;
  auto wake_pollers_on = [&](AcceptQueue& q) {
    std::deque<Waiter> keep;
    while (!q.waiters.empty()) {
      Waiter waiter = q.waiters.front();
      q.waiters.pop_front();
      if (!waiter.poller) {
        keep.push_back(waiter);
        continue;
      }
      scheduler_->Wake(waiter.thread, &ctx);
      ++woken;
    }
    q.waiters = std::move(keep);
  };

  if (config_.variant == AcceptVariant::kAffinity) {
    wake_pollers_on(queue);
    if (woken == 0 && queue.waiters.empty()) {
      // No local thread at all: wake a waiter on a non-busy remote core
      // (Section 3.3.1, "Polling"), chosen as the runtime chooses which
      // parked reactor to ring.
      CoreId peer = balance_.PickPollerToWake(static_cast<CoreId>(qi), [this](CoreId c) {
        return !queues_[static_cast<size_t>(c)].waiters.empty();
      });
      if (peer != kNoCore) {
        std::deque<Waiter>& waiters = queues_[static_cast<size_t>(peer)].waiters;
        Waiter waiter = waiters.front();
        waiters.pop_front();
        scheduler_->Wake(waiter.thread, &ctx);
      }
    }
  } else {
    for (AcceptQueue& q : queues_) {
      wake_pollers_on(q);
    }
  }
  if (woken > 1) {
    stats_.poll_herd_wakeups += static_cast<uint64_t>(woken - 1);
  }
}

Connection* ListenSocket::DequeueFrom(ExecCtx& ctx, size_t qi, LockContext context) {
  AcceptQueue& queue = queues_[qi];
  ctx.MemLine(queue.head_line, kRead);
  if (queue.connections.empty()) {
    return nullptr;
  }
  ExecCtx::LockScope lock = ctx.BeginLock(queue.lock.get(), context);
  Connection* conn = nullptr;
  if (!queue.connections.empty()) {
    conn = queue.connections.front();
    queue.connections.pop_front();
    ctx.MemLine(queue.head_line, kWrite);
  }
  ctx.EndLock(lock);
  if (conn != nullptr && config_.variant == AcceptVariant::kAffinity) {
    if (balance_.OnDequeueBatch(static_cast<CoreId>(qi), 1, queue.connections.size())) {
      ctx.MemLine(busy_bits_line_, kWrite);
    }
  }
  return conn;
}

void ListenSocket::FinishAccept(ExecCtx& ctx, Connection* conn) {
  CoreId core = ctx.core();
  conn->accept_core = core;
  conn->state = Connection::State::kEstablished;

  // accept() consumes the request socket: reads the handshake metadata the
  // softirq core wrote, then frees it (a remote free under Fine-Accept).
  if (conn->has_request) {
    ctx.Mem(conn->request, types_->rs.seqs, kRead);
    ctx.Mem(conn->request, types_->rs.meta, kRead);
    ctx.Mem(conn->request, types_->rs.node, kWrite);
    ctx.Free(conn->request);
    conn->has_request = false;
  }

  // inet_accept reads the handshake state the softirq core wrote and rewires
  // the socket's callbacks/wait queue for the accepting task. Under
  // Fine-Accept these are the remote misses of Table 4.
  ctx.Mem(conn->sock, types_->ts.state, kRead);
  ctx.Mem(conn->sock, types_->ts.rcv_nxt, kRead);
  ctx.Mem(conn->sock, types_->ts.flags, kRead);
  ctx.Mem(conn->sock, types_->ts.callbacks, kWrite);
  ctx.Mem(conn->sock, types_->ts.wait_queue, kWrite);

  conn->sfd = ctx.Alloc(types_->socket_fd);
  conn->has_sfd = true;
  ctx.Mem(conn->sfd, types_->sfd.file_ref, kWrite);
  ctx.Mem(conn->sfd, types_->sfd.flags, kWrite);
  ctx.Mem(conn->sfd, types_->sfd.ops, kRead);
  ctx.Mem(conn->sfd, types_->sfd.wq, kWrite);
}

Connection* ListenSocket::Accept(ExecCtx& ctx, Thread* thread, bool park_on_empty) {
  CoreId core = ctx.core();

  if (config_.variant == AcceptVariant::kStock) {
    AcceptQueue& queue = queues_[0];
    ExecCtx::LockScope lock = ctx.BeginLock(listen_lock_.get(), LockContext::kProcess);
    ctx.MemLine(queue.head_line, kRead);
    Connection* conn = nullptr;
    if (!queue.connections.empty()) {
      conn = queue.connections.front();
      queue.connections.pop_front();
      ctx.MemLine(queue.head_line, kWrite);
    }
    ctx.EndLock(lock);
    if (conn == nullptr) {
      if (park_on_empty) {
        queue.waiters.push_back(Waiter{thread, /*poller=*/false});
        thread->Block();
        ++stats_.parked_accepts;
      }
      return nullptr;
    }
    ++stats_.accepted_local;
    FinishAccept(ctx, conn);
    return conn;
  }

  if (config_.variant == AcceptVariant::kFine) {
    // Round-robin over all clones; the shared cursor is itself a contended
    // cache line, part of Fine-Accept's cost.
    ctx.MemLine(rr_cursor_line_, kWrite);
    size_t start = rr_cursor_++ % queues_.size();
    for (size_t i = 0; i < queues_.size(); ++i) {
      size_t qi = (start + i) % queues_.size();
      Connection* conn = DequeueFrom(ctx, qi, LockContext::kProcess);
      if (conn != nullptr) {
        if (qi == static_cast<size_t>(core)) {
          ++stats_.accepted_local;
        } else {
          ++stats_.accepted_remote;
        }
        FinishAccept(ctx, conn);
        return conn;
      }
    }
    if (park_on_empty) {
      queues_[static_cast<size_t>(core)].waiters.push_back(Waiter{thread, false});
      thread->Block();
      ++stats_.parked_accepts;
    }
    return nullptr;
  }

  // --- Affinity-Accept: the shared Section 3.3.1 order. Only a blocking
  // accept (on its way to sleep) runs the polling scan; a non-blocking one
  // (batch draining) stops short of it so it does not strip other cores. ---
  ctx.MemLine(busy_bits_line_, kRead);  // one read tells us who is busy
  Connection* conn = nullptr;
  CoreId from = ServeAffinityOrder(
      &balance_, core, config_.connection_stealing, /*idle=*/park_on_empty,
      queues_[static_cast<size_t>(core)].connections.empty(),
      [&](CoreId q) {
        conn = DequeueFrom(ctx, static_cast<size_t>(q), LockContext::kProcess);
        return conn != nullptr;
      },
      [&](CoreId q) {
        ctx.MemLine(queues_[static_cast<size_t>(q)].head_line, kRead);
        return !queues_[static_cast<size_t>(q)].connections.empty();
      });
  if (from == kNoCore) {
    if (park_on_empty) {
      queues_[static_cast<size_t>(core)].waiters.push_back(Waiter{thread, false});
      thread->Block();
      ++stats_.parked_accepts;
    }
    return nullptr;
  }
  if (from == core) {
    ++stats_.accepted_local;
  } else {
    ++stats_.accepted_remote;
  }
  FinishAccept(ctx, conn);
  return conn;
}

bool ListenSocket::HasAcceptable(ExecCtx& ctx, CoreId core) {
  if (config_.variant == AcceptVariant::kStock) {
    ctx.MemLine(queues_[0].head_line, kRead);
    return !queues_[0].connections.empty();
  }
  // Local queue first.
  ctx.MemLine(queues_[static_cast<size_t>(core)].head_line, kRead);
  if (!queues_[static_cast<size_t>(core)].connections.empty()) {
    return true;
  }
  if (config_.variant == AcceptVariant::kFine) {
    for (size_t i = 0; i < queues_.size(); ++i) {
      if (i == static_cast<size_t>(core)) {
        continue;
      }
      ctx.MemLine(queues_[i].head_line, kRead);
      if (!queues_[i].connections.empty()) {
        return true;
      }
    }
    return false;
  }
  // Affinity: only steal-eligible queues make a poller runnable.
  if (!config_.connection_stealing || balance_.IsBusy(core)) {
    return false;
  }
  ctx.MemLine(busy_bits_line_, kRead);
  for (size_t i = 0; i < queues_.size(); ++i) {
    if (i == static_cast<size_t>(core)) {
      continue;
    }
    if (!balance_.IsBusy(static_cast<CoreId>(i))) {
      continue;
    }
    ctx.MemLine(queues_[i].head_line, kRead);
    if (!queues_[i].connections.empty()) {
      return true;
    }
  }
  return false;
}

void ListenSocket::ParkPoller(Thread* thread, CoreId core) {
  size_t qi = config_.variant == AcceptVariant::kStock ? 0 : static_cast<size_t>(core);
  queues_[qi].waiters.push_back(Waiter{thread, /*poller=*/true});
}

size_t ListenSocket::QueueLength(CoreId core) const {
  size_t qi = config_.variant == AcceptVariant::kStock ? 0 : static_cast<size_t>(core);
  return queues_[qi].connections.size();
}

}  // namespace affinity
