#include "src/stack/listen_socket.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/memory_system.h"

namespace affinity {
namespace {

class ListenSocketTest : public ::testing::Test {
 protected:
  static constexpr int kCores = 4;

  void Init(AcceptVariant variant, int backlog = 32, bool stealing = true,
            bool per_core_request_table = false) {
    mem_ = std::make_unique<MemorySystem>(AmdMemoryProfile(), kCores, 2);
    types_ = std::make_unique<KernelTypes>(mem_->registry());
    for (CoreId c = 0; c < kCores; ++c) {
      agents_.push_back(std::make_unique<CoreAgent>(c, &loop_, mem_.get()));
    }
    sched_ = std::make_unique<Scheduler>(&loop_, mem_.get(), types_.get(), &agents_);

    ListenConfig config;
    config.variant = variant;
    config.num_cores = kCores;
    config.backlog = backlog;
    config.connection_stealing = stealing;
    config.per_core_request_table = per_core_request_table;
    config.request_buckets = 64;
    listen_ = std::make_unique<ListenSocket>(config, mem_.get(), types_.get(), &lock_stat_,
                                             sched_.get());
  }

  // Runs fn in an execution context on `core` and drains the loop.
  void RunOnCore(CoreId core, std::function<void(ExecCtx&)> fn) {
    agents_[static_cast<size_t>(core)]->PostTask(std::move(fn));
    loop_.RunAll();
  }

  Packet SynFor(uint16_t port, uint64_t conn_id) {
    Packet p;
    p.flow = FiveTuple{1, 2, port, 80};
    p.kind = PacketKind::kSyn;
    p.conn_id = conn_id;
    return p;
  }

  // Full handshake driven from `core`'s softirq; returns the connection.
  Connection* Establish(CoreId core, uint16_t port, uint64_t conn_id) {
    Connection* conn = nullptr;
    RunOnCore(core, [&](ExecCtx& ctx) {
      Packet syn = SynFor(port, conn_id);
      listen_->OnSyn(ctx, syn);
      Packet ack = syn;
      ack.kind = PacketKind::kAck;
      conn = listen_->OnAck(ctx, ack, conn_id);
    });
    return conn;
  }

  EventLoop loop_;
  std::unique_ptr<MemorySystem> mem_;
  std::unique_ptr<KernelTypes> types_;
  std::vector<std::unique_ptr<CoreAgent>> agents_;
  std::unique_ptr<Scheduler> sched_;
  LockStat lock_stat_;
  std::unique_ptr<ListenSocket> listen_;
};

TEST_F(ListenSocketTest, StockHasSingleQueue) {
  Init(AcceptVariant::kStock);
  EXPECT_EQ(listen_->num_queues(), 1u);
  EXPECT_EQ(listen_->max_local_queue_len(), 32);
}

TEST_F(ListenSocketTest, ClonedVariantsHavePerCoreQueues) {
  Init(AcceptVariant::kFine);
  EXPECT_EQ(listen_->num_queues(), 4u);
  EXPECT_EQ(listen_->max_local_queue_len(), 8);  // backlog / cores
}

TEST_F(ListenSocketTest, HandshakeCreatesConnectionOnSoftirqCore) {
  Init(AcceptVariant::kAffinity);
  Connection* conn = Establish(2, 100, 1);
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->softirq_core, 2);
  EXPECT_EQ(conn->state, Connection::State::kAcceptQueue);
  EXPECT_EQ(listen_->QueueLength(2), 1u);
  EXPECT_EQ(listen_->stats().established, 1u);
  delete conn;  // test owns it (no kernel registry here)
}

TEST_F(ListenSocketTest, AckWithoutSynIsDropped) {
  Init(AcceptVariant::kAffinity);
  Connection* conn = nullptr;
  RunOnCore(0, [&](ExecCtx& ctx) {
    Packet ack = SynFor(100, 1);
    ack.kind = PacketKind::kAck;
    conn = listen_->OnAck(ctx, ack, 1);
  });
  EXPECT_EQ(conn, nullptr);
  EXPECT_EQ(listen_->stats().ack_no_request, 1u);
}

TEST_F(ListenSocketTest, DuplicateSynIsReanswered) {
  Init(AcceptVariant::kAffinity);
  RunOnCore(0, [&](ExecCtx& ctx) {
    EXPECT_TRUE(listen_->OnSyn(ctx, SynFor(100, 1)));
    EXPECT_TRUE(listen_->OnSyn(ctx, SynFor(100, 1)));  // retransmit
  });
  EXPECT_EQ(listen_->stats().syns, 2u);
}

TEST_F(ListenSocketTest, LocalAcceptReturnsLocalConnection) {
  Init(AcceptVariant::kAffinity);
  Connection* established = Establish(1, 100, 1);
  ASSERT_NE(established, nullptr);

  Thread* t = sched_->Spawn(1, 0, true, [](ExecCtx&, Thread&) {});
  Connection* accepted = nullptr;
  RunOnCore(1, [&](ExecCtx& ctx) { accepted = listen_->Accept(ctx, t); });
  ASSERT_EQ(accepted, established);
  EXPECT_EQ(accepted->accept_core, 1);
  EXPECT_EQ(accepted->state, Connection::State::kEstablished);
  EXPECT_TRUE(accepted->has_sfd);
  EXPECT_EQ(listen_->stats().accepted_local, 1u);
  delete accepted;
}

TEST_F(ListenSocketTest, EmptyAcceptParksThread) {
  Init(AcceptVariant::kAffinity);
  Thread* t = sched_->Spawn(0, 0, true, [](ExecCtx&, Thread&) {});
  Connection* conn = reinterpret_cast<Connection*>(1);
  RunOnCore(0, [&](ExecCtx& ctx) { conn = listen_->Accept(ctx, t); });
  EXPECT_EQ(conn, nullptr);
  EXPECT_EQ(t->state(), Thread::State::kBlocked);
  EXPECT_EQ(listen_->stats().parked_accepts, 1u);
}

TEST_F(ListenSocketTest, NonblockingAcceptDoesNotPark) {
  Init(AcceptVariant::kAffinity);
  Thread* t = sched_->Spawn(0, 0, true, [](ExecCtx&, Thread& self) { self.Block(); });
  sched_->Start(t);
  loop_.RunAll();
  Thread::State before = t->state();
  RunOnCore(0, [&](ExecCtx& ctx) {
    EXPECT_EQ(listen_->Accept(ctx, t, /*park_on_empty=*/false), nullptr);
  });
  EXPECT_EQ(t->state(), before);
  EXPECT_EQ(listen_->stats().parked_accepts, 0u);
}

TEST_F(ListenSocketTest, EnqueueWakesParkedAcceptor) {
  Init(AcceptVariant::kAffinity);
  int wakes = 0;
  Thread* t = sched_->Spawn(2, 0, true, [&](ExecCtx&, Thread& self) {
    ++wakes;
    self.Block();
  });
  // Park the thread via a failed accept.
  RunOnCore(2, [&](ExecCtx& ctx) { listen_->Accept(ctx, t); });
  EXPECT_EQ(t->state(), Thread::State::kBlocked);

  Connection* conn = Establish(2, 100, 1);  // wakes the waiter
  ASSERT_NE(conn, nullptr);
  loop_.RunAll();
  EXPECT_EQ(wakes, 1);
  delete conn;
}

// Sim<->rt parity of the polling wakeup. A connection landing on a queue
// with no local waiter wakes a waiter on a non-busy remote core; the
// reactors ring a parked peer by the same BalancePolicy::PickPollerToWake.
// Threads sleep in accept() on cores 1-3, and each step queues one
// connection on core 0: before it, a runtime whose parked set mirrors the
// sleeping threads names the core it would ring, and the simulator must
// wake exactly that core's thread.
TEST_F(ListenSocketTest, PollingWakeupPicksTheCoreTheRuntimeWouldRing) {
  Init(AcceptVariant::kAffinity);
  int wakes[kCores] = {};
  bool parked[kCores] = {};
  for (CoreId c = 1; c < kCores; ++c) {
    Thread* t = sched_->Spawn(c, 0, true, [&wakes, c](ExecCtx&, Thread& self) {
      ++wakes[c];
      self.Block();
    });
    RunOnCore(c, [&](ExecCtx& ctx) { EXPECT_EQ(listen_->Accept(ctx, t), nullptr); });
    ASSERT_EQ(t->state(), Thread::State::kBlocked);
    parked[c] = true;
  }
  auto runtime_choice = [&] {
    return listen_->balance().PickPollerToWake(0, [&parked](CoreId c) { return parked[c]; });
  };

  struct Step {
    CoreId force_busy;  // kNoCore: no change
    bool busy;
    CoreId expect;
  };
  const Step steps[] = {
      {1, true, 2},                // the nearest sleeper is busy
      {kNoCore, false, 3},         // core 2's thread already woke
      {1, false, 1},               // the busy bit cleared
      {kNoCore, false, kNoCore},   // nobody left asleep
  };
  std::vector<Connection*> queued;
  for (size_t i = 0; i < sizeof(steps) / sizeof(steps[0]); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    const Step& step = steps[i];
    if (step.force_busy != kNoCore) {
      listen_->balance().SetForcedBusy(step.force_busy, step.busy);
    }
    const CoreId want = runtime_choice();
    EXPECT_EQ(want, step.expect);
    int before[kCores];
    std::copy(wakes, wakes + kCores, before);
    Connection* conn = Establish(0, static_cast<uint16_t>(100 + i), i + 1);
    ASSERT_NE(conn, nullptr);
    queued.push_back(conn);
    loop_.RunAll();
    CoreId woken = kNoCore;
    for (CoreId c = 0; c < kCores; ++c) {
      if (wakes[c] != before[c]) {
        EXPECT_EQ(woken, kNoCore) << "a second core woke: " << c;
        woken = c;
      }
    }
    EXPECT_EQ(woken, want);
    if (woken != kNoCore) {
      parked[woken] = false;
    }
  }
  EXPECT_EQ(listen_->QueueLength(0), queued.size());
  for (Connection* conn : queued) {
    delete conn;  // still queued; the test owns it
  }
}

TEST_F(ListenSocketTest, OverflowDropsConnection) {
  Init(AcceptVariant::kAffinity, /*backlog=*/8);  // 2 per core
  EXPECT_NE(Establish(0, 100, 1), nullptr);
  EXPECT_NE(Establish(0, 101, 2), nullptr);
  EXPECT_EQ(Establish(0, 102, 3), nullptr);  // queue full
  EXPECT_EQ(listen_->stats().overflow_drops, 1u);
  EXPECT_EQ(listen_->QueueLength(0), 2u);
  // Clean up the queued connections.
  Thread* t = sched_->Spawn(0, 0, true, [](ExecCtx&, Thread&) {});
  for (int i = 0; i < 2; ++i) {
    RunOnCore(0, [&](ExecCtx& ctx) { delete listen_->Accept(ctx, t, false); });
  }
}

TEST_F(ListenSocketTest, HighWatermarkMarksBusy) {
  Init(AcceptVariant::kAffinity, /*backlog=*/16);  // 4 per core, high = 3
  for (uint16_t i = 0; i < 4; ++i) {
    ASSERT_NE(Establish(3, static_cast<uint16_t>(100 + i), i + 1), nullptr);
  }
  EXPECT_TRUE(listen_->balance().IsBusy(3));
  EXPECT_FALSE(listen_->balance().IsBusy(0));
}

TEST_F(ListenSocketTest, NonBusyCoreStealsFromBusyCore) {
  Init(AcceptVariant::kAffinity, /*backlog=*/16);
  for (uint16_t i = 0; i < 4; ++i) {
    Establish(3, static_cast<uint16_t>(100 + i), i + 1);
  }
  ASSERT_TRUE(listen_->balance().IsBusy(3));

  // Core 0 (non-busy, empty local queue) accepts: it must steal from core 3.
  Thread* t = sched_->Spawn(0, 0, true, [](ExecCtx&, Thread&) {});
  Connection* stolen = nullptr;
  RunOnCore(0, [&](ExecCtx& ctx) { stolen = listen_->Accept(ctx, t); });
  ASSERT_NE(stolen, nullptr);
  EXPECT_EQ(stolen->softirq_core, 3);
  EXPECT_EQ(stolen->accept_core, 0);
  EXPECT_EQ(listen_->stats().accepted_remote, 1u);
  EXPECT_EQ(listen_->balance().EpochSteals(0, 3), 1u);
  delete stolen;
}

TEST_F(ListenSocketTest, StealingDisabledNeverTakesRemote) {
  Init(AcceptVariant::kAffinity, /*backlog=*/16, /*stealing=*/false);
  for (uint16_t i = 0; i < 4; ++i) {
    Establish(3, static_cast<uint16_t>(100 + i), i + 1);
  }
  Thread* t = sched_->Spawn(0, 0, true, [](ExecCtx&, Thread&) {});
  Connection* conn = nullptr;
  RunOnCore(0, [&](ExecCtx& ctx) { conn = listen_->Accept(ctx, t); });
  EXPECT_EQ(conn, nullptr);  // parked instead of stealing
  EXPECT_EQ(listen_->stats().accepted_remote, 0u);
}

TEST_F(ListenSocketTest, BusyCoreNeverSteals) {
  Init(AcceptVariant::kAffinity, /*backlog=*/16);
  // Both cores 2 and 3 loaded past the high watermark.
  for (uint16_t i = 0; i < 4; ++i) {
    Establish(2, static_cast<uint16_t>(100 + i), i + 1);
    Establish(3, static_cast<uint16_t>(200 + i), 10 + i);
  }
  ASSERT_TRUE(listen_->balance().IsBusy(2));
  // Core 2 accepts: local only, even though core 3 is also busy.
  Thread* t = sched_->Spawn(2, 0, true, [](ExecCtx&, Thread&) {});
  Connection* conn = nullptr;
  RunOnCore(2, [&](ExecCtx& ctx) { conn = listen_->Accept(ctx, t); });
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(conn->softirq_core, 2);
  EXPECT_EQ(listen_->stats().accepted_remote, 0u);
  delete conn;
}

TEST_F(ListenSocketTest, ProportionalShareStealsOneInSix) {
  Init(AcceptVariant::kAffinity, /*backlog=*/64);  // 16 per core, high = 12
  // Core 3 is busy; core 0 has a steady local supply.
  for (uint16_t i = 0; i < 14; ++i) {
    Establish(3, static_cast<uint16_t>(300 + i), 100 + i);
  }
  for (uint16_t i = 0; i < 12; ++i) {
    Establish(0, static_cast<uint16_t>(100 + i), 1 + i);
  }
  ASSERT_TRUE(listen_->balance().IsBusy(3));
  ASSERT_FALSE(listen_->balance().IsBusy(0));

  Thread* t = sched_->Spawn(0, 0, true, [](ExecCtx&, Thread&) {});
  int local = 0;
  int remote = 0;
  for (int i = 0; i < 12; ++i) {
    Connection* conn = nullptr;
    RunOnCore(0, [&](ExecCtx& ctx) { conn = listen_->Accept(ctx, t, false); });
    ASSERT_NE(conn, nullptr);
    if (conn->softirq_core == 0) {
      ++local;
    } else {
      ++remote;
    }
    delete conn;
  }
  EXPECT_EQ(remote, 2);  // 5:1 share over 12 accepts
  EXPECT_EQ(local, 10);
}

TEST_F(ListenSocketTest, OnlyABlockingAcceptPollsANonBusyPeer) {
  Init(AcceptVariant::kAffinity, /*backlog=*/16);
  Connection* queued = Establish(2, 100, 1);
  ASSERT_NE(queued, nullptr);
  ASSERT_FALSE(listen_->balance().IsBusy(2));
  ASSERT_EQ(listen_->QueueLength(0), 0u);

  Thread* t = sched_->Spawn(0, 0, true, [](ExecCtx&, Thread&) {});
  // Non-blocking: core 2 is not busy, so nothing is steal-eligible before
  // the polling scan, and a non-blocking accept never runs that scan.
  Connection* conn = reinterpret_cast<Connection*>(1);
  RunOnCore(0, [&](ExecCtx& ctx) { conn = listen_->Accept(ctx, t, /*park_on_empty=*/false); });
  EXPECT_EQ(conn, nullptr);
  EXPECT_EQ(listen_->QueueLength(2), 1u);

  // Blocking: on its way to sleep the accept polls the other queues
  // (Section 3.3.1, "Polling") and takes core 2's connection.
  RunOnCore(0, [&](ExecCtx& ctx) { conn = listen_->Accept(ctx, t, /*park_on_empty=*/true); });
  ASSERT_EQ(conn, queued);
  EXPECT_EQ(conn->accept_core, 0);
  EXPECT_EQ(listen_->balance().EpochSteals(0, 2), 1u);
  EXPECT_EQ(listen_->stats().accepted_remote, 1u);
  EXPECT_EQ(listen_->stats().parked_accepts, 0u);
  delete conn;
}

TEST_F(ListenSocketTest, BusyVictimWithAnEmptyQueueFallsBackToLocal) {
  Init(AcceptVariant::kAffinity, /*backlog=*/64);  // 16 per core, high = 12
  listen_->balance().SetForcedBusy(3, true);
  for (uint16_t i = 0; i < 6; ++i) {
    ASSERT_NE(Establish(0, static_cast<uint16_t>(100 + i), 1 + i), nullptr);
  }
  ASSERT_TRUE(listen_->balance().IsBusy(3));
  ASSERT_EQ(listen_->QueueLength(3), 0u);

  // The sixth accept is the 5:1 share's steal-first turn; core 3 is busy
  // but has nothing queued, so it falls back to the local queue.
  Thread* t = sched_->Spawn(0, 0, true, [](ExecCtx&, Thread&) {});
  for (int i = 0; i < 6; ++i) {
    Connection* conn = nullptr;
    RunOnCore(0, [&](ExecCtx& ctx) { conn = listen_->Accept(ctx, t, /*park_on_empty=*/false); });
    ASSERT_NE(conn, nullptr) << "accept " << i;
    EXPECT_EQ(conn->softirq_core, 0) << "accept " << i;
    delete conn;
  }
  EXPECT_EQ(listen_->balance().EpochSteals(0, 3), 0u);
  EXPECT_EQ(listen_->stats().accepted_local, 6u);
  EXPECT_EQ(listen_->stats().accepted_remote, 0u);
}

TEST_F(ListenSocketTest, FineAcceptRoundRobinsAcrossQueues) {
  Init(AcceptVariant::kFine);
  for (CoreId c = 0; c < 4; ++c) {
    Establish(c, static_cast<uint16_t>(100 + c), static_cast<uint64_t>(c) + 1);
  }
  Thread* t = sched_->Spawn(0, 0, true, [](ExecCtx&, Thread&) {});
  std::vector<CoreId> sources;
  for (int i = 0; i < 4; ++i) {
    Connection* conn = nullptr;
    RunOnCore(0, [&](ExecCtx& ctx) { conn = listen_->Accept(ctx, t, false); });
    ASSERT_NE(conn, nullptr);
    sources.push_back(conn->softirq_core);
    delete conn;
  }
  // All four queues were drained (round robin), not just the local one.
  std::sort(sources.begin(), sources.end());
  EXPECT_EQ(sources, (std::vector<CoreId>{0, 1, 2, 3}));
}

TEST_F(ListenSocketTest, StockAcceptUsesListenLock) {
  Init(AcceptVariant::kStock);
  lock_stat_.set_enabled(true);
  Connection* conn = Establish(0, 100, 1);
  ASSERT_NE(conn, nullptr);
  Thread* t = sched_->Spawn(1, 0, true, [](ExecCtx&, Thread&) {});
  Connection* accepted = nullptr;
  RunOnCore(1, [&](ExecCtx& ctx) { accepted = listen_->Accept(ctx, t); });
  ASSERT_EQ(accepted, conn);
  // The single listen_socket class saw SYN + ACK + accept acquisitions.
  for (const LockClassStats& cls : lock_stat_.all()) {
    if (cls.name == "listen_socket") {
      EXPECT_EQ(cls.acquisitions, 3u);
    }
    if (cls.name == "request_bucket" || cls.name == "accept_queue") {
      EXPECT_EQ(cls.acquisitions, 0u);  // never touched under stock
    }
  }
  delete accepted;
}

TEST_F(ListenSocketTest, HasAcceptableSeesLocalConnection) {
  Init(AcceptVariant::kAffinity);
  Connection* conn = Establish(1, 100, 1);
  bool local_sees = false;
  bool remote_sees = true;
  RunOnCore(1, [&](ExecCtx& ctx) { local_sees = listen_->HasAcceptable(ctx, 1); });
  RunOnCore(0, [&](ExecCtx& ctx) { remote_sees = listen_->HasAcceptable(ctx, 0); });
  EXPECT_TRUE(local_sees);
  // Core 1 is not busy, so core 0's poller has nothing steal-eligible.
  EXPECT_FALSE(remote_sees);
  delete conn;
}

TEST_F(ListenSocketTest, PerCoreRequestTableRescanFindsMigratedRequest) {
  Init(AcceptVariant::kAffinity, 32, true, /*per_core_request_table=*/true);
  // SYN lands on core 0; the ACK (after a flow-group migration) on core 2.
  RunOnCore(0, [&](ExecCtx& ctx) { listen_->OnSyn(ctx, SynFor(100, 1)); });
  Connection* conn = nullptr;
  RunOnCore(2, [&](ExecCtx& ctx) {
    Packet ack = SynFor(100, 1);
    ack.kind = PacketKind::kAck;
    conn = listen_->OnAck(ctx, ack, 1);
  });
  ASSERT_NE(conn, nullptr);  // found via the cross-core rescan
  EXPECT_EQ(listen_->stats().request_table_rescans, 1u);
  delete conn;
}

TEST_F(ListenSocketTest, SharedRequestTableNeedsNoRescan) {
  Init(AcceptVariant::kAffinity);
  RunOnCore(0, [&](ExecCtx& ctx) { listen_->OnSyn(ctx, SynFor(100, 1)); });
  Connection* conn = nullptr;
  RunOnCore(2, [&](ExecCtx& ctx) {
    Packet ack = SynFor(100, 1);
    ack.kind = PacketKind::kAck;
    conn = listen_->OnAck(ctx, ack, 1);
  });
  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(listen_->stats().request_table_rescans, 0u);
  delete conn;
}

TEST_F(ListenSocketTest, VariantNames) {
  EXPECT_STREQ(AcceptVariantName(AcceptVariant::kStock), "Stock-Accept");
  EXPECT_STREQ(AcceptVariantName(AcceptVariant::kFine), "Fine-Accept");
  EXPECT_STREQ(AcceptVariantName(AcceptVariant::kAffinity), "Affinity-Accept");
}

}  // namespace
}  // namespace affinity
