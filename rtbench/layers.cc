#include "rtbench/layers.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <thread>

#include "rtbench/client.h"
#include "rtbench/procfs.h"
#include "rtbench/stats.h"
#include "src/balance/balance_policy.h"
#include "src/io/io_backend.h"
#include "src/mem/bounded_ring.h"
#include "src/obs/metrics.h"
#include "src/svc/conn_handler.h"
#include "src/time/timer_wheel.h"

namespace rtbench {

namespace {

namespace aff = affinity;

constexpr int kReps = 5;
constexpr double kRepNs = 10e6;  // each repetition runs ~10 ms

// Median over kReps of the ns one call takes. `body(n)` runs n iterations
// of `calls` calls each and returns the ns they took; n is doubled until one
// repetition lasts kRepNs.
template <typename Body>
double NsPerCall(Body&& body, int calls = 1) {
  uint64_t n = 16;
  while (body(n) < kRepNs && n < (1ull << 32)) {
    n *= 2;
  }
  std::vector<double> per_call;
  for (int r = 0; r < kReps; ++r) {
    per_call.push_back(body(n) / static_cast<double>(n * static_cast<uint64_t>(calls)));
  }
  return Median(per_call);
}

// The balance policy rt::Runtime runs in affinity mode, named in this one
// place so a runtime that replaces it changes one line here.
std::unique_ptr<aff::BalancePolicy> RuntimePolicy(int cores, int max_local_len) {
  return std::make_unique<aff::LockedBalancePolicy>(cores, max_local_len);
}

// A thread pinned to `cpu` running `loop(stop)` until the destructor.
class Spinner {
 public:
  template <typename Loop>
  Spinner(int cpu, Loop loop)
      : thread_([this, cpu, loop]() mutable {
          PinThisThread({cpu});
          loop(stop_);
        }) {}
  ~Spinner() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  Spinner(const Spinner&) = delete;
  Spinner& operator=(const Spinner&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Handler OnReadable with one request queued on a socketpair, timed alone.
double HandlerRoundNs(aff::svc::WorkloadKind kind, const std::vector<std::string>& requests,
                      const std::vector<size_t>& reply_lens, std::string* failure) {
  aff::svc::HandlerParams params;
  params.num_objects = kStaticObjects;
  params.object_bytes = kStaticObjectBytes;
  std::unique_ptr<aff::svc::ConnHandler> handler = aff::svc::MakeHandler(kind, params);
  auto st = std::make_unique<aff::svc::ConnState>();
  st->Reset(0);
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, sv) != 0) {
    *failure += "socketpair failed; ";
    return 0;
  }
  aff::svc::ConnRef ref{st.get(), sv[0], 0, aff::fault::DefaultSys()};
  std::vector<char> buf(kStaticObjectBytes + 64);
  uint64_t bad = 0;
  double ns = NsPerCall([&](uint64_t n) {
    double total = 0;
    for (uint64_t i = 0; i < n; ++i) {
      size_t k = i % requests.size();
      if (write(sv[1], requests[k].data(), requests[k].size()) !=
          static_cast<ssize_t>(requests[k].size())) {
        ++bad;
      }
      int64_t t0 = NowNs();
      aff::svc::Verdict v = handler->OnReadable(ref);
      total += static_cast<double>(NowNs() - t0);
      ssize_t got = read(sv[1], buf.data(), buf.size());
      if (v != aff::svc::Verdict::kWantRead || got != static_cast<ssize_t>(reply_lens[k])) {
        ++bad;
      }
    }
    return total;
  });
  close(sv[0]);
  close(sv[1]);
  if (bad > 0) {
    *failure += std::string(handler->name()) + " handler round failed; ";
  }
  return ns;
}

// One thread per reactor CPU runs IsBusy + AnyBusy on a shared policy for
// ~50 ms; the median thread's ns per pair.
double ContendedProbeNs(const std::vector<int>& cpus, int max_local_len, uint64_t* sink) {
  std::unique_ptr<aff::BalancePolicy> policy =
      RuntimePolicy(static_cast<int>(cpus.size()), max_local_len);
  std::vector<double> per_pair(cpus.size());
  std::vector<uint64_t> sinks(cpus.size());
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i]() {
      PinThisThread({cpus[i]});
      aff::CoreId me = static_cast<aff::CoreId>(i);
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(cpus.size())) {
      }
      uint64_t pairs = 0, busy = 0;
      int64_t t0 = NowNs(), t1 = t0;
      while (t1 - t0 < 50'000'000) {
        for (int k = 0; k < 256; ++k) {
          busy += policy->IsBusy(me) ? 1 : 0;
          busy += policy->AnyBusy() ? 1 : 0;
        }
        pairs += 256;
        t1 = NowNs();
      }
      per_pair[i] = static_cast<double>(t1 - t0) / static_cast<double>(pairs);
      sinks[i] = busy;
    });
  }
  for (size_t i = 0; i < threads.size(); ++i) {
    threads[i].join();
    *sink += sinks[i];
  }
  return Median(per_pair);
}

void LayerPass(const std::vector<int>& cpus, int max_local_len,
               const aff::rt::Runtime& runtime, std::vector<Metric>* out,
               std::string* failure) {
  auto add = [out](const char* name, double value, const char* unit = "ns") {
    out->push_back(Metric{name, value, unit});
  };
  const int other_cpu = cpus[1 % cpus.size()];
  uint64_t sink = 0;

  // --- mem: the accept ring and the connection pool ---
  {
    aff::BoundedRing<uint32_t> ring(1024);
    size_t len = 0;
    uint32_t v = 0;
    auto push_pop = [&](uint64_t n) {
      int64_t t0 = NowNs();
      for (uint64_t i = 0; i < n; ++i) {
        ring.Push(static_cast<uint32_t>(i), &len);
        if (ring.TryPop(&v, &len)) {
          sink += v;
        }
      }
      return static_cast<double>(NowNs() - t0);
    };
    add("mem.ring_push_pop_ns", NsPerCall(push_pop));
    Spinner popper(other_cpu, [&ring](std::atomic<bool>& stop) {
      size_t l = 0;
      uint32_t x = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ring.TryPop(&x, &l);
      }
    });
    add("mem.ring_pop_contended_ns", NsPerCall(push_pop));
  }
  {
    aff::rt::ConnPool pool(2, 1024);
    uint64_t dry = 0;
    add("mem.pool_alloc_free_ns", NsPerCall([&](uint64_t n) {
          int64_t t0 = NowNs();
          for (uint64_t i = 0; i < n; ++i) {
            aff::rt::ConnHandle h = pool.Alloc(0);
            if (h == aff::rt::kNullConn) {
              ++dry;
              continue;
            }
            pool.Free(0, h);
          }
          return static_cast<double>(NowNs() - t0);
        }));
    if (dry > 0) {
      *failure += "pool ran dry; ";
    }
  }
  {
    // Core 0 allocates its whole 64-block arena; core 1 frees every block
    // remotely; core 0's next Alloc reclaims them with one exchange.
    constexpr int kBlocks = 64;
    aff::rt::ConnPool pool(2, kBlocks);
    aff::rt::ConnHandle handles[kBlocks] = {};
    std::atomic<int> turn{0};  // 0: owner allocating, 1: remote core freeing
    uint64_t dry = 0;
    Spinner freer(other_cpu, [&](std::atomic<bool>& stop) {
      while (!stop.load(std::memory_order_relaxed)) {
        if (turn.load(std::memory_order_acquire) == 1) {
          for (aff::rt::ConnHandle h : handles) {
            pool.Free(1, h);
          }
          turn.store(0, std::memory_order_release);
        }
      }
    });
    add("mem.pool_remote_free_ns", NsPerCall([&](uint64_t n) {
          int64_t t0 = NowNs();
          for (uint64_t r = 0; r < n; ++r) {
            for (aff::rt::ConnHandle& h : handles) {
              h = pool.Alloc(0);
              dry += h == aff::rt::kNullConn ? 1 : 0;
            }
            turn.store(1, std::memory_order_release);
            while (turn.load(std::memory_order_acquire) != 0) {
            }
          }
          return static_cast<double>(NowNs() - t0);
        }, kBlocks));
    if (dry > 0) {
      *failure += "remote-free pool ran dry; ";
    }
  }

  // --- balance: the policy calls of ServeOne, batch flushes and steals ---
  {
    const int cores = std::max(2, static_cast<int>(cpus.size()));
    std::unique_ptr<aff::BalancePolicy> policy = RuntimePolicy(cores, max_local_len);
    add("balance.serve_probe_ns", NsPerCall([&](uint64_t n) {
          int64_t t0 = NowNs();
          for (uint64_t i = 0; i < n; ++i) {
            sink += policy->IsBusy(0) ? 1 : 0;
            sink += policy->AnyBusy() ? 1 : 0;
          }
          return static_cast<double>(NowNs() - t0);
        }));
    add("balance.serve_probe_contended_ns", ContendedProbeNs(cpus, max_local_len, &sink));
    uint64_t flips = 0;
    add("balance.batch_report_ns", NsPerCall([&](uint64_t n) {
          int64_t t0 = NowNs();
          for (uint64_t i = 0; i < n; ++i) {
            flips += policy->OnEnqueueBatch(0, 1, 1) ? 1 : 0;
            flips += policy->OnDequeueBatch(0, 1, 0) ? 1 : 0;
          }
          return static_cast<double>(NowNs() - t0);
        }));
    if (flips > 0) {
      *failure += "batch reports below the watermark flipped a busy bit; ";
    }
    std::unique_ptr<aff::BalancePolicy> steal = RuntimePolicy(cores, max_local_len);
    steal->OnEnqueueBatch(1, static_cast<size_t>(max_local_len),
                          static_cast<size_t>(max_local_len));
    uint64_t missed = steal->IsBusy(1) ? 0 : 1;
    add("balance.steal_path_ns", NsPerCall([&](uint64_t n) {
          int64_t t0 = NowNs();
          for (uint64_t i = 0; i < n; ++i) {
            sink += steal->ShouldStealThisTime(0) ? 1 : 0;
            aff::CoreId victim = steal->PickBusyVictim(0);
            if (victim != 1) {
              ++missed;
              continue;
            }
            steal->OnSteal(0, victim);
          }
          return static_cast<double>(NowNs() - t0);
        }));
    if (missed > 0) {
      *failure += "steal path did not find the busy core; ";
    }
  }

  // --- io: one arm plus one wait delivering a ready fd ---
  {
    std::unique_ptr<aff::io::IoBackend> io =
        aff::io::CreateIoBackend(aff::io::IoBackendKind::kEpoll, 0, aff::fault::DefaultSys());
    std::string err;
    int sv[2];
    if (!io->Init(&err) || socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                                      sv) != 0) {
      *failure += "io backend setup failed: " + err + "; ";
    } else {
      const uint64_t token = aff::io::MakeConnToken(7, 1);
      uint64_t bad = write(sv[1], "x", 1) == 1 ? 0 : 1;
      bad += io->ArmConn(sv[0], EPOLLIN, token, /*first=*/true) ? 0 : 1;
      aff::io::IoEvent events[8];
      add("io.arm_wait_ns", NsPerCall([&](uint64_t n) {
            int64_t t0 = NowNs();
            for (uint64_t i = 0; i < n; ++i) {
              io->ArmConn(sv[0], EPOLLIN, token, /*first=*/false);
              if (io->Wait(events, 8, 0) != 1 || events[0].token != token) {
                ++bad;
              }
            }
            return static_cast<double>(NowNs() - t0);
          }));
      io->Shutdown();
      close(sv[0]);
      close(sv[1]);
      if (bad > 0) {
        *failure += "epoll arm/wait did not deliver the ready fd; ";
      }
    }
  }

  // --- svc: one request through each handler ---
  {
    std::string payload(kEchoPayloadBytes, 'e');
    add("svc.echo_round_ns",
        HandlerRoundNs(aff::svc::WorkloadKind::kEcho, {payload + "\n"},
                       {std::to_string(kEchoPayloadBytes).size() + 1 + payload.size()}, failure));
    std::vector<std::string> keys;
    std::vector<size_t> lens;
    for (int k = 0; k < kStaticObjects; ++k) {
      keys.push_back("obj" + std::to_string(k) + "\n");
      lens.push_back(std::to_string(kStaticObjectBytes).size() + 1 + kStaticObjectBytes);
    }
    add("svc.static_round_ns",
        HandlerRoundNs(aff::svc::WorkloadKind::kStatic, keys, lens, failure));
  }

  // --- time: the deadline wheel ---
  {
    constexpr uint64_t kTickNs = 1'000'000;
    aff::timer::TimerWheel wheel(kTickNs, 0);
    aff::timer::TimerEntry e;
    add("time.arm_cancel_ns", NsPerCall([&](uint64_t n) {
          int64_t t0 = NowNs();
          for (uint64_t i = 0; i < n; ++i) {
            wheel.Arm(&e, 5'000'000'000ull + (i & 63) * kTickNs, 1, i);
            wheel.Cancel(&e);
          }
          return static_cast<double>(NowNs() - t0);
        }));
    uint64_t fired = 0;
    add("time.advance_ns", NsPerCall([&](uint64_t n) {
          // One entry armed 4 h out keeps the wheel on its tick-walking path
          // (an empty wheel fast-forwards); each Advance crosses one tick.
          aff::timer::TimerWheel w(kTickNs, 0);
          aff::timer::TimerEntry far;
          w.Arm(&far, 4ull * 3600 * 1'000'000'000ull, 1, 0);
          int64_t t0 = NowNs();
          for (uint64_t i = 1; i <= n; ++i) {
            w.Advance(i * kTickNs, [&fired](aff::timer::TimerEntry*) { ++fired; });
          }
          double ns = static_cast<double>(NowNs() - t0);
          w.Cancel(&far);
          return ns;
        }));
    if (fired > 0) {
      *failure += "timer wheel fired an entry early; ";
    }
  }

  // --- obs: the reactor's per-event metric updates, and Totals() ---
  {
    aff::obs::MetricsRegistry reg(1);
    std::atomic<uint64_t>* cell = reg.Cell(reg.RegisterCounter("rtbench_counter", "layer pass"), 0);
    aff::obs::AtomicHistogram* hist =
        reg.HistCell(reg.RegisterHistogram("rtbench_hist", "layer pass"), 0);
    add("obs.counter_add_ns", NsPerCall([&](uint64_t n) {
          int64_t t0 = NowNs();
          for (uint64_t i = 0; i < n; ++i) {
            cell->fetch_add(1, std::memory_order_relaxed);
          }
          return static_cast<double>(NowNs() - t0);
        }));
    add("obs.histogram_add_ns", NsPerCall([&](uint64_t n) {
          int64_t t0 = NowNs();
          for (uint64_t i = 0; i < n; ++i) {
            hist->Add(1000 + (i & 1023) * 37);
          }
          return static_cast<double>(NowNs() - t0);
        }));
    std::vector<double> totals_us;
    for (int i = 0; i < 51; ++i) {
      int64_t t0 = NowNs();
      sink += runtime.Totals().accepted;
      totals_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    add("obs.totals_us", Median(totals_us), "us");
  }
  // Keeps every loop's results observable, so none is optimized away.
  if (sink == 0xdeadbeefcafef00dull) {
    *failure += "unreachable; ";
  }
}

}  // namespace

void RunLayerPass(const std::vector<int>& reactor_cpus, int max_local_len,
                  const aff::rt::Runtime& runtime, std::vector<Metric>* out,
                  std::string* failure) {
  std::thread pass([&]() {
    PinThisThread({reactor_cpus[0]});
    LayerPass(reactor_cpus, max_local_len, runtime, out, failure);
  });
  pass.join();
}

}  // namespace rtbench
