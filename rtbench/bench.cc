#include "rtbench/bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "rtbench/ledger.h"
#include "rtbench/plan.h"
#include "rtbench/procfs.h"
#include "rtbench/reference.h"
#include "rtbench/stats.h"

namespace rtbench {

namespace {

namespace aff = affinity;

// Traffic alternates between the runtime and the reference server in
// phases this long: far shorter than the seconds-long swings of hypervisor
// steal on a shared host, so each runtime phase and the reference phase
// after it see the same disturbance.
constexpr double kPhaseSeconds = 0.05;
// setup_s is the median over this many cold starts. One lasts about 2 ms to
// its first reply on a 4-vCPU VM, short enough for one scheduling hiccup
// to move it; all of them, with their Stop(), take about 0.15 s.
constexpr int kColdStarts = 51;
// Spans are kept in chunks of this many, so recording one never copies the
// ones before it.
constexpr size_t kSpanChunk = 1 << 16;

enum Target : int { kRuntime = 0, kReference = 1 };
enum WindowId : int { kPlain = 0, kTraced = 1 };

struct Span {
  uint64_t op_id = 0;
  OpTimes t;
};

// Per-op latency pieces, filled by one generator thread.
struct OpHists {
  LatencyHist latency;     // op start to verified last byte
  LatencyHist connect;     // socket() + connect()
  LatencyHist first_byte;  // request written (accept: connected) to first reply byte

  void Merge(const OpHists& o) {
    latency.Merge(o.latency);
    connect.Merge(o.connect);
    first_byte.Merge(o.first_byte);
  }
};

struct GenThread {
  int index = 0;
  int cpu = -1;
  uint16_t ref_port = 0;
  std::atomic<pid_t> tid{0};
  std::atomic<uint64_t> completed[2] = {0, 0};  // by Target
  std::atomic<uint64_t> failed[2] = {0, 0};
  OpHists hists[2][2];  // [WindowId][Target]
  std::vector<std::vector<Span>> spans;  // traced window, runtime ops, in chunks
  size_t span_count = 0;
  std::string errors;  // first failure against each target
  std::thread thread;
};

struct Control {
  std::atomic<int> window{-1};  // -1 outside the measured windows
  std::atomic<int> target{kRuntime};
  std::atomic<bool> stop{false};
};

void GenLoop(GenThread* g, Workload workload, uint16_t rt_port, uint64_t seed, Control* ctl) {
  PinThisThread({g->cpu});
  Client runtime(workload, rt_port, seed, g->index);
  Client reference(workload, g->ref_port, seed, g->index);
  Client* clients[2] = {&runtime, &reference};
  g->tid.store(CurrentTid());
  uint64_t seq = 0;
  while (!ctl->stop.load(std::memory_order_relaxed)) {
    int w0 = ctl->window.load(std::memory_order_relaxed);
    int tg = ctl->target.load(std::memory_order_relaxed);
    OpTimes t;
    bool ok = clients[tg]->RunOp(&t);
    (ok ? g->completed : g->failed)[tg].fetch_add(1, std::memory_order_relaxed);
    int w1 = ctl->window.load(std::memory_order_relaxed);
    if (ok && w1 >= 0 && w0 == w1) {
      OpHists& h = g->hists[w1][tg];
      h.latency.Add(t.end - t.start);
      if (t.connect_end != 0) {
        h.connect.Add(t.connect_end - t.connect_begin);
      }
      h.first_byte.Add(t.first_byte - (t.written != 0 ? t.written : t.connect_end));
      if (w1 == kTraced && tg == kRuntime) {
        if (g->span_count % kSpanChunk == 0) {
          g->spans.emplace_back().reserve(kSpanChunk);
        }
        g->spans.back().push_back(Span{(static_cast<uint64_t>(g->index) << 40) | seq, t});
        ++g->span_count;
      }
    }
    ++seq;
  }
  runtime.Close();
  reference.Close();
  if (!runtime.error().empty()) {
    g->errors += "runtime: " + runtime.error() + "; ";
  }
  if (!reference.error().empty()) {
    g->errors += "reference: " + reference.error() + "; ";
  }
}

std::vector<ThreadSample> SampleAll(const std::vector<pid_t>& tids) {
  std::vector<ThreadSample> out;
  for (pid_t tid : tids) {
    out.push_back(SampleThread(tid));
  }
  return out;
}

// Every reactor is pinned to one distinct reactor CPU and last ran there;
// every other thread is pinned to, and last ran on, its own CPU.
bool CpuSetsHeld(const std::vector<ThreadSample>& reactors, const std::vector<int>& reactor_cpus,
                 const std::vector<ThreadSample>& others, const std::vector<int>& other_cpus) {
  std::vector<int> seen;
  for (const ThreadSample& s : reactors) {
    if (!s.ok || s.allowed.size() != 1 || s.processor != s.allowed[0] ||
        std::find(reactor_cpus.begin(), reactor_cpus.end(), s.processor) == reactor_cpus.end() ||
        std::find(seen.begin(), seen.end(), s.processor) != seen.end()) {
      return false;
    }
    seen.push_back(s.processor);
  }
  for (size_t i = 0; i < others.size(); ++i) {
    if (!others[i].ok || others[i].allowed != std::vector<int>{other_cpus[i]} ||
        others[i].processor != other_cpus[i]) {
      return false;
    }
  }
  return reactors.size() == reactor_cpus.size();
}

// One measured window, for one target.
struct Side {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double seconds = 0;
  std::vector<double> phase_ops_per_s;
  std::vector<double> phase_cpu_us_per_op;  // of the server threads
  ThreadCounters server;  // reactors (runtime) or reference threads, summed
  ThreadCounters gen;     // generator threads, summed
  OpHists hists;          // merged once the generator threads stopped
};

struct WindowReport {
  Side side[2];  // by Target
  // Runtime ops/s over the reference's in the phase right after: each pair
  // ratio cancels any disturbance slower than one phase pair.
  std::vector<double> pair_ratios;
  // The idle reactors during the reference phases. They share the CPUs
  // with the reference threads, so what they use there moves the yardstick.
  ThreadCounters reactors_in_ref;
  double steal_pct = 0;
  bool cpu_sets_held = false;
};

class Bench {
 public:
  Bench(const Options& opt, const CpuPlan& plan) : opt_(opt), plan_(plan) {}

  bool Run(Result* result, std::string* error);

 private:
  bool MeasureRuntime(WindowReport* plain, WindowReport* traced, std::vector<Metric>* layers,
                      std::string* error);
  void StartGenerators(uint16_t rt_port, const RefServer& ref);
  WindowReport MeasureWindow(WindowId id);
  std::vector<ThreadSample> SampleThreads() const;
  uint64_t Sum(std::atomic<uint64_t> (GenThread::*counter)[2], int tg) const;
  void ColdStarts();
  void Note(const std::string& why) { problems_ += why; }
  void WriteSpans() const;
  void PrintWindow(const char* label, const WindowReport& w) const;
  // The share of the reactor CPUs' time the reactors used during the
  // reference phases, in percent.
  double ReactorCpuInRefPct(const WindowReport& w) const {
    return 100.0 * static_cast<double>(w.reactors_in_ref.cpu_ns) /
           (w.side[kReference].seconds * 1e9 * static_cast<double>(plan_.reactor_cpus.size()));
  }

  const Options& opt_;
  const CpuPlan& plan_;
  Control ctl_;
  std::vector<std::unique_ptr<GenThread>> gens_;
  std::vector<pid_t> reactor_tids_, gen_tids_, ref_tids_;
  std::vector<int> ref_cpus_;
  std::vector<double> setup_s_, start_ms_, stop_ms_;
  uint64_t cold_attempted_ = 0, cold_failed_ = 0;
  long tw_start_ = -1;
  std::set<uint16_t> ports_;  // every listening port this run served on
  double peak_rss_mib_ = 0;
  affinity::rt::RtTotals totals_;
  LedgerInput ledger_;
  std::string problems_;
};

void Bench::ColdStarts() {
  const aff::rt::RtConfig config =
      RuntimeConfig(opt_.workload, static_cast<int>(plan_.reactor_cpus.size()));
  for (int k = 0; k < kColdStarts; ++k) {
    int64_t t0 = NowNs();
    aff::rt::Runtime rt(config);
    std::string err;
    int64_t s0 = NowNs();
    ++cold_attempted_;
    if (!rt.Start(&err)) {
      Note("cold start " + std::to_string(k) + " failed: " + err + "; ");
      ++cold_failed_;
      continue;
    }
    int64_t s1 = NowNs();
    ports_.insert(rt.port());
    Client client(opt_.workload, rt.port(), opt_.seed, -1 - k);
    OpTimes t;
    bool ok = client.RunOp(&t);
    int64_t t1 = NowNs();
    client.Close();
    if (!ok) {
      ++cold_failed_;
      Note("cold start " + std::to_string(k) + ": " + client.error() + "; ");
    }
    int64_t p0 = NowNs();
    rt.Stop();
    int64_t p1 = NowNs();
    setup_s_.push_back(static_cast<double>(t1 - t0) / 1e9);
    start_ms_.push_back(static_cast<double>(s1 - s0) / 1e6);
    stop_ms_.push_back(static_cast<double>(p1 - p0) / 1e6);
  }
}

void Bench::StartGenerators(uint16_t rt_port, const RefServer& ref) {
  for (size_t i = 0; i < plan_.gen_cpus.size(); ++i) {
    auto g = std::make_unique<GenThread>();
    g->index = static_cast<int>(i);
    g->cpu = plan_.gen_cpus[i];
    g->ref_port = ref.port(i);
    gens_.push_back(std::move(g));
  }
  for (auto& g : gens_) {
    g->thread = std::thread(GenLoop, g.get(), opt_.workload, rt_port, opt_.seed, &ctl_);
  }
  for (auto& g : gens_) {
    while (g->tid.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gen_tids_.push_back(g->tid.load());
  }
}

uint64_t Bench::Sum(std::atomic<uint64_t> (GenThread::*counter)[2], int tg) const {
  uint64_t n = 0;
  for (const auto& g : gens_) {
    n += ((*g).*counter)[tg].load(std::memory_order_relaxed);
  }
  return n;
}

std::vector<ThreadSample> Bench::SampleThreads() const {
  std::vector<pid_t> tids = reactor_tids_;
  tids.insert(tids.end(), gen_tids_.begin(), gen_tids_.end());
  tids.insert(tids.end(), ref_tids_.begin(), ref_tids_.end());
  return SampleAll(tids);
}

WindowReport Bench::MeasureWindow(WindowId id) {
  WindowReport w;
  // SampleThreads() order: reactors, generator threads, reference threads.
  const size_t nr = reactor_tids_.size(), ng = gen_tids_.size();
  auto sum = [](const std::vector<ThreadSample>& s, size_t from, size_t n) {
    return SumCounters(std::vector<ThreadSample>(s.begin() + static_cast<long>(from),
                                                 s.begin() + static_cast<long>(from + n)));
  };
  std::vector<int> other_cpus = plan_.gen_cpus;
  other_cpus.insert(other_cpus.end(), ref_cpus_.begin(), ref_cpus_.end());
  auto sets_held = [&](const std::vector<ThreadSample>& s) {
    return CpuSetsHeld(std::vector<ThreadSample>(s.begin(), s.begin() + static_cast<long>(nr)),
                       plan_.reactor_cpus,
                       std::vector<ThreadSample>(s.begin() + static_cast<long>(nr), s.end()),
                       other_cpus);
  };

  std::vector<ThreadSample> prev = SampleThreads();
  bool held = sets_held(prev);
  const HostCpu h0 = ReadHostCpu();
  const int phases =
      2 * std::max(1, static_cast<int>(std::lround(opt_.seconds / kPhaseSeconds / 2)));
  const int64_t phase_ns = static_cast<int64_t>(opt_.seconds * 1e9) / phases;
  ctl_.target.store(kRuntime);
  uint64_t base_done = Sum(&GenThread::completed, kRuntime);
  uint64_t base_failed = Sum(&GenThread::failed, kRuntime);
  ctl_.window.store(id);
  int64_t t0 = NowNs(), prev_t = t0;
  for (int p = 0; p < phases; ++p) {
    const int tg = p % 2;
    const int64_t due = t0 + phase_ns * (p + 1);
    while (NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
    }
    const uint64_t done = Sum(&GenThread::completed, tg);
    const uint64_t failed = Sum(&GenThread::failed, tg);
    const int64_t t = NowNs();
    const int next = p + 1 < phases ? 1 - tg : kRuntime;
    // The next phase's baseline is taken at the switch: an op of this
    // phase still in flight completes under this target, not the next.
    const uint64_t next_done = Sum(&GenThread::completed, next);
    const uint64_t next_failed = Sum(&GenThread::failed, next);
    ctl_.target.store(next);
    std::vector<ThreadSample> cur = SampleThreads();
    Side& side = w.side[tg];
    const uint64_t ops = done - base_done;
    const double seconds = static_cast<double>(t - prev_t) / 1e9;
    const ThreadCounters server =
        tg == kRuntime ? sum(cur, 0, nr) - sum(prev, 0, nr)
                       : sum(cur, nr + ng, cur.size() - nr - ng) -
                             sum(prev, nr + ng, prev.size() - nr - ng);
    side.ops += ops;
    side.failed += failed - base_failed;
    side.seconds += seconds;
    side.phase_ops_per_s.push_back(static_cast<double>(ops) / seconds);
    if (ops > 0) {
      side.phase_cpu_us_per_op.push_back(static_cast<double>(server.cpu_ns) / 1e3 /
                                         static_cast<double>(ops));
    }
    side.server += server;
    side.gen += sum(cur, nr, ng) - sum(prev, nr, ng);
    if (tg == kReference) {
      w.reactors_in_ref += sum(cur, 0, nr) - sum(prev, 0, nr);
      if (side.phase_ops_per_s.back() > 0) {
        w.pair_ratios.push_back(w.side[kRuntime].phase_ops_per_s.back() /
                                side.phase_ops_per_s.back());
      }
    }
    base_done = next_done;
    base_failed = next_failed;
    prev = std::move(cur);
    prev_t = t;
  }
  ctl_.window.store(-1);
  const HostCpu h1 = ReadHostCpu();
  w.cpu_sets_held = held && sets_held(prev);
  w.steal_pct = h1.total > h0.total ? 100.0 * static_cast<double>(h1.steal - h0.steal) /
                                          static_cast<double>(h1.total - h0.total)
                                    : 0;
  return w;
}

void Bench::PrintWindow(const char* label, const WindowReport& w) const {
  for (int tg : {kRuntime, kReference}) {
    const Side& s = w.side[tg];
    const double ops = static_cast<double>(std::max<uint64_t>(s.ops, 1));
    std::printf(
        "%s window, %s phases: %.3f s, %llu ops, %llu failed; ops/s %.1f (median of %zu "
        "phases); latency p50 %.3f us, p90 %.3f us (n=%llu); server CPU %.3f us/op; server "
        "runq wait %.3f us/op, %llu involuntary switches; generator runq wait %.3f us/op, %llu "
        "involuntary switches\n",
        label, tg == kRuntime ? "runtime" : "reference", s.seconds,
        static_cast<unsigned long long>(s.ops), static_cast<unsigned long long>(s.failed),
        Median(s.phase_ops_per_s), s.phase_ops_per_s.size(),
        s.hists.latency.Percentile(0.5) / 1e3, s.hists.latency.Percentile(0.9) / 1e3,
        static_cast<unsigned long long>(s.hists.latency.count()), Median(s.phase_cpu_us_per_op),
        static_cast<double>(s.server.runq_ns) / 1e3 / ops,
        static_cast<unsigned long long>(s.server.invol_switches),
        static_cast<double>(s.gen.runq_ns) / 1e3 / ops,
        static_cast<unsigned long long>(s.gen.invol_switches));
  }
  std::printf("%s window disturbance: host steal %.2f%%; cpu sets held: %s; idle reactors "
              "used %.3f%% of their CPUs in the reference phases\n",
              label, w.steal_pct, w.cpu_sets_held ? "yes" : "NO", ReactorCpuInRefPct(w));
}

void Bench::WriteSpans() const {
  const std::string path = opt_.spans_dir + "/spans-" + WorkloadName(opt_.workload) + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fprintf(f, "op_id,start_ns,connect_begin_ns,connect_end_ns,written_ns,first_byte_ns,"
                  "end_ns,closed_ns\n");
  size_t n = 0;
  for (const auto& g : gens_) {
    for (const std::vector<Span>& chunk : g->spans) {
      for (const Span& s : chunk) {
        std::fprintf(f, "%llu,%lld,%lld,%lld,%lld,%lld,%lld,%lld\n",
                     static_cast<unsigned long long>(s.op_id), static_cast<long long>(s.t.start),
                     static_cast<long long>(s.t.connect_begin),
                     static_cast<long long>(s.t.connect_end), static_cast<long long>(s.t.written),
                     static_cast<long long>(s.t.first_byte), static_cast<long long>(s.t.end),
                     static_cast<long long>(s.t.closed));
      }
    }
    n += g->span_count;
  }
  std::fclose(f);
  std::printf("spans: %zu ops in %s\n", n, path.c_str());
}

// The measured part: the runtime and the reference server under the
// generator, the ledger inputs, and with tracing the layer-call pass.
bool Bench::MeasureRuntime(WindowReport* plain, WindowReport* traced,
                           std::vector<Metric>* layers, std::string* error) {
  const int reactors = static_cast<int>(plan_.reactor_cpus.size());
  aff::rt::Runtime rt(RuntimeConfig(opt_.workload, reactors));
  // Reactor threads are the tasks that appear across Start().
  std::set<pid_t> before = ListTasks();
  if (!rt.Start(error)) {
    return false;
  }
  for (pid_t tid : ListTasks()) {
    if (before.count(tid) == 0) {
      reactor_tids_.push_back(tid);
    }
  }
  for (size_t i = 0; i < plan_.gen_cpus.size(); ++i) {
    ref_cpus_.push_back(plan_.reactor_cpus[i % plan_.reactor_cpus.size()]);
  }
  RefServer ref(opt_.workload, ref_cpus_);
  if (!ref.ok()) {
    *error = "the reference server could not listen";
    return false;
  }
  ref_tids_ = ref.tids();
  ports_.insert(rt.port());
  for (size_t i = 0; i < ref_cpus_.size(); ++i) {
    ports_.insert(ref.port(i));
  }
  StartGenerators(rt.port(), ref);
  const double warmup_seconds = std::min(1.0, opt_.seconds);
  for (int tg : {kRuntime, kReference}) {  // warm both targets
    ctl_.target.store(tg);
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup_seconds / 2));
  }
  *plain = MeasureWindow(kPlain);
  if (opt_.trace) {
    *traced = MeasureWindow(kTraced);
  }
  ctl_.stop.store(true);
  size_t spans = 0;
  for (auto& g : gens_) {
    g->thread.join();
    Note(g->errors);
    for (int tg : {kRuntime, kReference}) {
      plain->side[tg].hists.Merge(g->hists[kPlain][tg]);
      traced->side[tg].hists.Merge(g->hists[kTraced][tg]);
    }
    spans += g->span_count;
  }
  // Every runtime op timed in the traced window has its span.
  if (spans != traced->side[kRuntime].hists.latency.count()) {
    Note("kept " + std::to_string(spans) + " spans for " +
         std::to_string(traced->side[kRuntime].hists.latency.count()) + " traced ops; ");
  }
  rt.Stop();
  // The high-water mark of the measured run alone: the cold starts that
  // follow churn through many runtimes and would otherwise set it.
  peak_rss_mib_ = PeakRssMib();
  totals_ = rt.Totals();
  ledger_.accepted = totals_.accepted;
  ledger_.accounted = totals_.accounted();
  ledger_.server_ops =
      opt_.workload == Workload::kAcceptChurn ? totals_.served() : totals_.requests;
  ledger_.client_ops = Sum(&GenThread::completed, kRuntime);
  ledger_.concurrent_conns = gens_.size();
  if (opt_.trace) {
    std::string failure;
    RunLayerPass(plan_.reactor_cpus, rt.max_local_queue_len(), rt, layers, &failure);
    Note(failure);
  }
  return true;
}

bool Bench::Run(Result* result, std::string* error) {
  std::printf("rtbench: workload %s, seed %llu, %.3g s, trace %d; %zu reactors on CPUs %d-%d, "
              "%zu generator threads on CPUs %d-%d; loopback, closed loop, one connection per "
              "generator thread; runtime and reference server alternate every %.0f ms\n",
              WorkloadName(opt_.workload), static_cast<unsigned long long>(opt_.seed),
              opt_.seconds, opt_.trace ? 1 : 0, plan_.reactor_cpus.size(),
              plan_.reactor_cpus.front(), plan_.reactor_cpus.back(), plan_.gen_cpus.size(),
              plan_.gen_cpus.front(), plan_.gen_cpus.back(), kPhaseSeconds * 1e3);
  // The main thread only orchestrates; it stays off the reactor CPUs.
  PinThisThread(plan_.gen_cpus);
  tw_start_ = ReadTimeWait();
  WindowReport plain, traced;
  std::vector<Metric> layer_metrics;
  if (!MeasureRuntime(&plain, &traced, &layer_metrics, error)) {
    return false;
  }
  ColdStarts();

  const std::string ledger_problem = CheckLedger(ledger_);
  std::printf("ledger: accepted %llu, accounted %llu, server ops %llu, generator ops %llu: %s\n",
              static_cast<unsigned long long>(ledger_.accepted),
              static_cast<unsigned long long>(ledger_.accounted),
              static_cast<unsigned long long>(ledger_.server_ops),
              static_cast<unsigned long long>(ledger_.client_ops),
              ledger_problem.empty() ? "ok" : ledger_problem.c_str());
  Note(ledger_problem);
  if (totals_.timed_out() > 0) {
    Note(std::to_string(totals_.timed_out()) + " deadline expiries; ");
  }
  // Every connection ends in an RST, so none may linger in TIME_WAIT for
  // a later run to inherit. The namespace-wide count is only a record:
  // other programs' sockets land there too.
  const long own_tw = CountTimeWait(ports_);
  std::printf("TIME_WAIT: %ld on this run's %zu ports; %ld in the network namespace at start, "
              "%ld at end\n",
              own_tw, ports_.size(), tw_start_, ReadTimeWait());
  if (own_tw != 0) {
    Note("this run left " + std::to_string(own_tw) + " TIME_WAIT sockets; ");
  }
  const uint64_t gen_failed =
      Sum(&GenThread::failed, kRuntime) + Sum(&GenThread::failed, kReference);
  result->attempted = cold_attempted_ + gen_failed + Sum(&GenThread::completed, kRuntime) +
                      Sum(&GenThread::completed, kReference);
  result->failed = cold_failed_ + gen_failed + LedgerFailures(ledger_);
  if (cold_failed_ + gen_failed > 0) {
    Note(std::to_string(cold_failed_ + gen_failed) + " ops failed; ");
  }
  result->correct = problems_.empty() && result->failed == 0;
  std::printf("error_ratio = %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(result->failed) / static_cast<double>(result->attempted),
              static_cast<unsigned long long>(result->failed),
              static_cast<unsigned long long>(result->attempted));
  if (!problems_.empty()) {
    std::printf("FAILED: %s\n", problems_.c_str());
  }
  PrintWindow("plain", plain);
  std::printf("setup: median of %zu cold starts\n", setup_s_.size());

  auto us = [](double ns) { return ns / 1e3; };
  auto add = [result](const char* name, double value, const char* unit) {
    result->metrics.push_back(Metric{name, value, unit});
  };
  const Side& prt = plain.side[kRuntime];
  const Side& pref = plain.side[kReference];
  auto vs_ref = [&](double q) {
    return prt.hists.latency.Percentile(q) / pref.hists.latency.Percentile(q);
  };
  if (!opt_.trace) {
    add("ops_per_s_vs_ref", Median(plain.pair_ratios), "1");
    add("latency_p50_vs_ref", vs_ref(0.50), "1");
    add("server_cpu_vs_ref", Median(prt.phase_cpu_us_per_op) / Median(pref.phase_cpu_us_per_op),
        "1");
    add("setup_s", Median(setup_s_), "s");
    add("peak_rss_mib", peak_rss_mib_, "MiB");
    return true;
  }

  PrintWindow("traced", traced);
  if (!opt_.spans_dir.empty()) {
    WriteSpans();
  }
  const Side& trt = traced.side[kRuntime];
  const double ops = static_cast<double>(std::max<uint64_t>(trt.ops, 1));
  const double accepted = static_cast<double>(std::max<uint64_t>(totals_.accepted, 1));
  const aff::rt::RtTotals& tot = totals_;
  add("trace.overhead_pct",
      100.0 * (1.0 - Median(traced.pair_ratios) / Median(plain.pair_ratios)), "%");
  add("gen.ops_per_s", Median(prt.phase_ops_per_s), "1/s");
  add("gen.latency_p50_us", us(prt.hists.latency.Percentile(0.50)), "us");
  add("gen.latency_p90_us", us(prt.hists.latency.Percentile(0.90)), "us");
  add("gen.latency_p90_vs_ref", vs_ref(0.90), "1");
  add("rt.server_cpu_us_per_op", Median(prt.phase_cpu_us_per_op), "us");
  add("ref.ops_per_s", Median(pref.phase_ops_per_s), "1/s");
  add("ref.latency_p50_us", us(pref.hists.latency.Percentile(0.50)), "us");
  add("ref.latency_p90_us", us(pref.hists.latency.Percentile(0.90)), "us");
  add("ref.server_cpu_us_per_op", Median(pref.phase_cpu_us_per_op), "us");
  add("rt.reactor_user_us_per_op", trt.server.user_us / ops, "us");
  add("rt.reactor_sys_us_per_op", trt.server.sys_us / ops, "us");
  add("rt.reactor_runq_wait_us_per_op", us(static_cast<double>(trt.server.runq_ns)) / ops, "us");
  add("rt.reactor_wakeups_per_op", static_cast<double>(trt.server.vol_switches) / ops, "1");
  add("rt.reactor_invol_switches", static_cast<double>(trt.server.invol_switches), "count");
  add("rt.reactor_reads_per_op", static_cast<double>(trt.server.syscr) / ops, "1");
  add("rt.reactor_cpu_in_ref_phases_pct", ReactorCpuInRefPct(plain), "%");
  add("rt.start_ms", Median(start_ms_), "ms");
  add("rt.stop_ms", Median(stop_ms_), "ms");
  add("rt.locality_pct", std::max(0.0, tot.locality_fraction()) * 100, "%");
  add("rt.dropped_per_kconn",
      1e3 * static_cast<double>(tot.overflow_drops + tot.admission_shed + tot.pool_exhausted) /
          accepted,
      "1");
  add("mem.queue_wait_p50_us", us(static_cast<double>(tot.queue_wait_ns.Percentile(0.50))), "us");
  add("mem.queue_wait_p90_us", us(static_cast<double>(tot.queue_wait_ns.Percentile(0.90))), "us");
  add("mem.remote_frees_per_kconn", 1e3 * static_cast<double>(tot.conn_remote_frees) / accepted,
      "1");
  add("balance.steals_per_kconn", 1e3 * static_cast<double>(tot.steals) / accepted, "1");
  add("svc.service_p50_us", us(static_cast<double>(tot.request_latency_ns.Percentile(0.50))),
      "us");
  add("svc.service_p90_us", us(static_cast<double>(tot.request_latency_ns.Percentile(0.90))),
      "us");
  add("time.timeouts", static_cast<double>(tot.timed_out()), "count");
  add("gen.connect_p50_us", us(trt.hists.connect.Percentile(0.50)), "us");
  add("gen.first_byte_p50_us", us(trt.hists.first_byte.Percentile(0.50)), "us");
  add("gen.latency_p99_us", us(trt.hists.latency.Percentile(0.99)), "us");
  add("gen.latency_p999_us", us(trt.hists.latency.Percentile(0.999)), "us");
  add("gen.latency_samples", static_cast<double>(trt.hists.latency.count()), "count");
  add("gen.cpu_us_per_op", us(static_cast<double>(trt.gen.cpu_ns)) / ops, "us");
  add("gen.runq_wait_us_per_op", us(static_cast<double>(trt.gen.runq_ns)) / ops, "us");
  add("gen.invol_switches", static_cast<double>(trt.gen.invol_switches), "count");
  add("host.steal_pct", traced.steal_pct, "%");
  add("host.tw_at_start", static_cast<double>(tw_start_), "count");
  add("host.cpu_sets_held", plain.cpu_sets_held && traced.cpu_sets_held ? 1 : 0, "1");
  for (const Metric& m : layer_metrics) {
    result->metrics.push_back(m);
  }
  return true;
}

}  // namespace

bool RunBenchmark(const Options& options, Result* result, std::string* error) {
  const std::vector<int> allowed = AllowedCpus();
  CpuPlan plan;
  if (!PlanCpus(allowed, &plan, error)) {
    return false;
  }
  Bench bench(options, plan);
  bool ran = bench.Run(result, error);
  PinThisThread(allowed);  // Run() moved the caller onto the generator CPUs
  return ran;
}

}  // namespace rtbench
