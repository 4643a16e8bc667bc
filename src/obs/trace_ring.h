// TraceRing: fixed-size per-core rings of balancer decision events.
//
// Steering/balancing pathologies (COREC, the Flow Director reordering
// study) are only diagnosable from per-decision telemetry: which core stole
// from which, what the queues looked like at that instant, where the EWMA
// sat when a busy bit flipped. Each reactor records into its own ring
// (single writer, so the per-ring mutex is uncontended); Dump() merges all
// rings into one globally-ordered timeline using the shared sequence
// counter. Rings overwrite oldest-first, so the dump is the trailing window
// of each core's decisions.

#ifndef AFFINITY_SRC_OBS_TRACE_RING_H_
#define AFFINITY_SRC_OBS_TRACE_RING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace affinity {
namespace obs {

enum class TraceEventType : uint8_t {
  kSteal,         // src (victim) -> dst (thief) connection steal
  kBusyOn,        // core crossed the high watermark
  kBusyOff,       // core's EWMA fell below the low watermark
  kOverflowDrop,  // local accept queue full, connection closed on arrival
  kMigrate,       // flow group moved src -> dst at migration tick `tick`
  kReactorDead,   // watchdog failover: src reactor marked dead by core's reactor
  kReactorRecover,  // src reactor came back; failover reversed
  kAdmissionShed,   // shaped overload: connection accepted then shed (RST)
};

const char* TraceEventTypeName(TraceEventType type);

struct TraceEvent {
  uint64_t seq = 0;   // global order across all cores (assigned by Record)
  uint64_t t_ns = 0;  // steady-clock ns (assigned by Record)
  TraceEventType type = TraceEventType::kSteal;
  int16_t core = -1;   // core whose ring holds the event (the decider)
  int16_t src = -1;    // steal/migrate: victim core; transitions: the flipping core
  int16_t dst = -1;    // steal: thief core; migrate: the group's new owner
  double ewma = 0.0;   // busy transitions: EWMA queue length at the flip
  uint32_t qlen = 0;   // decided queue's length at decision time
  uint32_t group = 0;  // migrate: the flow group that moved
  uint32_t tick = 0;   // migrate: the decider's 100 ms epoch counter
};

class TraceRing {
 public:
  // `capacity_per_core` slots per core ring (min 1).
  TraceRing(int num_cores, size_t capacity_per_core);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  int num_cores() const { return num_cores_; }
  size_t capacity_per_core() const { return capacity_; }

  // Fills in seq and t_ns; `core` selects the ring (the calling reactor's
  // own core, so writers never contend with each other).
  void Record(int core, TraceEvent event);

  // All retained events from all rings, merged in global (seq) order.
  std::vector<TraceEvent> Dump() const;

  uint64_t recorded() const;  // total Record() calls
  uint64_t dropped() const;   // events overwritten by ring wraparound

  // Human-readable merged dump, one line per event.
  std::string DumpToString() const;

 private:
  struct Ring {
    mutable std::mutex mu;
    std::vector<TraceEvent> slots;
    uint64_t writes = 0;  // total writes; slot index = writes % capacity
  };

  int num_cores_;
  size_t capacity_;
  std::unique_ptr<Ring[]> rings_;
  std::atomic<uint64_t> seq_{0};
};

}  // namespace obs
}  // namespace affinity

#endif  // AFFINITY_SRC_OBS_TRACE_RING_H_
