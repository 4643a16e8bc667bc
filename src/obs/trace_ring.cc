#include "src/obs/trace_ring.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace affinity {
namespace obs {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kSteal:
      return "steal";
    case TraceEventType::kBusyOn:
      return "busy_on";
    case TraceEventType::kBusyOff:
      return "busy_off";
    case TraceEventType::kOverflowDrop:
      return "overflow_drop";
    case TraceEventType::kMigrate:
      return "migrate";
    case TraceEventType::kReactorDead:
      return "reactor_dead";
    case TraceEventType::kReactorRecover:
      return "reactor_recover";
    case TraceEventType::kAdmissionShed:
      return "admission_shed";
  }
  return "?";
}

TraceRing::TraceRing(int num_cores, size_t capacity_per_core)
    : num_cores_(num_cores < 1 ? 1 : num_cores),
      capacity_(capacity_per_core < 1 ? 1 : capacity_per_core),
      rings_(new Ring[static_cast<size_t>(num_cores_)]) {
  for (int i = 0; i < num_cores_; ++i) {
    rings_[i].slots.resize(capacity_);
  }
}

void TraceRing::Record(int core, TraceEvent event) {
  if (core < 0 || core >= num_cores_) {
    return;
  }
  event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  event.t_ns = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                         std::chrono::steady_clock::now().time_since_epoch())
                                         .count());
  Ring& ring = rings_[core];
  std::lock_guard<std::mutex> lock(ring.mu);
  ring.slots[ring.writes % capacity_] = event;
  ++ring.writes;
}

std::vector<TraceEvent> TraceRing::Dump() const {
  std::vector<TraceEvent> events;
  for (int i = 0; i < num_cores_; ++i) {
    const Ring& ring = rings_[i];
    std::lock_guard<std::mutex> lock(ring.mu);
    uint64_t retained = std::min<uint64_t>(ring.writes, capacity_);
    uint64_t first = ring.writes - retained;
    for (uint64_t w = first; w < ring.writes; ++w) {
      events.push_back(ring.slots[w % capacity_]);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
  return events;
}

uint64_t TraceRing::recorded() const {
  uint64_t total = 0;
  for (int i = 0; i < num_cores_; ++i) {
    std::lock_guard<std::mutex> lock(rings_[i].mu);
    total += rings_[i].writes;
  }
  return total;
}

uint64_t TraceRing::dropped() const {
  uint64_t total = 0;
  for (int i = 0; i < num_cores_; ++i) {
    std::lock_guard<std::mutex> lock(rings_[i].mu);
    if (rings_[i].writes > capacity_) {
      total += rings_[i].writes - capacity_;
    }
  }
  return total;
}

std::string TraceRing::DumpToString() const {
  std::string out;
  for (const TraceEvent& ev : Dump()) {
    char line[160];
    switch (ev.type) {
      case TraceEventType::kSteal:
        std::snprintf(line, sizeof(line), "%12llu ns seq=%llu core=%d steal %d -> %d qlen=%u\n",
                      static_cast<unsigned long long>(ev.t_ns),
                      static_cast<unsigned long long>(ev.seq), ev.core, ev.src, ev.dst, ev.qlen);
        break;
      case TraceEventType::kBusyOn:
      case TraceEventType::kBusyOff:
        std::snprintf(line, sizeof(line),
                      "%12llu ns seq=%llu core=%d %s ewma=%.2f qlen=%u\n",
                      static_cast<unsigned long long>(ev.t_ns),
                      static_cast<unsigned long long>(ev.seq), ev.core,
                      TraceEventTypeName(ev.type), ev.ewma, ev.qlen);
        break;
      case TraceEventType::kOverflowDrop:
        std::snprintf(line, sizeof(line), "%12llu ns seq=%llu core=%d overflow_drop qlen=%u\n",
                      static_cast<unsigned long long>(ev.t_ns),
                      static_cast<unsigned long long>(ev.seq), ev.core, ev.qlen);
        break;
      case TraceEventType::kMigrate:
        std::snprintf(line, sizeof(line),
                      "%12llu ns seq=%llu core=%d migrate group=%u %d -> %d tick=%u\n",
                      static_cast<unsigned long long>(ev.t_ns),
                      static_cast<unsigned long long>(ev.seq), ev.core, ev.group, ev.src, ev.dst,
                      ev.tick);
        break;
      case TraceEventType::kReactorDead:
      case TraceEventType::kReactorRecover:
        std::snprintf(line, sizeof(line), "%12llu ns seq=%llu core=%d %s reactor=%d tick=%u\n",
                      static_cast<unsigned long long>(ev.t_ns),
                      static_cast<unsigned long long>(ev.seq), ev.core,
                      TraceEventTypeName(ev.type), ev.src, ev.tick);
        break;
      case TraceEventType::kAdmissionShed:
        std::snprintf(line, sizeof(line), "%12llu ns seq=%llu core=%d admission_shed qlen=%u\n",
                      static_cast<unsigned long long>(ev.t_ns),
                      static_cast<unsigned long long>(ev.seq), ev.core, ev.qlen);
        break;
    }
    out += line;
  }
  return out;
}

}  // namespace obs
}  // namespace affinity
