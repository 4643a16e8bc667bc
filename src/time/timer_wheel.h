// Hierarchical timer wheel for per-reactor connection deadlines.
//
// One wheel per pinned reactor, driven only from that reactor's thread --
// no locks anywhere. Entries are intrusive (`TimerEntry` lives inside the
// pooled `PendingConn`), so arming, cancelling and expiring a deadline
// never allocates: the wheel is a fixed 4-level x 64-slot array of
// sentinel-headed circular doubly-linked lists, the classic cascading
// design (Varghese & Lauck).
//
// Geometry: level 0 covers the next 64 ticks at `resolution_ns` per tick
// (1 ms default -> 64 ms), each higher level covers 64x the span of the
// one below (levels 0..3 -> ~4.6 h at 1 ms resolution). Deadlines past
// the top-level horizon are clamped to it; for connection lifecycles that
// is far beyond any sane knob. Time comes from a `ClockSource` (clock.h),
// so a scripted clock replays every expiry deterministically.

#ifndef AFFINITY_SRC_TIME_TIMER_WHEEL_H_
#define AFFINITY_SRC_TIME_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>

namespace affinity {
namespace timer {

// Intrusive wheel linkage. Embed one per independent deadline (e.g. the
// reactor embeds a phase timer per connection).
// Trivially destructible on purpose: it lives inside pool blocks that are
// recycled without running destructors. `data` and `kind` are opaque user
// cookies handed back on expiry (the reactor stores the conn handle and
// the DeadlineKind).
struct TimerEntry {
  TimerEntry* prev = nullptr;
  TimerEntry* next = nullptr;
  uint64_t expire_tick = 0;
  uint64_t data = 0;
  uint8_t kind = 0;
  bool armed = false;
};

class TimerWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kSlotBits;  // 64
  static constexpr uint64_t kNever = ~0ull;

  // `start_ns` anchors tick 0; pass the clock's current reading at
  // construction so early deadlines land on low ticks.
  TimerWheel(uint64_t resolution_ns, uint64_t start_ns);

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Arm `e` to fire at absolute `deadline_ns` (same epoch as the clock
  // that anchors the wheel), tagging it with `kind`/`data`. Re-arming an
  // already-armed entry moves it. Deadlines at or before the current tick
  // round up to the next tick: a timer never fires inside the call that
  // arms it.
  void Arm(TimerEntry* e, uint64_t deadline_ns, uint8_t kind, uint64_t data);

  // O(1); safe on an unarmed entry.
  void Cancel(TimerEntry* e);

  // Advance the wheel to `now_ns`, invoking `cb(TimerEntry*)` for every
  // entry whose deadline has passed, each exactly once and already
  // unlinked/disarmed. The callback may cancel or (re-)arm any entry,
  // including siblings that were due in the same tick.
  template <typename Cb>
  void Advance(uint64_t now_ns, Cb&& cb) {
    uint64_t target = TickOf(now_ns);
    if (armed_count_ == 0) {  // fast-forward: nothing to cascade or fire
      if (target > current_tick_) current_tick_ = target;
      return;
    }
    while (current_tick_ < target) {
      ++current_tick_;
      size_t idx = current_tick_ & (kSlotsPerLevel - 1);
      if (idx == 0) Cascade();
      Slot& slot = wheel_[0][idx];
      while (slot.head.next != &slot.head) {
        TimerEntry* e = slot.head.next;
        Unlink(e);
        e->armed = false;
        --armed_count_;
        cb(e);
      }
      if (armed_count_ == 0) {  // callback drained the wheel: skip ahead
        if (target > current_tick_) current_tick_ = target;
        return;
      }
    }
  }

  // Earliest instant any armed entry could fire -- a lower bound, exact
  // for level-0 entries and conservative (next cascade boundary) when the
  // soonest work is parked on a higher level. kNever when empty.
  uint64_t NextFireNs() const;

  size_t armed_count() const { return armed_count_; }
  uint64_t resolution_ns() const { return resolution_ns_; }

 private:
  struct Slot {
    TimerEntry head;  // sentinel; list is circular through it
  };

  uint64_t TickOf(uint64_t ns) const {
    return ns <= start_ns_ ? 0 : (ns - start_ns_) / resolution_ns_;
  }
  uint64_t NsOfTick(uint64_t tick) const {
    return start_ns_ + tick * resolution_ns_;
  }

  void Link(Slot& slot, TimerEntry* e);
  static void Unlink(TimerEntry* e);
  // Place an armed entry by the distance of its expire_tick from
  // current_tick_.
  void Schedule(TimerEntry* e);
  // Pull every entry off the higher levels' just-reached slots and
  // re-schedule it closer in.
  void Cascade();

  uint64_t resolution_ns_;
  uint64_t start_ns_;
  uint64_t current_tick_ = 0;
  size_t armed_count_ = 0;
  Slot wheel_[kLevels][kSlotsPerLevel];
};

}  // namespace timer
}  // namespace affinity

#endif  // AFFINITY_SRC_TIME_TIMER_WHEEL_H_
