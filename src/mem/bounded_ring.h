// Bounded, allocation-free multi-producer/multi-consumer ring (Vyukov's
// per-slot-sequence design), the cross-core handoff primitive of the
// runtime's hot path.
//
// Why this shape: the paper's Table 3 attributes the stock accept path's
// collapse to serialized queue manipulation under one lock plus the cache
// line bouncing it induces. This ring replaces the runtime's mutex+deque
// accept queues with a fixed array of cache-line-friendly slots:
//  - the uncontended local path (owner core pushing and popping its own
//    queue) is one CAS on an otherwise core-private index line plus one
//    slot write -- no lock, no heap,
//  - the steal/re-steer paths are the same CAS claim against the shared
//    index, so a thief batch-claims work without ever serializing behind a
//    sleeping lock holder,
//  - capacity is fixed at construction: steady state performs zero heap
//    allocations and overflow is an explicit refused push (the kernel's
//    accept-queue drop, not an unbounded queue).
//
// Concurrency contract: Push/TryPop/size are safe from any thread.
// `len_after` values are exact when a single thread uses the ring and a
// bounded-staleness approximation under concurrency (reads of the opposite
// index may trail by in-flight operations) -- exactly the tolerance the
// balance policy's EWMA smoothing is built for. Push refuses below
// capacity in one case only: a consumer preempted between claiming a slot
// and releasing it still holds that slot when producers lap the ring back
// to it. DrainAll is for quiescent shutdown (no concurrent
// producers/consumers).

#ifndef AFFINITY_SRC_MEM_BOUNDED_RING_H_
#define AFFINITY_SRC_MEM_BOUNDED_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/mem/cacheline.h"

namespace affinity {

template <typename T>
class BoundedRing {
  static_assert(std::is_trivially_copyable<T>::value,
                "ring slots are raw copies; payloads must be trivially copyable");

 public:
  // `capacity` is the maximum number of queued items; the slot array is the
  // next power of two >= capacity, but Push refuses beyond `capacity` itself
  // (under concurrent pushers the refusal check can overshoot by at most the
  // number of in-flight producers, never past the slot array).
  explicit BoundedRing(size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity), mask_(SlotCount(capacity_) - 1) {
    slots_.reset(new Slot[mask_ + 1]);
    for (size_t i = 0; i <= mask_; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  // Returns false when full (the caller keeps ownership of the payload); on
  // success *len_after is the queue length including the new item.
  bool Push(const T& value, size_t* len_after) {
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      // `pos` may trail a head that other threads pushed and popped past
      // since it was read; Length clamps that to empty (the slot check below
      // then reloads the tail) instead of wrapping to "full".
      if (Length(pos, head_.load(std::memory_order_relaxed)) >= capacity_) {
        return false;
      }
      Slot& slot = slots_[pos & mask_];
      size_t seq = slot.seq.load(std::memory_order_acquire);
      intptr_t dif = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          slot.value = value;
          slot.seq.store(pos + 1, std::memory_order_release);
          *len_after = Length(pos + 1, head_.load(std::memory_order_relaxed));
          return true;
        }
      } else if (dif < 0) {
        return false;  // slot still occupied: genuinely full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  // Returns false when empty; on success *len_after is the length left
  // behind (feeds the balance policy's dequeue hook).
  bool TryPop(T* out, size_t* len_after) {
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      size_t seq = slot.seq.load(std::memory_order_acquire);
      intptr_t dif = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          *out = slot.value;
          slot.seq.store(pos + mask_ + 1, std::memory_order_release);
          *len_after = Length(tail_.load(std::memory_order_relaxed), pos + 1);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty (or the producer that claimed this slot is mid-write)
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  // Approximate under concurrency (used for the steal-or-local decision,
  // where a stale answer is acceptable); exact when quiescent.
  size_t size() const {
    return Length(tail_.load(std::memory_order_relaxed), head_.load(std::memory_order_relaxed));
  }

  size_t capacity() const { return capacity_; }

  // Pops everything, in order. Shutdown path only: requires no concurrent
  // producers or consumers (the one place the ring may touch the heap).
  std::vector<T> DrainAll() {
    std::vector<T> out;
    out.reserve(size());
    T item;
    size_t len = 0;
    while (TryPop(&item, &len)) {
      out.push_back(item);
    }
    return out;
  }

 private:
  struct alignas(kCacheLineBytes) Slot {
    std::atomic<size_t> seq{0};
    T value{};
  };

  static size_t SlotCount(size_t capacity) {
    size_t n = 1;
    while (n < capacity) {
      n <<= 1;
    }
    return n;
  }

  static size_t Length(size_t tail, size_t head) {
    // Racy reads can transiently order tail before head; clamp to 0.
    return tail >= head ? tail - head : 0;
  }

  size_t capacity_;
  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  // Producers and consumers contend on separate lines; in the common
  // (local push, local pop) case both lines stay in the owner's cache.
  alignas(kCacheLineBytes) std::atomic<size_t> tail_{0};
  alignas(kCacheLineBytes) std::atomic<size_t> head_{0};
};

}  // namespace affinity

#endif  // AFFINITY_SRC_MEM_BOUNDED_RING_H_
