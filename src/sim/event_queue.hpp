#pragma once
/// \file event_queue.hpp
/// Time-ordered event queue for the discrete-event simulator.
///
/// Events at equal timestamps fire in insertion (FIFO) order — a sequence
/// number breaks ties — which makes every run with the same seed bit-exact
/// reproducible (a property the integration tests assert).
///
/// Hot-path design (replaces the seed's std::function + unordered_map +
/// std::priority_queue triple, which paid two heap allocations and two hash
/// lookups per event):
///
///  * Callables live in a slab of reusable slots (`Callback` — 48-byte
///    inline storage, heap fallback; see callback.hpp). An `EventId` encodes
///    {slot, generation}, so cancellation is an O(1) generation bump and a
///    stale handle can never touch a reused slot.
///  * The priority structure is two-banded. Small queues (< 64 pending) use
///    a 4-ary min-heap over 24-byte trivially-copyable entries
///    {when, seq, slot, gen} — half the levels of a binary heap, PODs moved
///    instead of callables. Past that, a calendar wheel switches on in
///    front: near-future events append O(1) into time buckets (each bucket
///    sorted once, lazily, when the cursor reaches it) while events beyond
///    the wheel horizon overflow into the same 4-ary heap and are drained
///    bucket-ward lap by lap. Bucket count/width adapt to the live event
///    population (rebuilds are O(n), amortized against the growth that
///    triggered them).
///  * Bucket storage is a flat ring, not a vector-of-vectors: buckets are a
///    contiguous u32 head array whose chains thread through one contiguous
///    node pool (32 B/event), and only the *cursor* bucket is ever
///    materialized — harvested into a single reusable vector, compacted and
///    sorted there. A 1M-pending population costs two flat arrays instead
///    of ~N live vector headers + heap blocks, inserts touch two cache
///    lines, and an empty bucket costs 4 bytes (docs/scaling.md).
///  * Steady-state schedule/pop and schedule/cancel cycles allocate nothing:
///    slots and bucket capacity are recycled, sorting is in-place.
///  * Where the wheel earns its place (perfbench, seed 1, 4-vCPU
///    AVX-512BW host): on `fleet_sweep` only the 32-node points cross the
///    64-pending threshold (66 pending at peak; 25 % of all schedules land
///    while the wheel is on), and the hub workloads peak at 501 and 4,001
///    pending events. A heap-only prototype raised traced
///    `net.run.us_per_point.n32` from 165–180 µs to 201–208 µs (3 of 3
///    runs) and cost about 2.5 % median `fleet_points_per_s` over 8 pairs.
///    Measure again before removing the wheel.
///
/// Every ordering decision — bucket sort, heap sift, wheel drain — compares
/// the same (when, seq) key, so the pop order is exactly the seed's
/// semantics regardless of which band an event sits in.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/callback.hpp"

namespace iob::sim {

/// Simulation time in seconds. Single-threaded deterministic scheduling makes
/// a double-based clock safe here; ties are broken by sequence number, never
/// by float comparison subtleties.
using Time = double;

/// Opaque handle for cancelling a scheduled event. Encodes {slot, generation}
/// so a stale handle (event fired or already cancelled, slot since reused)
/// can never cancel somebody else's event.
using EventId = std::uint64_t;

class EventQueue {
 public:
  using Action = Callback;

  EventQueue();

  /// Schedule `action` at absolute time `when` (>= 0). Returns a handle that
  /// can be passed to `cancel`. Allocation-free once the queue has reached
  /// its high-water mark.
  EventId schedule(Time when, Action action);

  /// Cancel a pending event. Returns false if the event already fired,
  /// was already cancelled, or never existed. O(1) (lazy deletion: the dead
  /// entry is dropped when its band is consumed or rebuilt).
  bool cancel(EventId id);

  /// True if no live events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] Time next_time();

  /// Pop and run the earliest live event; returns its time.
  /// Requires !empty().
  Time run_next();

  /// Number of live (non-cancelled) events.
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Pre-size the slab and heap for `capacity` concurrent events so even the
  /// warm-up phase of a large simulation never reallocates.
  void reserve(std::size_t capacity);

  /// True if the calendar wheel band is currently active (test hook).
  [[nodiscard]] bool wheel_active() const { return !bucket_head_.empty(); }

  struct DebugCounts {
    std::size_t wheel_ahead = 0;   ///< live entries at/after the cursor
    std::size_t wheel_behind = 0;  ///< live entries the cursor already passed (must be 0)
    std::size_t wheel_ahead_dead = 0;  ///< dead entries not yet passed
    std::size_t heap_live = 0;
    std::size_t occupancy = 0;
    std::size_t live_count = 0;
  };
  /// Physical live-entry census across bands (debug/test hook, O(n)).
  [[nodiscard]] DebugCounts debug_counts() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffU;
  /// Live events at which the wheel switches on.
  static constexpr std::size_t kWheelActivation = 64;
  static constexpr std::size_t kMinBuckets = 64;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

  /// Trivially copyable; every band moves/sorts these 24-byte PODs, never a
  /// callable.
  struct Entry {
    Time when;
    std::uint64_t seq;   ///< global schedule order, breaks equal-time ties FIFO
    std::uint32_t slot;  ///< index into slots_
    std::uint32_t gen;   ///< must match the slot's generation to be live
  };

  struct Slot {
    Callback action;
    std::uint32_t gen = 1;          ///< bumped on fire/cancel; 0 never used
    std::uint32_t next_free = kNoSlot;
    bool live = false;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.slot].gen == e.gen;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  // -- 4-ary heap band (far-future overflow; sole band for small queues) ----
  void heap_push(Entry e);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  void heap_pop_top();
  void heap_skip_dead();

  // -- calendar wheel band (flat ring) --------------------------------------
  /// Chain node: one wheel entry + the intrusive link to the next node of
  /// its bucket (kNoSlot terminates). Free nodes reuse `next` as the
  /// free-list link.
  struct WheelNode {
    Entry entry;
    std::uint32_t next = kNoSlot;
  };

  std::uint32_t node_acquire();
  void node_release(std::uint32_t idx);

  void wheel_insert(Entry e);
  /// Advance cursor_/origin until the harvested cursor bucket
  /// (`cur_bucket_[cur_idx_]`) holds the next live entry, or the wheel is
  /// drained (occupancy_ == 0). Harvests each bucket's chain into
  /// cur_bucket_ (compacting cancelled entries) and sorts it exactly once.
  void wheel_advance();
  void complete_lap();
  /// Move live far-band events now inside the horizon into the wheel.
  void drain_heap_into_wheel();
  /// Rebuild wheel geometry (bucket count + width) from the current live
  /// population; also (re)activates the wheel. O(n).
  void rebuild_wheel();
  /// Collect every live entry from all bands into scratch_, clearing bands.
  void collect_live();

  /// The next live entry across bands, removed from its band but with the
  /// slot still intact. Requires !empty().
  Entry take_next();
  /// Same, but leaves the entry in place. Requires !empty().
  Entry peek_next();

  // Slab.
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;

  // 4-ary heap band.
  std::vector<Entry> heap_;

  // Calendar wheel band (inactive while bucket_head_ is empty). Flat ring:
  // bucket b's entries form a chain starting at bucket_head_[b] through
  // pool_[i].next; the cursor bucket alone is harvested into cur_bucket_
  // (one vector reused lap after lap) for its compact-and-sort. Invariant:
  // while cur_sorted_, the cursor's chain is empty — late arrivals for the
  // cursor bucket insert directly into cur_bucket_'s sorted tail.
  std::vector<std::uint32_t> bucket_head_;  ///< per-bucket chain head (kNoSlot = empty)
  std::vector<WheelNode> pool_;             ///< chain nodes, free-listed
  std::uint32_t pool_free_ = kNoSlot;       ///< head of the node free list
  std::vector<Entry> cur_bucket_;  ///< harvested cursor bucket (sorted once)
  Time origin_ = 0.0;        ///< start time of bucket 0 of this lap
  Time width_ = 1.0;         ///< bucket width (seconds)
  Time inv_width_ = 1.0;     ///< 1 / width_ (multiply beats divide per insert)
  Time horizon_ = 0.0;       ///< origin_ + buckets * width; beyond -> heap
  std::size_t cursor_ = 0;   ///< current bucket index within the lap
  std::size_t cur_idx_ = 0;  ///< consume index into the sorted cursor bucket
  bool cur_sorted_ = false;
  std::size_t occupancy_ = 0;  ///< entries (live or dead) physically in buckets
  std::size_t consumed_since_rebuild_ = 0;  ///< rebuild-thrash cooldown

  std::vector<Entry> scratch_;  ///< rebuild workspace (kept to avoid allocs)
};

}  // namespace iob::sim
