#pragma once
/// \file cache.hpp
/// \brief Sharded memoization of per-point sweep costs.
///
/// A sweep records four metrics (D, PDP, EDP, ED²P) per grid point, but all
/// four derive from one `(time, energy)` pair — so the expensive placement
/// evaluation is keyed on the canonical parameter tuple, computed once, and
/// probed once per point by the batch evaluator; points that repeat a tuple
/// (duplicate axis values, resume replays) hit instead of recomputing. Only
/// callers whose points can repeat a tuple use it: the serve engine (its
/// requests repeat), branch-and-bound and annealing search, and sweeps or
/// exhaustive searches over a grid that is not `ParamGrid::tuples_distinct`.
/// A grid whose tuples are all distinct is priced without one. The table is
/// sharded by key hash, and each shard keeps its own counters, so pool
/// workers evaluating different points rarely contend on a lock or a cache
/// line.
///
/// Keys are canonicalized before hashing: `-0.0` collapses to `0.0` (they
/// are the same grid value; a bitwise key would silently defeat memoization)
/// and NaN/Inf components are rejected with `std::invalid_argument` (a NaN
/// key can never match itself, so caching one is always a bug upstream).
/// Each shard is an open-addressing table over a canonical 64-bit tuple
/// hash; the full tuple is stored inline (in a shard-local arena, not as a
/// heap string per entry) and verified on every probe, so a hash collision
/// degrades to a probe step, never a wrong value. Lookups allocate nothing.
///
/// Under a size bound, eviction is FIFO through a real fixed-capacity ring
/// of entry indices — `size()` and `evictions()` stay exact even when
/// concurrent misses race on one key (a racing loser never double-inserts
/// or double-counts; see `get_or_compute`).
///
/// For long-lived processes (stamp_serve) the cache optionally runs in a
/// TTL/admission mode, configured via `CacheOptions`:
///
///  - **TTL**: entries older than `ttl` are stale. Staleness is detected
///    lazily at probe time and the entry is *refreshed in place* — same
///    slot, same arena span, same FIFO position — so the bounded-mode
///    accounting (live count, eviction order, free-list reuse) is untouched
///    by expiry. A stale probe counts as a miss (`expirations()` counts each
///    in-place refresh exactly once, even when concurrent probes race on the
///    same stale entry).
///  - **Admission** (bounded mode only): a doorkeeper filter makes a
///    first-seen key earn its slot. While a shard is full, the first miss on
///    a new key computes but is *not* inserted (counted in
///    `admission_rejections()`); a second miss on the same key admits it.
///    This keeps one-off request keys from churning out the hot working set.
///
/// With `ttl == 0` and `admission == false` (the defaults) every new branch
/// is dead and the clock is never read: batch sweeps are bit-identical to
/// the pre-TTL cache (locked by a byte-identity test vs sweeps/baseline.json).

#include "core/cost_model.hpp"
#include "core/function_ref.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace stamp::sweep {

/// The memoized quantity: the parallel-composition cost of the point's best
/// placement, its power-envelope feasibility, and the process count the
/// selection chose.
struct PointCost {
  Cost cost{};
  bool feasible = true;
  int processes = 0;  ///< best process count found for the point

  friend bool operator==(const PointCost&, const PointCost&) = default;
};

/// Construction-time policy for a CostCache. The defaults reproduce the
/// classic sweep cache exactly (unbounded, no TTL, no admission filter).
struct CacheOptions {
  /// Lock-sharded buckets; rounded up to at least 1.
  std::size_t shards = 16;
  /// Per-shard size bound with FIFO eviction; 0 = unbounded.
  std::size_t max_entries_per_shard = 0;
  /// Entries older than this are stale and refreshed on next probe; 0 =
  /// entries never expire.
  std::chrono::nanoseconds ttl{0};
  /// Doorkeeper admission filter (bounded mode only — ignored when
  /// `max_entries_per_shard` is 0).
  bool admission = false;
  /// Test hook: monotonic clock in nanoseconds. nullptr = steady_clock.
  /// Lets TTL tests advance time deterministically instead of sleeping.
  std::uint64_t (*now_ns)() = nullptr;
};

class CostCache {
 public:
  /// `shards` buckets each with their own lock; rounded up to at least 1.
  /// `max_entries_per_shard` bounds each shard's size: when an insert would
  /// exceed it, the oldest entry of that shard is evicted (FIFO). 0 =
  /// unbounded (the default — sweeps rely on full memoization).
  explicit CostCache(std::size_t shards = 16,
                     std::size_t max_entries_per_shard = 0);

  /// Full-policy constructor (TTL / admission — see CacheOptions).
  explicit CostCache(const CacheOptions& options);

  /// Return the cached value for `key` (the canonical parameter tuple of a
  /// grid point), computing it with `compute` on a miss. `compute` runs
  /// outside any shard lock, so concurrent misses on *different* keys never
  /// serialize; concurrent misses on the same key may both compute, but only
  /// the first result is inserted (computation is deterministic, so both
  /// results are identical anyway). Counters account every lookup exactly
  /// once: a lookup is a miss iff it did not return a fresh cached value, so
  /// `hits() + misses()` equals the number of calls — no double-counting
  /// when misses race. Without TTL/admission, `misses()` additionally equals
  /// the number of inserts; with them, a miss may instead be an in-place
  /// refresh (`expirations()`) or a rejected insert
  /// (`admission_rejections()`).
  ///
  /// Throws std::invalid_argument if any key component is NaN or infinite.
  PointCost get_or_compute(std::span<const double> key,
                           core::function_ref<PointCost()> compute);

  /// The canonical 64-bit tuple hash (exposed for tests): length-seeded
  /// splitmix over the canonicalized bit patterns, so `-0.0` and `0.0` hash
  /// identically and a tuple never collides with its own prefix.
  /// Throws std::invalid_argument on NaN/Inf components.
  [[nodiscard]] static std::uint64_t hash_key(std::span<const double> key);

  [[nodiscard]] std::uint64_t hits() const noexcept;
  [[nodiscard]] std::uint64_t misses() const noexcept;
  [[nodiscard]] std::uint64_t evictions() const noexcept;
  /// Stale entries refreshed in place (TTL mode). Expiry is lazy: an entry
  /// that ages out but is never probed again is not counted.
  [[nodiscard]] std::uint64_t expirations() const noexcept;
  /// Computed-but-not-inserted misses turned away by the doorkeeper
  /// (admission mode).
  [[nodiscard]] std::uint64_t admission_rejections() const noexcept;
  [[nodiscard]] std::size_t size() const;
  /// Entry records ever allocated across all shards (live + reusable).
  /// Test introspection: under a size bound this must stay O(bound) — freed
  /// entries are reused per key arity, never stranded on the free list.
  [[nodiscard]] std::size_t entry_capacity() const;
  void clear();

 private:
  /// One stored tuple → value binding. The key doubles live in the shard's
  /// `key_arena` at [key_offset, key_offset + key_len).
  struct Entry {
    std::uint64_t hash = 0;
    std::uint32_t key_offset = 0;
    std::uint32_t key_len = 0;
    PointCost value{};
    /// Insertion/refresh time in clock nanoseconds; only written in TTL mode
    /// (stays 0 otherwise, and the clock is never read).
    std::uint64_t stamp = 0;
  };

  /// Aligned so that two shards never share a cache line: each worker
  /// writes only the shard its key hashes to, counters included.
  struct alignas(64) Shard {
    std::mutex mutex;
    /// Lookup accounting. Written only under `mutex` (a plain load + store,
    /// no read-modify-write); atomic so the accessors can sum the shards
    /// without taking every lock.
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> expirations{0};
    std::atomic<std::uint64_t> admission_rejections{0};
    /// Open-addressing slot array (power-of-two size): kEmptySlot,
    /// kTombstone, or an index into `entries`.
    std::vector<std::int32_t> slots;
    std::size_t live = 0;        ///< entries currently reachable
    std::size_t tombstones = 0;  ///< deleted slots awaiting rehash
    std::vector<Entry> entries;      ///< stable-index entry store
    std::vector<std::int32_t> free;  ///< reusable `entries` indices
    std::vector<double> key_arena;   ///< inline tuple storage
    /// FIFO ring of entry indices in insertion order (bounded mode only).
    std::vector<std::int32_t> fifo;
    std::size_t fifo_head = 0;
    std::size_t fifo_size = 0;
    /// Doorkeeper (admission mode): direct-mapped table of key hashes that
    /// missed once while the shard was full. 0 = empty; hashes stored with
    /// bit 0 forced on so a real hash can never alias the empty marker.
    std::vector<std::uint64_t> door;
  };

  static constexpr std::int32_t kEmptySlot = -1;
  static constexpr std::int32_t kTombstone = -2;

  Shard& shard_for(std::uint64_t hash);

  /// Probe `shard` for `key`; returns the entry index or -1. Lock held.
  std::int32_t find_locked(Shard& shard, std::uint64_t hash,
                           std::span<const double> key) const;
  /// Insert a new entry (key known absent). Lock held. Grows/rehashes or
  /// FIFO-evicts as needed. `now` is the entry stamp (0 when TTL is off).
  PointCost insert_locked(Shard& shard, std::uint64_t hash,
                          std::span<const double> key, const PointCost& value,
                          std::uint64_t now);
  void rehash_locked(Shard& shard, std::size_t min_slots);
  void evict_oldest_locked(Shard& shard);

  /// Current clock reading (TTL mode). Never called when `ttl_ns_ == 0`.
  [[nodiscard]] std::uint64_t now_ns() const;
  [[nodiscard]] bool stale(const Entry& e, std::uint64_t now) const noexcept {
    return now - e.stamp > ttl_ns_;
  }
  /// Doorkeeper check for a full shard: true = admit (second miss), false =
  /// turn away and remember the key (first miss). Lock held.
  [[nodiscard]] bool door_admit_locked(Shard& shard, std::uint64_t hash);

  /// Sum of one per-shard counter over every shard.
  [[nodiscard]] std::uint64_t total(
      std::atomic<std::uint64_t> Shard::*counter) const noexcept;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t max_entries_per_shard_ = 0;
  std::uint64_t ttl_ns_ = 0;
  bool admission_ = false;
  std::uint64_t (*clock_)() = nullptr;
};

}  // namespace stamp::sweep
