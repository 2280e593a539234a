#include "sweep/cache.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace stamp::sweep {
namespace {

/// Canonical bit pattern of one key component: -0.0 collapses to 0.0 (equal
/// grid values must share a cache line), NaN/Inf are rejected (a NaN key
/// would never match itself; an Inf grid value is a config bug upstream).
std::uint64_t canonical_bits(double v) {
  if (!std::isfinite(v))
    throw std::invalid_argument(
        "CostCache: key component is NaN or infinite");
  if (v == 0.0) v = 0.0;  // maps -0.0 onto +0.0
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// splitmix64 finalizer: the standard strong 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Map a (well-mixed) hash to a probe start in a power-of-two slot array.
/// Fibonacci hashing over the high bits keeps the probe sequence decorrelated
/// from shard selection, which uses the hash modulo the shard count.
constexpr std::size_t probe_start(std::uint64_t hash,
                                  std::size_t mask) noexcept {
  return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

constexpr std::size_t kInitialSlots = 16;

/// Count one event on a shard counter. The caller holds the shard lock, so
/// a load and a store suffice.
void bump(std::atomic<std::uint64_t>& counter) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

}  // namespace

CostCache::CostCache(std::size_t shards, std::size_t max_entries_per_shard)
    : max_entries_per_shard_(max_entries_per_shard) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

CostCache::CostCache(const CacheOptions& options)
    : CostCache(options.shards, options.max_entries_per_shard) {
  if (options.ttl.count() > 0)
    ttl_ns_ = static_cast<std::uint64_t>(options.ttl.count());
  admission_ = options.admission && max_entries_per_shard_ > 0;
  clock_ = options.now_ns;
}

std::uint64_t CostCache::now_ns() const {
  if (clock_) return clock_();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool CostCache::door_admit_locked(Shard& shard, std::uint64_t hash) {
  if (shard.door.empty()) {
    // Direct-mapped, sized ~2x the shard bound: collisions merely admit a
    // key one miss early, which is a policy softening, never a correctness
    // issue — and the mapping is deterministic for the admission tests.
    std::size_t cap = kInitialSlots;
    while (cap < max_entries_per_shard_ * 2) cap *= 2;
    shard.door.assign(cap, 0);
  }
  const std::size_t idx = probe_start(hash, shard.door.size() - 1);
  const std::uint64_t tag = hash | 1ull;
  if (shard.door[idx] == tag) {
    shard.door[idx] = 0;  // admitted: the slot is free for the next newcomer
    return true;
  }
  shard.door[idx] = tag;
  return false;
}

std::uint64_t CostCache::hash_key(std::span<const double> key) {
  // Length-seeded so a tuple and its prefix never hash alike.
  std::uint64_t h = mix64(0x5354414D50ull ^ key.size());  // "STAMP"
  for (const double v : key) h = mix64(h ^ canonical_bits(v));
  return h;
}

CostCache::Shard& CostCache::shard_for(std::uint64_t hash) {
  return *shards_[static_cast<std::size_t>(hash % shards_.size())];
}

std::int32_t CostCache::find_locked(Shard& shard, std::uint64_t hash,
                                    std::span<const double> key) const {
  if (shard.slots.empty()) return -1;
  const std::size_t mask = shard.slots.size() - 1;
  std::size_t idx = probe_start(hash, mask);
  for (;;) {
    const std::int32_t s = shard.slots[idx];
    if (s == kEmptySlot) return -1;
    if (s != kTombstone) {
      const Entry& e = shard.entries[static_cast<std::size_t>(s)];
      if (e.hash == hash && e.key_len == key.size()) {
        // Verify the full tuple: a 64-bit collision degrades to one more
        // probe step, never a wrong value. `==` treats -0.0 and 0.0 as the
        // same component, matching the canonical hash.
        const double* stored = shard.key_arena.data() + e.key_offset;
        bool equal = true;
        for (std::size_t i = 0; i < key.size(); ++i) {
          if (!(stored[i] == key[i])) {
            equal = false;
            break;
          }
        }
        if (equal) return s;
      }
    }
    idx = (idx + 1) & mask;
  }
}

void CostCache::rehash_locked(Shard& shard, std::size_t min_slots) {
  std::size_t cap = kInitialSlots;
  while (cap < min_slots) cap *= 2;
  std::vector<std::int32_t> fresh(cap, kEmptySlot);
  const std::size_t mask = cap - 1;
  for (const std::int32_t s : shard.slots) {
    if (s < 0) continue;  // empty or tombstone
    const Entry& e = shard.entries[static_cast<std::size_t>(s)];
    std::size_t idx = probe_start(e.hash, mask);
    while (fresh[idx] != kEmptySlot) idx = (idx + 1) & mask;
    fresh[idx] = s;
  }
  shard.slots = std::move(fresh);
  shard.tombstones = 0;
}

void CostCache::evict_oldest_locked(Shard& shard) {
  const std::int32_t victim = shard.fifo[shard.fifo_head];
  shard.fifo_head = (shard.fifo_head + 1) % shard.fifo.size();
  --shard.fifo_size;

  const Entry& e = shard.entries[static_cast<std::size_t>(victim)];
  const std::size_t mask = shard.slots.size() - 1;
  std::size_t idx = probe_start(e.hash, mask);
  while (shard.slots[idx] != victim) idx = (idx + 1) & mask;
  shard.slots[idx] = kTombstone;
  ++shard.tombstones;
  --shard.live;
  shard.free.push_back(victim);  // the arena span is reused with the entry

  bump(shard.evictions);
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global().counter("cache.evictions").add();
}

PointCost CostCache::insert_locked(Shard& shard, std::uint64_t hash,
                                   std::span<const double> key,
                                   const PointCost& value, std::uint64_t now) {
  if (max_entries_per_shard_ > 0 && shard.live >= max_entries_per_shard_)
    evict_oldest_locked(shard);

  // Keep the probe chains short: grow (or purge tombstones) at 70% load.
  if (shard.slots.empty()) {
    shard.slots.assign(kInitialSlots, kEmptySlot);
  } else if ((shard.live + shard.tombstones + 1) * 10 >=
             shard.slots.size() * 7) {
    rehash_locked(shard, shard.live * 2 + kInitialSlots);
  }

  // Entry storage: reuse a freed entry whose arena span fits the new tuple.
  // Scan the whole free list (newest first), not just the back — with mixed
  // key arities a single mismatched entry parked at the back would otherwise
  // block reuse of everything beneath it and grow the arena without bound.
  // Sweeps are single-arity, so the scan finds a match at the back anyway.
  std::int32_t entry_index = -1;
  for (std::size_t i = shard.free.size(); i-- > 0;) {
    const std::int32_t f = shard.free[i];
    if (shard.entries[static_cast<std::size_t>(f)].key_len == key.size()) {
      entry_index = f;
      shard.free[i] = shard.free.back();  // order is irrelevant: swap-remove
      shard.free.pop_back();
      break;
    }
  }
  if (entry_index < 0) {
    entry_index = static_cast<std::int32_t>(shard.entries.size());
    Entry fresh;
    fresh.key_offset = static_cast<std::uint32_t>(shard.key_arena.size());
    fresh.key_len = static_cast<std::uint32_t>(key.size());
    shard.key_arena.resize(shard.key_arena.size() + key.size());
    shard.entries.push_back(fresh);
  }
  Entry& e = shard.entries[static_cast<std::size_t>(entry_index)];
  e.hash = hash;
  e.value = value;
  e.stamp = now;
  double* stored = shard.key_arena.data() + e.key_offset;
  for (std::size_t i = 0; i < key.size(); ++i)
    stored[i] = key[i] == 0.0 ? 0.0 : key[i];  // store canonicalized

  // Link into the slot array, preferring the first tombstone on the chain.
  const std::size_t mask = shard.slots.size() - 1;
  std::size_t idx = probe_start(hash, mask);
  std::size_t place = shard.slots.size();  // sentinel: none yet
  while (shard.slots[idx] != kEmptySlot) {
    if (shard.slots[idx] == kTombstone && place == shard.slots.size())
      place = idx;
    idx = (idx + 1) & mask;
  }
  if (place == shard.slots.size()) {
    place = idx;
  } else {
    --shard.tombstones;
  }
  shard.slots[place] = entry_index;
  ++shard.live;

  // FIFO ring bookkeeping (bounded mode): entry indices in insertion order.
  if (max_entries_per_shard_ > 0) {
    if (shard.fifo_size == shard.fifo.size()) {
      // Grow the ring, re-linearized from head. Capacity is bounded by the
      // shard's entry bound, so growth stops once the cache is warm.
      std::vector<std::int32_t> grown;
      grown.reserve(std::max<std::size_t>(8, shard.fifo.size() * 2));
      for (std::size_t i = 0; i < shard.fifo_size; ++i)
        grown.push_back(
            shard.fifo[(shard.fifo_head + i) % shard.fifo.size()]);
      grown.resize(std::max<std::size_t>(8, shard.fifo.size() * 2));
      shard.fifo = std::move(grown);
      shard.fifo_head = 0;
    }
    shard.fifo[(shard.fifo_head + shard.fifo_size) % shard.fifo.size()] =
        entry_index;
    ++shard.fifo_size;
  }
  return e.value;
}

PointCost CostCache::get_or_compute(std::span<const double> key,
                                    core::function_ref<PointCost()> compute) {
  const std::uint64_t hash = hash_key(key);  // validates the tuple
  Shard& shard = shard_for(hash);
  const bool ttl_armed = ttl_ns_ > 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::int32_t found = find_locked(shard, hash, key);
    if (found >= 0) {
      const Entry& e = shard.entries[static_cast<std::size_t>(found)];
      if (!ttl_armed || !stale(e, now_ns())) {
        bump(shard.hits);
        if (obs::metrics_enabled())
          obs::MetricsRegistry::global().counter("cache.hits").add();
        return e.value;
      }
      // Stale: fall through and recompute; the entry is refreshed in place
      // below (or by a racing thread, in which case we take its hit).
    }
  }
  PointCost value;
  {
    obs::ScopedSpan span = obs::ScopedSpan::if_enabled("cache.compute", "cache");
    value = compute();
  }
  std::lock_guard<std::mutex> lock(shard.mutex);
  // Re-probe: another thread may have raced us to the same key. The loser
  // counts as a hit (the entry exists; inserting again would double-count
  // the miss, duplicate the FIFO slot, and let eviction evict a live entry
  // while its stale twin survives — the drift this accounting forbids).
  const std::int32_t found = find_locked(shard, hash, key);
  if (found >= 0) {
    Entry& e = shard.entries[static_cast<std::size_t>(found)];
    const std::uint64_t now = ttl_armed ? now_ns() : 0;
    if (!ttl_armed || !stale(e, now)) {
      bump(shard.hits);
      if (obs::metrics_enabled())
        obs::MetricsRegistry::global().counter("cache.hits").add();
      return e.value;
    }
    // Still stale under the lock: refresh in place. Exactly one thread per
    // refresh reaches this line (a racing loser re-probes, sees the fresh
    // stamp, and counts a hit above), so `expirations` stays exact.
    e.value = value;
    e.stamp = now;
    bump(shard.expirations);
    bump(shard.misses);
    if (obs::metrics_enabled()) {
      obs::MetricsRegistry::global().counter("cache.expirations").add();
      obs::MetricsRegistry::global().counter("cache.misses").add();
    }
    return e.value;
  }
  bump(shard.misses);
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global().counter("cache.misses").add();
  if (admission_ && shard.live >= max_entries_per_shard_ &&
      !door_admit_locked(shard, hash)) {
    // Turned away: the caller still gets the computed value, the working
    // set keeps its slot, and the key is remembered for a second chance.
    bump(shard.admission_rejections);
    if (obs::metrics_enabled())
      obs::MetricsRegistry::global()
          .counter("cache.admission_rejections")
          .add();
    return value;
  }
  return insert_locked(shard, hash, key, value,
                       ttl_armed ? now_ns() : 0);
}

std::uint64_t CostCache::total(
    std::atomic<std::uint64_t> Shard::*counter) const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : shards_)
    sum += ((*s).*counter).load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t CostCache::hits() const noexcept { return total(&Shard::hits); }

std::uint64_t CostCache::misses() const noexcept {
  return total(&Shard::misses);
}

std::uint64_t CostCache::evictions() const noexcept {
  return total(&Shard::evictions);
}

std::uint64_t CostCache::expirations() const noexcept {
  return total(&Shard::expirations);
}

std::uint64_t CostCache::admission_rejections() const noexcept {
  return total(&Shard::admission_rejections);
}

std::size_t CostCache::entry_capacity() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    total += s->entries.size();
  }
  return total;
}

std::size_t CostCache::size() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    total += s->live;
  }
  return total;
}

void CostCache::clear() {
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mutex);
    s->slots.clear();
    s->live = 0;
    s->tombstones = 0;
    s->entries.clear();
    s->free.clear();
    s->key_arena.clear();
    s->fifo.clear();
    s->fifo_head = 0;
    s->fifo_size = 0;
    s->door.clear();
    s->hits.store(0, std::memory_order_relaxed);
    s->misses.store(0, std::memory_order_relaxed);
    s->evictions.store(0, std::memory_order_relaxed);
    s->expirations.store(0, std::memory_order_relaxed);
    s->admission_rejections.store(0, std::memory_order_relaxed);
  }
}

}  // namespace stamp::sweep
