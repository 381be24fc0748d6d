#ifndef GQC_CORE_LIFECYCLE_H_
#define GQC_CORE_LIFECYCLE_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/util/fingerprint.h"
#include "src/util/flat_map.h"
#include "src/util/sync.h"

namespace gqc {

/// Cache lifecycle for long-running serving (DESIGN.md §12).
///
/// A batch run fills the shared caches and exits; a persistent server must
/// keep them *useful under a memory bound*. Every memo table in gqc is one
/// RetainCache<V>: it attaches a RetainMeta to each entry, scores entries by
/// recency × recompute-cost (the vlog GBGraph cache-retain discipline: drop
/// what is cheap to rebuild and cold, keep what is expensive and hot), and
/// evicts the lowest-scoring entries when over its budget or when an explicit
/// Evict(pressure) fires. The budget bounds each table on its own.
///
/// Eviction is *lifecycle only*: a cache stores pure functions of its keys,
/// so dropping an entry can never change a verdict — the next request
/// recomputes the identical value (the eviction-soundness test pins this).

/// Per-table bounds. 0 = unbounded on that axis. Entry budgets are exact;
/// byte budgets compare against the table's resident-size *estimates*
/// (documented per owner), so they bound growth, not precise RSS.
struct CacheBudget {
  std::size_t max_entries = 0;
  std::size_t max_bytes = 0;

  bool bounded() const { return max_entries > 0 || max_bytes > 0; }
};

/// Retain bookkeeping attached to every entry of a RetainCache.
struct RetainMeta {
  uint64_t touch = 0;     ///< table's lifecycle tick at the last hit/insert
  uint64_t cost = 1;      ///< recompute cost (build wall ns, clamped >= 1)
  std::size_t bytes = 0;  ///< resident-size estimate, key text included
};

/// Retain score: recompute-cost discounted by age in ticks. Higher = more
/// worth keeping; Evict drops the lowest-scoring entries first. A just-hit
/// expensive entry maximizes the score; a cold cheap one minimizes it.
inline double RetainScore(uint64_t now_tick, const RetainMeta& m) {
  double age = static_cast<double>(now_tick - m.touch) + 1.0;
  return static_cast<double>(m.cost == 0 ? 1 : m.cost) / age;
}

/// Monotone per-table counters (zeroed by Clear).
struct RetainCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;      ///< entries dropped, at insert time or by Evict
  uint64_t evicted_bytes = 0;  ///< their summed resident-size estimates
};

/// The lifecycle face of a RetainCache, independent of its value type, so an
/// owner of several tables can loop over them.
class RetainTable {
 public:
  virtual ~RetainTable() = default;
  /// Bounds the table (0/0 = unbounded); applies now and to every insert.
  virtual void SetBudget(const CacheBudget& budget) = 0;
  /// Drops ceil(size * pressure) lowest retain-score entries (pressure >= 1
  /// empties the table) and shrinks the slot arrays; returns entries dropped.
  virtual std::size_t Evict(double pressure) = 0;
  /// Summed resident-size estimates of the retained entries.
  virtual std::size_t bytes() const = 0;
  virtual std::size_t size() const = 0;
  /// Drops every entry and zeroes the tick and the counters.
  virtual void Clear() = 0;
  virtual RetainCounters counters() const = 0;
};

/// How a GetOrBuild call was served.
enum class CacheOutcome {
  kHit,       ///< found on the probe
  kInserted,  ///< built by this call and inserted
  kUncached,  ///< built by this call but not inserted: a racing insert won
              ///< (its value is returned) or bytes_of declined to retain it
};

/// One bounded, evictable memo table: FpKey -> V under its own ranked Mutex.
///
/// Keys are FpKeys: probes compare the precomputed fingerprint first and the
/// exact key text only on a match, so no fingerprint collision can alias two
/// inputs. Values are built OUTSIDE the lock; on a racing double-miss both
/// callers build the identical value (it is a pure function of the key) and
/// the first insert wins. Budget enforcement runs right after an insert and
/// may evict any entry, the new one included, so every entry point returns a
/// copy of the value and never a reference into the table.
template <typename V>
class RetainCache final : public RetainTable {
 public:
  /// `rank`/`name` come from the lock-rank table in src/util/sync.h.
  RetainCache(uint32_t rank, const char* name) : mu_(rank, name) {}

  /// The value for `key`: a hit touches the entry and returns it; a miss
  /// times `build()` outside the lock and inserts its result charged with
  /// `key` text + `bytes_of(value)` bytes. `bytes_of` may return
  /// std::nullopt to hand the value back without retaining it (a build that
  /// tripped a resource guard reflects its caller's budget, not the key).
  template <typename Build, typename BytesOf>
  V GetOrBuild(FpKey key, Build&& build, BytesOf&& bytes_of,
               CacheOutcome* outcome = nullptr) {
    {
      MutexLock lock(&mu_);
      ++tick_;
      if (Entry* hit = map_.Find(key)) {
        hit->meta.touch = tick_;
        ++counters_.hits;
        if (outcome != nullptr) *outcome = CacheOutcome::kHit;
        return hit->value;
      }
      ++counters_.misses;
    }
    auto start = std::chrono::steady_clock::now();
    V built = build();
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    std::optional<std::size_t> bytes = bytes_of(std::as_const(built));
    if (outcome != nullptr) *outcome = CacheOutcome::kUncached;
    if (!bytes.has_value()) return built;
    std::size_t key_bytes = key.text().size();
    MutexLock lock(&mu_);
    auto [slot, inserted] = map_.TryEmplace(std::move(key));
    if (!inserted) return slot->value;
    slot->value = built;
    slot->meta = {tick_, ns <= 0 ? 1 : static_cast<uint64_t>(ns),
                  key_bytes + *bytes};
    ++counters_.inserts;
    if (outcome != nullptr) *outcome = CacheOutcome::kInserted;
    EnforceBudgetLocked();  // may evict `slot`; return the local copy
    return built;
  }

  /// A copy of the value for `key` (touching it), or nullopt.
  std::optional<V> Find(const FpKey& key) {
    MutexLock lock(&mu_);
    ++tick_;
    Entry* hit = map_.Find(key);
    if (hit == nullptr) {
      ++counters_.misses;
      return std::nullopt;
    }
    hit->meta.touch = tick_;
    ++counters_.hits;
    return hit->value;
  }

  /// Read-modify-write under the lock: `fn(V&)` runs on the held value (a
  /// default-constructed one when `key` is absent) and returns whether it
  /// changed it. A change touches the entry, re-estimates its bytes as key
  /// text + `bytes_of(value)`, adds `cost` to its recompute cost and enforces
  /// the budget; an absent key `fn` leaves unchanged is not inserted.
  /// Returns fn's answer.
  template <typename Fn, typename BytesOf>
  bool Update(const FpKey& key, Fn&& fn, BytesOf&& bytes_of, uint64_t cost) {
    MutexLock lock(&mu_);
    ++tick_;
    Entry* slot = map_.Find(key);
    if (slot == nullptr) {
      V fresh{};
      if (!fn(fresh)) return false;
      slot = map_.TryEmplace(key).first;
      slot->value = std::move(fresh);
      slot->meta.cost = 0;
      ++counters_.inserts;
    } else if (!fn(slot->value)) {
      return false;
    }
    slot->meta.touch = tick_;
    slot->meta.cost += cost;
    slot->meta.bytes = key.text().size() + bytes_of(std::as_const(slot->value));
    EnforceBudgetLocked();  // may evict `slot`
    return true;
  }

  /// Visits every (key, value) under the lock, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    MutexLock lock(&mu_);
    map_.ForEach([&](const FpKey& k, const Entry& e) { fn(k, e.value); });
  }

  void SetBudget(const CacheBudget& budget) override {
    MutexLock lock(&mu_);
    budget_ = budget;
    EnforceBudgetLocked();
  }

  std::size_t Evict(double pressure) override {
    MutexLock lock(&mu_);
    std::size_t drop = 0;
    if (pressure >= 1.0) {
      drop = map_.size();
    } else if (pressure > 0.0) {
      drop = static_cast<std::size_t>(
          static_cast<double>(map_.size()) * pressure + 0.999999);
    }
    return EvictLowestScoreLocked(drop);
  }

  std::size_t bytes() const override {
    MutexLock lock(&mu_);
    return BytesLocked();
  }

  std::size_t size() const override {
    MutexLock lock(&mu_);
    return map_.size();
  }

  void Clear() override {
    MutexLock lock(&mu_);
    map_.Clear();
    tick_ = 0;
    counters_ = {};
  }

  RetainCounters counters() const override {
    MutexLock lock(&mu_);
    return counters_;
  }

 private:
  struct Entry {
    V value{};
    RetainMeta meta;
  };

  std::size_t BytesLocked() const GQC_REQUIRES(mu_) {
    std::size_t total = 0;
    map_.ForEach([&](const FpKey&, const Entry& e) { total += e.meta.bytes; });
    return total;
  }

  /// Brings the table back under budget with slack: targets 7/8 of each
  /// bound so one insert does not immediately re-trigger eviction.
  void EnforceBudgetLocked() GQC_REQUIRES(mu_) {
    if (!budget_.bounded()) return;
    std::size_t entries = map_.size();
    std::size_t drop = 0;
    if (budget_.max_entries > 0 && entries > budget_.max_entries) {
      drop = entries - (budget_.max_entries - budget_.max_entries / 8);
    }
    if (budget_.max_bytes > 0 && entries > 0) {
      std::size_t bytes = BytesLocked();
      if (bytes > budget_.max_bytes) {
        // Approximate bytes-per-entry to convert the byte overshoot into a
        // deterministic entry count.
        std::size_t per_entry = std::max<std::size_t>(1, bytes / entries);
        std::size_t excess = bytes - (budget_.max_bytes - budget_.max_bytes / 8);
        drop = std::max(
            drop, std::min(entries, (excess + per_entry - 1) / per_entry));
      }
    }
    EvictLowestScoreLocked(drop);
  }

  /// Drops the `drop` lowest-scoring entries (ties broken by key text so
  /// eviction order is deterministic), counts them, shrinks the slot arrays,
  /// and returns the number dropped.
  std::size_t EvictLowestScoreLocked(std::size_t drop) GQC_REQUIRES(mu_) {
    drop = std::min(drop, map_.size());
    if (drop == 0) return 0;
    std::vector<std::pair<double, const FpKey*>> scored;
    scored.reserve(map_.size());
    const uint64_t now = tick_;  // lambdas do not inherit the held lock
    map_.ForEach([&](const FpKey& k, const Entry& e) {
      scored.emplace_back(RetainScore(now, e.meta), &k);
    });
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second->text() < b.second->text();
    });
    // Copy the doomed keys out first: Erase invalidates the pointers the
    // scoreboard borrows from the map's slots.
    std::vector<FpKey> doomed;
    doomed.reserve(drop);
    for (std::size_t i = 0; i < drop; ++i) doomed.push_back(*scored[i].second);
    for (const FpKey& key : doomed) {
      counters_.evicted_bytes += map_.Find(key)->meta.bytes;
      map_.Erase(key);
    }
    counters_.evictions += drop;
    map_.ShrinkToFit();
    return drop;
  }

  mutable Mutex mu_;
  CacheBudget budget_ GQC_GUARDED_BY(mu_);
  uint64_t tick_ GQC_GUARDED_BY(mu_) = 0;
  RetainCounters counters_ GQC_GUARDED_BY(mu_);
  FlatMap<FpKey, Entry, FpKeyHash> map_ GQC_GUARDED_BY(mu_);
};

}  // namespace gqc

#endif  // GQC_CORE_LIFECYCLE_H_
