#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/lifecycle.h"
#include "src/engine/engine.h"
#include "src/engine/snapshot.h"
#include "src/schema/workload.h"

namespace gqc {
namespace {

// ------------------------------------------------------------ unit: policies

TEST(LifecycleTest, RetainScorePrefersHotAndExpensive) {
  RetainMeta hot_expensive{/*touch=*/100, /*cost=*/1000, /*bytes=*/0};
  RetainMeta hot_cheap{/*touch=*/100, /*cost=*/10, /*bytes=*/0};
  RetainMeta cold_expensive{/*touch=*/1, /*cost=*/1000, /*bytes=*/0};
  uint64_t now = 100;
  EXPECT_GT(RetainScore(now, hot_expensive), RetainScore(now, hot_cheap));
  EXPECT_GT(RetainScore(now, hot_expensive), RetainScore(now, cold_expensive));
  // Zero cost is clamped, never a zero score.
  RetainMeta zero{/*touch=*/100, /*cost=*/0, /*bytes=*/0};
  EXPECT_GT(RetainScore(now, zero), 0.0);
}

/// Inserts `key` with an explicit recompute cost and a total resident size
/// of `bytes` (key text included, as RetainCache charges it).
void Put(RetainCache<int>* cache, const std::string& key, uint64_t cost,
         std::size_t bytes, int value = 0) {
  cache->Update(
      FpKey(key),
      [&](int& held) {
        held = value;
        return true;
      },
      [&](const int&) { return bytes - key.size(); }, cost);
}

/// A cache of `n` equal entries.
std::unique_ptr<RetainCache<int>> Filled(std::size_t n, std::size_t bytes = 64) {
  auto cache = std::make_unique<RetainCache<int>>(kLockRankLeaf, "test");
  for (std::size_t i = 0; i < n; ++i) {
    Put(cache.get(), "k" + std::to_string(i), 1, bytes);
  }
  return cache;
}

TEST(LifecycleTest, EvictionCountIsCeilClamped) {
  EXPECT_EQ(Filled(0)->Evict(0.5), 0u);
  EXPECT_EQ(Filled(10)->Evict(0.0), 0u);
  EXPECT_EQ(Filled(10)->Evict(-1.0), 0u);
  EXPECT_EQ(Filled(10)->Evict(1.0), 10u);
  EXPECT_EQ(Filled(10)->Evict(2.0), 10u);
  EXPECT_EQ(Filled(10)->Evict(0.5), 5u);
  EXPECT_EQ(Filled(10)->Evict(0.01), 1u);  // ceil, not floor
  EXPECT_EQ(Filled(3)->Evict(0.34), 2u);
}

TEST(LifecycleTest, OverBudgetDropCountTargetsSlack) {
  // Budget enforcement drops the overshoot at insert (or SetBudget) time;
  // the counters record exactly how many entries it dropped.
  auto unbounded = Filled(1000, std::size_t{1} << 20);
  unbounded->SetBudget(CacheBudget{});
  EXPECT_EQ(unbounded->counters().evictions, 0u);

  auto entries = Filled(64);
  entries->SetBudget(CacheBudget{/*max_entries=*/64, /*max_bytes=*/0});
  EXPECT_EQ(entries->counters().evictions, 0u);  // at budget: fine
  // One over: drop down to 7/8 of the bound (56), not just back to 64.
  Put(entries.get(), "k64", 1, 64);
  EXPECT_EQ(entries->counters().evictions, 65u - 56u);
  EXPECT_EQ(entries->size(), 56u);

  auto bytes = Filled(16, 512);
  bytes->SetBudget(CacheBudget{/*max_entries=*/0, /*max_bytes=*/8192});
  EXPECT_EQ(bytes->counters().evictions, 0u);
  // 16 entries x 1024 bytes, budget 8192: target is 7168, excess 9216,
  // per-entry 1024 -> drop 9 entries.
  auto over = Filled(16, 1024);
  over->SetBudget(CacheBudget{0, 8192});
  EXPECT_EQ(over->counters().evictions, 9u);
  EXPECT_EQ(over->counters().evicted_bytes, 9u * 1024u);
  // Byte overshoot can never drop more entries than exist.
  auto huge = Filled(4, std::size_t{1} << 26);
  huge->SetBudget(CacheBudget{0, 8192});
  EXPECT_LE(huge->counters().evictions, 4u);
}

TEST(LifecycleTest, EvictLowestScoreDropsColdCheapFirstDeterministically) {
  RetainCache<int> cache(kLockRankLeaf, "test");
  Put(&cache, "cold-cheap", 10, 100, 1);
  Put(&cache, "cold-expensive", 100000, 100, 2);
  // Age the first two: every probe advances the table's tick.
  for (int i = 0; i < 96; ++i) (void)cache.Find(FpKey("absent"));
  Put(&cache, "hot-cheap", 10, 100, 3);
  Put(&cache, "hot-expensive", 100000, 100, 4);

  EXPECT_EQ(cache.Evict(/*pressure=*/0.5), 2u);
  EXPECT_EQ(cache.counters().evicted_bytes, 200u);
  EXPECT_EQ(cache.size(), 2u);
  // The cold-cheap and hot-cheap entries score lowest; the expensive ones
  // must survive.
  EXPECT_EQ(cache.Find(FpKey("cold-expensive")), std::optional<int>(2));
  EXPECT_EQ(cache.Find(FpKey("hot-expensive")), std::optional<int>(4));
  EXPECT_EQ(cache.Find(FpKey("cold-cheap")), std::nullopt);

  // Dropping more than the size is clamped; empty cache is a no-op.
  EXPECT_EQ(cache.Evict(10.0), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Evict(1.0), 0u);
  EXPECT_EQ(cache.counters().evictions, 4u);
}

TEST(LifecycleTest, GetOrBuildBuildsOnceAndReturnsHeldValue) {
  RetainCache<int> cache(kLockRankLeaf, "test");
  cache.SetBudget(CacheBudget{/*max_entries=*/1, /*max_bytes=*/0});
  int builds = 0;
  auto build = [&] { return ++builds; };
  auto bytes = [](const int&) { return std::size_t{8}; };
  CacheOutcome outcome;
  EXPECT_EQ(cache.GetOrBuild(FpKey("a"), build, bytes, &outcome), 1);
  EXPECT_EQ(outcome, CacheOutcome::kInserted);
  EXPECT_EQ(cache.GetOrBuild(FpKey("a"), build, bytes, &outcome), 1);
  EXPECT_EQ(outcome, CacheOutcome::kHit);
  // Inserting "b" over the 1-entry budget evicts one entry; the call still
  // returns its own value.
  EXPECT_EQ(cache.GetOrBuild(FpKey("b"), build, bytes, &outcome), 2);
  EXPECT_EQ(outcome, CacheOutcome::kInserted);
  EXPECT_EQ(cache.size(), 1u);
  // bytes_of declining to retain hands the value back uncached.
  auto decline = [](const int&) -> std::optional<std::size_t> {
    return std::nullopt;
  };
  EXPECT_EQ(cache.GetOrBuild(FpKey("c"), build, decline, &outcome), 3);
  EXPECT_EQ(outcome, CacheOutcome::kUncached);
  RetainCounters c = cache.counters();
  EXPECT_EQ(c.inserts, c.evictions + cache.size());
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 3u);
  EXPECT_EQ(cache.bytes(), cache.size() * (1 + 8));
}

// --------------------------------------------------- eviction soundness (e2e)

std::vector<BatchItem> WorkloadBatch(std::size_t count, uint64_t seed) {
  WorkloadOptions wopts;
  wopts.seed = seed;
  std::vector<WorkloadInstance> instances = GenerateWorkload(wopts, count);
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    BatchItem item;
    item.id = std::to_string(i);
    item.schema_text = instances[i].schema_text;
    item.p_text = instances[i].p_text;
    item.q_text = instances[i].q_text;
    items.push_back(std::move(item));
  }
  return items;
}

void ExpectSameOutcomes(const std::vector<BatchOutcome>& base,
                        const std::vector<BatchOutcome>& out) {
  ASSERT_EQ(base.size(), out.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].id, out[i].id);
    EXPECT_EQ(base[i].ok, out[i].ok) << "item " << i;
    EXPECT_EQ(base[i].error, out[i].error) << "item " << i;
    EXPECT_EQ(base[i].verdict, out[i].verdict) << "item " << i;
    EXPECT_EQ(base[i].attr.method, out[i].attr.method) << "item " << i;
    EXPECT_EQ(base[i].attr.note, out[i].attr.note) << "item " << i;
    EXPECT_EQ(base[i].countermodel_nodes, out[i].countermodel_nodes)
        << "item " << i;
  }
}

TEST(LifecycleTest, EvictionNeverChangesVerdicts) {
  std::vector<BatchItem> items = WorkloadBatch(24, 7);

  EngineOptions opts;
  opts.threads = 1;
  Engine baseline(opts);
  std::vector<BatchOutcome> expected = baseline.DecideBatch(items);

  // A brutally tight budget (every table capped at 2 entries) forces
  // eviction churn on nearly every pair; interleaved full-pressure Evict
  // calls empty the caches mid-run. Verdicts must not move.
  Engine bounded(opts);
  bounded.core().SetCacheBudget(CacheBudget{/*max_entries=*/2, /*max_bytes=*/0});
  std::vector<BatchOutcome> first = bounded.DecideBatch(items);
  ExpectSameOutcomes(expected, first);

  bounded.core().Evict(/*pressure=*/1.0);
  std::vector<BatchOutcome> second = bounded.DecideBatch(items);
  ExpectSameOutcomes(expected, second);

  bounded.core().RefreshLifecycleGauges();
  EXPECT_GT(bounded.stats().cache_evictions.load(), 0u)
      << "tight budget should actually have evicted";
}

TEST(LifecycleTest, ByteBudgetBoundsRetainedBytes) {
  std::vector<BatchItem> items = WorkloadBatch(20, 13);
  EngineOptions opts;
  opts.threads = 1;
  Engine engine(opts);
  constexpr std::size_t kBudget = 64 * 1024;
  engine.core().SetCacheBudget(CacheBudget{0, kBudget});
  (void)engine.DecideBatch(items);
  // Each table is individually bounded by kBudget; the eviction slack (7/8)
  // keeps steady state strictly under the bound per table.
  // 6 tables share the budget separately: ctx maps count as one table here.
  EXPECT_LT(engine.core().retained_bytes(), 8 * kBudget);

  std::size_t before = engine.core().retained_bytes();
  engine.core().Evict(1.0);
  EXPECT_LT(engine.core().retained_bytes(), before);
  EXPECT_EQ(engine.core().retained_bytes(), 0u);
}

TEST(LifecycleTest, EveryInsertIsEvictedOrRetainedAndEveryEvictionExported) {
  for (bool portfolio : {false, true}) {
    // Portfolio mode races every strategy on one thread: fewer items.
    std::vector<BatchItem> items = WorkloadBatch(portfolio ? 6 : 24, 7);
    EngineOptions opts;
    opts.threads = 1;
    opts.portfolio = portfolio;
    Engine engine(opts);
    engine.core().SetCacheBudget(CacheBudget{/*max_entries=*/2, 0});
    (void)engine.DecideBatch(items);
    engine.core().RefreshLifecycleGauges();
    EXPECT_EQ(engine.stats().budget_steps.load(std::memory_order_relaxed) +
                  engine.stats().budget_memory.load(std::memory_order_relaxed) +
                  engine.stats().budget_deadline.load(std::memory_order_relaxed),
              0u)
        << "the workload must not trip guards";

    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    for (RetainTable* table : engine.core().Tables()) {
      RetainCounters c = table->counters();
      EXPECT_EQ(c.inserts, c.evictions + table->size()) << "portfolio=" << portfolio;
      EXPECT_LE(table->size(), 2u);
      evictions += c.evictions;
      evicted_bytes += c.evicted_bytes;
    }
    EXPECT_GT(evictions, 0u);
    EXPECT_EQ(engine.stats().cache_evictions.load(std::memory_order_relaxed),
              evictions);
    EXPECT_EQ(engine.stats().cache_evicted_bytes.load(std::memory_order_relaxed),
              evicted_bytes);

    // ResetState zeroes the tables' counters along with the stats.
    engine.core().ResetState();
    engine.core().RefreshLifecycleGauges();
    EXPECT_EQ(engine.stats().cache_evictions.load(std::memory_order_relaxed), 0u);
  }
}

// ----------------------------------------------------------------- snapshots

TEST(SnapshotTest, EncodeDecodeRoundTrip) {
  EngineCore::SnapshotKeys keys;
  keys.schemas = {"", "A <= exists r.B", "A <= forall s.C\nB <= A"};
  keys.queries = {{"A <= exists r.B", "A(x), r(x, y)"},
                  {"", "r(x, y); s(x, y)"}};
  std::string bytes = EncodeSnapshot(keys);
  auto decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().schemas, keys.schemas);
  EXPECT_EQ(decoded.value().queries, keys.queries);
}

TEST(SnapshotTest, CorruptionIsRejectedNeverPartiallyLoaded) {
  EngineCore::SnapshotKeys keys;
  keys.schemas = {"A <= exists r.B"};
  keys.queries = {{"A <= exists r.B", "A(x)"}};
  std::string bytes = EncodeSnapshot(keys);

  // Flip one payload byte: the trailing fingerprint no longer matches.
  std::string flipped = bytes;
  flipped[10] ^= 0x40;
  EXPECT_FALSE(DecodeSnapshot(flipped).ok());

  // Truncations anywhere are structural errors.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeSnapshot(std::string_view(bytes).substr(0, cut)).ok())
        << "cut at " << cut;
  }

  // Trailing garbage is rejected (the format is self-delimiting).
  EXPECT_FALSE(DecodeSnapshot(bytes + "x").ok());

  // Wrong magic.
  std::string magic = bytes;
  magic[0] = 'X';
  EXPECT_FALSE(DecodeSnapshot(magic).ok());
}

TEST(SnapshotTest, WarmStartRoundTripThroughDisk) {
  std::vector<BatchItem> items = WorkloadBatch(12, 29);
  EngineOptions opts;
  opts.threads = 1;

  Engine first(opts);
  std::vector<BatchOutcome> expected = first.DecideBatch(items);
  EngineCore::SnapshotKeys keys = first.core().ExportSnapshotKeys();
  EXPECT_FALSE(keys.schemas.empty());
  EXPECT_FALSE(keys.queries.empty());

  std::string path = testing::TempDir() + "/gqc_lifecycle_snapshot.bin";
  auto saved = SaveSnapshot(first.core(), path);
  ASSERT_TRUE(saved.ok()) << saved.error();

  // A fresh process: loads the snapshot, rebuilds the contexts, and the
  // first batch must (a) hit the warmed entries and (b) agree bit-for-bit.
  Engine second(opts);
  auto loaded = LoadSnapshot(&second.core(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value(), keys.schemas.size() + keys.queries.size());
  EXPECT_EQ(second.stats().warmstart_loaded.load(), loaded.value());

  std::vector<BatchOutcome> warmed = second.DecideBatch(items);
  ExpectSameOutcomes(expected, warmed);
  EXPECT_GT(second.stats().warmstart_hits.load(), 0u)
      << "warm-started contexts should serve the repeat batch";

  // Corrupt the file on disk: the load is rejected, the core untouched.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "GQCSNAP1 this is not a valid snapshot body";
  }
  Engine third(opts);
  auto rejected = LoadSnapshot(&third.core(), path);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(third.stats().warmstart_rejected.load(), 1u);
  EXPECT_EQ(third.core().ExportSnapshotKeys().schemas.size(), 0u);
  std::vector<BatchOutcome> cold = third.DecideBatch(items);
  ExpectSameOutcomes(expected, cold);

  std::remove(path.c_str());
}

// -------------------------------------------------------------- compile memo

TEST(LifecycleTest, CompileMemoIsHitAndVerdictNeutral) {
  std::vector<BatchItem> items = WorkloadBatch(16, 41);
  // Duplicate the batch so the second half replays identical solves.
  std::vector<BatchItem> doubled = items;
  doubled.insert(doubled.end(), items.begin(), items.end());

  EngineOptions opts;
  opts.threads = 1;
  Engine memoized(opts);
  std::vector<BatchOutcome> out = memoized.DecideBatch(doubled);
  memoized.core().RefreshLifecycleGauges();
  // Any solve that compiled an artifact in the first half must be served by
  // the memo in the duplicated half (no compilations => trivially nothing
  // to hit, e.g. when every pair short-circuits before a witness search).
  if (memoized.stats().compile_memo_misses.load() > 0) {
    EXPECT_GT(memoized.stats().compile_memo_hits.load(), 0u);
  }

  // The memo must at least serve the duplicated half, and a memoized run
  // must agree with a fresh engine deciding the plain batch.
  Engine fresh(opts);
  std::vector<BatchOutcome> expected = fresh.DecideBatch(items);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(out[i].verdict, expected[i].verdict) << "item " << i;
    EXPECT_EQ(out[i].verdict, out[items.size() + i].verdict)
        << "repeat of item " << i;
  }

  // Evicting the memo mid-stream must not change anything either.
  Engine churned(opts);
  churned.core().SetCacheBudget(CacheBudget{2, 0});
  std::vector<BatchOutcome> churn_out = churned.DecideBatch(doubled);
  for (std::size_t i = 0; i < doubled.size(); ++i) {
    EXPECT_EQ(churn_out[i].verdict, out[i].verdict) << "item " << i;
  }
}

}  // namespace
}  // namespace gqc
