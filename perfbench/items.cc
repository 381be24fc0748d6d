#include "perfbench/items.h"

#include <thread>
#include <utility>

#include "perfbench/common.h"
#include "src/schema/workload.h"
#include "src/util/json.h"

namespace perfbench {

// Pool sizes: each pool replays a fixed set of pairs, so latency samples
// come in per-pair groups, and the heaviest pairs are far apart in cost. A
// percentile whose rank falls on the border of two such groups flips between
// them from run to run. At the default pool seed, 38 pairs (9 unknown, 29
// definite) and 135 pairs (27 unknown, 108 definite) put the ranks of
// unknown p50/p90 and definite p99 inside a group. (40 pairs would put
// hot_repeat's unknown p90 on a border, 125 pairs cold_batch's definite
// p99.) Those margins are thin (cold_batch's definite p99 sits about two
// samples from a 96 ms / 151 ms border), so LatencyMetrics takes its
// percentiles over per-pair medians, which no sample count can flip.
// BENCHMARK.json gives each workload's reason.
//
// Threads: a server engine at nproc threads decides a pair's disjuncts in
// parallel, so with several connections more threads run than there are
// cores, and a request's latency is the slowest of its parallel parts. On a
// shared host that spread hot_repeat's throughput and latencies by up to
// 30% between runs of the same code. So the socket workloads run their
// server engine on one thread (EngineThreads), and hot_repeat, whose warm
// unknown pairs are long searches, runs on a single connection: one busy
// core, a sequential closed loop.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {.name = "hot_repeat",
       .pool_size = 38,
       .query_atoms = 2,
       .socket = true,
       .cache_entries = 0,
       .connections = 1},
      {.name = "cold_batch",
       .pool_size = 135,
       .query_atoms = 2,
       .socket = false,
       .cache_entries = 0},
      {.name = "schema_churn",
       .pool_size = 200,
       .query_atoms = 1,
       .socket = true,
       .cache_entries = 32},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<gqc::BatchItem> PoolItems(const WorkloadSpec& spec,
                                      uint64_t pool_seed) {
  gqc::WorkloadOptions options;
  options.seed = pool_seed;
  options.query_atoms = spec.query_atoms;
  std::vector<gqc::BatchItem> items;
  std::size_t i = 0;
  for (gqc::WorkloadInstance& inst :
       gqc::GenerateWorkload(options, spec.pool_size)) {
    gqc::BatchItem item;
    item.id = std::to_string(i++);
    item.schema_text = std::move(inst.schema_text);
    item.p_text = std::move(inst.p_text);
    item.q_text = std::move(inst.q_text);
    items.push_back(std::move(item));
  }
  return items;
}

std::string RequestLine(const gqc::BatchItem& item) {
  gqc::JsonWriter w;
  w.BeginObject();
  w.Key("id").String(item.id);
  w.Key("schema").String(item.schema_text);
  w.Key("p").String(item.p_text);
  w.Key("q").String(item.q_text);
  w.EndObject();
  return w.Take();
}

namespace {

void Shuffle(std::vector<std::size_t>* v, SplitMix64* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::size_t j = static_cast<std::size_t>(rng->Below(i));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

std::vector<std::size_t> Iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

}  // namespace

Schedule::Schedule(std::size_t pool_size, uint64_t seed, std::size_t conn)
    : pool_size_(pool_size), seed_(seed), conn_(conn) {}

std::size_t Schedule::Next() {
  if (pos_ == order_.size()) Refill();
  return order_[pos_++];
}

void Schedule::Refill() {
  SplitMix64 rng(seed_ * 0x100000001B3ULL + conn_ * 0x9E3779B1ULL + pass_++);
  order_ = Iota(pool_size_);
  Shuffle(&order_, &rng);
  pos_ = 0;
}

std::vector<std::size_t> BatchOrder(std::size_t pool_size, uint64_t seed,
                                    std::size_t batch) {
  SplitMix64 rng(seed * 0x100000001B3ULL + batch);
  std::vector<std::size_t> order = Iota(pool_size);
  Shuffle(&order, &rng);
  return order;
}

std::size_t Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::size_t Connections(const WorkloadSpec& spec) {
  if (spec.connections > 0) return spec.connections;
  return Nproc() > 1 ? Nproc() - 1 : 1;
}

std::size_t EngineThreads(const WorkloadSpec& spec) {
  return spec.socket ? 1 : Nproc();
}

gqc::EngineOptions BenchEngineOptions(std::size_t threads) {
  gqc::EngineOptions options;
  options.threads = threads;
  options.containment.resources.max_steps = kStepBudget;
  return options;
}

gqc::serve::ServeOptions ServeOptionsFor(const WorkloadSpec& spec) {
  gqc::serve::ServeOptions options;
  options.engine = BenchEngineOptions(EngineThreads(spec));
  if (spec.cache_entries > 0) {
    options.cache_budget.max_entries = spec.cache_entries;
  }
  options.port = 0;
  return options;
}

}  // namespace perfbench
