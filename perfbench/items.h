// Workload definitions of the gqc benchmark: which pairs each workload
// decides, in which order, through which engine configuration.
//
// Inputs are a pure function of (workload, --seed, --pool-seed): the pool of
// distinct pairs comes from gqc::GenerateWorkload at the pool seed, and the
// request schedule (socket workloads) or batch order (batch workloads) is a
// splitmix64 shuffle of that pool keyed by --seed.
#ifndef GQC_PERFBENCH_ITEMS_H_
#define GQC_PERFBENCH_ITEMS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/engine_core.h"
#include "src/serve/server.h"

namespace perfbench {

/// Generator seed of every pool unless --pool-seed overrides it.
inline constexpr uint64_t kDefaultPoolSeed = 1000;
/// Per-disjunct guard step budget every pair gets (no wall-clock deadline
/// anywhere, so every outcome — kUnknown included — is a pure function of
/// the input and can be checked exactly).
inline constexpr uint64_t kStepBudget = 20000;

struct WorkloadSpec {
  std::string_view name;
  /// Distinct pairs in the pool.
  std::size_t pool_size = 0;
  /// GenerateWorkload's per-query atom budget.
  std::size_t query_atoms = 2;
  /// Closed loop over loopback sockets, after a warm-up pass over the pool
  /// that counts as set-up (else Engine::DecideBatch, cold).
  bool socket = false;
  /// Engine cache budget in entries per table (0 = unbounded).
  std::size_t cache_entries = 0;
  /// Client connections of a socket workload (0 = nproc - 1).
  std::size_t connections = 0;
};

/// Every workload, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// Null when `name` names no workload.
const WorkloadSpec* FindWorkload(std::string_view name);

/// The pool: `spec.pool_size` generated pairs, id = pool index.
std::vector<gqc::BatchItem> PoolItems(const WorkloadSpec& spec,
                                      uint64_t pool_seed);

/// One decide request line for `item` (no trailing newline): the batch-item
/// object, which the server decides because it has "p" and "q", and which
/// gqc::ParseBatchItemJson accepts as is.
std::string RequestLine(const gqc::BatchItem& item);

/// Connection `conn`'s endless request schedule: pass k is a shuffle of
/// [0, pool_size) keyed by (seed, conn, k). Deterministic across platforms.
class Schedule {
 public:
  Schedule(std::size_t pool_size, uint64_t seed, std::size_t conn);
  /// The next pool index.
  std::size_t Next();

 private:
  void Refill();

  std::size_t pool_size_;
  uint64_t seed_;
  std::size_t conn_;
  uint64_t pass_ = 0;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

/// Order of batch `batch` of a batch workload: a shuffle of [0, pool_size)
/// keyed by (seed, batch). Every batch of a run gets its own order, so the
/// run's median throughput does not hinge on where one order happens to put
/// the heaviest pairs.
std::vector<std::size_t> BatchOrder(std::size_t pool_size, uint64_t seed,
                                    std::size_t batch);

/// Worker threads the machine offers (at least 1).
std::size_t Nproc();
/// Client connections of socket workload `spec`: its own count, else
/// nproc - 1 (at least 1), so one core stays free for the measuring process
/// around it.
std::size_t Connections(const WorkloadSpec& spec);

/// Engine threads of workload `spec`'s measured engine: 1 for a socket
/// workload's server (each request decided on its session thread), nproc
/// for a batch workload.
std::size_t EngineThreads(const WorkloadSpec& spec);

/// Engine options of every workload at `threads` threads: the step budget,
/// no deadline, sequential strategy order.
gqc::EngineOptions BenchEngineOptions(std::size_t threads);
/// Server options of a socket workload (engine at EngineThreads(spec),
/// default admission, the workload's cache budget, ephemeral loopback port).
gqc::serve::ServeOptions ServeOptionsFor(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // GQC_PERFBENCH_ITEMS_H_
