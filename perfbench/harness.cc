// gqc benchmark harness (driven by perfbench/run.py; see perfbench/README.md).
//
//   gqc_perfbench schedule  --workload W --seed S [--pool-seed P] [--count N]
//       prints the first N request lines of every connection's schedule (or
//       the batch order), for the byte-identical-schedule self-test
//   gqc_perfbench reference --workload W [--pool-seed P]
//       prints "<pool index> <verdict> <method> <wall ms>" per pool pair,
//       decided by a 1-thread sequential Engine::DecideBatch
//   gqc_perfbench measure   --workload W --seed S --seconds T [--pool-seed P]
//       untraced run; reads the reference lines on stdin; prints a context
//       line and the end-to-end result line
//   gqc_perfbench trace     --workload W --seed S [--pool-seed P] [--spans F]
//       traced per-layer replay (computes its own reference); prints a
//       context line and the per-layer result line; spans go to F

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/items.h"
#include "perfbench/replay.h"
#include "perfbench/socket_client.h"
#include "src/engine/engine.h"
#include "src/serve/server.h"
#include "src/util/json.h"

#ifndef GQC_PERFBENCH_BUILD_TYPE
#define GQC_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef GQC_PERFBENCH_COMPILER
#define GQC_PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

/// Socket workloads: set-up (server start + warm-up pass) is repeated this
/// many times per run and its median reported.
constexpr int kSocketSetupReps = 5;
/// Pings timed on a live connection in the traced run.
constexpr int kPings = 200;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  uint64_t pool_seed = kDefaultPoolSeed;
  double seconds = 10;
  std::size_t count = 8;
  /// Overrides the workload's pool size (0 = keep); the self-test's smoke
  /// size.
  std::size_t pool_size = 0;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--pool-seed") {
      args->pool_seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--count") {
      args->count = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--pool-size") {
      args->pool_size = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty();
}

/// The reference answer for one pool pair.
struct RefVerdict {
  std::string verdict;
  std::string method;
};

std::vector<RefVerdict> ReferenceFromOutcomes(
    const std::vector<gqc::BatchOutcome>& outcomes) {
  std::vector<RefVerdict> ref;
  for (const gqc::BatchOutcome& o : outcomes) {
    if (!o.ok) {
      ref.push_back({"error", "error"});
    } else {
      ref.push_back({gqc::VerdictName(o.verdict),
                     gqc::ContainmentMethodName(o.attr.method)});
    }
  }
  return ref;
}

/// 1-thread sequential Engine::DecideBatch over the pool.
std::vector<gqc::BatchOutcome> ReferenceOutcomes(
    const std::vector<gqc::BatchItem>& items) {
  gqc::Engine engine(BenchEngineOptions(1));
  return engine.DecideBatch(items);
}

bool ReadReference(std::size_t pool_size, std::vector<RefVerdict>* ref) {
  ref->assign(pool_size, RefVerdict{});
  std::vector<bool> seen(pool_size, false);
  std::string line;
  std::size_t count = 0;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    char verdict[32] = {0};
    char method[32] = {0};
    std::size_t index = 0;
    if (std::sscanf(line.c_str(), "%zu %31s %31s", &index, verdict, method) != 3 ||
        index >= pool_size || seen[index]) {
      return false;
    }
    seen[index] = true;
    (*ref)[index] = {verdict, method};
    ++count;
  }
  return count == pool_size;
}

/// Verdict check of one response line against the reference: true when it
/// is a protocol error, a shed/drained request or a verdict that differs.
bool ResponseFails(const std::string& response, const RefVerdict& ref) {
  auto fields = gqc::ParseFlatJsonObject(response);
  if (!fields.ok()) return true;
  std::string ok;
  std::string verdict;
  std::string reason;
  for (const gqc::JsonField& f : fields.value()) {
    if (f.key == "ok") ok = f.value;
    if (f.key == "verdict") verdict = f.value;
    if (f.key == "unknown_reason") reason = f.value;
  }
  return ok != "true" || reason == "shed" || reason == "draining" ||
         verdict != ref.verdict;
}

/// A Server listening on an ephemeral loopback port, run on its own thread;
/// the destructor drains it and joins the thread.
class InProcessServer {
 public:
  explicit InProcessServer(gqc::serve::ServeOptions options)
      : server_(std::move(options)) {}
  ~InProcessServer() {
    if (thread_.joinable()) {
      server_.RequestDrain();
      thread_.join();
    }
  }
  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;

  bool Start() {
    if (!server_.Listen().ok()) return false;
    thread_ = std::thread([this] { server_.Run(); });
    return true;
  }
  uint16_t port() const { return server_.port(); }

 private:
  gqc::serve::Server server_;
  std::thread thread_;
};

/// Tallies shared by every phase of a run.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> shed{0};
};

/// One pass over the pool split across the connections: connection c sends
/// the pool indices congruent to c, in order, all connections at once.
void WarmupPass(std::vector<std::unique_ptr<LineClient>>& clients,
                const std::vector<std::string>& lines,
                const std::vector<RefVerdict>& ref, Tally* tally) {
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      std::string response;
      for (std::size_t i = c; i < lines.size(); i += clients.size()) {
        tally->attempted.fetch_add(1, std::memory_order_relaxed);
        if (!clients[c]->Exchange(lines[i], &response)) {
          tally->failed.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (response.find("\"unknown_reason\":\"shed\"") != std::string::npos) {
          tally->shed.fetch_add(1, std::memory_order_relaxed);
        }
        if (ResponseFails(response, ref[i])) {
          tally->failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Connects `n` clients to `server`; empty on failure.
std::vector<std::unique_ptr<LineClient>> ConnectClients(const InProcessServer& server,
                                                        std::size_t n) {
  std::vector<std::unique_ptr<LineClient>> clients;
  for (std::size_t c = 0; c < n; ++c) {
    auto client = std::make_unique<LineClient>();
    if (!client->Connect(server.port())) return {};
    clients.push_back(std::move(client));
  }
  return clients;
}

std::string ContextJson(const Args& args, const WorkloadSpec& spec,
                        const std::vector<std::pair<std::string, std::string>>& extra) {
  gqc::JsonWriter w;
  w.BeginObject();
  w.Key("context").BeginObject();
  w.Key("workload").String(spec.name);
  w.Key("mode").String(args.mode);
  w.Key("seed").UInt(args.seed);
  w.Key("pool_seed").UInt(args.pool_seed);
  w.Key("pool_size").UInt(spec.pool_size);
  w.Key("nproc").UInt(Nproc());
  w.Key("connections").UInt(spec.socket ? Connections(spec) : 0);
  w.Key("engine_threads").UInt(args.mode == "trace" ? 1 : EngineThreads(spec));
  w.Key("step_budget").UInt(kStepBudget);
  w.Key("cache_entries").UInt(spec.cache_entries);
  w.Key("build_type").String(GQC_PERFBENCH_BUILD_TYPE);
  w.Key("optimized").Bool(kOptimizedBuild);
  w.Key("compiler").String(GQC_PERFBENCH_COMPILER);
  for (const auto& [k, v] : extra) w.Key(k).String(v);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

void Emit(const std::string& context, bool correct, uint64_t attempted,
          uint64_t failed, const std::vector<Metric>& metrics) {
  std::printf("%s\n%s\n", context.c_str(),
              ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- schedule

int RunSchedule(const Args& args, const WorkloadSpec& spec) {
  std::vector<gqc::BatchItem> items = PoolItems(spec, args.pool_seed);
  if (spec.socket) {
    for (std::size_t c = 0; c < Connections(spec); ++c) {
      Schedule schedule(items.size(), args.seed, c);
      for (std::size_t k = 0; k < args.count; ++k) {
        std::printf("%zu %s\n", c, RequestLine(items[schedule.Next()]).c_str());
      }
    }
  } else {
    for (std::size_t b = 0; b < 2; ++b) {
      for (std::size_t i : BatchOrder(items.size(), args.seed, b)) {
        std::printf("%zu %s\n", b, RequestLine(items[i]).c_str());
      }
    }
  }
  return 0;
}

// --------------------------------------------------------------- reference

int RunReference(const Args& args, const WorkloadSpec& spec) {
  std::vector<gqc::BatchItem> items = PoolItems(spec, args.pool_seed);
  std::vector<gqc::BatchOutcome> outcomes = ReferenceOutcomes(items);
  std::vector<RefVerdict> ref = ReferenceFromOutcomes(outcomes);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    std::printf("%zu %s %s %.3f\n", i, ref[i].verdict.c_str(), ref[i].method.c_str(),
                outcomes[i].wall_ms);
  }
  return 0;
}

// ----------------------------------------------------------------- measure

struct Sample {
  std::size_t pair = 0;
  double latency_ms = 0;
  Clock::time_point done;
};

/// Latency metrics of a run from every answered request's latency, grouped
/// by pool pair (`by_pair[i]` holds pair i's latencies). Each percentile is
/// taken over the pairs' median latencies, every pair counting once. The
/// pool is requested uniformly, so this estimates the request percentile.
/// Over raw samples, a rank near the border between two pairs of very
/// different cost lands on either pair depending on a few samples; over
/// per-pair medians a percentile moves only as far as those medians do.
std::vector<Metric> LatencyMetrics(const std::vector<std::vector<double>>& by_pair,
                                   const std::vector<RefVerdict>& ref,
                                   std::vector<std::pair<std::string, std::string>>* context) {
  std::vector<double> definite;
  std::vector<double> unknown;
  std::size_t definite_samples = 0;
  std::size_t unknown_samples = 0;
  std::size_t min_samples = SIZE_MAX;
  for (std::size_t i = 0; i < by_pair.size(); ++i) {
    min_samples = std::min(min_samples, by_pair[i].size());
    if (by_pair[i].empty()) continue;
    bool is_unknown = ref[i].verdict == "unknown";
    (is_unknown ? unknown : definite).push_back(Median(by_pair[i]));
    (is_unknown ? unknown_samples : definite_samples) += by_pair[i].size();
  }
  context->push_back({"definite_samples", std::to_string(definite_samples)});
  context->push_back({"unknown_samples", std::to_string(unknown_samples)});
  context->push_back({"definite_pairs", std::to_string(definite.size())});
  context->push_back({"unknown_pairs", std::to_string(unknown.size())});
  context->push_back({"min_samples_per_pair", std::to_string(min_samples)});
  double total = static_cast<double>(definite_samples + unknown_samples);
  return {
      {"definite_p50_ms", Quantile(definite, 0.50), "ms"},
      {"definite_p99_ms", Quantile(definite, 0.99), "ms"},
      {"unknown_p50_ms", Quantile(unknown, 0.50), "ms"},
      {"unknown_p90_ms", Quantile(unknown, 0.90), "ms"},
      {"definite_share",
       total > 0 ? static_cast<double>(definite_samples) / total : 0, "ratio"},
  };
}

int MeasureSocket(const Args& args, const WorkloadSpec& spec,
                  const std::vector<RefVerdict>& ref) {
  std::vector<gqc::BatchItem> items = PoolItems(spec, args.pool_seed);
  std::vector<std::string> lines;
  for (const gqc::BatchItem& item : items) lines.push_back(RequestLine(item));
  const std::size_t conns = Connections(spec);
  Tally tally;

  // Set-up: server start, connections, warm-up pass. The first set-up
  // serves the measurement; the others run after it (so the peak RSS read
  // below covers one server's lifetime) and only add to the median.
  std::vector<double> setup_s;
  std::unique_ptr<InProcessServer> server;
  std::vector<std::unique_ptr<LineClient>> clients;
  auto set_up = [&] {
    clients.clear();
    server.reset();
    Clock::time_point t0 = Clock::now();
    server = std::make_unique<InProcessServer>(ServeOptionsFor(spec));
    if (!server->Start()) {
      std::fprintf(stderr, "perfbench: server failed to listen\n");
      return false;
    }
    clients = ConnectClients(*server, conns);
    if (clients.empty()) {
      std::fprintf(stderr, "perfbench: client connect failed\n");
      return false;
    }
    WarmupPass(clients, lines, ref, &tally);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    return true;
  };
  if (!set_up()) return 1;

  // Closed loop: every connection replays its own seeded schedule.
  std::vector<std::vector<Sample>> samples(conns);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Schedule schedule(lines.size(), args.seed, c);
      std::string response;
      while (Clock::now() < deadline) {
        std::size_t index = schedule.Next();
        Clock::time_point t0 = Clock::now();
        bool ok = clients[c]->Exchange(lines[index], &response);
        Clock::time_point t1 = Clock::now();
        tally.attempted.fetch_add(1, std::memory_order_relaxed);
        if (!ok) {
          tally.failed.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (ResponseFails(response, ref[index])) {
          tally.failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        samples[c].push_back({index, MsBetween(t0, t1), t1});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double rss_peak_mb = PeakRssMb();
  for (int rep = 1; rep < kSocketSetupReps; ++rep) {
    if (!set_up()) return 1;
  }
  clients.clear();
  server.reset();

  // Throughput over the window in which every connection was still active.
  Clock::time_point window_end = Clock::time_point::max();
  for (const auto& conn : samples) {
    window_end = std::min(window_end, conn.empty() ? start : conn.back().done);
  }
  std::size_t in_window = 0;
  std::vector<std::vector<double>> by_pair(lines.size());
  for (const auto& conn : samples) {
    for (const Sample& s : conn) {
      if (s.done <= window_end) ++in_window;
      by_pair[s.pair].push_back(s.latency_ms);
    }
  }
  double window_s = SecondsBetween(start, window_end);
  std::vector<Metric> metrics = {
      {"throughput_per_s", window_s > 0 ? static_cast<double>(in_window) / window_s : 0,
       "1/s"}};
  std::vector<std::pair<std::string, std::string>> extra;
  for (Metric& m : LatencyMetrics(by_pair, ref, &extra)) metrics.push_back(std::move(m));
  metrics.push_back({"setup_s", Median(setup_s), "s"});
  metrics.push_back({"rss_peak_mb", rss_peak_mb, "MiB"});

  uint64_t attempted = tally.attempted.load(std::memory_order_relaxed);
  uint64_t failed = tally.failed.load(std::memory_order_relaxed);
  extra.push_back({"window_s", FullDouble(window_s)});
  extra.push_back({"shed", std::to_string(tally.shed.load(std::memory_order_relaxed))});
  extra.push_back({"failed_share",
                   FullDouble(attempted > 0 ? static_cast<double>(failed) /
                                                  static_cast<double>(attempted)
                                            : 0)});
  std::string context = ContextJson(args, spec, extra);
  Emit(context, failed == 0, attempted, failed, metrics);
  return 0;
}

int MeasureBatch(const Args& args, const WorkloadSpec& spec,
                 const std::vector<RefVerdict>& ref) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::vector<double> setup_s;
  std::vector<double> throughput;
  std::vector<std::vector<double>> by_pair(ref.size());
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::size_t batches = 0;
  double rss_peak_mb = 0;
  do {
    // Set-up: generate the items and start a fresh engine (its pool).
    Clock::time_point t0 = Clock::now();
    std::vector<gqc::BatchItem> pool = PoolItems(spec, args.pool_seed);
    std::vector<std::size_t> order = BatchOrder(pool.size(), args.seed, batches++);
    std::vector<gqc::BatchItem> batch;
    batch.reserve(pool.size());
    for (std::size_t i : order) batch.push_back(pool[i]);
    gqc::Engine engine(BenchEngineOptions(Nproc()));
    Clock::time_point t1 = Clock::now();
    std::vector<gqc::BatchOutcome> outcomes = engine.DecideBatch(batch);
    Clock::time_point t2 = Clock::now();
    // Peak memory of one cold batch: later batches start fresh engines
    // whose threads reuse the allocator arenas freed before them, which
    // would make the run's peak depend on arena reuse, not on the batch.
    if (batches == 1) rss_peak_mb = PeakRssMb();
    setup_s.push_back(SecondsBetween(t0, t1));
    throughput.push_back(static_cast<double>(batch.size()) / SecondsBetween(t1, t2));
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      const gqc::BatchOutcome& o = outcomes[k];
      const RefVerdict& r = ref[order[k]];
      ++attempted;
      if (!o.ok || r.verdict != gqc::VerdictName(o.verdict)) {
        ++failed;
        continue;
      }
      by_pair[order[k]].push_back(o.wall_ms);
    }
  } while (Clock::now() < deadline);

  std::vector<Metric> metrics = {{"throughput_per_s", Median(throughput), "1/s"}};
  std::vector<std::pair<std::string, std::string>> extra;
  for (Metric& m : LatencyMetrics(by_pair, ref, &extra)) metrics.push_back(std::move(m));
  metrics.push_back({"setup_s", Median(setup_s), "s"});
  metrics.push_back({"rss_peak_mb", rss_peak_mb, "MiB"});
  extra.push_back({"batches", std::to_string(throughput.size())});
  extra.push_back({"failed_share", FullDouble(static_cast<double>(failed) /
                                              static_cast<double>(attempted))});
  std::string context = ContextJson(args, spec, extra);
  Emit(context, failed == 0, attempted, failed, metrics);
  return 0;
}

int RunMeasure(const Args& args, const WorkloadSpec& spec) {
  std::vector<RefVerdict> ref;
  if (!ReadReference(spec.pool_size, &ref)) {
    std::fprintf(stderr, "perfbench: bad or incomplete reference on stdin\n");
    return 1;
  }
  for (const RefVerdict& r : ref) {
    if (r.verdict == "error") {
      std::fprintf(stderr, "perfbench: a pool pair fails to parse\n");
      return 1;
    }
  }
  return spec.socket ? MeasureSocket(args, spec, ref) : MeasureBatch(args, spec, ref);
}

// ------------------------------------------------------------------- trace

/// Counters read before and after the traced replay.
struct CounterSnapshot {
  uint64_t ctx_hits = 0;
  uint64_t ctx_misses = 0;
  uint64_t evictions = 0;
  uint64_t regex_hits = 0;
  uint64_t regex_misses = 0;
  uint64_t entailment_ns = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
};

CounterSnapshot Snapshot(gqc::EngineCore* core) {
  core->RefreshLifecycleGauges();
  const gqc::PipelineStats& s = core->stats();
  auto v = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  return {v(s.query_ctx_hits), v(s.query_ctx_misses), v(s.cache_evictions),
          v(s.regex_hits),     v(s.regex_misses),     v(s.entailment_ns),
          v(s.compile_memo_hits), v(s.compile_memo_misses)};
}

/// Cost of one Begin/End pair on an enabled tracer, in ns: the intrinsic
/// tracing overhead, measured apart from the replay's noise.
double SpanCostNs() {
  constexpr int kSpans = 200000;
  Tracer tracer(true, Clock::now());
  Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&tracer, "cost", 0, 0);
  }
  return MsBetween(t0, Clock::now()) * 1e6 / kSpans;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

std::unique_ptr<gqc::EngineCore> ReplayCore(const WorkloadSpec& spec) {
  auto core = std::make_unique<gqc::EngineCore>(BenchEngineOptions(1));
  if (spec.cache_entries > 0) {
    gqc::CacheBudget budget;
    budget.max_entries = spec.cache_entries;
    core->SetCacheBudget(budget);
  }
  return core;
}

int RunTrace(const Args& args, const WorkloadSpec& spec) {
  std::vector<gqc::BatchItem> items = PoolItems(spec, args.pool_seed);
  std::vector<std::string> lines;
  for (const gqc::BatchItem& item : items) lines.push_back(RequestLine(item));
  std::vector<gqc::BatchOutcome> ref_outcomes = ReferenceOutcomes(items);
  std::vector<RefVerdict> ref = ReferenceFromOutcomes(ref_outcomes);

  // The replayed sequence: a warm-up pass over the pool (socket workloads),
  // then connection 0's schedule (three pool passes on hot_repeat, one on
  // schema_churn) or the batch order.
  std::vector<std::size_t> warm;
  std::vector<std::size_t> replay;
  if (spec.socket) {
    for (std::size_t i = 0; i < items.size(); ++i) warm.push_back(i);
    Schedule schedule(items.size(), args.seed, 0);
    std::size_t passes = spec.cache_entries > 0 ? 1 : 3;
    for (std::size_t k = 0; k < passes * items.size(); ++k) {
      replay.push_back(schedule.Next());
    }
  } else {
    replay = BatchOrder(items.size(), args.seed, 0);
  }

  auto replay_one = [&](Replayer& r, std::size_t i, uint32_t request) {
    return spec.socket ? r.ReplayLine(lines[i], request) : r.ReplayItem(items[i], request);
  };

  // Two replayers on two fresh cores, each after its own warm-up (untimed,
  // never traced): one records spans, one does not. They take turns on each
  // request (alternating which goes first), so the machine's speed drift hits
  // both sides alike and the per-request differences sum to the overhead.
  struct Pass {
    std::unique_ptr<gqc::EngineCore> core;
    std::unique_ptr<Tracer> tracer;
    std::unique_ptr<Replayer> replayer;
    std::vector<ReplayedPair> pairs;
    CounterSnapshot before;
    CounterSnapshot after;
    double ms = 0;
  };
  auto prepare = [&](bool traced) {
    Pass pass;
    pass.core = ReplayCore(spec);
    {
      Tracer off(false, Clock::now());
      Replayer r(pass.core.get(), &off);
      for (std::size_t i : warm) (void)replay_one(r, i, 0);
    }
    pass.before = Snapshot(pass.core.get());
    pass.tracer = std::make_unique<Tracer>(traced, Clock::now());
    pass.replayer = std::make_unique<Replayer>(pass.core.get(), pass.tracer.get());
    return pass;
  };
  std::vector<Pass> passes;
  passes.push_back(prepare(false));
  passes.push_back(prepare(true));
  for (std::size_t k = 0; k < replay.size(); ++k) {
    for (std::size_t turn = 0; turn < 2; ++turn) {
      Pass& pass = passes[(k + turn) % 2];
      Clock::time_point t0 = Clock::now();
      pass.pairs.push_back(
          replay_one(*pass.replayer, replay[k], static_cast<uint32_t>(k + 1)));
      pass.ms += MsBetween(t0, Clock::now());
    }
  }
  for (Pass& pass : passes) pass.after = Snapshot(pass.core.get());
  const double untraced_ms = passes[0].ms;
  const double traced_ms = passes[1].ms;
  const Pass& main_pass = passes[1];
  const Tracer& tracer = *main_pass.tracer;
  const Replayer& traced_replayer = *main_pass.replayer;
  const CounterSnapshot& before = main_pass.before;
  const CounterSnapshot& after = main_pass.after;
  const std::vector<ReplayedPair>& traced = main_pass.pairs;
  double retained_kb = static_cast<double>(main_pass.core->retained_bytes()) / 1024.0;

  // Fidelity of every pass and the independent countermodel re-check.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t verified = 0;
  uint64_t central_parts = 0;
  for (std::size_t k = 0; k < replay.size(); ++k) {
    const gqc::BatchOutcome& want = ref_outcomes[replay[k]];
    for (const Pass& pass : passes) {
      const ReplayedPair& got = pass.pairs[k];
      ++attempted;
      if (!got.outcome.ok || !want.ok || got.outcome.verdict != want.verdict ||
          got.outcome.attr.method != want.attr.method) {
        ++mismatches;
        ++failed;
        std::fprintf(stderr,
                     "perfbench: replay of pair %zu: %s/%s (%s), DecidePair: "
                     "%s/%s\n",
                     replay[k], gqc::VerdictName(got.outcome.verdict),
                     gqc::ContainmentMethodName(got.outcome.attr.method),
                     got.outcome.ok ? got.outcome.attr.note.c_str()
                                    : got.outcome.error.c_str(),
                     gqc::VerdictName(want.verdict),
                     gqc::ContainmentMethodName(want.attr.method));
      }
    }
    if (traced[k].outcome.ok && traced[k].outcome.verdict == gqc::Verdict::kNotContained) {
      if (traced[k].central_part_only) {
        ++central_parts;
      } else if (CountermodelHolds(items[replay[k]], traced[k])) {
        ++verified;
      } else {
        ++failed;
        std::fprintf(stderr, "perfbench: countermodel of pair %zu fails the re-check\n",
                     replay[k]);
      }
    }
  }

  // Engine pool share (batch workloads): one nproc-thread DecideBatch.
  double pool_busy_share = 0;
  if (!spec.socket) {
    std::vector<gqc::BatchItem> batch;
    for (std::size_t i : replay) batch.push_back(items[i]);
    gqc::Engine engine(BenchEngineOptions(Nproc()));
    Clock::time_point b0 = Clock::now();
    std::vector<gqc::BatchOutcome> outcomes = engine.DecideBatch(batch);
    double wall_ms = MsBetween(b0, Clock::now());
    double busy_ms = 0;
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
      busy_ms += outcomes[k].wall_ms;
      ++attempted;
      if (!outcomes[k].ok || outcomes[k].verdict != ref_outcomes[replay[k]].verdict) {
        ++failed;
      }
    }
    pool_busy_share = busy_ms / (wall_ms * static_cast<double>(engine.threads()));
  }

  // Serving layer over real sockets: a warm-up pass (sheds counted) and
  // pings on a live connection.
  double ping_rtt_us = 0;
  uint64_t shed = 0;
  if (spec.socket) {
    InProcessServer server(ServeOptionsFor(spec));
    if (!server.Start()) {
      std::fprintf(stderr, "perfbench: server failed to listen\n");
      return 1;
    }
    auto clients = ConnectClients(server, Connections(spec));
    if (clients.empty()) {
      std::fprintf(stderr, "perfbench: client connect failed\n");
      return 1;
    }
    Tally tally;
    WarmupPass(clients, lines, ref, &tally);
    attempted += tally.attempted.load(std::memory_order_relaxed);
    failed += tally.failed.load(std::memory_order_relaxed);
    shed = tally.shed.load(std::memory_order_relaxed);
    std::vector<double> rtts;
    std::string response;
    for (int i = 0; i < kPings; ++i) {
      Clock::time_point p0 = Clock::now();
      bool ok = clients[0]->Exchange("{\"op\":\"ping\"}", &response);
      double us = MsBetween(p0, Clock::now()) * 1e3;
      ++attempted;
      if (!ok || response.find("\"pong\":true") == std::string::npos) {
        ++failed;
        break;
      }
      rtts.push_back(us);
    }
    ping_rtt_us = Median(rtts);
  }

  auto median_us = [&](const char* name) { return Median(tracer.SelfTimesUs(name)); };
  auto sum_ms = [&](const char* name) {
    double total = 0;
    for (double us : tracer.SelfTimesUs(name)) total += us;
    return total / 1e3;
  };
  std::vector<Metric> m;
  m.push_back({"serve.ping_rtt_us", ping_rtt_us, "us"});
  m.push_back({"serve.request_parse_us", spec.socket ? median_us("serve.parse_request") : 0, "us"});
  m.push_back({"serve.response_write_us", spec.socket ? median_us("serve.response_write") : 0, "us"});
  m.push_back({"serve.admission_wait_us", spec.socket ? median_us("serve.admission") : 0, "us"});
  m.push_back({"serve.shed", static_cast<double>(shed), "count"});
  m.push_back({"engine.context_us", median_us("engine.context"), "us"});
  m.push_back({"engine.context_hit_rate",
               Ratio(after.ctx_hits - before.ctx_hits,
                     after.ctx_hits - before.ctx_hits + after.ctx_misses - before.ctx_misses),
               "ratio"});
  m.push_back({"engine.context_builds", static_cast<double>(after.ctx_misses - before.ctx_misses),
               "count"});
  m.push_back({"engine.evictions", static_cast<double>(after.evictions - before.evictions),
               "count"});
  m.push_back({"engine.retained_kb", retained_kb, "KiB"});
  m.push_back({"engine.vocab_copy_us", median_us("engine.vocab_copy"), "us"});
  m.push_back({"engine.pool_busy_share", pool_busy_share, "ratio"});
  m.push_back({"query.parse_p_us", median_us("query.parse_p"), "us"});
  m.push_back({"automata.regex_hit_rate",
               Ratio(after.regex_hits - before.regex_hits,
                     after.regex_hits - before.regex_hits + after.regex_misses -
                         before.regex_misses),
               "ratio"});
  m.push_back({"schema.build_ms", Median(traced_replayer.schema_build_ms()), "ms"});
  m.push_back({"entailment.closure_build_ms",
               static_cast<double>(after.entailment_ns - before.entailment_ns) / 1e6, "ms"});
  m.push_back({"entailment.closure_capped",
               static_cast<double>(traced_replayer.closure_capped()), "count"});
  m.push_back({"entailment.compile_memo_hit_rate",
               Ratio(after.memo_hits - before.memo_hits,
                     after.memo_hits - before.memo_hits + after.memo_misses -
                         before.memo_misses),
               "ratio"});
  for (const gqc::Strategy* s : gqc::AllStrategies()) {
    const StrategyTally& t = traced_replayer.strategies()[static_cast<std::size_t>(s->id())];
    std::string prefix = std::string("strategy.") + s->name();
    m.push_back({prefix + ".self_ms", sum_ms((prefix).c_str()), "ms"});
    m.push_back({prefix + ".attempts", static_cast<double>(t.attempts), "count"});
    m.push_back({prefix + ".wins", static_cast<double>(t.wins), "count"});
    m.push_back({prefix + ".win_rate", Ratio(t.wins, t.attempts), "ratio"});
    m.push_back({prefix + ".steps", static_cast<double>(t.steps), "count"});
  }
  m.push_back({"core.combine_us", median_us("core.combine"), "us"});
  for (const char* reason : {"steps", "caps", "memory", "deadline", "cancelled"}) {
    auto it = traced_replayer.unknown_by_reason().find(reason);
    double n = it == traced_replayer.unknown_by_reason().end()
                   ? 0
                   : static_cast<double>(it->second);
    m.push_back({std::string("unknown.by_reason.") + reason, n, "count"});
  }
  m.push_back({"trace.untraced_ms", untraced_ms, "ms"});
  m.push_back({"trace.traced_ms", traced_ms, "ms"});
  m.push_back({"trace.overhead_ms", traced_ms - untraced_ms, "ms"});
  m.push_back({"trace.spans", static_cast<double>(tracer.spans().size()), "count"});
  m.push_back({"trace.span_cost_ns", SpanCostNs(), "ns"});
  m.push_back({"check.replay_mismatches", static_cast<double>(mismatches), "count"});
  m.push_back({"check.countermodels_verified", static_cast<double>(verified), "count"});
  m.push_back({"check.central_parts_unchecked", static_cast<double>(central_parts), "count"});

  if (!args.spans_path.empty() && !tracer.WriteJsonl(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans_path.c_str());
    return 1;
  }
  std::string context = ContextJson(args, spec,
                                    {{"replayed", std::to_string(replay.size())},
                                     {"warmup", std::to_string(warm.size())}});
  Emit(context, failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to run an unoptimized build (NDEBUG and "
                 "__OPTIMIZE__ required; configure with "
                 "-DCMAKE_BUILD_TYPE=Release)\n");
    return 2;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gqc_perfbench schedule|reference|measure|trace "
                 "--workload W [--seed S] [--pool-seed P] [--seconds T] "
                 "[--count N] [--spans FILE]\n");
    return 2;
  }
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  WorkloadSpec spec = *found;
  if (args.pool_size > 0) spec.pool_size = args.pool_size;
  if (args.mode == "schedule") return RunSchedule(args, spec);
  if (args.mode == "reference") return RunReference(args, spec);
  if (args.mode == "measure") return RunMeasure(args, spec);
  if (args.mode == "trace") return RunTrace(args, spec);
  std::fprintf(stderr, "perfbench: unknown mode %s\n", args.mode.c_str());
  return 2;
}
