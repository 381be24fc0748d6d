#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/schema/workload.h"
#include "src/serve/server.h"
#include "src/util/json.h"

namespace gqc {
namespace serve {
namespace {

/// Looks up one field of a flat JSON response ("" if absent).
std::string Field(const std::string& json, const std::string& key) {
  auto fields = ParseFlatJsonObject(json);
  if (!fields.ok()) return "";
  for (const JsonField& f : fields.value()) {
    if (f.key == key) return f.value;
  }
  return "";
}

constexpr const char* kDecideLine =
    R"json({"id":"t1","schema":"A <= exists r.B","p":"A(x), r(x, y), B(y)","q":"A(x), r(x, y)"})json";

// ------------------------------------------------------------ admission gate

TEST(AdmissionGateTest, ShedsWhenQueueFullAndFailsFastWhenDraining) {
  AdmissionOptions opts;
  opts.max_in_flight = 1;
  opts.max_queue = 0;  // no waiting: a busy gate sheds immediately
  AdmissionGate gate(opts);

  ASSERT_EQ(gate.Enter(), Admission::kAdmitted);
  EXPECT_EQ(gate.in_flight(), 1u);
  // Slot taken and no queue allowed: shed, do not block.
  EXPECT_EQ(gate.Enter(), Admission::kShed);
  gate.Leave();
  EXPECT_EQ(gate.in_flight(), 0u);
  ASSERT_EQ(gate.Enter(), Admission::kAdmitted);
  gate.Leave();

  gate.BeginDrain();
  EXPECT_TRUE(gate.draining());
  EXPECT_EQ(gate.Enter(), Admission::kDraining);
}

TEST(AdmissionGateTest, NeverExceedsMaxInFlightUnderContention) {
  AdmissionOptions opts;
  opts.max_in_flight = 3;
  opts.max_queue = 64;
  AdmissionGate gate(opts);

  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (gate.Enter() != Admission::kAdmitted) continue;
        int now = concurrent.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        admitted.fetch_add(1);
        concurrent.fetch_sub(1);
        gate.Leave();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(peak.load(), 3);
  EXPECT_GT(admitted.load(), 0);
  EXPECT_EQ(gate.in_flight(), 0u);
  EXPECT_EQ(gate.queued(), 0u);
}

TEST(AdmissionGateTest, BeginDrainWakesQueuedWaiters) {
  AdmissionOptions opts;
  opts.max_in_flight = 1;
  opts.max_queue = 4;
  AdmissionGate gate(opts);
  ASSERT_EQ(gate.Enter(), Admission::kAdmitted);  // occupy the only slot

  std::atomic<int> drained{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&] {
      if (gate.Enter() == Admission::kDraining) drained.fetch_add(1);
    });
  }
  // lint: bounded(waits for 3 threads to park; each tick is 1ms)
  while (gate.queued() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.BeginDrain();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(drained.load(), 3);
  gate.Leave();
}

// ----------------------------------------------------------- session registry

TEST(SessionRegistryTest, OpenCloseAndSnapshot) {
  SessionRegistry reg;
  auto a = reg.Open("peer-a");
  auto b = reg.Open("peer-b");
  EXPECT_NE(a->id, b->id);
  EXPECT_EQ(reg.active(), 2u);
  EXPECT_EQ(reg.opened_total(), 2u);
  EXPECT_EQ(reg.Snapshot().size(), 2u);
  reg.Close(a->id);
  EXPECT_EQ(reg.active(), 1u);
  EXPECT_EQ(reg.opened_total(), 2u);  // monotone
  reg.Close(b->id);
  EXPECT_EQ(reg.active(), 0u);
}

// ------------------------------------------------------------ request handling

class ServerTest : public ::testing::Test {
 protected:
  ServeOptions MakeOptions() {
    ServeOptions options;
    options.engine.threads = 1;
    return options;
  }
};

TEST_F(ServerTest, DecideIsWellFormedAndDeterministic) {
  Server server(MakeOptions());
  auto session = server.OpenSession("inproc");
  std::string first = server.HandleRequestLine(kDecideLine, session.get());
  EXPECT_EQ(Field(first, "ok"), "true");
  EXPECT_EQ(Field(first, "id"), "t1");
  std::string verdict = Field(first, "verdict");
  EXPECT_TRUE(verdict == "contained" || verdict == "not-contained" ||
              verdict == "unknown")
      << first;
  // Same line, same session: the response must be identical except wall_ms.
  std::string second = server.HandleRequestLine(kDecideLine, session.get());
  EXPECT_EQ(Field(second, "verdict"), verdict);
  EXPECT_EQ(session->decided.load(), 2u);
  server.CloseSession(session->id);
}

TEST_F(ServerTest, OpDefaultsFromShape) {
  Server server(MakeOptions());
  auto session = server.OpenSession("inproc");
  // No "op": a line with p/q decides, a bare line pings.
  std::string decided = server.HandleRequestLine(kDecideLine, session.get());
  EXPECT_NE(Field(decided, "verdict"), "");
  std::string pong = server.HandleRequestLine("{}", session.get());
  EXPECT_EQ(Field(pong, "pong"), "true");
  server.CloseSession(session->id);
}

TEST_F(ServerTest, MalformedInputYieldsErrorsNotCrashes) {
  Server server(MakeOptions());
  auto session = server.OpenSession("inproc");
  for (const char* bad : {
           "not json at all",
           R"json({"op":"no-such-op"})json",
           R"json({"op":"decide","p":"A(x)"})json",            // missing q
           R"json({"op":"decide","p":"A(x)","q":"A(x)","bogus":"1"})json",
       }) {
    std::string resp = server.HandleRequestLine(bad, session.get());
    EXPECT_EQ(Field(resp, "ok"), "false") << bad << " -> " << resp;
  }
  EXPECT_EQ(session->errors.load(), 4u);
  // The session still works afterwards.
  std::string ok = server.HandleRequestLine(kDecideLine, session.get());
  EXPECT_EQ(Field(ok, "ok"), "true");
  server.CloseSession(session->id);
}

TEST_F(ServerTest, PerRequestDeadlinePreemptsToUnknown) {
  Server server(MakeOptions());
  auto session = server.OpenSession("inproc");
  // An over-tight per-request deadline must preempt (kUnknown), never error
  // and never produce a definite verdict from a truncated run.
  std::string line =
      R"json({"id":"d1","schema":"A <= exists r.B","p":"A(x), r(x, y), B(y)","q":"A(x), r(x, y)","deadline_ms":"0.00001"})json";
  std::string resp = server.HandleRequestLine(line, session.get());
  EXPECT_EQ(Field(resp, "ok"), "true");
  EXPECT_EQ(Field(resp, "verdict"), "unknown") << resp;
  EXPECT_EQ(Field(resp, "unknown_reason"), "deadline") << resp;
  server.CloseSession(session->id);
}

TEST_F(ServerTest, ShedAndDrainingAnswerAsSoundUnknown) {
  ServeOptions options = MakeOptions();
  options.admission.max_in_flight = 1;
  options.admission.max_queue = 0;
  Server server(options);
  auto session = server.OpenSession("inproc");

  // Occupy the only slot out-of-band: the next decide must shed.
  ASSERT_EQ(server.admission().Enter(), Admission::kAdmitted);
  std::string shed = server.HandleRequestLine(kDecideLine, session.get());
  EXPECT_EQ(Field(shed, "ok"), "true");
  EXPECT_EQ(Field(shed, "verdict"), "unknown");
  EXPECT_EQ(Field(shed, "unknown_reason"), "shed") << shed;
  EXPECT_EQ(Field(shed, "unknown_phase"), "admission");
  server.admission().Leave();

  server.admission().BeginDrain();
  std::string draining = server.HandleRequestLine(kDecideLine, session.get());
  EXPECT_EQ(Field(draining, "verdict"), "unknown");
  EXPECT_EQ(Field(draining, "unknown_reason"), "draining") << draining;

  EXPECT_EQ(session->shed.load(), 2u);
  EXPECT_EQ(session->decided.load(), 0u);
  EXPECT_EQ(server.core().stats().requests_shed.load(), 2u);
  server.CloseSession(session->id);
}

TEST_F(ServerTest, StatsExportsServeAndEngineSections) {
  Server server(MakeOptions());
  auto session = server.OpenSession("inproc");
  (void)server.HandleRequestLine(kDecideLine, session.get());
  std::string stats =
      server.HandleRequestLine(R"json({"op":"stats"})json", session.get());
  // Nested document: spot-check the two sections and a counter from each.
  EXPECT_NE(stats.find("\"serve\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"engine\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"decided\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"sessions_active\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"lifecycle\""), std::string::npos) << stats;
  server.CloseSession(session->id);
}

TEST_F(ServerTest, EvictVerbDropsRetainedState) {
  Server server(MakeOptions());
  auto session = server.OpenSession("inproc");
  (void)server.HandleRequestLine(kDecideLine, session.get());
  EXPECT_GT(server.core().retained_bytes(), 0u);
  std::string resp = server.HandleRequestLine(
      R"json({"op":"evict","pressure":"1.0"})json", session.get());
  EXPECT_EQ(Field(resp, "ok"), "true");
  EXPECT_EQ(Field(resp, "retained_bytes"), "0");
  // Eviction is lifecycle-only: the same request decides identically after.
  std::string after = server.HandleRequestLine(kDecideLine, session.get());
  EXPECT_EQ(Field(after, "ok"), "true");
  server.CloseSession(session->id);
}

TEST_F(ServerTest, BoundedServerReplaysBatchVerdictsAcrossEvict) {
  WorkloadOptions wopts;
  wopts.seed = 7;
  std::vector<BatchItem> items;
  for (const WorkloadInstance& w : GenerateWorkload(wopts, 8)) {
    items.push_back({std::to_string(items.size()), w.schema_text, w.p_text,
                     w.q_text});
  }
  EngineOptions eopts;
  eopts.threads = 1;
  Engine batch(eopts);
  std::vector<BatchOutcome> expected = batch.DecideBatch(items);

  // Every table capped at 2 entries, and a full-pressure evict between the
  // passes: the served answers must still match the batch CLI's path.
  ServeOptions options = MakeOptions();
  options.cache_budget = CacheBudget{/*max_entries=*/2, /*max_bytes=*/0};
  Server server(options);
  auto session = server.OpenSession("inproc");
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      JsonWriter w;
      w.BeginObject();
      w.Key("id").String(items[i].id);
      w.Key("schema").String(items[i].schema_text);
      w.Key("p").String(items[i].p_text);
      w.Key("q").String(items[i].q_text);
      w.EndObject();
      std::string resp = server.HandleRequestLine(w.Take(), session.get());
      std::string want = OutcomeToJson(expected[i]);
      for (const char* key : {"ok", "verdict", "method", "note",
                              "countermodel_nodes"}) {
        EXPECT_EQ(Field(resp, key), Field(want, key))
            << "pass " << pass << " item " << i << " field " << key;
      }
    }
    if (pass == 0) {
      std::string ev = server.HandleRequestLine(
          R"json({"op":"evict","pressure":"1"})json", session.get());
      EXPECT_EQ(Field(ev, "ok"), "true");
    }
  }
  server.core().RefreshLifecycleGauges();
  EXPECT_GT(server.core().stats().cache_evictions.load(std::memory_order_relaxed),
            0u);
  server.CloseSession(session->id);
}

TEST_F(ServerTest, SnapshotVerbPersistsAndWarmStartsANewServer) {
  std::string path = testing::TempDir() + "/gqc_serve_test_snapshot.bin";
  std::remove(path.c_str());

  ServeOptions options = MakeOptions();
  options.snapshot_path = path;
  {
    Server server(options);
    EXPECT_EQ(server.warmstart_loaded(), 0u);  // no file yet: cold, not error
    auto session = server.OpenSession("inproc");
    (void)server.HandleRequestLine(kDecideLine, session.get());
    std::string resp =
        server.HandleRequestLine(R"json({"op":"snapshot"})json", session.get());
    EXPECT_EQ(Field(resp, "saved"), "true") << resp;
    server.CloseSession(session->id);
  }
  {
    Server warmed(options);
    EXPECT_GT(warmed.warmstart_loaded(), 0u);
    auto session = warmed.OpenSession("inproc");
    std::string resp = warmed.HandleRequestLine(kDecideLine, session.get());
    EXPECT_EQ(Field(resp, "ok"), "true");
    EXPECT_GT(warmed.core().stats().warmstart_hits.load(), 0u);
    warmed.CloseSession(session->id);
  }
  // A snapshot verb with no configured path is a client error.
  Server pathless(MakeOptions());
  auto session = pathless.OpenSession("inproc");
  std::string resp =
      pathless.HandleRequestLine(R"json({"op":"snapshot"})json", session.get());
  EXPECT_EQ(Field(resp, "ok"), "false");
  pathless.CloseSession(session->id);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace gqc
