// Traced replay: decides one request line by calling each layer's public
// entry point in EngineCore::DecidePair's order (sequential mode), with one
// span per call recorded in memory.
//
//   request
//     serve.parse_request   gqc::ParseBatchItemJson
//     serve.admission       serve::AdmissionGate::Enter
//     schema.context        EngineCore::GetSchemaContext
//     engine.context        EngineCore::GetQueryContext
//     engine.vocab_copy     per-pair Vocabulary copy
//     query.parse_p         gqc::ParseUcrpq
//     core.disjunct         one guard per disjunct, SequentialOrder() loop
//       strategy.<name>     Strategy::Run of each applicable strategy
//     core.combine          ContainmentChecker::Combine
//     serve.response_write  gqc::OutcomeToJson
//
// The schema.context call is the one addition to DecidePair's sequence: it
// makes a schema-context miss visible as its own span (GetQueryContext's
// internal lookup then hits). With tracing disabled the same code runs
// without reading the clock, which is the untraced side of the overhead.
#ifndef GQC_PERFBENCH_REPLAY_H_
#define GQC_PERFBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/common.h"
#include "src/core/strategy.h"
#include "src/engine/engine_core.h"
#include "src/serve/admission.h"

namespace perfbench {

struct Span {
  const char* name = "";
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint32_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder. Span ids start at 1; 0 means "no parent".
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  uint32_t Begin(const char* name, uint32_t parent, uint32_t request);
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span named `name` (duration minus the union of its
  /// children's intervals), in microseconds, in recording order.
  std::vector<double> SelfTimesUs(std::string_view name) const;

  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t Now() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint32_t parent, uint32_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// One replayed decision plus what the independent re-check needs.
struct ReplayedPair {
  gqc::BatchOutcome outcome;
  std::string response_json;
  /// Full countermodel of a kNotContained verdict (direct/sparse search).
  std::optional<gqc::Graph> countermodel;
  /// Reduction verdicts carry only the central part (not re-checkable as a
  /// model of T on its own).
  bool central_part_only = false;
  /// The pair vocabulary the countermodel's ids refer to.
  gqc::Vocabulary vocab;
};

/// Per-strategy tallies over a replay.
struct StrategyTally {
  uint64_t attempts = 0;  // Run calls (Applicable was true)
  uint64_t wins = 0;      // definite verdicts
  uint64_t steps = 0;     // guard steps charged inside Run
};

class Replayer {
 public:
  /// `core` must be a sequential (non-portfolio) core; the replay mirrors
  /// its sequential DecidePair path.
  Replayer(gqc::EngineCore* core, Tracer* tracer);

  /// Serving path: parses the request line, passes the admission gate,
  /// decides the pair and renders the response line. `request` tags the
  /// spans.
  ReplayedPair ReplayLine(std::string_view line, uint32_t request);
  /// Batch path (Engine::DecideBatch calls DecidePair directly): the pair
  /// decision alone, no serving layer.
  ReplayedPair ReplayItem(const gqc::BatchItem& item, uint32_t request);

  const std::array<StrategyTally, gqc::kStrategyCount>& strategies() const {
    return strategies_;
  }
  /// GetSchemaContext wall time on a miss (ms), one entry per miss.
  const std::vector<double>& schema_build_ms() const { return schema_build_ms_; }
  /// Query-context builds whose Tp closure failed or tripped the step
  /// budget (such a context is returned uncached and rebuilt next time).
  uint64_t closure_capped() const { return closure_capped_; }
  const std::map<std::string, uint64_t>& unknown_by_reason() const {
    return unknown_by_reason_;
  }

 private:
  /// DecidePair's sequential path; fills out->outcome/countermodel/vocab.
  void DecidePair(const gqc::BatchItem& item, uint32_t parent,
                  uint32_t request, ReplayedPair* out);
  gqc::ContainmentResult DecideDisjunct(const gqc::Crpq& p,
                                        const gqc::EngineCore::QueryContext& qctx,
                                        gqc::ContainmentChecker* checker,
                                        gqc::Vocabulary* vocab, uint32_t parent,
                                        uint32_t request);

  gqc::EngineCore* core_;
  Tracer* tracer_;
  gqc::serve::AdmissionGate gate_;
  std::array<StrategyTally, gqc::kStrategyCount> strategies_{};
  std::vector<double> schema_build_ms_;
  uint64_t closure_capped_ = 0;
  std::map<std::string, uint64_t> unknown_by_reason_;
};

/// Independent re-check of a countermodel: G ⊨ T (gqc::Satisfies on the
/// schema re-parsed from its text), G matches P and G does not match Q
/// (gqc::Matches), none of it through the search code. False on any
/// failure.
bool CountermodelHolds(const gqc::BatchItem& item, const ReplayedPair& pair);

}  // namespace perfbench

#endif  // GQC_PERFBENCH_REPLAY_H_
