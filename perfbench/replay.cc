#include "perfbench/replay.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/dl/concept_parser.h"
#include "src/dl/model_check.h"
#include "src/query/eval.h"
#include "src/query/parser.h"
#include "src/schema/schema_parser.h"
#include "src/util/json.h"

namespace perfbench {

namespace {

const char* StrategySpanName(gqc::StrategyId id) {
  switch (id) {
    case gqc::StrategyId::kScreen:
      return "strategy.screen";
    case gqc::StrategyId::kDirect:
      return "strategy.direct";
    case gqc::StrategyId::kWitness:
      return "strategy.witness";
    case gqc::StrategyId::kReduction:
      return "strategy.reduction";
  }
  return "strategy.unknown";
}

uint64_t Load(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

}  // namespace

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint32_t request) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request;
  span.start_ns = Now();
  spans_.push_back(span);
  return span.id;
}

void Tracer::End(uint32_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_ns = Now();
}

std::vector<double> Tracer::SelfTimesUs(std::string_view name) const {
  std::vector<std::vector<uint32_t>> children(spans_.size() + 1);
  for (const Span& s : spans_) children[s.parent].push_back(s.id);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (uint32_t c : children[s.id]) {
      const Span& child = spans_[c - 1];
      iv.emplace_back(std::max(child.start_ns, s.start_ns),
                      std::min(child.end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_start = 0;
    int64_t cur_end = -1;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    gqc::JsonWriter w;
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("id").UInt(s.id);
    w.Key("parent").UInt(s.parent);
    w.Key("request").UInt(s.request);
    w.Key("start_ns").Int(s.start_ns);
    w.Key("end_ns").Int(s.end_ns);
    w.EndObject();
    std::string line = w.Take();
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), f);
  }
  return std::fclose(f) == 0;
}

Replayer::Replayer(gqc::EngineCore* core, Tracer* tracer)
    : core_(core), tracer_(tracer), gate_(gqc::serve::AdmissionOptions{}) {}

ReplayedPair Replayer::ReplayLine(std::string_view line, uint32_t request) {
  ReplayedPair out;
  ScopedSpan root(tracer_, "request", 0, request);
  const uint32_t rid = root.id();

  gqc::Result<gqc::BatchItem> parsed = [&] {
    ScopedSpan span(tracer_, "serve.parse_request", rid, request);
    return gqc::ParseBatchItemJson(line);
  }();
  if (!parsed.ok()) {
    out.outcome.error = parsed.error();
    return out;
  }
  gqc::serve::Admission admitted = [&] {
    ScopedSpan span(tracer_, "serve.admission", rid, request);
    return gate_.Enter();
  }();
  if (admitted != gqc::serve::Admission::kAdmitted) {
    out.outcome.id = parsed.value().id;
    out.outcome.error = "shed by the replay's admission gate";
    return out;
  }
  DecidePair(parsed.value(), rid, request, &out);
  {
    ScopedSpan span(tracer_, "serve.response_write", rid, request);
    out.response_json = gqc::OutcomeToJson(out.outcome);
  }
  gate_.Leave();
  return out;
}

ReplayedPair Replayer::ReplayItem(const gqc::BatchItem& item, uint32_t request) {
  ReplayedPair out;
  ScopedSpan root(tracer_, "request", 0, request);
  DecidePair(item, root.id(), request, &out);
  return out;
}

void Replayer::DecidePair(const gqc::BatchItem& item, uint32_t parent,
                          uint32_t request, ReplayedPair* out) {
  const Clock::time_point start = Clock::now();
  out->outcome.id = item.id;
  // The benchmark sets no deadline, so the budget is the step budget alone.
  const gqc::ResourceBudget& budget = core_->options().containment.resources;
  gqc::PipelineStats& stats = core_->stats();

  {
    ScopedSpan span(tracer_, "schema.context", parent, request);
    uint64_t misses = Load(stats.schema_ctx_misses);
    Clock::time_point t0 = Clock::now();
    (void)core_->GetSchemaContext(item.schema_text);
    if (Load(stats.schema_ctx_misses) != misses) {
      schema_build_ms_.push_back(MsBetween(t0, Clock::now()));
    }
  }

  std::shared_ptr<const gqc::EngineCore::QueryContext> qctx;
  {
    ScopedSpan span(tracer_, "engine.context", parent, request);
    uint64_t misses = Load(stats.query_ctx_misses);
    gqc::ResourceGuard setup_guard(budget, false, {});
    qctx = core_->GetQueryContext(item.schema_text, item.q_text, &setup_guard);
    if (Load(stats.query_ctx_misses) != misses && qctx->reduction_applicable &&
        (qctx->closure == nullptr || setup_guard.exhausted())) {
      ++closure_capped_;
    }
  }
  if (!qctx->error.empty()) {
    out->outcome.error = qctx->error;
    return;
  }

  std::optional<gqc::Vocabulary> vocab;
  {
    ScopedSpan span(tracer_, "engine.vocab_copy", parent, request);
    vocab.emplace(qctx->vocab);
  }
  gqc::Result<gqc::Ucrpq> p = [&] {
    ScopedSpan span(tracer_, "query.parse_p", parent, request);
    return gqc::ParseUcrpq(item.p_text, &*vocab, &core_->regex_cache(), &stats);
  }();
  if (!p.ok()) {
    out->outcome.error = "p: " + p.error();
    return;
  }

  gqc::ContainmentResult combined;
  {
    gqc::ContainmentOptions copts = core_->options().containment;
    copts.stats = &stats;
    gqc::ContainmentChecker checker(&*vocab, copts);
    std::vector<gqc::ContainmentResult> per_disjunct;
    for (const gqc::Crpq& d : p.value().Disjuncts()) {
      per_disjunct.push_back(
          DecideDisjunct(d, *qctx, &checker, &*vocab, parent, request));
      if (per_disjunct.back().verdict == gqc::Verdict::kNotContained) break;
    }
    ScopedSpan span(tracer_, "core.combine", parent, request);
    combined = gqc::ContainmentChecker::Combine(std::move(per_disjunct));
  }

  gqc::BatchOutcome& outcome = out->outcome;
  outcome.ok = true;
  outcome.verdict = combined.verdict;
  outcome.attr = std::move(combined.attr);
  if (combined.countermodel.has_value()) {
    outcome.countermodel_nodes = combined.countermodel->NodeCount();
    out->countermodel = std::move(combined.countermodel);
  } else if (combined.central_part.has_value()) {
    outcome.countermodel_nodes = combined.central_part->NodeCount();
    out->central_part_only = true;
  }
  if (outcome.attr.unknown.has_value()) {
    ++unknown_by_reason_[outcome.attr.unknown->reason];
  }
  outcome.wall_ms = MsBetween(start, Clock::now());
  out->vocab = std::move(*vocab);
}

gqc::ContainmentResult Replayer::DecideDisjunct(
    const gqc::Crpq& p, const gqc::EngineCore::QueryContext& qctx,
    gqc::ContainmentChecker* checker, gqc::Vocabulary* vocab, uint32_t parent,
    uint32_t request) {
  ScopedSpan span(tracer_, "core.disjunct", parent, request);
  gqc::ResourceGuard guard(core_->options().containment.resources, false, {});
  gqc::ContainmentResult result;
  if (guard.Recheck(gqc::GuardPhase::kSetup)) {
    result.verdict = gqc::Verdict::kUnknown;
    result.attr.unknown = gqc::UnknownFromGuard(&guard);
    result.attr.note = guard.Describe();
    return result;
  }

  gqc::StrategyContext ctx;
  ctx.p = &p;
  ctx.q = &qctx.q;
  ctx.schema = &qctx.schema->tbox;
  ctx.closure = qctx.closure.get();
  ctx.vocab = vocab;
  ctx.caches = checker->caches();
  ctx.options = &checker->options();
  ctx.stats = checker->options().stats;
  ctx.vocab_shared = ctx.closure != nullptr;

  const std::vector<const gqc::Strategy*>& order =
      checker->options().strategies.empty() ? gqc::SequentialOrder()
                                            : checker->options().strategies;
  std::string pending_note;
  for (const gqc::Strategy* strategy : order) {
    if (!strategy->Applicable(ctx)) continue;
    StrategyTally& tally = strategies_[static_cast<std::size_t>(strategy->id())];
    ++tally.attempts;
    uint64_t steps_before = guard.steps_spent();
    gqc::ContainmentResult r = [&] {
      ScopedSpan run(tracer_, StrategySpanName(strategy->id()), span.id(),
                     request);
      return strategy->Run(ctx, &guard);
    }();
    tally.steps += guard.steps_spent() - steps_before;
    if (r.verdict != gqc::Verdict::kUnknown) {
      r.attr.strategy = strategy->name();
      ++tally.wins;
      return r;
    }
    if (!r.attr.note.empty()) pending_note = std::move(r.attr.note);
  }

  result.verdict = gqc::Verdict::kUnknown;
  result.attr.method = gqc::ContainmentMethod::kDirectSearch;
  result.attr.unknown = gqc::UnknownFromGuard(&guard);
  if (guard.exhausted()) {
    result.attr.note = guard.Describe();
  } else if (!pending_note.empty()) {
    result.attr.note = std::move(pending_note);
  } else {
    result.attr.note = "no countermodel within budget; containment not certified";
  }
  return result;
}

bool CountermodelHolds(const gqc::BatchItem& item, const ReplayedPair& pair) {
  if (!pair.countermodel.has_value()) return false;
  gqc::Vocabulary vocab = pair.vocab;
  gqc::Result<gqc::TBox> tbox =
      item.schema_text.find("<=") != std::string::npos
          ? gqc::ParseTBox(item.schema_text, &vocab)
          : gqc::ParseSchema(item.schema_text, &vocab);
  gqc::Result<gqc::Ucrpq> p = gqc::ParseUcrpq(item.p_text, &vocab);
  gqc::Result<gqc::Ucrpq> q = gqc::ParseUcrpq(item.q_text, &vocab);
  if (!tbox.ok() || !p.ok() || !q.ok()) return false;
  const gqc::Graph& g = *pair.countermodel;
  return gqc::Satisfies(g, tbox.value()) && gqc::Matches(g, p.value()) &&
         !gqc::Matches(g, q.value());
}

}  // namespace perfbench
