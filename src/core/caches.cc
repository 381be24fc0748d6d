#include "src/core/caches.h"

#include "src/core/validate.h"
#include "src/dl/normalize.h"
#include "src/util/fingerprint.h"
#include "src/util/invariant.h"

namespace gqc {

namespace {

std::size_t NormalizedBytes(const NormalTBox& built) {
  // ~96 bytes per normalized CI (literal vectors + payload).
  return 96 * built.size() + 64;
}

std::size_t ClosureBytes(const ContainmentCaches::ClosureEntry& entry) {
  std::size_t bytes = entry.error.size() + 64;
  if (entry.closure != nullptr) {
    // Engine masks dominate; the factorization is charged at a flat rate.
    bytes += 8 * entry.closure->engine_masks.size() + 1024;
  }
  return bytes;
}

}  // namespace

std::shared_ptr<const NormalTBox> ContainmentCaches::GetNormalized(
    const TBox& tbox, Vocabulary* vocab, PipelineStats* stats) {
  CacheOutcome outcome;
  auto normalized = normalized_.GetOrBuild(
      FpKey(tbox.ToString(*vocab)),
      [&] {
        if (stats) {
          stats->normal_tbox_misses.fetch_add(1, std::memory_order_relaxed);
        }
        PhaseTimer timer(stats ? &stats->normalize_ns : nullptr);
        return std::make_shared<const NormalTBox>(Normalize(tbox, vocab));
      },
      [](const auto& built) { return NormalizedBytes(*built); }, &outcome);
  if (stats && outcome == CacheOutcome::kHit) {
    stats->normal_tbox_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return normalized;
}

ContainmentCaches::ClosureEntry ContainmentCaches::GetClosure(
    const Ucrpq& q, const NormalTBox& tbox, bool alcq_case, Vocabulary* vocab,
    const ReductionOptions& options) {
  PipelineStats* stats = options.stats;
  const std::string tbox_part = tbox.ToString(*vocab);
  const std::string q_part = q.ToString(*vocab);
  const std::string_view engine_part = alcq_case ? "alcq" : "alci";
  FpKey key(JoinKeyParts(tbox_part, q_part, engine_part));
  // Closure verdicts are a pure function of (T, Q, engine); a key that does
  // not round-trip to exactly those parts could alias distinct inputs.
  GQC_AUDIT(ValidateCacheKey(key.text(), {tbox_part, q_part, engine_part}));
  CacheOutcome outcome;
  ClosureEntry entry = closures_.GetOrBuild(
      std::move(key),
      [&] {
        if (stats) stats->closure_misses.fetch_add(1, std::memory_order_relaxed);
        ClosureEntry built;
        auto closure = ComputeTpClosure(q, tbox, alcq_case, vocab, options);
        if (closure.ok()) {
          built.closure =
              std::make_shared<const TpClosure>(std::move(closure).value());
        } else {
          built.error = closure.error();
        }
        return built;
      },
      [&](const ClosureEntry& built) -> std::optional<std::size_t> {
        // A closure whose build tripped a resource guard reflects the
        // caller's budget (or wall clock), not (T, Q) — caching it would
        // degrade later, better-funded calls. Return it uncached.
        const ResourceGuard* guard = options.countermodel.limits.guard;
        if (guard != nullptr && guard->exhausted()) return std::nullopt;
        return ClosureBytes(built);
      },
      &outcome);
  if (stats && outcome == CacheOutcome::kHit) {
    stats->closure_hits.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

}  // namespace gqc
