#ifndef GQC_AUTOMATA_COMPILE_CACHE_H_
#define GQC_AUTOMATA_COMPILE_CACHE_H_

#include <memory>
#include <string>

#include "src/automata/semiautomaton.h"
#include "src/core/lifecycle.h"
#include "src/core/stats.h"
#include "src/util/fingerprint.h"
#include "src/util/sync.h"

namespace gqc {

/// Memoizes regex -> semiautomaton compilation (Thompson construction plus
/// epsilon elimination). Queries in a workload reuse a small set of path
/// expressions, and every parse recompiles them from scratch; the cache
/// compiles each distinct regex once as a standalone CompiledRegex and
/// splices cached copies into per-query automata via DisjointUnion, which
/// preserves state order and per-state transition order — the resulting
/// automaton is structurally identical to a fresh compilation.
///
/// Keys are structural serializations at the symbol-code level. Symbol codes
/// are vocabulary-relative, so a cache must only be shared across
/// vocabularies that agree on the ids they share (the batch engine's
/// vocabulary layering guarantees this); colliding ids would in any case map
/// to code-identical regexes, which compile to the same code-level automaton.
///
/// Thread-safe; all mutable state is one RetainCache (compilation of a
/// missed entry runs outside its lock).
class RegexCompileCache {
 public:
  /// Compiles `regex` into `target` (disjoint union), like CompileRegexInto,
  /// reusing a cached standalone compilation when one exists. Records
  /// regex_hits / regex_misses on `stats` when non-null.
  CompiledRef CompileInto(const RegexPtr& regex, Semiautomaton* target,
                          PipelineStats* stats = nullptr);

  /// The backing table, for the owner's lifecycle loop.
  RetainTable* table() { return &cache_; }

  void Clear() { cache_.Clear(); }
  std::size_t size() const { return cache_.size(); }

 private:
  /// Keyed by the structural serialization as an FpKey: probes compare the
  /// precomputed fingerprint first and the exact key text only on a match.
  RetainCache<std::shared_ptr<const CompiledRegex>> cache_{kLockRankRegexCache,
                                                           "regex-cache"};
};

/// The cache key: a prefix encoding of the regex AST over symbol codes.
/// Exposed for tests.
std::string RegexStructuralKey(const RegexPtr& regex);

}  // namespace gqc

#endif  // GQC_AUTOMATA_COMPILE_CACHE_H_
