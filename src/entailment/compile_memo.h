#ifndef GQC_ENTAILMENT_COMPILE_MEMO_H_
#define GQC_ENTAILMENT_COMPILE_MEMO_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/lifecycle.h"
#include "src/dl/tbox.h"
#include "src/dl/types.h"
#include "src/entailment/common.h"
#include "src/graph/type.h"
#include "src/util/fingerprint.h"
#include "src/util/sync.h"

namespace gqc {

/// Memoizes the per-solve word-mask compilations (CompiledBooleanCis,
/// CompiledTheta) that every FindWitness / RealizableNoRoles call used to
/// rebuild from scratch. One containment solve calls FindWitness once per
/// (expansion × seed) with the SAME (TypeSpace, NormalTBox) — on the
/// microsecond-scale rows of bench_containment the recompilation was a
/// visible fraction of the solve (ROADMAP "few-µs per-solve compile
/// overhead"). The memo turns repeats into one FlatMap probe.
///
/// Keys are exact id-level serializations of (support, TBox CIs) and
/// (support, Θ types) carried as FpKeys — never hashes alone — so the cache
/// key discipline of the shared caches (exact canonical serializations,
/// fingerprint-then-verify) holds here too. Compiled artifacts are pure
/// functions of their keys, so memoization can never change a verdict.
///
/// Thread-safe: each table is a RetainCache whose lock has rank
/// kLockRankCompileMemo — above every other cache rank, so a probe is legal
/// no matter which cache lock a caller's caller holds. Hit/miss counts live
/// in the tables because the probing call sites (EngineLimits consumers)
/// carry no PipelineStats; the owner exports them.
class CompiledScopeMemo {
 public:
  /// The compiled Boolean CIs of `tbox` over `space`, memoized.
  std::shared_ptr<const CompiledBooleanCis> GetBooleanCis(
      const TypeSpace& space, const NormalTBox& tbox);

  /// CompiledTheta(space, theta), memoized.
  std::shared_ptr<const CompiledTheta> GetTheta(const TypeSpace& space,
                                                const std::vector<Type>& theta);

  /// The two backing tables, for the owner's lifecycle loop.
  std::array<RetainTable*, 2> tables() { return {&boolean_, &theta_}; }

  uint64_t hits() const;
  uint64_t misses() const;

 private:
  RetainCache<std::shared_ptr<const CompiledBooleanCis>> boolean_{
      kLockRankCompileMemo, "compile-memo"};
  RetainCache<std::shared_ptr<const CompiledTheta>> theta_{kLockRankCompileMemo,
                                                           "compile-memo"};
};

}  // namespace gqc

#endif  // GQC_ENTAILMENT_COMPILE_MEMO_H_
