// Fixture: a memo table hand-rolling the retain/evict lifecycle.
// Rule `retain-cache` must fire.
#include "src/core/lifecycle.h"

namespace gqc {

class ScoreMemo {
 private:
  FlatMap<FpKey, Retained<int>, FpKeyHash> table_;
  RetainMeta last_;
};

}  // namespace gqc
