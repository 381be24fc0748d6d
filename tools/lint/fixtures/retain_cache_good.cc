// Fixture: a memo table built on RetainCache.
// Rule `retain-cache` must stay silent.
#include "src/core/lifecycle.h"

namespace gqc {

class ScoreMemo {
 public:
  int Get(const FpKey& key) {
    return table_.GetOrBuild(
        key, [] { return 42; }, [](const int&) { return sizeof(int); });
  }

 private:
  RetainCache<int> table_{kLockRankLeaf, "score-memo"};
};

}  // namespace gqc
