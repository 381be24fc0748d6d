#include "src/util/arena.h"

#include <algorithm>
#include <cstring>

namespace gqc {

std::string_view StringArena::Intern(std::string_view s) {
  if (s.empty()) return std::string_view{};
  if (blocks_.empty() ||
      blocks_.back().used + s.size() > blocks_.back().capacity) {
    // Blocks double from kMinBlockSize up to kBlockSize: a vocabulary of a
    // few dozen names (one per schema/query context) then costs about a
    // kilobyte, not a 64 KiB block per interner.
    std::size_t capacity =
        blocks_.empty() ? kMinBlockSize
                        : std::min(kBlockSize, 2 * blocks_.back().capacity);
    Block block;
    block.capacity = std::max(capacity, s.size());
    block.data = std::make_unique_for_overwrite<char[]>(block.capacity);
    blocks_.push_back(std::move(block));
  }
  Block& block = blocks_.back();
  char* dst = block.data.get() + block.used;
  std::memcpy(dst, s.data(), s.size());
  block.used += s.size();
  bytes_ += s.size();
  return std::string_view(dst, s.size());
}

void StringArena::Clear() {
  blocks_.clear();
  bytes_ = 0;
}

}  // namespace gqc
