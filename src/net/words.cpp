#include "net/words.hpp"

#include <algorithm>

namespace tg::net {

void Words::grow_exact(std::size_t min_capacity) {
  const std::size_t want = std::max(min_capacity, 2 * std::size_t{capacity_});
  auto* block = new std::uint64_t[want];
  std::memcpy(block, data_, size_ * sizeof(std::uint64_t));
  release_storage();
  data_ = block;
  capacity_ = static_cast<std::uint32_t>(want);
}

}  // namespace tg::net
