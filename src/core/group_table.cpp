#include "core/group_table.hpp"

#include <algorithm>

namespace tg::core {

void GroupTable::reserve(std::size_t groups, std::size_t member_capacity) {
  slab_.reserve(member_capacity);
  offset_.reserve(groups);
  length_.reserve(groups);
  capacity_.reserve(groups);
  leader_.reserve(groups);
  bad_members_.reserve(groups);
  corrupted_slots_.reserve(groups);
  rejected_slots_.reserve(groups);
  confused_.reserve(groups);
}

std::size_t GroupTable::member_count() const noexcept {
  std::size_t total = 0;
  for (const auto len : length_) total += len;
  return total;
}

std::size_t GroupTable::memory_bytes() const noexcept {
  return slab_.capacity() * sizeof(std::uint32_t) +
         offset_.capacity() * sizeof(std::uint64_t) +
         (length_.capacity() + capacity_.capacity() + leader_.capacity() +
          bad_members_.capacity() + corrupted_slots_.capacity() +
          rejected_slots_.capacity()) *
             sizeof(std::uint32_t) +
         confused_.capacity();
}

GroupId GroupTable::append_groups(std::uint32_t first_leader,
                                  std::span<const std::uint32_t> lengths) {
  const std::size_t first = size();
  const std::size_t count = lengths.size();
  std::size_t offset = slab_.size();
  for (std::size_t j = 0; j < count; ++j) {
    offset_.push_back(offset);
    length_.push_back(lengths[j]);
    capacity_.push_back(lengths[j]);
    leader_.push_back(first_leader + static_cast<std::uint32_t>(j));
    offset += lengths[j];
  }
  bad_members_.resize(first + count);
  corrupted_slots_.resize(first + count);
  rejected_slots_.resize(first + count);
  confused_.resize(first + count);
  slab_.resize(offset);
  return GroupId{first};
}

void GroupTable::truncate_members(GroupId g, std::size_t new_size) noexcept {
  const std::size_t i = g.index();
  if (new_size < length_[i]) {
    length_[i] = static_cast<std::uint32_t>(new_size);
  }
}

void GroupTable::assign_members(GroupId g, const std::uint32_t* data,
                                std::size_t count) {
  const std::size_t i = g.index();
  if (count > capacity_[i]) {
    // Relocate to the slab tail; the old span becomes a dead gap.
    offset_[i] = slab_.size();
    capacity_[i] = static_cast<std::uint32_t>(count);
    slab_.insert(slab_.end(), data, data + count);
  } else {
    std::copy(data, data + count, slab_.begin() + static_cast<std::ptrdiff_t>(
                                                      offset_[i]));
  }
  length_[i] = static_cast<std::uint32_t>(count);
}

std::size_t GroupTable::compact() {
  const std::size_t before = slab_.size();
  // Visit spans in slab order so every move slides left onto ground
  // already read (write cursor never passes an unvisited offset);
  // a single forward pass then suffices, no scratch slab.
  std::vector<std::uint32_t> order(size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return offset_[a] < offset_[b];
            });
  std::size_t write = 0;
  for (const std::uint32_t g : order) {
    const std::size_t len = length_[g];
    const auto src = static_cast<std::ptrdiff_t>(offset_[g]);
    if (static_cast<std::size_t>(src) != write) {
      std::copy(slab_.begin() + src, slab_.begin() + src + len,
                slab_.begin() + static_cast<std::ptrdiff_t>(write));
    }
    offset_[g] = write;
    capacity_[g] = static_cast<std::uint32_t>(len);
    write += len;
  }
  slab_.resize(write);
  slab_.shrink_to_fit();
  return (before - write) * sizeof(std::uint32_t);
}

void GroupTable::classify_red(const Params& p,
                              std::vector<std::uint8_t>& out) const {
  out.assign(size(), 0);
  for (std::size_t i = 0; i < size(); ++i) {
    out[i] = (group_is_bad(length_[i], bad_members_[i], p) ||
              confused_[i] != 0)
                 ? 1
                 : 0;
  }
}

std::size_t GroupTable::count_bad(const Params& p) const noexcept {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (group_is_bad(length_[i], bad_members_[i], p)) ++bad;
  }
  return bad;
}

std::size_t GroupTable::count_confused() const noexcept {
  std::size_t confused = 0;
  for (const auto flag : confused_) {
    if (flag != 0) ++confused;
  }
  return confused;
}

std::size_t GroupTable::count_majority_bad() const noexcept {
  std::size_t lost = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (!group_has_good_majority(length_[i], bad_members_[i])) ++lost;
  }
  return lost;
}

}  // namespace tg::core
