#include "core/storage.hpp"

#include <vector>

#include "bft/majority_filter.hpp"

namespace tg::core {

bool ReplicatedStore::put(RingPoint key, std::uint64_t checksum) {
  const std::size_t owner =
      generation_->pop->table().successor_index(key);
  if (generation_->g1->is_red(owner)) return false;
  items_[key.raw()] = Item{checksum, owner};
  return true;
}

ReplicatedStore::GetResult ReplicatedStore::get(RingPoint key,
                                                Rng& rng) const {
  GetResult out;
  const auto it = items_.find(key.raw());
  if (it == items_.end()) return out;

  const std::size_t start = rng.below(generation_->g1->size());
  const DualOutcome search =
      dual_secure_search(*generation_->g1, *generation_->g2, start, key);
  out.messages += search.messages;
  if (!search.success) return out;
  out.found = true;

  // Majority-filter the copies the owner group's members return.
  const GroupView owner = generation_->g1->group(it->second.owner_group);
  std::vector<std::uint64_t> copies;
  copies.reserve(owner.size());
  for (const auto m : owner.members) {
    copies.push_back(generation_->g1->member_pool().is_bad(m)
                         ? ~it->second.checksum
                         : it->second.checksum);
  }
  out.messages += owner.size();
  const auto vote = bft::majority_vote(copies);
  out.correct = vote.strict_majority && vote.value == it->second.checksum;
  return out;
}

HandoffReport ReplicatedStore::handoff(const EpochGraphs& next) {
  HandoffReport report;
  report.items_before = items_.size();

  std::unordered_map<std::uint64_t, Item> migrated;
  migrated.reserve(items_.size());
  for (const auto& [key_raw, item] : items_) {
    const RingPoint key{key_raw};
    // 1. The old owner group must still deliver a majority-correct
    // copy to push.
    const GroupView old_owner = generation_->g1->group(item.owner_group);
    if (!old_owner.has_good_majority()) {
      ++report.lost_bad_owner;
      continue;
    }
    // 2. Locate the new owner with a dual search in the old graphs,
    // initiated by the old owner group.
    const DualOutcome search = dual_secure_search(
        *generation_->g1, *generation_->g2, item.owner_group, key);
    report.messages += search.messages;
    if (!search.success) {
      ++report.lost_search;
      continue;
    }
    // 3. The receiving group must be good.
    const std::size_t new_owner = next.pop->table().successor_index(key);
    if (next.g1->is_red(new_owner)) {
      ++report.lost_bad_receiver;
      continue;
    }
    // Transfer: old members push copies to new members (all-to-all).
    report.messages += static_cast<std::uint64_t>(old_owner.size()) *
                       next.g1->group(new_owner).size();
    migrated[key_raw] = Item{item.checksum, new_owner};
  }
  items_ = std::move(migrated);
  generation_ = &next;
  report.items_after = items_.size();
  return report;
}

}  // namespace tg::core
