// A single group G_w (Section I-C).
//
// Every ID w leads its own group G_w whose members are the IDs
// suc(h(w, i)) drawn by a membership oracle.  A group is GOOD if it
// has an acceptable size and at most (1+delta)*beta*|G| bad members;
// it is CONFUSED if its neighbor set in the group graph was set up
// incorrectly (Section III-B).  RED = bad or confused; red groups are
// adversary-controlled for analysis purposes.
//
// Group graphs store their groups in a `GroupTable` (one contiguous
// member slab plus packed per-group columns; see group_table.hpp) and
// hand them out as `GroupView`s: a span of member indices plus the
// scalar columns.  `Group` is a standalone value type with one owned
// member vector, for hand-built groups (tests, bft micro-harnesses);
// it converts to a `GroupView` too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/params.hpp"

namespace tg::core {

/// Good-group predicate per Section I-C / III: size within bounds and
/// bad membership at most the threshold.  Shared by `GroupTable`'s
/// column scans and `GroupView`, so the classification cannot drift.
[[nodiscard]] inline bool group_is_bad(std::size_t size,
                                       std::size_t bad_members,
                                       const Params& p) noexcept {
  return size < p.group_min_size() || bad_members > p.bad_member_threshold(size);
}

/// Stricter condition needed for majority filtering to operate.
[[nodiscard]] inline bool group_has_good_majority(
    std::size_t size, std::size_t bad_members) noexcept {
  return 2 * bad_members < size;
}

struct Group {
  std::size_t leader = 0;  ///< index of w in its population's ring table

  /// Member indices into the *member population* (the same population
  /// in the static case; the previous epoch's population in the
  /// dynamic case — see builder.hpp).
  std::vector<std::uint32_t> members;

  std::size_t bad_members = 0;

  /// A membership slot whose dual searches both failed: the adversary
  /// chose the member (counted in bad_members as well).
  std::size_t corrupted_slots = 0;

  /// Membership slots lost to erroneous rejection (Lemma 7 case 3).
  std::size_t rejected_slots = 0;

  /// Neighbor set incorrectly established (Lemma 8).
  bool confused = false;

  [[nodiscard]] std::size_t size() const noexcept { return members.size(); }

  [[nodiscard]] bool is_bad(const Params& p) const noexcept {
    return group_is_bad(size(), bad_members, p);
  }

  [[nodiscard]] bool has_good_majority() const noexcept {
    return group_has_good_majority(size(), bad_members);
  }

  [[nodiscard]] bool is_red(const Params& p) const noexcept {
    return is_bad(p) || confused;
  }
};

/// Contiguous, read-only view over a group's member indices.  Unlike
/// std::span, equality compares ELEMENTS ("same membership", not "same
/// storage").
class MemberSpan {
 public:
  using value_type = std::uint32_t;
  using const_iterator = const std::uint32_t*;

  constexpr MemberSpan() noexcept = default;
  constexpr MemberSpan(const std::uint32_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  MemberSpan(const std::vector<std::uint32_t>& v) noexcept  // NOLINT: implicit
      : data_(v.data()), size_(v.size()) {}

  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] constexpr const std::uint32_t* data() const noexcept {
    return data_;
  }
  [[nodiscard]] constexpr const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] constexpr const_iterator end() const noexcept {
    return data_ + size_;
  }
  [[nodiscard]] constexpr std::uint32_t operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] constexpr std::uint32_t front() const noexcept {
    return data_[0];
  }
  [[nodiscard]] constexpr std::uint32_t back() const noexcept {
    return data_[size_ - 1];
  }

  friend bool operator==(const MemberSpan& a, const MemberSpan& b) noexcept {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }

 private:
  const std::uint32_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Read-only projection of one group: a span over its members plus the
/// scalar columns.  Cheap to copy; valid while the owning GroupGraph
/// (or Group) lives and its membership is not mutated.
struct GroupView {
  std::size_t leader = 0;
  MemberSpan members;
  std::size_t bad_members = 0;
  std::size_t corrupted_slots = 0;
  std::size_t rejected_slots = 0;
  bool confused = false;

  GroupView() = default;
  GroupView(const Group& g) noexcept  // NOLINT: implicit by design
      : leader(g.leader),
        members(g.members),
        bad_members(g.bad_members),
        corrupted_slots(g.corrupted_slots),
        rejected_slots(g.rejected_slots),
        confused(g.confused) {}

  [[nodiscard]] std::size_t size() const noexcept { return members.size(); }

  [[nodiscard]] bool is_bad(const Params& p) const noexcept {
    return group_is_bad(size(), bad_members, p);
  }

  [[nodiscard]] bool has_good_majority() const noexcept {
    return group_has_good_majority(size(), bad_members);
  }

  [[nodiscard]] bool is_red(const Params& p) const noexcept {
    return is_bad(p) || confused;
  }
};

}  // namespace tg::core
