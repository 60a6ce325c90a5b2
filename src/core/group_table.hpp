// GroupTable: the epoch representation of a group graph.
//
// One contiguous member-index slab for the whole graph plus packed
// per-group columns (offset/length spans into the slab, leader index,
// bad/corrupted/rejected counters, confused flag), so
//   * building a graph performs O(1) amortized allocations,
//   * red/good classification scans run cache-linear over columns,
//   * per-group membership reads are a span into the slab,
//   * a builder can close a run of groups at once (append_groups) and
//     let pool tasks write their spans and counters in place.
// At the ROADMAP's target scale (n = 10^6 leaders, |G| ~ d1 ln ln n
// members each) this replaces what would otherwise be a million small
// heap vectors.
//
// Index-type contract: `GroupId` indexes the per-group columns (one
// entry per leader, dense, construction order); `MemberSlot` indexes
// WITHIN one group's member span.  Raw `std::uint32_t` values stored
// in the slab are member-POOL indices (into the member population's
// ring table) — a third index space.  The wrappers exist so the three
// spaces cannot be silently mixed at the call sites that juggle all
// of them (builder, self-heal, churn).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/group.hpp"
#include "core/params.hpp"

namespace tg::core {

/// Dense index of a group within one GroupTable (== its leader's
/// position in the leader population's ring table).
struct GroupId {
  std::uint32_t value = 0;

  GroupId() = default;
  constexpr explicit GroupId(std::uint32_t v) noexcept : value(v) {}
  constexpr explicit GroupId(std::size_t v) noexcept
      : value(static_cast<std::uint32_t>(v)) {}

  [[nodiscard]] constexpr std::size_t index() const noexcept { return value; }
  friend constexpr bool operator==(GroupId a, GroupId b) noexcept {
    return a.value == b.value;
  }
};

/// Position of one membership slot WITHIN a group's member span.
struct MemberSlot {
  std::uint32_t value = 0;

  MemberSlot() = default;
  constexpr explicit MemberSlot(std::uint32_t v) noexcept : value(v) {}
  constexpr explicit MemberSlot(std::size_t v) noexcept
      : value(static_cast<std::uint32_t>(v)) {}

  [[nodiscard]] constexpr std::size_t index() const noexcept { return value; }
  friend constexpr bool operator==(MemberSlot a, MemberSlot b) noexcept {
    return a.value == b.value;
  }
};

class GroupTable {
 public:
  GroupTable() = default;

  /// Pre-size the columns and slab (builds know n and can bound
  /// members by n * group_size).
  void reserve(std::size_t groups, std::size_t member_capacity);

  [[nodiscard]] std::size_t size() const noexcept { return length_.size(); }
  [[nodiscard]] bool empty() const noexcept { return length_.empty(); }
  /// Total member entries across all groups (live spans only).
  [[nodiscard]] std::size_t member_count() const noexcept;
  /// Words resident in the slab (>= member_count after mutations).
  [[nodiscard]] std::size_t slab_size() const noexcept { return slab_.size(); }
  /// Approximate heap footprint of the table, for capacity planning.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  // ---- Construction -----------------------------------------------------
  // Both epoch builders close a run of groups at once, then fill them.

  /// Close lengths.size() groups led by first_leader, first_leader + 1,
  /// ..., their spans laid back to back at the slab tail, each with
  /// capacity == length.  Members and counters start zeroed; fill them
  /// through mutable_members and the setters, from any thread as long
  /// as each group has one writer.  The builders write each span
  /// sorted and deduplicated (a physical ID holds one membership per
  /// group).  Returns the first new id.
  GroupId append_groups(std::uint32_t first_leader,
                        std::span<const std::uint32_t> lengths);

  // ---- Reads ------------------------------------------------------------

  [[nodiscard]] MemberSpan members(GroupId g) const noexcept {
    return {slab_.data() + offset_[g.index()], length_[g.index()]};
  }
  [[nodiscard]] std::uint32_t member(GroupId g, MemberSlot s) const noexcept {
    return slab_[offset_[g.index()] + s.index()];
  }
  [[nodiscard]] GroupView view(GroupId g) const noexcept {
    GroupView v;
    const std::size_t i = g.index();
    v.leader = leader_[i];
    v.members = members(g);
    v.bad_members = bad_members_[i];
    v.corrupted_slots = corrupted_slots_[i];
    v.rejected_slots = rejected_slots_[i];
    v.confused = confused_[i] != 0;
    return v;
  }

  // ---- Per-group counter/flag columns -----------------------------------

  void set_bad_members(GroupId g, std::uint32_t n) noexcept {
    bad_members_[g.index()] = n;
  }
  void set_corrupted_slots(GroupId g, std::uint32_t n) noexcept {
    corrupted_slots_[g.index()] = n;
  }
  void set_rejected_slots(GroupId g, std::uint32_t n) noexcept {
    rejected_slots_[g.index()] = n;
  }
  void set_confused(GroupId g, bool confused) noexcept {
    confused_[g.index()] = confused ? 1 : 0;
  }

  // ---- Mutation (churn / self-heal) -------------------------------------

  /// Writable span over a group's members (for in-place filtering).
  [[nodiscard]] std::span<std::uint32_t> mutable_members(GroupId g) noexcept {
    return {slab_.data() + offset_[g.index()], length_[g.index()]};
  }
  /// Shrink a group after in-place filtering; keeps span capacity.
  void truncate_members(GroupId g, std::size_t new_size) noexcept;
  /// Replace a group's membership.  Reuses the span in place when the
  /// new set fits its capacity; otherwise the span relocates to the
  /// slab tail (the old range becomes a dead gap, reclaimable by
  /// compact()).
  void assign_members(GroupId g, const std::uint32_t* data, std::size_t count);

  /// Slide every live span left over the dead gaps and slack that
  /// assign_members relocations and truncate_members leave behind,
  /// restoring slab_size() == member_count().  Span CONTENTS are
  /// untouched (views read byte-identically before and after); span
  /// ADDRESSES move, so any outstanding MemberSpan / mutable span is
  /// invalidated.  Returns the number of slab bytes reclaimed.
  std::size_t compact();

  // ---- Cache-linear column scans ----------------------------------------

  /// red = bad composition or confused; one pass over the packed
  /// columns, no per-group view materialization.
  void classify_red(const Params& p, std::vector<std::uint8_t>& out) const;
  [[nodiscard]] std::size_t count_bad(const Params& p) const noexcept;
  [[nodiscard]] std::size_t count_confused() const noexcept;
  [[nodiscard]] std::size_t count_majority_bad() const noexcept;

 private:
  std::vector<std::uint32_t> slab_;  ///< member-pool indices, all groups

  // Parallel per-group columns, indexed by GroupId.
  std::vector<std::uint64_t> offset_;    ///< span start in slab_
  std::vector<std::uint32_t> length_;    ///< span length (live members)
  std::vector<std::uint32_t> capacity_;  ///< span capacity (>= length)
  std::vector<std::uint32_t> leader_;
  std::vector<std::uint32_t> bad_members_;
  std::vector<std::uint32_t> corrupted_slots_;
  std::vector<std::uint32_t> rejected_slots_;
  std::vector<std::uint8_t> confused_;
};

}  // namespace tg::core
