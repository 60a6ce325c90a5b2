// The group graph G (Section II-A).
//
// One vertex per ID (property S1); edges mirror the input graph H over
// the leader population.  Each group is classified blue or red:
//   red  = bad composition (too many bad members / undersized) OR a
//          confused neighbor set (S3's "incorrect neighbor set"),
//   blue = everything else.
// For the static model of Section II the classification can instead be
// drawn synthetically: red independently with probability pf (S2) —
// both modes are supported so Lemmas 1-4 can be validated exactly in
// the model they are stated in, and then re-checked against the
// composition-derived classification.
//
// Storage: one `GroupTable` per graph (see group_table.hpp) — a
// single member slab plus packed per-group columns.  Both epoch
// builders (pristine here, EpochBuilder::build_next) close runs of
// groups with GroupTable::append_groups and fill them from prepared
// spans.  Reads go through `GroupView`/`MemberSpan`; churn and
// self-heal mutate through the member/counter setters below.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/group.hpp"
#include "core/group_table.hpp"
#include "core/params.hpp"
#include "core/population.hpp"
#include "crypto/oracle.hpp"
#include "overlay/input_graph.hpp"
#include "overlay/registry.hpp"
#include "util/rng.hpp"

namespace tg::core {

class GroupGraph {
 public:
  /// Assemble from a built table.  `leaders` is this
  /// graph's population; `member_pool` the population whose IDs fill
  /// the groups (previous epoch's IDs in the dynamic construction;
  /// equal to `leaders` for pristine graphs).
  GroupGraph(const Params& params,
             std::shared_ptr<const Population> leaders,
             std::shared_ptr<const Population> member_pool,
             GroupTable table);

  /// Trusted initialization (epoch 0; Appendix X): membership drawn
  /// directly through the oracle, neighbor sets correct by fiat, so
  /// red groups arise only from unlucky membership composition.  Blocks
  /// of leaders are resolved on ThreadPool::global() and write their
  /// spans straight into the slab; the calling thread only closes each
  /// wave's groups (GroupTable::append_groups).  The graph, its slab
  /// layout and memory_bytes() are byte-identical at any pool width.
  static GroupGraph pristine(const Params& params,
                             std::shared_ptr<const Population> pop,
                             const crypto::RandomOracle& membership_oracle);

  GroupGraph(GroupGraph&&) noexcept = default;
  GroupGraph& operator=(GroupGraph&&) noexcept = default;

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] const Population& leaders() const noexcept { return *leaders_; }
  [[nodiscard]] const Population& member_pool() const noexcept {
    return *member_pool_;
  }
  [[nodiscard]] const overlay::InputGraph& topology() const noexcept {
    return *topology_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }

  /// Read-only projection of group i (bounds-checked).
  [[nodiscard]] GroupView group(std::size_t i) const {
    check_index(i);
    return table_.view(GroupId{i});
  }

  /// Member-index span of group i (bounds-checked).
  [[nodiscard]] MemberSpan members(std::size_t i) const {
    check_index(i);
    return table_.members(GroupId{i});
  }

  [[nodiscard]] std::size_t group_size(std::size_t i) const noexcept {
    return table_.members(GroupId{i}).size();
  }

  /// Approximate heap footprint of the membership storage.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  // ---- Mutation (churn / self-heal) --------------------------------------
  // Spans returned by mutable_members (and views handed out by group /
  // members) are invalidated by assign_members.

  [[nodiscard]] std::span<std::uint32_t> mutable_members(std::size_t i);
  void truncate_members(std::size_t i, std::size_t new_size);
  void assign_members(std::size_t i, const std::uint32_t* data,
                      std::size_t count);
  /// Reclaim slab gaps left by assign_members relocations when the
  /// dead fraction exceeds ~1/4 of the live membership (no-op below
  /// the threshold).
  /// Invalidates outstanding member spans.  Returns bytes reclaimed.
  std::size_t compact_storage();
  void set_bad_members(std::size_t i, std::size_t n);
  void set_corrupted_slots(std::size_t i, std::size_t n);
  void set_rejected_slots(std::size_t i, std::size_t n);
  void set_confused(std::size_t i, bool confused);

  /// Red classification; honours synthetic mode when enabled.
  [[nodiscard]] bool is_red(std::size_t i) const {
    return synthetic_mode_ ? synthetic_red_.at(i) != 0
                           : composition_red_.at(i) != 0;
  }
  /// The same classification as one flag per group (1 = red), read
  /// without a bounds check: the epoch builder's per-hop scans.
  [[nodiscard]] std::span<const std::uint8_t> red_flags() const noexcept {
    return synthetic_mode_ ? synthetic_red_ : composition_red_;
  }

  /// S2: overwrite classification with iid coin flips (static model).
  void mark_red_synthetic(double pf, Rng& rng);
  /// Return to composition-derived classification.
  void clear_synthetic() noexcept { synthetic_mode_ = false; }
  /// Re-derive composition classification after group mutation (churn).
  void reclassify();

  [[nodiscard]] std::size_t red_count() const noexcept;
  [[nodiscard]] double red_fraction() const noexcept;
  [[nodiscard]] double bad_fraction() const noexcept;      ///< composition-bad
  [[nodiscard]] double confused_fraction() const noexcept;
  [[nodiscard]] double majority_bad_fraction() const noexcept;

  /// Cost of one all-to-all exchange between groups a and b (messages).
  [[nodiscard]] std::uint64_t pair_messages(std::size_t a, std::size_t b) const {
    return static_cast<std::uint64_t>(group_size(a)) *
           static_cast<std::uint64_t>(group_size(b));
  }

  /// Cost of one intra-group all-to-all round (group communication,
  /// Section I item (i)): |G| * (|G| - 1).
  [[nodiscard]] std::uint64_t intra_group_messages(std::size_t i) const {
    const auto s = static_cast<std::uint64_t>(group_size(i));
    return s * (s - 1);
  }

 private:
  void check_index(std::size_t i) const;
  void finish_init();

  Params params_;
  std::shared_ptr<const Population> leaders_;
  std::shared_ptr<const Population> member_pool_;
  std::unique_ptr<overlay::InputGraph> topology_;
  GroupTable table_;
  std::vector<std::uint8_t> composition_red_;
  std::vector<std::uint8_t> synthetic_red_;
  bool synthetic_mode_ = false;
};

}  // namespace tg::core
