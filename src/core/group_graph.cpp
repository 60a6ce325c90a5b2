#include "core/group_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace tg::core {

namespace {

/// One build counter plus an instant marking the (n, groups) shape in
/// the trace.
void record_pristine_build(std::size_t n, std::size_t groups) {
  if (auto* session = telemetry::active()) {
    session->count(telemetry::Probe::core_pristine_builds);
    session->event(telemetry::EventName::pristine_build, telemetry::kSrcCore,
                   'i', /*id=*/0, /*a=*/n, /*b=*/groups);
  }
}

}  // namespace

GroupGraph::GroupGraph(const Params& params,
                       std::shared_ptr<const Population> leaders,
                       std::shared_ptr<const Population> member_pool,
                       GroupTable table)
    : params_(params),
      leaders_(std::move(leaders)),
      member_pool_(std::move(member_pool)),
      table_(std::move(table)) {
  finish_init();
}

void GroupGraph::finish_init() {
  if (!leaders_ || !member_pool_) {
    throw std::invalid_argument("GroupGraph: null population");
  }
  if (size() != leaders_->size()) {
    throw std::invalid_argument("GroupGraph: one group per leader required");
  }
  topology_ = overlay::make_overlay(params_.overlay_kind, leaders_->table());
  reclassify();
}

void GroupGraph::check_index(std::size_t i) const {
  if (i >= size()) {
    throw std::out_of_range("GroupGraph: group index out of range");
  }
}

GroupGraph GroupGraph::pristine(const Params& params,
                                std::shared_ptr<const Population> pop,
                                const crypto::RandomOracle& membership_oracle) {
  const std::size_t n = pop->size();
  const std::size_t g = params.group_size();
  auto h = membership_oracle.stream_pair();

  // Streaming build: membership points flow through the multi-lane
  // engine straight into the slab, batched ACROSS leaders so lane
  // occupancy stays full even for tiny groups.  The oracle is a pure
  // function of (w, slot), so batching shape cannot perturb results.
  GroupTable table;
  table.reserve(n, n * g);
  constexpr std::size_t kBatchPoints = 1024;
  const std::size_t leaders_per_batch =
      g == 0 ? 1 : std::max<std::size_t>(1, kBatchPoints / g);
  std::vector<std::uint64_t> ws(leaders_per_batch * g);
  std::vector<std::uint64_t> slots(leaders_per_batch * g);
  std::vector<std::uint64_t> points(leaders_per_batch * g);
  for (std::size_t base = 0; base < n; base += leaders_per_batch) {
    const std::size_t block = std::min(leaders_per_batch, n - base);
    for (std::size_t j = 0; j < block; ++j) {
      const std::uint64_t w = pop->table().at(base + j).raw();
      for (std::size_t slot = 0; slot < g; ++slot) {
        ws[j * g + slot] = w;
        slots[j * g + slot] = slot;
      }
    }
    h.eval_many(ws.data(), slots.data(), points.data(), block * g);
    for (std::size_t j = 0; j < block; ++j) {
      const GroupId id =
          table.begin_group(static_cast<std::uint32_t>(base + j));
      for (std::size_t slot = 0; slot < g; ++slot) {
        table.add_member(static_cast<std::uint32_t>(
            pop->table().successor_index(ids::RingPoint{points[j * g + slot]})));
      }
      // Deduplicate: a physical ID holds one membership per group.
      table.finish_group();
      std::uint32_t bad = 0;
      for (const auto m : table.members(id)) {
        if (pop->is_bad(m)) ++bad;
      }
      table.set_bad_members(id, bad);
    }
  }
  record_pristine_build(n, table.size());
  return GroupGraph(params, pop, pop, std::move(table));
}

std::size_t GroupGraph::memory_bytes() const noexcept {
  return table_.memory_bytes();
}

std::span<std::uint32_t> GroupGraph::mutable_members(std::size_t i) {
  check_index(i);
  return table_.mutable_members(GroupId{i});
}

void GroupGraph::truncate_members(std::size_t i, std::size_t new_size) {
  check_index(i);
  table_.truncate_members(GroupId{i}, new_size);
}

void GroupGraph::assign_members(std::size_t i, const std::uint32_t* data,
                                std::size_t count) {
  check_index(i);
  table_.assign_members(GroupId{i}, data, count);
}

std::size_t GroupGraph::compact_storage() {
  const std::size_t live = table_.member_count();
  if (table_.slab_size() <= live + live / 4) return 0;
  return table_.compact();
}

void GroupGraph::set_bad_members(std::size_t i, std::size_t n) {
  check_index(i);
  table_.set_bad_members(GroupId{i}, static_cast<std::uint32_t>(n));
}

void GroupGraph::set_corrupted_slots(std::size_t i, std::size_t n) {
  check_index(i);
  table_.set_corrupted_slots(GroupId{i}, static_cast<std::uint32_t>(n));
}

void GroupGraph::set_rejected_slots(std::size_t i, std::size_t n) {
  check_index(i);
  table_.set_rejected_slots(GroupId{i}, static_cast<std::uint32_t>(n));
}

void GroupGraph::set_confused(std::size_t i, bool confused) {
  check_index(i);
  table_.set_confused(GroupId{i}, confused);
}

void GroupGraph::mark_red_synthetic(double pf, Rng& rng) {
  synthetic_red_.assign(size(), 0);
  for (auto& flag : synthetic_red_) {
    flag = rng.bernoulli(pf) ? 1 : 0;
  }
  synthetic_mode_ = true;
}

void GroupGraph::reclassify() {
  table_.classify_red(params_, composition_red_);
}

std::size_t GroupGraph::red_count() const noexcept {
  const auto& flags = synthetic_mode_ ? synthetic_red_ : composition_red_;
  return static_cast<std::size_t>(
      std::count(flags.begin(), flags.end(), std::uint8_t{1}));
}

double GroupGraph::red_fraction() const noexcept {
  return size() == 0 ? 0.0
                     : static_cast<double>(red_count()) /
                           static_cast<double>(size());
}

double GroupGraph::bad_fraction() const noexcept {
  if (size() == 0) return 0.0;
  return static_cast<double>(table_.count_bad(params_)) /
         static_cast<double>(size());
}

double GroupGraph::confused_fraction() const noexcept {
  if (size() == 0) return 0.0;
  return static_cast<double>(table_.count_confused()) /
         static_cast<double>(size());
}

double GroupGraph::majority_bad_fraction() const noexcept {
  if (size() == 0) return 0.0;
  return static_cast<double>(table_.count_majority_bad()) /
         static_cast<double>(size());
}

}  // namespace tg::core
