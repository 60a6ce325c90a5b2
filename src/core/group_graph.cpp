#include "core/group_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

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

// Pristine builds work in blocks of kBlockLeaders leaders (one pool
// task each), kWaveLeaders leaders per fan-out.
constexpr std::size_t kBlockLeaders = 64;
constexpr std::size_t kWaveLeaders = 8192;

/// Pristine membership of the `count` leaders of `pop` from index
/// `first`: leader j's g successor indices, sorted and deduplicated in
/// place at members + j * g, of which kept[j] survive and bad[j] are
/// bad.  The (leader, slot) pairs cross leader boundaries on their way
/// through the multi-lane engine, so lanes stay full even for tiny
/// groups.
void resolve_block(const Population& pop,
                   const crypto::RandomOracle& oracle, std::size_t g,
                   std::size_t first, std::size_t count,
                   std::uint32_t* members, std::uint32_t* kept,
                   std::uint32_t* bad) {
  auto h = oracle.stream_pair();
  constexpr std::size_t kLanes = crypto::Sha256::kMaxLanes;
  std::uint64_t ws[kLanes], slots[kLanes], points[kLanes];
  const std::size_t total = count * g;
  std::size_t leader = first, slot = 0;
  for (std::size_t p = 0; p < total; p += kLanes) {
    const std::size_t m = std::min(kLanes, total - p);
    for (std::size_t k = 0; k < m; ++k) {
      ws[k] = pop.table().at(leader).raw();
      slots[k] = slot;
      if (++slot == g) {
        slot = 0;
        ++leader;
      }
    }
    h.eval_many(ws, slots, points, m);
    for (std::size_t k = 0; k < m; ++k) {
      members[p + k] = static_cast<std::uint32_t>(
          pop.table().successor_index(ids::RingPoint{points[k]}));
    }
  }
  for (std::size_t j = 0; j < count; ++j) {
    // Deduplicate: a physical ID holds one membership per group.
    std::uint32_t* const span = members + j * g;
    std::sort(span, span + g);
    const auto unique = static_cast<std::uint32_t>(
        std::unique(span, span + g) - span);
    std::uint32_t bad_members = 0;
    for (std::uint32_t k = 0; k < unique; ++k) {
      if (pop.is_bad(span[k])) ++bad_members;
    }
    kept[j] = unique;
    bad[j] = bad_members;
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

  // Blocks of leaders are hashed, resolved and deduplicated on the
  // pool, a wave at a time, into wave buffers.  The calling thread
  // then closes the wave's groups in one append_groups, a prefix sum
  // of their kept counts, and the blocks copy their spans and bad
  // counts straight into the slab.  The oracle is a pure function of
  // (w, slot), so neither the block shape nor the pool width can
  // perturb the result, and the slab holds the groups back to back in
  // leader order.
  GroupTable table;
  table.reserve(n, n * g);
  const std::size_t wave_cap = std::min(n, kWaveLeaders);
  std::vector<std::uint32_t> members(wave_cap * g);
  std::vector<std::uint32_t> kept(wave_cap);
  std::vector<std::uint32_t> bad(wave_cap);
  for (std::size_t base = 0; base < n; base += kWaveLeaders) {
    const std::size_t wave = std::min(kWaveLeaders, n - base);
    const std::size_t blocks = (wave + kBlockLeaders - 1) / kBlockLeaders;
    ThreadPool::global().parallel_for(blocks, [&](std::size_t b) {
      const std::size_t first = b * kBlockLeaders;
      resolve_block(*pop, membership_oracle, g, base + first,
                    std::min(kBlockLeaders, wave - first),
                    members.data() + first * g, kept.data() + first,
                    bad.data() + first);
    });
    const GroupId first_group = table.append_groups(
        static_cast<std::uint32_t>(base), {kept.data(), wave});
    ThreadPool::global().parallel_for(blocks, [&](std::size_t b) {
      const std::size_t end = std::min((b + 1) * kBlockLeaders, wave);
      for (std::size_t j = b * kBlockLeaders; j < end; ++j) {
        const GroupId id{first_group.index() + j};
        std::copy_n(members.data() + j * g, kept[j],
                    table.mutable_members(id).data());
        table.set_bad_members(id, bad[j]);
      }
    });
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
