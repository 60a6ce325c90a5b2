#include "workload/service.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "overlay/registry.hpp"

namespace tg::workload {

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World World::from_graph(std::shared_ptr<const core::GroupGraph> graph) {
  World world;
  world.graph_ = std::move(graph);
  const core::GroupGraph& g = *world.graph_;
  world.compositions_ = baseline::graph_compositions(g);
  world.red_.resize(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    world.red_[i] = g.is_red(i) ? 1 : 0;
  }
  world.finish_init();
  return world;
}

World World::from_regions(std::vector<baseline::GroupComposition> regions,
                          overlay::Kind kind) {
  World world;
  world.compositions_ = std::move(regions);
  const std::size_t groups = world.compositions_.size();
  world.red_.resize(groups);
  // Region i covers the arc [i/groups, (i+1)/groups); its centroid
  // stands in as the region's ID on the ring.  Integer arithmetic so
  // the table is bit-identical everywhere.
  const std::uint64_t step = ~std::uint64_t{0} / (groups ? groups : 1);
  std::vector<ids::RingPoint> centroids;
  centroids.reserve(groups);
  for (std::size_t i = 0; i < groups; ++i) {
    centroids.emplace_back(static_cast<std::uint64_t>(i) * step + step / 2);
    world.red_[i] = world.compositions_[i].majority_bad() ? 1 : 0;
  }
  world.table_ = ids::RingTable(std::move(centroids));
  world.topology_ = overlay::make_overlay(kind, world.table_);
  world.finish_init();
  return world;
}

void World::finish_init() {
  double best = -1.0;
  sizes_.resize(compositions_.size());
  for (std::size_t i = 0; i < compositions_.size(); ++i) {
    sizes_[i] = static_cast<std::uint32_t>(compositions_[i].size);
    const double f = compositions_[i].bad_fraction();
    if (f > best) {
      best = f;
      most_bad_group_ = i;
    }
  }
}

std::size_t World::responsible(ids::RingPoint key) const {
  return graph_ ? graph_->leaders().table().successor_index(key)
                : table_.successor_index(key);
}

overlay::Route World::route(std::size_t start, ids::RingPoint key) const {
  return topology().route(start, key);
}

void World::route_into(overlay::Route& out, std::size_t start,
                       ids::RingPoint key) const {
  topology().route_into(out, start, key);
}

void World::route_many(const overlay::RouteQuery* queries, std::size_t count,
                       overlay::Route* out) const {
  topology().route_many(queries, count, out);
}

const overlay::InputGraph& World::topology() const noexcept {
  return graph_ ? graph_->topology() : *topology_;
}

void World::prepare_routing() const { topology().prepare_rows(); }

std::uint64_t World::pair_messages(std::size_t a, std::size_t b) const noexcept {
  return std::uint64_t{sizes_[a]} * sizes_[b];
}

double World::red_fraction() const noexcept {
  if (red_.empty()) return 0.0;
  std::size_t reds = 0;
  for (const auto r : red_) reds += r;
  return static_cast<double>(reds) / static_cast<double>(red_.size());
}

// ---------------------------------------------------------------------------
// ReplicaTable
// ---------------------------------------------------------------------------

ReplicaTable::ReplicaTable(std::size_t keys)
    : slots_(std::bit_ceil(2 * std::max<std::size_t>(keys, 1))),
      mask_(slots_.size() - 1) {}

void ReplicaTable::put(std::uint64_t key, std::uint64_t value) {
  if (key == 0) {
    has_zero_ = true;
    zero_value_ = value;
    return;
  }
  for (std::size_t i = key & mask_;; i = (i + 1) & mask_) {
    Slot& slot = slots_[i];
    if (slot.key == key) {
      slot.value = value;
      return;
    }
    if (slot.key != 0) continue;
    if (2 * (used_ + 1) > slots_.size()) {
      grow();
      put(key, value);
      return;
    }
    slot = {key, value};
    ++used_;
    return;
  }
}

const std::uint64_t* ReplicaTable::find(std::uint64_t key) const noexcept {
  if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
  for (std::size_t i = key & mask_;; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.key == key) return &slot.value;
    if (slot.key == 0) return nullptr;
  }
}

void ReplicaTable::grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  used_ = 0;
  for (const Slot& slot : old) {
    if (slot.key != 0) put(slot.key, slot.value);
  }
}

// ---------------------------------------------------------------------------
// KvService
// ---------------------------------------------------------------------------

KvService::KvService(const World& world, std::size_t key_space,
                     std::uint64_t salt, double put_fraction)
    : Service(world),
      key_space_(key_space ? key_space : 1),
      salt_(salt),
      put_fraction_(put_fraction),
      store_(key_space_) {
  // Preload the dataset: every key stored once, unless its responsible
  // group is red — that data is lost to the adversary, and the
  // traffic's failed gets will find it.
  for (std::size_t i = 0; i < key_space_; ++i) {
    const ids::RingPoint key = key_point(i, salt_);
    if (world.is_red(world.responsible(key))) continue;
    store_.put(key.raw(), mix64(key.raw() ^ salt_));
    ++preloaded_;
  }
}

ids::RingPoint KvService::key_point(std::size_t key,
                                    std::uint64_t salt) noexcept {
  // Two mix rounds decorrelate adjacent key indices and the salt.
  return ids::RingPoint{mix64(mix64(salt) ^ (key * 0x9e3779b97f4a7c15ULL))};
}

Operation KvService::next_operation(Rng& rng) const {
  Operation op;
  const std::size_t key = rng.below(key_space_);
  op.key = key_point(key, salt_);
  op.kind = rng.bernoulli(put_fraction_) ? OpKind::put : OpKind::get;
  op.value = mix64(op.key.raw() ^ salt_);
  return op;
}

Execution KvService::execute(const Operation& op, std::size_t /*group*/) {
  Execution out;
  if (op.kind == OpKind::put) {
    store_.put(op.key.raw(), op.value);
    out.ok = true;
    out.value = op.value;
    return out;
  }
  const std::uint64_t* value = store_.find(op.key.raw());
  if (value == nullptr) return out;  // not found: the put was lost
  out.ok = true;
  out.value = *value;
  return out;
}

// ---------------------------------------------------------------------------
// LookupService
// ---------------------------------------------------------------------------

LookupService::LookupService(const World& world, std::size_t entries,
                             std::uint64_t salt)
    : Service(world),
      entries_(entries ? entries : 1),
      salt_(salt),
      bindings_(entries_) {
  // The trusted zone transfer: register every binding whose
  // responsible group is blue.  Red owners never hold a serveable
  // binding — a lookup landing there is adversary territory either way.
  for (std::size_t i = 0; i < entries_; ++i) {
    const ids::RingPoint key = KvService::key_point(i, salt_);
    if (world.is_red(world.responsible(key))) continue;
    bindings_.put(key.raw(), mix64(key.raw() ^ salt_));
    ++registered_;
  }
}

Operation LookupService::next_operation(Rng& rng) const {
  Operation op;
  op.kind = OpKind::lookup;
  op.key = KvService::key_point(rng.below(entries_), salt_);
  return op;
}

Execution LookupService::execute(const Operation& op,
                                 std::size_t /*group*/) {
  Execution out;
  const std::uint64_t* value = bindings_.find(op.key.raw());
  if (value == nullptr) return out;
  out.ok = true;
  out.value = *value;
  return out;
}

}  // namespace tg::workload
