#include "workload/service.hpp"

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
  for (std::size_t i = 0; i < compositions_.size(); ++i) {
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
  return static_cast<std::uint64_t>(compositions_[a].size) *
         static_cast<std::uint64_t>(compositions_[b].size);
}

double World::red_fraction() const noexcept {
  if (red_.empty()) return 0.0;
  std::size_t reds = 0;
  for (const auto r : red_) reds += r;
  return static_cast<double>(reds) / static_cast<double>(red_.size());
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
      stores_(world.groups()) {
  // Preload the dataset: every key stored at its responsible group,
  // except where the owner is red — that data is lost to the
  // adversary, and the traffic's failed gets will find it.
  for (std::size_t i = 0; i < key_space_; ++i) {
    const ids::RingPoint key = key_point(i, salt_);
    const std::size_t owner = world.responsible(key);
    if (world.is_red(owner)) continue;
    stores_[owner][key.raw()] = mix64(key.raw() ^ salt_);
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

Execution KvService::execute(const Operation& op, std::size_t group) {
  Execution out;
  auto& store = stores_.at(group);
  if (op.kind == OpKind::put) {
    store[op.key.raw()] = op.value;
    out.ok = true;
    out.value = op.value;
    return out;
  }
  const auto it = store.find(op.key.raw());
  if (it == store.end()) return out;  // not found: the put was lost
  out.ok = true;
  out.value = it->second;
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
      bindings_(world.groups()) {
  // The trusted zone transfer: register every binding directly at its
  // responsible group.  Red owners never hold a serveable binding —
  // a lookup landing there is adversary territory either way.
  for (std::size_t i = 0; i < entries_; ++i) {
    const ids::RingPoint key = KvService::key_point(i, salt_);
    const std::size_t owner = world.responsible(key);
    if (world.is_red(owner)) continue;
    bindings_[owner][key.raw()] = mix64(key.raw() ^ salt_);
    ++registered_;
  }
}

Operation LookupService::next_operation(Rng& rng) const {
  Operation op;
  op.kind = OpKind::lookup;
  op.key = KvService::key_point(rng.below(entries_), salt_);
  return op;
}

Execution LookupService::execute(const Operation& op, std::size_t group) {
  Execution out;
  const auto& map = bindings_.at(group);
  const auto it = map.find(op.key.raw());
  if (it == map.end()) return out;
  out.ok = true;
  out.value = it->second;
  return out;
}

}  // namespace tg::workload
