// The operation layer of the workload engine: application services
// (put/get/lookup) served by the group structure.
//
// The paper's motivating applications (Section I-A: distributed
// databases, name services, content-sharing networks) were previously
// sketched as one-off examples; this module promotes them to reusable
// `Service` implementations the load generator can drive over the
// message runtime.  A `World` is the group structure the traffic is
// served over — either a real `core::GroupGraph` (tinygroups /
// logn_groups) or a region-composition snapshot from the cuckoo
// baselines lifted onto an overlay of region centroids — so every
// campaign topology serves the SAME ops over the SAME routing
// abstraction and the emitted latencies are directly comparable.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "baseline/composition.hpp"
#include "core/group_graph.hpp"
#include "overlay/input_graph.hpp"
#include "util/rng.hpp"

namespace tg::workload {

/// The group structure requests route over.  Graph worlds wrap a
/// GroupGraph (grouped per leader, red per classification); region
/// worlds place each contiguous-region composition at its centroid on
/// the ring and route over a constant-degree overlay built on those
/// centroids (red = lost good majority), which is how a cuckoo-rule
/// deployment would serve the same keyspace.
class World {
 public:
  static World from_graph(std::shared_ptr<const core::GroupGraph> graph);
  static World from_regions(std::vector<baseline::GroupComposition> regions,
                            overlay::Kind kind = overlay::Kind::debruijn);

  World(World&&) noexcept = default;
  World& operator=(World&&) noexcept = default;

  [[nodiscard]] std::size_t groups() const noexcept { return red_.size(); }
  [[nodiscard]] bool is_red(std::size_t group) const {
    return red_.at(group) != 0;
  }
  [[nodiscard]] const baseline::GroupComposition& composition(
      std::size_t group) const {
    return compositions_.at(group);
  }
  /// Group responsible for a key (successor rule).
  [[nodiscard]] std::size_t responsible(ids::RingPoint key) const;
  /// H route from `start` toward key's responsible group.
  [[nodiscard]] overlay::Route route(std::size_t start,
                                     ids::RingPoint key) const;
  /// route() into caller-owned scratch (allocation-free steady state).
  void route_into(overlay::Route& out, std::size_t start,
                  ids::RingPoint key) const;
  /// Batch evaluation over the overlay.
  void route_many(const overlay::RouteQuery* queries, std::size_t count,
                  overlay::Route* out) const;
  /// The overlay requests route over (graph or region topology).
  [[nodiscard]] const overlay::InputGraph& topology() const noexcept;
  /// Build the overlay's finger rows from the calling thread, so the
  /// parallel row build is not forced inline on a pool worker later.
  void prepare_routing() const;
  /// All-to-all exchange cost of one group-to-group hop.
  [[nodiscard]] std::uint64_t pair_messages(std::size_t a,
                                            std::size_t b) const noexcept;
  [[nodiscard]] double red_fraction() const noexcept;
  /// The group the adversary would steer eclipsed clients into: the
  /// one with the highest bad fraction (ties: lowest index).
  [[nodiscard]] std::size_t most_bad_group() const noexcept {
    return most_bad_group_;
  }

 private:
  World() = default;
  void finish_init();

  // Graph mode: the graph owns table + topology.  Region mode: we own
  // a centroid table + overlay.  Exactly one of graph_/topology_ set.
  std::shared_ptr<const core::GroupGraph> graph_;
  ids::RingTable table_;
  std::unique_ptr<overlay::InputGraph> topology_;
  std::vector<baseline::GroupComposition> compositions_;
  std::vector<std::uint8_t> red_;
  std::size_t most_bad_group_ = 0;
};

enum class OpKind : std::uint64_t {
  put = 1,
  get = 2,
  lookup = 3,
};

struct Operation {
  OpKind kind = OpKind::get;
  ids::RingPoint key;
  std::uint64_t value = 0;  ///< checksum carried by puts
};

/// What the responsible group answered.  The engine layers red-group
/// behaviour on top: a red group on the route silently drops (the
/// client times out); a red RESPONSIBLE group serves garbage, which
/// the harness flags as corrupted (we know ground truth).
struct Execution {
  bool ok = false;  ///< op semantically succeeded
  std::uint64_t value = 0;
};

/// A service owns per-group state, touched ONLY from that group's
/// handler (the runtime's actor discipline: group g's state is safe
/// without locks because only node g executes ops against it).
/// `next_operation` is called from client handlers and must be a pure
/// function of the rng it is handed — no mutable service state — so
/// concurrent clients stay race-free and deterministic.
class Service {
 public:
  explicit Service(const World& world) : world_(&world) {}
  virtual ~Service() = default;

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Draw the next client op deterministically from `rng`.
  [[nodiscard]] virtual Operation next_operation(Rng& rng) const = 0;
  /// Execute at the (blue) responsible group.
  virtual Execution execute(const Operation& op, std::size_t group) = 0;

  [[nodiscard]] const World& world() const noexcept { return *world_; }

 protected:
  const World* world_;
};

/// Byzantine-tolerant KV store (the kv_store example, promoted): keys
/// hash onto the ring; the responsible group stores the checksum.
/// The key space is preloaded at construction (the dataset the
/// original example stored up front) — except at red owners, whose
/// entries are lost — and traffic is a put/get mix over it, so a
/// failed get measures genuinely unreachable data (the paper's
/// epsilon), not a key nobody wrote yet.
class KvService final : public Service {
 public:
  /// `key_space`: distinct keys clients draw from; `put_fraction`:
  /// probability an op is a put.
  KvService(const World& world, std::size_t key_space, std::uint64_t salt,
            double put_fraction = 0.5);

  /// Keys whose preload landed on a blue owner.
  [[nodiscard]] std::size_t preloaded() const noexcept { return preloaded_; }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "kv";
  }
  [[nodiscard]] Operation next_operation(Rng& rng) const override;
  Execution execute(const Operation& op, std::size_t group) override;

  [[nodiscard]] static ids::RingPoint key_point(std::size_t key,
                                                std::uint64_t salt) noexcept;

 private:
  std::size_t key_space_;
  std::uint64_t salt_;
  double put_fraction_;
  std::size_t preloaded_ = 0;
  /// Per-group replica state (key.raw -> checksum); index = group.
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> stores_;
};

/// Decentralized name service (the name_service example, promoted):
/// a fixed dictionary registered up front (the trusted zone transfer),
/// then lookup-only traffic.  A lookup succeeds iff the name's
/// responsible group is blue and the binding was registered there.
class LookupService final : public Service {
 public:
  LookupService(const World& world, std::size_t entries, std::uint64_t salt);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "lookup";
  }
  [[nodiscard]] Operation next_operation(Rng& rng) const override;
  Execution execute(const Operation& op, std::size_t group) override;

  /// Bindings that landed on blue groups at registration time.
  [[nodiscard]] std::size_t registered() const noexcept { return registered_; }

 private:
  std::size_t entries_;
  std::uint64_t salt_;
  std::size_t registered_ = 0;
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> bindings_;
};

}  // namespace tg::workload
