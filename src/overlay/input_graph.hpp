// Input graph H abstraction (Section I-C, properties P1-P4).
//
// An input graph is any DHT-style overlay over the live ID set that
// provides:
//   P1 search functionality in D = O(log N) traversed IDs,
//   P2 load balancing of key responsibility,
//   P3 verifiable linking rules (S_w computable by searches),
//   P4 congestion C = O(log^c N / N).
//
// The paper stresses H provides NO security by itself — it is a
// topology template that the group-graph construction hardens.  All
// implementations here are bound to an immutable RingTable of IDs
// owned by the caller; they are stateless routing/linking oracles over
// that table.  Route loops resolve successors through the table's grid
// (RingTable::successor_index).  Chord, Chord++ and Viceroy also keep
// one finger row per node — their fixed per-node candidate set,
// pre-resolved — built once per overlay on first use; a row is a pure
// function of the table, so the oracles stay logically stateless.
// Every overlay's route is pinned by a golden hash over seeded queries
// in the tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string_view>
#include <vector>

#include "idspace/ring_table.hpp"

namespace tg::telemetry {
class Session;
}

namespace tg::overlay {

using ids::Arc;
using ids::bits_for_size;
using ids::RingPoint;
using ids::RingTable;

/// The traversed node indices of one route, small-buffer optimized:
/// routes are O(log N) hops, so the inline capacity absorbs virtually
/// every real path and steady-state routing into a reused Route
/// performs zero heap allocations (clear() keeps the spill block,
/// mirroring net::Words).  Node indices are uint32 — the table index
/// space is bounded well below 2^32 (10^6-node epochs are the roadmap
/// ceiling).
class RoutePath {
 public:
  using value_type = std::uint32_t;
  /// Inline hop capacity: covers the O(log N) routes of every overlay
  /// at every simulated scale (a 1e6-node Chord route is ~20 hops).
  static constexpr std::size_t kInlineHops = 28;

  RoutePath() noexcept = default;
  ~RoutePath() {
    if (data_ != inline_) delete[] data_;
  }

  RoutePath(const RoutePath& other) { append(other.data_, other.size_); }
  RoutePath& operator=(const RoutePath& other) {
    if (this != &other) {
      size_ = 0;  // keep capacity; assignment into scratch stays warm
      append(other.data_, other.size_);
    }
    return *this;
  }
  RoutePath(RoutePath&& other) noexcept { steal(other); }
  RoutePath& operator=(RoutePath&& other) noexcept {
    if (this != &other) {
      if (data_ != inline_) delete[] data_;
      data_ = inline_;
      capacity_ = kInlineHops;
      steal(other);
    }
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] value_type operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] value_type& operator[](std::size_t i) noexcept {
    return data_[i];
  }
  [[nodiscard]] value_type front() const noexcept { return data_[0]; }
  [[nodiscard]] value_type back() const noexcept { return data_[size_ - 1]; }

  [[nodiscard]] const value_type* begin() const noexcept { return data_; }
  [[nodiscard]] const value_type* end() const noexcept {
    return data_ + size_;
  }
  [[nodiscard]] value_type* begin() noexcept { return data_; }
  [[nodiscard]] value_type* end() noexcept { return data_ + size_; }

  void push_back(value_type v) {
    if (size_ == capacity_) grow();
    data_[size_++] = v;
  }

  /// Drop the contents, KEEP the storage (inline or spilled): the
  /// scratch-reuse contract that makes steady-state routing
  /// allocation-free.
  void clear() noexcept { size_ = 0; }

  friend bool operator==(const RoutePath& a, const RoutePath& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data_, b.data_, a.size_ * sizeof(value_type)) == 0);
  }

 private:
  void grow();
  void append(const value_type* src, std::size_t count);
  void steal(RoutePath& other) noexcept {
    if (other.data_ == other.inline_) {
      std::memcpy(inline_, other.inline_,
                  other.size_ * sizeof(value_type));
      size_ = other.size_;
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_;
      other.capacity_ = kInlineHops;
    }
    other.size_ = 0;
  }

  value_type inline_[kInlineHops];
  value_type* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t capacity_ = kInlineHops;
};

/// Outcome of routing toward a key: the sequence of traversed node
/// indices (start first, responsible node last).
struct Route {
  RoutePath path;
  bool ok = false;

  [[nodiscard]] std::size_t hops() const noexcept {
    return path.empty() ? 0 : path.size() - 1;
  }

  /// Ready the route for reuse as routing scratch (keeps capacity).
  void reset() noexcept {
    path.clear();
    ok = false;
  }
};

/// Per-route telemetry: the route and failure counters plus the hop
/// histogram (successful routes only).  route_into and route_many
/// record every route they evaluate; a caller of route_unrecorded
/// that holds the session already records the routes it keeps here.
void record_route(telemetry::Session& session, bool routed, std::size_t hops);

/// One (start, key) pair of a route_many batch.
struct RouteQuery {
  std::size_t start = 0;
  RingPoint key;
};

class InputGraph {
 public:
  explicit InputGraph(const RingTable& table);
  virtual ~InputGraph();

  InputGraph(const InputGraph&) = delete;
  InputGraph& operator=(const InputGraph&) = delete;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// P3 linking rule: the target points node x links to; the actual
  /// neighbor set is the successor of each target.
  [[nodiscard]] virtual std::vector<RingPoint> link_targets(
      RingPoint x) const = 0;

  /// P1 search: route from the node at index `start` to the node
  /// responsible for `key` (its successor).  Deterministic given the
  /// table; adversarial behaviour is layered on top by the group
  /// graph, which truncates routes at the first red group.
  [[nodiscard]] Route route(std::size_t start, RingPoint key) const;

  /// route() into caller-owned scratch: the allocation-free form.  A
  /// warm `out` (capacity from earlier routes) is reused verbatim.
  void route_into(Route& out, std::size_t start, RingPoint key) const;

  /// route_into without telemetry, for callers that record the routes
  /// they keep through record_route: the epoch builder (its
  /// speculative searches on pool workers may be thrown away) and the
  /// workload's entry groups (which already hold the session).
  void route_unrecorded(Route& out, std::size_t start, RingPoint key) const;

  /// Batch evaluation: route every query.  `out` entries are reused
  /// as scratch (the vector is resized, never shrunk).
  void route_many(const RouteQuery* queries, std::size_t count,
                  Route* out) const;
  void route_many(const std::vector<RouteQuery>& queries,
                  std::vector<Route>& out) const;

  /// Build the finger rows now, filled in parallel on
  /// ThreadPool::global(); the first route builds them otherwise.
  /// Thread-safe and idempotent.  Warm them from the main thread
  /// before a routing-heavy phase: a first route on a pool worker
  /// fills them inline.
  void prepare_rows() const;

  /// Neighbor indices of node i (deduplicated, excludes i itself
  /// unless it is the only resolved neighbor — tiny tables).
  [[nodiscard]] std::vector<std::size_t> neighbors(std::size_t i) const;

  /// P3 verification: would u appear in S_w under the linking rule?
  /// Implemented exactly as the paper prescribes — by searching for
  /// each of w's targets and checking whether the result is u.
  [[nodiscard]] bool should_link(std::size_t w, std::size_t u) const;

  [[nodiscard]] const RingTable& table() const noexcept { return *table_; }
  [[nodiscard]] std::size_t size() const noexcept { return table_->size(); }

 protected:
  /// The overlay's route loop: successor lookups through the table,
  /// per-node candidates from the prepared finger rows.
  virtual void route_indexed(Route& out, std::size_t start,
                             RingPoint key) const = 0;

  /// Entries per finger row (0 = the overlay keeps no rows).
  [[nodiscard]] virtual std::size_t index_row_width() const noexcept {
    return 0;
  }
  /// Fill node i's row (index_row_width() successor indices).
  virtual void fill_index_row(std::size_t i, std::uint32_t* row) const;

  /// Node i's finger row; valid inside route_indexed (every route
  /// prepares the rows first).
  [[nodiscard]] const std::uint32_t* finger_row(std::size_t i) const noexcept {
    return rows_.data() + i * row_width_;
  }

  /// Shared correction tail: walk ring edges toward `target` along
  /// the shorter arc (clockwise on a tie), appending each step to
  /// out.path.  Every overlay but Chord and Chord++ finishes with
  /// this.  Sets out.ok on arrival; leaves it false past the cap.
  void ring_walk(Route& out, std::size_t cur, std::size_t target) const;

  /// Chord's and Chord++'s one route loop: greedy closest-preceding
  /// finger from `start` to suc(key), appending each hop to out.path.
  /// Their rows list the fingers by strictly decreasing offset, the
  /// i-th (from 0) inside [2^(63-i), 2^(64-i)) of the ring, then the
  /// immediate successor.  So a finger's resolved advance is 0 (it
  /// wrapped to the node itself) or at least its offset, and along a
  /// row the advances run zeros, then non-increasing positive values.
  /// Each hop therefore starts at finger countl_zero(distance to key),
  /// as every earlier finger overshoots, and takes the first finger
  /// with 0 < advance <= distance: exactly the largest qualifying
  /// advance a scan of the whole row keeps, in one or two probes.
  /// With none, the immediate successor takes the hop.  Sets out.ok
  /// on arrival; leaves it false past the cap.
  void greedy_finger_walk(Route& out, std::size_t start, RingPoint key) const;

  /// Shared hop cap: any correct route is far shorter; exceeding it
  /// marks the route failed instead of looping.
  [[nodiscard]] std::size_t hop_cap() const noexcept {
    return 8 * 64 + table_->size();
  }

  const RingTable* table_;

 private:
  // Finger rows, built once: the flag makes the warm path lock-free,
  // the mutex serializes the build.
  mutable std::mutex rows_mutex_;
  mutable std::atomic<bool> rows_ready_{false};
  mutable std::vector<std::uint32_t> rows_;  // n * row_width_ indices
  mutable std::size_t row_width_ = 0;
};

}  // namespace tg::overlay
