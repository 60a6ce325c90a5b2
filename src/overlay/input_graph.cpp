#include "overlay/input_graph.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace tg::overlay {

void RoutePath::grow() {
  const std::size_t new_capacity = capacity_ * 2;
  auto* fresh = new value_type[new_capacity];
  std::memcpy(fresh, data_, size_ * sizeof(value_type));
  if (data_ != inline_) delete[] data_;
  data_ = fresh;
  capacity_ = new_capacity;
}

void RoutePath::append(const value_type* src, std::size_t count) {
  while (capacity_ < size_ + count) grow();
  std::memcpy(data_ + size_, src, count * sizeof(value_type));
  size_ += count;
}

InputGraph::InputGraph(const RingTable& table) : table_(&table) {}

InputGraph::~InputGraph() = default;

Route InputGraph::route(std::size_t start, RingPoint key) const {
  Route r;
  route_into(r, start, key);
  return r;
}

// Counts are pure functions of the queries, so they are identical at
// any executor width; a failed route carries no meaningful hop count.
void record_route(telemetry::Session& session, bool routed,
                  std::size_t hops) {
  session.count(telemetry::Probe::overlay_routes);
  if (routed) {
    session.sample(telemetry::Probe::overlay_hops, hops);
  } else {
    session.count(telemetry::Probe::overlay_route_failures);
  }
}

void InputGraph::route_into(Route& out, std::size_t start,
                            RingPoint key) const {
  route_unrecorded(out, start, key);
  if (auto* session = telemetry::active()) {
    record_route(*session, out.ok, out.hops());
  }
}

void InputGraph::route_unrecorded(Route& out, std::size_t start,
                                  RingPoint key) const {
  prepare_rows();
  out.reset();
  route_indexed(out, start, key);
}

void InputGraph::route_many(const RouteQuery* queries, std::size_t count,
                            Route* out) const {
  if (count == 0) return;
  prepare_rows();
  for (std::size_t q = 0; q < count; ++q) {
    out[q].reset();
    route_indexed(out[q], queries[q].start, queries[q].key);
  }
  if (auto* session = telemetry::active()) {
    for (std::size_t q = 0; q < count; ++q) {
      record_route(*session, out[q].ok, out[q].hops());
    }
  }
}

void InputGraph::route_many(const std::vector<RouteQuery>& queries,
                            std::vector<Route>& out) const {
  if (out.size() < queries.size()) out.resize(queries.size());
  route_many(queries.data(), queries.size(), out.data());
}

void InputGraph::prepare_rows() const {
  if (rows_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(rows_mutex_);
  if (rows_ready_.load(std::memory_order_relaxed)) return;
  row_width_ = index_row_width();
  rows_.resize(size() * row_width_);
  if (row_width_ > 0) {
    // One lookup cascade per node: fan it out across the global pool.
    // Reentrant calls from pool workers degrade to an inline
    // sequential fill, which is still correct.
    tg::ThreadPool::global().parallel_for(size(), [this](std::size_t i) {
      fill_index_row(i, rows_.data() + i * row_width_);
    });
  }
  rows_ready_.store(true, std::memory_order_release);
  if (auto* session = telemetry::active()) {
    session->count(telemetry::Probe::overlay_index_builds);
    session->event(telemetry::EventName::index_rebuild,
                   telemetry::kSrcOverlay, 'i', /*id=*/0, /*a=*/0,
                   /*b=*/size());
  }
}

void InputGraph::fill_index_row(std::size_t, std::uint32_t*) const {}

void InputGraph::ring_walk(Route& out, std::size_t cur,
                           std::size_t target) const {
  const std::vector<RingPoint>& pts = table_->points();
  const std::size_t m = pts.size();
  const std::size_t cap = hop_cap();
  while (cur != target) {
    if (out.path.size() > cap) return;  // ok stays false
    const std::uint64_t cw = pts[cur].cw_distance_to(pts[target]);
    if (cw <= ids::kHalfRing) {
      cur = (cur + 1) % m;
    } else {
      cur = (cur + m - 1) % m;
    }
    out.path.push_back(cur);
  }
  out.ok = true;
}

void InputGraph::greedy_finger_walk(Route& out, std::size_t start,
                                    RingPoint key) const {
  const std::size_t target = table_->successor_index(key);
  const std::vector<RingPoint>& pts = table_->points();
  const std::size_t fingers = row_width_ - 1;
  const std::size_t cap = hop_cap();
  std::size_t cur = start;
  out.path.push_back(cur);
  while (cur != target) {
    if (out.path.size() > cap) return;  // ok stays false
    const RingPoint cur_pt = pts[cur];
    const std::uint64_t dist_to_key = cur_pt.cw_distance_to(key);
    const std::uint32_t* row = finger_row(cur);
    std::size_t next = row[fingers];  // the immediate successor
    for (auto i = static_cast<std::size_t>(std::countl_zero(dist_to_key));
         i < fingers; ++i) {
      const std::uint64_t advance = cur_pt.cw_distance_to(pts[row[i]]);
      if (advance > 0 && advance <= dist_to_key) {
        next = row[i];
        break;
      }
    }
    cur = next;
    out.path.push_back(cur);
  }
  out.ok = true;
}

std::vector<std::size_t> InputGraph::neighbors(std::size_t i) const {
  std::vector<std::size_t> out;
  const RingPoint x = table_->at(i);
  for (const RingPoint target : link_targets(x)) {
    out.push_back(table_->successor_index(target));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  // Drop i itself, but never down to an empty set: on a single-node
  // table every link resolves back to i and the node is its own
  // neighbor by convention.
  if (out.size() > 1) {
    const auto self = std::lower_bound(out.begin(), out.end(), i);
    if (self != out.end() && *self == i) out.erase(self);
  }
  return out;
}

bool InputGraph::should_link(std::size_t w, std::size_t u) const {
  const RingPoint x = table_->at(w);
  for (const RingPoint target : link_targets(x)) {
    if (table_->successor_index(target) == u) return true;
  }
  return false;
}

}  // namespace tg::overlay
