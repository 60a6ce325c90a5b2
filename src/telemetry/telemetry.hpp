// The deterministic telemetry plane: a process-wide metrics registry
// (counters, gauges, log-scale histograms) plus a trace sink of
// ring-buffered span/instant events stamped in VIRTUAL time (round,
// epoch, source) — never wall clock on the hot path.
//
// Determinism contract (docs/ARCHITECTURE.md, "Telemetry plane"):
//
//   1. OFF-PATH IDENTITY.  Telemetry is off by default.  Every
//      instrumentation site is guarded by `telemetry::active()` — a
//      thread-local load plus one relaxed/acquire atomic load — and
//      with no session bound the instrumented code takes no other
//      action: delivered traffic, trace hashes, and results are
//      byte-identical to a build without the calls.  bench_telemetry
//      asserts this in-binary and gates the guard cost.
//   2. VIRTUAL TIME ONLY.  Events and metrics are stamped with the
//      session's (round, epoch, track) context and integer values.
//      Nothing reads a clock, a thread id, or an address on the
//      record path, so recorded values are pure functions of the
//      computation.
//   3. MERGE-ORDER FREEDOM.  Per-thread metric shards merge by
//      summation (counters), pointwise addition (histograms), or max
//      (gauges) — commutative, so totals are identical at any executor
//      width, exactly like the workload recorder merges.  Trace events
//      are sorted into a canonical total order (track, epoch, round,
//      source, name, phase, id, args) before export; events with equal
//      keys are identical records, so the exported bytes are invariant
//      under any thread interleaving.
//   4. STABLE vs UNSTABLE metrics.  A metric that is inherently
//      allocator- or OS-dependent (the process RSS watermark) is
//      marked unstable in the probe table and EXCLUDED from the
//      default export, which is what the 1-vs-N-thread byte-equality
//      gates compare; `include_unstable` opts it back in for
//      diagnostics.
//
// Binding model: `set_active()` binds one session process-wide (bench
// and single-run flows; pool workers see it via the global).
// `ThreadBind` binds a session to the CURRENT thread only (campaign
// trial fan-out: each concurrent trial runs entirely on its shard
// worker — `workload::run` drives its Network at threads=1 and
// re-entrant pool use degrades to inline execution — so per-thread
// binding is race-free).  `Capture` owns one session per track key and
// merges them in sorted-key order at export, making the campaign
// artifacts independent of trial fan-out width.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/histogram.hpp"

namespace tg::telemetry {

// ---------------------------------------------------------------------------
// Probes: the fixed metric namespace.
// ---------------------------------------------------------------------------

/// Every built-in metric, in export order.  A FIXED enum (not lazy
/// interning) so metric ids never depend on which thread touched a
/// probe first.  Dynamic `count_named` metrics sort after these.
enum class Probe : std::uint16_t {
  net_messages_sent,
  net_messages_delivered,
  net_messages_dropped,
  net_messages_delayed,
  net_messages_corrupted,
  net_rounds,
  net_fault_dropped,
  net_fault_delayed,
  net_fault_duplicated,
  net_fault_reordered,
  net_delivered_per_round,    // histogram
  overlay_routes,
  overlay_route_failures,
  overlay_index_builds,
  overlay_hops,               // histogram: hops per resolved route
  core_pristine_builds,
  core_epoch_builds,
  core_membership_requests,
  core_membership_rejects,
  core_membership_dual_failures,
  core_neighbor_requests,
  core_neighbor_rejects,
  core_neighbor_dual_failures,
  workload_ops_issued,
  workload_ops_completed,
  workload_ops_failed,
  workload_ops_timed_out,
  workload_retries,
  workload_hedges,
  workload_stale_replies,
  workload_red_drops,
  workload_op_latency_rounds, // histogram
  process_peak_rss_bytes,     // gauge; UNSTABLE: allocator/OS dependent
  kCount
};

inline constexpr std::size_t kProbeCount =
    static_cast<std::size_t>(Probe::kCount);

enum class ProbeKind : std::uint8_t { counter, gauge, histogram };

struct ProbeInfo {
  const char* name;  ///< dotted export name, e.g. "net.messages.sent"
  ProbeKind kind;
  bool stable;  ///< included in the byte-identity-gated default export
};

[[nodiscard]] const ProbeInfo& probe_info(Probe p) noexcept;

/// Dense slot of a histogram probe in the per-thread slab, -1 for
/// counters/gauges.  Keep in sync with the enum above.
[[nodiscard]] constexpr int histogram_slot(Probe p) noexcept {
  switch (p) {
    case Probe::net_delivered_per_round: return 0;
    case Probe::overlay_hops: return 1;
    case Probe::workload_op_latency_rounds: return 2;
    default: return -1;
  }
}
inline constexpr std::size_t kHistogramSlots = 3;

// ---------------------------------------------------------------------------
// Trace events: the fixed span/instant namespace.
// ---------------------------------------------------------------------------

/// Every trace event name, fixed for the same reason as Probe.
enum class EventName : std::uint16_t {
  op,                ///< async span 'b'/'e': one client op (id = op id)
  op_route,          ///< 'n': entry-group route resolved (a=dst group, b=hops)
  op_hop,            ///< 'n': per-hop transit (a=from group, b=to group)
  op_red_drop,       ///< 'n': silently dropped at a red group (a=group)
  op_serve,          ///< 'n': executed at the responsible group (a=group, b=status)
  op_attempt,        ///< 'n': retry/hedge attempt sent (a=attempt#, b=1 if hedge)
  op_stale,          ///< 'n': reply to an already-settled op (a=group)
  net_round,         ///< 'C': per-round delivery counter (a=delivered, b=sent)
  index_rebuild,     ///< 'i': overlay rows prepared, once per topology (b=nodes)
  pristine_build,    ///< 'i': pristine group graph built (a=n, b=groups)
  epoch_membership,  ///< 'i': epoch-build membership phase (a=requests, b=rejects)
  epoch_neighbors,   ///< 'i': epoch-build neighbor phase (a=requests, b=rejects)
  epoch_build,       ///< 'i': epoch build completed (a=epoch)
  kCount
};

inline constexpr std::size_t kEventNameCount =
    static_cast<std::size_t>(EventName::kCount);

struct EventInfo {
  const char* name;      ///< Chrome trace "name"
  const char* category;  ///< Chrome trace "cat"
  const char* key_a;     ///< arg key of `a` ("" = omit)
  const char* key_b;     ///< arg key of `b` ("" = omit)
};

[[nodiscard]] const EventInfo& event_info(EventName n) noexcept;

/// Event source ids: a domain tag in the high nibble-ish bits plus an
/// entity index in the low bits.  Becomes the Chrome trace `tid`.
inline constexpr std::uint32_t kSrcNet = 1u << 28;
inline constexpr std::uint32_t kSrcOverlay = 2u << 28;
inline constexpr std::uint32_t kSrcCore = 3u << 28;
inline constexpr std::uint32_t kSrcGroup = 4u << 28;   // + group index
inline constexpr std::uint32_t kSrcClient = 5u << 28;  // + issuer node id

/// One recorded event.  48 bytes; stamped entirely from virtual time.
/// `phase` is the Chrome trace phase byte: 'b'/'e' async span
/// begin/end, 'n' async instant, 'i' thread instant, 'C' counter.
struct TraceEvent {
  std::uint64_t track = 0;
  std::uint32_t epoch = 0;
  std::uint32_t round = 0;
  std::uint32_t source = 0;
  std::uint16_t name = 0;
  std::uint8_t phase = 0;
  std::uint64_t id = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Canonical total order of the export (see contract point 3).
[[nodiscard]] bool trace_event_less(const TraceEvent& x,
                                    const TraceEvent& y) noexcept;

namespace detail {

/// Per-thread slot map: each thread lazily owns one T per instance.
/// The fast path is a thread_local (owner id, slot) cache — one
/// comparison when the same instance records repeatedly from the same
/// thread, a mutex-guarded lookup otherwise.  Slots are only iterated
/// at quiescent export points, so the T payloads need no atomics.
template <typename T>
class ThreadSlots {
 public:
  ThreadSlots() : id_(next_id()) {}
  ThreadSlots(const ThreadSlots&) = delete;
  ThreadSlots& operator=(const ThreadSlots&) = delete;

  [[nodiscard]] T& local() {
    thread_local std::uint64_t cached_id = 0;
    thread_local T* cached_slot = nullptr;
    if (cached_id == id_) return *cached_slot;
    T& slot = lookup(std::this_thread::get_id());
    cached_id = id_;
    cached_slot = &slot;
    return slot;
  }

  /// Quiescent-point iteration over every thread's slot.
  template <typename F>
  void for_each(F&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : slots_) fn(*entry.second);
  }

 private:
  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  T& lookup(std::thread::id tid) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& entry : slots_) {
      if (entry.first == tid) return *entry.second;
    }
    slots_.emplace_back(tid, std::make_unique<T>());
    return *slots_.back().second;
  }

  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<T>>> slots_;
};

/// Timed by bench_telemetry to price the disabled-session guard; kept
/// out of line so the measurement survives optimization.
[[nodiscard]] std::uint64_t off_path_guard_probe(std::uint64_t iters) noexcept;

}  // namespace detail

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// Sharded metric storage: per-thread slabs of plain u64 counters and
/// histograms (no atomics — merged only at quiescent points), plus
/// max-merged atomic gauges and a mutex-guarded map for rare dynamic
/// names.  All merges are commutative (contract point 3).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  void count(Probe p, std::uint64_t delta = 1) {
    slabs_.local().counters[static_cast<std::size_t>(p)] += delta;
  }
  void sample(Probe p, std::uint64_t value) {
    slabs_.local().hists[static_cast<std::size_t>(histogram_slot(p))].record(
        value);
  }
  /// Gauges keep the max observed value (watermark semantics).
  void gauge_max(Probe p, std::uint64_t value) noexcept;
  /// Dynamic named counter (export-sorted by name; off the hot path).
  void count_named(std::string_view name, std::uint64_t delta = 1);

  // Quiescent-point reads: merged across every thread's slab.
  [[nodiscard]] std::uint64_t counter(Probe p) const;
  [[nodiscard]] std::uint64_t gauge(Probe p) const noexcept;
  [[nodiscard]] LogHistogram histogram(Probe p) const;
  [[nodiscard]] std::map<std::string, std::uint64_t> named() const;

 private:
  struct Slab {
    std::array<std::uint64_t, kProbeCount> counters{};
    std::array<LogHistogram, kHistogramSlots> hists{};
  };
  detail::ThreadSlots<Slab> slabs_;
  std::array<std::atomic<std::uint64_t>, kProbeCount> gauges_{};
  mutable std::mutex named_mutex_;
  std::map<std::string, std::uint64_t, std::less<>> named_;
};

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

/// Per-thread ring buffers of TraceEvents.  Fixed capacity per thread;
/// overwrites the oldest events on wrap and counts the overwritten as
/// dropped.  The determinism contract requires dropped == 0 — the
/// exporter surfaces the drop count so a truncated trace is loud, and
/// the byte-equality gates fail naturally when rings wrap (drops
/// depend on how events spread across threads).
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity) : capacity_(capacity) {}

  void push(const TraceEvent& e) {
    Ring& ring = rings_.local();
    if (ring.events.size() != capacity_) ring.events.resize(capacity_);
    ring.events[ring.head % capacity_] = e;
    ++ring.head;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total events pushed (deterministic: a pure function of the run).
  [[nodiscard]] std::uint64_t pushed() const;
  /// Events overwritten by ring wrap (0 under the contract).
  [[nodiscard]] std::uint64_t dropped() const;
  /// Every retained event, unordered (callers sort canonically).
  void collect(std::vector<TraceEvent>& out) const;

 private:
  struct Ring {
    std::vector<TraceEvent> events;  // sized to capacity on first push
    std::uint64_t head = 0;
  };
  const std::size_t capacity_;
  detail::ThreadSlots<Ring> rings_;
};

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// One telemetry recording context: a registry + a trace sink + the
/// virtual-time stamp (round / epoch / track) the instrumentation
/// sites read.  The stamp cells are relaxed atomics: they are written
/// by the thread driving the instrumented phase and read by the same
/// thread's record calls, so ordering never matters — the atomics just
/// keep mixed-thread use (global binding + pool workers) defined.
class Session {
 public:
  struct Config {
    std::size_t trace_capacity = std::size_t{1} << 15;  ///< events/thread
  };

  Session() : Session(Config{}) {}
  explicit Session(const Config& cfg) : trace_(cfg.trace_capacity) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Virtual-time context.
  void set_round(std::uint32_t r) noexcept {
    round_.store(r, std::memory_order_relaxed);
  }
  void set_epoch(std::uint32_t e) noexcept {
    epoch_.store(e, std::memory_order_relaxed);
  }
  void set_track(std::uint64_t t) noexcept {
    track_.store(t, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t round() const noexcept {
    return round_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t track() const noexcept {
    return track_.load(std::memory_order_relaxed);
  }

  // Recording.
  void count(Probe p, std::uint64_t delta = 1) { metrics_.count(p, delta); }
  void sample(Probe p, std::uint64_t value) { metrics_.sample(p, value); }
  void gauge_max(Probe p, std::uint64_t value) noexcept {
    metrics_.gauge_max(p, value);
  }
  void count_named(std::string_view name, std::uint64_t delta = 1) {
    metrics_.count_named(name, delta);
  }
  void event(EventName n, std::uint32_t source, char phase,
             std::uint64_t id = 0, std::uint64_t a = 0, std::uint64_t b = 0) {
    TraceEvent e;
    e.track = track();
    e.epoch = epoch();
    e.round = round();
    e.source = source;
    e.name = static_cast<std::uint16_t>(n);
    e.phase = static_cast<std::uint8_t>(phase);
    e.id = id;
    e.a = a;
    e.b = b;
    trace_.push(e);
  }
  /// Samples the process peak-RSS watermark into the (unstable) gauge.
  void sample_peak_rss();

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const TraceSink& trace() const noexcept { return trace_; }

  /// Single-session exports (see the free functions below for the
  /// multi-session merge the campaign Capture uses).
  [[nodiscard]] std::string metrics_json(bool include_unstable = false) const;
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  MetricsRegistry metrics_;
  TraceSink trace_;
  std::atomic<std::uint32_t> round_{0};
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint64_t> track_{0};
};

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// Free-form metadata attached to the metrics JSON "meta" object
/// (values emitted as strings; tools/validate_bench_json.py accepts
/// strings for every meta key).
using ExportMeta = std::vector<std::pair<std::string, std::string>>;

/// Schema-1 metrics JSON ("bench": "telemetry.metrics") merging the
/// given sessions: counters sum, histograms merge pointwise, gauges
/// max.  Row order: probe enum order, then dynamic names sorted.
/// Unstable probes are omitted unless `include_unstable` (contract
/// point 4).
[[nodiscard]] std::string metrics_json(
    const std::vector<const Session*>& sessions, const ExportMeta& meta,
    bool include_unstable = false);

/// Chrome trace-event JSON (object form, loadable in Perfetto /
/// chrome://tracing): all sessions' events in the canonical order,
/// pid = rank of the event's track among the distinct tracks, tid =
/// source, ts = round (virtual microseconds).  Per-source sequence
/// numbers are assigned after the canonical sort and emitted as
/// args.seq, so every event carries a deterministic total-order index.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<const Session*>& sessions);

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

class Capture;

namespace detail {
extern thread_local Session* tls_session;
extern std::atomic<Session*> g_session;
extern std::atomic<Capture*> g_capture;
}  // namespace detail

/// The session the current thread records into: the thread binding if
/// one is active, else the process-wide binding, else nullptr (off).
/// This IS the off-path guard — call sites do nothing else when it
/// returns nullptr.
[[nodiscard]] inline Session* active() noexcept {
  if (Session* s = detail::tls_session) return s;
  return detail::g_session.load(std::memory_order_acquire);
}

/// Process-wide binding (bench / single-run flows).  Pass nullptr to
/// unbind.  The session must outlive the binding.
inline void set_active(Session* s) noexcept {
  detail::g_session.store(s, std::memory_order_release);
}

/// Scoped THREAD-LOCAL binding for trial fan-out: the bound session
/// shadows any global binding on this thread only; restores the
/// previous thread binding on destruction.
class ThreadBind {
 public:
  explicit ThreadBind(Session* s) noexcept : prev_(detail::tls_session) {
    detail::tls_session = s;
  }
  ~ThreadBind() { detail::tls_session = prev_; }
  ThreadBind(const ThreadBind&) = delete;
  ThreadBind& operator=(const ThreadBind&) = delete;

 private:
  Session* prev_;
};

// Guarded conveniences for one-shot sites.
inline void count(Probe p, std::uint64_t delta = 1) {
  if (Session* s = active()) s->count(p, delta);
}
inline void sample(Probe p, std::uint64_t value) {
  if (Session* s = active()) s->sample(p, value);
}
inline void set_round(std::uint32_t r) noexcept {
  if (Session* s = active()) s->set_round(r);
}
inline void set_epoch(std::uint32_t e) noexcept {
  if (Session* s = active()) s->set_epoch(e);
}

// ---------------------------------------------------------------------------
// Capture: per-track sessions for campaign trial fan-out.
// ---------------------------------------------------------------------------

/// Owns one Session per track key (campaign trials key by their trial
/// seed).  Sessions are created on demand under a mutex; exports merge
/// every session in sorted-key order, so the merged artifacts are
/// independent of which shard worker ran which trial and of the
/// fan-out width.
class Capture {
 public:
  explicit Capture(Session::Config config = {}) : config_(config) {}
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  /// The session recording track `track_key`, created on first use
  /// (with its track stamp pre-set to the key).
  [[nodiscard]] Session& session_for(std::uint64_t track_key);

  /// Monotone scope id for trial fan-outs: each sim::for_each_trial
  /// call claims one scope and keys its trials as
  /// (scope << 32) | trial, so sequential campaign cells never collide
  /// on a track.  Counts from zero per Capture, which keeps repeated
  /// runs against fresh captures byte-comparable.
  [[nodiscard]] std::uint64_t next_scope() noexcept {
    return scope_counter_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] std::string metrics_json(const ExportMeta& meta,
                                         bool include_unstable = false) const;
  [[nodiscard]] std::string chrome_trace_json() const;
  /// Sum of dropped trace events across sessions (0 under contract).
  [[nodiscard]] std::uint64_t trace_dropped() const;

 private:
  [[nodiscard]] std::vector<const Session*> sorted_sessions() const;

  const Session::Config config_;
  std::atomic<std::uint64_t> scope_counter_{0};
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
};

/// Process-wide capture registration (the campaign CLI sets this when
/// --metrics-out/--trace-out are given; sim::for_each_trial, the
/// fan-out under both trial runners, binds a per-trial session from
/// it around each trial).  Not owned.
inline void set_capture(Capture* c) noexcept {
  detail::g_capture.store(c, std::memory_order_release);
}
[[nodiscard]] inline Capture* capture() noexcept {
  return detail::g_capture.load(std::memory_order_acquire);
}

}  // namespace tg::telemetry
