#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <tuple>

#include "util/rss.hpp"

namespace tg::telemetry {

namespace {

constexpr ProbeInfo kProbeTable[kProbeCount] = {
    {"net.messages.sent", ProbeKind::counter, true},
    {"net.messages.delivered", ProbeKind::counter, true},
    {"net.messages.dropped", ProbeKind::counter, true},
    {"net.messages.delayed", ProbeKind::counter, true},
    {"net.messages.corrupted", ProbeKind::counter, true},
    {"net.rounds", ProbeKind::counter, true},
    {"net.fault.dropped", ProbeKind::counter, true},
    {"net.fault.delayed", ProbeKind::counter, true},
    {"net.fault.duplicated", ProbeKind::counter, true},
    {"net.fault.reordered", ProbeKind::counter, true},
    {"net.delivered_per_round", ProbeKind::histogram, true},
    {"overlay.routes", ProbeKind::counter, true},
    {"overlay.route_failures", ProbeKind::counter, true},
    {"overlay.index.builds", ProbeKind::counter, true},
    {"overlay.hops_per_route", ProbeKind::histogram, true},
    {"core.pristine_builds", ProbeKind::counter, true},
    {"core.epoch_builds", ProbeKind::counter, true},
    {"core.membership.requests", ProbeKind::counter, true},
    {"core.membership.rejects", ProbeKind::counter, true},
    {"core.membership.dual_failures", ProbeKind::counter, true},
    {"core.neighbor.requests", ProbeKind::counter, true},
    {"core.neighbor.rejects", ProbeKind::counter, true},
    {"core.neighbor.dual_failures", ProbeKind::counter, true},
    {"workload.ops.issued", ProbeKind::counter, true},
    {"workload.ops.completed", ProbeKind::counter, true},
    {"workload.ops.failed", ProbeKind::counter, true},
    {"workload.ops.timed_out", ProbeKind::counter, true},
    {"workload.retries", ProbeKind::counter, true},
    {"workload.hedges", ProbeKind::counter, true},
    {"workload.stale_replies", ProbeKind::counter, true},
    {"workload.red_drops", ProbeKind::counter, true},
    {"workload.op_latency_rounds", ProbeKind::histogram, true},
    {"process.peak_rss_bytes", ProbeKind::gauge, false},
};

constexpr EventInfo kEventTable[kEventNameCount] = {
    {"op", "workload", "kind", "outcome"},
    {"op.route", "workload", "group", "hops"},
    {"op.hop", "workload", "from", "to"},
    {"op.red_drop", "workload", "group", ""},
    {"op.serve", "workload", "group", "status"},
    {"op.attempt", "workload", "attempt", "hedge"},
    {"op.stale", "workload", "group", ""},
    {"net.round", "net", "delivered", "sent"},
    {"overlay.index_rebuild", "overlay", "", "nodes"},
    {"core.pristine_build", "core", "n", "groups"},
    {"core.epoch.membership", "core", "requests", "rejects"},
    {"core.epoch.neighbors", "core", "requests", "rejects"},
    {"core.epoch.build", "core", "epoch", ""},
};

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Domain label of a source id, for Chrome thread_name metadata.
std::string source_label(std::uint32_t source) {
  const std::uint32_t domain = source >> 28;
  const std::uint32_t entity = source & ((1u << 28) - 1);
  switch (domain) {
    case 1: return "net";
    case 2: return "overlay";
    case 3: return "core";
    case 4: return "group " + std::to_string(entity);
    case 5: return "client " + std::to_string(entity);
    default: return "source " + std::to_string(source);
  }
}

}  // namespace

const ProbeInfo& probe_info(Probe p) noexcept {
  return kProbeTable[static_cast<std::size_t>(p)];
}

const EventInfo& event_info(EventName n) noexcept {
  return kEventTable[static_cast<std::size_t>(n)];
}

bool trace_event_less(const TraceEvent& x, const TraceEvent& y) noexcept {
  return std::tie(x.track, x.epoch, x.round, x.source, x.name, x.phase, x.id,
                  x.a, x.b) <
         std::tie(y.track, y.epoch, y.round, y.source, y.name, y.phase, y.id,
                  y.a, y.b);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

void MetricsRegistry::gauge_max(Probe p, std::uint64_t value) noexcept {
  auto& cell = gauges_[static_cast<std::size_t>(p)];
  std::uint64_t seen = cell.load(std::memory_order_relaxed);
  while (seen < value &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::count_named(std::string_view name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(named_mutex_);
  auto it = named_.find(name);
  if (it == named_.end()) {
    named_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t MetricsRegistry::counter(Probe p) const {
  std::uint64_t total = 0;
  const auto idx = static_cast<std::size_t>(p);
  slabs_.for_each([&](const Slab& slab) { total += slab.counters[idx]; });
  return total;
}

std::uint64_t MetricsRegistry::gauge(Probe p) const noexcept {
  return gauges_[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
}

LogHistogram MetricsRegistry::histogram(Probe p) const {
  LogHistogram merged;
  const auto slot = static_cast<std::size_t>(histogram_slot(p));
  slabs_.for_each(
      [&](const Slab& slab) { merged.merge(slab.hists[slot]); });
  return merged;
}

std::map<std::string, std::uint64_t> MetricsRegistry::named() const {
  std::lock_guard<std::mutex> lock(named_mutex_);
  return {named_.begin(), named_.end()};
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

std::uint64_t TraceSink::pushed() const {
  std::uint64_t total = 0;
  rings_.for_each([&](const Ring& ring) { total += ring.head; });
  return total;
}

std::uint64_t TraceSink::dropped() const {
  std::uint64_t total = 0;
  rings_.for_each([&](const Ring& ring) {
    if (ring.head > capacity_) total += ring.head - capacity_;
  });
  return total;
}

void TraceSink::collect(std::vector<TraceEvent>& out) const {
  rings_.for_each([&](const Ring& ring) {
    const std::uint64_t kept =
        std::min<std::uint64_t>(ring.head, capacity_);
    for (std::uint64_t i = 0; i < kept; ++i) out.push_back(ring.events[i]);
  });
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

void Session::sample_peak_rss() {
  metrics_.gauge_max(Probe::process_peak_rss_bytes, util::peak_rss_bytes());
}

std::string Session::metrics_json(bool include_unstable) const {
  return telemetry::metrics_json({this}, {}, include_unstable);
}

std::string Session::chrome_trace_json() const {
  return telemetry::chrome_trace_json({this});
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

std::string metrics_json(const std::vector<const Session*>& sessions,
                         const ExportMeta& meta, bool include_unstable) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"bench\": \"telemetry.metrics\",\n  \"schema\": 1,\n";
  out += "  \"meta\": {\n    \"generator\": \"tg::telemetry\"";
  for (const auto& [key, value] : meta) {
    out += ",\n    ";
    append_json_string(out, key);
    out += ": ";
    append_json_string(out, value);
  }
  out += "\n  },\n  \"metrics\": [\n";

  bool first_row = true;
  const auto begin_row = [&] {
    if (!first_row) out += ",\n";
    first_row = false;
    out += "    {\"name\": ";
  };

  std::uint64_t trace_pushed = 0;
  std::uint64_t trace_dropped = 0;
  for (const Session* s : sessions) {
    trace_pushed += s->trace().pushed();
    trace_dropped += s->trace().dropped();
  }

  for (std::size_t i = 0; i < kProbeCount; ++i) {
    const auto probe = static_cast<Probe>(i);
    const ProbeInfo& info = kProbeTable[i];
    if (!info.stable && !include_unstable) continue;
    begin_row();
    append_json_string(out, info.name);
    switch (info.kind) {
      case ProbeKind::counter: {
        std::uint64_t total = 0;
        for (const Session* s : sessions) total += s->metrics().counter(probe);
        out += ", \"value\": ";
        append_u64(out, total);
        break;
      }
      case ProbeKind::gauge: {
        std::uint64_t value = 0;
        for (const Session* s : sessions) {
          value = std::max(value, s->metrics().gauge(probe));
        }
        out += ", \"value\": ";
        append_u64(out, value);
        break;
      }
      case ProbeKind::histogram: {
        LogHistogram merged;
        for (const Session* s : sessions) {
          merged.merge(s->metrics().histogram(probe));
        }
        out += ", \"count\": ";
        append_u64(out, merged.count());
        out += ", \"min\": ";
        append_u64(out, merged.min());
        out += ", \"p50\": ";
        append_u64(out, merged.p50());
        out += ", \"p90\": ";
        append_u64(out, merged.p90());
        out += ", \"p99\": ";
        append_u64(out, merged.p99());
        out += ", \"p999\": ";
        append_u64(out, merged.p999());
        out += ", \"max\": ";
        append_u64(out, merged.max());
        break;
      }
    }
    out += '}';
  }

  // Telemetry self-accounting: pushed events are a pure function of
  // the run (stable); drops depend on how events spread across rings.
  begin_row();
  append_json_string(out, "telemetry.trace.events");
  out += ", \"value\": ";
  append_u64(out, trace_pushed);
  out += '}';
  if (include_unstable) {
    begin_row();
    append_json_string(out, "telemetry.trace.dropped");
    out += ", \"value\": ";
    append_u64(out, trace_dropped);
    out += '}';
  }

  std::map<std::string, std::uint64_t> named;
  for (const Session* s : sessions) {
    for (const auto& [name, value] : s->metrics().named()) {
      named[name] += value;
    }
  }
  for (const auto& [name, value] : named) {
    begin_row();
    append_json_string(out, name);
    out += ", \"value\": ";
    append_u64(out, value);
    out += '}';
  }

  out += "\n  ]\n}\n";
  return out;
}

std::string chrome_trace_json(const std::vector<const Session*>& sessions) {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  for (const Session* s : sessions) {
    s->trace().collect(events);
    dropped += s->trace().dropped();
  }
  std::sort(events.begin(), events.end(), trace_event_less);

  // pid = 1 + rank of the event's track among the distinct tracks of
  // the sorted stream; tid = source.  Both named via metadata events.
  std::map<std::uint64_t, std::uint32_t> pid_of_track;
  for (const TraceEvent& e : events) {
    pid_of_track.emplace(
        e.track, static_cast<std::uint32_t>(pid_of_track.size() + 1));
  }

  std::string out;
  out.reserve(events.size() * 96 + 1024);
  out += "{\"traceEvents\":[";
  bool first = true;
  const auto emit_sep = [&] {
    if (!first) out += ",";
    first = false;
    out += "\n";
  };

  for (const auto& [track, pid] : pid_of_track) {
    emit_sep();
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"track %016" PRIx64 "\"}}",
                  pid, track);
    out += buf;
  }
  {
    // One thread_name metadata event per distinct (pid, source).
    std::map<std::pair<std::uint32_t, std::uint32_t>, bool> seen;
    for (const TraceEvent& e : events) {
      const std::uint32_t pid = pid_of_track.at(e.track);
      if (!seen.emplace(std::make_pair(pid, e.source), true).second) continue;
      emit_sep();
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
      append_u64(out, pid);
      out += ",\"tid\":";
      append_u64(out, e.source);
      out += ",\"args\":{\"name\":";
      append_json_string(out, source_label(e.source));
      out += "}}";
    }
  }

  std::map<std::uint32_t, std::uint64_t> seq_of_source;
  for (const TraceEvent& e : events) {
    const EventInfo& info = kEventTable[e.name];
    const std::uint32_t pid = pid_of_track.at(e.track);
    const std::uint64_t seq = seq_of_source[e.source]++;
    const char phase = static_cast<char>(e.phase);
    emit_sep();
    out += "{\"name\":";
    append_json_string(out, info.name);
    out += ",\"cat\":";
    append_json_string(out, info.category);
    out += ",\"ph\":\"";
    out += phase;
    out += "\",\"pid\":";
    append_u64(out, pid);
    out += ",\"tid\":";
    append_u64(out, e.source);
    out += ",\"ts\":";
    append_u64(out, e.round);
    if (phase == 'b' || phase == 'e' || phase == 'n') {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%" PRIx64 "\"", e.id);
      out += buf;
    }
    if (phase == 'i') out += ",\"s\":\"t\"";
    out += ",\"args\":{\"seq\":";
    append_u64(out, seq);
    out += ",\"epoch\":";
    append_u64(out, e.epoch);
    if (info.key_a[0] != '\0') {
      out += ",";
      append_json_string(out, info.key_a);
      out += ":";
      append_u64(out, e.a);
    }
    if (info.key_b[0] != '\0') {
      out += ",";
      append_json_string(out, info.key_b);
      out += ":";
      append_u64(out, e.b);
    }
    out += "}}";
  }

  out += "\n],\"otherData\":{\"dropped_events\":\"";
  append_u64(out, dropped);
  out += "\"}}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Binding + Capture
// ---------------------------------------------------------------------------

namespace detail {

thread_local Session* tls_session = nullptr;
std::atomic<Session*> g_session{nullptr};
std::atomic<Capture*> g_capture{nullptr};

std::uint64_t off_path_guard_probe(std::uint64_t iters) noexcept {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (Session* s = active()) acc += s->round();
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : "+r"(acc));
#endif
  }
  return acc;
}

}  // namespace detail

Session& Capture::session_for(std::uint64_t track_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(track_key);
  if (it == sessions_.end()) {
    it = sessions_.emplace(track_key, std::make_unique<Session>(config_))
             .first;
    it->second->set_track(track_key);
  }
  return *it->second;
}

std::size_t Capture::session_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

std::vector<const Session*> Capture::sorted_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Session*> out;
  out.reserve(sessions_.size());
  for (const auto& [key, session] : sessions_) out.push_back(session.get());
  return out;
}

std::string Capture::metrics_json(const ExportMeta& meta,
                                  bool include_unstable) const {
  return telemetry::metrics_json(sorted_sessions(), meta, include_unstable);
}

std::string Capture::chrome_trace_json() const {
  return telemetry::chrome_trace_json(sorted_sessions());
}

std::uint64_t Capture::trace_dropped() const {
  std::uint64_t total = 0;
  for (const Session* s : sorted_sessions()) total += s->trace().dropped();
  return total;
}

}  // namespace tg::telemetry
