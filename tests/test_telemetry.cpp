// The telemetry plane: trace-ring wrap semantics, deterministic shard
// merging in the metrics registry, canonical trace ordering (span
// nesting), the stable/unstable export split, capture merge-order
// independence, and virtual-time log stamping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace tg;
using telemetry::EventName;
using telemetry::Probe;
using telemetry::Session;
using telemetry::TraceEvent;
using telemetry::TraceSink;

TraceEvent make_event(std::uint64_t id, std::uint32_t round = 0,
                      char phase = 'n') {
  TraceEvent e{};
  e.round = round;
  e.source = telemetry::kSrcNet;
  e.name = static_cast<std::uint16_t>(EventName::op);
  e.phase = static_cast<std::uint8_t>(phase);
  e.id = id;
  return e;
}

// ---------------------------------------------------------------------------
// TraceSink: ring wrap
// ---------------------------------------------------------------------------

TEST(Telemetry, TraceRingKeepsMostRecentEventsOnWrap) {
  TraceSink sink(/*capacity=*/4);
  for (std::uint64_t id = 0; id < 6; ++id) sink.push(make_event(id));

  EXPECT_EQ(sink.pushed(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);

  std::vector<TraceEvent> events;
  sink.collect(events);
  ASSERT_EQ(events.size(), 4u);
  std::set<std::uint64_t> kept;
  for (const TraceEvent& e : events) kept.insert(e.id);
  // The ring overwrites oldest-first: the survivors are exactly the
  // LAST `capacity` events pushed.
  EXPECT_EQ(kept, (std::set<std::uint64_t>{2, 3, 4, 5}));
}

TEST(Telemetry, TraceRingUnderCapacityDropsNothing) {
  TraceSink sink(/*capacity=*/8);
  for (std::uint64_t id = 0; id < 5; ++id) sink.push(make_event(id));
  EXPECT_EQ(sink.pushed(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
  std::vector<TraceEvent> events;
  sink.collect(events);
  EXPECT_EQ(events.size(), 5u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry: shard merge determinism
// ---------------------------------------------------------------------------

TEST(Telemetry, ShardMergeMatchesSequentialRecordingByteForByte) {
  // The same 256 records made sequentially and fanned across the pool
  // must export identical bytes: per-thread slabs are an invisible
  // mechanism, not a semantic.
  constexpr std::uint64_t kItems = 256;
  Session sequential;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    sequential.count(Probe::overlay_routes);
    sequential.count(Probe::net_messages_sent, i % 3);
    sequential.sample(Probe::overlay_hops, i % 11 + 1);
  }
  Session sharded;
  ThreadPool::global().parallel_for(
      kItems,
      [&](std::size_t i) {
        sharded.count(Probe::overlay_routes);
        sharded.count(Probe::net_messages_sent, i % 3);
        sharded.sample(Probe::overlay_hops, i % 11 + 1);
      },
      /*threads=*/4);

  EXPECT_EQ(sharded.metrics().counter(Probe::overlay_routes), kItems);
  EXPECT_EQ(sequential.metrics_json(), sharded.metrics_json());
}

TEST(Telemetry, GaugeMaxKeepsTheWatermark) {
  Session s;
  s.gauge_max(Probe::process_peak_rss_bytes, 100);
  s.gauge_max(Probe::process_peak_rss_bytes, 50);
  s.gauge_max(Probe::process_peak_rss_bytes, 175);
  s.gauge_max(Probe::process_peak_rss_bytes, 60);
  EXPECT_EQ(s.metrics().gauge(Probe::process_peak_rss_bytes), 175u);
}

// ---------------------------------------------------------------------------
// Canonical trace order: span nesting
// ---------------------------------------------------------------------------

TEST(Telemetry, CanonicalOrderOpensSpansBeforeClosingThem) {
  // 'b' (0x62) < 'e' (0x65): at identical (track, epoch, round,
  // source, name), the canonical comparator opens a span before the
  // close that shares its id — nesting survives any ring order.
  const TraceEvent open = make_event(7, /*round=*/3, 'b');
  const TraceEvent close = make_event(7, /*round=*/3, 'e');
  EXPECT_TRUE(telemetry::trace_event_less(open, close));
  EXPECT_FALSE(telemetry::trace_event_less(close, open));

  // Virtual time dominates phase: a round-2 close precedes a round-3
  // open.
  const TraceEvent earlier_close = make_event(6, /*round=*/2, 'e');
  EXPECT_TRUE(telemetry::trace_event_less(earlier_close, open));

  // Track dominates everything: the export groups by trial first.
  TraceEvent other_track = make_event(0, /*round=*/0, 'b');
  other_track.track = 1;
  EXPECT_TRUE(telemetry::trace_event_less(open, other_track));
}

TEST(Telemetry, ExportedSpanPhasesAppearInCanonicalOrder) {
  Session s;
  s.set_round(5);
  s.event(EventName::op, telemetry::kSrcClient, 'e', /*id=*/9);
  s.set_round(2);
  s.event(EventName::op, telemetry::kSrcClient, 'b', /*id=*/9);
  const std::string json = s.chrome_trace_json();
  const auto b_at = json.find("\"ph\":\"b\"");
  const auto e_at = json.find("\"ph\":\"e\"");
  ASSERT_NE(b_at, std::string::npos);
  ASSERT_NE(e_at, std::string::npos);
  // Pushed close-first, exported open-first: ts (round) orders them.
  EXPECT_LT(b_at, e_at);
}

// ---------------------------------------------------------------------------
// Stable / unstable export split
// ---------------------------------------------------------------------------

TEST(Telemetry, StableExportOmitsUnstableProbes) {
  Session s;
  s.count(Probe::net_rounds, 17);
  s.sample_peak_rss();

  const std::string stable = s.metrics_json();
  EXPECT_NE(stable.find("net.rounds"), std::string::npos);
  EXPECT_EQ(stable.find("process.peak_rss_bytes"), std::string::npos);
  EXPECT_EQ(stable.find("telemetry.trace.dropped"), std::string::npos);

  const std::string full = s.metrics_json(/*include_unstable=*/true);
  EXPECT_NE(full.find("net.rounds"), std::string::npos);
  EXPECT_NE(full.find("process.peak_rss_bytes"), std::string::npos);
  EXPECT_NE(full.find("telemetry.trace.dropped"), std::string::npos);
}

TEST(Telemetry, NamedCountersExportSortedAfterProbes) {
  Session s;
  s.count_named("zeta.custom", 2);
  s.count_named("alpha.custom", 3);
  s.count_named("zeta.custom");
  const std::string json = s.metrics_json();
  const auto alpha = json.find("alpha.custom");
  const auto zeta = json.find("zeta.custom");
  const auto probes = json.find("net.messages.sent");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(probes, alpha);  // probe rows first
  EXPECT_LT(alpha, zeta);    // then dynamic names, sorted
  EXPECT_NE(json.find("{\"name\": \"zeta.custom\", \"value\": 3}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Capture: merge-order independence
// ---------------------------------------------------------------------------

TEST(Telemetry, CaptureExportsAreCreationOrderIndependent) {
  const auto fill = [](Session& s, std::uint64_t salt) {
    s.set_round(static_cast<std::uint32_t>(salt));
    s.count(Probe::workload_ops_issued, salt);
    s.sample(Probe::workload_op_latency_rounds, salt + 1);
    s.event(EventName::op, telemetry::kSrcClient, 'n', /*id=*/salt);
  };

  telemetry::Capture forward;
  fill(forward.session_for(1), 1);
  fill(forward.session_for(2), 2);

  telemetry::Capture reversed;
  fill(reversed.session_for(2), 2);
  fill(reversed.session_for(1), 1);

  EXPECT_EQ(forward.session_count(), 2u);
  EXPECT_EQ(forward.metrics_json({}), reversed.metrics_json({}));
  EXPECT_EQ(forward.chrome_trace_json(), reversed.chrome_trace_json());
}

// ---------------------------------------------------------------------------
// Thread binding
// ---------------------------------------------------------------------------

TEST(Telemetry, ThreadBindShadowsAndRestoresTheGlobalSession) {
  Session global_session;
  Session thread_session;
  telemetry::set_active(&global_session);
  EXPECT_EQ(telemetry::active(), &global_session);
  {
    telemetry::ThreadBind bind(&thread_session);
    EXPECT_EQ(telemetry::active(), &thread_session);
    {
      telemetry::ThreadBind inner(nullptr);
      // A null thread bind exposes the global binding again.
      EXPECT_EQ(telemetry::active(), &global_session);
    }
    EXPECT_EQ(telemetry::active(), &thread_session);
  }
  EXPECT_EQ(telemetry::active(), &global_session);
  telemetry::set_active(nullptr);
  EXPECT_EQ(telemetry::active(), nullptr);
}

// ---------------------------------------------------------------------------
// Log stamping
// ---------------------------------------------------------------------------

TEST(Telemetry, LogLinesCarryVirtualTimeWhenASessionIsActive) {
  Session s;
  s.set_round(42);
  s.set_epoch(3);

  std::ostringstream captured;
  std::streambuf* saved = std::cerr.rdbuf(captured.rdbuf());
  const log::Level saved_level = log::level();
  log::set_level(log::Level::info);

  log::info("plain line");
  {
    telemetry::ThreadBind bind(&s);
    log::info("stamped line");
  }

  log::set_level(saved_level);
  std::cerr.rdbuf(saved);

  const std::string out = captured.str();
  EXPECT_NE(out.find("plain line"), std::string::npos);
  EXPECT_NE(out.find("[r42/e3] stamped line"), std::string::npos);
  // The unbound line carries no virtual-time stamp.
  const auto plain_at = out.find("plain line");
  EXPECT_EQ(out.rfind("[r", plain_at), std::string::npos);
}

}  // namespace
