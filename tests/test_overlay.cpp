// Tests for the input graphs: routing correctness, linking rules, and
// the P1-P4 properties of Section I-C — parameterized across all three
// overlay families (TEST_P sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>
#include <vector>

#include "adversary/omit_ids.hpp"
#include "overlay/chordpp.hpp"
#include "overlay/kautz.hpp"
#include "overlay/properties.hpp"
#include "overlay/registry.hpp"
#include "overlay/tapestry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tg::overlay {
namespace {

class OverlayTest : public ::testing::TestWithParam<std::tuple<Kind, std::size_t>> {
 protected:
  void SetUp() override {
    kind_ = std::get<0>(GetParam());
    n_ = std::get<1>(GetParam());
    Rng rng(0xace0 + n_);
    table_ = ids::RingTable::uniform(n_, rng);
    graph_ = make_overlay(kind_, table_);
  }

  Kind kind_{};
  std::size_t n_ = 0;
  ids::RingTable table_;
  std::unique_ptr<InputGraph> graph_;
};

TEST_P(OverlayTest, RouteReachesResponsibleNode) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const std::size_t start = rng.below(n_);
    const ids::RingPoint key{rng.u64()};
    const Route r = graph_->route(start, key);
    ASSERT_TRUE(r.ok) << graph_->name() << " route failed";
    EXPECT_EQ(r.path.front(), start);
    EXPECT_EQ(r.path.back(), table_.successor_index(key));
  }
}

TEST_P(OverlayTest, RouteToOwnKeyIsTrivial) {
  Rng rng(43);
  const std::size_t start = rng.below(n_);
  // A key owned by the start node itself: route must be length 0.
  const Route r = graph_->route(start, table_.at(start));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.hops(), 0u);
}

TEST_P(OverlayTest, HopsAreLogarithmic) {
  Rng rng(44);
  RunningStats hops;
  for (int i = 0; i < 300; ++i) {
    const Route r = graph_->route(rng.below(n_), ids::RingPoint{rng.u64()});
    ASSERT_TRUE(r.ok);
    hops.add(static_cast<double>(r.hops()));
  }
  const double log2_n = std::log2(static_cast<double>(n_));
  EXPECT_LT(hops.mean(), 2.5 * log2_n) << graph_->name();
  EXPECT_LT(hops.max(), 6.0 * log2_n + 8.0) << graph_->name();
}

TEST_P(OverlayTest, NeighborsAreNonEmptyAndValid) {
  Rng rng(45);
  for (int i = 0; i < 50; ++i) {
    const std::size_t v = rng.below(n_);
    const auto nbs = graph_->neighbors(v);
    EXPECT_FALSE(nbs.empty());
    for (const auto nb : nbs) {
      EXPECT_LT(nb, n_);
      EXPECT_NE(nb, v);
    }
  }
}

TEST_P(OverlayTest, ShouldLinkAgreesWithNeighbors) {
  Rng rng(46);
  for (int i = 0; i < 20; ++i) {
    const std::size_t v = rng.below(n_);
    for (const auto nb : graph_->neighbors(v)) {
      EXPECT_TRUE(graph_->should_link(v, nb));
    }
    // A random far-away node should essentially never be a neighbor.
    const std::size_t stranger = rng.below(n_);
    if (!graph_->should_link(v, stranger)) {
      SUCCEED();
    }
  }
}

TEST_P(OverlayTest, PropertyReportSane) {
  Rng rng(47);
  const PropertyReport rep = measure_properties(*graph_, 2000, rng);
  EXPECT_EQ(rep.failure_rate, 0.0);
  EXPECT_GT(rep.mean_degree, 0.0);
  const double log2_n = std::log2(static_cast<double>(n_));
  // P1: logarithmic hops.
  EXPECT_LT(rep.mean_hops, 2.5 * log2_n);
  // P2: max load * n is O(log n).
  EXPECT_LT(rep.max_load_times_n,
            3.0 * std::log(static_cast<double>(n_)));
  // P4: congestion * n is poly-log (generous constant).
  EXPECT_LT(rep.max_congestion_times_n,
            20.0 * std::log(static_cast<double>(n_)) * log2_n);
}

INSTANTIATE_TEST_SUITE_P(
    AllOverlays, OverlayTest,
    ::testing::Combine(::testing::Values(Kind::chord, Kind::debruijn,
                                         Kind::distance_halving, Kind::viceroy,
                                         Kind::kautz, Kind::tapestry,
                                         Kind::chordpp),
                       ::testing::Values(std::size_t{256}, std::size_t{1024},
                                         std::size_t{4096})),
    [](const auto& info) {
      std::string name(kind_name(std::get<0>(info.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
        if (c == '+') c = 'p';
      }
      return name + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST(OverlayDegree, ChordIsLogDegreeConstantsDiffer) {
  Rng rng(48);
  const auto table = ids::RingTable::uniform(2048, rng);
  const auto chord = make_overlay(Kind::chord, table);
  const auto debruijn = make_overlay(Kind::debruijn, table);
  RunningStats chord_deg, db_deg;
  for (std::size_t i = 0; i < 200; ++i) {
    chord_deg.add(static_cast<double>(chord->neighbors(i).size()));
    db_deg.add(static_cast<double>(debruijn->neighbors(i).size()));
  }
  // Chord: Theta(log n) distinct fingers; de Bruijn: O(1).
  EXPECT_GT(chord_deg.mean(), db_deg.mean() + 2.0);
  EXPECT_LT(db_deg.mean(), 8.0);
}

TEST(OverlayRegistry, NamesAndFactory) {
  Rng rng(49);
  const auto table = ids::RingTable::uniform(64, rng);
  for (const Kind kind : all_kinds()) {
    const auto graph = make_overlay(kind, table);
    ASSERT_NE(graph, nullptr);
    EXPECT_EQ(graph->name(), kind_name(kind));
  }
}

TEST(BitsForSize, PowersAndBetween) {
  EXPECT_EQ(bits_for_size(1), 1);
  EXPECT_EQ(bits_for_size(2), 1);
  EXPECT_EQ(bits_for_size(3), 2);
  EXPECT_EQ(bits_for_size(1024), 10);
  EXPECT_EQ(bits_for_size(1025), 11);
}

// ---------- RoutePath small-buffer semantics ----------

TEST(RoutePath_, SpillsPastInlineCapacityAndReadsBack) {
  RoutePath p;
  EXPECT_EQ(p.capacity(), RoutePath::kInlineHops);
  const std::size_t count = RoutePath::kInlineHops * 3 + 5;
  for (std::size_t i = 0; i < count; ++i) {
    p.push_back(static_cast<std::uint32_t>(i * 7));
  }
  ASSERT_EQ(p.size(), count);
  EXPECT_GE(p.capacity(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(p[i], static_cast<std::uint32_t>(i * 7));
  }
  EXPECT_EQ(p.front(), 0u);
  EXPECT_EQ(p.back(), static_cast<std::uint32_t>((count - 1) * 7));
}

TEST(RoutePath_, ClearKeepsSpilledCapacity) {
  RoutePath p;
  for (std::size_t i = 0; i < RoutePath::kInlineHops + 10; ++i) {
    p.push_back(static_cast<std::uint32_t>(i));
  }
  const std::size_t warm = p.capacity();
  ASSERT_GT(warm, RoutePath::kInlineHops);
  p.clear();
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.capacity(), warm);  // the scratch-reuse contract
}

TEST(RoutePath_, CopyAndMoveAcrossTheInlineBoundary) {
  RoutePath small;
  small.push_back(3);
  small.push_back(9);
  RoutePath big;
  for (std::size_t i = 0; i < RoutePath::kInlineHops + 4; ++i) {
    big.push_back(static_cast<std::uint32_t>(100 + i));
  }

  RoutePath copy_small(small);
  RoutePath copy_big(big);
  EXPECT_TRUE(copy_small == small);
  EXPECT_TRUE(copy_big == big);

  // Copy-assign a spilled path into a warm spilled scratch: contents
  // replaced, no aliasing with the source.
  copy_big = small;
  EXPECT_TRUE(copy_big == small);
  copy_big[0] = 77;
  EXPECT_EQ(small[0], 3u);

  // Move steals the heap block (or memcpys the inline buffer) and
  // leaves the source empty but reusable.
  RoutePath moved(std::move(copy_small));
  EXPECT_TRUE(moved == small);
  RoutePath moved_big(std::move(big));
  ASSERT_EQ(moved_big.size(), RoutePath::kInlineHops + 4);
  EXPECT_EQ(moved_big[0], 100u);
  EXPECT_EQ(big.size(), 0u);  // NOLINT(bugprone-use-after-move)
  big.push_back(1);
  EXPECT_EQ(big.size(), 1u);
}

TEST(RoutePath_, EqualityComparesContentsNotStorage) {
  RoutePath a, b;
  EXPECT_TRUE(a == b);
  a.push_back(5);
  EXPECT_FALSE(a == b);
  b.push_back(5);
  EXPECT_TRUE(a == b);
  b.push_back(6);
  EXPECT_TRUE(a != b);
}

// ---------- neighbor dedup on tiny tables ----------

TEST(OverlayNeighbors, SingleNodeTableKeepsItsOnlyLink) {
  // n = 1: every link target resolves to the node itself.  The dedup
  // must not erase the self entry when it is the ONLY one, or the
  // neighbor list would come back empty.
  Rng rng(80);
  const auto table = ids::RingTable::uniform(1, rng);
  for (const Kind kind : all_kinds()) {
    const auto graph = make_overlay(kind, table);
    const auto nbs = graph->neighbors(0);
    ASSERT_EQ(nbs.size(), 1u) << graph->name();
    EXPECT_EQ(nbs.front(), 0u) << graph->name();
  }
}

TEST(OverlayNeighbors, DuplicateTargetsCollapseAndSelfIsExcluded) {
  // Tiny tables funnel many link targets onto the same successor; the
  // list must come back sorted, duplicate-free, and self-free as soon
  // as any other node is linked.
  Rng rng(81);
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{3}, std::size_t{5}, std::size_t{17}}) {
    const auto table = ids::RingTable::uniform(n, rng);
    for (const Kind kind : all_kinds()) {
      const auto graph = make_overlay(kind, table);
      for (std::size_t v = 0; v < n; ++v) {
        const auto nbs = graph->neighbors(v);
        ASSERT_FALSE(nbs.empty())
            << graph->name() << " n=" << n << " v=" << v;
        EXPECT_TRUE(std::is_sorted(nbs.begin(), nbs.end()));
        EXPECT_EQ(std::adjacent_find(nbs.begin(), nbs.end()), nbs.end())
            << graph->name() << " returned duplicates";
        for (const auto nb : nbs) {
          EXPECT_LT(nb, n);
          EXPECT_NE(nb, v) << graph->name() << " n=" << n;
        }
      }
    }
  }
}

// ---------- route pins ----------

/// FNV-1a over (ok, hop count, path) of 500 seeded queries on each of
/// tables with n in {1, 2, 3, 10^3, 10^4}: keys at 0, at 2^64-1,
/// exactly on IDs, one past IDs and uniform.  `batch` routes the same
/// queries through route_many instead of route.
std::uint64_t route_digest(Kind kind, bool batch) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{1000}, std::size_t{10000}}) {
    Rng rng(0x5eed0000ULL + n);
    const auto table = ids::RingTable::uniform(n, rng);
    const auto graph = make_overlay(kind, table);
    std::vector<RouteQuery> queries(500);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      queries[q].start = rng.below(n);
      std::uint64_t key = rng.u64();
      if (q == 0) {
        key = 0;
      } else if (q == 1) {
        key = ~0ULL;
      } else if (q % 4 == 2) {
        key = table.at(rng.below(n)).raw();  // exactly on an ID
      } else if (q % 4 == 3) {
        key = table.at(rng.below(n)).raw() + 1;  // just past an ID
      }
      queries[q].key = ids::RingPoint{key};
    }
    std::vector<Route> routes;
    if (batch) {
      graph->route_many(queries, routes);
    } else {
      for (const RouteQuery& q : queries) {
        routes.push_back(graph->route(q.start, q.key));
      }
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      mix(routes[q].ok ? 1 : 0);
      mix(routes[q].path.size());
      for (const auto v : routes[q].path) mix(v);
    }
  }
  return h;
}

TEST(Overlay, RoutesArePinned) {
  // Recorded while a second, binary-search route implementation still
  // existed beside the index; both produced these digests.  De Bruijn
  // and distance-halving share one digest: their route loops inject
  // the same key bits through the same halving map.
  const std::pair<Kind, std::uint64_t> pins[] = {
      {Kind::chord, 0xe67d0071751e1ecfULL},
      {Kind::debruijn, 0x9d0b485776bd54afULL},
      {Kind::distance_halving, 0x9d0b485776bd54afULL},
      {Kind::viceroy, 0x616748390450866bULL},
      {Kind::kautz, 0xc1a685ff2736597aULL},
      {Kind::tapestry, 0xfeb8a6286eb6d889ULL},
      {Kind::chordpp, 0xedd401aa9dc62e38ULL},
  };
  ASSERT_EQ(std::size(pins), all_kinds().size());
  for (const auto& [kind, pin] : pins) {
    EXPECT_EQ(route_digest(kind, /*batch=*/false), pin) << kind_slug(kind);
    EXPECT_EQ(route_digest(kind, /*batch=*/true), pin) << kind_slug(kind);
  }
}

TEST(OverlayRegistry, KindSlugsAreFilenameSafe) {
  for (const Kind kind : all_kinds()) {
    const std::string slug(kind_slug(kind));
    EXPECT_FALSE(slug.empty());
    for (const char c : slug) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_') << slug;
    }
  }
}

// ---------- Kautz (FISSIONE) internals ----------

TEST(KautzOverlay_, EncodeProducesValidKautzStrings) {
  Rng rng(60);
  const auto table = ids::RingTable::uniform(512, rng);
  const KautzOverlay kautz(table);
  for (int i = 0; i < 200; ++i) {
    const auto s = kautz.encode(ids::RingPoint{rng.u64()});
    ASSERT_EQ(static_cast<int>(s.size()), kautz.digits());
    for (std::size_t j = 0; j < s.size(); ++j) {
      EXPECT_GE(s[j], 0);
      EXPECT_LE(s[j], 2);
      if (j > 0) {
        EXPECT_NE(s[j], s[j - 1]) << "repeat at " << j;
      }
    }
  }
}

TEST(KautzOverlay_, DecodeIsLeftInverseOfEncodeOnGrid) {
  Rng rng(61);
  const auto table = ids::RingTable::uniform(512, rng);
  const KautzOverlay kautz(table);
  for (int i = 0; i < 200; ++i) {
    const auto s = kautz.encode(ids::RingPoint{rng.u64()});
    // decode lands on the cell corner; re-encoding recovers the string.
    EXPECT_EQ(kautz.encode(kautz.decode(s)), s);
  }
}

TEST(KautzOverlay_, DecodePreservesOrderOnSamples) {
  Rng rng(62);
  const auto table = ids::RingTable::uniform(64, rng);
  const KautzOverlay kautz(table);
  // The grid embedding is monotone: encode is a non-decreasing
  // digitization, so decode(encode(x)) <= x < next cell corner.
  for (int i = 0; i < 200; ++i) {
    const ids::RingPoint x{rng.u64()};
    const ids::RingPoint corner = kautz.decode(kautz.encode(x));
    EXPECT_LE(corner.raw(), x.raw());
  }
}

TEST(KautzOverlay_, ShiftRejectsRepeatAndShifts) {
  const KautzString s = {0, 1, 2};
  EXPECT_THROW((void)kautz_shift(s, 2), std::invalid_argument);
  const KautzString shifted = kautz_shift(s, 0);
  EXPECT_EQ(shifted, (KautzString{1, 2, 0}));
}

TEST(KautzOverlay_, ConstantDegree) {
  Rng rng(63);
  const auto table = ids::RingTable::uniform(4096, rng);
  const KautzOverlay kautz(table);
  RunningStats deg;
  for (std::size_t i = 0; i < 300; ++i) {
    deg.add(static_cast<double>(kautz.neighbors(i).size()));
  }
  EXPECT_LT(deg.mean(), 8.0);  // 2 out + 2 in + 2 ring, minus merges
}

// ---------- Tapestry internals ----------

TEST(TapestryOverlay_, SharedDigitsCountsNibbles) {
  using ids::RingPoint;
  EXPECT_EQ(TapestryOverlay::shared_digits(RingPoint{0}, RingPoint{0}), 16);
  EXPECT_EQ(TapestryOverlay::shared_digits(RingPoint{0x0123456789abcdefULL},
                                           RingPoint{0x0123456789abcdeeULL}),
            15);
  EXPECT_EQ(TapestryOverlay::shared_digits(RingPoint{0xF000000000000000ULL},
                                           RingPoint{0x0000000000000000ULL}),
            0);
  // Differ inside the 3rd nibble: two full digits shared.
  EXPECT_EQ(TapestryOverlay::shared_digits(RingPoint{0xAB40000000000000ULL},
                                           RingPoint{0xAB70000000000000ULL}),
            2);
}

TEST(TapestryOverlay_, DigitHopsAreBoundedByLevels) {
  Rng rng(64);
  const auto table = ids::RingTable::uniform(2048, rng);
  const TapestryOverlay tap(table);
  for (int i = 0; i < 200; ++i) {
    const auto r = tap.route(rng.below(2048), ids::RingPoint{rng.u64()});
    ASSERT_TRUE(r.ok);
    // Prefix phase resolves one digit per hop; tail walk is O(1)
    // expected.  A loose absolute cap: levels + 24.
    EXPECT_LE(r.hops(), static_cast<std::size_t>(tap.levels()) + 24);
  }
}

TEST(TapestryOverlay_, EachHopSharesMorePrefixOrFinishes) {
  Rng rng(65);
  const auto table = ids::RingTable::uniform(1024, rng);
  const TapestryOverlay tap(table);
  for (int i = 0; i < 100; ++i) {
    const ids::RingPoint key{rng.u64()};
    const auto r = tap.route(rng.below(1024), key);
    ASSERT_TRUE(r.ok);
    const std::size_t target = table.successor_index(key);
    int prev_shared = -1;
    for (std::size_t h = 0; h < r.path.size(); ++h) {
      if (r.path[h] == target) break;
      const int s = TapestryOverlay::shared_digits(table.at(r.path[h]), key);
      if (s >= tap.levels()) break;  // tail-walk region
      EXPECT_GT(s, prev_shared) << "hop " << h << " did not resolve a digit";
      prev_shared = s;
    }
  }
}

TEST(TapestryOverlay_, DegreeIsLogNotConstant) {
  Rng rng(66);
  const auto table = ids::RingTable::uniform(4096, rng);
  const TapestryOverlay tap(table);
  const KautzOverlay kautz(table);
  RunningStats tap_deg, kautz_deg;
  for (std::size_t i = 0; i < 200; ++i) {
    tap_deg.add(static_cast<double>(tap.neighbors(i).size()));
    kautz_deg.add(static_cast<double>(kautz.neighbors(i).size()));
  }
  EXPECT_GT(tap_deg.mean(), kautz_deg.mean() + 4.0);
}

// ---------- Chord++ internals ----------

TEST(ChordPP, FingerOffsetsLieInDyadicIntervals) {
  Rng rng(70);
  const auto table = ids::RingTable::uniform(1024, rng);
  const ChordPPOverlay cpp(table);
  for (int trial = 0; trial < 50; ++trial) {
    const ids::RingPoint x{rng.u64()};
    for (int i = 1; i <= 10; ++i) {
      const std::uint64_t off = cpp.finger_offset(x, i);
      const std::uint64_t base = 1ULL << (64 - i);
      EXPECT_GE(off, base) << "level " << i;
      if (i > 1) {
        EXPECT_LT(off, 2 * base) << "level " << i;
      }
    }
  }
}

TEST(ChordPP, FingersDecorrelateAcrossNodes) {
  // Two nearby nodes in plain Chord aim level-i fingers at nearly the
  // same point; Chord++ must spread them across the dyadic interval.
  Rng rng(71);
  const auto table = ids::RingTable::uniform(512, rng);
  const ChordPPOverlay cpp(table);
  const ids::RingPoint a{0x1000000000000000ULL};
  const ids::RingPoint b{0x1000000000010000ULL};  // very close to a
  int distinct = 0;
  for (int i = 2; i <= 9; ++i) {
    const std::uint64_t da = cpp.finger_offset(a, i);
    const std::uint64_t db = cpp.finger_offset(b, i);
    const std::uint64_t gap = da > db ? da - db : db - da;
    if (gap > (1ULL << (64 - i)) / 8) ++distinct;  // > 1/8 of the scale
  }
  EXPECT_GE(distinct, 5);
}

TEST(ChordPP, CongestionNoWorseThanChord) {
  Rng rng(72);
  const auto table = ids::RingTable::uniform(2048, rng);
  const auto chord = make_overlay(Kind::chord, table);
  const auto cpp = make_overlay(Kind::chordpp, table);
  Rng p1(73), p2(73);
  const auto rep_chord = measure_properties(*chord, 3000, p1);
  const auto rep_cpp = measure_properties(*cpp, 3000, p2);
  // The de-correlated fingers must not blow up congestion; typically
  // they flatten it.  Allow generous noise.
  EXPECT_LT(rep_cpp.max_congestion_times_n,
            rep_chord.max_congestion_times_n * 1.5);
  EXPECT_EQ(rep_cpp.failure_rate, 0.0);
}

// Lemma 5: the omission adversary cannot break P1-P4.
class OmissionTest
    : public ::testing::TestWithParam<adversary::OmissionStrategy> {};

TEST_P(OmissionTest, PropertiesSurviveOmission) {
  Rng rng(50);
  const auto pop = adversary::build_omitted_population(
      /*n_good=*/2000, /*n_bad_pool=*/100, GetParam(), rng);
  const auto graph = make_overlay(Kind::chord, pop.table());
  Rng probe(51);
  const PropertyReport rep = measure_properties(*graph, 1500, probe);
  EXPECT_EQ(rep.failure_rate, 0.0);
  const double log2_n = std::log2(static_cast<double>(pop.size()));
  EXPECT_LT(rep.mean_hops, 2.5 * log2_n);
  EXPECT_LT(rep.max_load_times_n, 3.0 * std::log(static_cast<double>(pop.size())));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, OmissionTest,
    ::testing::Values(adversary::OmissionStrategy::keep_all,
                      adversary::OmissionStrategy::keep_low_half,
                      adversary::OmissionStrategy::keep_clustered,
                      adversary::OmissionStrategy::keep_none),
    [](const auto& info) {
      switch (info.param) {
        case adversary::OmissionStrategy::keep_all: return "keep_all";
        case adversary::OmissionStrategy::keep_low_half: return "keep_low_half";
        case adversary::OmissionStrategy::keep_clustered: return "keep_clustered";
        case adversary::OmissionStrategy::keep_none: return "keep_none";
      }
      return "unknown";
    });

}  // namespace
}  // namespace tg::overlay
