// Unit + property tests for the ID space: ring arithmetic, arcs,
// successor tables, well-spread placements (Lemma 5's machinery).
#include <gtest/gtest.h>

#include <cmath>

#include "idspace/interval.hpp"
#include "idspace/placement.hpp"
#include "idspace/ring_point.hpp"
#include "idspace/ring_table.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace tg::ids {
namespace {

TEST(RingPoint, ClockwiseDistanceWraps) {
  const RingPoint a{~0ULL - 10};  // just before 1.0
  const RingPoint b{5};           // just after 0.0
  EXPECT_EQ(a.cw_distance_to(b), 16u);
  EXPECT_EQ(b.cw_distance_to(a), ~0ULL - 15);
}

TEST(RingPoint, RingDistanceSymmetricMin) {
  const RingPoint a{100}, b{300};
  EXPECT_EQ(a.ring_distance_to(b), 200u);
  EXPECT_EQ(b.ring_distance_to(a), 200u);
  const RingPoint c{0}, d{~0ULL};
  EXPECT_EQ(c.ring_distance_to(d), 1u);
}

TEST(RingPoint, DistanceToSelfIsZero) {
  const RingPoint a{12345};
  EXPECT_EQ(a.cw_distance_to(a), 0u);
  EXPECT_EQ(a.ring_distance_to(a), 0u);
}

TEST(RingPoint, AdvancedWraps) {
  const RingPoint a{~0ULL};
  EXPECT_EQ(a.advanced(1).raw(), 0u);
  EXPECT_EQ(a.advanced(2).raw(), 1u);
}

TEST(RingPoint, DoubleConversionRoundTrip) {
  for (const double x : {0.0, 0.25, 0.5, 0.75, 0.999}) {
    EXPECT_NEAR(RingPoint::from_double(x).to_double(), x, 1e-12);
  }
  // Out-of-range clamps into [0, 1).
  EXPECT_LT(RingPoint::from_double(2.0).to_double(), 1.0);
  EXPECT_EQ(RingPoint::from_double(-1.0).raw(), 0u);
}

TEST(RingPoint, HalvedPrependsBit) {
  const RingPoint x{0x8000000000000000ULL};  // 0.5
  EXPECT_NEAR(x.halved(false).to_double(), 0.25, 1e-15);
  EXPECT_NEAR(x.halved(true).to_double(), 0.75, 1e-15);
}

TEST(RingPoint, DoubledInvertsHalved) {
  // doubled(halved(x, b)) drops the prepended bit b and restores x's
  // top 63 bits; x's own LSB is lost — equality holds modulo that bit.
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const RingPoint x{rng.u64()};
    EXPECT_EQ(x.halved(true).doubled().raw(), (x.raw() >> 1) << 1);
    EXPECT_EQ(x.halved(false).doubled().raw(), (x.raw() >> 1) << 1);
  }
}

TEST(Arc, ContainsBasics) {
  const Arc arc{RingPoint{100}, 50};
  EXPECT_TRUE(arc.contains(RingPoint{100}));
  EXPECT_TRUE(arc.contains(RingPoint{149}));
  EXPECT_FALSE(arc.contains(RingPoint{150}));
  EXPECT_FALSE(arc.contains(RingPoint{99}));
}

TEST(Arc, WrappingContains) {
  const Arc arc{RingPoint{~0ULL - 9}, 20};  // wraps through zero
  EXPECT_TRUE(arc.contains(RingPoint{~0ULL}));
  EXPECT_TRUE(arc.contains(RingPoint{0}));
  EXPECT_TRUE(arc.contains(RingPoint{9}));
  EXPECT_FALSE(arc.contains(RingPoint{10}));
}

TEST(Arc, EmptyContainsNothing) {
  const Arc arc{RingPoint{5}, 0};
  EXPECT_TRUE(arc.empty());
  EXPECT_FALSE(arc.contains(RingPoint{5}));
}

TEST(Arc, BetweenComputesLength) {
  const Arc arc = Arc::between(RingPoint{10}, RingPoint{30});
  EXPECT_EQ(arc.length(), 20u);
  const Arc wrap = Arc::between(RingPoint{~0ULL - 4}, RingPoint{5});
  EXPECT_EQ(wrap.length(), 10u);
}

TEST(Arc, Intersects) {
  const Arc a{RingPoint{0}, 100};
  const Arc b{RingPoint{50}, 100};
  const Arc c{RingPoint{200}, 10};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_FALSE(a.intersects(Arc{}));
}

TEST(Arc, LengthFromFraction) {
  EXPECT_EQ(arc_length_from_fraction(0.0), 0u);
  EXPECT_EQ(arc_length_from_fraction(-1.0), 0u);
  EXPECT_EQ(arc_length_from_fraction(1.0), ~0ULL);
  EXPECT_NEAR(static_cast<double>(arc_length_from_fraction(0.5)),
              std::ldexp(0.5, 64), 1.0);
}

TEST(RingTable, SortsAndDeduplicates) {
  RingTable t({RingPoint{30}, RingPoint{10}, RingPoint{20}, RingPoint{10}});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.at(0).raw(), 10u);
  EXPECT_EQ(t.at(2).raw(), 30u);
}

TEST(RingTable, SuccessorBasicsAndWrap) {
  RingTable t({RingPoint{10}, RingPoint{20}, RingPoint{30}});
  EXPECT_EQ(t.successor(RingPoint{5}).raw(), 10u);
  EXPECT_EQ(t.successor(RingPoint{10}).raw(), 10u);  // exact hit
  EXPECT_EQ(t.successor(RingPoint{11}).raw(), 20u);
  EXPECT_EQ(t.successor(RingPoint{31}).raw(), 10u);  // wraps
}

TEST(RingTable, PredecessorBasicsAndWrap) {
  RingTable t({RingPoint{10}, RingPoint{20}, RingPoint{30}});
  EXPECT_EQ(t.predecessor(RingPoint{15}).raw(), 10u);
  EXPECT_EQ(t.predecessor(RingPoint{10}).raw(), 30u);  // strictly before
  EXPECT_EQ(t.predecessor(RingPoint{5}).raw(), 30u);   // wraps
}

TEST(RingTable, IndexOfAndContains) {
  RingTable t({RingPoint{10}, RingPoint{20}});
  EXPECT_TRUE(t.contains(RingPoint{10}));
  EXPECT_FALSE(t.contains(RingPoint{15}));
  EXPECT_EQ(t.index_of(RingPoint{20}).value(), 1u);
  EXPECT_FALSE(t.index_of(RingPoint{15}).has_value());
}

TEST(RingTable, CountInMatchesIndicesIn) {
  Rng rng(3);
  const RingTable t = RingTable::uniform(500, rng);
  for (int i = 0; i < 50; ++i) {
    const Arc arc{RingPoint{rng.u64()}, rng.u64() >> 2};
    EXPECT_EQ(t.count_in(arc), t.indices_in(arc).size());
  }
}

TEST(RingTable, CountInWrappingArc) {
  RingTable t({RingPoint{10}, RingPoint{~0ULL - 10}});
  const Arc wrap = Arc::between(RingPoint{~0ULL - 20}, RingPoint{20});
  EXPECT_EQ(t.count_in(wrap), 2u);
}

TEST(RingTable, ResponsibilityArcsPartitionRing) {
  Rng rng(4);
  const RingTable t = RingTable::uniform(100, rng);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    total += t.responsibility_arc(i).length();
  }
  // Arcs tile the whole ring: lengths sum to 2^64 == 0 mod 2^64.
  EXPECT_EQ(total, 0u);
}

TEST(RingTable, ResponsibilityArcResolvesToOwner) {
  Rng rng(5);
  const RingTable t = RingTable::uniform(64, rng);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Arc arc = t.responsibility_arc(i);
    // Any key inside the arc must resolve (successor) to ID i.
    const RingPoint probe = arc.start().advanced(arc.length() / 2);
    EXPECT_EQ(t.successor_index(probe), i);
  }
}

TEST(RingTable, UniformHasRequestedSize) {
  Rng rng(6);
  EXPECT_EQ(RingTable::uniform(1000, rng).size(), 1000u);
}

TEST(RingTable, EstimateLnN) {
  // The paper's size estimator: ln(1/d(u, suc(u))) = Theta(ln n).
  Rng rng(7);
  const std::size_t n = 1 << 14;
  const RingTable t = RingTable::uniform(n, rng);
  RunningStats est;
  for (std::size_t i = 0; i < 200; ++i) {
    est.add(t.estimate_ln_n(rng.below(n)));
  }
  const double ln_n = std::log(static_cast<double>(n));
  // Theta(ln n) with constant close to 1 on average (mean of
  // ln(1/gap) = ln n - gamma for exponential gaps).
  EXPECT_GT(est.mean(), 0.5 * ln_n);
  EXPECT_LT(est.mean(), 1.5 * ln_n);
}

TEST(Placement, UniformPlacementIsWellSpread) {
  // lambda = 12 puts the Chernoff failure probability far below the
  // number of intervals examined, so this is deterministic in practice.
  Rng rng(8);
  const RingTable t = RingTable::uniform(4000, rng);
  const SpreadReport report = check_well_spread(t, 12.0);
  EXPECT_TRUE(report.well_spread)
      << "min=" << report.min_count << " max=" << report.max_count
      << " expected=" << report.expected;
}

TEST(Placement, ClusteredPlacementIsNotWellSpread) {
  // All IDs crammed into [0, 0.01): massively over-dense there.
  Rng rng(9);
  std::vector<RingPoint> pts;
  for (int i = 0; i < 4000; ++i) {
    pts.push_back(RingPoint::from_double(rng.uniform() * 0.01));
  }
  const SpreadReport report =
      check_well_spread(RingTable(std::move(pts)), 12.0);
  EXPECT_FALSE(report.well_spread);
}

TEST(Placement, MaxResponsibilityIsLogarithmic) {
  Rng rng(10);
  const std::size_t n = 1 << 12;
  const RingTable t = RingTable::uniform(n, rng);
  const double max_load = max_responsibility_times_m(t);
  // Max gap of n uniform points is Theta(log n / n): times m ~ log n.
  EXPECT_GT(max_load, 1.0);
  EXPECT_LT(max_load, 3.0 * std::log(static_cast<double>(n)));
}

}  // namespace
}  // namespace tg::ids
