#include "sweep/grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

namespace stamp::sweep {
namespace {

TEST(Grid, SizeIsProductOfAxisSizes) {
  ParamGrid g;
  EXPECT_EQ(g.size(), 0u);  // no axes, nothing to evaluate
  g.axis("a", {1, 2, 3});
  EXPECT_EQ(g.size(), 3u);
  g.axis("b", {10, 20});
  EXPECT_EQ(g.size(), 6u);
  g.axis("c", {0});
  EXPECT_EQ(g.size(), 6u);
}

TEST(Grid, LastAxisVariesFastest) {
  ParamGrid g;
  g.axis("hi", {0, 1}).axis("lo", {5, 6, 7});
  EXPECT_EQ(g.point(0), (std::vector<double>{0, 5}));
  EXPECT_EQ(g.point(1), (std::vector<double>{0, 6}));
  EXPECT_EQ(g.point(2), (std::vector<double>{0, 7}));
  EXPECT_EQ(g.point(3), (std::vector<double>{1, 5}));
  EXPECT_EQ(g.point(5), (std::vector<double>{1, 7}));
}

TEST(Grid, EveryPointIsDistinct) {
  ParamGrid g;
  g.axis("a", {1, 2}).axis("b", {3, 4, 5}).axis("c", {6, 7});
  std::set<std::vector<double>> seen;
  for (std::size_t i = 0; i < g.size(); ++i) seen.insert(g.point(i));
  EXPECT_EQ(seen.size(), g.size());
}

// The predicate that decides whether a sweep builds a cost cache: true only
// when no two points can share a tuple under the cache's key equality.
TEST(Grid, TuplesDistinctOnlyWithoutRepeatsOrNonFiniteValues) {
  ParamGrid distinct;
  distinct.axis("a", {3, 1, 2}).axis("b", {-0.5, 0.0, 7});
  EXPECT_TRUE(distinct.tuples_distinct());
  EXPECT_TRUE(ParamGrid{}.tuples_distinct());  // no points at all

  ParamGrid repeated;
  repeated.axis("a", {1, 2}).axis("b", {16, 64, 32, 16});
  EXPECT_FALSE(repeated.tuples_distinct());

  // -0.0 == 0.0: the cache keys them as one value, so they repeat.
  ParamGrid zeros;
  zeros.axis("a", {1, 2}).axis("b", {-0.0, 0.0});
  EXPECT_FALSE(zeros.tuples_distinct());

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    ParamGrid g;
    g.axis("a", {1, 2}).axis("b", {0, bad});
    EXPECT_FALSE(g.tuples_distinct()) << "value " << bad;
  }
}

TEST(Grid, ValueLooksUpByAxisName) {
  ParamGrid g;
  g.axis("cores", {2, 4}).axis("kappa", {0, 8});
  const std::vector<double> p = g.point(3);
  EXPECT_EQ(g.value(p, "cores"), 4);
  EXPECT_EQ(g.value(p, "kappa"), 8);
  EXPECT_THROW((void)g.value(p, "nope"), std::invalid_argument);
}

TEST(Grid, AxisIndexFindsAxes) {
  ParamGrid g;
  g.axis("x", {1}).axis("y", {2});
  EXPECT_EQ(g.axis_index("x"), 0);
  EXPECT_EQ(g.axis_index("y"), 1);
  EXPECT_EQ(g.axis_index("z"), -1);
}

TEST(Grid, RejectsBadAxes) {
  ParamGrid g;
  EXPECT_THROW(g.axis("empty", {}), std::invalid_argument);
  g.axis("a", {1});
  EXPECT_THROW(g.axis("a", {2}), std::invalid_argument);  // duplicate
}

TEST(Grid, PointIndexOutOfRangeThrows) {
  ParamGrid g;
  g.axis("a", {1, 2});
  EXPECT_THROW((void)g.point(2), std::out_of_range);
}

// A mixed-arity grid that exercises every decode edge: arity-1 axes at the
// front, middle, and back (their digit never advances), plus a fast axis.
ParamGrid mixed_grid() {
  ParamGrid g;
  g.axis("one_hi", {42})
      .axis("a", {1, 2, 3})
      .axis("one_mid", {-0.5})
      .axis("b", {10, 20})
      .axis("one_lo", {7})
      .axis("c", {100, 200, 300, 400});
  return g;
}

TEST(Grid, DecodeIntoMatchesPointAtEveryIndex) {
  const ParamGrid g = mixed_grid();
  ASSERT_EQ(g.size(), 24u);
  std::vector<double> out(g.axes().size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g.decode_into(i, out);
    EXPECT_EQ(out, g.point(i)) << "index " << i;
  }
}

TEST(Grid, DecodeIntoValidatesIndexAndSpanSize) {
  const ParamGrid g = mixed_grid();
  std::vector<double> out(g.axes().size());
  EXPECT_THROW(g.decode_into(g.size(), out), std::out_of_range);
  std::vector<double> wrong(g.axes().size() + 1);
  EXPECT_THROW(g.decode_into(0, wrong), std::invalid_argument);
  std::vector<double> small(g.axes().size() - 1);
  EXPECT_THROW(g.decode_into(0, small), std::invalid_argument);
}

// Exhaustive: every (begin, end) range of the mixed grid, including empty
// ranges and ranges that straddle every axis-period boundary, must decode to
// exactly what point() yields index by index.
TEST(Grid, DecodeChunkMatchesPointOverEveryRange) {
  const ParamGrid g = mixed_grid();
  const std::size_t naxes = g.axes().size();
  for (std::size_t begin = 0; begin <= g.size(); ++begin) {
    for (std::size_t end = begin; end <= g.size(); ++end) {
      const std::size_t count = end - begin;
      std::vector<double> soa(naxes * count);
      g.decode_chunk(begin, end, soa);
      for (std::size_t k = 0; k < count; ++k) {
        const std::vector<double> expected = g.point(begin + k);
        for (std::size_t a = 0; a < naxes; ++a) {
          EXPECT_EQ(soa[a * count + k], expected[a])
              << "range [" << begin << ", " << end << ") axis " << a
              << " offset " << k;
        }
      }
    }
  }
}

TEST(Grid, DecodeChunkValidatesRangeAndBufferSize) {
  const ParamGrid g = mixed_grid();
  std::vector<double> soa(g.axes().size() * 2);
  EXPECT_THROW(g.decode_chunk(3, 2, soa), std::out_of_range);
  std::vector<double> oversized(g.axes().size() * (g.size() + 1));
  EXPECT_THROW(g.decode_chunk(0, g.size() + 1, oversized), std::out_of_range);
  EXPECT_THROW(g.decode_chunk(0, 3, soa), std::invalid_argument);  // too small
  EXPECT_THROW(g.decode_chunk(0, 1, soa), std::invalid_argument);  // too big
  g.decode_chunk(0, 2, soa);  // exact size is fine
}

TEST(GridCursor, WalksTheWholeGridInPointOrder) {
  const ParamGrid g = mixed_grid();
  GridCursor cur(g);
  for (std::size_t i = 0; i < g.size(); ++i) {
    ASSERT_FALSE(cur.done());
    EXPECT_EQ(cur.index(), i);
    const std::span<const double> v = cur.values();
    EXPECT_EQ(std::vector<double>(v.begin(), v.end()), g.point(i));
    cur.advance();
  }
  EXPECT_TRUE(cur.done());
  cur.advance();  // no-op once done
  EXPECT_TRUE(cur.done());
}

TEST(GridCursor, StartsMidGridAndRejectsPastTheEnd) {
  const ParamGrid g = mixed_grid();
  for (const std::size_t start : {std::size_t{1}, std::size_t{7},
                                  g.size() - 1}) {
    GridCursor cur(g, start);
    ASSERT_FALSE(cur.done());
    EXPECT_EQ(cur.index(), start);
    const std::span<const double> v = cur.values();
    EXPECT_EQ(std::vector<double>(v.begin(), v.end()), g.point(start));
  }
  EXPECT_TRUE(GridCursor(g, g.size()).done());  // exhausted, not an error
  EXPECT_THROW(GridCursor(g, g.size() + 1), std::out_of_range);
}

TEST(Linspace, EndpointsAreExactAndSpacingIsEven) {
  const std::vector<double> v = linspace(8, 40, 16);
  ASSERT_EQ(v.size(), 16u);
  EXPECT_EQ(v.front(), 8.0);  // exact, not 8 ± rounding
  EXPECT_EQ(v.back(), 40.0);
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    EXPECT_LT(v[i], v[i + 1]);
    EXPECT_NEAR(v[i + 1] - v[i], (40.0 - 8.0) / 15.0, 1e-12);
  }
}

TEST(Linspace, DegenerateCountsAndBadBoundsThrowOrCollapse) {
  EXPECT_EQ(linspace(3, 9, 1), (std::vector<double>{3}));
  const std::vector<double> two = linspace(-1, 1, 2);
  EXPECT_EQ(two, (std::vector<double>{-1, 1}));
  EXPECT_THROW((void)linspace(0, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)linspace(std::nan(""), 1, 4), std::invalid_argument);
  EXPECT_THROW((void)linspace(0, std::numeric_limits<double>::infinity(), 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace stamp::sweep
