#include "sim/trace.h"

#include <gtest/gtest.h>

namespace gw::sim {
namespace {

TEST(Trace, AddAndRead) {
  Trace trace;
  trace.add("voltage", SimTime{0}, 12.4);
  trace.add("voltage", SimTime{1000}, 12.6);
  ASSERT_TRUE(trace.has_series("voltage"));
  EXPECT_EQ(trace.series("voltage").size(), 2u);
  EXPECT_DOUBLE_EQ(trace.series("voltage")[1].value, 12.6);
}

TEST(Trace, MissingSeriesThrows) {
  Trace trace;
  EXPECT_THROW((void)trace.series("nope"), std::out_of_range);
  EXPECT_FALSE(trace.has_series("nope"));
}

TEST(Trace, Statistics) {
  Trace trace;
  for (int i = 0; i < 5; ++i) {
    trace.add("s", SimTime{i}, double(i));  // 0 1 2 3 4
  }
  EXPECT_DOUBLE_EQ(trace.min_value("s"), 0.0);
  EXPECT_DOUBLE_EQ(trace.max_value("s"), 4.0);
  EXPECT_DOUBLE_EQ(trace.mean_value("s"), 2.0);
}

TEST(Trace, ValueAt) {
  Trace trace;
  trace.add("state", SimTime{0}, 2.0);
  trace.add("state", SimTime{5000}, 3.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{4999}), 2.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{5000}), 3.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{99999}), 3.0);
}

TEST(Trace, ValueBeforeFirstPointThrows) {
  Trace trace;
  trace.add("state", SimTime{100}, 1.0);
  EXPECT_THROW((void)trace.value_at("state", SimTime{99}), std::out_of_range);
}

TEST(Trace, ValueAtExactlyFirstPoint) {
  // The boundary case: t equal to the first sample is in range, one
  // millisecond earlier is not.
  Trace trace;
  trace.add("state", SimTime{100}, 1.0);
  EXPECT_DOUBLE_EQ(trace.value_at("state", SimTime{100}), 1.0);
}

TEST(Trace, DeclaredSeriesIsVisibleButEmpty) {
  Trace trace;
  trace.declare("voltage");
  ASSERT_TRUE(trace.has_series("voltage"));
  EXPECT_TRUE(trace.series("voltage").empty());
  EXPECT_EQ(trace.series_names(), std::vector<std::string>{"voltage"});
}

TEST(Trace, EmptySeriesThrowsConsistently) {
  // Contract: every analysis helper throws std::out_of_range on an empty
  // series — not UB on front() or a silent NaN from 0/0.
  Trace trace;
  trace.declare("empty");
  EXPECT_THROW((void)trace.min_value("empty"), std::out_of_range);
  EXPECT_THROW((void)trace.max_value("empty"), std::out_of_range);
  EXPECT_THROW((void)trace.mean_value("empty"), std::out_of_range);
  EXPECT_THROW((void)trace.value_at("empty", SimTime{0}), std::out_of_range);
}

TEST(Trace, Annotations) {
  Trace trace;
  trace.annotate(SimTime{42}, "override released");
  ASSERT_EQ(trace.annotations().size(), 1u);
  EXPECT_EQ(trace.annotations()[0].text, "override released");
}

TEST(Trace, SeriesNamesSorted) {
  Trace trace;
  trace.add("b", SimTime{0}, 0);
  trace.add("a", SimTime{0}, 0);
  const auto names = trace.series_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // std::map keeps keys ordered
  EXPECT_EQ(names[1], "b");
}

}  // namespace
}  // namespace gw::sim
