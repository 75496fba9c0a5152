// StreamOptions::validate(): the defaults pass, each nonsensical stream or
// durability knob produces its own itemized error (gretel_stream and
// gretel_campaign print these and refuse to start), and errors accumulate.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <string_view>

#include "stream/stream_analyzer.h"

namespace gretel::stream {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// True if the options `set` produces have an error containing `needle`.
template <class Set>
bool flags(Set set, std::string_view needle) {
  StreamOptions opts;
  set(opts);
  for (const auto& e : opts.validate())
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

TEST(StreamOptionsValidate, DefaultsAreValid) {
  EXPECT_TRUE(StreamOptions{}.validate().empty());
}

TEST(StreamOptionsValidate, EachBadKnobIsItemized) {
  EXPECT_TRUE(flags([](auto& o) { o.tick_ms = 0.0; }, "tick_ms"));
  EXPECT_TRUE(flags([](auto& o) { o.tick_ms = kInf; }, "tick_ms"));
  EXPECT_TRUE(flags([](auto& o) { o.source_ring = 0; }, "source_ring"));
  EXPECT_TRUE(flags([](auto& o) { o.report_cap = 0; }, "report_cap"));
  EXPECT_TRUE(flags([](auto& o) { o.max_report_delay_s = -0.5; },
                    "max_report_delay_s"));
  EXPECT_TRUE(flags([](auto& o) { o.metrics_retention_s = kNaN; },
                    "metrics_retention_s"));
  EXPECT_TRUE(flags([](auto& o) { o.checkpoint_interval_s = 0.0; },
                    "checkpoint_interval_s"));
  EXPECT_TRUE(flags([](auto& o) { o.checkpoint_interval_s = kNaN; },
                    "checkpoint_interval_s"));
  EXPECT_TRUE(flags([](auto& o) { o.journal_segment_records = 0; },
                    "journal_segment_records"));
}

TEST(StreamOptionsValidate, SubTickCheckpointCadenceIsRejected) {
  // A cadence shorter than one tick can never fire: the checkpoint clock
  // only advances at tick boundaries.
  StreamOptions o;
  o.tick_ms = 500.0;
  o.checkpoint_interval_s = 0.1;  // 100ms < one 500ms tick
  ASSERT_EQ(o.validate().size(), 1u);
  EXPECT_NE(o.validate()[0].find("at least one stream tick"),
            std::string::npos);
  o.checkpoint_interval_s = 0.5;  // exactly one tick: allowed
  EXPECT_TRUE(o.validate().empty());
}

TEST(StreamOptionsValidate, ErrorsAccumulateAcrossKnobs) {
  StreamOptions o;
  o.tick_ms = -1.0;
  o.source_ring = 0;
  o.report_cap = 0;
  o.journal_segment_records = 0;
  EXPECT_GE(o.validate().size(), 4u);
}

}  // namespace
}  // namespace gretel::stream
