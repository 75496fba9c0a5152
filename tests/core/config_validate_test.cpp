// GretelConfig::validate(): the defaults pass, each nonsensical knob
// produces its own itemized error (the tool CLIs print these and refuse
// to start), and errors accumulate rather than short-circuit.
#include "gretel/config.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace gretel::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// True if some error message contains `needle`.
bool has_error(const GretelConfig& cfg, std::string_view needle) {
  for (const auto& e : cfg.validate())
    if (e.find(needle) != std::string::npos) return true;
  return false;
}

TEST(ConfigValidate, DefaultsAreValid) {
  GretelConfig cfg;
  EXPECT_TRUE(cfg.validate().empty());
}

TEST(ConfigValidate, EachBadKnobIsItemized) {
  {
    GretelConfig c;
    c.fp_max = 0;
    EXPECT_TRUE(has_error(c, "fp_max"));
  }
  {
    GretelConfig c;
    c.p_rate = 0.0;
    EXPECT_TRUE(has_error(c, "p_rate"));
    c.p_rate = kNaN;
    EXPECT_TRUE(has_error(c, "p_rate"));
  }
  {
    GretelConfig c;
    c.c1 = 0.0;
    EXPECT_TRUE(has_error(c, "c1"));
    c.c2 = kInf;
    EXPECT_TRUE(has_error(c, "c2"));
  }
  {
    GretelConfig c;
    c.metric_staleness_s = kNaN;
    EXPECT_TRUE(has_error(c, "metric_staleness_s"));
  }
  {
    GretelConfig c;
    c.probe_budget_ms = -1.0;
    EXPECT_TRUE(has_error(c, "probe_budget_ms"));
  }
}

TEST(ConfigValidate, ErrorsAccumulateAcrossKnobs) {
  GretelConfig c;
  c.fp_max = 0;
  c.p_rate = -1.0;
  c.c2 = 0.0;
  c.orphan_timeout_seconds = -1.0;
  EXPECT_GE(c.validate().size(), 4u);
}

}  // namespace
}  // namespace gretel::core
