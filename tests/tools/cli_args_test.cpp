// tools::Args numeric flags: a value is read only when the whole string is
// one number of the requested kind.  Negatives never wrap into huge
// unsigned values, unit suffixes are not silently dropped, and a bad value
// exits 2 naming the flag.
#include "tools/cli_common.h"

#include <gtest/gtest.h>

#include <vector>

namespace gretel::tools {
namespace {

// Args over a literal argv (argv[0] is the program name).
struct Argv {
  std::vector<std::string> words;
  std::vector<char*> ptrs;
  explicit Argv(std::vector<std::string> w) : words(std::move(w)) {
    words.insert(words.begin(), "tool");
    for (auto& s : words) ptrs.push_back(s.data());
  }
  Args args() { return Args(static_cast<int>(ptrs.size()), ptrs.data()); }
};

TEST(CliArgs, ParseAcceptsExactlyOneNumber) {
  EXPECT_EQ(parse_number<long>("-12"), -12);
  EXPECT_EQ(parse_number<std::uint64_t>("8192"), 8192u);
  EXPECT_EQ(parse_number<double>("2.5"), 2.5);
  EXPECT_EQ(parse_number<double>("1e9"), 1e9);
}

TEST(CliArgs, ParseRejectsNegativeUnsignedAndJunk) {
  EXPECT_FALSE(parse_number<std::uint64_t>("-1"));
  EXPECT_FALSE(parse_number<std::uint64_t>(""));
  EXPECT_FALSE(parse_number<long>("250ms"));
  EXPECT_FALSE(parse_number<long>("12abc"));
  EXPECT_FALSE(parse_number<double>("250ms"));
  EXPECT_FALSE(parse_number<double>(" 1"));
  EXPECT_FALSE(parse_number<double>(""));
}

TEST(CliArgs, ValidFlagsAndFallbacks) {
  Argv a({"--ring", "64", "--tick-ms", "125.5", "--seed", "-3"});
  const auto args = a.args();
  EXPECT_EQ(args.get_uint("--ring", 8192), 64u);
  EXPECT_EQ(args.get_double("--tick-ms", 250.0), 125.5);
  EXPECT_EQ(args.get_int("--seed", 7), -3);
  EXPECT_EQ(args.get_uint("--budget", 200000), 200000u);  // absent
}

TEST(CliArgsDeathTest, NegativeUnsignedExitsTwoNamingTheFlag) {
  Argv a({"--ring", "-1"});
  const auto args = a.args();
  EXPECT_EXIT(args.get_uint("--ring", 8192), ::testing::ExitedWithCode(2),
              "--ring");
}

TEST(CliArgsDeathTest, JunkSuffixExitsTwoNamingTheFlag) {
  Argv a({"--tick-ms", "250ms", "--tests", "4x"});
  const auto args = a.args();
  EXPECT_EXIT(args.get_double("--tick-ms", 250.0),
              ::testing::ExitedWithCode(2), "--tick-ms");
  EXPECT_EXIT(args.get_int("--tests", 24), ::testing::ExitedWithCode(2),
              "--tests");
}

}  // namespace
}  // namespace gretel::tools
