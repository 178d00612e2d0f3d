#include "obs/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace flopsim::obs {
namespace {

CliArgs parse(std::vector<std::string> tokens) {
  std::vector<char*> argv;
  static std::string prog = "test-tool";
  argv.push_back(prog.data());
  for (std::string& t : tokens) argv.push_back(t.data());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseThreadsValue, AcceptsOneToMaxRejectsRest) {
  EXPECT_EQ(parse_threads_value("1"), 1);
  EXPECT_EQ(parse_threads_value("8"), 8);
  EXPECT_EQ(parse_threads_value("1024"), 1024);
  EXPECT_EQ(parse_threads_value("0"), -1);
  EXPECT_EQ(parse_threads_value("1025"), -1);
  EXPECT_EQ(parse_threads_value("-2"), -1);
  EXPECT_EQ(parse_threads_value("bogus"), -1);
  EXPECT_EQ(parse_threads_value(""), -1);
}

TEST(ParseCli, DefaultsWhenNoFlags) {
  const CliArgs cli = parse({});
  EXPECT_TRUE(cli.ok());
  EXPECT_EQ(cli.threads, 0);
  EXPECT_TRUE(cli.json_path.empty());
  EXPECT_TRUE(cli.csv_dir.empty());
  EXPECT_TRUE(cli.metrics_path.empty());
  EXPECT_TRUE(cli.trace_path.empty());
  EXPECT_TRUE(cli.vcd_path.empty());
  EXPECT_TRUE(cli.rest.empty());
}

TEST(ParseCli, ConsumesEveryObservabilityFlag) {
  const CliArgs cli = parse({"--threads=4", "--json", "out.json", "--csv",
                             "csvdir", "--metrics=m.jsonl", "--trace=t.json",
                             "--vcd=w.vcd"});
  EXPECT_TRUE(cli.ok());
  EXPECT_EQ(cli.threads, 4);
  EXPECT_EQ(cli.json_path, "out.json");
  EXPECT_EQ(cli.csv_dir, "csvdir");
  EXPECT_EQ(cli.metrics_path, "m.jsonl");
  EXPECT_EQ(cli.trace_path, "t.json");
  EXPECT_EQ(cli.vcd_path, "w.vcd");
  EXPECT_TRUE(cli.rest.empty());
}

TEST(ParseCli, UnknownTokensLandInRestInOrder) {
  const CliArgs cli =
      parse({"mul", "32", "--harden=tmr", "--threads=2", "speed"});
  EXPECT_TRUE(cli.ok());
  EXPECT_EQ(cli.threads, 2);
  ASSERT_EQ(cli.rest.size(), 4u);
  EXPECT_EQ(cli.rest[0], "mul");
  EXPECT_EQ(cli.rest[1], "32");
  EXPECT_EQ(cli.rest[2], "--harden=tmr");
  EXPECT_EQ(cli.rest[3], "speed");
}

TEST(ParseCli, BadThreadsSetsError) {
  for (const std::string& bad :
       {std::string("--threads=bogus"), std::string("--threads=0"),
        std::string("--threads=-2"), std::string("--threads=")}) {
    const CliArgs cli = parse({bad});
    EXPECT_FALSE(cli.ok()) << bad;
    EXPECT_EQ(cli.error, bad);
  }
}

TEST(ParseCli, BackendDefaultsToAutoAndParsesEveryName) {
  EXPECT_EQ(parse({}).backend, rtl::EvalBackend::kAuto);
  EXPECT_EQ(parse({"--backend=interpreted"}).backend,
            rtl::EvalBackend::kInterpreted);
  EXPECT_EQ(parse({"--backend=compiled"}).backend,
            rtl::EvalBackend::kCompiled);
}

TEST(ParseCli, BadBackendSetsError) {
  // "auto" is the absent-flag default, not an accepted spelling: spelling
  // it out would suggest a third backend exists. "bitsliced" named a
  // retired batch mode of the compiled backend.
  for (const std::string& bad :
       {std::string("--backend=bogus"), std::string("--backend="),
        std::string("--backend=auto"), std::string("--backend=Compiled"),
        std::string("--backend=bitsliced")}) {
    const CliArgs cli = parse({bad});
    EXPECT_FALSE(cli.ok()) << bad;
    EXPECT_EQ(cli.error, bad);
    EXPECT_EQ(cli.backend, rtl::EvalBackend::kAuto) << bad;
  }
}

TEST(ParseCli, MissingTwoTokenValueSetsError) {
  const CliArgs cli = parse({"--json"});
  EXPECT_FALSE(cli.ok());
  EXPECT_EQ(cli.error, "--json");
  const CliArgs cli2 = parse({"--csv"});
  EXPECT_FALSE(cli2.ok());
}

TEST(ParseCli, ConsumesEveryResilienceFlag) {
  const CliArgs cli = parse({"--checkpoint=ckdir", "--resume",
                             "--time-budget=2.5", "--trial-budget=100",
                             "--stop-halfwidth=0.05", "--fsync-interval=0"});
  EXPECT_TRUE(cli.ok());
  EXPECT_EQ(cli.checkpoint_dir, "ckdir");
  EXPECT_TRUE(cli.resume);
  EXPECT_DOUBLE_EQ(cli.time_budget_s, 2.5);
  EXPECT_EQ(cli.trial_budget, 100);
  EXPECT_DOUBLE_EQ(cli.stop_half_width, 0.05);
  EXPECT_EQ(cli.fsync_interval, 0);
  EXPECT_TRUE(cli.wants_resilience());
  EXPECT_TRUE(cli.rest.empty());
}

TEST(ParseCli, ResilienceDefaultsAreOff) {
  const CliArgs cli = parse({"--threads=2"});
  EXPECT_TRUE(cli.ok());
  EXPECT_FALSE(cli.wants_resilience());
  EXPECT_TRUE(cli.checkpoint_dir.empty());
  EXPECT_FALSE(cli.resume);
  EXPECT_EQ(cli.fsync_interval, 8) << "default fsync cadence";
}

TEST(ParseCli, EachResilienceFlagAloneWantsResilience) {
  EXPECT_TRUE(parse({"--checkpoint=d"}).wants_resilience());
  EXPECT_TRUE(parse({"--resume"}).wants_resilience());
  EXPECT_TRUE(parse({"--time-budget=1"}).wants_resilience());
  EXPECT_TRUE(parse({"--trial-budget=1"}).wants_resilience());
  EXPECT_TRUE(parse({"--stop-halfwidth=0.1"}).wants_resilience());
  // The fsync cadence alone requests nothing: it only modifies
  // --checkpoint= behaviour.
  EXPECT_FALSE(parse({"--fsync-interval=4"}).wants_resilience());
}

TEST(ParseCli, BadResilienceValuesSetError) {
  for (const std::string& bad :
       {std::string("--checkpoint="), std::string("--time-budget="),
        std::string("--time-budget=0"), std::string("--time-budget=-1"),
        std::string("--time-budget=junk"), std::string("--trial-budget=0"),
        std::string("--trial-budget=ten"), std::string("--trial-budget=-5"),
        std::string("--stop-halfwidth=0"),
        std::string("--stop-halfwidth=-0.1"),
        std::string("--fsync-interval=-1"),
        std::string("--fsync-interval=2x")}) {
    const CliArgs cli = parse({bad});
    EXPECT_FALSE(cli.ok()) << bad;
    EXPECT_EQ(cli.error, bad);
  }
}

}  // namespace
}  // namespace flopsim::obs
