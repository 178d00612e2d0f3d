#include "obs/sink.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.hpp"

namespace flopsim::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonObject, RendersFieldsInInsertionOrder) {
  JsonObject o;
  o.field("s", "v").field("l", 7L).field("d", 0.5).field("b", true);
  EXPECT_EQ(o.str(), "{\"s\": \"v\", \"l\": 7, \"d\": 0.5, \"b\": true}");
}

TEST(JsonObject, DoubleUsesDefaultOstreamFormatting) {
  // Six significant digits — the legacy `out << wall_ms` behavior the
  // BENCH_campaign.json byte-compatibility contract is anchored to.
  JsonObject o;
  o.field("a", 0.123456789).field("b", 1234.56789).field("c", 12.5);
  EXPECT_EQ(o.str(), "{\"a\": 0.123457, \"b\": 1234.57, \"c\": 12.5}");
}

TEST(JsonArray, RendersBothElementTypes) {
  EXPECT_EQ(json_array(std::vector<double>{0.1, 1.0, 2.5}), "[0.1, 1, 2.5]");
  EXPECT_EQ(json_array(std::vector<long>{1, 2, 3}), "[1, 2, 3]");
  EXPECT_EQ(json_array(std::vector<long>{}), "[]");
}

TEST(JsonlSink, EmptyPathDiscardsQuietly) {
  JsonlSink sink("");
  EXPECT_TRUE(sink.ok());
  sink.write_line("{}");
  EXPECT_TRUE(sink.good());
}

// The golden test for the CampaignJournal port: the JSON-lines emission
// must be byte-identical to the original hand-rolled
//   out << "{\"campaign\": \"" << name << "\", \"trials\": " << trials
//       << ", \"threads\": " << threads << ", \"wall_ms\": " << wall_ms
//       << "}\n";
TEST(CampaignJournal, BenchCampaignJsonIsByteIdenticalToLegacyFormat) {
  const std::string path =
      testing::TempDir() + "/flopsim_sink_golden_campaign.json";
  std::remove(path.c_str());

  bench::CampaignJournal journal(4);
  journal.add({"unit_campaign:mult<binary32>:tmr", 32, 4, 12.5, ""});
  journal.add({"seu_depth_sweep:add<binary64>", 200, 4, 1234.56789, ""});
  journal.add({"matmul_campaign:n4:a8m5", 24, 4, 0.123456789, ""});
  ASSERT_TRUE(journal.write(path));

  const std::string expected =
      "{\"campaign\": \"unit_campaign:mult<binary32>:tmr\", \"trials\": 32, "
      "\"threads\": 4, \"wall_ms\": 12.5}\n"
      "{\"campaign\": \"seu_depth_sweep:add<binary64>\", \"trials\": 200, "
      "\"threads\": 4, \"wall_ms\": 1234.57}\n"
      "{\"campaign\": \"matmul_campaign:n4:a8m5\", \"trials\": 24, "
      "\"threads\": 4, \"wall_ms\": 0.123457}\n";
  EXPECT_EQ(read_file(path), expected);

  // Appending (several benches sharing one BENCH_campaign.json in a CI
  // job) keeps prior records.
  bench::CampaignJournal more(1);
  more.add({"extra", 1, 1, 2.0, ""});
  ASSERT_TRUE(more.write(path));
  EXPECT_EQ(read_file(path),
            expected +
                "{\"campaign\": \"extra\", \"trials\": 1, \"threads\": 1, "
                "\"wall_ms\": 2}\n");
  std::remove(path.c_str());
}

// Records that carry a backend (--backend= was given, or the throughput
// comparison stamped one per run) append it as a trailing field; records
// without one stay on the legacy format above, byte-for-byte.
TEST(CampaignJournal, BackendFieldIsEmittedOnlyWhenSet) {
  const std::string path =
      testing::TempDir() + "/flopsim_sink_golden_backend.json";
  std::remove(path.c_str());

  bench::CampaignJournal journal(2, "compiled");
  journal.add({"unit_campaign:mult<binary32>:tmr", 32, 2, 12.5, "compiled"});
  journal.add({"matmul_campaign:n4:a8m5", 24, 2, 2.0, ""});
  ASSERT_TRUE(journal.write(path));
  EXPECT_EQ(read_file(path),
            "{\"campaign\": \"unit_campaign:mult<binary32>:tmr\", "
            "\"trials\": 32, \"threads\": 2, \"wall_ms\": 12.5, "
            "\"backend\": \"compiled\"}\n"
            "{\"campaign\": \"matmul_campaign:n4:a8m5\", \"trials\": 24, "
            "\"threads\": 2, \"wall_ms\": 2}\n");
  std::remove(path.c_str());
}

TEST(CampaignJournal, TimeStampsTheJournalDefaultBackend) {
  bench::CampaignJournal journal(2, "compiled");
  journal.time("probe", 5, [] { return 0; });
  journal.time("probe2", 5, "interpreted", [] { return 0; });
  ASSERT_EQ(journal.records().size(), 2u);
  EXPECT_EQ(journal.records()[0].backend, "compiled");
  EXPECT_EQ(journal.records()[1].backend, "interpreted");
}

TEST(CampaignJournal, TimeRunsTheCallableAndFilesARecord) {
  bench::CampaignJournal journal(2);
  const int result = journal.time("probe", 5, [] { return 17; });
  EXPECT_EQ(result, 17);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.records()[0].name, "probe");
  EXPECT_EQ(journal.records()[0].trials, 5);
  EXPECT_EQ(journal.records()[0].threads, 2);
  EXPECT_GE(journal.records()[0].wall_ms, 0.0);
}

}  // namespace
}  // namespace flopsim::obs
