#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.hpp"

namespace flopsim::obs {
namespace {

TEST(Counter, AddsAndMerges) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Counter, MergeIsExactAcrossPinnedThreads) {
  // Each thread pins a distinct id (hence a distinct shard for ids < 16)
  // and adds a distinct amount; the ordered merge must see the exact sum.
  for (const int threads : {1, 2, 8}) {
    Counter c;
    std::vector<std::thread> pool;
    long expected = 0;
    for (int w = 0; w < threads; ++w) {
      expected += (w + 1) * 1000;
      pool.emplace_back([&c, w] {
        set_thread_id(w);
        for (int i = 0; i < (w + 1) * 1000; ++i) c.inc();
      });
    }
    for (std::thread& t : pool) t.join();
    EXPECT_EQ(c.value(), expected) << "threads=" << threads;
  }
}

TEST(Counter, DeterministicUnderCampaignEngine) {
  // The campaign engine's static chunking plus per-trial increments must
  // yield the same counter value at every thread count.
  constexpr std::size_t kTrials = 10000;
  for (const int threads : {1, 2, 8}) {
    Counter c;
    exec::parallel_for_grid(
        kTrials, threads, [&c](int, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) c.inc();
        });
    EXPECT_EQ(c.value(), static_cast<long>(kTrials)) << "threads=" << threads;
  }
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 3.0});
  h.observe(0.5);   // <= 1.0      -> bucket 0
  h.observe(1.0);   // == bound    -> bucket 0 (inclusive)
  h.observe(1.5);   // <= 2.0      -> bucket 1
  h.observe(3.0);   // == last     -> bucket 2
  h.observe(3.001);  // above last -> overflow bucket 3
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.buckets.size(), 4u);
  EXPECT_EQ(s.buckets[0], 2);
  EXPECT_EQ(s.buckets[1], 1);
  EXPECT_EQ(s.buckets[2], 1);
  EXPECT_EQ(s.buckets[3], 1);
  EXPECT_EQ(s.count, 5);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 1.5 + 3.0 + 3.001);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BucketCountsDeterministicAcrossThreadCounts) {
  constexpr std::size_t kTrials = 4096;
  std::vector<long> golden;
  for (const int threads : {1, 2, 8}) {
    Histogram h({0.25, 0.5, 0.75});
    exec::parallel_for_grid(
        kTrials, threads, [&h](int, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            h.observe(static_cast<double>(i % 100) / 100.0);
          }
        });
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, static_cast<long>(kTrials));
    if (golden.empty()) {
      golden = s.buckets;
    } else {
      EXPECT_EQ(s.buckets, golden) << "threads=" << threads;
    }
  }
}

TEST(Registry, FindOrCreateReturnsStableMetrics) {
  Registry reg;
  Counter& a = reg.counter("a");
  a.inc();
  EXPECT_EQ(&reg.counter("a"), &a);
  EXPECT_EQ(reg.counter("a").value(), 1);
  EXPECT_FALSE(reg.empty());
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(Registry, TypeMismatchThrows) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x", {1.0}), std::invalid_argument);
  reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("h", {1.0}), std::invalid_argument);
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}));
}

TEST(Registry, WritesSortedJsonl) {
  Registry reg;
  reg.counter("b.count").add(3);
  reg.gauge("a.gauge").set(0.5);
  reg.histogram("c.hist", {1.0, 2.0}).observe(1.5);
  std::ostringstream os;
  reg.write_jsonl(os);
  const std::string expected =
      "{\"metric\": \"a.gauge\", \"type\": \"gauge\", \"value\": 0.5}\n"
      "{\"metric\": \"b.count\", \"type\": \"counter\", \"value\": 3}\n"
      "{\"metric\": \"c.hist\", \"type\": \"histogram\", "
      "\"bounds\": [1, 2], \"buckets\": [0, 1, 0], "
      "\"count\": 1, \"sum\": 1.5, "
      "\"p50\": 1.5, \"p95\": 1.95, \"p99\": 1.99}\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  Histogram h({10.0, 20.0, 40.0});
  // 10 observations in (10, 20], none elsewhere: every quantile
  // interpolates linearly inside the second bucket.
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 15.0);   // 10 + 0.5 * (20 - 10)
  EXPECT_DOUBLE_EQ(s.quantile(0.1), 11.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 20.0);
}

TEST(Histogram, QuantileFirstBucketInterpolatesFromZero) {
  Histogram h({8.0});
  h.observe(1.0);
  h.observe(2.0);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 4.0);  // 0 + (1/2) * 8
}

TEST(Histogram, QuantileClampsOverflowToLastBound) {
  Histogram h({1.0, 2.0});
  h.observe(100.0);  // overflow bucket
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 2.0);
}

TEST(Histogram, QuantileOfEmptyHistogramIsZero) {
  Histogram h({1.0, 2.0});
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(Registry, WritesPrometheusExposition) {
  Registry reg;
  reg.counter("b.count").add(3);
  reg.gauge("a.gauge").set(0.5);
  reg.histogram("c.hist", {1.0, 2.0}).observe(1.5);
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string expected =
      "# TYPE a_gauge gauge\n"
      "a_gauge 0.5\n"
      "# TYPE b_count counter\n"
      "b_count 3\n"
      "# TYPE c_hist histogram\n"
      "c_hist_bucket{le=\"1\"} 0\n"
      "c_hist_bucket{le=\"2\"} 1\n"
      "c_hist_bucket{le=\"+Inf\"} 1\n"
      "c_hist_sum 1.5\n"
      "c_hist_count 1\n"
      "c_hist{quantile=\"0.5\"} 1.5\n"
      "c_hist{quantile=\"0.95\"} 1.95\n"
      "c_hist{quantile=\"0.99\"} 1.99\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(Registry, SummaryListsEveryMetric) {
  Registry reg;
  reg.counter("trials").add(7);
  reg.histogram("occ", {0.5}).observe(0.25);
  std::ostringstream os;
  reg.write_summary(os);
  EXPECT_NE(os.str().find("trials  7"), std::string::npos);
  EXPECT_NE(os.str().find("count=1"), std::string::npos);
  // Quantiles ride along: one observation at 0.25 in the [0, 0.5) bucket
  // interpolates to 0.25 at p50 (rank 0.5 of one sample).
  EXPECT_NE(os.str().find("p50=0.25"), std::string::npos);
}

}  // namespace
}  // namespace flopsim::obs
